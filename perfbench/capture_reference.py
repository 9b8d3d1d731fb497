"""Regenerate ``reference.json`` from the program in the current checkout.

    python3 perfbench/capture_reference.py

Runs every Monte Carlo workload once per reference base seed and ``omdkit
verify`` once, and records the curves, verdicts and check names the output
checks compare against. Rerun it only for a change that declares new curve
bytes or verdicts.
"""

from __future__ import annotations

import json
import sys

from checks import REFERENCE_PATH, parse_curve, parse_verdict
from run import CHILD, SRC, WORK, spawn
from workloads import REFERENCE_SEEDS, WORKLOADS, base_seed_for, config_text, usable_cores


def main() -> int:
    if not (SRC / "omdkit" / "__init__.py").is_file():
        print("error: run from the root of a checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    config, curve, report = WORK / "capture.conf", WORK / "capture.curve.csv", WORK / "capture.report.txt"
    reference: dict = {}
    for w in WORKLOADS.values():
        if w.kind != "run":
            continue
        entries = {}
        for seed in range(REFERENCE_SEEDS):
            config.write_text(config_text(w, seed))
            op = spawn([str(CHILD), "run", str(config), "--workers", str(usable_cores()),
                        "--curve", str(curve), "--report", str(report),
                        "--sidecar", str(WORK / "capture.json")], "capture", timeout_s=600)
            if op.exit_code != 0:
                print(op.stderr, file=sys.stderr)
                return 1
            tag, verdict = parse_verdict(report.read_text())
            base = base_seed_for(w, seed)
            entries[str(base)] = {"tag": tag, "verdict": verdict, **parse_curve(curve.read_text())}
            print(f"{w.name} base_seed {base}: {tag} {verdict}")
        reference[w.name] = entries
    op = spawn([str(CHILD), "verify", "--sidecar", str(WORK / "capture.json")], "capture",
               timeout_s=600)
    lines = [ln.split(",") for ln in op.stdout.splitlines() if ln.count(",") == 2]
    reference["verify_suite"] = {"checks": [parts[0] for parts in lines]}
    print(f"verify_suite: {sum(p[1] == 'pass' for p in lines)}/{len(lines)} pass")
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
