"""Output checks for benchmark operations. They run after an operation has
exited, outside its timed interval.

Curves are compared with the reference captured in ``reference.json`` within
a tolerance rather than byte for byte, so that a declared change of the
floating-point operation order (for example a batched engine) still passes
while a wrong curve does not. Header, checkpoints, run count and verdict
must match exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

CURVE_HEADER = "t,mean,std_err,run_count"
# |value - ref| <= RTOL * |ref| + ATOL * max|reference mean|
RTOL = 1e-9
ATOL = 1e-12


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text())


def parse_curve(text: str) -> dict:
    lines = text.splitlines()
    if not lines or lines[0] != CURVE_HEADER:
        raise ValueError(f"curve header is {lines[:1]!r}, expected {CURVE_HEADER!r}")
    t, mean, se, counts = [], [], [], []
    for line in lines[1:]:
        a, b, c, d = line.split(",")
        t.append(int(a))
        mean.append(float(b))
        se.append(float(c))
        counts.append(int(d))
    if len(set(counts)) != 1:
        raise ValueError("run_count differs between curve rows")
    return {"t": t, "mean": mean, "std_err": se, "run_count": counts[0]}


def parse_verdict(report_text: str) -> tuple[str, str]:
    tag = verdict = ""
    for line in report_text.splitlines():
        if line.startswith("tag = "):
            tag = line[len("tag = "):]
        elif line.startswith("verdict = "):
            verdict = line[len("verdict = "):]
    return tag, verdict


def check_run(ref: dict, exit_code: int, stdout: str, curve_text: str, report_text: str) -> list[str]:
    """Problems with one ``omdkit run``; an empty list means the output is correct.

    ``ref`` is the reference entry of one workload and base seed.
    """
    if exit_code != 0:
        return [f"exit code {exit_code}, expected 0"]
    problems = []
    tag, verdict = parse_verdict(report_text)
    if (tag, verdict) != (ref["tag"], ref["verdict"]):
        problems.append(f"report verdict {tag}: {verdict}, expected {ref['tag']}: {ref['verdict']}")
    if f"{ref['tag']}: {ref['verdict']}" not in stdout.splitlines():
        problems.append("stdout lacks the verdict line")
    try:
        curve = parse_curve(curve_text)
    except ValueError as exc:
        return problems + [f"curve: {exc}"]
    if curve["t"] != ref["t"]:
        problems.append(f"checkpoints {curve['t']} differ from {ref['t']}")
        return problems
    if curve["run_count"] != ref["run_count"]:
        problems.append(f"run_count {curve['run_count']}, expected {ref['run_count']}")
    scale = ATOL * max(abs(v) for v in ref["mean"])
    for col in ("mean", "std_err"):
        for t, got, want in zip(ref["t"], curve[col], ref[col]):
            if not abs(got - want) <= RTOL * abs(want) + scale:
                problems.append(f"{col} at t={t} is {got!r}, reference {want!r}")
    return problems


def check_verify(ref: dict, exit_code: int, stdout: str) -> list[str]:
    """Problems with one ``omdkit verify``: every reference check must print ``pass``."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}, expected 0"]
    lines = [ln.split(",") for ln in stdout.splitlines() if ln.count(",") == 2]
    names = [parts[0] for parts in lines]
    if names != ref["checks"]:
        problems.append(f"check lines {names} differ from {ref['checks']}")
    problems += [f"{name} reports {status}" for name, status, _ in lines if status != "pass"]
    return problems
