"""omdkit benchmark: cold, closed-loop operations timed from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program under test is
``src/omdkit`` of that checkout. One operation runs at a time, each in a fresh
interpreter, and the next starts only after the previous one has exited.

``--trace 0`` repeats the workload's operation for ``--seconds`` seconds and
reports the end-to-end metrics as medians over the operations, with the
times scaled to a reference machine speed sampled during each operation
(``speed.py``). ``--trace 1``
runs a fixed sequence instead: ``python -X importtime``, two untraced
operations with one worker, alternating with two at the end-to-end worker
count (Monte Carlo workloads), one traced operation with one worker and one
kernel probe, and reports the per-layer metrics.

Every operation's outputs are checked after it exits. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give each metric with its
quartiles and sample count. Work files, results and span dumps go to
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path

from checks import check_run, check_verify, load_reference
from speed import SLICE_REF_S, SpeedSampler, scale
from tracing import (
    Span,
    cumulative_import_s,
    parse_importtime,
    percentile,
    self_times_ns,
    spans_from_json,
    summarize,
    now_ns,
)
from workloads import WORKLOADS, Workload, base_seed_for, config_text, usable_cores

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
CHILD = Path(__file__).with_name("child.py")

RUN_BUDGET_S = 165  # a run must end within 180 s; an operation still running then is killed
MIN_OPS = 3
IMPORTTIME_REPEATS = 3
BASELINE_REPEATS = 2

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")]


@dataclass
class Op:
    """One finished child process, timed from spawn to exit."""

    name: str
    exit_code: int
    start_ns: int
    end_ns: int
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str
    sidecar: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    speed: SpeedSampler | None = None

    @property
    def wall_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9

    def mark_s(self, key: str) -> float:
        """Seconds from spawn to a timestamp the child recorded."""
        return (self.sidecar["marks"][key] - self.start_ns) / 1e9


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(args: list[str], name: str, timeout_s: float, sample_speed: bool = False) -> Op:
    """Run ``python args`` to completion; CPU time and peak RSS include its children.

    The child leads its own process group, so that killing it at the run's
    deadline also stops the Monte Carlo workers it started. With
    ``sample_speed`` a ``SpeedSampler`` runs from spawn to exit.
    """
    sidecar = WORK / f"{name}.json"
    sidecar.unlink(missing_ok=True)
    out_path, err_path = WORK / f"{name}.out", WORK / f"{name}.err"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    speed = SpeedSampler(now_ns) if sample_speed else contextlib.nullcontext()
    with open(out_path, "w") as out, open(err_path, "w") as err, speed as sampler:
        start = now_ns()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err, env=env, cwd=ROOT,
                                start_new_session=True)
        watchdog = threading.Timer(timeout_s, _kill_group, (proc.pid,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        end = now_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    op = Op(
        name=name,
        exit_code=proc.returncode,
        start_ns=start,
        end_ns=end,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        stdout=out_path.read_text(),
        stderr=err_path.read_text(),
        speed=sampler,
    )
    if sidecar.exists():
        op.sidecar = json.loads(sidecar.read_text())
    return op


class Bench:
    def __init__(self, workload: Workload, seed: int, reference: dict):
        self.w = workload
        self.seed = seed
        self.workers = usable_cores()
        self.config = WORK / f"{workload.name}.conf"
        self.curve = WORK / f"{workload.name}.curve.csv"
        self.report = WORK / f"{workload.name}.report.txt"
        if workload.kind == "run":
            self.config.write_text(config_text(workload, seed))
            self.ref = reference[workload.name][str(base_seed_for(workload, seed))]
        else:
            self.ref = reference[workload.name]
        self.check_names = reference["verify_suite"]["checks"]
        self.ops: list[Op] = []
        self.deadline_ns = now_ns() + RUN_BUDGET_S * 10**9

    def spawn(self, args: list[str], name: str, sample_speed: bool = False) -> Op:
        return spawn(args, name, max(1.0, (self.deadline_ns - now_ns()) / 1e9), sample_speed)

    def op(self, name: str, workers: int, trace: bool = False, sample_speed: bool = False) -> Op:
        """One checked operation of the workload."""
        args = [str(CHILD)]
        if self.w.kind == "run":
            self.curve.unlink(missing_ok=True)
            self.report.unlink(missing_ok=True)
            args += ["run", str(self.config), "--workers", str(workers),
                     "--curve", str(self.curve), "--report", str(self.report)]
        else:
            args += ["verify"]
        args += ["--sidecar", str(WORK / f"{name}.json")]
        if trace:
            args += ["--trace", f"{self.w.name}/{self.seed}/{name}"]
        op = self.spawn(args, name, sample_speed)
        if self.w.kind == "run":
            read = lambda p: p.read_text() if p.exists() else ""
            op.problems = check_run(self.ref, op.exit_code, op.stdout, read(self.curve), read(self.report))
        else:
            op.problems = check_verify(self.ref, op.exit_code, op.stdout)
        if "marks" not in op.sidecar and not op.problems:
            op.problems.append("the operation wrote no timing sidecar")
        if op.problems:
            print(f"FAILED {name}: " + "; ".join(op.problems[:5]), file=sys.stderr)
        self.ops.append(op)
        return op

    def env(self) -> dict:
        cpu = ""
        try:
            for line in Path("/proc/cpuinfo").read_text().splitlines():
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
        except OSError:
            pass
        return {
            "workload": self.w.name,
            "seed": self.seed,
            "base_seed": base_seed_for(self.w, self.seed) if self.w.kind == "run" else None,
            "cpu_model": cpu or platform.processor(),
            "usable_cores": usable_cores(),
            "workers": self.workers,
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy"),
            "platform": platform.platform(),
        }

    # -- end to end ------------------------------------------------------------

    def end_to_end(self, seconds: float) -> dict:
        """Operations for about ``seconds``, each with a ``SpeedSampler``.

        ``samples`` holds the times scaled to the reference machine speed
        (``speed.py``) and the peak RSS; ``raw`` the times as measured.
        """
        self.spawn(["-c", "import omdkit"], "warmup")  # compiles bytecode and fills the page cache
        # Start another operation only while one more of median length still ends
        # within the measuring time, so that a run lasts about --seconds.
        end = now_ns() + seconds * 1e9
        while len(self.ops) < MIN_OPS or (
                now_ns() + statistics.median(op.end_ns - op.start_ns for op in self.ops) <= end):
            self.op(f"op{len(self.ops)}", self.workers, sample_speed=True)
        raw: dict[str, list[float]] = {"setup_s": [], "wall_s": [], "cpu_s": []}
        samples: dict[str, list[float]] = {"setup_s": [], "wall_s": [], "cpu_s": [], "peak_rss_mb": []}
        extra: dict[str, list[float]] = {"slice_s": []}
        for op in self.ops:
            whole = op.speed.mean_s(op.start_ns, op.end_ns)
            extra["slice_s"].append(whole)
            times = {"wall_s": (op.wall_s, whole), "cpu_s": (op.cpu_s, whole)}
            if "marks" in op.sidecar:
                setup_end = op.sidecar["marks"]["setup_end_ns"]
                times["setup_s"] = (op.mark_s("setup_end_ns"), op.speed.mean_s(op.start_ns, setup_end))
            for name, (t, mean_slice) in times.items():
                raw[name].append(t)
                samples[name].append(scale(t, mean_slice))
            samples["peak_rss_mb"].append(op.peak_rss_mb)
        if self.w.kind == "run":
            extra["steps_per_s"] = [
                op.sidecar["marks"]["steps"] / (op.sidecar["marks"]["run_experiment_ns"] / 1e9)
                for op in self.ops if "marks" in op.sidecar
            ]
        return {"samples": samples, "raw": raw, "extra": extra}

    # -- traced ----------------------------------------------------------------

    def traced(self) -> tuple[dict, list[Span]]:
        imports = [self.spawn(["-X", "importtime", "-c", "import omdkit"], f"importtime{i}")
                   for i in range(IMPORTTIME_REPEATS)]
        for op in imports:
            if op.exit_code != 0:
                raise RuntimeError(f"import omdkit failed:\n{op.stderr}")
        entries = [parse_importtime(op.stderr) for op in imports]
        m: dict[str, float] = {}
        for metric, module in [("init.import_s", "omdkit"), ("init.scipy_stats_import_s", "scipy.stats"),
                               ("init.scipy_special_import_s", "scipy.special"),
                               ("init.numpy_import_s", "numpy")]:
            m[metric] = statistics.median(cumulative_import_s(e, module) for e in entries)

        # Untraced baselines, alternating so that a drift in machine speed hits
        # both worker counts alike.
        plain, pooled = [], []
        for i in range(BASELINE_REPEATS):
            plain.append(self.op(f"untraced_w1_{i}", 1))
            if self.w.kind == "run":
                pooled.append(self.op(f"untraced_w{self.workers}_{i}", self.workers))
        traced = self.op("traced_w1", 1, trace=True)
        probe_args = [str(CHILD), "probe", str(self.config) if self.w.kind == "run" else "-",
                      "--sidecar", str(WORK / "probe.json")]
        probe = self.spawn(probe_args, "probe")
        if probe.exit_code != 0:
            raise RuntimeError(f"kernel probe failed:\n{probe.stderr}")
        kernels = probe.sidecar["kernels"]

        spans = self._span_tree(traced)
        selfs = self_times_ns(spans)
        counts = traced.sidecar.get("trace", {}).get("counts", {})

        def total(name):
            return sum(s.duration_ns for s in spans if s.name == name) / 1e9

        def self_total(name):
            return sum(t for s, t in zip(spans, selfs) if s.name == name) / 1e9

        runs = [s.duration_ns / 1e9 for s in spans if s.name == "engine.run_trajectory"]
        steps = counts.get("engine.steps", 0)
        m.update({
            "config.parse_s": total("config.parse"),
            "config.build_s": total("config.build"),
            "sources.minimizer_s": total("sources.minimizer"),
            "sources.classify_variance_s": total("sources.classify_variance"),
            "engine.resolve_constants_s": total("engine.resolve_constants"),
            "sources.draw_arrays_s": total("sources.draw_arrays"),
            "sources.draw_arrays_calls": sum(s.name == "sources.draw_arrays" for s in spans),
            "sources.sample_ns": kernels["sources.sample_ns"],
            "losses.gradient_ns": kernels["losses.gradient_ns"],
            "losses.gradient_calls": counts.get("losses.gradient_calls", 0),
            "mirror_maps.grad_ns": kernels["mirror_maps.grad_ns"],
            "mirror_maps.grad_calls": counts.get("mirror_maps.grad_calls", 0),
            "mirror_maps.grad_inv_ns": kernels["mirror_maps.grad_inv_ns"],
            "mirror_maps.grad_inv_calls": counts.get("mirror_maps.grad_inv_calls", 0),
            "mirror_maps.bregman_ns": kernels["mirror_maps.bregman_ns"],
            "mirror_maps.bregman_calls": counts.get("mirror_maps.bregman_calls", 0),
            "engine.monte_carlo_s": total("engine.monte_carlo_curve"),
            "engine.run_trajectory_s.p50": percentile(runs, 50),
            "engine.run_trajectory_s.p99": percentile(runs, 99),
            "engine.step_self_ns": (self_total("engine.run_trajectory") * 1e9 / steps) if steps else 0.0,
            "engine.steps": steps,
            "engine.diverged_runs": counts.get("engine.diverged_runs", 0),
            "engine.aggregate_s": self_total("engine.monte_carlo_curve"),
            "diagnostics.verdict_s": total("diagnostics.verdict"),
            "cli.format_s": total("cli.format_curve") + total("cli.format_report"),
            "verification.total_s": total("verification.total"),
            "verification.checks_failed": counts.get("verification.checks_failed", 0),
        })
        for kernel, calls in [("losses.gradient", "losses.gradient_calls"),
                              ("mirror_maps.grad", "mirror_maps.grad_calls"),
                              ("mirror_maps.grad_inv", "mirror_maps.grad_inv_calls"),
                              ("mirror_maps.bregman", "mirror_maps.bregman_calls")]:
            m[f"{kernel}_est_s"] = m[f"{kernel}_ns"] * m[calls] / 1e9
        for name in self.check_names:
            m[f"verification.check.{name}_s"] = total(f"verification.check.{name}")
        if self.w.kind == "run":
            m["cli.artifact_bytes"] = self._artifact_bytes()
            run_1 = statistics.median(op.sidecar["marks"]["run_experiment_ns"] for op in plain) / 1e9
            run_w = statistics.median(op.sidecar["marks"]["run_experiment_ns"] for op in pooled) / 1e9
            m["engine.pool_overhead_s"] = run_w - run_1 / self.workers
            m["engine.steps_per_s"] = pooled[0].sidecar["marks"]["steps"] / run_w
        else:
            m["cli.artifact_bytes"] = 0
            m["engine.pool_overhead_s"] = 0.0
            m["engine.steps_per_s"] = 0.0
        wall = traced.wall_s
        m["trace.wall_s"] = wall
        m["trace.remainder_s"] = selfs[0] / 1e9
        m["trace.span_self_s"] = sum(selfs[1:]) / 1e9
        m["trace.overhead_ratio"] = wall / statistics.median(op.wall_s for op in plain)
        if abs(m["trace.remainder_s"] + m["trace.span_self_s"] - wall) > 1e-6:
            traced.problems.append("span self times and remainder do not add up to the wall time")
        return m, spans

    def _artifact_bytes(self) -> int:
        return sum(p.stat().st_size for p in (self.curve, self.report) if p.exists())

    def _span_tree(self, op: Op) -> list[Span]:
        """The traced operation as one tree: the whole operation as root, the
        import and ``cli.main`` under it, the recorded spans under ``cli.main``."""
        if "trace" not in op.sidecar:
            return [Span("op", op.start_ns, op.end_ns, None, op.name)]
        marks, trace = op.sidecar["marks"], op.sidecar["trace"]
        op_id = trace["op_id"]
        spans = [
            Span("op", op.start_ns, op.end_ns, None, op_id),
            Span("init.import", marks["import_start_ns"], marks["import_end_ns"], 0, op_id),
            Span("cli.main", marks["main_start_ns"], marks["main_end_ns"], 0, op_id),
        ]
        return spans + spans_from_json(trace["spans"], op_id, parent_offset=3, root=2)


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (SRC / "omdkit" / "__init__.py").is_file():
        print(f"error: no omdkit sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    bench = Bench(WORKLOADS[args.workload], args.seed, load_reference())
    env = bench.env()
    print("env: " + json.dumps(env, sort_keys=True))
    results_dir = WORK / "results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record: dict = {"env": env}
    if args.trace == 0:
        e2e = bench.end_to_end(args.seconds)
        metrics = {}
        for name, unit in END_TO_END:
            s = summarize(e2e["samples"][name])
            metrics[name] = {"value": s["median"], "unit": unit}
            raw = (f"  (as measured: median {_fmt(statistics.median(e2e['raw'][name]))} {unit})"
                   if name in e2e["raw"] else "")
            print(f"{name:<14} median {_fmt(s['median'])} {unit}  "
                  f"p25 {_fmt(s['p25'])}  p75 {_fmt(s['p75'])}  n {s['n']}{raw}")
        sl = summarize(e2e["extra"]["slice_s"])
        print(f"{'slice_s':<14} median {_fmt(sl['median'])} s  p25 {_fmt(sl['p25'])}  "
              f"p75 {_fmt(sl['p75'])}  n {sl['n']}  (speed sample; reference {SLICE_REF_S} s)")
        if "steps_per_s" in e2e["extra"]:
            s = summarize(e2e["extra"]["steps_per_s"])
            print(f"{'steps_per_s':<14} median {_fmt(s['median'])} 1/s  "
                  f"p25 {_fmt(s['p25'])}  p75 {_fmt(s['p75'])}  n {s['n']}")
        else:
            print(f"{'steps_per_s':<14} n/a (no Monte Carlo on this workload)")
        record["samples"] = {**e2e["samples"], **e2e["extra"]}
        record["raw_samples"] = e2e["raw"]
    else:
        per_layer, spans = bench.traced()
        metrics = {}
        for name, value in per_layer.items():
            unit = _unit(name)
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:<52} {_fmt(value)} {unit}")
        _print_span_table(spans)
        dump = [
            {"op_id": s.op_id, "name": s.name, "start_ns": s.start_ns, "end_ns": s.end_ns,
             "parent": s.parent, "self_ns": t}
            for s, t in zip(spans, self_times_ns(spans))
        ]
        (results_dir / f"{stem}-spans.json").write_text(json.dumps(dump))
    failed = sum(bool(op.problems) for op in bench.ops)
    attempted = len(bench.ops)
    print(f"{'fail_ratio':<14} {failed / attempted:.6g} ({failed} of {attempted} operations)")
    record.update({"metrics": metrics, "attempted": attempted, "failed": failed,
                   "problems": {op.name: op.problems for op in bench.ops if op.problems}})
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ns"):
        return "ns"
    if name.endswith("_s") or name.endswith("_s.p50") or name.endswith("_s.p99"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _print_span_table(spans: list[Span]) -> None:
    selfs = self_times_ns(spans)
    rows: dict[str, list] = {}
    for s, t in zip(spans, selfs):
        row = rows.setdefault(s.name, [0, 0, 0])
        row[0] += 1
        row[1] += s.duration_ns
        row[2] += t
    print(f"{'span':<52} {'calls':>7} {'total_s':>10} {'self_s':>10}")
    for name, (n, tot, slf) in sorted(rows.items(), key=lambda kv: -kv[1][2]):
        label = "op (remainder)" if name == "op" else name
        print(f"{label:<52} {n:>7} {tot / 1e9:>10.4f} {slf / 1e9:>10.4f}")


if __name__ == "__main__":
    sys.exit(main())
