"""One benchmark operation in a fresh interpreter.

    python3 perfbench/child.py run CONFIG --workers N --curve C --report R --sidecar S [--trace OP_ID]
    python3 perfbench/child.py verify --sidecar S [--trace OP_ID]
    python3 perfbench/child.py probe CONFIG|- --sidecar S

``run`` and ``verify`` call ``omdkit.cli.main`` exactly as the ``omdkit``
command does. Thin wrappers around the module-level functions ``cli.main``
looks up record when set-up ends and how long ``cli.run_experiment`` took.
With ``--trace`` the wrappers also record spans around the public functions
of each module and count calls to the per-step kernels; the spans stay in
memory and are written to the sidecar once, at exit. ``probe`` times the
per-step kernels on the workload's own objects and draws, untraced. Nothing
inside ``omdkit`` is modified on disk.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from tracing import SpanRecorder, now_ns

KERNEL_BATCH = 2048
KERNEL_REPEATS = 5


def _parse(argv):
    ap = argparse.ArgumentParser(prog="child.py")
    ap.add_argument("mode", choices=["run", "verify", "probe"])
    ap.add_argument("config", nargs="?", default="-")
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--curve")
    ap.add_argument("--report")
    ap.add_argument("--sidecar", required=True)
    ap.add_argument("--trace", default=None, metavar="OP_ID")
    return ap.parse_args(argv)


def _install_trace(rec: SpanRecorder, cli) -> None:
    """Spans at module boundaries, call counts on the per-step kernels."""
    import omdkit.config as config
    import omdkit.engine as engine
    import omdkit.losses as losses
    import omdkit.mirror_maps as mirror_maps
    import omdkit.verification as verification

    for attr, name in [
        ("parse_config", "config.parse"),
        ("build_experiment", "config.build"),
        ("run_experiment", "cli.run_experiment"),
        ("monte_carlo_curve", "engine.monte_carlo_curve"),
        ("theorem_verdict", "diagnostics.verdict"),
        ("format_curve", "cli.format_curve"),
        ("format_report", "cli.format_report"),
    ]:
        setattr(cli, attr, rec.span(name, getattr(cli, attr)))
    for attr, name in [
        ("minimizer", "sources.minimizer"),
        ("classify_variance", "sources.classify_variance"),
        ("resolve_constants", "engine.resolve_constants"),
    ]:
        setattr(config, attr, rec.span(name, getattr(config, attr)))

    def on_trajectory(traj):
        if getattr(traj, "diverged", False):
            rec.counts["engine.diverged_runs"] += 1

    engine.run_trajectory = rec.span("engine.run_trajectory", engine.run_trajectory, on_trajectory)
    engine.draw_arrays = rec.span("sources.draw_arrays", engine.draw_arrays)

    def on_verification(results):
        rec.counts["verification.checks_failed"] += sum(not r.passed for r in results)

    cli.run_verification = rec.span("verification.total", cli.run_verification, on_verification)
    verification.CHECKS = [
        (name, rec.span(f"verification.check.{name}", fn)) for name, fn in verification.CHECKS
    ]

    losses.LossModel.gradient = rec.counter(
        "losses.gradient_calls", losses.LossModel.gradient, "engine.run_trajectory", "engine.steps"
    )
    for cls in [mirror_maps.MirrorMap, *mirror_maps.MirrorMap.__subclasses__()]:
        for meth in ("grad", "grad_inv", "bregman"):
            if meth in vars(cls):
                setattr(cls, meth, rec.counter(f"mirror_maps.{meth}_calls", vars(cls)[meth]))


def _op(args) -> dict:
    marks = {"import_start_ns": now_ns()}
    import omdkit.cli as cli

    marks["import_end_ns"] = now_ns()
    rec = SpanRecorder(args.trace) if args.trace else None
    if rec is not None:
        _install_trace(rec, cli)

    build = cli.build_experiment
    run_experiment = cli.run_experiment

    def timed_build(cfg):
        exp = build(cfg)
        marks["setup_end_ns"] = now_ns()
        marks["steps"] = int(exp.config.n_runs) * (int(exp.config.T) - 1)
        return exp

    def timed_run(exp, *a, **kw):
        t0 = now_ns()
        try:
            return run_experiment(exp, *a, **kw)
        finally:
            marks["run_experiment_ns"] = now_ns() - t0

    cli.build_experiment = timed_build
    cli.run_experiment = timed_run
    if args.mode == "run":
        argv = ["run", args.config, "--workers", str(args.workers),
                "--curve", args.curve, "--report", args.report]
    else:
        argv = ["verify"]
        marks["setup_end_ns"] = marks["import_end_ns"]
    marks["main_start_ns"] = now_ns()
    code = cli.main(argv)
    sys.stdout.flush()
    marks["main_end_ns"] = now_ns()
    out = {"exit_code": code, "marks": marks}
    if rec is not None:
        out["trace"] = rec.to_json()
    return out


def _ns_per_call(fn, arg_rows) -> float:
    """Median over repeats of one batch's time per call, Python loop included."""
    per_call = []
    for _ in range(KERNEL_REPEATS):
        t0 = time.perf_counter_ns()
        for row in arg_rows:
            fn(*row)
        per_call.append((time.perf_counter_ns() - t0) / len(arg_rows))
    return statistics.median(per_call)


def _probe(args) -> dict:
    """ns per call of the per-step kernels on the workload's objects and draws."""
    import numpy as np

    import omdkit as k
    from omdkit.config import build_experiment, parse_config

    if args.config != "-":
        exp = build_experiment(parse_config(open(args.config).read()))
        mirrors, model, source = [exp.mirror], exp.model, exp.source
        seed, w_ref = exp.config.base_seed, exp.w_star
    else:
        # The verify suite's map family and its zero-variance least-squares source.
        mirrors = [k.EuclideanMap(), k.PNormMap(1.2), k.PNormMap(1.5), k.PNormMap(1.9),
                   k.PNormMap(2.0), k.SmoothedL1Map(0.5, 1.0), k.SmoothedL1Map(0.1, 2.0)]
        model = k.LossModel(k.LeastSquares())
        source = k.orthonormal_atom_source(np.eye(3), [1 / 6] * 3, w_star=[1.0, -0.5, 0.25])
        seed, w_ref = 0, k.minimizer(source, model)
    rng = np.random.Generator(np.random.Philox(key=seed))
    sample_ns = []
    for _ in range(KERNEL_REPEATS):
        t0 = time.perf_counter_ns()
        k.draw_arrays(source, rng, KERNEL_BATCH)
        sample_ns.append((time.perf_counter_ns() - t0) / KERNEL_BATCH)
    X, Y = k.draw_arrays(source, rng, KERNEL_BATCH)
    W = w_ref + 0.5 * np.roll(X, 1, axis=0)  # nonzero iterates near the optimum
    grad_rows = [(W[i], X[i], float(Y[i])) for i in range(KERNEL_BATCH)]
    out = {
        "sources.sample_ns": statistics.median(sample_ns),
        "losses.gradient_ns": _ns_per_call(model.gradient, grad_rows),
    }
    per_map = {"grad": [], "grad_inv": [], "bregman": []}
    for mirror in mirrors:
        duals = [mirror.grad(w) for w in W]
        per_map["grad"].append(_ns_per_call(mirror.grad, [(w,) for w in W]))
        per_map["grad_inv"].append(_ns_per_call(mirror.grad_inv, [(v,) for v in duals]))
        per_map["bregman"].append(_ns_per_call(mirror.bregman, [(w_ref, w) for w in W]))
    for meth, vals in per_map.items():
        out[f"mirror_maps.{meth}_ns"] = statistics.mean(vals)
    return {"exit_code": 0, "kernels": out}


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    result = _probe(args) if args.mode == "probe" else _op(args)
    with open(args.sidecar, "w") as fh:
        json.dump(result, fh)
    return result["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
