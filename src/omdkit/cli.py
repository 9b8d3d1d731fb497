"""Command-line entry points.

Subcommands
-----------
run <config>     execute one experiment file; writes a curve CSV and a report
verify           run the identity/property suite; one line per check
omega            tabulate the Huber-like control function over a grid
--dump-defaults  print the default experiment config

Exit codes: 0 success, 1 failed verification, 2 schema violation (also an
unknown theorem_tag, a --workers or OMDKIT_WORKERS count that is not a
positive integer, a config that cannot be read or decoded, or an output path
that cannot be written), 3 step-size regime violation, 4 all Monte Carlo runs
diverged or the curve is not finite.  Curve and report bytes depend only on
the config (timings go to stdout, not into the artifacts).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from fractions import Fraction
from pathlib import Path

from .config import ConfigError, Experiment, build_experiment, dump_config, parse_config
from .diagnostics import ExperimentResult, assert_step_regime, theorem_verdict
from .engine import (AllRunsDiverged, RegimeError, ResolvedConstants, checked_workers, default_workers,
                     monte_carlo_curve)
from .mirror_maps import omega_p
from .verification import run_verification

__all__ = ["main", "run_experiment", "format_report", "format_curve", "omega_table"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_SCHEMA = 2
EXIT_REGIME = 3
EXIT_DIVERGED = 4


def run_experiment(exp: Experiment, workers: int | None = None) -> ExperimentResult:
    cfg = exp.config
    if cfg.theorem_tag != "none":
        assert_step_regime(
            cfg.theorem_tag,
            exp.schedule,
            exp.constants,
            kappa=cfg.kappa,
            violation_probe=cfg.violation_probe,
            variance=exp.variance,
        )
    mc = monte_carlo_curve(
        exp.mirror,
        exp.model,
        exp.source,
        exp.schedule,
        exp.w1,
        cfg.T,
        exp.checkpoints,
        cfg.n_runs,
        cfg.base_seed,
        exp.w_star,
        workers=workers,
        exclude_diverged=cfg.exclude_diverged,
    )
    return ExperimentResult(
        mc=mc,
        constants=exp.constants,
        schedule=exp.schedule,
        T=cfg.T,
        d1=exp.d1,
        w_star=exp.w_star,
    )


def format_curve(result: ExperimentResult) -> str:
    curve = result.curve
    lines = ["t,mean,std_err,run_count"]
    for t, m, s in zip(curve.checkpoints, curve.mean, curve.std_err):
        lines.append(f"{int(t)},{float(m)!r},{float(s)!r},{curve.run_count}")
    return "\n".join(lines) + "\n"


def _opt(x) -> str:
    return "none" if x is None else repr(float(x))


def format_report(exp: Experiment, result: ExperimentResult, verdicts) -> str:
    cfg = exp.config
    c = result.constants
    out = ["# omdkit experiment report", "", "[config]"]
    out.append(dump_config(cfg).rstrip("\n"))
    out += ["", "[constants]"]
    out += [f"{f.name} = {_opt(getattr(c, f.name))}" for f in dataclasses.fields(ResolvedConstants)]
    out += [
        f"d1 = {result.d1!r}",
        f"variance = {exp.variance.value}",
        "w_star = " + " ".join(repr(float(v)) for v in exp.w_star),
        "",
        "[schedule]",
        f"kind = {result.schedule.kind}",
        f"eta1 = {result.schedule(1)!r}",
        f"limit_zero = {str(result.schedule.limit_zero).lower()}",
        f"sum_infinite = {str(result.schedule.sum_infinite).lower()}",
        f"sum_squares_finite = {str(result.schedule.sum_squares_finite).lower()}",
        "",
        "[runs]",
        f"n_runs = {result.mc.n_runs}",
        f"run_count = {result.curve.run_count}",
        f"diverged = {len(result.mc.diverged_runs)}",
    ]
    for report in verdicts:
        out += ["", "[verdict]", f"tag = {report.tag}", f"verdict = {report.verdict.value}"]
        for key in sorted(report.details):
            val = report.details[key]
            out.append(f"detail.{key} = {val!r}")
    return "\n".join(out) + "\n"


def _write(path: Path, text: str) -> bool:
    """Write one output file; on an OS error, say so on stderr and return False."""
    try:
        path.write_text(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return False
    return True


def _cmd_run(args) -> int:
    path = Path(args.config)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    try:
        cfg = parse_config(text)
        exp = build_experiment(cfg)
    except ConfigError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    try:
        workers = default_workers() if args.workers is None else checked_workers(args.workers, "--workers")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    started = time.perf_counter()
    try:
        result = run_experiment(exp, workers=workers)
    except RegimeError as exc:
        print(f"error: step-size regime violation: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except AllRunsDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    verdicts = []
    if cfg.theorem_tag != "none":
        verdicts.append(theorem_verdict(result, cfg.theorem_tag))
    elapsed = time.perf_counter() - started
    curve_path = Path(args.curve) if args.curve else path.with_suffix(".curve.csv")
    report_path = Path(args.report) if args.report else path.with_suffix(".report.txt")
    if not (_write(curve_path, format_curve(result))
            and _write(report_path, format_report(exp, result, verdicts))):
        return EXIT_SCHEMA
    print(f"wrote {curve_path} and {report_path} ({result.mc.n_runs} runs in {elapsed:.2f}s)")
    for report in verdicts:
        print(f"{report.tag}: {report.verdict.value}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    started = time.perf_counter()
    results = run_verification()
    report = "\n".join(r.line() for r in results) + "\n"
    sys.stdout.write(report)
    if args.report and not _write(Path(args.report), report):
        return EXIT_SCHEMA
    elapsed = time.perf_counter() - started
    print(f"{sum(r.passed for r in results)}/{len(results)} checks passed in {elapsed:.1f}s",
          file=sys.stderr)
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY_FAILED


def _parse_p_token(token: str) -> float:
    try:
        return float(Fraction(token))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"cannot parse exponent {token!r}") from None


def omega_table(p_tokens: list[str], grid_max: float, grid_step: float) -> str:
    ps = [(tok, _parse_p_token(tok)) for tok in p_tokens]
    for tok, p in ps:
        if not (1.0 < p <= 2.0):
            raise ValueError(f"exponent {tok} outside (1, 2]")
    if grid_max <= 0.0 or grid_step <= 0.0:
        raise ValueError("grid max and step must be positive")
    n = int(round(grid_max / grid_step))
    header = "u," + ",".join(f"omega_{tok}" for tok, _ in ps)
    lines = [header]
    for i in range(n + 1):
        u = i * grid_step
        vals = ",".join(repr(omega_p(p, u)) for _, p in ps)
        lines.append(f"{u!r},{vals}")
    return "\n".join(lines) + "\n"


def _cmd_omega(args) -> int:
    try:
        table = omega_table(args.p, args.grid[0], args.grid[1])
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    out = Path(args.out)
    if not _write(out, table):
        return EXIT_SCHEMA
    print(f"wrote {out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="omdkit",
        description="Online mirror descent experiments and convergence diagnostics.",
    )
    parser.add_argument(
        "--dump-defaults",
        action="store_true",
        help="print the default experiment config and exit",
    )
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config", help="path to a key = value experiment file")
    p_run.add_argument("--curve", default=None, help="curve CSV output path")
    p_run.add_argument("--report", default=None, help="report output path")
    p_run.add_argument(
        "--workers",
        type=int,
        default=None,
        help="Monte Carlo worker processes (default: OMDKIT_WORKERS or the usable cores)",
    )

    p_verify = sub.add_parser("verify", help="run the identity/property suite")
    p_verify.add_argument("--report", default=None, help="also write the report to this path")

    p_omega = sub.add_parser("omega", help="tabulate the control function")
    p_omega.add_argument("--p", nargs="+", default=["4/3", "3/2", "2"],
                         help="exponents (floats or fractions like 4/3)")
    p_omega.add_argument("--grid", nargs=2, type=float, default=[3.0, 0.01],
                         metavar=("MAX", "STEP"), help="grid upper end and spacing")
    p_omega.add_argument("--out", default="omega.csv", help="output CSV path")

    args = parser.parse_args(argv)
    if args.dump_defaults:
        from .config import ExperimentConfig

        sys.stdout.write(dump_config(ExperimentConfig()))
        return EXIT_OK
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "omega":
        return _cmd_omega(args)
    parser.print_help()
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
