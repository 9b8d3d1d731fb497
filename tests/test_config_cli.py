import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omdkit import cli
from omdkit.cli import main, omega_table
from omdkit.config import (
    ConfigError,
    ExperimentConfig,
    build_experiment,
    dump_config,
    parse_config,
    with_overrides,
)
from omdkit.diagnostics import THEOREMS
from omdkit.losses import LOSSES
from omdkit.mirror_maps import omega_p, tau


# -- schema ---------------------------------------------------------------------

def test_defaults_round_trip():
    cfg = ExperimentConfig()
    assert parse_config(dump_config(cfg)) == cfg


def test_modified_config_round_trips():
    cfg = with_overrides(
        ExperimentConfig(),
        map="pnorm",
        map_p=1.5,
        source_label_noise=0.15,
        schedule="polynomial",
        decay_c=0.1,
        decay_theta=1.0,
        T=512,
        n_runs=32,
        theorem_tag="Thm1a-pnorm",
    )
    assert parse_config(dump_config(cfg)) == cfg


def test_comments_and_blank_lines_ignored():
    text = "# heading\n\nT = 32   # trailing comment\nn_runs = 8\n"
    cfg = parse_config(text)
    assert cfg.T == 32 and cfg.n_runs == 8


@pytest.mark.parametrize(
    "text",
    [
        "unknown_key = 3",
        "T = not_a_number",
        "T = 32\nT = 64",
        "map = simplex",
        "loss = hinge",
        "schedule = adaptive",
        "n_runs = 1",
        "T = 0",
        "sigma_f = -1",
        "just a line without equals",
        "w1 = 1 abc 0 0",
        "w1 = nan 0 0 0",
        "w1 =",
        "checkpoints = 1.5 2",
    ],
)
def test_schema_violations_raise(text):
    with pytest.raises(ConfigError):
        parse_config(text)


# Values of the wrong kind for a field of each type, and for each field that
# holds a keyword or numbers; any other text is a string.
WRONG_KIND = {
    bool: ["0.5"], int: ["abc"], float: ["abc"], tuple: [""],
    "sigma_f": ["abc", "1 2"], "w1": ["1 abc 0 0", ""], "checkpoints": ["1.5 2"],
}


@pytest.mark.parametrize("name", ExperimentConfig._fields)
def test_each_field_parses_as_the_type_of_its_default(name, tmp_path, capsys):
    default = ExperimentConfig._field_defaults[name]
    line = next(line for line in dump_config(ExperimentConfig()).splitlines() if line.startswith(f"{name} = "))
    value = getattr(parse_config(line), name)
    assert value == default and type(value) is type(default)
    if type(default) is tuple:
        assert all(type(v) is float for v in value)
    for text in WRONG_KIND.get(name, WRONG_KIND.get(type(default), [])):
        conf = tmp_path / "bad.conf"
        conf.write_text(f"{name} = {text}\n")
        assert main(["run", str(conf), "--workers", "1"]) == 2
        assert capsys.readouterr().err.startswith(f"error: invalid config: bad value for {name}: ")


def test_overrides_reject_non_finite_floats():
    with pytest.raises(ConfigError, match="eta must be finite"):
        with_overrides(ExperimentConfig(), eta=float("inf"))
    with pytest.raises(ConfigError, match="source_weights must be finite"):
        with_overrides(ExperimentConfig(), source_weights=(0.15, 0.15, float("nan"), 0.1))


def test_base_seed_range_ends_at_the_last_philox_key():
    assert parse_config(f"n_runs = 4\nbase_seed = {2**128 - 4}").base_seed == 2**128 - 4
    with pytest.raises(ConfigError, match="base_seed"):
        parse_config(f"n_runs = 4\nbase_seed = {2**128 - 3}")
    with pytest.raises(ConfigError, match="base_seed"):
        parse_config("base_seed = -1")


def test_source_rotation_range_is_the_philox_key_range():
    # The rotation seed keys a Philox stream, as base_seed does.
    last = parse_config(f"source_rotation = {2**128 - 1}")
    assert build_experiment(last).source.n_atoms == 8
    for bad in (-1, 2**128):
        with pytest.raises(ConfigError, match="source_rotation must be >= 0 and < 2\\*\\*128"):
            parse_config(f"source_rotation = {bad}")


def test_build_experiment_default_config():
    exp = build_experiment(ExperimentConfig())
    assert exp.source.n_atoms == 8
    assert exp.constants.lambda_min == pytest.approx(0.2, abs=1e-12)
    assert exp.d1 == exp.mirror.bregman(exp.w_star, exp.w1)
    assert exp.checkpoints[-1] == exp.config.T


def test_build_experiment_dimension_mismatches():
    with pytest.raises(ConfigError):
        build_experiment(ExperimentConfig(source_weights=(0.25, 0.25)))
    with pytest.raises(ConfigError):
        build_experiment(ExperimentConfig(w1="1.0 2.0"))
    with pytest.raises(ConfigError):
        build_experiment(ExperimentConfig(checkpoints="4 2"))


def test_build_experiment_pnorm_theorem_rate_unresolvable():
    cfg = ExperimentConfig(map="pnorm", schedule="theorem_rate", source_label_noise=0.5)
    with pytest.raises(ConfigError, match="sigma_f"):
        build_experiment(cfg)


def test_explicit_w1_and_checkpoints():
    cfg = ExperimentConfig(w1="0.1 0.2 0.3 0.4", checkpoints="1 2 50 100")
    exp = build_experiment(cfg)
    np.testing.assert_allclose(exp.w1, [0.1, 0.2, 0.3, 0.4])
    assert exp.checkpoints == [1, 2, 50, 100]


def test_build_gaussian_experiment():
    from omdkit.sources import VarianceRegime

    cfg = ExperimentConfig(
        source="gaussian_linear",
        source_w_true=(1.0, -0.5),
        source_noise_sd=0.0,
        source_feature_scale=0.4,
        source_radius=1.0,
    )
    exp = build_experiment(cfg)
    assert exp.variance is VarianceRegime.ZERO
    np.testing.assert_allclose(exp.w_star, [1.0, -0.5], atol=1e-12, rtol=0)
    noisy = build_experiment(
        ExperimentConfig(
            source="gaussian_linear", source_w_true=(1.0, -0.5), source_noise_sd=0.3,
            source_feature_scale=0.4, source_radius=1.0,
        )
    )
    assert noisy.variance is VarianceRegime.POSITIVE


# -- cli: dump defaults ------------------------------------------------------------

def test_dump_defaults_round_trips(capsys):
    assert main(["--dump-defaults"]) == 0
    out = capsys.readouterr().out
    assert parse_config(out) == ExperimentConfig()


# -- cli: run ----------------------------------------------------------------------

def small_config_text(**overrides):
    fields = dict(T=64, n_runs=40, eta=0.1, theorem_tag="Thm3-linear-rate")
    fields.update(overrides)
    return dump_config(with_overrides(ExperimentConfig(), **fields))


def test_run_writes_deterministic_artifacts(tmp_path, capsys):
    conf = tmp_path / "exp.conf"
    conf.write_text(small_config_text())
    curve = tmp_path / "out.curve.csv"
    report = tmp_path / "out.report.txt"
    assert main(["run", str(conf), "--curve", str(curve), "--report", str(report)]) == 0
    first_curve = curve.read_bytes()
    first_report = report.read_bytes()

    header, *rows = first_curve.decode().strip().splitlines()
    assert header == "t,mean,std_err,run_count"
    means = [float(r.split(",")[1]) for r in rows]
    assert all(b < a for a, b in zip(means, means[1:]))  # zero-variance decay
    assert "verdict = Pass" in first_report.decode()

    assert main(["run", str(conf), "--curve", str(curve), "--report", str(report)]) == 0
    assert curve.read_bytes() == first_curve
    assert report.read_bytes() == first_report


def test_run_malformed_config_exits_2_without_outputs(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("map = simplex\n")
    assert main(["run", str(conf)]) == 2
    assert not conf.with_suffix(".curve.csv").exists()
    assert not conf.with_suffix(".report.txt").exists()
    assert main(["run", str(tmp_path / "missing.conf")]) == 2


def test_run_unreadable_config_or_unwritable_output_exits_2(tmp_path, capsys):
    latin = tmp_path / "latin.conf"
    latin.write_bytes(b"\xff\xfe\n")
    assert main(["run", str(latin)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read config: 'utf-8' codec")
    conf = tmp_path / "exp.conf"
    conf.write_text(small_config_text(T=16, n_runs=4))
    for flag in ("--curve", "--report"):
        bad = tmp_path / "missing" / "out"
        assert main(["run", str(conf), "--workers", "1", flag, str(bad)]) == 2
        assert capsys.readouterr().err == f"error: cannot write {bad}: No such file or directory\n"


@pytest.mark.parametrize(
    "line",
    [
        "eta = inf",
        "eta = -inf",
        "decay_theta = nan",
        "kappa = nan",
        "source_scale = inf",
        "source_weights = 0.15 0.15 nan 0.1",
        "source_w_star = 0.8 inf 0.3 0.25",
        "sigma_f = inf",
        "w1 = nan 0 0 0",
        "base_seed = -1",
        f"base_seed = {2**128 - 1}",
        "source_rotation = -1",
        f"source_rotation = {2**128}",
    ],
)
def test_run_out_of_range_value_exits_2_without_outputs(tmp_path, capsys, line):
    conf = tmp_path / "bad.conf"
    conf.write_text(f"T = 16\nn_runs = 4\n{line}\n")
    assert main(["run", str(conf), "--workers", "1"]) == 2
    assert f"{line.split()[0]} must" in capsys.readouterr().err
    assert not conf.with_suffix(".curve.csv").exists()
    assert not conf.with_suffix(".report.txt").exists()


@pytest.mark.parametrize("lines, message", [
    ("source = gaussian_linear\nsource_feature_scale = 1e-300",
     "feature_scale must lie in (1.49167e-154, 6.7039e+153), got 1e-300"),
    ("source = gaussian_linear\nsource_feature_scale = 1e308",
     "feature_scale must lie in (1.49167e-154, 6.7039e+153), got 1e+308"),
    ("source = gaussian_linear\nsource_radius = 1e308", "radius must lie in (0, 6.7039e+153), got 1e+308"),
    ("w1 = 1e300 0 0 0", "w1 must lie in [-1e+12, 1e+12], got 1e+300"),
], ids=["gaussian-tiny-scale", "gaussian-huge-scale", "gaussian-huge-radius", "w1-past-the-divergence-guard"])
def test_run_overflowing_scale_or_diverged_start_exits_2_without_outputs(tmp_path, capsys, lines, message):
    # Refused before the covariance squares the scales with Python floats, whose
    # ** raises OverflowError, and before d1 overflows numpy's vecdot.
    conf = tmp_path / "bad.conf"
    conf.write_text(f"T = 16\nn_runs = 4\n{lines}\n")
    assert main(["run", str(conf), "--workers", "1"]) == 2
    assert capsys.readouterr().err == f"error: invalid config: {message}\n"
    assert not conf.with_suffix(".curve.csv").exists()
    assert not conf.with_suffix(".report.txt").exists()


def test_run_negative_label_noise_exits_2_without_outputs(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("T = 16\nn_runs = 4\nsource_label_noise = -1\n")
    assert main(["run", str(conf), "--workers", "1"]) == 2
    assert capsys.readouterr().err == "error: invalid config: label_noise must lie in [0, 6.7039e+153), got -1.0\n"
    assert not conf.with_suffix(".curve.csv").exists()
    assert not conf.with_suffix(".report.txt").exists()


@pytest.mark.parametrize(
    "lines, message",
    [
        ("schedule = theorem_rate\nsigma_f = 1e-320", "the first step overflows"),
        ("schedule = polynomial\ndecay_c = 0.1\ndecay_theta = 2000", "the step size underflows to 0 by t = 63"),
        # Separable data: each Newton step grows the margins by about 1, and at
        # reg_lambda = 1e-300 the minimizer's are near log(1e300) = 690.
        ("map = smoothed_l1\nloss = logistic\nreg_lambda = 1e-300", "damped Newton for the minimizer"),
    ],
)
def test_run_unusable_steps_or_minimizer_exit_2_without_outputs(tmp_path, capsys, lines, message):
    conf = tmp_path / "bad.conf"
    conf.write_text(f"T = 64\nn_runs = 10\n{lines}\n")
    assert main(["run", str(conf), "--workers", "1"]) == 2
    assert message in capsys.readouterr().err
    assert not conf.with_suffix(".curve.csv").exists()
    assert not conf.with_suffix(".report.txt").exists()


def test_run_first_step_of_zero_exits_2_without_outputs(tmp_path, capsys):
    # 4 / (1e308 * (1 + 1)) is 0.0; at T = 1 no later step is ever taken.
    conf = tmp_path / "bad.conf"
    conf.write_text("schedule = theorem_rate\nsigma_f = 1e308\nT = 1\nn_runs = 10\n")
    assert main(["run", str(conf), "--workers", "1"]) == 2
    assert "the first step overflows or is not positive" in capsys.readouterr().err
    assert not conf.with_suffix(".curve.csv").exists()
    assert not conf.with_suffix(".report.txt").exists()


@pytest.mark.parametrize("exclude", [True, False])
def test_almost_sure_verdict_scores_the_runs_the_curve_keeps(tmp_path, capsys, exclude):
    # 2 of the 40 runs diverge.  Left out of the curve, they are left out of
    # the verdict too, and every kept run decays; kept in, they fail it.
    conf = tmp_path / "as.conf"
    conf.write_text(dump_config(with_overrides(
        ExperimentConfig(), map="pnorm", map_p=1.5, source_label_noise=1.0, schedule="polynomial",
        decay_c=40.0, decay_theta=0.75, T=256, n_runs=40, theorem_tag="Thm4-as", exclude_diverged=exclude,
    )))
    assert main(["run", str(conf), "--workers", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == ("Thm4-as: Pass" if exclude else "Thm4-as: Fail")
    report = conf.with_suffix(".report.txt").read_text()
    assert f"run_count = {38 if exclude else 40}\ndiverged = 2\n" in report
    assert f"detail.per_run_fraction = {1.0 if exclude else 0.95}\n" in report


def test_run_regime_violation_exits_3(tmp_path, capsys):
    conf = tmp_path / "loud.conf"
    conf.write_text(small_config_text(eta=0.6))
    assert main(["run", str(conf)]) == 3
    assert not conf.with_suffix(".curve.csv").exists()


def test_linear_rate_takes_a_constant_step_in_its_polynomial_spelling(tmp_path, capsys):
    # A polynomial decay at theta = 0 is the constant step bit for bit, so the
    # regime check, the verdict and the curve are those of schedule = constant.
    outs = {}
    for name, overrides in [("constant", dict(schedule="constant", eta=0.1)),
                            ("polynomial", dict(schedule="polynomial", decay_c=0.1, decay_theta=0.0))]:
        conf = tmp_path / f"{name}.conf"
        conf.write_text(small_config_text(**overrides))
        assert main(["run", str(conf), "--workers", "1"]) == 0
        verdict = capsys.readouterr().out.splitlines()[-1]
        outs[name] = verdict, conf.with_suffix(".curve.csv").read_bytes()
    assert outs["polynomial"] == outs["constant"]
    assert outs["constant"][0] == "Thm3-linear-rate: Pass"


def test_necessity_limit_on_a_zero_variance_source_exits_3(tmp_path, capsys):
    # With zero variance a constant step converges linearly, outside the theorem.
    conf = tmp_path / "limit.conf"
    conf.write_text(small_config_text(T=512, theorem_tag="Thm2-necessity-limit", violation_probe=True))
    assert main(["run", str(conf), "--workers", "1"]) == 3
    assert capsys.readouterr().err == (
        "error: step-size regime violation: Thm2-necessity-limit needs a positive-variance source\n")
    assert not conf.with_suffix(".curve.csv").exists()
    assert not conf.with_suffix(".report.txt").exists()


def test_unknown_theorem_tag_is_a_schema_error(tmp_path, capsys):
    with pytest.raises(ConfigError, match="unknown theorem tag"):
        parse_config("theorem_tag = Thm9-typo")
    conf = tmp_path / "typo.conf"
    conf.write_text("T = 16\nn_runs = 4\ntheorem_tag = Thm9-typo\n")
    assert main(["run", str(conf)]) == 2
    assert "unknown theorem tag" in capsys.readouterr().err
    assert not conf.with_suffix(".curve.csv").exists()
    assert not conf.with_suffix(".report.txt").exists()


def test_run_verdict_at_precision_floor_exits_0(tmp_path, capsys):
    # A zero-variance run started at w* never moves (w* is dyadic here, so the
    # solve for it is exact), so its mean curve is 0.0 at every checkpoint,
    # where the linear-rate fit cannot take logarithms.
    conf = tmp_path / "floor.conf"
    conf.write_text(small_config_text(T=2048, n_runs=10, source_w_star=(0.5, -0.25, 0.125, 0.25),
                                      w1="0.5 -0.25 0.125 0.25"))
    assert main(["run", str(conf), "--workers", "1"]) == 0
    assert "Thm3-linear-rate: Inconclusive" in capsys.readouterr().out
    report = conf.with_suffix(".report.txt").read_text()
    assert "verdict = Inconclusive" in report
    assert "detail.reason = 'rate fits need strictly positive means in the window'" in report


def test_run_all_diverged_exits_4(tmp_path, capsys):
    conf = tmp_path / "explode.conf"
    conf.write_text(small_config_text(eta=1e6, theorem_tag="none", T=32, n_runs=4))
    assert main(["run", str(conf)]) == 4


def test_run_non_finite_curve_exits_4(tmp_path, capsys):
    # Half of the atoms have zero gradient at w1 = 0; a step of 1e200 along any
    # other atom overflows the Bregman distance, so the curve is not finite.
    conf = tmp_path / "overflow.conf"
    conf.write_text(small_config_text(
        eta=1e200, theorem_tag="none", T=2, n_runs=16, source_w_star=(0.5, 0.5, 0.5, 0.5),
        source_label_noise=0.5,
    ))
    assert main(["run", str(conf), "--workers", "1"]) == 4
    assert "not finite" in capsys.readouterr().err
    assert not conf.with_suffix(".curve.csv").exists()
    assert not conf.with_suffix(".report.txt").exists()


@pytest.mark.parametrize("workers", ["0", "-1", "abc"])
def test_run_workers_below_one_exits_2(tmp_path, capsys, workers):
    conf = tmp_path / "exp.conf"
    conf.write_text(small_config_text())
    with pytest.raises(SystemExit) as exc:
        main(["run", str(conf), "--workers", workers])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert not conf.with_suffix(".curve.csv").exists()
    assert not conf.with_suffix(".report.txt").exists()


def test_run_violation_probe_necessity(tmp_path, capsys):
    cfg = with_overrides(
        ExperimentConfig(),
        T=256,
        n_runs=60,
        schedule="polynomial",
        decay_c=0.05,
        decay_theta=2.0,
        source_label_noise=1.0,
        theorem_tag="Thm2-necessity-probe",
        violation_probe=True,
    )
    conf = tmp_path / "probe.conf"
    conf.write_text(dump_config(cfg))
    assert main(["run", str(conf)]) == 0
    report = conf.with_suffix(".report.txt").read_text()
    assert "tag = Thm2-necessity-probe" in report
    assert "verdict = Pass" in report


# -- cli: verify -------------------------------------------------------------------

def test_verify_cli_green_and_deterministic(tmp_path, capsys):
    out = tmp_path / "verify.txt"
    assert main(["verify", "--report", str(out)]) == 0
    stdout = capsys.readouterr().out
    report = out.read_text()
    assert stdout == report
    lines = report.strip().splitlines()
    assert len(lines) >= 9
    for line in lines:
        name, status, residual = line.split(",")
        assert status == "pass"
        float(residual)


def test_verify_unwritable_report_exits_2(tmp_path, capsys):
    bad = tmp_path / "missing" / "verify.txt"
    assert main(["verify", "--report", str(bad)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {bad}: No such file or directory\n"


# -- cli: omega ---------------------------------------------------------------------

def test_omega_table_default_values():
    table = omega_table(["4/3", "3/2", "2"], 3.0, 0.01)
    lines = table.strip().splitlines()
    assert lines[0] == "u,omega_4/3,omega_3/2,omega_2"
    first = lines[1].split(",")
    assert [float(v) for v in first] == [0.0, 0.0, 0.0, 0.0]
    row_at_one = lines[101].split(",")
    assert float(row_at_one[0]) == 1.0
    for col, p in zip(row_at_one[1:], (4.0 / 3.0, 1.5, 2.0)):
        assert float(col) == pytest.approx(1.0 / tau(p), abs=1e-15)


def test_omega_table_p2_column_is_huber():
    table = omega_table(["2"], 3.0, 0.01)
    for line in table.strip().splitlines()[1:]:
        u_txt, val_txt = line.split(",")
        u, val = float(u_txt), float(val_txt)
        expected = 0.5 * u * u if u < 1.0 else u - 0.5
        assert val == pytest.approx(expected, abs=1e-15)


def test_omega_cli_writes_file(tmp_path, capsys):
    out = tmp_path / "omega.csv"
    assert main(["omega", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 302
    assert lines[0] == "u,omega_4/3,omega_3/2,omega_2"


def test_omega_rejects_bad_exponent(tmp_path, capsys):
    assert main(["omega", "--p", "3", "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize("args, message", [
    (["--p", "abc"], "cannot parse exponent 'abc'"),
    (["--p", "nan"], "cannot parse exponent 'nan'"),
    (["--p", "1e400"], "exponent 1e400 overflows a float"),
    (["--grid", "inf", "0.1"], "grid max must lie in (0, inf), got inf"),
    (["--grid", "nan", "0.1"], "grid max must lie in (0, inf), got nan"),
    (["--grid", "1e308", "1e-300"], "grid 1e+308 / 1e-300 has too many points"),
    (["--grid", "1e12", "1"], "grid 1000000000000.0 / 1.0 has too many points"),
], ids=["p-abc", "p-nan", "p-overflow", "grid-inf", "grid-nan", "grid-overflow", "grid-too-many"])
def test_omega_bad_argument_is_an_error_line_and_exit_2(tmp_path, capsys, args, message):
    out = tmp_path / "x.csv"
    assert main(["omega", *args, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_omega_unwritable_out_exits_2(tmp_path, capsys):
    assert main(["omega", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {tmp_path}: Is a directory\n"


def test_omega_matches_function_on_grid():
    table = omega_table(["3/2"], 2.0, 0.125)
    for line in table.strip().splitlines()[1:]:
        u_txt, val_txt = line.split(",")
        assert float(val_txt) == omega_p(1.5, float(u_txt))


# The mc_euclid benchmark run at its first base seed: 200 runs at T = 2048.
MC_EUCLID = dict(source_label_noise=1.0, schedule="theorem_rate", T=2048, n_runs=200, base_seed=2000,
                 theorem_tag="Thm2b-rate")


def test_fresh_interpreters_cannot_import_scipy(run_fresh):
    out = run_fresh("try:\n    import scipy\nexcept ModuleNotFoundError as e:\n    print(e.name)\n")
    assert out.stdout == "scipy\n"


def test_import_run_and_verify_leave_scipy_unloaded(run_fresh, tmp_path):
    # The Gaussian source takes the chi-square covariance path, logistic the
    # expit one; logistic under smoothed-l1 finds its minimizer by damped Newton
    # on the population risk.
    confs = []
    for name, overrides in [("gauss", dict(source="gaussian_linear")),
                            ("logit", dict(loss="logistic", reg_lambda=0.1)),
                            ("sl1", dict(map="smoothed_l1", loss="logistic", reg_lambda=0.1))]:
        conf = tmp_path / f"{name}.conf"
        conf.write_text(small_config_text(T=32, n_runs=4, theorem_tag="none", **overrides))
        confs.append(conf)
    code = ("import sys, omdkit, omdkit.cli; from omdkit.verification import run_verification; "
            "assert all(r.passed for r in run_verification()); "
            f"assert all(omdkit.cli.main(['run', c, '--workers', '1']) == 0 for c in {list(map(str, confs))!r}); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = run_fresh(code)
    assert out.stdout.strip().splitlines()[-1] == "[]"
    for conf in confs:
        assert conf.with_suffix(".curve.csv").exists() and conf.with_suffix(".report.txt").exists()


@pytest.mark.parametrize("preset, numpy_first, expected", [
    (None, False, "1"),   # omdkit's default: OpenBLAS starts with one thread
    ("2", False, "2"),    # the user's own setting wins
    (None, True, None),   # numpy already loaded: its pool is fixed, so nothing is set
])
def test_import_sets_one_openblas_thread_unless_preset_or_numpy_loaded(run_fresh, preset, numpy_first, expected):
    code = ("import os, sys; " + ("import numpy; " if numpy_first else "") + "import omdkit; "
            "print(os.environ.get('OPENBLAS_NUM_THREADS')); "
            "print(len(os.listdir('/proc/self/task')) if sys.platform == 'linux' else -1)")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    value, tasks = run_fresh(code, env).stdout.split()
    assert value == str(expected)
    if expected == "1" and tasks != "-1":
        assert tasks == "1"


def pool_modules_around_run(run_fresh, conf):
    """The process-pool modules loaded after ``import omdkit`` and after a 2-worker
    ``omdkit run`` of ``conf``, in a fresh interpreter."""
    code = ("import sys, omdkit; pool = {'concurrent.futures.process', 'multiprocessing'}; "
            "print(sorted(pool & set(sys.modules))); import omdkit.cli; "
            f"assert omdkit.cli.main(['run', {str(conf)!r}, '--workers', '2']) == 0; "
            "print(sorted(pool & set(sys.modules)))")
    lines = run_fresh(code).stdout.strip().splitlines()
    return lines[0], lines[-1]


def test_import_and_single_block_run_leave_the_process_pool_unloaded(run_fresh, tmp_path):
    # 4 discrete runs make one block, so even at 2 workers no pool starts.
    conf = tmp_path / "one.conf"
    conf.write_text(small_config_text(T=32, n_runs=4))
    assert pool_modules_around_run(run_fresh, conf) == ("[]", "[]")


def test_hundred_gaussian_runs_leave_the_process_pool_unloaded(run_fresh, tmp_path):
    # Each benchmark run makes one block: the Gaussian one's 100 runs at
    # T = 2048, and mc_euclid's 200 runs, 409,400 run-steps.
    gauss = dict(map="pnorm", map_p=1.5, source="gaussian_linear", source_w_true=(1.0, -0.5, 0.25),
                 source_noise_sd=0.3, source_radius=2.0, schedule="polynomial", decay_c=1.0,
                 decay_theta=1.0, T=2048, n_runs=100, theorem_tag="Thm1a-pnorm")
    for name, overrides in [("gauss", gauss), ("euclid", MC_EUCLID)]:
        conf = tmp_path / f"{name}.conf"
        conf.write_text(small_config_text(**overrides))
        assert pool_modules_around_run(run_fresh, conf) == ("[]", "[]")


def test_import_leaves_numpy_random_unloaded(run_fresh):
    # numpy loads np.random on first access, and annotations are evaluated at
    # import, so one that names np.random would load it in every process.
    code = "import sys, omdkit.cli, omdkit.verification; print('numpy.random' in sys.modules)"
    assert run_fresh(code).stdout.strip() == "False"


def test_run_leaves_the_verify_suite_and_fractions_unloaded(run_fresh, tmp_path):
    # verify and omega load them when called, and still work.
    conf = tmp_path / "gauss.conf"
    conf.write_text(small_config_text(map="pnorm", map_p=1.5, source="gaussian_linear", T=32, n_runs=4,
                                      theorem_tag="none"))
    code = ("import sys, omdkit.cli; lazy = {'omdkit.verification', 'fractions'}; "
            f"assert omdkit.cli.main(['run', {str(conf)!r}, '--workers', '1']) == 0; "
            "print(sorted(lazy & set(sys.modules))); "
            "assert omdkit.cli.main(['verify']) == 0; "
            f"assert omdkit.cli.main(['omega', '--p', '4/3', '--out', {str(tmp_path / 'omega.csv')!r}]) == 0; "
            "print(sorted(lazy & set(sys.modules)))")
    out = run_fresh(code)
    loaded = [line for line in out.stdout.splitlines() if line.startswith("[")]
    assert loaded == ["[]", "['fractions', 'omdkit.verification']"]
    assert "21/21 checks passed" in out.stderr
    assert (tmp_path / "omega.csv").read_text().startswith("u,omega_4/3\n")


def test_import_makes_only_the_validating_classes_dataclasses(run_fresh):
    # dataclasses writes and compiles each class's methods when its module is
    # imported, in every cold process; a record that only holds fields is a
    # NamedTuple.  Only the two classes that check their fields are dataclasses,
    # in what ``omdkit run`` and ``omdkit verify`` import.
    code = ("import dataclasses, sys, omdkit.cli, omdkit.verification; "
            "print(sorted(c.__qualname__ for n, m in list(sys.modules.items()) if n.split('.')[0] == 'omdkit' "
            "for c in vars(m).values() if isinstance(c, type) and c.__module__ == n "
            "and dataclasses.is_dataclass(c)))")
    assert run_fresh(code).stdout.strip() == "['LossModel', 'StepSchedule']"


def test_exit_freezes_the_heap_after_the_artifacts_are_written(run_fresh, tmp_path):
    # atexit runs the last-registered hook first, so a hook registered before
    # cli.main runs after omdkit's gc.freeze and sees the frozen heap.
    conf = tmp_path / "exp.conf"
    conf.write_text(small_config_text())
    curve, report = tmp_path / "out.curve.csv", tmp_path / "out.report.txt"
    code = ("import atexit, gc, sys; atexit.register(lambda: print(gc.get_freeze_count() > 0)); "
            "import omdkit.cli; "
            f"sys.exit(omdkit.cli.main(['run', {str(conf)!r}, '--workers', '1', "
            f"'--curve', {str(curve)!r}, '--report', {str(report)!r}]))")
    out = run_fresh(code)
    assert out.stdout.splitlines()[-1] == "True"
    exp = build_experiment(parse_config(conf.read_text()))
    result = cli.run_experiment(exp, workers=1)
    verdicts = [cli.theorem_verdict(result, "Thm3-linear-rate")]
    assert curve.read_text() == cli.format_curve(result)
    assert report.read_text() == cli.format_report(exp, result, verdicts)


def test_main_registers_one_exit_hook_and_leaves_the_collector_alone(run_fresh):
    # Calling main twice, as a library caller may, leaves one hook, and neither
    # freezes nor disables the collector while the caller runs.  The hook is
    # counted by its calls: atexit._ncallbacks() also counts unregistered slots.
    code = ("import gc, json, sys; freeze = gc.freeze; "
            "gc.freeze = lambda: (print('freeze'), freeze()); import omdkit.cli; "
            "state = lambda: [gc.get_freeze_count(), gc.isenabled()]; "
            "before = state(); "
            "assert omdkit.cli.main(['--dump-defaults']) == 0; "
            "assert omdkit.cli.main(['--dump-defaults']) == 0; "
            "print(json.dumps([before, state()]), file=sys.stderr)")
    out = run_fresh(code)
    assert json.loads(out.stderr) == [[0, True], [0, True]]
    assert out.stdout.splitlines().count("freeze") == 1
    assert out.stdout.endswith("freeze\n")


def test_verify_calls_the_module_level_suite(monkeypatch, capsys):
    # A wrapper set on cli.run_verification is the suite that verify runs.
    fake = SimpleNamespace(passed=True, line=lambda: "fake,pass,0.0")
    monkeypatch.setattr(cli, "run_verification", lambda: [fake])
    assert main(["verify"]) == 0
    assert capsys.readouterr().out == "fake,pass,0.0\n"


def test_run_verdict_under_the_float64_floor_is_inconclusive(tmp_path, capsys):
    # Started at the config's w*, one ulp from the solved minimizer, the zero-variance
    # iterate never moves: the curve is a flat 1.54e-33, which no rate fit can score.
    conf = tmp_path / "floor.conf"
    conf.write_text(small_config_text(T=2048, n_runs=10, w1="0.8 -0.45 0.3 0.25"))
    assert main(["run", str(conf), "--workers", "1"]) == 0
    assert "Thm3-linear-rate: Inconclusive" in capsys.readouterr().out
    rows = conf.with_suffix(".curve.csv").read_text().strip().splitlines()[1:]
    assert {float(r.split(",")[1]) for r in rows} == {1.5407439555097887e-33}
    report = conf.with_suffix(".report.txt").read_text()
    assert "verdict = Inconclusive" in report
    assert ("detail.reason = 'every mean in the window lies under the float64 floor "
            "1.9721522630525295e-31'") in report


def test_pnorm_two_curve_is_nonnegative_down_to_the_floor(tmp_path):
    # The floor run and the mc_euclid benchmark run under the p-norm map at
    # p = 2, which is the Euclidean map, so each writes the Euclidean curve
    # byte for byte.
    for name, overrides in [("floor", dict(T=2048, n_runs=10)), ("mc_euclid", MC_EUCLID)]:
        conf = tmp_path / f"{name}_p2.conf"
        conf.write_text(small_config_text(map="pnorm", map_p=2.0, **overrides))
        assert main(["run", str(conf), "--workers", "1"]) == 0
        rows = conf.with_suffix(".curve.csv").read_text().strip().splitlines()[1:]
        assert min(float(r.split(",")[1]) for r in rows) >= 0.0
        euclid = tmp_path / f"{name}.conf"
        euclid.write_text(small_config_text(**overrides))
        assert main(["run", str(euclid), "--workers", "1"]) == 0
        assert conf.with_suffix(".curve.csv").read_bytes() == euclid.with_suffix(".curve.csv").read_bytes()


def test_euclidean_curve_is_nonnegative_down_to_the_floor(tmp_path):
    # Zero variance and a constant step drive the mean below 1e-30 by T = 2048,
    # where value(t) - value(b) - <t - b, b> cancels to about -6e-17.
    conf = tmp_path / "floor.conf"
    conf.write_text(small_config_text(T=2048, n_runs=10))
    assert main(["run", str(conf), "--workers", "1"]) == 0
    rows = conf.with_suffix(".curve.csv").read_text().strip().splitlines()[1:]
    means = [float(r.split(",")[1]) for r in rows]
    assert [int(r.split(",")[0]) for r in rows][-1] == 2048
    assert min(means) >= 0.0


# -- config fuzz ------------------------------------------------------------------

# Values past every key's domain: non-finite, overflowing and subnormal floats,
# a negative number and a word.
EDGE_VALUES = ["nan", "inf", "1e308", "1e-320", "5e-324", "-1", "abc"]
_FLOAT = st.floats(-2.0, 2.0).map(repr)
_POSITIVE = st.floats(1e-3, 10.0).map(repr)
_FLOATS = st.lists(st.one_of(_FLOAT, st.sampled_from(EDGE_VALUES)), min_size=1, max_size=5).map(" ".join)

# Each key's valid domain, as config text; T and n_runs stay fixed, so that a run is short.
VALID_TEXT = {
    "map": st.sampled_from(["euclidean", "pnorm", "smoothed_l1"]),
    "map_p": st.floats(1.05, 2.0).map(repr),
    "map_epsilon": _POSITIVE,
    "map_lambda": _POSITIVE,
    "loss": st.sampled_from(sorted(LOSSES)),
    "reg_lambda": st.floats(0.0, 1.0).map(repr),
    "source": st.sampled_from(["orthonormal", "gaussian_linear"]),
    "source_d": st.integers(1, 6).map(str),
    "source_weights": st.sampled_from(["0.15 0.15 0.1 0.1", "0.25 0.25", "0.5"]),
    "source_scale": _POSITIVE,
    "source_w_star": _FLOATS,
    "source_label_noise": st.floats(0.0, 2.0).map(repr),
    "source_rotation": st.integers(0, 2**128 - 1).map(str),
    "source_w_true": _FLOATS,
    "source_noise_sd": st.floats(0.0, 2.0).map(repr),
    "source_feature_scale": _POSITIVE,
    "source_radius": _POSITIVE,
    "schedule": st.sampled_from(["constant", "polynomial", "theorem_rate"]),
    "eta": _POSITIVE,
    "decay_c": _POSITIVE,
    "decay_theta": st.floats(0.0, 2.0).map(repr),
    "sigma_f": st.one_of(st.just("auto"), _POSITIVE),
    "w1": st.one_of(st.just("zeros"), _FLOATS),
    "checkpoints": st.one_of(st.just("geometric"), st.sets(st.integers(1, 16), min_size=1).map(
        lambda ts: " ".join(map(str, sorted(ts))))),
    "base_seed": st.integers(0, 10**6).map(str),
    "theorem_tag": st.sampled_from(["none", *THEOREMS]),
    "violation_probe": st.sampled_from(["true", "false"]),
    "kappa": st.floats(0.5, 3.0).map(repr),
    "exclude_diverged": st.sampled_from(["true", "false"]),
}


@st.composite
def fuzzed_keys(draw):
    """1 to 4 keys, each set to a value of its domain or to an edge value."""
    keys = draw(st.lists(st.sampled_from(sorted(VALID_TEXT)), min_size=1, max_size=4, unique=True))
    return {key: draw(st.one_of(VALID_TEXT[key], st.sampled_from(EDGE_VALUES))) for key in keys}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(keys=fuzzed_keys())
@example(keys={"source": "gaussian_linear", "source_feature_scale": "1e-300"})
@example(keys={"source": "gaussian_linear", "source_feature_scale": "1e308"})
@example(keys={"w1": "1e300 0 0 0"})
@example(keys={"map": "pnorm", "map_p": "1.05", "source_label_noise": "1e15"})
def test_every_config_ends_in_a_documented_exit_code(keys):
    # Every config ends in 0, 2, 3 or 4 and raises nothing; a RuntimeWarning
    # is an error under the suite's warning filter.  derandomize=True draws
    # the same configs on every run, so a failure reproduces.
    text = "T = 16\nn_runs = 8\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
    with (tempfile.TemporaryDirectory() as tmp,
          redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO())):
        conf = Path(tmp) / "fuzz.conf"
        conf.write_text(text)
        assert main(["run", str(conf), "--workers", "1"]) in (0, 2, 3, 4)
