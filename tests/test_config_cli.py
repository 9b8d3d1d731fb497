import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import omdkit
from omdkit.cli import main, omega_table
from omdkit.config import (
    ConfigError,
    ExperimentConfig,
    build_experiment,
    dump_config,
    parse_config,
    with_overrides,
)
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
    ],
)
def test_schema_violations_raise(text):
    with pytest.raises(ConfigError):
        parse_config(text)


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
    np.testing.assert_allclose(exp.w_star, [1.0, -0.5], atol=1e-12)
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
        "base_seed = -1",
        f"base_seed = {2**128 - 1}",
    ],
)
def test_run_out_of_range_value_exits_2_without_outputs(tmp_path, capsys, line):
    conf = tmp_path / "bad.conf"
    conf.write_text(f"T = 16\nn_runs = 4\n{line}\n")
    assert main(["run", str(conf), "--workers", "1"]) == 2
    assert f"{line.split()[0]} must" in capsys.readouterr().err
    assert not conf.with_suffix(".curve.csv").exists()
    assert not conf.with_suffix(".report.txt").exists()


def test_run_regime_violation_exits_3(tmp_path, capsys):
    conf = tmp_path / "loud.conf"
    conf.write_text(small_config_text(eta=0.6))
    assert main(["run", str(conf)]) == 3
    assert not conf.with_suffix(".curve.csv").exists()


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


def test_run_bad_workers_env_exits_2(tmp_path, capsys, monkeypatch):
    conf = tmp_path / "exp.conf"
    conf.write_text(small_config_text())
    for value in ("abc", "0", "-1"):
        monkeypatch.setenv("OMDKIT_WORKERS", value)
        assert main(["run", str(conf)]) == 2
        assert "OMDKIT_WORKERS" in capsys.readouterr().err
        assert not conf.with_suffix(".curve.csv").exists()


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_run_workers_below_one_exits_2(tmp_path, capsys, workers):
    conf = tmp_path / "exp.conf"
    conf.write_text(small_config_text())
    assert main(["run", str(conf), "--workers", workers]) == 2
    assert "--workers must be a positive integer" in capsys.readouterr().err
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


def test_omega_unwritable_out_exits_2(tmp_path, capsys):
    assert main(["omega", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {tmp_path}: Is a directory\n"


def test_omega_matches_function_on_grid():
    table = omega_table(["3/2"], 2.0, 0.125)
    for line in table.strip().splitlines()[1:]:
        u_txt, val_txt = line.split(",")
        assert float(val_txt) == omega_p(1.5, float(u_txt))


SRC = str(Path(omdkit.__file__).resolve().parents[1])


def test_import_leaves_scipy_stats_and_optimize_unloaded():
    code = "import omdkit, sys; print(sorted({'scipy.stats', 'scipy.optimize'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"


def test_import_run_and_verify_leave_scipy_unloaded(tmp_path):
    # The Gaussian source takes the chi-square covariance path, logistic the expit one.
    confs = []
    for name, overrides in [("gauss", dict(source="gaussian_linear")),
                            ("logit", dict(loss="logistic", reg_lambda=0.1))]:
        conf = tmp_path / f"{name}.conf"
        conf.write_text(small_config_text(T=32, n_runs=4, theorem_tag="none", **overrides))
        confs.append(str(conf))
    code = ("import sys, omdkit, omdkit.cli; from omdkit.verification import run_verification; "
            "assert all(r.passed for r in run_verification()); "
            f"assert all(omdkit.cli.main(['run', c, '--workers', '1']) == 0 for c in {confs!r}); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip().splitlines()[-1] == "[]"


@pytest.mark.parametrize("preset, numpy_first, expected", [
    (None, False, "1"),   # omdkit's default: OpenBLAS starts with one thread
    ("2", False, "2"),    # the user's own setting wins
    (None, True, None),   # numpy already loaded: its pool is fixed, so nothing is set
])
def test_import_sets_one_openblas_thread_unless_preset_or_numpy_loaded(preset, numpy_first, expected):
    code = ("import os, sys; " + ("import numpy; " if numpy_first else "") + "import omdkit; "
            "print(os.environ.get('OPENBLAS_NUM_THREADS')); "
            "print(len(os.listdir('/proc/self/task')) if sys.platform == 'linux' else -1)")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    value, tasks = out.stdout.split()
    assert value == str(expected)
    if expected == "1" and tasks != "-1":
        assert tasks == "1"


def pool_modules_around_run(conf):
    """The process-pool modules loaded after ``import omdkit`` and after a 2-worker
    ``omdkit run`` of ``conf``, in a fresh interpreter."""
    code = ("import sys, omdkit; pool = {'concurrent.futures.process', 'multiprocessing'}; "
            "print(sorted(pool & set(sys.modules))); import omdkit.cli; "
            f"assert omdkit.cli.main(['run', {str(conf)!r}, '--workers', '2']) == 0; "
            "print(sorted(pool & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    lines = out.stdout.strip().splitlines()
    return lines[0], lines[-1]


def test_import_and_single_block_run_leave_the_process_pool_unloaded(tmp_path):
    # 4 discrete runs make one block, so even at 2 workers no pool starts.
    conf = tmp_path / "one.conf"
    conf.write_text(small_config_text(T=32, n_runs=4))
    assert pool_modules_around_run(conf) == ("[]", "[]")


def test_hundred_gaussian_runs_leave_the_process_pool_unloaded(tmp_path):
    # The Gaussian benchmark run: its 100 runs at T = 2048 make one block.
    conf = tmp_path / "gauss.conf"
    conf.write_text(small_config_text(
        map="pnorm", map_p=1.5, source="gaussian_linear", source_w_true=(1.0, -0.5, 0.25),
        source_noise_sd=0.3, source_radius=2.0, schedule="polynomial", decay_c=1.0,
        decay_theta=1.0, T=2048, n_runs=100, theorem_tag="Thm1a-pnorm"))
    assert pool_modules_around_run(conf) == ("[]", "[]")


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
    # The same run under the p-norm map at p = 2, whose potential is the Euclidean one.
    conf = tmp_path / "floor.conf"
    conf.write_text(small_config_text(T=2048, n_runs=10, map="pnorm", map_p=2.0))
    assert main(["run", str(conf), "--workers", "1"]) == 0
    rows = conf.with_suffix(".curve.csv").read_text().strip().splitlines()[1:]
    assert min(float(r.split(",")[1]) for r in rows) >= 0.0


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
