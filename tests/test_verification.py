import tracemalloc

import numpy as np
import pytest

from omdkit import cli, diagnostics, verification
from omdkit.geometry import p_norm
from omdkit.losses import Huber, LeastSquares, Logistic, LossModel, Sigmoid, SquaredHinge
from omdkit.mirror_maps import MirrorMap, PNormMap, SmoothedL1Map
from omdkit.verification import CHECK_NAMES, run_verification

IDENTITY_CHECKS = {
    "key_identity",
    "bregman_duality",
    "bregman_sum_identity",
    "gradient_norm_identity",
    "pnorm_bregman_upper",
    "pnorm_lower_control",
    "cocoercivity_margin",
    "fenchel_conjugate_bruteforce",
    "nonsmoothness_witness_monotone",
    "kaczmarz_equivalence",
    "omega_continuity_convexity",
}


@pytest.fixture(scope="module")
def results():
    return run_verification()


def run_check(name):
    """The ``CHECKS`` row ``name`` at its own stream offset, as ``run_verification`` runs it."""
    return dict(verification.CHECKS)[name](CHECK_NAMES.index(name))


def test_suite_is_green(results):
    failures = [r.name for r in results if not r.passed]
    assert failures == []


def test_suite_covers_the_identity_checks(results):
    names = {r.name for r in results}
    assert IDENTITY_CHECKS <= names
    assert len(names) >= 9


def test_registry_names_match_results(results):
    assert [r.name for r in results] == CHECK_NAMES


def test_report_lines_are_deterministic(results):
    again = run_verification()
    assert [r.line() for r in again] == [r.line() for r in results]


def test_line_format(results):
    for r in results:
        name, status, residual = r.line().split(",")
        assert name == r.name
        assert status in ("pass", "fail")
        float(residual)  # parses back


def test_fenchel_polish_closes_the_brute_force_gap():
    # sup_w <w, v> - ||w||_p^kappa / kappa from a start 0.25 from the maximiser
    # (0.67, -1.19): the local search must reach the closed form to float64 precision.
    import numpy as np

    from omdkit.mirror_maps import norm_power_conjugate
    from omdkit.verification import _local_search

    kappa, p, v = 3.0, 1.5, np.array([1.5, -2.0])
    formula = norm_power_conjugate(kappa, v, p)

    def objective(w):
        return w @ v - (np.abs(w) ** p).sum(axis=-1) ** (kappa / p) / kappa

    start = np.array([0.9, -1.1])
    assert formula - float(objective(start)) > 1e-2
    best = _local_search(objective, start, np.random.default_rng(0))
    assert best == pytest.approx(formula, rel=1e-12)
    assert best <= formula + 1e-9 * formula


def test_fenchel_polish_keeps_a_nan_it_meets():
    # NaN on half the plane: the polish returns NaN, not the best finite value it saw.
    from omdkit.verification import _local_search

    def objective(w):
        return np.where(w[..., 0] > 1.0, np.nan, -(w * w).sum(axis=-1))

    assert np.isnan(_local_search(objective, np.array([1.0, 0.5]), np.random.default_rng(0)))


@pytest.mark.parametrize("kernel", ["b_p_constant", "omega_p"])
def test_pnorm_lower_control_sees_a_scaled_control(kernel, monkeypatch):
    # The residual is the largest B_p Omega_p(D) / ||w~ - w||_p^2 over the sweep.  No
    # pair pushes it past 2^-(tau_p + 1), 0.198 at p = 1.5 (tau = 4/3), and the sweep's
    # pairs near w~ = 0 reach that, so either control scaled by 5.1 > 1 / 0.198 fails.
    from omdkit import verification

    passed, ratio, _ = run_check("pnorm_lower_control")
    assert passed
    assert ratio == pytest.approx(0.5 ** (7 / 3), rel=1e-9)
    scaled = getattr(verification, kernel)
    monkeypatch.setattr(verification, kernel, lambda p, x: 5.1 * scaled(p, x))
    assert not run_check("pnorm_lower_control")[0]


FENCHEL = CHECK_NAMES.index("fenchel_conjugate_bruteforce")


def test_fenchel_overshoot_is_reported_against_its_own_bound(monkeypatch):
    # A closed form 1e-6 below the true conjugate is beaten by the brute force; the
    # failing result reports the relative gap against the 1e-9 bound it broke.
    exact = verification.norm_power_conjugate
    monkeypatch.setattr(verification, "norm_power_conjugate",
                        lambda kappa, v, spec: exact(kappa, v, spec) * (1 - 1e-6))
    passed, residual, tolerance = run_check("fenchel_conjugate_bruteforce")
    assert passed is False
    assert tolerance == 1e-9
    assert residual > tolerance
    assert residual == pytest.approx(1e-6, rel=1e-2)


@pytest.mark.parametrize("factor", [1 - 1e-8, 1 + 1e-8, 1 + 1e-5])
def test_fenchel_check_fails_a_closed_form_off_on_either_side(factor, monkeypatch):
    # The brute force reaches the conjugate to float64 precision, so a closed form
    # scaled by factor fails, too high as well as too low, with a residual of
    # |factor - 1| / factor from the case whose conjugate (12.5) exceeds 1.
    exact = verification.norm_power_conjugate
    monkeypatch.setattr(verification, "norm_power_conjugate",
                        lambda kappa, v, spec: exact(kappa, v, spec) * factor)
    passed, residual, tolerance = run_check("fenchel_conjugate_bruteforce")
    assert passed is False
    assert tolerance == 1e-9
    assert residual == pytest.approx(abs(factor - 1.0), rel=1e-4)


# Rows that run after key_identity, whose first LAPACK call sets the process's
# resident floor, and that would otherwise draw their whole sweep in one stack.
_STACKED_AFTER_LAPACK = {"kaczmarz_equivalence", "loss_lipschitz_quotients"}


@pytest.mark.parametrize("check", CHECK_NAMES)
def test_each_check_holds_one_stack_at_a_time(check):
    # Each sweep holds one stack at a time: the largest, pnorm_lower_control's,
    # traces 1.10 MiB.  The Kaczmarz sweep draws 10 stacks of 1,000 samples and
    # the Lipschitz grid takes 7 blocks of 3 labels, about 0.2 MiB each.
    run_check(check)  # first-call setup outside the count
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run_check(check)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= (0.25 if check in _STACKED_AFTER_LAPACK else 1.25) * (1 << 20)


def test_fenchel_sweep_starts_the_polish_where_one_draw_of_all_directions_would(monkeypatch):
    # Each case's polish starts at r0 * u0, the best of _DIRECTIONS directions drawn
    # in one call, first occurrence on ties, bit for bit.
    starts = []
    polish = verification._local_search

    def recording(objective, w, rng):
        starts.append(w.copy())
        return polish(objective, w, rng)

    monkeypatch.setattr(verification, "_local_search", recording)
    assert run_check("fenchel_conjugate_bruteforce")[0]
    rng = verification._rng(FENCHEL)
    rng.bit_generator.jumped()  # as the check takes its polish stream, before the first draw
    cases = [(2.0, 2.0, [3.0, 4.0]), (1.5, 2.0, [1.0, -0.5]),
             (2.0, 1.5, [0.8, 1.3, -0.4]), (3.0, 1.5, [1.5, -2.0])]
    assert len(starts) == len(cases)
    for (kappa, p, v), start in zip(cases, starts):
        v = np.array(v)
        U = rng.standard_normal((verification._DIRECTIONS, v.shape[0]))
        norms_p = p_norm(U, p)
        s = np.maximum(U @ v, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = (kappa - 1.0) / kappa * (s / norms_p) ** (kappa / (kappa - 1.0))
        j = int(np.nan_to_num(vals, nan=0.0, posinf=0.0).argmax())
        r0 = (s[j] / norms_p[j] ** kappa) ** (1.0 / (kappa - 1.0))
        np.testing.assert_array_equal(start, r0 * U[j])


@pytest.mark.parametrize("check, modulus, factor", [
    ("strong_convexity", "strong_convexity", 1.0 + 1e-12),
    ("strong_smoothness", "smoothness", 1.0 - 1e-12),
])
def test_map_modulus_checks_fail_a_modulus_off_by_1e_12(check, modulus, factor, monkeypatch):
    # The Euclidean potential meets both bounds with equality, so a strong-convexity
    # modulus raised, or a smoothness modulus lowered, by a relative 1e-12 fails.
    maps = verification._maps

    def planted():
        out = maps()
        for mirror in out:
            if getattr(mirror, modulus) is not None:
                setattr(mirror, modulus, getattr(mirror, modulus) * factor)
        return out

    seed = CHECK_NAMES.index(check)
    assert dict(verification.CHECKS)[check](seed)[0]
    monkeypatch.setattr(verification, "_maps", planted)
    assert dict(verification.CHECKS)[check](seed)[0] is False


@pytest.mark.parametrize("mirror, check, modulus, factor", [
    ("PNormMap(p=1.2)", "strong_convexity", "strong_convexity", 1.0 + 1e-5),
    ("PNormMap(p=1.5)", "strong_convexity", "strong_convexity", 1.0 + 1e-5),
    ("PNormMap(p=1.9)", "strong_convexity", "strong_convexity", 1.0 + 1e-5),
    ("SmoothedL1Map(epsilon=0.5, lam=1.0)", "strong_smoothness", "smoothness", 1.0 - 1e-10),
    ("SmoothedL1Map(epsilon=0.1, lam=2.0)", "strong_smoothness", "smoothness", 1.0 - 1e-10),
])
def test_map_modulus_checks_fail_one_map_s_modulus_off(mirror, check, modulus, factor, monkeypatch):
    # Each map attains its modulus at its tight pairs: a p-norm map up to a relative
    # O(eps^2), 1e-6 at eps = 1e-3, and a smoothed-l1 map exactly, inside its quadratic
    # band.  So one map's modulus off by factor fails, the others left true.
    maps = verification._maps

    def planted():
        out = maps()
        for m in out:
            if repr(m) == mirror:
                setattr(m, modulus, getattr(m, modulus) * factor)
        return out

    assert mirror in map(repr, maps())
    assert run_check(check)[0]
    monkeypatch.setattr(verification, "_maps", planted)
    assert run_check(check)[0] is False


@pytest.mark.parametrize("check, kernels, delta", [
    ("bregman_duality", [(diagnostics, "pnorm_gradient")], 1e-12),
    ("key_identity", [(MirrorMap, "bregman"), (PNormMap, "bregman")], 1e-10),
    ("bregman_sum_identity", [(MirrorMap, "bregman"), (PNormMap, "bregman")], 1e-13),
    ("gradient_round_trip", [(PNormMap, "grad_inv"), (SmoothedL1Map, "grad_inv")], 1e-11),
    ("gradient_norm_identity", [(verification, "pnorm_gradient")], 1e-11),
    ("kaczmarz_equivalence", [(verification, "kaczmarz_step")], 1e-15),
    ("loss_gradient_fd", [(loss, "curvature") for loss in (LeastSquares, Logistic, SquaredHinge, Huber)],
     1e-6),
    ("loss_gradient_fd", [(LossModel, "gradient")], 1e-7),
    # Holder's sweep holds its case of equality, V = pnorm_gradient(W, p).
    ("holder_inequality", [(verification, "row_inner")], 1e-13),
    # Least squares with a unit-norm feature meets co-coercivity with equality.
    ("cocoercivity_margin", [(LossModel, "gradient")], 1e-11),
    # A minimizer off by 1 + delta leaves a mean gradient of norm about delta.
    ("zero_variance_gradient", [(verification, "minimizer")], 1e-9),
    # Three inequalities whose sweeps hold no case of equality, so only a large
    # delta shows: the p-norm Bregman upper bound has a relative slack of 3.5, the
    # growth bound ||grad psi(w)|| <= C (1 + ||w||) one of 1 at w = 0 that a large
    # ||w|| takes up, and the one-step contract an absolute one of 4.6e-3.
    ("pnorm_bregman_upper", [(verification, "pnorm_bregman")], 1e1),
    ("incremental_condition", [(PNormMap, "grad"), (SmoothedL1Map, "grad")], 1e-3),
    ("one_step_distance_contract", [(PNormMap, "grad_inv"), (SmoothedL1Map, "grad_inv")], 1e-1),
])
def test_identity_check_fails_a_kernel_scaled_by_1_plus_delta(check, kernels, delta, monkeypatch):
    # Each identity holds to rounding on its sweep, so the kernel it checks, scaled by
    # 1 + delta on every map, breaks the row's bound; delta is the smallest power of
    # ten the check catches.  The residual crosses the bound from the side the true
    # kernel's is on: above an upper bound, below a lower one (a margin's).
    passed, true_residual, _ = run_check(check)
    assert passed
    for owner, name in kernels:
        kernel = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *args, kernel=kernel: kernel(*args) * (1.0 + delta))
    passed, residual, tolerance = run_check(check)
    assert passed is False
    assert (residual > tolerance) if true_residual < tolerance else (residual < tolerance)


def test_triangle_check_fails_a_p_norm_raised_to_1_plus_delta(monkeypatch):
    # A norm scaled by 1 + delta is still a norm, which no triangle check can
    # tell apart.  A root off by the factor 1 + delta gives ||x||^(1 + delta),
    # which is superadditive along a ray; delta = 1e-2 is the smallest power of
    # ten the check catches (2.4e-3 by bisection).
    assert run_check("triangle_inequality")[0]
    kernel = verification.p_norm
    monkeypatch.setattr(verification, "p_norm", lambda *args: kernel(*args) ** (1.0 + 1e-2))
    passed, residual, tolerance = run_check("triangle_inequality")
    assert passed is False
    assert residual > tolerance


def test_witness_check_fails_a_smooth_bregman(monkeypatch):
    # A positive factor keeps the witness's ratios increasing, so no scaled kernel
    # fails this check.  The Euclidean Bregman distance in place of the p-norm one
    # does: its ratio is 1 at every a, so the ratios stop growing.
    assert run_check("nonsmoothness_witness_monotone")[0]
    kernel = diagnostics.pnorm_bregman
    monkeypatch.setattr(diagnostics, "pnorm_bregman", lambda t, b, p: kernel(t, b, 2.0))
    passed, residual, tolerance = run_check("nonsmoothness_witness_monotone")
    assert passed is False
    assert residual <= tolerance


def test_omega_check_fails_a_jump_of_1e_11_at_the_branch_switch(monkeypatch):
    # A positive factor keeps omega_p continuous and convex, so no scaled kernel
    # fails this check.  An upper branch lifted by 1e-11 breaks both continuity
    # at u = 1 and the second differences across it.
    assert run_check("omega_continuity_convexity")[0]
    kernel = verification.omega_p
    monkeypatch.setattr(verification, "omega_p",
                        lambda p, u: kernel(p, u) + 1e-11 * (np.asarray(u) >= 1.0))
    passed, residual, tolerance = run_check("omega_continuity_convexity")
    assert passed is False
    assert residual > tolerance


@pytest.mark.parametrize("loss, delta", [
    ("LeastSquares", 1e-8),
    ("SquaredHinge", 1e-8),
    ("Huber", 1e-8),
    # The 0.01-spaced grid misses the supremum of these two by 6e-6 to 9e-6, relative.
    ("Logistic", 1e-5),
    ("Sigmoid", 1e-5),
])
def test_lipschitz_check_fails_a_constant_lowered_by_delta(loss, delta, monkeypatch):
    cls = getattr(verification, loss)
    monkeypatch.setattr(cls, "lipschitz", cls.lipschitz * (1.0 - delta))
    passed, residual, tolerance = run_check("loss_lipschitz_quotients")
    assert passed is False
    assert residual > tolerance


_BREGMAN_READERS = ["strong_convexity", "strong_smoothness", "bregman_sum_identity", "key_identity",
                    "one_step_distance_contract"]


@pytest.mark.parametrize("owner, name, checks", [
    (SmoothedL1Map, "bregman", _BREGMAN_READERS),
    (PNormMap, "bregman", _BREGMAN_READERS),
    (SmoothedL1Map, "grad_inv", ["gradient_round_trip", "key_identity", "one_step_distance_contract"]),
    (PNormMap, "grad_inv", ["gradient_round_trip", "key_identity", "kaczmarz_equivalence",
                            "one_step_distance_contract"]),
    (diagnostics, "pnorm_gradient", ["bregman_duality"]),
    (verification, "row_inner", ["holder_inequality", "bregman_sum_identity"]),
    # Three readers of p_norm hand its NaN to a kernel that refuses it with a ValueError.
    (verification, "p_norm", ["holder_inequality", "triangle_inequality", "gradient_norm_identity",
                              "strong_convexity", "strong_smoothness", "pnorm_bregman_upper",
                              "pnorm_lower_control", "incremental_condition", "cocoercivity_margin",
                              "fenchel_conjugate_bruteforce", "one_step_distance_contract"]),
    (verification, "b_p_constant", ["pnorm_lower_control"]),
    (verification, "omega_p", ["pnorm_lower_control", "omega_continuity_convexity"]),
    (verification, "cocoercivity_margin", ["cocoercivity_margin"]),
    (verification, "norm_power_conjugate", ["fenchel_conjugate_bruteforce"]),
    (verification, "key_identity_residual", ["key_identity"]),
    (verification, "nonsmoothness_witness", ["nonsmoothness_witness_monotone"]),
    (verification, "kaczmarz_step", ["kaczmarz_equivalence"]),
    (Sigmoid, "derivative", ["loss_gradient_fd", "loss_lipschitz_quotients"]),
    (verification, "mean_gradient_norm", ["zero_variance_gradient"]),
    # p_norm refuses the NaN gradient with a ValueError, which fails the row.
    (verification, "pnorm_gradient", ["gradient_norm_identity", "holder_inequality"]),
], ids=lambda v: getattr(v, "__name__", None))
def test_a_kernel_returning_nan_fails_every_check_that_reads_it(owner, name, checks, monkeypatch):
    # A NaN residual compares False with any bound, so each check whose fold keeps it fails.
    kernel = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args, kernel=kernel: kernel(*args) * np.nan)
    for check in checks:
        passed, residual, _ = run_check(check)
        assert passed is False, check
        assert np.isnan(residual), check


@pytest.mark.parametrize("name, checks", [
    ("pnorm_gradient", ["gradient_norm_identity"]),
    ("p_norm", ["pnorm_lower_control", "cocoercivity_margin", "fenchel_conjugate_bruteforce"]),
])
def test_a_kernel_refusing_a_nan_fails_its_verify_row(name, checks, monkeypatch, capsys):
    # Each of these checks hands the NaN to a kernel that raises ValueError on
    # it; omdkit verify prints the row as failed with a NaN residual and exits 1.
    kernel = getattr(verification, name)
    monkeypatch.setattr(verification, name, lambda *args, kernel=kernel: kernel(*args) * np.nan)
    assert cli.main(["verify"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(",")[0] for line in lines] == CHECK_NAMES
    for check in checks:
        assert f"{check},fail,nan" in lines


def test_a_minimizer_newton_cannot_find_fails_its_verify_row(monkeypatch, capsys):
    # A loss gradient twice too large leaves damped Newton no minimizer for the
    # one-step contract's huber model; omdkit verify prints that row as failed
    # with a NaN residual and exits 1, with no traceback.
    kernel = LossModel.gradient
    monkeypatch.setattr(LossModel, "gradient", lambda *args, kernel=kernel: kernel(*args) * 2.0)
    with pytest.raises(ValueError, match="damped Newton"):
        verification.minimizer(verification._identity_fixture(), LossModel(Huber(), lam=0.05))
    assert cli.main(["verify"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(",")[0] for line in lines] == CHECK_NAMES
    assert "one_step_distance_contract,fail,nan" in lines


def test_a_check_raising_another_value_error_raises(monkeypatch):
    # Only a kernel's refusal of a NaN becomes a failing row; a defect such as a
    # shape mismatch ends omdkit verify with its own message.
    def mismatch(*args):
        raise ValueError("dimension mismatch")

    monkeypatch.setattr(verification, "row_inner", mismatch)
    with pytest.raises(ValueError, match="dimension mismatch"):
        run_check("holder_inequality")
