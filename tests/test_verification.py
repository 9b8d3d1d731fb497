import pytest

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

    from omdkit.geometry import NormSpec
    from omdkit.mirror_maps import norm_power_conjugate
    from omdkit.verification import _local_search

    kappa, p, v = 3.0, 1.5, np.array([1.5, -2.0])
    formula = norm_power_conjugate(kappa, v, NormSpec(p))

    def objective(w):
        return w @ v - (np.abs(w) ** p).sum(axis=-1) ** (kappa / p) / kappa

    start = np.array([0.9, -1.1])
    assert formula - float(objective(start)) > 1e-2
    best = _local_search(objective, start, np.random.default_rng(0))
    assert best == pytest.approx(formula, rel=1e-12)
    assert best <= formula + 1e-9 * formula


@pytest.mark.parametrize("kernel", ["b_p_constant", "omega_p"])
def test_pnorm_lower_control_sees_a_scaled_control(kernel, monkeypatch):
    # The residual is the largest B_p Omega_p(D) / ||w~ - w||_p^2 over the sweep.  No
    # pair pushes it past 2^-(tau_p + 1), 0.198 at p = 1.5 (tau = 4/3), and the sweep's
    # pairs near w~ = 0 reach that, so either control scaled by 5.1 > 1 / 0.198 fails.
    from omdkit import verification

    seed = CHECK_NAMES.index("pnorm_lower_control")
    passed, ratio, _ = verification._check_pnorm_lower_control(seed)
    assert passed
    assert ratio == pytest.approx(0.5 ** (7 / 3), rel=1e-9)
    scaled = getattr(verification, kernel)
    monkeypatch.setattr(verification, kernel, lambda p, x: 5.1 * scaled(p, x))
    assert not verification._check_pnorm_lower_control(seed)[0]
