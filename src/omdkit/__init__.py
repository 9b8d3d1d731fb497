"""Online mirror descent over R^d with pluggable geometries, losses, and
step-size schedules, plus diagnostics that measure convergence behavior
against its theory."""

from .geometry import EUCLIDEAN, NormSpec, as_vector, dual_exponent, inner, p_norm
from .mirror_maps import (
    EuclideanMap,
    MirrorMap,
    PNormMap,
    SmoothedL1Map,
    b_p_constant,
    norm_power_conjugate,
    omega_p,
    tau,
)
from .losses import Huber, LeastSquares, Logistic, LossModel, Sigmoid, SquaredHinge
from .sources import (
    DiscreteFiniteSource,
    Estimate,
    GaussianLinearSource,
    Sample,
    VarianceRegime,
    classify_variance,
    draw,
    draw_arrays,
    draw_indices,
    mean_gradient_norm,
    minimizer,
    orthonormal_atom_source,
    population_gradient,
)
from .engine import (
    AllRunsDiverged,
    ConstantStep,
    ExpectationCurve,
    MonteCarloResult,
    NonFiniteCurve,
    PolynomialDecay,
    RegimeError,
    TheoremRate,
    Trajectory,
    geometric_checkpoints,
    kaczmarz_step,
    monte_carlo_curve,
    omd_step,
    resolve_constants,
    run_trajectory,
)
from .diagnostics import (
    BoundBracket,
    ExperimentResult,
    RateFit,
    Verdict,
    VerdictReport,
    assert_step_regime,
    cocoercivity_margin,
    duality_residual,
    fit_decay_rate,
    fit_rate,
    kaczmarz_moments,
    key_identity_residual,
    linear_rate_bracket,
    nonconvergence_floor,
    nonsmoothness_witness,
    theorem_verdict,
)
from .config import ConfigError, Experiment, ExperimentConfig, build_experiment, dump_config, parse_config
from .verification import CheckResult, run_verification

__version__ = "0.1.0"
