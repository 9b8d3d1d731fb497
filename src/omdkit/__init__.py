"""Online mirror descent over R^d with pluggable geometries, losses, and
step-size schedules, plus diagnostics that measure convergence behavior
against its theory."""

import os
import sys

# omdkit's linear algebra is d x d set-up solves and (B, d) row stacks, far too
# small to use a second BLAS thread, yet OpenBLAS starts its thread pool when
# numpy loads and the idle helper spin-waits for CPU time.  The pool size is
# read only at load time, so it must be set before the first numpy import.  A
# user's own setting wins, and a process that already loaded numpy is left alone.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .geometry import as_vector, dual_exponent, p_norm
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
    GaussianLinearSource,
    Sample,
    VarianceRegime,
    classify_variance,
    draw_arrays,
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
    StepSchedule,
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

__version__ = "0.1.0"
