"""The benchmark's workloads and the config text each one hands the program.

``--seed`` picks the Monte Carlo base seed from a fixed table of
``REFERENCE_SEEDS`` entries per workload, so that every input the benchmark
can generate has a reference curve captured in ``reference.json``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

REFERENCE_SEEDS = 16
SEED_STRIDE = 1000  # larger than n_runs, so two base seeds share no run stream


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "run" or "verify"
    config: str = ""
    base_seed: int = 0


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="mc_euclid",
            kind="run",
            # The identity map leaves the time to the engine loop, the loss gradient
            # and the divergence guard, where run batching and pool removal act.
            # Acceptance criterion 3 at 200 runs instead of 1000, so that a run of
            # the benchmark holds a dozen operations to take medians over.
            config="""\
map = euclidean
loss = least_squares
source = orthonormal
source_d = 4
source_weights = 0.15 0.15 0.1 0.1
source_w_star = 0.8 -0.45 0.3 0.25
source_label_noise = 1.0
schedule = theorem_rate
sigma_f = auto
T = 2048
n_runs = 200
base_seed = {base_seed}
theorem_tag = Thm2b-rate
""",
            base_seed=2000,
        ),
        Workload(
            name="mc_pnorm_gaussian",
            kind="run",
            # p-norm map kernels cost about 50x the identity map's per call; also runs
            # the Gaussian sampler and the chi-square covariance.
            config="""\
map = pnorm
map_p = 1.5
loss = least_squares
source = gaussian_linear
source_w_true = 1.0 -0.5 0.25
source_noise_sd = 0.3
source_feature_scale = 1.0
source_radius = 2.0
schedule = polynomial
decay_c = 1.0
decay_theta = 1.0
T = 2048
n_runs = 100
base_seed = {base_seed}
theorem_tag = Thm1a-pnorm
""",
            base_seed=6000,
        ),
        Workload(
            name="verify_suite",
            kind="verify",
            # Scalar per-call use of maps, losses and diagnostics with no Monte Carlo:
            # engine-only changes should leave it unchanged.
        ),
    ]
}


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def base_seed_for(workload: Workload, seed: int) -> int:
    """The Monte Carlo base seed a benchmark ``--seed`` selects."""
    return workload.base_seed + SEED_STRIDE * (int(seed) % REFERENCE_SEEDS)


def config_text(workload: Workload, seed: int) -> str:
    return workload.config.format(base_seed=base_seed_for(workload, seed))
