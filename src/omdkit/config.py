"""Experiment configuration: a flat key = value text format, one experiment
per file, with a canonical dump so that configs round-trip byte-exactly.

Unknown keys, malformed values, and inconsistent dimensions are all schema
errors; nothing is written when a config fails to validate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Any, Callable

import numpy as np

from .diagnostics import THEOREMS
from .engine import (
    ConstantStep,
    PolynomialDecay,
    ResolvedConstants,
    StepSchedule,
    TheoremRate,
    _checked_checkpoints,
    geometric_checkpoints,
    resolve_constants,
)
from .geometry import as_vector
from .losses import LOSSES, LossModel
from .mirror_maps import EuclideanMap, MirrorMap, PNormMap, SmoothedL1Map
from .sources import (
    GaussianLinearSource,
    SampleSource,
    VarianceRegime,
    classify_variance,
    minimizer,
    orthonormal_atom_source,
)

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "dump_config", "Experiment", "build_experiment"]


class ConfigError(ValueError):
    """The config file violates the schema."""


@dataclass(frozen=True)
class ExperimentConfig:
    map: str = "euclidean"              # euclidean | pnorm | smoothed_l1
    map_p: float = 1.5                  # pnorm exponent, 1 < p <= 2
    map_epsilon: float = 0.5            # smoothed_l1 transition width
    map_lambda: float = 1.0             # smoothed_l1 penalty weight
    loss: str = "least_squares"         # least_squares | logistic | sigmoid | squared_hinge | huber
    reg_lambda: float = 0.0             # l2 regularizer weight
    source: str = "orthonormal"         # orthonormal | gaussian_linear
    source_d: int = 4
    source_weights: tuple[float, ...] = (0.15, 0.15, 0.1, 0.1)
    source_scale: float = 1.0
    source_w_star: tuple[float, ...] = (0.8, -0.45, 0.3, 0.25)
    source_label_noise: float = 0.0
    source_rotation: int = 0            # 0 = axis-aligned, else rotation seed
    source_w_true: tuple[float, ...] = (1.0, -0.5)
    source_noise_sd: float = 0.0
    source_feature_scale: float = 0.4
    source_radius: float = 1.0
    schedule: str = "constant"          # constant | polynomial | theorem_rate
    eta: float = 0.1
    decay_c: float = 0.1
    decay_theta: float = 1.0
    sigma_f: str = "auto"               # "auto" or a positive float literal
    w1: str = "zeros"                   # "zeros" or space-separated floats
    T: int = 100
    checkpoints: str = "geometric"      # "geometric" or space-separated ints
    n_runs: int = 500
    base_seed: int = 1000
    theorem_tag: str = "none"           # "none" or a key of diagnostics.THEOREMS
    violation_probe: bool = False
    kappa: float = 1.0
    exclude_diverged: bool = False


_FIELDS = {f.name: f for f in fields(ExperimentConfig)}


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "1"):
        return True
    if t in ("false", "no", "0"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_value(name: str, text: str) -> Any:
    kind = _FIELDS[name].type
    try:
        if kind == "bool":
            return _parse_bool(text)
        if kind == "int":
            return int(text)
        if kind == "float":
            return float(text)
        if kind == "str":
            return text.strip()
        if kind == "tuple[float, ...]":
            parts = text.replace(",", " ").split()
            if not parts:
                raise ValueError("empty list")
            return tuple(float(p) for p in parts)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad value for {name}: {text!r} ({exc})") from None
    raise ConfigError(f"unhandled field type for {name}")


def parse_config(text: str) -> ExperimentConfig:
    values: dict[str, Any] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse_value(key, val.strip())
    cfg = ExperimentConfig(**values)
    _validate(cfg)
    return cfg


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return " ".join(repr(float(v)) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def dump_config(cfg: ExperimentConfig) -> str:
    lines = [f"{f.name} = {_fmt(getattr(cfg, f.name))}" for f in fields(ExperimentConfig)]
    return "\n".join(lines) + "\n"


def _validate(cfg: ExperimentConfig) -> None:
    for f in fields(ExperimentConfig):
        value = getattr(cfg, f.name)
        if (f.type == "float" and not math.isfinite(value)) or (
            f.type == "tuple[float, ...]" and not all(map(math.isfinite, value))
        ):
            raise ConfigError(f"{f.name} must be finite, got {_fmt(value)}")
    for key, table in (("map", _MAPS), ("loss", LOSSES), ("source", _SOURCES), ("schedule", _SCHEDULES)):
        if getattr(cfg, key) not in table:
            raise ConfigError(f"unknown {key} kind {getattr(cfg, key)!r}")
    if cfg.theorem_tag != "none" and cfg.theorem_tag not in THEOREMS:
        raise ConfigError(f"unknown theorem tag {cfg.theorem_tag!r}")
    if cfg.reg_lambda < 0.0:
        raise ConfigError("reg_lambda must be nonnegative")
    if cfg.T < 1:
        raise ConfigError("T must be >= 1")
    if cfg.n_runs < 2:
        raise ConfigError("n_runs must be >= 2")
    # Run i draws from a Philox stream keyed base_seed + i, and keys lie in [0, 2**128).
    if cfg.base_seed < 0 or cfg.base_seed + cfg.n_runs > 2**128:
        raise ConfigError("base_seed must be >= 0 with base_seed + n_runs - 1 < 2**128")
    if cfg.kappa <= 0.0:
        raise ConfigError("kappa must be positive")
    if cfg.sigma_f != "auto":
        try:
            if not 0.0 < float(cfg.sigma_f) < math.inf:
                raise ConfigError("sigma_f must be positive and finite or 'auto'")
        except ValueError:
            raise ConfigError(f"sigma_f must be a float or 'auto', got {cfg.sigma_f!r}") from None


def _rotation(d: int, seed: int) -> np.ndarray:
    if seed == 0:
        return np.eye(d)
    rng = np.random.Generator(np.random.Philox(key=seed))
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def _orthonormal_source(cfg: ExperimentConfig) -> SampleSource:
    d = cfg.source_d
    if len(cfg.source_weights) != d:
        raise ConfigError("source_weights must list one weight per dimension")
    if len(cfg.source_w_star) != d:
        raise ConfigError("source_w_star must have length source_d")
    U = _rotation(d, cfg.source_rotation)
    return orthonormal_atom_source(
        U,
        cfg.source_weights,
        np.asarray(cfg.source_w_star),
        scale=cfg.source_scale,
        label_noise=cfg.source_label_noise,
    )


def _gaussian_source(cfg: ExperimentConfig) -> SampleSource:
    return GaussianLinearSource(
        np.asarray(cfg.source_w_true),
        noise_sd=cfg.source_noise_sd,
        feature_scale=cfg.source_feature_scale,
        radius=cfg.source_radius,
    )


def _theorem_rate(cfg: ExperimentConfig, constants: ResolvedConstants) -> StepSchedule:
    if cfg.sigma_f == "auto":
        if constants.sigma_f is None:
            raise ConfigError(
                "sigma_f = auto needs a strongly smooth map and a strongly convex risk"
            )
        return TheoremRate(constants.sigma_f)
    return TheoremRate(float(cfg.sigma_f))


# Each config kind, mapped to the function that makes its object: the one list of valid kinds.
_MAPS: dict[str, Callable[[ExperimentConfig], MirrorMap]] = {
    "euclidean": lambda cfg: EuclideanMap(),
    "pnorm": lambda cfg: PNormMap(cfg.map_p),
    "smoothed_l1": lambda cfg: SmoothedL1Map(cfg.map_epsilon, cfg.map_lambda),
}
_SOURCES: dict[str, Callable[[ExperimentConfig], SampleSource]] = {
    "orthonormal": _orthonormal_source,
    "gaussian_linear": _gaussian_source,
}
_SCHEDULES: dict[str, Callable[[ExperimentConfig, ResolvedConstants], StepSchedule]] = {
    ConstantStep.kind: lambda cfg, constants: ConstantStep(cfg.eta),
    PolynomialDecay.kind: lambda cfg, constants: PolynomialDecay(cfg.decay_c, cfg.decay_theta),
    TheoremRate.kind: _theorem_rate,
}


@dataclass
class Experiment:
    """A fully resolved experiment, ready to run."""

    config: ExperimentConfig
    mirror: MirrorMap
    model: LossModel
    source: SampleSource
    schedule: StepSchedule
    w1: np.ndarray
    checkpoints: list[int]
    constants: ResolvedConstants
    w_star: np.ndarray
    d1: float
    variance: VarianceRegime


def build_experiment(cfg: ExperimentConfig) -> Experiment:
    _validate(cfg)
    try:
        mirror = _MAPS[cfg.map](cfg)
        model = LossModel(LOSSES[cfg.loss](), lam=cfg.reg_lambda)
        source = _SOURCES[cfg.source](cfg)
        w_star = minimizer(source, model)
        variance = classify_variance(source, model, w_star, mirror.norm.dual)
        constants = resolve_constants(mirror, model, source)
        schedule = _SCHEDULES[cfg.schedule](cfg, constants)
        if cfg.w1 == "zeros":
            w1 = np.zeros(source.d)
        else:
            w1 = as_vector([float(v) for v in cfg.w1.replace(",", " ").split()])
            if w1.shape[0] != source.d:
                raise ConfigError("w1 must match the source dimension")
        if cfg.checkpoints == "geometric":
            checkpoints = geometric_checkpoints(cfg.T)
        else:
            checkpoints = _checked_checkpoints(cfg.checkpoints.replace(",", " ").split(), cfg.T)
        d1 = mirror.bregman(w_star, w1)
        return Experiment(
            config=cfg,
            mirror=mirror,
            model=model,
            source=source,
            schedule=schedule,
            w1=w1,
            checkpoints=checkpoints,
            constants=constants,
            w_star=w_star,
            d1=d1,
            variance=variance,
        )
    except ConfigError:
        raise
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise ConfigError(str(exc)) from exc


def with_overrides(cfg: ExperimentConfig, **kwargs) -> ExperimentConfig:
    out = replace(cfg, **kwargs)
    _validate(out)
    return out
