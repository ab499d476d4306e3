"""Refinement step: pseudo-observation gradient descent with an adaptive
inverse step size.

Each iteration estimates the scale factor nu_hat = (1/m) sum (y_i - ybar)
(a_i^T x)^2, forms pseudo-observations ytil_i = (y_i - ybar)(a_i^T x), takes
the gradient step of the induced linear model with step size zeta, and
projects back onto the prior's range.  In adaptive mode zeta = 1/nu_hat so
the update is invariant to a positive rescaling of the observations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .links import MeasurementSet
from .priors import GenerativePrior, ProjectionConfig, project
from .runtrace import Step, step_at
from .seeds import flatten_seed


@dataclass
class RefineConfig:
    t2: int = 30
    zeta_mode: str = "adaptive"        # "adaptive" | "fixed"
    zeta_fixed: float | None = None    # fixed mode: explicit zeta; None derives 1/nu_hat(0)
    proj_cfg: ProjectionConfig = field(default_factory=ProjectionConfig)
    nu_floor: float = 1e-3

    def __post_init__(self):
        if self.t2 < 0:
            raise ConfigurationError("t2 must be >= 0")
        if self.zeta_mode not in ("adaptive", "fixed"):
            raise ConfigurationError(f"unknown zeta_mode {self.zeta_mode!r}")
        if self.zeta_fixed is not None and self.zeta_fixed <= 0:
            raise ConfigurationError("zeta_fixed must be positive when given")
        if self.nu_floor <= 0:
            raise ConfigurationError("nu_floor must be positive")


def empirical_mean_y(data: MeasurementSet) -> float:
    if data.m < 1:
        raise ConfigurationError("need at least one measurement")
    return float(data.observations.mean())


def estimate_nu_hat(data: MeasurementSet, ybar: float, x_t) -> float:
    g = data.sensing @ x_t
    return float(np.mean((data.observations - ybar) * g * g))


def refine_step(data: MeasurementSet, ybar: float, state: Step,
                cfg: RefineConfig, prior: GenerativePrior, seed=0,
                truth=None, frozen_nu: float | None = None) -> Step:
    """One refinement iteration.  In fixed mode, frozen_nu (the t=0 estimate)
    replaces the per-iteration nu_hat inside the gradient."""
    x_t = state.iterate
    g = data.sensing @ x_t
    if cfg.zeta_mode == "fixed" and frozen_nu is not None:
        nu = frozen_nu
    else:
        nu = float(np.mean((data.observations - ybar) * g * g))
    warn = nu <= 0
    if cfg.zeta_mode == "adaptive":
        zeta = 1.0 / max(nu, cfg.nu_floor)
    else:
        zeta = cfg.zeta_fixed if cfg.zeta_fixed is not None else 1.0 / max(nu, cfg.nu_floor)
    ytil = (data.observations - ybar) * g
    resid = nu * g - ytil
    x_til = x_t - (zeta / data.m) * (data.sensing.T @ resid)
    res = project(prior, x_til, cfg.proj_cfg, seed=seed)
    return step_at(res.point, state.t + 1, truth, nu_hat=nu, zeta=zeta, warn=warn,
                   pre_projection=x_til)


def run_refine(data: MeasurementSet, prior: GenerativePrior, x0, cfg: RefineConfig,
               seed=0, truth=None) -> list[Step]:
    """Chain cfg.t2 refinement steps from x0 (assumed in the prior's range).
    The returned trajectory includes the initial state at t=0."""
    x0 = np.asarray(x0, dtype=float)
    ybar = empirical_mean_y(data)
    nu0 = estimate_nu_hat(data, ybar, x0)
    state = step_at(x0, 0, truth, nu_hat=nu0, warn=nu0 <= 0)
    frozen = nu0 if cfg.zeta_mode == "fixed" else None
    states = [state]
    base = flatten_seed(seed)
    for t in range(cfg.t2):
        state = refine_step(data, ybar, state, cfg, prior,
                            seed=[base, t + 1], truth=truth, frozen_nu=frozen)
        states.append(state)
    return states
