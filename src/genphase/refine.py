"""Refinement step: pseudo-observation gradient descent with an adaptive
inverse step size.

Each iteration estimates the scale factor nu_hat = (1/m) sum (y_i - ybar)
(a_i^T x)^2, forms pseudo-observations ytil_i = (y_i - ybar)(a_i^T x), takes
the gradient step of the induced linear model with step size
zeta = 1/max(nu, NU_FLOOR), and projects back onto the prior's range.  In
adaptive mode nu is the current nu_hat, so the update is invariant to a
positive rescaling of the observations; in fixed mode (mprgf) nu is the
first step's nu_hat, frozen for the whole run.

A step has two forms with the same result up to rounding:

- m-space (the default): g = A x, then the gradient
  (1/m) A^T (nu_hat g - ytil); two passes over A, 4mn flops per step.
- n-space, when the SpectralMatrix passed as spec carries the Gram matrix
  G = A^T A / m (see spectral.gram_pays_off):
  nu_hat = x^T V x + ybar (x^T x - x^T G x) and the gradient
  (nu_hat + ybar) G x - V x - ybar x, from M = V + ybar (I - G) =
  (1/m) A^T diag(y - ybar) A; 4n^2 flops per step, at the cost of the
  n^2 floats of G.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, count_problems, raise_problems
from .links import MeasurementSet
from .priors import GenerativePrior, ProjectionConfig, project
from .runtrace import Step, step_at
from .seeds import flatten_seed
from .spectral import SpectralMatrix

# Floor on nu in the step size, so that nu_hat <= 0 (the warning case) still
# takes a finite positive step.
NU_FLOOR = 1e-3


def t2_problems(t2) -> list:
    """The rule on the refinement step count, as a list of problems."""
    return count_problems(t2, "t2", 0)


def empirical_mean_y(data: MeasurementSet) -> float:
    if data.m < 1:
        raise ConfigurationError("need at least one measurement")
    return float(data.observations.mean())


def estimate_nu_hat(data: MeasurementSet, ybar: float, x_t) -> float:
    g = data.sensing @ x_t
    return float(np.mean((data.observations - ybar) * g * g))


def refine_step(data: MeasurementSet, ybar: float, state: Step,
                prior: GenerativePrior, proj_cfg: ProjectionConfig | None = None,
                seed=0, truth=None, frozen_nu: float | None = None,
                spec: SpectralMatrix | None = None) -> Step:
    """One refinement iteration, in n-space when spec has a Gram matrix.  A
    given frozen_nu (fixed mode: the t=0 estimate) replaces the per-iteration
    nu_hat inside the gradient and the step size."""
    x_t = state.iterate
    gram = spec.gram if spec is not None else None
    if gram is None:
        g = data.sensing @ x_t
        ytil = (data.observations - ybar) * g
        nu_hat = float(np.mean(ytil * g))
    else:
        gx = gram @ x_t
        vx = spec.v @ x_t
        nu_hat = float(x_t @ vx + ybar * (x_t @ x_t - x_t @ gx))
    nu = nu_hat if frozen_nu is None else frozen_nu
    warn = nu <= 0
    zeta = 1.0 / max(nu, NU_FLOOR)
    if gram is None:
        x_til = x_t - (zeta / data.m) * (data.sensing.T @ (nu * g - ytil))
    else:
        x_til = x_t - zeta * ((nu + ybar) * gx - vx - ybar * x_t)
    res = project(prior, x_til, proj_cfg, seed=seed)
    return step_at(res.point, state.t + 1, truth, nu_hat=nu, zeta=zeta, warn=warn,
                   pre_projection=x_til)


def run_refine(data: MeasurementSet, prior: GenerativePrior, x0, t2: int,
               fixed: bool = False, proj_cfg: ProjectionConfig | None = None,
               seed=0, truth=None, spec: SpectralMatrix | None = None) -> list[Step]:
    """Chain t2 refinement steps from x0 (assumed in the prior's range), in
    n-space when spec has a Gram matrix; with fixed, nu stays at the first
    step's nu_hat.  The returned trajectory includes the initial state at
    t=0, whose nu_hat is the first step's estimate at x0 (computed on its own
    only when t2 = 0)."""
    raise_problems(t2_problems(t2))
    x0 = np.asarray(x0, dtype=float)
    ybar = empirical_mean_y(data)
    states = [step_at(x0, 0, truth)]
    frozen = None
    base = flatten_seed(seed)
    for t in range(t2):
        states.append(refine_step(data, ybar, states[-1], prior, proj_cfg, seed=[base, t + 1],
                                  truth=truth, frozen_nu=frozen, spec=spec))
        if fixed:
            frozen = states[1].nu_hat
    nu0 = states[1].nu_hat if t2 else estimate_nu_hat(data, ybar, x0)
    states[0].nu_hat, states[0].warn = nu0, nu0 <= 0
    return states
