"""Refinement step: pseudo-observation gradient descent with an adaptive
inverse step size.

With the empirical moments G = A^T A / m and M = (1/m) A^T diag(y - ybar) A,
each iteration estimates the scale factor nu_hat = x^T M x = (1/m) sum
(y_i - ybar) (a_i^T x)^2, takes the gradient step x~ = x + zeta (M x - nu G x)
of the linear model on the pseudo-observations ytil_i = (y_i - ybar)
(a_i^T x) with step size zeta = 1/max(nu, NU_FLOOR), and projects back onto
the prior's range.  In adaptive mode nu is the current nu_hat, so the update
is invariant to a positive rescaling of the observations; in fixed mode
(mprgf) nu is the first step's nu_hat, frozen, so later steps form no
nu_hat.  A nu_hat that is not finite is a NumericalError.

G x and M x come from one GEMV with the spectral matrix's stack [G; M],
which spectral.build_spectral_matrix forms beside V: 4n^2 + 6n flops a
step, in the n the solve runs in (k+1 in a reduced linear-subspace cell).
A refine_step or run_refine given no spec builds one on its data,
run_refine once for all its steps.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError, count_problems, raise_problems
from .links import MeasurementSet, empty_problems
from .priors import GenerativePrior, ProjectionConfig, project
from .runtrace import Step, score
from .seeds import flatten_seed
from .spectral import SpectralMatrix, build_spectral_matrix

# Floor on nu in the step size, so that nu_hat <= 0 (the warning case) still
# takes a finite positive step.
NU_FLOOR = 1e-3


def t2_problems(t2) -> list:
    """The rule on the refinement step count, as a list of problems."""
    return count_problems(t2, "t2", 0)


def empirical_mean_y(data: MeasurementSet) -> float:
    raise_problems(empty_problems(data))
    return float(data.observations.mean())


def _moments(spec: SpectralMatrix, x_t):
    """G x_t and M x_t, from one GEMV with the spec's stack [G; M]."""
    n = len(x_t)
    moments = spec.stack.dot(x_t)
    return moments[:n], moments[n:]


def _nu_hat(x_t, mx) -> float:
    nu_hat = float(x_t.dot(mx))
    if not math.isfinite(nu_hat):
        raise NumericalError(f"nu_hat is {nu_hat}: the measurements or the iterate overflow")
    return nu_hat


def refine_step(data: MeasurementSet, state: Step, prior: GenerativePrior,
                proj_cfg: ProjectionConfig | None = None, seed=0, truth=None,
                frozen_nu: float | None = None, spec: SpectralMatrix | None = None) -> Step:
    """One refinement iteration (module docstring) with the stack of spec,
    or of a spectral matrix built on data when spec is None.  A given
    frozen_nu (fixed mode: the t=0 estimate) replaces nu_hat in the gradient
    and the step size, and no nu_hat is formed."""
    if spec is None:
        spec = build_spectral_matrix(data)
    x_t = state.iterate
    gx, mx = _moments(spec, x_t)
    nu = _nu_hat(x_t, mx) if frozen_nu is None else frozen_nu
    warn = nu <= 0
    zeta = 1.0 / max(nu, NU_FLOOR)
    x_til = x_t + zeta * (mx - nu * gx)
    res = project(prior, x_til, proj_cfg, seed=seed)
    step = Step(res.point, state.t + 1, nu_hat=nu, zeta=zeta, warn=warn, pre_projection=x_til)
    return score([step], truth)[0]


def run_refine(data: MeasurementSet, prior: GenerativePrior, x0, t2: int,
               fixed: bool = False, proj_cfg: ProjectionConfig | None = None,
               seed=0, truth=None, spec: SpectralMatrix | None = None) -> list[Step]:
    """Chain t2 refinement steps (refine_step) from x0, assumed in the
    prior's range, all with the stack of spec, or of one spectral matrix
    built on data when spec is None; with fixed, nu stays at the first
    step's nu_hat.  The returned trajectory includes the initial state at
    t=0, whose nu_hat is the first step's estimate at x0, formed on its own
    only when t2 = 0."""
    raise_problems(t2_problems(t2))
    if spec is None:
        spec = build_spectral_matrix(data)
    x0 = np.asarray(x0, dtype=float)
    states = [Step(x0, 0)]
    frozen = None
    base = flatten_seed(seed)
    for t in range(t2):
        states.append(refine_step(data, states[-1], prior, proj_cfg, seed=[base, t + 1],
                                  frozen_nu=frozen, spec=spec))
        if fixed:
            frozen = states[1].nu_hat
    nu0 = states[1].nu_hat if t2 else _nu_hat(x0, _moments(spec, x0)[1])
    states[0].nu_hat, states[0].warn = nu0, nu0 <= 0
    return score(states, truth)
