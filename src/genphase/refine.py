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

The step is written once, on the pair (gx, mx) and a scale s with G x =
gx / s and M x = mx / s: nu_hat = x.mx / s and x~ = x + (zeta / s) (mx -
nu gx).  ybar is the spec's, or empirical_mean_y(data) without a spec.  The
pair has two forms, with the same result up to rounding:

- m-space (the default): one streamed pass over A (stream_products) gives
  gx = A^T g and mx = A^T ytil for g = A x, with s = m; 6mn flops per step,
  with A read from memory once.
- n-space, when the SpectralMatrix passed as spec carries the Gram matrix,
  as spectral.reduce_to_subspace's does in k+1 coordinates: one GEMV with
  its stack [G; M] (formed with the spec's ybar) gives gx = G x and mx =
  M x, with s = 1.  That is 4n^2 + 6n flops, at the cost of the 3n^2 floats
  of G and the stack.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError, NumericalError, count_problems, raise_problems
from .links import MeasurementSet
from .priors import GenerativePrior, ProjectionConfig, project
from .runtrace import Step, step_at
from .seeds import flatten_seed
from .spectral import SpectralMatrix

# Floor on nu in the step size, so that nu_hat <= 0 (the warning case) still
# takes a finite positive step.
NU_FLOOR = 1e-3

# Bytes of the row blocks an m-space step streams A in: small enough that a
# block stays in L2 cache between its forward product A_b x and its backward
# product R_b A_b, so the step reads A from memory once.  Measured at n=2000,
# m=16000 with a 2 MiB L2 per core: 512 KiB-1 MiB blocks were fastest, 256 KiB
# and 2 MiB slower.  At n=100 it keeps m <= 1310 in one block (512 KiB split
# m=1000 in two and ran slower), whose products are the unblocked ones.
_STREAM_BYTES = 1 << 20


def t2_problems(t2) -> list:
    """The rule on the refinement step count, as a list of problems."""
    return count_problems(t2, "t2", 0)


def empirical_mean_y(data: MeasurementSet) -> float:
    if data.m < 1:
        raise ConfigurationError("need at least one measurement")
    return float(data.observations.mean())


def stream_products(a, x, residuals) -> np.ndarray:
    """sum_b R_b A_b over the row blocks A_b of A, where R_b =
    residuals(A_b x, rows) is one vector or a stack of them and rows is the
    block's row slice: one pass over A, each block read forward and then
    backward while it is in cache.  The backward product is a GEMV for a
    vector and a small GEMM for a stack; at this block size neither changed
    bits with the thread count (OpenBLAS 0.3.31, 1 to 4 threads).  Its
    callers are the m-space refinement step and an APPGD step without a
    Gram matrix, on a row-major n-space A: a reduced linear-subspace cell
    refines with G_k and keeps APPGD's phase term, so no step streams its
    B^."""
    step = max(1, _STREAM_BYTES // (8 * a.shape[1]))
    sums = None
    for r0 in range(0, a.shape[0], step):
        rows = slice(r0, r0 + step)
        a_b = a[rows]
        part = residuals(a_b @ x, rows) @ a_b
        sums = part if sums is None else sums + part
    return sums


def _stream_moments(data: MeasurementSet, ybar: float, x_t):
    """A^T g and A^T ytil at x_t, from one streamed pass over A."""
    y = data.observations
    return stream_products(data.sensing, x_t,
                           lambda g, rows: np.array((g, (y[rows] - ybar) * g)))


def _moments(data: MeasurementSet, x_t, spec: SpectralMatrix | None):
    """gx, mx and s with G x_t = gx / s and M x_t = mx / s: one GEMV with the
    spec's stack when it has a Gram matrix (s = 1), else a streamed pass
    (s = m)."""
    if spec is not None and spec.gram is not None:
        n = len(x_t)
        moments = spec.stack.dot(x_t)
        return moments[:n], moments[n:], 1
    ybar = empirical_mean_y(data) if spec is None else spec.ybar
    return (*_stream_moments(data, ybar, x_t), data.m)


def _nu_hat(x_t, mx, s) -> float:
    nu_hat = float(x_t.dot(mx) / s)
    if not math.isfinite(nu_hat):
        raise NumericalError(f"nu_hat is {nu_hat}: the measurements or the iterate overflow")
    return nu_hat


def estimate_nu_hat(data: MeasurementSet, ybar: float, x_t) -> float:
    """nu_hat at x_t, with the arithmetic (and bits) of an m-space step."""
    return _nu_hat(x_t, _stream_moments(data, ybar, x_t)[1], data.m)


def refine_step(data: MeasurementSet, state: Step, prior: GenerativePrior,
                proj_cfg: ProjectionConfig | None = None, seed=0, truth=None,
                frozen_nu: float | None = None, spec: SpectralMatrix | None = None) -> Step:
    """One refinement iteration (module docstring), in n-space when spec has
    a Gram matrix; ybar is spec's, or empirical_mean_y(data) without a spec.
    A given frozen_nu (fixed mode: the t=0 estimate) replaces nu_hat in the
    gradient and the step size, and no nu_hat is formed."""
    x_t = state.iterate
    gx, mx, s = _moments(data, x_t, spec)
    nu = _nu_hat(x_t, mx, s) if frozen_nu is None else frozen_nu
    warn = nu <= 0
    zeta = 1.0 / max(nu, NU_FLOOR)
    x_til = x_t + (zeta / s) * (mx - nu * gx)
    res = project(prior, x_til, proj_cfg, seed=seed)
    return step_at(res.point, state.t + 1, truth, nu_hat=nu, zeta=zeta, warn=warn,
                   pre_projection=x_til)


def run_refine(data: MeasurementSet, prior: GenerativePrior, x0, t2: int,
               fixed: bool = False, proj_cfg: ProjectionConfig | None = None,
               seed=0, truth=None, spec: SpectralMatrix | None = None) -> list[Step]:
    """Chain t2 refinement steps (refine_step) from x0, assumed in the
    prior's range, each in n-space when spec has a Gram matrix; with fixed,
    nu stays at the first step's nu_hat.  The returned trajectory includes
    the initial state at t=0, whose nu_hat is the first step's estimate at
    x0, formed on its own, in the steps' form, only when t2 = 0."""
    raise_problems(t2_problems(t2))
    x0 = np.asarray(x0, dtype=float)
    states = [step_at(x0, 0, truth)]
    frozen = None
    base = flatten_seed(seed)
    for t in range(t2):
        states.append(refine_step(data, states[-1], prior, proj_cfg, seed=[base, t + 1],
                                  truth=truth, frozen_nu=frozen, spec=spec))
        if fixed:
            frozen = states[1].nu_hat
    nu0 = states[1].nu_hat if t2 else _nu_hat(x0, *_moments(data, x0, spec)[1:])
    states[0].nu_hat, states[0].warn = nu0, nu0 <= 0
    return states
