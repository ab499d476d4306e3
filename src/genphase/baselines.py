"""End-to-end algorithms over shared priors and projectors.

mprg   : spectral initialization (t1 power iterations) then adaptive refinement.
mprgf  : same, but the refinement scale factor nu, and so the step size
         zeta = 1/nu, is frozen at its first estimate.
ppower : power iterations only, run for the full t1+t2 budget.
step2  : refinement only, from the projected starting vector, full budget.
appgd  : alternating-phase projected gradient descent, initialized by the
         spectral step, using sign(a_i^T x) as the phase estimate.

The solvers take plain values; run_problems lists the rule of every run
argument, and run_algorithm checks them all before any work.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .errors import is_finite_number, raise_problems, seed_key_problems
from .links import MeasurementSet
from .priors import GenerativePrior, ProjectionConfig, project, vector_norm
from .refine import run_refine, stream_products, t2_problems
from .runtrace import RunTrace, step_at
from .seeds import flatten_seed
from .spectral import SpectralMatrix, build_spectral_matrix, initial_vector, \
    projected_power, shifted_matrix, start_problems, t1_problems

ALGORITHMS = ("mprg", "mprgf", "ppower", "step2", "appgd")


def tau_problems(tau) -> list:
    """The rule on the appgd step size, as a list of problems."""
    ok = is_finite_number(tau) and tau > 0
    return [] if ok else [f"tau: must be a finite positive number, got {tau!r}"]


def run_problems(algorithms, t1, t2, tau) -> list:
    """One line per invalid run argument: algorithms that are not a nonempty
    list or tuple of known names, and the t1, t2 and tau rules."""
    if isinstance(algorithms, (list, tuple)) and algorithms:
        problems = [f"algorithms: unknown algorithm {a!r}; known: {ALGORITHMS}"
                    for a in algorithms if a not in ALGORITHMS]
    else:
        problems = [f"algorithms: must be a nonempty list, got {algorithms!r}"]
    return problems + t1_problems(t1) + t2_problems(t2) + tau_problems(tau)


def _phase_residual(g, y):
    """g - y sign(g) with sign(0) = +1.  The sign is copysign(1, g + 0), since
    adding +0 turns -0 into +0: it is +-1 exactly, so y times it is +-y and
    the residual has the bits of g - y * where(g >= 0, 1, -1), from four
    branch-free passes into one new array.  A whole APPGD step at k+1 = 6
    took 0.94x that form's time at m = 250 and 0.5x at m = 16000."""
    s = np.add(g, 0.0)
    np.copysign(1.0, s, out=s)
    s *= y
    return np.subtract(g, s, out=s)


# Bytes up to which appgd_step reads a column-major A, such as the reduced
# B^ that spectral.reduce_to_subspace holds, in one pass (A x, then r^T A
# while A is in cache) instead of in row blocks.  Measured at one BLAS
# thread with 2 MiB of L2 per core: at (m, k+1) = (16000, 11), 1.4 MB, the
# pass took 0.83x the time of the streamed products, and at (32000, 11),
# 2.8 MB, 1.2x.  Up to this size neither GEMV changed bits at 1, 2 or 4
# OpenBLAS threads (0.3.31); from about 4 MB r^T A did.
_ONE_PASS_BYTES = 2 << 20


def appgd_step(data: MeasurementSet, state, prior: GenerativePrior, tau: float,
               proj_cfg: ProjectionConfig | None = None, seed=0):
    """x <- P_G(x - (tau/m) sum ((a_i^T x) - y_i sign(a_i^T x)) a_i),
    with sign(0) = +1.  A is read once: whole when it is column-major and
    at most _ONE_PASS_BYTES, else in row blocks (refine.stream_products)."""
    raise_problems(tau_problems(tau))
    x_t = np.asarray(state, dtype=float)
    a, y = data.sensing, data.observations
    if a.flags.f_contiguous and a.nbytes <= _ONE_PASS_BYTES:
        grad = _phase_residual(a.dot(x_t), y).dot(a)
    else:
        grad = stream_products(a, x_t, lambda g, rows: _phase_residual(g, y[rows]))
    x_til = x_t - (tau / data.m) * grad
    return project(prior, x_til, proj_cfg, seed=seed).point


def refine_step_count(name: str, t1: int, t2: int) -> int:
    """Refinement steps one run of the named algorithm takes."""
    return {"mprg": t2, "mprgf": t2, "step2": t1 + t2}.get(name, 0)


def run_algorithm(name: str, data: MeasurementSet, prior: GenerativePrior, *,
                  t1: int = 20, t2: int = 30, proj_cfg: ProjectionConfig | None = None,
                  tau: float = 0.9, seed=0, spec: SpectralMatrix | None = None,
                  w0_override=None) -> RunTrace:
    """Run one named algorithm and return its trajectory.

    The trace holds one record per iterate including the initial one; ppower
    and step2 spend the whole t1+t2 budget in their single phase, and the t1
    spectral iterations that start mprg, mprgf and appgd come first.
    Refinement runs in n-space when spec carries a Gram matrix, which a spec
    built here does not.  Every run argument is checked (run_problems, the
    seed rule, a prior of the data's n and, for a given w0_override,
    start_problems at that n) before any work.  step2 projects a start whose
    square overflows, which the projectors refuse as a target, at unit norm.
    """
    dims = [] if prior.n == data.n else \
        [f"prior: its n={prior.n} differs from the data's n={data.n}"]
    starts = [] if w0_override is None else start_problems(w0_override, data.n)
    raise_problems(run_problems([name], t1, t2, tau) + seed_key_problems(seed) + dims + starts,
                   "invalid run arguments:")
    truth = data.signal
    start = time.perf_counter()
    steps = refine_step_count(name, t1, t2)
    if spec is None:
        spec = build_spectral_matrix(data)
    if w0_override is None:
        w0 = initial_vector(spec, shifted_matrix(spec))
    else:
        w0 = np.asarray(w0_override, dtype=float)

    # head: steps at t = 0, 1, ...; tail: second-phase steps, shifted by t1
    seed = flatten_seed(seed)
    tail = []
    if name == "ppower":
        head = projected_power(spec, prior, w0, t1 + t2, proj_cfg,
                               seed=[seed, 1], truth=truth)
    elif name == "step2":
        # the exact projection of a start is that of any positive multiple
        # (and the iterative one minimizes the same objective), as the power
        # phase divides every start by its norm
        if not math.isfinite(np.vdot(w0, w0)):
            w0 = w0 / vector_norm(w0)
        x0 = project(prior, w0, proj_cfg, seed=[seed, 1]).point
        head = run_refine(data, prior, x0, steps, proj_cfg=proj_cfg, seed=[seed, 2],
                          truth=truth, spec=spec)
    elif name in ("mprg", "mprgf"):
        power = projected_power(spec, prior, w0, t1, proj_cfg, seed=[seed, 1], truth=truth)
        head = power[:-1]
        tail = run_refine(data, prior, power[-1].iterate, steps, fixed=name == "mprgf",
                          proj_cfg=proj_cfg, seed=[seed, 2], truth=truth, spec=spec)
    else:  # appgd
        head = projected_power(spec, prior, w0, t1, proj_cfg, seed=[seed, 1], truth=truth)
        x = head[-1].iterate
        for t in range(1, t2 + 1):
            x = appgd_step(data, x, prior, tau, proj_cfg, seed=[seed, 2, t])
            tail.append(step_at(x, t, truth))

    records = [s.record() for s in head] + [s.record(t1) for s in tail]
    return RunTrace(algorithm=name, records=records, final_error=records[-1]["error"],
                    final_iterate=(tail or head)[-1].iterate,
                    wall_time=time.perf_counter() - start)
