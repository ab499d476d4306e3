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

import time

import numpy as np

from .errors import is_finite_number, raise_problems, seed_key_problems
from .links import MeasurementSet
from .priors import GenerativePrior, ProjectionConfig, project
from .refine import run_refine, t2_problems
from .runtrace import RunTrace, step_at
from .seeds import flatten_seed
from .spectral import SpectralMatrix, build_spectral_matrix, initial_vector, \
    projected_power, shifted_matrix, t1_problems

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


def appgd_step(data: MeasurementSet, state, prior: GenerativePrior, tau: float,
               proj_cfg: ProjectionConfig | None = None, seed=0):
    """x <- P_G(x - (tau/m) sum ((a_i^T x) - y_i sign(a_i^T x)) a_i),
    with sign(0) = +1."""
    raise_problems(tau_problems(tau))
    x_t = np.asarray(state, dtype=float)
    g = data.sensing @ x_t
    s = np.where(g >= 0, 1.0, -1.0)
    resid = g - data.observations * s
    x_til = x_t - (tau / data.m) * (data.sensing.T @ resid)
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
    Refinement runs in n-space when spec carries a Gram matrix; a spec built
    here gets one when this run's refinement steps pay for it.  Every run
    argument is checked (run_problems and the seed rule) before any work.
    """
    raise_problems(run_problems([name], t1, t2, tau) + seed_key_problems(seed),
                   "invalid run arguments:")
    truth = data.signal
    start = time.perf_counter()
    steps = refine_step_count(name, t1, t2)
    if spec is None:
        spec = build_spectral_matrix(data, refine_steps=steps)
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
