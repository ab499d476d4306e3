"""End-to-end algorithms over shared priors and projectors.

mprg   : spectral initialization (t1 power iterations) then adaptive refinement.
mprgf  : same, but the refinement scale factor nu, and so the step size
         zeta = 1/nu, is frozen at its first estimate.
ppower : power iterations only, run for the full t1+t2 budget.
step2  : refinement only, from the projected starting vector, full budget.
appgd  : alternating-phase projected gradient descent, initialized by the
         spectral step, using sign(a_i^T x) as the phase estimate.

An appgd run makes one phase term (_PhaseTerm) for its tau from the Gram
matrix G of its spectral matrix, keeping the signs sign(A x), sign(0) = +1,
and tau A^T (y sign(A x)) / m across its steps: a step reads A once, for
A x, and updates the term by the rows whose sign flipped, a few per step
after the first ones.

The solvers take plain values; run_problems lists the rule of every run
argument, and run_algorithm checks them all before any work.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .errors import is_finite_number, raise_problems, seed_key_problems
from .links import MeasurementSet, _one_blas_thread, empty_problems
from .priors import GenerativePrior, ProjectionConfig, project, vector_norm
from .refine import run_refine, t2_problems
from .runtrace import RunTrace, Step, score
from .seeds import flatten_seed
from .spectral import SpectralMatrix, build_spectral_matrix, initial_vector, projected_power, \
    shifted_matrix, start_problems, t1_problems

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


class _PhaseTerm:
    """APPGD's phase term for one run at step size tau, with the Gram matrix
    G = A^T A / m of a built spectral matrix: the row signs s = sign(A x),
    sign(0) = +1, held as the bools A x >= 0, and tau h, h = A^T (y s) / m.
    tau is checked (tau_problems) and I - tau G formed at construction.

    A step reads A once, for A x, and returns x - tau (G x - h) as
    (I - tau G) x + tau h.  The first step forms tau h in full as c^T A,
    where c = tau y s / m; a later one adds -2 c_i a_i to tau h for each
    row i whose sign flipped and negates c_i, and sums several flipped rows
    as one product.  Both products run under OpenBLAS's one-thread pin
    (which run_algorithm already holds; a lone appgd_step does not), since
    from about 4 MB such a product changed bits with the thread count.  A
    lone flip, the usual case after the first few steps, is one scalar and
    one row: 2.4 us against 5.8 us for the indexed update at m = 250.
    """

    def __init__(self, spec: SpectralMatrix, tau):
        raise_problems(tau_problems(tau))
        n = len(spec.v)
        self.tau, self.i_tau_g, self.pos = tau, np.eye(n) - tau * spec.stack[:n], None

    def pre_projection(self, a, y, x):
        pos = a.dot(x) >= 0.0
        if self.pos is None:
            self.coef = (self.tau / len(y)) * np.where(pos, y, -y)
            with _one_blas_thread():
                self.tau_h = self.coef.dot(a)
        else:
            flips = (pos != self.pos).nonzero()[0]
            if len(flips) == 1:
                i = flips[0]
                c = self.coef[i]
                self.coef[i] = -c
                self.tau_h -= (2.0 * c) * a[i]
            elif len(flips):
                c = self.coef[flips]
                self.coef[flips] = -c
                with _one_blas_thread():
                    self.tau_h -= 2.0 * c.dot(a[flips])
        self.pos = pos
        return self.i_tau_g.dot(x) + self.tau_h


def appgd_step(data: MeasurementSet, state, prior: GenerativePrior, tau: float,
               proj_cfg: ProjectionConfig | None = None, seed=0, phase=None):
    """x <- P_G(x - (tau/m) sum ((a_i^T x) - y_i sign(a_i^T x)) a_i),
    with sign(0) = +1, taken as x - tau (G x - h) from the one product A x
    with a phase term (_PhaseTerm), which run_algorithm makes once per run;
    given no phase, the step makes one from a spectral matrix built on
    data.  tau is checked (tau_problems), and a tau other than the given
    phase's is a ConfigurationError."""
    raise_problems(tau_problems(tau))
    if phase is None:
        phase = _PhaseTerm(build_spectral_matrix(data), tau)
    elif tau != phase.tau:
        raise_problems([f"tau: the phase term was made for tau={phase.tau!r}, got {tau!r}"])
    x_til = phase.pre_projection(data.sensing, data.observations,
                                 np.asarray(state, dtype=float))
    return project(prior, x_til, proj_cfg, seed=seed).point


def refine_step_count(name: str, t1: int, t2: int) -> int:
    """Refinement steps one run of the named algorithm takes."""
    return {"mprg": t2, "mprgf": t2, "step2": t1 + t2}.get(name, 0)


@_one_blas_thread()
def run_algorithm(name: str, data: MeasurementSet, prior: GenerativePrior, *,
                  t1: int = 20, t2: int = 30, proj_cfg: ProjectionConfig | None = None,
                  tau: float = 0.9, seed=0, spec: SpectralMatrix | None = None,
                  w0_override=None) -> RunTrace:
    """Run one named algorithm and return its trajectory.

    The trace holds one record per iterate including the initial one; ppower
    and step2 spend the whole t1+t2 budget in their single phase, and the t1
    spectral iterations that start mprg, mprgf and appgd come first, from
    the one projected_power call of all but step2.  Without a w0_override
    the start is read from the data (spectral.shifted_matrix and
    initial_vector), with no V.  Refinement steps take the stack [G; M] of
    the spec, built here when none is given, and appgd makes one phase term
    (_PhaseTerm) from its G for the run.  Every run argument is checked
    (run_problems, the seed rule, a prior of the data's n, at least one
    measurement, a given spec with a stack unless the run is ppower's and,
    for a given w0_override, start_problems at that n) before any work.  step2 projects a start whose square overflows, which
    the projectors refuse as a target, at unit norm.  The call runs with
    OpenBLAS pinned to one thread, so its products, some of which change
    bits with the thread count at some shapes, give the same trajectory at
    any count.
    """
    dims = [] if prior.n == data.n else \
        [f"prior: its n={prior.n} differs from the data's n={data.n}"]
    starts = [] if w0_override is None else start_problems(w0_override, data.n)
    stackless = [] if spec is None or spec.stack is not None or name == "ppower" else \
        [f"spec: {name} needs the stack [G; M] of build_spectral_matrix, which a spectral "
         "matrix made from v and ybar alone lacks"]
    raise_problems(run_problems([name], t1, t2, tau) + seed_key_problems(seed) + dims +
                   empty_problems(data) + starts + stackless, "invalid run arguments:")
    truth = data.signal
    start = time.perf_counter()
    steps = refine_step_count(name, t1, t2)
    if spec is None:
        spec = build_spectral_matrix(data)
    if w0_override is None:
        w0 = initial_vector(shifted_matrix(data))
    else:
        w0 = np.asarray(w0_override, dtype=float)

    # head: steps at t = 0, 1, ...; tail: second-phase steps, shifted by t1
    seed = flatten_seed(seed)
    tail = []
    if name == "step2":
        # the exact projection of a start is that of any positive multiple
        # (and the iterative one minimizes the same objective), as the power
        # phase divides every start by its norm
        if not math.isfinite(np.vdot(w0, w0)):
            w0 = w0 / vector_norm(w0)
        x0 = project(prior, w0, proj_cfg, seed=[seed, 1]).point
        head = run_refine(data, prior, x0, steps, proj_cfg=proj_cfg, seed=[seed, 2],
                          truth=truth, spec=spec)
    else:
        head = projected_power(spec, prior, w0, t1 + t2 if name == "ppower" else t1, proj_cfg,
                               seed=[seed, 1], truth=truth)
    if name in ("mprg", "mprgf"):
        tail = run_refine(data, prior, head.pop().iterate, steps, fixed=name == "mprgf",
                          proj_cfg=proj_cfg, seed=[seed, 2], truth=truth, spec=spec)
    elif name == "appgd":
        x = head[-1].iterate
        phase = _PhaseTerm(spec, tau)
        for t in range(1, t2 + 1):
            x = appgd_step(data, x, prior, tau, proj_cfg, seed=[seed, 2, t], phase=phase)
            tail.append(Step(x, t))
        score(tail, truth)

    records = [s.record() for s in head] + [s.record(t1) for s in tail]
    return RunTrace(algorithm=name, records=records, final_error=records[-1]["error"],
                    final_iterate=(tail or head)[-1].iterate,
                    wall_time=time.perf_counter() - start)
