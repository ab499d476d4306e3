"""End-to-end algorithms over shared priors and projectors.

mprg   : spectral initialization (t1 power iterations) then adaptive refinement.
mprgf  : same, but the refinement scale factor is frozen at its first value.
ppower : power iterations only, run for the full t1+t2 budget.
step2  : refinement only, from the projected starting vector, full budget.
appgd  : alternating-phase projected gradient descent, initialized by the
         spectral step, using sign(a_i^T x) as the phase estimate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError
from .links import MeasurementSet
from .priors import GenerativePrior, ProjectionConfig, project
from .refine import RefineConfig, run_refine
from .runtrace import RunTrace
from .seeds import flatten_seed
from .spectral import SpectralMatrix, build_spectral_matrix, initial_vector, \
    projected_power, shifted_matrix

ALGORITHMS = ("mprg", "mprgf", "ppower", "step2", "appgd")
BASELINES = ("appgd", "ppower", "step2")


@dataclass
class AppgdConfig:
    tau: float = 0.9
    iterations: int = 30
    proj_cfg: ProjectionConfig = field(default_factory=ProjectionConfig)

    def __post_init__(self):
        if self.tau <= 0:
            raise ConfigurationError("tau must be positive")


def appgd_step(data: MeasurementSet, state, cfg: AppgdConfig,
               prior: GenerativePrior, seed=0):
    """x <- P_G(x - (tau/m) sum ((a_i^T x) - y_i sign(a_i^T x)) a_i),
    with sign(0) = +1."""
    x_t = np.asarray(state, dtype=float)
    g = data.sensing @ x_t
    s = np.where(g >= 0, 1.0, -1.0)
    resid = g - data.observations * s
    x_til = x_t - (cfg.tau / data.m) * (data.sensing.T @ resid)
    return project(prior, x_til, cfg.proj_cfg, seed=seed).point


def _power_records(states):
    return [{"t": s.t, "error": s.error, "correlation": s.correlation} for s in states]


def _refine_records(states, t_offset=0):
    return [{"t": s.t + t_offset, "error": s.error, "nu_hat": s.nu_hat,
             "zeta": s.zeta, "warn": s.warn} for s in states]


def run_algorithm(name: str, data: MeasurementSet, prior: GenerativePrior, *,
                  t1: int = 20, t2: int = 30, proj_cfg: ProjectionConfig | None = None,
                  refine_cfg: RefineConfig | None = None, tau: float = 0.9,
                  seed=0, spec: SpectralMatrix | None = None,
                  w0_override=None, count_init_budget: bool = True) -> RunTrace:
    """Run one named algorithm and return its trajectory.

    The trace holds one record per iterate including the initial one; ppower
    and step2 spend the whole t1+t2 budget in their single phase.  For appgd,
    count_init_budget controls whether the t1 spectral iterations used to
    initialize it appear in the trace.
    """
    if name not in ALGORITHMS:
        raise ConfigurationError(f"unknown algorithm {name!r}; known: {ALGORITHMS}")
    proj_cfg = proj_cfg or ProjectionConfig()
    truth = data.signal
    start = time.perf_counter()
    if spec is None:
        spec = build_spectral_matrix(data)
    if w0_override is None:
        w0 = initial_vector(spec, shifted_matrix(spec))
    else:
        w0 = np.asarray(w0_override, dtype=float)

    seed = flatten_seed(seed)
    if name == "ppower":
        states = projected_power(spec, prior, w0, t1 + t2, proj_cfg,
                                 seed=[seed, 1], truth=truth)
        records = _power_records(states)
        x = states[-1].iterate
    elif name == "step2":
        x0 = project(prior, w0, proj_cfg, seed=[seed, 1]).point
        cfg = replace(refine_cfg or RefineConfig(), t2=t1 + t2, proj_cfg=proj_cfg)
        states = run_refine(data, prior, x0, cfg, seed=[seed, 2], truth=truth)
        records = _refine_records(states)
        x = states[-1].iterate
    elif name in ("mprg", "mprgf"):
        power = projected_power(spec, prior, w0, t1, proj_cfg, seed=[seed, 1], truth=truth)
        cfg = replace(refine_cfg or RefineConfig(),
                      zeta_mode="fixed" if name == "mprgf" else "adaptive",
                      t2=t2, proj_cfg=proj_cfg)
        states = run_refine(data, prior, power[-1].iterate, cfg,
                            seed=[seed, 2], truth=truth)
        records = _power_records(power[:-1]) + _refine_records(states, t_offset=t1)
        x = states[-1].iterate
    else:  # appgd
        power = projected_power(spec, prior, w0, t1, proj_cfg, seed=[seed, 1], truth=truth)
        x = power[-1].iterate
        cfg = AppgdConfig(tau=tau, iterations=t2, proj_cfg=proj_cfg)
        records = _power_records(power) if count_init_budget else \
            [{"t": 0, "error": float(np.linalg.norm(x - truth)), "correlation": float(truth @ x)}]
        t_offset = t1 if count_init_budget else 0
        for t in range(1, t2 + 1):
            x = appgd_step(data, x, cfg, prior, seed=[seed, 2, t])
            records.append({"t": t_offset + t,
                            "error": float(np.linalg.norm(x - truth)),
                            "correlation": float(truth @ x)})

    final_error = records[-1]["error"]
    return RunTrace(algorithm=name, records=records, final_error=final_error,
                    final_iterate=x, wall_time=time.perf_counter() - start,
                    seeds=[seed])


def run_baseline(name: str, data: MeasurementSet, prior: GenerativePrior, *,
                 t1: int = 20, t2: int = 30, proj_cfg: ProjectionConfig | None = None,
                 refine_cfg: RefineConfig | None = None, tau: float = 0.9,
                 seed=0, **kw) -> RunTrace:
    if name not in BASELINES:
        raise ConfigurationError(f"unknown baseline {name!r}; known: {BASELINES}")
    return run_algorithm(name, data, prior, t1=t1, t2=t2, proj_cfg=proj_cfg,
                         refine_cfg=refine_cfg, tau=tau, seed=seed, **kw)
