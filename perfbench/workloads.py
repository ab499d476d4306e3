"""The benchmark's three workloads: fixed problem shapes, configs built from a seed.

A run of a workload is a sequence of *units*.  Unit ``u`` is one complete
``run_experiment`` sweep whose master seed is derived from ``(seed, u)``, so
every unit has the same shape and the same operation counts but its own
signals and measurements.  The first ``accuracy_units`` units always run; the
errors they produce are a pure function of the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from genphase import ExperimentConfig, ProjectionConfig
from genphase.harness import build_prior, validate_config


@dataclass(frozen=True)
class Workload:
    name: str
    base: ExperimentConfig
    trials_per_unit: int
    accuracy_units: int   # always run; err_mprg and the ordering come from these
    trace_units: int      # units run under tracing in a --trace 1 run
    calibration: str      # the calibrate.KERNELS kind its time is spent in


_MLP_PROJECTION = ProjectionConfig(steps=120, learning_rate=0.1, latent_init="warm-start")

WORKLOADS = {w.name: w for w in (
    # The paper's misspecified setting (the acceptance-criteria 6/7 fixture):
    # nearly all time is in the iterative latent projection.
    Workload(
        name="mlp-sweep",
        base=ExperimentConfig(
            prior_kind="relu-mlp", k=5, n=100, hidden=(32,), prior_seed=2,
            link_name="square-sin", sigma=0.5, m_grid=(400,), restarts=10,
            algorithms=("mprg", "mprgf", "appgd"), t1=20, t2=30, tau=0.9,
            projection=_MLP_PROJECTION),
        trials_per_unit=1, accuracy_units=2, trace_units=1, calibration="numpy"),
    # The exact projector makes the prior negligible: time goes to building
    # the dense n x n V (O(mn^2)) and to O(mn) matvecs in refine and APPGD.
    Workload(
        name="subspace-large-n",
        base=ExperimentConfig(
            prior_kind="linear-subspace", k=10, n=2000, prior_seed=2,
            link_name="abs-noise-out", sigma=0.1, m_grid=(16000,), restarts=2,
            algorithms=("mprg", "appgd"), t1=20, t2=30, tau=0.9),
        trials_per_unit=1, accuracy_units=2, trace_units=2, calibration="memory"),
    # The other side of the dense/matrix-free trade-off: many ~5 ms solves
    # reuse one small V, so call overhead and harness orchestration dominate.
    Workload(
        name="subspace-sweep",
        base=ExperimentConfig(
            prior_kind="linear-subspace", k=5, n=100, prior_seed=2,
            link_name="abs-noise-out", sigma=0.1, m_grid=(250, 500, 1000, 2000, 4000),
            restarts=2, algorithms=("mprg", "mprgf", "ppower", "step2", "appgd"),
            t1=20, t2=30, tau=0.9),
        trials_per_unit=10, accuracy_units=1, trace_units=3, calibration="python"),
)}


def unit_config(workload: Workload, seed: int, unit: int) -> ExperimentConfig:
    master = int(np.random.SeedSequence([seed, unit]).generate_state(1)[0])
    return replace(workload.base, trials=workload.trials_per_unit, master_seed=master)


def setup(name: str, seed: int):
    """The set-up a user pays before the first solve: config validation and
    the prior build."""
    cfg = unit_config(WORKLOADS[name], seed, 0)
    validate_config(cfg)
    return cfg, build_prior(cfg)


# Work per solve: t1 power steps then t2 refine or APPGD steps; ppower
# spends the whole budget in power steps and step2 projects its start first.
def _solve_shape(algo: str, t1: int, t2: int) -> dict:
    return {
        "mprg": {"power_matvecs": t1, "refine_steps": t2, "appgd_steps": 0, "projections": t1 + t2},
        "mprgf": {"power_matvecs": t1, "refine_steps": t2, "appgd_steps": 0, "projections": t1 + t2},
        "appgd": {"power_matvecs": t1, "refine_steps": 0, "appgd_steps": t2, "projections": t1 + t2},
        "ppower": {"power_matvecs": t1 + t2, "refine_steps": 0, "appgd_steps": 0, "projections": t1 + t2},
        "step2": {"power_matvecs": 0, "refine_steps": t1 + t2, "appgd_steps": 0, "projections": 1 + t1 + t2},
    }[algo]


def expected_counts(cfg: ExperimentConfig) -> dict:
    """Span and work counts one unit must produce, derived from its config alone."""
    cells = len(cfg.m_grid) * cfg.trials
    restarts = cfg.restarts
    shapes = [_solve_shape(a, cfg.t1, cfg.t2) for a in cfg.algorithms]
    solves = cells * len(cfg.algorithms) * restarts
    # restarts 0 and 1 start from +-w0; later ones project a random vector
    # with the default ProjectionConfig
    start_projections = cells * len(cfg.algorithms) * max(restarts - 2, 0)
    solve_projections = cells * restarts * sum(s["projections"] for s in shapes)
    projections = solve_projections + start_projections
    iterative = cfg.prior_kind != "linear-subspace"
    default = ProjectionConfig()
    loss_grad = (solve_projections * (cfg.projection.steps + 1) * cfg.projection.restarts
                 + start_projections * (default.steps + 1) * default.restarts)
    return {
        "harness.sweep": 1,
        "harness.emit": 1,
        "links.sample": cells,
        "spectral.build": cells,
        "spectral.init": 2 * cells,   # shifted_matrix, then initial_vector
        "baselines.solve": solves,
        "harness.restart_start": solves,
        "priors.project": projections,
        "priors.project_iterative": projections if iterative else 0,
        "priors.project_exact": 0 if iterative else projections,
        "priors.loss_grad": loss_grad if iterative else 0,
        "spectral.power": cells * restarts * sum(s["power_matvecs"] > 0 for s in shapes),
        "spectral.power.matvecs": cells * restarts * sum(s["power_matvecs"] for s in shapes),
        "refine.run": cells * restarts * sum(s["refine_steps"] > 0 for s in shapes),
        "refine.steps": cells * restarts * sum(s["refine_steps"] for s in shapes),
        "baselines.appgd": cells * restarts * sum(s["appgd_steps"] for s in shapes),
    }
