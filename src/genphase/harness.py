"""Experiment orchestration: seeded trial matrices over (m, link, prior,
algorithm), restart handling, error aggregation, slope fits, and CSV/SVG
emission.

Every random stream is derived from the master seed through SeedSequence
keys of the form [master_seed, m_index, trial, restart, role], so the whole
experiment is a pure function of its configuration.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import stats

from .baselines import ALGORITHMS, run_algorithm
from .errors import ConfigurationError, InsufficientDataError
from .links import LinkModel, sample_measurements
from .priors import GenerativePrior, ProjectionConfig, evaluate, \
    linear_subspace_prior, project, relu_mlp_prior
from .refine import RefineConfig
from .seeds import flatten_seed
from .spectral import build_spectral_matrix, initial_vector, shifted_matrix
from .svg import render_sweep_svg

# Substream roles (last element of the SeedSequence key).
ROLE_SIGNAL = 1
ROLE_MEAS = 2
ROLE_INIT = 3
ROLE_ALGO = 10  # + algorithm index


@dataclass
class ExperimentConfig:
    prior_kind: str = "linear-subspace"
    k: int = 5
    n: int = 100
    r: float | None = None
    prior_seed: int = 0
    hidden: tuple = ()
    link_name: str = "abs-noise-out"
    sigma: float = 0.0
    link_params: dict = field(default_factory=dict)
    m_grid: tuple = (250, 500, 1000, 2000, 4000)
    trials: int = 10
    restarts: int = 2
    algorithms: tuple = ("mprg",)
    t1: int = 20
    t2: int = 30
    tau: float = 0.9
    nu_floor: float = 1e-3
    zeta_fixed: float | None = None
    projection: ProjectionConfig = field(default_factory=ProjectionConfig)
    master_seed: int = 0
    select_by: str = "error"   # "error" (needs ground truth) | "residual"


def validate_config(cfg: ExperimentConfig) -> None:
    """Raise ConfigurationError listing every violated field."""
    problems = []
    if cfg.prior_kind not in ("linear-subspace", "relu-mlp"):
        problems.append(f"prior_kind: unknown kind {cfg.prior_kind!r}")
    if not cfg.k >= 1:
        problems.append("k: must be >= 1")
    if not cfg.k < cfg.n:
        problems.append("k/n: need k < n")
    if cfg.trials < 1:
        problems.append("trials: must be >= 1")
    if cfg.restarts < 1:
        problems.append("restarts: must be >= 1")
    if len(cfg.m_grid) == 0:
        problems.append("m_grid: must be nonempty")
    elif any(b <= a for a, b in zip(cfg.m_grid, cfg.m_grid[1:])) or min(cfg.m_grid) < 1:
        problems.append("m_grid: must be strictly increasing positive counts")
    for a in cfg.algorithms:
        if a not in ALGORITHMS:
            problems.append(f"algorithms: unknown algorithm {a!r}")
    if not cfg.algorithms:
        problems.append("algorithms: must be nonempty")
    if cfg.t1 < 1:
        problems.append("t1: must be >= 1")
    if cfg.t2 < 0:
        problems.append("t2: must be >= 0")
    if cfg.tau <= 0:
        problems.append("tau: must be positive")
    if cfg.nu_floor <= 0:
        problems.append("nu_floor: must be positive")
    if cfg.sigma < 0:
        problems.append("sigma: must be nonnegative")
    if cfg.select_by not in ("error", "residual"):
        problems.append(f"select_by: unknown mode {cfg.select_by!r}")
    if problems:
        raise ConfigurationError("invalid experiment config:\n  " + "\n  ".join(problems))


def config_from_dict(doc: dict) -> ExperimentConfig:
    prior = doc.get("prior", {})
    link = doc.get("link", {})
    proj = doc.get("projection", {})
    cfg = ExperimentConfig(
        prior_kind=prior.get("kind", "linear-subspace"),
        k=prior.get("k", 5),
        n=prior.get("n", 100),
        r=prior.get("r"),
        prior_seed=prior.get("seed", 0),
        hidden=tuple(prior.get("hidden", ())),
        link_name=link.get("name", "abs-noise-out"),
        sigma=link.get("sigma", 0.0),
        link_params=link.get("params", {}),
        m_grid=tuple(doc.get("m_grid", (250, 500, 1000, 2000, 4000))),
        trials=doc.get("trials", 10),
        restarts=doc.get("restarts", 2),
        algorithms=tuple(doc.get("algorithms", ("mprg",))),
        t1=doc.get("t1", 20),
        t2=doc.get("t2", 30),
        tau=doc.get("tau", 0.9),
        nu_floor=doc.get("nu_floor", 1e-3),
        zeta_fixed=doc.get("zeta_fixed"),
        projection=ProjectionConfig(**proj) if proj else ProjectionConfig(),
        master_seed=doc.get("master_seed", 0),
        select_by=doc.get("select_by", "error"),
    )
    validate_config(cfg)
    return cfg


def config_from_file(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"cannot parse config file {path}: {exc}") from exc
    return config_from_dict(doc)


def build_prior(cfg: ExperimentConfig) -> GenerativePrior:
    if cfg.prior_kind == "linear-subspace":
        return linear_subspace_prior(cfg.k, cfg.n, r=cfg.r, seed=cfg.prior_seed)
    return relu_mlp_prior(cfg.k, cfg.hidden or (max(cfg.k * 4, 16),), cfg.n,
                          r=cfg.r, seed=cfg.prior_seed)


def draw_signal(prior: GenerativePrior, master_seed: int, m_index: int, trial: int):
    """Seeded signal draw from the prior's range.  For sign-symmetric ranges
    (linear subspace) the signal is flipped so its largest-magnitude entry is
    positive; without this the spectral start is equally likely to lock onto
    -x, which the range cannot distinguish from x for even link functions."""
    rng = np.random.default_rng([master_seed, m_index, trial, ROLE_SIGNAL])
    z = rng.standard_normal(prior.k)
    x = evaluate(prior, z)
    if prior.kind == "linear-subspace" and x[int(np.argmax(np.abs(x)))] < 0:
        x = -x
    return x


@dataclass
class SlopeFit:
    slope: float
    intercept: float
    ci95: float


def fit_slope(points) -> SlopeFit:
    """OLS of log(mean error) on log(m).  Nonpositive errors are dropped with
    a warning; fewer than 3 surviving points is an error.  ci95 is the
    half-width of the 95% confidence interval of the slope."""
    clean = [(m, e) for m, e in points if e > 0]
    if len(clean) < len(list(points)):
        import warnings
        warnings.warn("fit_slope: dropped nonpositive error values")
    if len(clean) < 3:
        raise InsufficientDataError("need at least 3 positive points for a slope fit")
    lx = np.log([m for m, _ in clean])
    ly = np.log([e for _, e in clean])
    res = stats.linregress(lx, ly)
    ci95 = float(stats.t.ppf(0.975, len(clean) - 2) * res.stderr)
    return SlopeFit(slope=float(res.slope), intercept=float(res.intercept), ci95=ci95)


@dataclass
class SweepResult:
    rows: list        # dicts: m, algorithm, trial, restart, final_error
    aggregates: list  # dicts: m, algorithm, mean, stderr
    slopes: dict      # algorithm -> SlopeFit | None


def _restart_start(prior, spec, w0, master_seed, m_index, trial, restart):
    """Initial vector policy across restarts: the spectral start, its
    negation, then random range elements.  With an exact (deterministic)
    projector this is what makes restarts informative; it also resolves the
    x vs -x ambiguity of even links by best-of-restarts selection."""
    if restart == 0:
        return w0
    if restart == 1:
        return -w0
    rng = np.random.default_rng([master_seed, m_index, trial, restart, ROLE_INIT])
    return project(prior, rng.standard_normal(prior.n),
                   seed=[master_seed, m_index, trial, restart, ROLE_INIT]).point


def _residual(data, x_hat) -> float:
    g = np.abs(data.sensing @ x_hat)
    return float(np.linalg.norm(g - data.observations) / math.sqrt(data.m))


def run_experiment(cfg: ExperimentConfig) -> SweepResult:
    """Full sweep: for each (m, trial) draw a fresh signal and measurement
    set, run every algorithm with cfg.restarts initializations, and keep the
    best restart per (m, algorithm, trial)."""
    validate_config(cfg)
    prior = build_prior(cfg)
    link = LinkModel(name=cfg.link_name, sigma=cfg.sigma, params=cfg.link_params)
    refine_cfg = RefineConfig(t2=cfg.t2, zeta_fixed=cfg.zeta_fixed,
                              proj_cfg=cfg.projection, nu_floor=cfg.nu_floor)
    rows = []
    for m_index, m in enumerate(cfg.m_grid):
        for trial in range(cfg.trials):
            x = draw_signal(prior, cfg.master_seed, m_index, trial)
            data = sample_measurements(
                link, x, m, flatten_seed([cfg.master_seed, m_index, trial, ROLE_MEAS]))
            spec = build_spectral_matrix(data)
            w0 = initial_vector(spec, shifted_matrix(spec))
            for algo_index, algo in enumerate(cfg.algorithms):
                best = None
                for restart in range(cfg.restarts):
                    start = _restart_start(prior, spec, w0, cfg.master_seed,
                                           m_index, trial, restart)
                    trace = run_algorithm(
                        algo, data, prior, t1=cfg.t1, t2=cfg.t2,
                        proj_cfg=cfg.projection, refine_cfg=refine_cfg, tau=cfg.tau,
                        seed=flatten_seed([cfg.master_seed, m_index, trial, restart,
                                           ROLE_ALGO + algo_index]),
                        spec=spec, w0_override=start)
                    score = trace.final_error if cfg.select_by == "error" else \
                        _residual(data, trace.final_iterate)
                    if best is None or score < best[0]:
                        best = (score, restart, trace.final_error)
                rows.append({"m": m, "algorithm": algo, "trial": trial,
                             "restart": best[1], "final_error": best[2]})
            # Free A and V before the next trial draws its own.
            del data, spec
    aggregates = []
    for m in cfg.m_grid:
        for algo in cfg.algorithms:
            errs = [r["final_error"] for r in rows
                    if r["m"] == m and r["algorithm"] == algo]
            mean = float(np.mean(errs))
            stderr = float(np.std(errs, ddof=1) / math.sqrt(len(errs))) if len(errs) > 1 else 0.0
            aggregates.append({"m": m, "algorithm": algo, "mean": mean, "stderr": stderr})
    slopes = {}
    for algo in cfg.algorithms:
        pts = [(a["m"], a["mean"]) for a in aggregates if a["algorithm"] == algo]
        try:
            slopes[algo] = fit_slope(pts)
        except InsufficientDataError:
            slopes[algo] = None
    return SweepResult(rows=rows, aggregates=aggregates, slopes=slopes)


# ---------------------------------------------------------------------------
# CSV / SVG emission.  Sweep CSV: row block `m,algorithm,trial,restart,
# final_error` followed by an aggregate block `m,algorithm,mean,stderr`.
# ---------------------------------------------------------------------------

def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def write_sweep_csv(result: SweepResult, path) -> None:
    if not result.rows:
        raise ConfigurationError("empty sweep result; nothing to write")
    with open(path, "w") as fh:
        fh.write("m,algorithm,trial,restart,final_error\n")
        for r in result.rows:
            fh.write(f"{r['m']},{r['algorithm']},{r['trial']},{r['restart']},"
                     f"{_fmt(r['final_error'])}\n")
        fh.write("m,algorithm,mean,stderr\n")
        for a in result.aggregates:
            fh.write(f"{a['m']},{a['algorithm']},{_fmt(a['mean'])},{_fmt(a['stderr'])}\n")


def read_sweep_csv(path):
    """Parse a sweep CSV back into (rows, aggregates)."""
    rows, aggregates = [], []
    section = None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line == "m,algorithm,trial,restart,final_error":
                section = "rows"
                continue
            if line == "m,algorithm,mean,stderr":
                section = "agg"
                continue
            parts = line.split(",")
            if section == "rows":
                rows.append({"m": int(parts[0]), "algorithm": parts[1],
                             "trial": int(parts[2]), "restart": int(parts[3]),
                             "final_error": float(parts[4])})
            elif section == "agg":
                aggregates.append({"m": int(parts[0]), "algorithm": parts[1],
                                   "mean": float(parts[2]), "stderr": float(parts[3])})
            else:
                raise ConfigurationError(f"unexpected line before header: {line!r}")
    if not rows and not aggregates:
        raise ConfigurationError(f"no sweep data found in {path}")
    return rows, aggregates


def emit_outputs(result: SweepResult, fmt: str, path) -> Path:
    """Write the sweep result as `csv` or `svg`.  Errors out (writing
    nothing) on an empty result."""
    path = Path(path)
    if fmt == "csv":
        write_sweep_csv(result, path)
    elif fmt == "svg":
        if not result.aggregates:
            raise ConfigurationError("empty sweep result; nothing to plot")
        render_sweep_svg(result.aggregates, path)
    else:
        raise ConfigurationError(f"unknown output format {fmt!r}")
    return path
