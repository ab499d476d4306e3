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
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .baselines import refine_step_count, run_algorithm, run_problems
from .errors import ConfigurationError, InsufficientDataError, count_problems, \
    is_finite_number, is_integer, raise_problems, seed_problems
from .links import LinkModel, sample_measurements
from .priors import GenerativePrior, ProjectionConfig, evaluate, \
    linear_subspace_prior, prior_problems, project, relu_mlp_prior
from .runtrace import format_cell
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
    projection: ProjectionConfig = field(default_factory=ProjectionConfig)
    master_seed: int = 0


def _link(cfg: ExperimentConfig) -> LinkModel:
    return LinkModel(name=cfg.link_name, sigma=cfg.sigma, params=cfg.link_params)


_INVALID = "invalid experiment config:"


def validate_config(cfg: ExperimentConfig) -> None:
    """Raise ConfigurationError listing every violated field."""
    raise_problems(_config_problems(cfg), _INVALID)


def _config_problems(cfg: ExperimentConfig) -> list:
    problems = [f"prior.{p}" for p in prior_problems(cfg.prior_kind, cfg.k, cfg.n, cfg.r,
                                                       cfg.hidden, cfg.prior_seed)]
    problems += seed_problems(cfg.master_seed, "master_seed")
    problems += count_problems(cfg.trials, "trials", 1) + \
        count_problems(cfg.restarts, "restarts", 1)
    grid = cfg.m_grid
    if not (isinstance(grid, (list, tuple)) and grid and all(map(is_integer, grid))
            and grid[0] >= 1 and all(b > a for a, b in zip(grid, grid[1:]))):
        problems.append("m_grid: must be a nonempty, strictly increasing list of positive "
                        f"integers, got {grid!r}")
    problems += run_problems(cfg.algorithms, cfg.t1, cfg.t2, cfg.tau)
    if not isinstance(cfg.projection, ProjectionConfig):
        problems.append(f"projection: must be a ProjectionConfig, got {cfg.projection!r}")
    try:
        _link(cfg)
    except ConfigurationError as exc:
        problems.append(str(exc))
    return problems


# The JSON config's keys, at the top level ("") and in its "prior", "link"
# and "projection" objects, and the ExperimentConfig field each key sets (the
# ProjectionConfig field inside "projection").  The top-level keys without a
# field are the nested objects.
_CONFIG_KEYS = {
    "": {"prior": None, "link": None, "projection": None, "m_grid": "m_grid",
         "trials": "trials", "restarts": "restarts", "algorithms": "algorithms", "t1": "t1",
         "t2": "t2", "tau": "tau", "master_seed": "master_seed"},
    "prior": {"kind": "prior_kind", "k": "k", "n": "n", "r": "r", "seed": "prior_seed",
              "hidden": "hidden"},
    "link": {"name": "link_name", "sigma": "sigma", "params": "link_params"},
    "projection": {"steps": "steps", "learning_rate": "learning_rate", "restarts": "restarts",
                   "latent_init": "latent_init"},
}


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Build and validate a config from its JSON document, with lists read
    as tuples.  Every unknown key, nested value that is not an object and
    value that breaks its field's rule is listed in one ConfigurationError
    naming the field; each field's rule covers its type and its range and is
    the one the library applies.  An absent key takes the ExperimentConfig
    (or ProjectionConfig) field default."""
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{_INVALID} expected a JSON object")
    problems, fields, projection = [], {}, {}
    for section, names in _CONFIG_KEYS.items():
        values = doc.get(section, {}) if section else doc
        if not isinstance(values, dict):
            problems.append(f"{section}: must be a JSON object, got {values!r}")
            continue
        for key, value in values.items():
            if key not in names:
                problems.append(f"{section}{'.' if section else ''}{key}: unknown key")
            elif names[key]:
                (projection if section == "projection" else fields)[names[key]] = \
                    tuple(value) if isinstance(value, list) else value
    try:
        fields["projection"] = ProjectionConfig(**projection)
    except ConfigurationError as exc:
        problems.append(str(exc))
    cfg = ExperimentConfig(**fields)
    raise_problems(problems + _config_problems(cfg), _INVALID)
    return cfg


def config_from_file(path) -> ExperimentConfig:
    """Read and validate a JSON config file.  A file that is not UTF-8 text or
    not JSON is a ConfigurationError."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except ValueError as exc:   # JSONDecodeError and UnicodeDecodeError
        raise ConfigurationError(f"cannot parse config file {path}: {exc}") from exc
    return config_from_dict(doc)


def build_prior(cfg: ExperimentConfig) -> GenerativePrior:
    if cfg.prior_kind == "linear-subspace":
        return linear_subspace_prior(cfg.k, cfg.n, r=cfg.r, seed=cfg.prior_seed)
    return relu_mlp_prior(cfg.k, cfg.hidden, cfg.n, r=cfg.r, seed=cfg.prior_seed)


def canonical_signal(prior: GenerativePrior, z):
    """G(z), flipped for sign-symmetric ranges (linear subspace) so its
    largest-magnitude entry is positive; without this the spectral start is
    equally likely to lock onto -x, which the range cannot distinguish from x
    for even link functions."""
    x = evaluate(prior, z)
    if prior.kind == "linear-subspace" and x[int(np.argmax(np.abs(x)))] < 0:
        x = -x
    return x


def draw_signal(prior: GenerativePrior, master_seed: int, m_index: int, trial: int):
    """Seeded canonical signal draw from the prior's range."""
    rng = np.random.default_rng([master_seed, m_index, trial, ROLE_SIGNAL])
    return canonical_signal(prior, rng.standard_normal(prior.k))


def _t_central_mass(theta: float, df: int) -> float:
    """P(|T| <= sqrt(df) tan(theta)) for Student's t with an integer df >= 1:
    the finite cosine series of Abramowitz & Stegun 26.7.3 (odd df) and
    26.7.4 (even df), df // 2 terms in either case."""
    c2 = math.cos(theta) ** 2
    odd = df % 2
    total, term = 0.0, 1.0
    for j in range(df // 2):
        total += term
        term *= c2 * (2 * j + 1 + odd) / (2 * j + 2 + odd)
    if odd:
        return 2.0 / math.pi * (theta + math.sin(theta) * math.cos(theta) * total)
    return math.sin(theta) * total


def t_quantile_975(df: int) -> float:
    """The 0.975 quantile of Student's t with an integer df >= 1, which is the
    half-width of its central 95% interval.  Bisection in theta = atan(t /
    sqrt(df)) on the central mass runs until the bracket cannot shrink."""
    lo, hi = 0.0, math.pi / 2
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if _t_central_mass(mid, df) < 0.95:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return math.sqrt(df) * math.tan(mid)


@dataclass
class SlopeFit:
    slope: float
    intercept: float
    ci95: float


def fit_slope(points) -> SlopeFit:
    """OLS of log(mean error) on log(m).  A point whose m is not a finite
    number >= 1 or whose error is not finite is a ConfigurationError;
    nonpositive errors are dropped with a warning; fewer than 3 surviving
    points, or a single distinct m, is an InsufficientDataError.  ci95 is the half-width of the 95% confidence
    interval of the slope.  The arithmetic is scipy.stats.linregress's (biased
    moments from np.cov); errors that do not vary give ci95 = 0 where
    linregress gives NaN."""
    points = list(points)
    raise_problems([f"fit_slope: point (m={m!r}, error={e!r}) needs a finite m >= 1 and a "
                    "finite error" for m, e in points
                    if not (is_finite_number(m) and m >= 1 and is_finite_number(e))])
    clean = [(m, e) for m, e in points if e > 0]
    if len(clean) < len(points):
        warnings.warn("fit_slope: dropped nonpositive error values")
    if len(clean) < 3:
        raise InsufficientDataError("need at least 3 positive points for a slope fit")
    lx = np.log([m for m, _ in clean])
    ly = np.log([e for _, e in clean])
    if lx.max() == lx.min():
        raise InsufficientDataError("need at least 2 distinct m for a slope fit")
    ssxm, ssxym, _, ssym = np.cov(lx, ly, bias=1).flat
    # the correlation, clipped to [-1, 1] against rounding
    r = min(max(ssxym / np.sqrt(ssxm * ssym), -1.0), 1.0) if ssym > 0.0 else 0.0
    slope = ssxym / ssxm
    df = len(clean) - 2
    stderr = np.sqrt((1 - r**2) * ssym / ssxm / df)
    return SlopeFit(slope=float(slope), intercept=float(np.mean(ly) - slope * np.mean(lx)),
                    ci95=float(t_quantile_975(df) * stderr))


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


def run_experiment(cfg: ExperimentConfig) -> SweepResult:
    """Full sweep: for each (m, trial) draw a fresh signal and measurement
    set, run every algorithm with cfg.restarts initializations, and keep the
    restart with the smallest final error per (m, algorithm, trial), an
    oracle selection that uses the ground truth.  The cell's spectral build
    also makes the Gram matrix for n-space refinement when the refinement
    steps of all its restarts pay for it (spectral.gram_pays_off)."""
    validate_config(cfg)
    prior = build_prior(cfg)
    link = _link(cfg)
    # every restart of every algorithm refines on the same cell's V (and G)
    refine_steps = cfg.restarts * sum(refine_step_count(a, cfg.t1, cfg.t2)
                                      for a in cfg.algorithms)
    rows = []
    for m_index, m in enumerate(cfg.m_grid):
        for trial in range(cfg.trials):
            x = draw_signal(prior, cfg.master_seed, m_index, trial)
            data = sample_measurements(
                link, x, m, flatten_seed([cfg.master_seed, m_index, trial, ROLE_MEAS]))
            spec = build_spectral_matrix(data, refine_steps=refine_steps)
            w0 = initial_vector(spec, shifted_matrix(spec))
            for algo_index, algo in enumerate(cfg.algorithms):
                best = None
                for restart in range(cfg.restarts):
                    start = _restart_start(prior, spec, w0, cfg.master_seed,
                                           m_index, trial, restart)
                    trace = run_algorithm(
                        algo, data, prior, t1=cfg.t1, t2=cfg.t2,
                        proj_cfg=cfg.projection, tau=cfg.tau,
                        seed=flatten_seed([cfg.master_seed, m_index, trial, restart,
                                           ROLE_ALGO + algo_index]),
                        spec=spec, w0_override=start)
                    if best is None or trace.final_error < best[1]:
                        best = (restart, trace.final_error)
                rows.append({"m": m, "algorithm": algo, "trial": trial,
                             "restart": best[0], "final_error": best[1]})
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
# CSV / SVG emission.  A sweep CSV is a per-trial row block followed by an
# aggregate block; the header of each and the type of each of its cells:
# ---------------------------------------------------------------------------

_SWEEP_BLOCKS = {"m,algorithm,trial,restart,final_error": (int, str, int, int, float),
                 "m,algorithm,mean,stderr": (int, str, float, float)}


def write_sweep_csv(result: SweepResult, path) -> None:
    if not result.rows:
        raise ConfigurationError("empty sweep result; nothing to write")
    with open(path, "w") as fh:
        for (header, kinds), block in zip(_SWEEP_BLOCKS.items(),
                                          (result.rows, result.aggregates)):
            fh.write(header + "\n")
            for r in block:
                fh.write(",".join(format_cell(r[key]) if kind is float else str(r[key])
                                  for key, kind in zip(header.split(","), kinds)) + "\n")


def read_sweep_csv(path):
    """Parse a sweep CSV back into (rows, aggregates).  A line that does not
    fit the block it is in is a ConfigurationError."""
    blocks = {header: [] for header in _SWEEP_BLOCKS}
    header = None
    with open(path, errors="replace") as fh:
        for line in fh:
            line = line.strip()
            if line in blocks:
                header = line
            elif line:
                kinds, cells = _SWEEP_BLOCKS.get(header, ()), line.split(",")
                try:   # strict: a cell too many or too few is a ValueError too
                    values = [kind(cell) for kind, cell in zip(kinds, cells, strict=True)]
                except ValueError:
                    raise ConfigurationError(f"malformed sweep CSV line in {path}: "
                                             f"{line!r}") from None
                blocks[header].append(dict(zip(header.split(","), values)))
    rows, aggregates = blocks.values()
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
        render_sweep_svg(result.aggregates, path)
    else:
        raise ConfigurationError(f"unknown output format {fmt!r}")
    return path
