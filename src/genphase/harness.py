"""Experiment orchestration: seeded trial matrices over (m, link, prior,
algorithm), restart handling, error aggregation, slope fits, and CSV/SVG
emission.

Every random stream is derived from the master seed through SeedSequence
keys of the form [master_seed, m_index, trial, restart, role], so the whole
experiment is a pure function of its configuration.

A cell is solved in two parts: prepare_cell draws its signal and
measurements, reads its spectral start w0 from the data in O(mn) (spectral.
shifted_matrix and initial_vector) and builds one spectral matrix, V with
the stack [G; M] that its refinement and APPGD steps read, on the data its
solves read; run_restarts then runs every algorithm from every restart
start, with OpenBLAS pinned to one thread.  A linear-subspace cell is
solved in k+1 coordinates (spectral.reduce_to_subspace): one O(mnk)
reduction replaces every later pass over A, and V, G_k and M_k are built
on the reduced data, so the cell forms no n x n array.  The extra basis
vector beside W is w0's residual off range(W), which the first power step
multiplies; with it every record matches the n-space solve up to rounding.

A linear-subspace cell frees its n-space A when its reduction returns, so
run_experiment then submits the next cell's Gaussians (links.draw_gaussians)
to a one-worker concurrent.futures.ThreadPoolExecutor, into buffers
allocated by the calling thread, while the cell solves: the fill, which
releases the GIL, was about a quarter of a sweep's time at n = 100.  The
worker makes no BLAS call and calls nothing else of the package,
sample_measurements still runs once per cell, in order, in the calling
thread, and the draw's bits are the seed's, so every output is the same as
a cell-by-cell solve_cell loop's.  A Future keeps its result, so the pair
gets one owner by one rule: prepare_cell pops the cell's future from the
list run_experiment keeps and reads the pair inside its sample_measurements
call, so no frame keeps the pair past that call on any Python (3.10 keeps a
call's arguments on the caller's stack until it returns), and the cell's
measurements hold its A alone.  The executor's work item still holds the
buffers and the future until its worker returns from the draw, which is
shortly after result() returns, not before; in practice that is long
before the cell's reduction frees its A, so at most one n-space A exists
at a time.  A draw's exception is raised at its own cell, and the executor
is shut down, its worker joined, before the sweep returns or raises.  The
executor is imported only there, since the import costs 4-9 ms.  A sweep
of one cell, a relu-mlp sweep (whose solves read the n-space A up to their
end) and a process that may run on one CPU only (_cpu_count) start no
thread: the draw would overlap nothing, or share the one CPU with the
solves; under `taskset -c 0` at one BLAS thread a worker made perfbench's
subspace-sweep units 1-5 (seed 1) about 1% slower than drawing inline on a
2-vCPU Xeon (median ratio of paired unit times 1.000-1.017 in six
processes, slower in 138 of 240 pairs).
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .baselines import run_algorithm, run_problems
from .errors import ConfigurationError, InsufficientDataError, count_problems, \
    is_finite_number, is_integer, raise_problems, seed_problems
from .links import LinkModel, MeasurementSet, draw_gaussians, sample_measurements
from .priors import GenerativePrior, ProjectionConfig, _one_blas_thread, evaluate, make_prior, \
    prior_problems, project
from .runtrace import format_cell
from .seeds import flatten_seed
from .spectral import SpectralMatrix, build_spectral_matrix, initial_vector, reduce_to_subspace, \
    shifted_matrix
from .svg import aggregate_problems, render_sweep_svg

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
    return make_prior(cfg.prior_kind, cfg.k, cfg.n, cfg.r, cfg.hidden, cfg.prior_seed)


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
    projector this is what makes restarts informative, and the +-w0 pair
    gives a restart rule both signs to choose from under an even link."""
    # spec is never read: it stays because the benchmark tracer's
    # _restart_id (perfbench/tracer.py) unpacks these seven positional
    # arguments, so dropping it alone breaks the traced self-check
    if restart == 0:
        return w0
    if restart == 1:
        return -w0
    rng = np.random.default_rng([master_seed, m_index, trial, restart, ROLE_INIT])
    return project(prior, rng.standard_normal(prior.n),
                   seed=[master_seed, m_index, trial, restart, ROLE_INIT]).point


def _meas_seed(cfg: ExperimentConfig, m_index: int, trial: int) -> int:
    return flatten_seed([cfg.master_seed, m_index, trial, ROLE_MEAS])


def _cpu_count() -> int:
    """The CPUs this process may run on (os.sched_getaffinity, so `taskset`
    limits them)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@dataclass
class PreparedCell:
    """An (m, trial) cell ready for its solves: the data, prior and spectral
    matrix they read, the n-space spectral start w0, and the basis of a
    linear-subspace cell's k+1 coordinates (None for an n-space cell)."""
    data: MeasurementSet
    prior: GenerativePrior
    spec: SpectralMatrix
    w0: np.ndarray
    basis: np.ndarray | None


def prepare_cell(cfg: ExperimentConfig, prior: GenerativePrior, m_index: int, trial: int,
                 drawn: list | None = None) -> PreparedCell:
    """Draw a cell's signal and measurements (from the pair that the last
    future in `drawn`, when given, drew for the cell), take w0 once from the
    data and build its one spectral matrix, V with the stack [G; M] its
    refinement and APPGD steps read.  A linear-subspace cell is reduced to
    k+1 coordinates (spectral.reduce_to_subspace) and its n-space A freed
    before the build, which is on the reduced data; a relu-mlp cell keeps
    its n-space data, which APPGD's A x reads, and builds on it."""
    x = draw_signal(prior, cfg.master_seed, m_index, trial)
    # the pair is only an argument of this call, so data alone holds the A
    data = sample_measurements(_link(cfg), x, cfg.m_grid[m_index],
                               _meas_seed(cfg, m_index, trial),
                               gaussians=drawn.pop().result() if drawn else None)
    w0 = initial_vector(shifted_matrix(data))
    solve_prior, basis = prior, None
    if prior.kind == "linear-subspace":
        # rebinding data drops the n-space A, which no solve reads
        reduced = reduce_to_subspace(data, prior, w0)
        data, solve_prior, basis = reduced.data, reduced.prior, reduced.basis
    return PreparedCell(data, solve_prior, build_spectral_matrix(data), w0, basis)


@_one_blas_thread()
def run_restarts(cfg: ExperimentConfig, prior: GenerativePrior, cell: PreparedCell,
                 m_index: int, trial: int) -> dict:
    """Run each algorithm of the config from each _restart_start on a
    prepared cell.  In a linear-subspace cell each start enters as basis^T
    start and each final_iterate is mapped back to n-space.  Runs with
    OpenBLAS pinned to one thread, as run_algorithm does, so the projections
    of the random restart starts are pinned too.  Returns {algorithm:
    [RunTrace per restart]} in config order."""
    traces = {algo: [] for algo in cfg.algorithms}
    for algo_index, algo in enumerate(cfg.algorithms):
        for restart in range(cfg.restarts):
            start = _restart_start(prior, cell.spec, cell.w0, cfg.master_seed, m_index, trial,
                                   restart)
            trace = run_algorithm(
                algo, cell.data, cell.prior, t1=cfg.t1, t2=cfg.t2, proj_cfg=cfg.projection,
                tau=cfg.tau, spec=cell.spec,
                w0_override=start if cell.basis is None else start @ cell.basis,
                seed=flatten_seed([cfg.master_seed, m_index, trial, restart,
                                   ROLE_ALGO + algo_index]))
            if cell.basis is not None:
                trace.final_iterate = cell.basis @ trace.final_iterate
            traces[algo].append(trace)
    return traces


def solve_cell(cfg: ExperimentConfig, prior: GenerativePrior, m_index: int, trial: int) -> dict:
    """Solve one (m, trial) cell of a validated config, drawing its own
    Gaussians: prepare_cell, then run_restarts.  A relu-mlp cell frees its
    A and V on return.  Returns {algorithm: [RunTrace per restart]} in
    config order."""
    return run_restarts(cfg, prior, prepare_cell(cfg, prior, m_index, trial), m_index, trial)


def oracle_restart(traces) -> int:
    """The restart rule of a sweep: the index of the trace with the smallest
    final_error, the lowest index on a tie.  final_error is the distance to
    the true signal, so this rule reads the ground truth (oracle selection):
    it reports the best restart, not one a user without x could pick."""
    return min(range(len(traces)), key=lambda restart: traces[restart].final_error)


def run_experiment(cfg: ExperimentConfig) -> SweepResult:
    """Full sweep: solve every (m, trial) cell, in order, and report, per
    (m, algorithm, trial), the restart that oracle_restart picks; then
    aggregate over trials and fit the log-log slopes.  The rows are those
    of solve_cell cell by cell, also where a linear-subspace sweep draws
    each next cell's Gaussians on a worker thread (module docstring)."""
    validate_config(cfg)
    prior = build_prior(cfg)
    cells = [(m_index, trial) for m_index in range(len(cfg.m_grid))
             for trial in range(cfg.trials)]
    pool, drawn, rows = None, [], []
    if prior.kind == "linear-subspace" and len(cells) > 1 and _cpu_count() > 1:
        from concurrent.futures import ThreadPoolExecutor   # kept out of import genphase
        pool = ThreadPoolExecutor(1, "genphase-draw")
    try:
        for i, (m_index, trial) in enumerate(cells):
            # the first cell draws its own Gaussians, the worker every later one's
            cell = prepare_cell(cfg, prior, m_index, trial, drawn)
            if pool is not None and i + 1 < len(cells):
                # the reduction has freed this cell's n-space A
                m_next, trial_next = cells[i + 1]
                m = cfg.m_grid[m_next]
                drawn.append(pool.submit(draw_gaussians, _meas_seed(cfg, m_next, trial_next), m,
                                         prior.n, (np.empty((m, prior.n)), np.empty(m))))
            traces = run_restarts(cfg, prior, cell, m_index, trial)
            cell = None   # a relu-mlp cell's A, before the next cell draws its own
            for algo, algo_traces in traces.items():
                best = oracle_restart(algo_traces)
                rows.append({"m": cfg.m_grid[m_index], "algorithm": algo, "trial": trial,
                             "restart": best, "final_error": algo_traces[best].final_error})
    finally:
        if pool is not None:
            pool.shutdown()
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


def trial_row_problems(row) -> list:
    """The rule on a per-trial sweep row (keys m, algorithm, trial, restart,
    final_error), as a list of problems: integers m >= 1, trial >= 0 and
    restart >= 0, and a finite final_error >= 0."""
    ok = is_integer(row["m"]) and row["m"] >= 1 and \
        all(is_integer(row[key]) and row[key] >= 0 for key in ("trial", "restart")) and \
        is_finite_number(row["final_error"]) and row["final_error"] >= 0
    return [] if ok else ["a per-trial row needs integers m >= 1, trial >= 0 and restart >= 0 "
                          f"and a finite final_error >= 0, got {row!r}"]


# The rule each block's rows keep, which read_sweep_csv checks.
_ROW_RULES = dict(zip(_SWEEP_BLOCKS, (trial_row_problems, aggregate_problems)))


def write_sweep_csv(result: SweepResult, path) -> None:
    """Write the sweep CSV, or raise a ConfigurationError and write nothing
    when a row breaks its block's rule, which read_sweep_csv would refuse."""
    if not result.rows:
        raise ConfigurationError("empty sweep result; nothing to write")
    blocks = list(zip(_SWEEP_BLOCKS.items(), (result.rows, result.aggregates)))
    raise_problems([problem for (header, _), block in blocks for row in block
                    for problem in _ROW_RULES[header](row)], f"cannot write sweep CSV {path}:")
    with open(path, "w") as fh:
        for (header, kinds), block in blocks:
            fh.write(header + "\n")
            for r in block:
                fh.write(",".join(format_cell(r[key]) if kind is float else str(r[key])
                                  for key, kind in zip(header.split(","), kinds)) + "\n")


def read_sweep_csv(path):
    """Parse a sweep CSV back into (rows, aggregates).  A line that does not
    fit the block it is in, or breaks the block's row rule
    (trial_row_problems, svg.aggregate_problems), is a ConfigurationError."""
    blocks = {header: [] for header in _SWEEP_BLOCKS}
    header = None
    with open(path, errors="replace") as fh:
        for line in fh:
            line = line.strip()
            if line in blocks:
                header = line
            elif line:
                try:   # strict: a cell too many or too few is a ValueError too
                    if header is None:
                        raise ValueError("no block header before it; a sweep CSV starts with "
                                         f"the line {next(iter(_SWEEP_BLOCKS))}")
                    values = [kind(cell) for kind, cell in
                              zip(_SWEEP_BLOCKS[header], line.split(","), strict=True)]
                    row = dict(zip(header.split(","), values))
                    raise_problems(_ROW_RULES[header](row))
                except ValueError as exc:   # a ConfigurationError too
                    raise ConfigurationError(f"malformed sweep CSV line in {path}: "
                                             f"{line!r}: {exc}") from None
                blocks[header].append(row)
    rows, aggregates = blocks.values()
    if not rows and not aggregates:
        raise ConfigurationError(f"no sweep data found in {path}")
    return rows, aggregates


def emit_outputs(result: SweepResult, fmt: str, path) -> Path:
    """Write the sweep result as `csv` or `svg`.  Errors out (writing
    nothing) on an empty result or on a row its reader would refuse: a CSV
    row that breaks its block's rule (trial_row_problems,
    svg.aggregate_problems) or an SVG aggregate row that breaks the latter."""
    path = Path(path)
    if fmt == "csv":
        write_sweep_csv(result, path)
    elif fmt == "svg":
        render_sweep_svg(result.aggregates, path)
    else:
        raise ConfigurationError(f"unknown output format {fmt!r}")
    return path
