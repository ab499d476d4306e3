"""Link functions and measurement sampling for the single index model y = f(a^T x).

A link is a scalar function of g = a^T x with Gaussian noise eta.  Every link
is a sum of scalar primitives with coefficients, f(g) = sum_p c_p prim_p(g),
plus eta.  The built-in links cover the magnitude-only and squared measurement
models and their perturbed variants; a custom link takes its coefficients
from LinkModel.params.  Noise is added outside f, except for abs-noise-in,
which is |g + eta|.

sample_measurements forms A x under the OpenBLAS one-thread pin
(priors._one_blas_thread): a product split across threads can change its
bits with the thread count.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, NumericalError, count_problems, is_finite_number, \
    is_integer, raise_problems, seed_key_problems, seed_problems
from .priors import _one_blas_thread, vector_norm
from .runtrace import format_cell

# Scalar primitives prim_p(g) that every link is a weighted sum of.
PRIMITIVES = {
    "identity": lambda g: g,
    "abs": np.abs,
    "square": np.square,
    "tanh-abs": lambda g: np.tanh(np.abs(g)),
    "sin-abs": lambda g: np.sin(np.abs(g)),
}

# Built-in links as {primitive: coefficient}; terms are summed in this order.
BUILTIN_LINKS = {
    "abs-noise-out": {"abs": 1.0},                    # |g| + eta
    "abs-noise-in": {"abs": 1.0},                     # |g + eta|
    "square-noise": {"square": 1.0},                  # g^2 + eta
    "abs-tanh": {"abs": 1.0, "tanh-abs": 2.0},        # |g| + 2 tanh(|g|) + eta
    "square-sin": {"square": 2.0, "sin-abs": 3.0},    # 2 g^2 + 3 sin(|g|) + eta
    "linear": {"identity": 1.0},                      # g + eta
}

# (nu, mean_y) closed forms registered where derivable.
_ANALYTIC_MOMENTS = {
    "linear": (0.0, 0.0),        # Cov[g, g^2] = E[g^3] = 0
    "square-noise": (2.0, 1.0),  # Var(g^2) = 2, E[g^2] = 1
}


@dataclass(frozen=True)
class LinkModel:
    """A named link function with noise level sigma."""

    name: str
    sigma: float = 0.0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        problems = []
        if not (is_finite_number(self.sigma) and self.sigma >= 0):
            problems.append(f"link.sigma: must be a finite nonnegative number, got {self.sigma!r}")
        if not isinstance(self.name, str) or \
                self.name not in BUILTIN_LINKS and self.name != "custom":
            problems.append(f"link.name: unknown link {self.name!r}")
        elif not isinstance(self.params, dict):
            problems.append(f"link.params: expected a map primitive->coefficient, "
                            f"got {self.params!r}")
        elif self.name == "custom":
            bad = [k for k in self.params if k not in PRIMITIVES]
            if bad:
                problems.append(f"link.params: unknown custom-link primitives {bad}; "
                                f"known: {sorted(PRIMITIVES)}")
            bad = {k: c for k, c in self.params.items() if not is_finite_number(c)}
            if bad:
                problems.append(f"link.params: coefficients must be finite numbers, got {bad}")
        elif self.params:
            problems.append(f"link.params: only the custom link takes params; the built-in "
                            f"link {self.name!r} got {sorted(self.params)}")
        raise_problems(problems)


def apply_link(link: LinkModel, g, eta):
    """Evaluate y = f(g) with the noise realization eta injected where the
    formula dictates (inside the absolute value for abs-noise-in, additively
    otherwise).  Works elementwise on arrays.  A value that is not finite
    (a link term that overflows) is a NumericalError naming the link."""
    if link.name == "abs-noise-in":
        g, eta = g + eta, 0.0
    terms = link.params if link.name == "custom" else BUILTIN_LINKS[link.name]
    out = np.zeros_like(np.asarray(g, dtype=float))
    for prim, coeff in terms.items():
        out = out + coeff * PRIMITIVES[prim](g)
    out = out + eta
    if not np.isfinite(out).all():
        raise NumericalError(f"link {link.name!r} (sigma {link.sigma!r}, params {link.params}) "
                             f"gives an observation that is not finite")
    return out


@dataclass
class MeasurementSet:
    """m measurement pairs (a_i, y_i) with the ground-truth unit signal."""

    n: int
    m: int
    signal: np.ndarray
    sensing: np.ndarray       # shape (m, n)
    observations: np.ndarray  # shape (m,)
    seed: int
    link: LinkModel


def measurement_problems(m, n, seed, signal, source="the measurement set") -> list:
    """One line per field of a measurement set that breaks its rule: integers
    m >= 1 and n, the seed rule, and a unit signal of length n.  A NaN or Inf
    signal entry, which the norm test lets through, is a NumericalError."""
    if not np.isfinite(signal).all():
        raise NumericalError(f"{source} has a NaN or Inf signal entry")
    ok = is_integer(m) and is_integer(n) and m >= 1
    problems = [] if ok else [f"m: m and n must be integers with m >= 1, got m={m!r}, n={n!r}"]
    if signal.shape != (n,) or abs(vector_norm(signal) - 1.0) > 1e-12:
        problems.append(f"signal: must be a unit vector of length n={n!r}")
    return problems + seed_problems(seed)


def empty_problems(data: MeasurementSet) -> list:
    """The rule that a measurement set holds at least one measurement, which
    every mean over it divides by, as a list of problems."""
    return [] if data.m >= 1 else ["need at least one measurement"]


def draw_gaussians(seed: int, m: int, n: int, out=None) -> tuple:
    """The standard Gaussians of a measurement set, from one generator seeded
    with seed: the m x n sensing matrix A, then m standard noise values.
    Given out = (sensing, noise), two float64 C-order arrays of those
    shapes, fills and returns them, with the same bits."""
    pair = (np.empty((m, n)), np.empty(m)) if out is None else out
    rng = np.random.default_rng(seed)
    for gaussians in pair:
        rng.standard_normal(out=gaussians)
    return pair


def sample_measurements(link: LinkModel, signal, m: int, seed: int, *,
                        gaussians=None) -> MeasurementSet:
    """Draw m i.i.d. standard Gaussian sensing rows and the matching noisy
    observations, fully reproducible from the seed.  The Gaussians are
    draw_gaussians(seed, m, n); gaussians, when given, must be that pair,
    drawn in advance, and its sensing array becomes the set's A.  A pair of
    other shapes or dtype is a ConfigurationError naming gaussians.  A x
    is formed with OpenBLAS pinned to one thread, so y has the same bits at
    any thread count."""
    signal = np.asarray(signal, dtype=float)
    n = signal.size
    problems = measurement_problems(m, n, seed, signal)
    if gaussians is not None and not (
            isinstance(gaussians, tuple) and len(gaussians) == 2
            and all(isinstance(g, np.ndarray) and g.dtype == np.float64 and g.shape == shape
                    for g, shape in zip(gaussians, ((m, n), (m,))))):
        problems.append(f"gaussians: must be a pair of float64 arrays of shapes ({m!r}, {n}) "
                        f"and ({m!r},)")
    raise_problems(problems)
    sensing, noise = draw_gaussians(seed, m, n) if gaussians is None else gaussians
    eta = link.sigma * noise
    with _one_blas_thread():
        g = sensing @ signal
    y = np.asarray(apply_link(link, g, eta), dtype=float)
    return MeasurementSet(n=n, m=m, signal=signal, sensing=sensing,
                          observations=y, seed=seed, link=link)


@dataclass
class MomentReport:
    nu: float
    mean_y: float
    subexp_norm_proxy: float
    mc_samples: int
    mc_stderr: float


def _draw_y(link, mc_samples, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(mc_samples)
    eta = link.sigma * rng.standard_normal(mc_samples)
    return g, np.asarray(apply_link(link, g, eta), dtype=float)


def _subexp_proxy(y) -> float:
    """Finite-p proxy for the sub-exponential norm of y: the maximum over
    p in {1..8} of p^-1 (E|y|^p)^(1/p).  Diagnostic only; never used in
    algorithm control flow."""
    ay = np.abs(y)
    return max(np.mean(ay**p) ** (1.0 / p) / p for p in range(1, 9))


def population_nu(link: LinkModel, mc_samples: int = 10**6, seed: int = 0) -> MomentReport:
    """Estimate nu = Cov[f(g), g^2] for g ~ N(0,1), noise included.

    Uses registered closed forms for the linear and square-noise links
    (stderr reported as 0); otherwise a seeded Monte Carlo estimate with its
    standard error.  The sub-exponential proxy is always Monte Carlo, so every
    link needs an integer mc_samples >= 1e4.
    """
    raise_problems(count_problems(mc_samples, "mc_samples", 10**4) + seed_key_problems(seed))
    analytic = _ANALYTIC_MOMENTS.get(link.name)
    g, y = _draw_y(link, mc_samples, seed)
    proxy = _subexp_proxy(y)
    if analytic is not None:
        nu, mean_y = analytic
        return MomentReport(nu=nu, mean_y=mean_y, subexp_norm_proxy=proxy,
                            mc_samples=mc_samples, mc_stderr=0.0)
    g2 = g * g
    prod = (y - y.mean()) * (g2 - g2.mean())
    nu = float(prod.mean())
    stderr = float(prod.std(ddof=1) / math.sqrt(mc_samples))
    return MomentReport(nu=nu, mean_y=float(y.mean()), subexp_norm_proxy=proxy,
                        mc_samples=mc_samples, mc_stderr=stderr)


# ---------------------------------------------------------------------------
# Serialization: CSV with header y,a_1,...,a_n plus a JSON metadata sidecar.
# 17 significant digits round-trips float64 exactly.
# ---------------------------------------------------------------------------

def meta_path_for(csv_path) -> Path:
    return Path(str(csv_path) + ".meta.json")


def save_measurements(data: MeasurementSet, csv_path) -> None:
    csv_path = Path(csv_path)
    with open(csv_path, "w") as fh:
        fh.write("y," + ",".join(f"a_{j + 1}" for j in range(data.n)) + "\n")
        for i in range(data.m):
            cells = [data.observations[i], *data.sensing[i]]
            fh.write(",".join(map(format_cell, cells)) + "\n")
    meta = {
        "n": int(data.n),
        "m": int(data.m),
        "seed": int(data.seed),
        "link": {"name": data.link.name, "sigma": data.link.sigma,
                 "params": dict(data.link.params)},
        "signal": [format_cell(v) for v in data.signal],
    }
    with open(meta_path_for(csv_path), "w") as fh:
        json.dump(meta, fh, indent=1)


def load_measurements(csv_path) -> MeasurementSet:
    """Read a CSV and its metadata sidecar.  Metadata that is not JSON or
    lacks a key, a CSV cell that is not a number, a measurement_problems
    rule broken or a CSV shape that does not match the metadata are a
    ConfigurationError; a NaN or Inf observation, sensing entry or signal
    entry is a NumericalError."""
    csv_path = Path(csv_path)
    try:
        with open(meta_path_for(csv_path)) as fh:
            meta = json.load(fh)
        link = LinkModel(name=meta["link"]["name"], sigma=meta["link"]["sigma"],
                         params=meta["link"]["params"])
        n, m, seed = meta["n"], meta["m"], meta["seed"]
        signal = np.array([float(v) for v in meta["signal"]])
        raw = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed measurement file {csv_path}: {exc!r}") from exc
    y, sensing = raw[:, 0], raw[:, 1:]
    source = f"measurement file {csv_path}"
    problems = measurement_problems(m, n, seed, signal, source)
    if sensing.shape != (m, n):
        problems.append(f"CSV shape {sensing.shape} does not match metadata (m={m}, n={n})")
    raise_problems(problems, f"malformed {source}:")
    for what, values in (("observation", y), ("sensing entry", sensing)):
        if not np.isfinite(values).all():
            raise NumericalError(f"{source} has a NaN or Inf {what}")
    return MeasurementSet(n=n, m=m, signal=signal, sensing=sensing,
                          observations=y, seed=seed, link=link)
