"""Normalized generative priors G: B^k(r) -> S^{n-1} and projection onto Range(G).

Two prior families are provided: a linear subspace with an orthonormal basis
(admits a closed-form projector) and a random ReLU MLP with zero-mean Gaussian
weights and no bias terms.  Each prior records a Lipschitz proxy, the L in
the recovery rate sqrt(k log L log m / m).

The iterative projector minimizes ||G(z) - v||^2 over the latent ball by
adaptive-moment gradient descent with restarts, using exact backpropagation
through the layers and the output normalization.  Restart 0 starts from a
scaled Gaussian latent or, with latent_init="warm-start", from a given one.

The projector runs hundreds of thousands of steps per sweep, so each step
works in hidden space.  The last layer W_L is linear and the output is
normalized, so c = W_L^T v, v^T v and Q = W_L^T W_L, prepared once per
projection, give the loss and its gradient from the last hidden activation
alone (projection_loss_grad); G(z) is formed only for the kept latent.  A
step then costs O(h_L^2) for the last hidden width h_L instead of O(n h_L),
which is cheaper unless h_L is well above n: at (k, hidden, n) =
(5, [32], 100) a 120-step projection takes about 2.3 ms against 3.0 ms
through the output, at (5, [512], 100) 13 ms against 6 ms.  No shipped
config has such a wide last layer.

The per-step arithmetic is written for few numpy dispatches, and its order
is pinned bit for bit (tests/test_priors.py keeps a plain-numpy reference).
A vector norm is sqrt(x.dot(x)), numpy's own formula for np.linalg.norm;
products use .dot.  The Adam moments are Python floats updated with the
same IEEE operations in the same order as array code, because k is small: a
whole projection is faster that way up to k = 20 and slower from about
k = 50 on.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateLatentError, NumericalError, \
    ProjectionFailureError, count_problems, is_finite_number, is_integer, raise_problems, \
    seed_key_problems, seed_problems
from .seeds import flatten_seed


@dataclass
class GenerativePrior:
    kind: str                 # "linear-subspace" | "relu-mlp"
    k: int
    n: int
    r: float                  # None at construction means default_radius(k)
    layers: list              # weight matrices, each of shape (fan_out, fan_in)
    activation: str           # "relu" | "none"
    seed: int
    lipschitz_proxy: float

    def __post_init__(self):
        if self.r is None:
            self.r = default_radius(self.k)


def default_radius(k: int) -> float:
    # Large enough that the latent-ball constraint is rarely active.
    return 10.0 * math.sqrt(k)


def prior_problems(kind, k, n, r, hidden, seed) -> list:
    """One line per field of a prior that breaks its rule: a known kind,
    integers 1 <= k < n, a latent radius that is None (the default) or a
    finite positive number, a list or tuple of integer hidden widths >= 1,
    and the seed rule."""
    known = kind in ("linear-subspace", "relu-mlp")
    problems = [] if known else [f"kind: unknown kind {kind!r}"]
    if not (is_integer(k) and is_integer(n) and 1 <= k < n):
        problems.append(f"k: k and n must be integers with 1 <= k < n, got k={k!r}, n={n!r}")
    if not (r is None or is_finite_number(r) and r > 0):
        problems.append(f"r: the latent radius must be a finite positive number, got {r!r}")
    if not (isinstance(hidden, (list, tuple)) and all(is_integer(w) and w >= 1 for w in hidden)):
        problems.append(f"hidden: must be a list of integer widths >= 1, got {hidden!r}")
    return problems + seed_problems(seed)


def _lipschitz_proxy(layers) -> float:
    """Product of the layers' exact spectral norms (largest singular values):
    an upper bound on the Lipschitz constant of the unnormalized network,
    since ReLU is 1-Lipschitz."""
    return float(math.prod(np.linalg.norm(w, 2) for w in layers))


def linear_subspace_prior(k: int, n: int, r: float | None = None, seed: int = 0) -> GenerativePrior:
    """Random k-dimensional subspace of R^n with orthonormalized basis."""
    raise_problems(prior_problems("linear-subspace", k, n, r, (), seed))
    rng = np.random.default_rng(seed)
    w, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return GenerativePrior("linear-subspace", k, n, r, [w], "none", seed, _lipschitz_proxy([w]))


def relu_mlp_prior(k: int, hidden, n: int, r: float | None = None, seed: int = 0) -> GenerativePrior:
    """ReLU MLP with no bias terms and zero-mean Gaussian weights of variance
    1/fan-in.  ReLU is applied after every layer except the last.  An empty
    (or None) hidden gives one hidden layer of width max(4k, 16)."""
    hidden = () if hidden is None else hidden
    raise_problems(prior_problems("relu-mlp", k, n, r, hidden, seed))
    dims = [k, *(hidden or (max(4 * k, 16),)), n]
    rng = np.random.default_rng(seed)
    layers = [rng.standard_normal((dims[i + 1], dims[i])) / math.sqrt(dims[i])
              for i in range(len(dims) - 1)]
    return GenerativePrior("relu-mlp", k, n, r, layers, "relu", seed, _lipschitz_proxy(layers))


def clip_to_ball(z, r: float):
    nz = math.sqrt(z.dot(z))
    if nz > r:
        return z * (r / nz)
    return z


def _hidden(prior: GenerativePrior, z):
    """Forward pass through every layer but the last.  Returns the last
    hidden activation (z itself for a one-layer prior) and the hidden
    pre-activations, which backprop needs for the ReLU masks."""
    a = z
    pres = []
    for w in prior.layers[:-1]:
        pre = w.dot(a)
        pres.append(pre)
        a = np.maximum(pre, 0.0) if prior.activation == "relu" else pre
    return a, pres


def evaluate(prior: GenerativePrior, z):
    """G(z): forward pass then division by the l2 norm.  Latents outside the
    ball are radially clipped first."""
    z = clip_to_ball(np.asarray(z, dtype=float), prior.r)
    a, _ = _hidden(prior, z)
    h = prior.layers[-1].dot(a)
    nh = math.sqrt(h.dot(h))
    if nh == 0:
        raise DegenerateLatentError("latent maps to the zero vector")
    return h / nh


@dataclass(frozen=True)
class _HiddenTarget:
    """A projection target t seen from the last hidden layer, for a last
    layer W_L: c = W_L^T t, tt = t^T t and q = W_L^T W_L."""
    c: np.ndarray
    tt: float
    q: np.ndarray


def _hidden_target(prior: GenerativePrior, target) -> _HiddenTarget:
    w = prior.layers[-1]
    t = np.asarray(target, dtype=float)
    return _HiddenTarget(c=t.dot(w), tt=float(t.dot(t)), q=w.T.dot(w))


def projection_loss_grad(prior: GenerativePrior, z, target):
    """Loss ||G(z) - target||^2 and its gradient w.r.t. z, by exact backprop.

    The last layer is linear and the output is normalized, so with a the
    last hidden activation, c = W_L^T target, Q = W_L^T W_L and
    nh^2 = a^T Q a, the loss is 1 - 2 a^T c / nh + target^T target and its
    gradient w.r.t. a is (2 / nh) ((a^T c / nh^2) Q a - c): no n-vector is
    formed.  target is an n-vector or the _HiddenTarget that
    project_iterative prepares once per call; a vector is prepared here.
    A loss that rounds below zero (target in the range) is returned as 0."""
    if not isinstance(target, _HiddenTarget):
        target = _hidden_target(prior, target)
    a, pres = _hidden(prior, z)
    qa = target.q.dot(a)
    nh2 = float(a.dot(qa))
    if nh2 <= 0:
        raise DegenerateLatentError("latent maps to the zero vector")
    nh = math.sqrt(nh2)
    ac = float(a.dot(target.c))
    loss = max(1.0 - 2.0 * ac / nh + target.tt, 0.0)
    g = (qa * (ac / nh2) - target.c) * (2.0 / nh)
    for l in range(len(pres) - 1, -1, -1):
        if prior.activation == "relu":
            g = g * (pres[l] > 0.0)
        g = g.dot(prior.layers[l])     # W^T g: the same gemv as W.T @ g
    return loss, g


@dataclass
class ProjectionConfig:
    steps: int = 200
    learning_rate: float = 0.05
    restarts: int = 1
    latent_init: str = "gaussian"   # "gaussian" | "warm-start"

    def __post_init__(self):
        problems = count_problems(self.steps, "projection.steps", 1) + \
            count_problems(self.restarts, "projection.restarts", 1)
        if not (is_finite_number(self.learning_rate) and self.learning_rate > 0):
            problems.append(f"projection.learning_rate: must be a finite positive number, "
                            f"got {self.learning_rate!r}")
        if self.latent_init not in ("gaussian", "warm-start"):
            problems.append(f"projection.latent_init: unknown value {self.latent_init!r}")
        raise_problems(problems)


@dataclass
class ProjectionResult:
    point: np.ndarray
    latent: np.ndarray
    objective: float
    restart_index: int


def project_exact(prior: GenerativePrior, v) -> ProjectionResult:
    """Closed-form projection onto the range of a linear-subspace prior:
    the normalized orthogonal projection W W^T v.  When W W^T v = 0 the
    deterministic fallback is the first basis column."""
    if prior.kind != "linear-subspace":
        raise ConfigurationError("project_exact requires a linear-subspace prior")
    v = _finite_target(v)
    w = prior.layers[0]
    c = v.dot(w)
    p = w.dot(c)
    np_ = math.sqrt(p.dot(p))
    if np_ == 0:
        point = w[:, 0].copy()
        latent = np.zeros(prior.k)
        latent[0] = min(1.0, prior.r)
    else:
        point = p / np_
        latent = clip_to_ball(c, prior.r)
    d = point - v
    return ProjectionResult(point=point, latent=latent, objective=math.sqrt(d.dot(d)),
                            restart_index=0)


def project_iterative(prior: GenerativePrior, v, cfg: ProjectionConfig,
                      seed=0, warm_start=None) -> ProjectionResult:
    """Latent-space descent on ||G(z) - v||^2 with restarts.

    Each restart runs cfg.steps adaptive-moment updates (decay 0.9/0.999,
    epsilon 1e-8), radially clipping z to the latent ball after every update.
    The best objective across restarts wins, ties broken by lowest restart
    index.  Restart 0 may start from warm_start; later restarts always draw a
    fresh scaled-Gaussian latent.
    """
    raise_problems(seed_key_problems(seed))
    v = _finite_target(v)
    if not np.any(v):
        raise ConfigurationError("projection target must be nonzero")
    target = _hidden_target(prior, v)
    key = flatten_seed(seed)
    lr = cfg.learning_rate
    best = None
    for restart in range(cfg.restarts):
        rng = np.random.default_rng([key, restart])
        if restart == 0 and cfg.latent_init == "warm-start" and warm_start is not None:
            z = np.array(warm_start, dtype=float)
        else:
            z = 0.1 * rng.standard_normal(prior.k)
        z = clip_to_ball(z, prior.r)
        m1 = [0.0] * prior.k
        m2 = [0.0] * prior.k
        restart_best = None
        try:
            # Every z is a new array that nothing writes to, so keeping it
            # needs no copy.
            for step in range(cfg.steps):
                loss, grad = projection_loss_grad(prior, z, target)
                obj = math.sqrt(loss)
                if restart_best is None or obj < restart_best[0]:
                    restart_best = (obj, z)
                c1 = 1.0 - 0.9 ** (step + 1)
                c2 = 1.0 - 0.999 ** (step + 1)
                z_next = []
                for i, (x, g) in enumerate(zip(z.tolist(), grad.tolist())):
                    m1[i] = mi = 0.9 * m1[i] + 0.1 * g
                    m2[i] = vi = 0.999 * m2[i] + 0.001 * g * g
                    z_next.append(x - lr * (mi / c1) / (math.sqrt(vi / c2) + 1e-8))
                z = clip_to_ball(np.array(z_next), prior.r)
            loss, _ = projection_loss_grad(prior, z, target)
            obj = math.sqrt(loss)
            if obj < restart_best[0]:
                restart_best = (obj, z)
        except DegenerateLatentError:
            if restart_best is None:
                continue
        obj, z_best = restart_best
        if best is None or obj < best.objective:
            best = ProjectionResult(point=evaluate(prior, z_best), latent=z_best,
                                    objective=obj, restart_index=restart)
    if best is None:
        raise ProjectionFailureError("all projection restarts hit degenerate latents")
    return best


def _finite_target(v):
    v = np.asarray(v, dtype=float)
    if not np.isfinite(v).all():
        raise NumericalError("projection target contains NaN or Inf")
    return v


def project(prior: GenerativePrior, v, cfg: ProjectionConfig | None = None,
            seed=0, warm_start=None) -> ProjectionResult:
    """Dispatch to the exact projector when available, else the iterative one."""
    if prior.kind == "linear-subspace":
        return project_exact(prior, v)
    return project_iterative(prior, v, cfg or ProjectionConfig(), seed=seed,
                             warm_start=warm_start)


# ---------------------------------------------------------------------------
# Model files: JSON with kind, dims, radius, seed, activation and the raw
# weight arrays.  Loading reproduces evaluate() bit-identically from the
# stored weights (they are not re-derived from the seed).
# ---------------------------------------------------------------------------

def save_prior(prior: GenerativePrior, path) -> None:
    doc = {
        "kind": prior.kind,
        "k": int(prior.k),
        "n": int(prior.n),
        "r": prior.r,
        "seed": int(prior.seed),
        "activation": prior.activation,
        "lipschitz_proxy": prior.lipschitz_proxy,
        "layers": [[[float(v) for v in row] for row in w] for w in prior.layers],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_prior(path) -> GenerativePrior:
    """Read a model file.  A file that is not JSON or lacks a key, breaks a
    prior_problems rule (its hidden widths are the layers' fan-ins after the
    first), pairs kind and activation wrongly, has a non-finite Lipschitz
    proxy or layers that do not map k to n is a ConfigurationError; a NaN or
    Inf weight is a NumericalError."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        layers = [np.array(w, dtype=float) for w in doc["layers"]]
        kind, k, n, r, seed = (doc[key] for key in ("kind", "k", "n", "r", "seed"))
        activation, lipschitz_proxy = doc["activation"], doc["lipschitz_proxy"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed model file {path}: {exc!r}") from exc
    problems = prior_problems(kind, k, n, r, [w.shape[1] for w in layers[1:] if w.ndim == 2],
                              seed)
    if (kind, activation) not in (("linear-subspace", "none"), ("relu-mlp", "relu")) \
            or (kind == "linear-subspace" and len(layers) != 1):
        problems.append(f"kind {kind!r}, activation {activation!r} and {len(layers)} layer(s) "
                        "is not a prior; need linear-subspace with activation none and one "
                        "layer, or relu-mlp with relu")
    if not is_finite_number(lipschitz_proxy):
        problems.append(f"lipschitz_proxy {lipschitz_proxy!r} is not a finite number")
    raise_problems(problems, f"malformed model file {path}:")
    dims = [k] + [w.shape[0] if w.ndim == 2 else -1 for w in layers]
    if not layers or dims[-1] != n or \
            any(w.shape != (out, fan_in) for w, fan_in, out in zip(layers, dims, dims[1:])):
        raise ConfigurationError(f"malformed model file {path}: layers do not map k to n")
    if not all(np.isfinite(w).all() for w in layers):
        raise NumericalError(f"model file {path} has a NaN or Inf weight")
    return GenerativePrior(kind, k, n, r, layers, activation, seed, lipschitz_proxy)
