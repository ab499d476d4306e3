"""Normalized generative priors G: B^k(r) -> S^{n-1} and projection onto Range(G).

Two prior families are provided: a linear subspace with an orthonormal basis
(admits a closed-form projector) and a random ReLU MLP with zero-mean Gaussian
weights and no bias terms.  Each prior records a Lipschitz proxy, the L in
the recovery rate sqrt(k log L log m / m).

The iterative projector minimizes ||G(z) - v||^2 over the latent ball by
adaptive-moment gradient descent with restarts, using the exact gradient
through the layers and the output normalization.  Restart 0 starts from a
scaled Gaussian latent or, with latent_init="warm-start", from a given one.

The projector runs hundreds of thousands of steps per sweep, so each step
works in latent space.  A ReLU network is linear on each activation region:
where the hidden layers' ReLU masks are D_1, ..., D_{L-1}, the last hidden
activation is a = J z with J = D_{L-1} W_{L-1} ... D_1 W_1.  The last layer
W_L is linear and the output is normalized, so with c = W_L^T v, v^T v and
Q = W_L^T W_L, prepared once per projection, the loss and its gradient need
only S = [J^T Q J ; (J^T c)^T], (k+1) x k, for the pattern of masks at z
(projection_loss_grad).  Each projection keeps the S of every pattern its
iterates meet, keyed by the masks' bytes, so a step costs a forward pass
for the masks and O(k^2) once its pattern is cached; G(z) is formed only
for the kept latent.  Building S from Q costs O(h_L^2 k) for the last
hidden width h_L, and from P = W_L J it would cost O(n h_L k); Q measured
as fast or faster at every shape below but the last.  Per 120-step projection to a
near-range target, the time against evaluating each step in hidden space
(O(h_L^2) with Q, then backprop through the hidden layers) was 0.89x at
(k, hidden, n) = (5, [32], 100), 0.90x at (10, [40], 1000), 0.87x at
(5, [16, 24], 50) and 1.57x at (5, [512], 100).  No shipped config has
such a wide last layer.

The per-step arithmetic is written for few numpy dispatches, and its order
is pinned bit for bit (tests/test_priors.py keeps a plain-numpy reference).
A vector norm is sqrt(x.dot(x)), numpy's own formula for np.linalg.norm
(vector_norm, which rescales x when x.x overflows), except in the clip
after an Adam step, which sums the squares in index order as it forms the
step; products use .dot.  The latent, the Adam moments and the gradient
are Python floats, updated with the same IEEE operations in the same order
as array code, because k is small; each step builds one array of the latent
for the forward pass and the products S z and z.u[:k].  Against the same
steps on arrays, a whole 120-step projection (hidden width 4k, n = 100, one
BLAS thread) took 0.60x the time at k = 5, 0.70x at k = 10, about the same
at k = 20 and 1.05x at k = 50, where building S for the patterns met takes
most of it.
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
    kind: str                 # a key of PRIOR_KINDS
    k: int
    n: int
    r: float                  # None at construction means default_radius(k)
    layers: list              # weight matrices, each of shape (fan_out, fan_in)
    seed: int
    lipschitz_proxy: float

    def __post_init__(self):
        if self.r is None:
            self.r = default_radius(self.k)


def default_radius(k: int) -> float:
    # Large enough that the latent-ball constraint is rarely active.
    return 10.0 * math.sqrt(k)


# Each prior kind and the activation its model files name.
PRIOR_KINDS = {"linear-subspace": "none", "relu-mlp": "relu"}


def prior_problems(kind, k, n, r, hidden, seed) -> list:
    """One line per field of a prior that breaks its rule: a kind of
    PRIOR_KINDS, integers 1 <= k < n, a latent radius that is None (the
    default) or a finite positive number, a list or tuple of integer hidden
    widths >= 1 (none for a linear subspace), and the seed rule."""
    known = isinstance(kind, str) and kind in PRIOR_KINDS
    problems = [] if known else [f"kind: unknown kind {kind!r}"]
    if not (is_integer(k) and is_integer(n) and 1 <= k < n):
        problems.append(f"k: k and n must be integers with 1 <= k < n, got k={k!r}, n={n!r}")
    if not (r is None or is_finite_number(r) and r > 0):
        problems.append(f"r: the latent radius must be a finite positive number, got {r!r}")
    if not (isinstance(hidden, (list, tuple)) and all(is_integer(w) and w >= 1 for w in hidden)):
        problems.append(f"hidden: must be a list of integer widths >= 1, got {hidden!r}")
    elif kind == "linear-subspace" and hidden:
        problems.append(f"hidden: a linear-subspace prior has no hidden widths, got {hidden!r}")
    return problems + seed_problems(seed)


def _lipschitz_proxy(layers) -> float:
    """Product of the layers' exact spectral norms (largest singular values):
    an upper bound on the Lipschitz constant of the unnormalized network,
    since ReLU is 1-Lipschitz."""
    return float(math.prod(np.linalg.norm(w, 2) for w in layers))


def linear_subspace_prior(k: int, n: int, r: float | None = None, seed: int = 0) -> GenerativePrior:
    """Random k-dimensional subspace of R^n with orthonormalized basis."""
    return make_prior("linear-subspace", k, n, r, (), seed)


def relu_mlp_prior(k: int, hidden, n: int, r: float | None = None, seed: int = 0) -> GenerativePrior:
    """ReLU MLP with no bias terms and zero-mean Gaussian weights of variance
    1/fan-in.  ReLU is applied after every layer except the last.  An empty
    (or None) hidden gives one hidden layer of width max(4k, 16)."""
    return make_prior("relu-mlp", k, n, r, () if hidden is None else hidden, seed)


def make_prior(kind, k, n, r=None, hidden=(), seed=0) -> GenerativePrior:
    """The prior of a kind, after the prior_problems rule on all its fields."""
    raise_problems(prior_problems(kind, k, n, r, hidden, seed))
    rng = np.random.default_rng(seed)
    if kind == "linear-subspace":
        layers = [np.linalg.qr(rng.standard_normal((n, k)))[0]]
    else:
        dims = [k, *(hidden or (max(4 * k, 16),)), n]
        layers = [rng.standard_normal((dims[i + 1], dims[i])) / math.sqrt(dims[i])
                  for i in range(len(dims) - 1)]
    return GenerativePrior(kind, k, n, r, layers, seed, _lipschitz_proxy(layers))


# np.vdot without its __array_function__ dispatch, which took about 0.17 of
# its 0.56 us on 6-vectors (numpy 2.4): the same C function and bits.
_vdot = getattr(np.vdot, "__wrapped__", np.vdot)


def vector_norm(x) -> float:
    """The l2 norm of x: sqrt(x.x), numpy's formula for np.linalg.norm, where
    x.x is finite, else max|x| times the norm of x / max|x|, so a finite x
    whose x.x overflows gets its true norm (and a NaN or Inf entry, a NaN or
    Inf one).  vdot forms x.x since, unlike dot, it does not warn when that
    overflows."""
    xx = _vdot(x, x)
    if math.isfinite(xx):
        return math.sqrt(xx)
    scale = float(np.abs(x).max())
    if not math.isfinite(scale):
        return scale
    x = np.asarray(x) / scale
    return scale * math.sqrt(_vdot(x, x))


def clip_to_ball(z, r: float):
    nz = vector_norm(z)
    if nz > r:
        return z * (r / nz)
    return z


def latent_problems(z, k: int, name: str) -> list:
    """The rule on a latent, as a list of problems: a finite vector of
    length k.  name is the argument the problem names."""
    try:
        z = np.asarray(z, dtype=float)
    except (TypeError, ValueError) as exc:
        got = repr(exc)
    else:
        if z.shape == (k,) and np.isfinite(z).all():
            return []
        got = f"shape {z.shape}" if z.shape != (k,) else "a NaN or Inf entry"
    return [f"{name}: a latent must be a finite vector of length {k}, got {got}"]


def target_problems(v, n: int, name: str) -> list:
    """The rule on a projection target, as a list of problems: a vector of
    length n.  name is the argument the problem names."""
    shape = np.shape(v)
    return [] if shape == (n,) else \
        [f"{name}: a projection target must be a vector of length {n}, got shape {shape}"]


def evaluate(prior: GenerativePrior, z):
    """G(z): forward pass then division by the l2 norm.  Latents outside the
    ball are radially clipped first.  A z that is not a finite vector of
    length k is a ConfigurationError (latent_problems)."""
    raise_problems(latent_problems(z, prior.k, "z"))
    a = clip_to_ball(np.asarray(z, dtype=float), prior.r)
    for w in prior.layers[:-1]:
        a = np.maximum(w.dot(a), 0.0)
    h = prior.layers[-1].dot(a)
    nh = math.sqrt(h.dot(h))
    if nh == 0:
        raise DegenerateLatentError("latent maps to the zero vector")
    return h / nh


@dataclass(frozen=True)
class _LatentTarget:
    """A projection target t seen from the latent space, for a last layer
    W_L: c = W_L^T t, tt = t^T t, q = W_L^T W_L, and rows, which maps each
    activation pattern met so far (the hidden masks' bytes) to its
    (k+1) x k S = [J^T Q J ; (J^T c)^T] and S's last row as Python floats.
    It lives for one projection."""
    c: np.ndarray
    tt: float
    q: np.ndarray
    rows: dict


def _latent_target(prior: GenerativePrior, t, tt) -> _LatentTarget:
    """The _LatentTarget of t and tt = t.t, as _finite_target returns them."""
    if not math.isfinite(tt):
        raise NumericalError("projection target overflows: its squared norm is not finite")
    w = prior.layers[-1]
    return _LatentTarget(c=t.dot(w), tt=float(tt), q=w.T.dot(w), rows={})


def _pattern_rows(prior: GenerativePrior, masks, target: _LatentTarget):
    """S = [J^T Q J ; (J^T c)^T] for the hidden layers' masks D_l, with
    J = D_{L-1} W_{L-1} ... D_1 W_1 (the identity for a one-layer prior),
    and S's last row as a list of floats."""
    j = np.eye(prior.k)
    for w, mask in zip(prior.layers[:-1], masks):
        j = w.dot(j) * mask[:, None]
    s = np.vstack((j.T.dot(target.q.dot(j)), target.c.dot(j)))
    return s, s[prior.k].tolist()


# The ReLU's threshold as a read-only 0-d array: numpy 2 converts a Python
# 0.0 at every ufunc call, and at hidden width 20 (numpy 2.4)
# np.greater(pre, _ZERO) takes about 70% of the time of np.greater(pre, 0.0)
# and of pre > 0.0.
_ZERO = np.zeros(())
_ZERO.flags.writeable = False


def projection_loss_grad(prior: GenerativePrior, z, target):
    """Loss ||G(z) - target||^2 and its gradient w.r.t. z, exactly.

    On the activation pattern at z the last hidden activation is a = J z, so
    with c = W_L^T target and Q = W_L^T W_L one product u = S z of
    S = [J^T Q J ; (J^T c)^T] gives nh^2 = ||W_L a||^2 = z^T u[:k] and
    a^T c = u[k].  The loss is 1 - 2 a^T c / nh + target^T target and its
    gradient (2 / nh) ((a^T c / nh^2) u[:k] - S[k]), formed entry by entry
    in Python floats and returned as a list of k floats: no hidden or
    n-vector beyond the forward pass for the masks is formed.  target is an
    n-vector or the _LatentTarget that project_iterative prepares once per
    call and that keeps S per pattern.  A vector target is prepared here,
    and then z must be a finite vector of length k (latent_problems) and
    the target a vector of length n (target_problems), or it is a
    ConfigurationError; project_iterative's own z needs no check.  A loss
    that rounds below zero (target in the range) is returned as 0."""
    if not isinstance(target, _LatentTarget):
        raise_problems(latent_problems(z, prior.k, "z") +
                       target_problems(target, prior.n, "target"))
        z = np.asarray(z, dtype=float)
        target = _latent_target(prior, *_finite_target(target, prior.n))
    a, masks, key = z, [], b""
    for w in prior.layers[:-1]:
        if masks:
            a = np.maximum(pre, _ZERO)
        pre = w.dot(a)
        mask = np.greater(pre, _ZERO)
        masks.append(mask)
        key += mask.tobytes()
    rows = target.rows.get(key)
    if rows is None:
        rows = target.rows[key] = _pattern_rows(prior, masks, target)
    s, last = rows
    k = prior.k
    u = s.dot(z)
    nh2 = float(z.dot(u[:k]))
    if nh2 <= 0:
        raise DegenerateLatentError("latent maps to the zero vector")
    nh = math.sqrt(nh2)
    u = u.tolist()
    ac = u[k]
    loss = max(1.0 - 2.0 * ac / nh + target.tt, 0.0)
    scale, outer = ac / nh2, 2.0 / nh
    return loss, [(qi * scale - si) * outer for qi, si in zip(u, last)]


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
    the normalized orthogonal projection W W^T v, with the latent W^T v
    clipped to the ball of radius r.  When W W^T v = 0 the deterministic
    fallback is the first basis column; when its squared norm or the
    squared distance to v overflows, a NumericalError.  A v that is not a
    vector of length n is a ConfigurationError (target_problems).  The clip
    is skipped when v.v <= r^2/4: W is orthonormal, so |W^T v| <= |v| <= r/2
    and clip_to_ball would return W^T v itself."""
    if prior.kind != "linear-subspace":
        raise ConfigurationError("project_exact requires a linear-subspace prior")
    v, vv = _finite_target(v, prior.n)
    w = prior.layers[0]
    c = v.dot(w)
    p = w.dot(c)
    pp = p.dot(p)
    if not math.isfinite(pp):
        raise NumericalError("projection overflows: the squared norm of W W^T v is not finite")
    np_ = math.sqrt(pp)
    if np_ == 0:
        point = w[:, 0].copy()
        latent = np.zeros(prior.k)
        latent[0] = min(1.0, prior.r)
    else:
        point = p / np_
        r = prior.r
        latent = c if 4.0 * vv <= r * r else clip_to_ball(c, r)
    d = point - v
    dd = d.dot(d)
    if not math.isfinite(dd):
        raise NumericalError("projection overflows: the squared distance to v is not finite")
    return ProjectionResult(point, latent, math.sqrt(dd), 0)


def project_iterative(prior: GenerativePrior, v, cfg: ProjectionConfig,
                      seed=0, warm_start=None) -> ProjectionResult:
    """Latent-space descent on ||G(z) - v||^2 with restarts.

    Each restart scores its start and the iterates of cfg.steps
    adaptive-moment updates (decay 0.9/0.999, epsilon 1e-8, z radially
    clipped to the latent ball after each) and keeps its best.  The best
    objective across restarts wins, ties broken by lowest restart index.
    Restart 0 starts from warm_start when cfg.latent_init is "warm-start",
    the only place that reads it; other starts are scaled-Gaussian latents.
    A warm_start that is read and is not a finite vector of length k, or a
    v that is not a vector of length n, is a ConfigurationError
    (latent_problems, target_problems).
    """
    warm = cfg.latent_init == "warm-start" and warm_start is not None
    raise_problems(seed_key_problems(seed) + target_problems(v, prior.n, "v") +
                   (latent_problems(warm_start, prior.k, "warm_start") if warm else []))
    v, vv = _finite_target(v, prior.n)
    if not np.any(v):
        raise ConfigurationError("projection target must be nonzero")
    target = _latent_target(prior, v, vv)
    key = flatten_seed(seed)
    steps, lr, k, r = cfg.steps, cfg.learning_rate, prior.k, prior.r
    best = None   # (objective, latent, restart) of the best restart so far
    for restart in range(cfg.restarts):
        if restart == 0 and warm:
            z = np.array(warm_start, dtype=float)
        else:
            z = 0.1 * np.random.default_rng([key, restart]).standard_normal(k)
        z = clip_to_ball(z, r)
        zs = z.tolist()   # z's entries, which the Adam update and the clip work on
        m1, m2 = [0.0] * k, [0.0] * k
        kept = None   # (objective, latent) of this restart's best iterate
        try:
            # Every z is a new array that nothing writes to, so keeping it
            # needs no copy.  The last iterate is scored but not updated.
            for step in range(steps + 1):
                loss, grad = projection_loss_grad(prior, z, target)
                obj = math.sqrt(loss)
                if kept is None or obj < kept[0]:
                    kept = (obj, z)
                if step == steps:
                    break
                c1 = 1.0 - 0.9 ** (step + 1)
                c2 = 1.0 - 0.999 ** (step + 1)
                z_next, zz = [], 0.0
                for i, (x, g) in enumerate(zip(zs, grad)):
                    m1[i] = mi = 0.9 * m1[i] + 0.1 * g
                    m2[i] = vi = 0.999 * m2[i] + 0.001 * g * g
                    x -= lr * (mi / c1) / (math.sqrt(vi / c2) + 1e-8)
                    z_next.append(x)
                    zz += x * x
                nz = math.sqrt(zz)   # clip_to_ball, with the norm summed in order above
                if nz > r:
                    scale = r / nz
                    z_next = [x * scale for x in z_next]
                zs = z_next
                z = np.array(zs)
        except DegenerateLatentError:
            pass   # keep the iterates scored before it, if any
        if kept is not None and (best is None or kept[0] < best[0]):
            best = (*kept, restart)
    if best is None:
        raise ProjectionFailureError("all projection restarts hit degenerate latents")
    obj, z, restart = best
    return ProjectionResult(evaluate(prior, z), z, obj, restart)


def _finite_target(v, n: int):
    """v as a float array, with v.v: a ConfigurationError when v is not a
    vector of length n (target_problems), or a NumericalError when an entry
    is NaN or Inf.  Such an entry always makes v.v non-finite, so the
    entrywise check runs only when that one dot product is not finite (or
    overflows)."""
    v = np.asarray(v, dtype=float)
    if v.shape != (n,):
        raise_problems(target_problems(v, n, "v"))
    vv = v.dot(v)
    if not math.isfinite(vv) and not np.isfinite(v).all():
        raise NumericalError("projection target contains NaN or Inf")
    return v, vv


def project(prior: GenerativePrior, v, cfg: ProjectionConfig | None = None,
            seed=0, warm_start=None) -> ProjectionResult:
    """Dispatch to the exact projector when available, else the iterative one."""
    if prior.kind == "linear-subspace":
        return project_exact(prior, v)
    return project_iterative(prior, v, cfg or ProjectionConfig(), seed=seed,
                             warm_start=warm_start)


# ---------------------------------------------------------------------------
# Model files: JSON with kind, dims, radius, seed, activation (PRIOR_KINDS)
# and the raw weight arrays.  Loading reproduces evaluate() bit-identically
# from the stored weights (they are not re-derived from the seed).
# ---------------------------------------------------------------------------

def save_prior(prior: GenerativePrior, path) -> None:
    doc = {
        "kind": prior.kind,
        "k": int(prior.k),
        "n": int(prior.n),
        "r": prior.r,
        "seed": int(prior.seed),
        "activation": PRIOR_KINDS[prior.kind],
        "lipschitz_proxy": prior.lipschitz_proxy,
        "layers": [[[float(v) for v in row] for row in w] for w in prior.layers],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_prior(path) -> GenerativePrior:
    """Read a model file.  A file that is not JSON or lacks a key, breaks a
    prior_problems rule (its hidden widths are the layers' fan-ins after the
    first), names an activation other than its kind's, has a non-finite
    Lipschitz proxy or layers that do not map k to n is a ConfigurationError;
    a NaN or Inf weight is a NumericalError."""
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
    if not (isinstance(kind, str) and PRIOR_KINDS.get(kind) == activation):
        problems.append(f"kind {kind!r} with activation {activation!r} is not a prior; need "
                        + " or ".join(f"{key} with {act}" for key, act in PRIOR_KINDS.items()))
    if not is_finite_number(lipschitz_proxy):
        problems.append(f"lipschitz_proxy {lipschitz_proxy!r} is not a finite number")
    raise_problems(problems, f"malformed model file {path}:")
    dims = [k] + [w.shape[0] if w.ndim == 2 else -1 for w in layers]
    if not layers or dims[-1] != n or \
            any(w.shape != (out, fan_in) for w, fan_in, out in zip(layers, dims, dims[1:])):
        raise ConfigurationError(f"malformed model file {path}: layers do not map k to n")
    if not all(np.isfinite(w).all() for w in layers):
        raise NumericalError(f"model file {path} has a NaN or Inf weight")
    return GenerativePrior(kind, k, n, r, layers, seed, lipschitz_proxy)
