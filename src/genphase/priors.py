"""Normalized generative priors G: B^k(r) -> S^{n-1} and projection onto Range(G).

Two prior families are provided: a linear subspace with an orthonormal basis
(admits a closed-form projector) and a random ReLU MLP with zero-mean Gaussian
weights and no bias terms.  The iterative projector minimizes ||G(z) - v||^2
over the latent ball by adaptive-moment gradient descent with restarts,
using exact backpropagation through the layers and the output normalization.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DegenerateLatentError, NumericalError, \
    ProjectionFailureError
from .seeds import flatten_seed


@dataclass
class GenerativePrior:
    kind: str                 # "linear-subspace" | "relu-mlp"
    k: int
    n: int
    r: float
    layers: list              # weight matrices, each of shape (fan_out, fan_in)
    activation: str           # "relu" | "none"
    seed: int
    lipschitz_proxy: float


def default_radius(k: int) -> float:
    # Large enough that the latent-ball constraint is rarely active.
    return 10.0 * math.sqrt(k)


def _power_spectral_norm(w, iters: int = 50, seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(w.shape[1])
    v /= np.linalg.norm(v)
    s = 0.0
    for _ in range(iters):
        u = w @ v
        s = np.linalg.norm(u)
        if s == 0:
            return 0.0
        v = w.T @ u
        v /= np.linalg.norm(v)
    return float(s)


def _lipschitz_proxy(layers) -> float:
    out = 1.0
    for i, w in enumerate(layers):
        out *= _power_spectral_norm(w, seed=i)
    return out


def linear_subspace_prior(k: int, n: int, r: float | None = None, seed: int = 0) -> GenerativePrior:
    """Random k-dimensional subspace of R^n with orthonormalized basis."""
    if not k < n:
        raise ConfigurationError(f"need k < n, got k={k}, n={n}")
    rng = np.random.default_rng(seed)
    w, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return GenerativePrior(kind="linear-subspace", k=k, n=n,
                           r=default_radius(k) if r is None else r,
                           layers=[w], activation="none", seed=seed,
                           lipschitz_proxy=_lipschitz_proxy([w]))


def relu_mlp_prior(k: int, hidden, n: int, r: float | None = None, seed: int = 0) -> GenerativePrior:
    """ReLU MLP with no bias terms and zero-mean Gaussian weights of variance
    1/fan-in.  ReLU is applied after every layer except the last."""
    if not k < n:
        raise ConfigurationError(f"need k < n, got k={k}, n={n}")
    dims = [k, *hidden, n]
    rng = np.random.default_rng(seed)
    layers = [rng.standard_normal((dims[i + 1], dims[i])) / math.sqrt(dims[i])
              for i in range(len(dims) - 1)]
    return GenerativePrior(kind="relu-mlp", k=k, n=n,
                           r=default_radius(k) if r is None else r,
                           layers=layers, activation="relu", seed=seed,
                           lipschitz_proxy=_lipschitz_proxy(layers))


def clip_to_ball(z, r: float):
    nz = np.linalg.norm(z)
    if nz > r:
        return z * (r / nz)
    return z


def _forward(prior: GenerativePrior, z):
    """Forward pass.  Returns the pre-normalization output and the list of
    pre-activations (one per layer) needed for backprop."""
    a = z
    pres = []
    last = len(prior.layers) - 1
    for l, w in enumerate(prior.layers):
        pre = w @ a
        pres.append(pre)
        if prior.activation == "relu" and l < last:
            a = np.maximum(pre, 0.0)
        else:
            a = pre
    return a, pres


def evaluate(prior: GenerativePrior, z):
    """G(z): forward pass then division by the l2 norm.  Latents outside the
    ball are radially clipped first."""
    z = clip_to_ball(np.asarray(z, dtype=float), prior.r)
    h, _ = _forward(prior, z)
    nh = np.linalg.norm(h)
    if nh == 0:
        raise DegenerateLatentError("latent maps to the zero vector")
    return h / nh


def projection_loss_grad(prior: GenerativePrior, z, target):
    """Loss ||G(z) - target||^2 and its gradient w.r.t. z, by exact backprop
    through the layers and the output normalization."""
    h, pres = _forward(prior, z)
    nh = np.linalg.norm(h)
    if nh == 0:
        raise DegenerateLatentError("latent maps to the zero vector")
    u = h / nh
    diff = u - target
    loss = float(diff @ diff)
    g_u = 2.0 * diff
    # Jacobian of h -> h/||h|| applied to g_u.
    g = (g_u - u * (u @ g_u)) / nh
    last = len(prior.layers) - 1
    for l in range(last, -1, -1):
        if prior.activation == "relu" and l < last:
            g = g * (pres[l] > 0)
        g = prior.layers[l].T @ g
    return loss, g


@dataclass
class ProjectionConfig:
    steps: int = 200
    learning_rate: float = 0.05
    restarts: int = 1
    latent_init: str = "gaussian"   # "zero" | "gaussian" | "warm-start"
    tolerance: float = 0.0

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigurationError("steps must be >= 1")
        if self.restarts < 1:
            raise ConfigurationError("restarts must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        if self.latent_init not in ("zero", "gaussian", "warm-start"):
            raise ConfigurationError(f"unknown latent_init {self.latent_init!r}")
        if self.tolerance < 0:
            raise ConfigurationError("tolerance must be nonnegative")


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
    c = w.T @ v
    p = w @ c
    np_ = np.linalg.norm(p)
    if np_ == 0:
        point = w[:, 0].copy()
        latent = np.zeros(prior.k)
        latent[0] = min(1.0, prior.r)
        return ProjectionResult(point=point, latent=latent,
                                objective=float(np.linalg.norm(point - v)),
                                restart_index=0)
    point = p / np_
    latent = clip_to_ball(c, prior.r)
    return ProjectionResult(point=point, latent=latent,
                            objective=float(np.linalg.norm(point - v)),
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
    v = _finite_target(v)
    if not np.any(v):
        raise ConfigurationError("projection target must be nonzero")
    key = flatten_seed(seed)
    best = None
    for restart in range(cfg.restarts):
        rng = np.random.default_rng([key, restart])
        if restart == 0 and cfg.latent_init == "warm-start" and warm_start is not None:
            z = np.array(warm_start, dtype=float)
        elif restart == 0 and cfg.latent_init == "zero":
            z = np.zeros(prior.k)
        else:
            z = 0.1 * rng.standard_normal(prior.k)
        z = clip_to_ball(z, prior.r)
        m1 = np.zeros(prior.k)
        m2 = np.zeros(prior.k)
        restart_best = None
        try:
            for step in range(cfg.steps):
                loss, grad = projection_loss_grad(prior, z, v)
                obj = math.sqrt(loss)
                if restart_best is None or obj < restart_best[0]:
                    restart_best = (obj, z.copy())
                if obj <= cfg.tolerance:
                    break
                m1 = 0.9 * m1 + 0.1 * grad
                m2 = 0.999 * m2 + 0.001 * grad * grad
                mh = m1 / (1.0 - 0.9 ** (step + 1))
                vh = m2 / (1.0 - 0.999 ** (step + 1))
                z = clip_to_ball(z - cfg.learning_rate * mh / (np.sqrt(vh) + 1e-8), prior.r)
            loss, _ = projection_loss_grad(prior, z, v)
            obj = math.sqrt(loss)
            if obj < restart_best[0]:
                restart_best = (obj, z.copy())
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
        "k": prior.k,
        "n": prior.n,
        "r": prior.r,
        "seed": int(prior.seed),
        "activation": prior.activation,
        "lipschitz_proxy": prior.lipschitz_proxy,
        "layers": [[[float(v) for v in row] for row in w] for w in prior.layers],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_prior(path) -> GenerativePrior:
    with open(path) as fh:
        doc = json.load(fh)
    layers = [np.array(w, dtype=float) for w in doc["layers"]]
    return GenerativePrior(kind=doc["kind"], k=doc["k"], n=doc["n"], r=doc["r"],
                           layers=layers, activation=doc["activation"],
                           seed=doc["seed"], lipschitz_proxy=doc["lipschitz_proxy"])
