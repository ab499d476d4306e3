"""Spectral initialization: the weighted second-moment matrix and projected
power iterations.

The matrix V = (1/m) sum_i y_i (a_i a_i^T - I) has expectation nu * x x^T, so
power iterations interleaved with projection onto the prior's range recover
the signal direction.  The starting vector is the column of the shifted
matrix (1/m) sum_i y_i a_i a_i^T with the largest diagonal entry.

Building V reads the m x n sensing matrix A once, in row blocks, and
accumulates only the upper block triangle: about (c+1)/(2c) * 2mn^2 flops
for c column blocks (c = 1 up to n = 724, 8 at n = 2000), and memory for A
plus O(n^2) (V and fixed-size blocks), with no m x n temporary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalError
from .links import MeasurementSet
from .priors import GenerativePrior, ProjectionConfig, project
from .seeds import flatten_seed


@dataclass
class SpectralMatrix:
    v: np.ndarray             # n x n, exactly symmetric
    m_used: int
    diag_shifted: np.ndarray  # diagonal of (1/m) sum_i y_i a_i a_i^T
    ybar: float


@dataclass
class PowerState:
    iterate: np.ndarray
    t: int
    correlation: float | None = None
    error: float | None = None


# Bytes of the row blocks the build reads A in: a block of A and its
# y-weighted copy each take at most this much, and one partial-product tile
# at most half of it.  A problem that fits one block (n <= 724 and
# m * n * 8 <= 8 MiB, e.g. n=100 up to m=10485) is a single GEMM, which
# gives the same bits as the unblocked product.
_BLOCK_BYTES = 8 << 20


def _block_sizes(n: int) -> tuple[int, int]:
    """Rows per row block and columns per column block at dimension n."""
    return max(1, _BLOCK_BYTES // (8 * n)), max(1, _BLOCK_BYTES // (16 * n))


def build_spectral_matrix(data: MeasurementSet) -> SpectralMatrix:
    """V = (1/m) A^T diag(y) A - ybar I.

    For each row block A_b of A, with Y_b = A_b * y_b, only the upper block
    triangle S[I, J>=I] += A_b[:, I]^T Y_b[:, J>=I] of S = A^T diag(y) A is
    accumulated, one GEMM per column block I; S is then mirrored and
    shifted in place.  Raises NumericalError when a diagonal entry of S is
    not finite, which any NaN or infinity in y or A causes.
    """
    a = data.sensing
    y = data.observations
    m, n = data.m, data.n
    rows, width = _block_sizes(n)
    starts = range(0, n, width)
    s = np.zeros((n, n))
    for r0 in range(0, m, rows):
        a_b = a[r0:r0 + rows]
        y_b = a_b * y[r0:r0 + rows, None]
        for i0 in starts:
            s[i0:i0 + width, i0:] += a_b[:, i0:i0 + width].T @ y_b[:, i0:]
    s /= m
    # Exact symmetry by construction: mirror the upper triangle.
    for i0 in starts:
        i1 = i0 + width
        block = s[i0:i1, i0:i1]
        block[...] = np.triu(block) + np.triu(block, 1).T
        s[i1:, i0:i1] = s[i0:i1, i1:].T
    diag_shifted = np.diag(s).copy()
    if not np.isfinite(diag_shifted).all():
        raise NumericalError("spectral matrix is not finite: the measurements "
                             "contain NaN or Inf")
    ybar = float(y.mean())
    s[np.diag_indices(n)] -= ybar
    return SpectralMatrix(v=s, m_used=m, diag_shifted=diag_shifted, ybar=ybar)


def shifted_matrix(spec: SpectralMatrix) -> np.ndarray:
    """(1/m) sum_i y_i a_i a_i^T, i.e. V + ybar * I, as a new array."""
    full = spec.v.copy()
    full[np.diag_indices_from(full)] += spec.ybar
    return full


def initial_vector(spec: SpectralMatrix, shifted_full: np.ndarray) -> np.ndarray:
    """Column of the shifted matrix at the largest diagonal entry, normalized.

    Ties break to the lowest index (argmax convention); an all-zero column
    falls back to e_1.
    """
    j = int(np.argmax(spec.diag_shifted))
    col = np.array(shifted_full[:, j], dtype=float)
    nc = np.linalg.norm(col)
    if nc == 0:
        col = np.zeros(shifted_full.shape[0])
        col[0] = 1.0
        return col
    return col / nc


def projected_power(spec: SpectralMatrix, prior: GenerativePrior, w0, t1: int,
                    proj_cfg: ProjectionConfig | None = None, seed=0,
                    truth=None) -> list[PowerState]:
    """Run t1 projected power iterations w <- P_G(V w) from w0 (normalized,
    not pre-projected).  Returns the trajectory including the initial state.
    Correlation and error are recorded when the ground truth is supplied."""
    if t1 < 1:
        raise ConfigurationError("t1 must be >= 1")
    w = np.asarray(w0, dtype=float)
    w = w / np.linalg.norm(w)
    states = [_power_state(w, 0, truth)]
    warm = None
    base = flatten_seed(seed)
    for t in range(1, t1 + 1):
        res = project(prior, spec.v @ w, proj_cfg, seed=[base, t], warm_start=warm)
        if proj_cfg is not None and proj_cfg.latent_init == "warm-start":
            warm = res.latent
        w = res.point
        states.append(_power_state(w, t, truth))
    return states


def _power_state(w, t, truth):
    if truth is None:
        return PowerState(iterate=w, t=t)
    return PowerState(iterate=w, t=t, correlation=float(truth @ w),
                      error=float(np.linalg.norm(w - truth)))
