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

When the caller will run enough refinement steps on the same measurements,
the same pass also accumulates the Gram matrix G = A^T A / m (another n^2
floats and as many flops again).  A refinement step then costs 4n^2 flops
from G and V instead of 4mn from two passes over A (see refine.py).  The
build pays for G when 2 * refine_steps * (m - n) > m * n, the flop
break-even between one extra 2mn^2 build and saving 4n(m - n) per step; it
never holds for m <= n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, count_problems, raise_problems
from .links import MeasurementSet
from .priors import GenerativePrior, ProjectionConfig, project
from .runtrace import Step, step_at
from .seeds import flatten_seed


@dataclass
class SpectralMatrix:
    v: np.ndarray             # n x n, exactly symmetric
    diag_shifted: np.ndarray  # diagonal of (1/m) sum_i y_i a_i a_i^T
    ybar: float
    gram: np.ndarray | None = None  # A^T A / m, exactly symmetric, when built


# Bytes of the row blocks the build reads A in: a block of A and its
# y-weighted copy each take at most this much, and one partial-product tile
# at most half of it.  A problem that fits one block (n <= 724 and
# m * n * 8 <= 8 MiB, e.g. n=100 up to m=10485) is a single GEMM, which
# gives the same bits as the unblocked product.
_BLOCK_BYTES = 8 << 20


def _block_sizes(n: int) -> tuple[int, int]:
    """Rows per row block and columns per column block at dimension n."""
    return max(1, _BLOCK_BYTES // (8 * n)), max(1, _BLOCK_BYTES // (16 * n))


def gram_pays_off(m: int, n: int, refine_steps: int) -> bool:
    """Whether building G = A^T A / m (2mn^2 flops) beside V costs less than
    the 4n(m - n) flops per step it saves over refine_steps refinement
    steps."""
    return 2 * refine_steps * (m - n) > m * n


def _mirror_upper(mat: np.ndarray, starts, width: int) -> None:
    """Copy the upper block triangle of mat onto its lower one, in place."""
    for i0 in starts:
        i1 = i0 + width
        block = mat[i0:i1, i0:i1]
        block[...] = np.triu(block) + np.triu(block, 1).T
        mat[i1:, i0:i1] = mat[i0:i1, i1:].T


def build_spectral_matrix(data: MeasurementSet, refine_steps: int = 0) -> SpectralMatrix:
    """V = (1/m) A^T diag(y) A - ybar I, and G = A^T A / m when
    gram_pays_off(m, n, refine_steps).

    For each row block A_b of A, with Y_b = A_b * y_b, only the upper block
    triangle S[I, J>=I] += A_b[:, I]^T Y_b[:, J>=I] of S = A^T diag(y) A is
    accumulated, one GEMM per column block I (and likewise for A^T A); S is
    then mirrored and shifted in place.  Raises NumericalError when a
    diagonal entry of S is not finite, which any NaN or infinity in y or A
    causes.
    """
    a = data.sensing
    y = data.observations
    m, n = data.m, data.n
    rows, width = _block_sizes(n)
    starts = range(0, n, width)
    s = np.zeros((n, n))
    gram = np.zeros((n, n)) if gram_pays_off(m, n, refine_steps) else None
    for r0 in range(0, m, rows):
        a_b = a[r0:r0 + rows]
        y_b = a_b * y[r0:r0 + rows, None]
        for i0 in starts:
            s[i0:i0 + width, i0:] += a_b[:, i0:i0 + width].T @ y_b[:, i0:]
            if gram is not None:
                gram[i0:i0 + width, i0:] += a_b[:, i0:i0 + width].T @ a_b[:, i0:]
    s /= m
    # Exact symmetry by construction: mirror the upper triangle.
    _mirror_upper(s, starts, width)
    if gram is not None:
        gram /= m
        _mirror_upper(gram, starts, width)
    diag_shifted = np.diag(s).copy()
    if not np.isfinite(diag_shifted).all():
        raise NumericalError("spectral matrix is not finite: the measurements "
                             "contain NaN or Inf")
    ybar = float(y.mean())
    s[np.diag_indices(n)] -= ybar
    return SpectralMatrix(v=s, diag_shifted=diag_shifted, ybar=ybar, gram=gram)


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


def t1_problems(t1) -> list:
    """The rule on the power iteration count, as a list of problems."""
    return count_problems(t1, "t1", 1)


def projected_power(spec: SpectralMatrix, prior: GenerativePrior, w0, t1: int,
                    proj_cfg: ProjectionConfig | None = None, seed=0,
                    truth=None) -> list[Step]:
    """Run t1 projected power iterations w <- P_G(V w) from w0 (normalized,
    not pre-projected).  Returns the trajectory including the initial state.
    Correlation and error are recorded when the ground truth is supplied."""
    raise_problems(t1_problems(t1))
    w = np.asarray(w0, dtype=float)
    w = w / np.linalg.norm(w)
    states = [step_at(w, 0, truth)]
    warm = None
    base = flatten_seed(seed)
    for t in range(1, t1 + 1):
        res = project(prior, spec.v @ w, proj_cfg, seed=[base, t], warm_start=warm)
        if proj_cfg is not None and proj_cfg.latent_init == "warm-start":
            warm = res.latent
        w = res.point
        states.append(step_at(w, t, truth))
    return states
