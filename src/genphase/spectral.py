"""Spectral initialization: the weighted second-moment matrix and projected
power iterations.

The matrix V = (1/m) sum_i y_i (a_i a_i^T - I) has expectation nu * x x^T, so
power iterations interleaved with projection onto the prior's range recover
the signal direction.  The starting vector is the column of the shifted
matrix S = (1/m) sum_i y_i a_i a_i^T = V + ybar I with the largest diagonal
entry, which is V's largest diagonal entry too: the shift is uniform.  It is
read from the data, not from V, in O(mn): diag(S) = y.(A o A) / m in one
pass over A in 1 MiB row blocks (shifted_matrix), then column j of S
as (y o A[:, j])^T A / m, one GEMV (initial_vector).  Both run under the
one-thread pin (below), so the start has the same bits at any OpenBLAS
thread count.

Building V reads the m x n sensing matrix A once, in row blocks, and
accumulates only the upper block triangle: about (c+1)/(2c) * 2mn^2 flops
for c column blocks (c = 1 up to n = 724, 8 at n = 2000), and memory for A
plus O(n^2) (V and fixed-size blocks), with no m x n temporary.  The same
pass accumulates the moment matrix M = (1/m) A^T diag(y - ybar) A in the
same tiles, and one SYRK forms the Gram matrix G = A^T A / m: with them the
build costs about three times V's flops, and it returns V with the stack
[G; M] that every refinement step and APPGD's phase term read (refine.py,
baselines.py).  At (m, n) = (16000, 2000) that took a lone build from
1.6-1.7 s to 4.2 s and a lone relu-mlp mprg solve's peak from 326 to
392 MB; no workload builds at that n, and at n = 100, m = 400 G and M add
about 8 MFLOP.

The build splits its output by column block ("tile"): the tile I gets, for
every row block in order, the GEMMs S[I, I:] += A_b[:, I]^T Y_b[:, I:] and
M's, and the tiles run in order in the calling thread.

Every BLAS product whose result reaches an output runs with OpenBLAS pinned
to one thread (priors._one_blas_thread, through OpenBLAS's own
*_set_num_threads found with ctypes; the previous count is restored after,
also on an error, and overlapping pins restore it once, when the last one
ends), since some products change bits with the thread count at some
shapes: a GEMV as small as 700 x 700 did, and A x at (1500, 800).
- priors.make_prior: a linear subspace's QR and the SVDs of the Lipschitz
  proxy, which gave the same bits at 1 and 2 threads, but at 2 took
  120 ms where 1 took 1 ms (a linear subspace at k = 10, n = 2000).
- links.sample_measurements: A x.
- shifted_matrix and initial_vector: y.(A o A) per row block and
  (y o A[:, j])^T A.
- reduce_to_subspace: B^ = A W^, formed as (W^T A^T)^T.
- build_spectral_matrix: A^T A and every tile GEMM of S and M.
- baselines.run_algorithm, for the whole solve: the power step V w, the
  refinement step's [G; M] x, APPGD's A x, (I - tau G) x and phase-term
  products, and every projection's products; harness.run_restarts too,
  for the projections of its random restart starts.
tests/test_cli.py writes `simulate` and relu-mlp `run` outputs at 1 and 2
threads at shapes where unpinned products move, and the build, reduction
and step tests in tests/ compare bytes at 1 and 2 threads too.  Not pinned:
the prior's evaluation (draw_signal), which gave the same bits at 1 and 2
threads up to n = 2000, and which the sweep thread-count test in
tests/test_cli.py runs at n = 100; and the steps of a lone refine_step,
appgd_step or projected_power called directly.  Where
OpenBLAS's calls cannot be found (another BLAS), nothing is pinned.

A linear-subspace problem is solved in k+1 coordinates (reduce_to_subspace),
and no n x n matrix is formed for it: the start comes from the data, and
its spectral matrix V_k = W^T V W^ is built on the reduced data, with G_k
and M_k.  Every projection lands in range(W), so the power and refinement
iterates are x = W z, and the first power step multiplies the start w0
itself, which need not lie in range(W).  With u the unit residual of w0 off
range(W), the basis W^ = [W | u] spans every iterate and start.  One
O(mnk) GEMM gives B^ = A W^ (m x (k+1)), formed as (W^T A^T)^T: at one
thread it had the bits of A @ W^ at every (m, n, k+1) tried, from
(37, 12, 4) to (16000, 2000, 11), where it took 41 ms against 67 ms.  The
exact projector in these coordinates is the one of the basis
eye(k+1, k).  The reduced data holds B^ column-major, as the transposed
product gives it: its one reader per step is APPGD's B^ x
(baselines.appgd_step, which keeps its phase term across steps), a GEMV
that ran 1.4 to 2.3 times as fast in that layout at (m, k+1) from (250, 6)
to (16000, 11).  The build reads A row-major, copying a column-major A
first (1.4 MB for that B^), since a V_k built on the column-major array
differed in its bits at (m, k+1) = (37, 4).  A refinement step then costs
O((k+1)^2): one GEMV with [G_k; M_k].  Without u, W^T V W W^T w0 would
stand in for W^T V w0, a different first step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, count_problems, raise_problems
from .links import MeasurementSet, empty_problems
from .priors import GenerativePrior, ProjectionConfig, _one_blas_thread, project, vector_norm
from .runtrace import Step, score
from .seeds import flatten_seed


@dataclass(frozen=True)
class SpectralMatrix:
    """V, the mean observation and, from build_spectral_matrix, the stack
    [G; M] (2n x n) of the Gram matrix G = A^T A / m and the moment matrix
    M = (1/m) A^T diag(y - ybar) A, both exactly symmetric: one GEMV with it
    gives G x and M x, all of a refinement step's products (refine.py), and
    G is APPGD's (baselines._PhaseTerm).  One made by hand from v and ybar
    alone has no stack and serves the power phase only.  Frozen; its arrays
    are not changed in place."""
    v: np.ndarray             # n x n, exactly symmetric
    ybar: float
    stack: np.ndarray | None = None


# Bytes of the row blocks the build reads A in: a block of A and its
# y-weighted copy each take at most this much, and one partial-product tile
# at most half of it.  A problem that fits one block (n <= 724 and
# m * n * 8 <= 8 MiB, e.g. n=100 up to m=10485) is a single GEMM, which
# gives the same bits as the unblocked product.
_BLOCK_BYTES = 8 << 20


def _block_sizes(n: int) -> tuple[int, int]:
    """Rows per row block and columns per column block at dimension n."""
    return max(1, _BLOCK_BYTES // (8 * n)), max(1, _BLOCK_BYTES // (16 * n))


def _mirror_upper(mat: np.ndarray, starts, width: int) -> None:
    """Copy the upper block triangle of mat onto its lower one, in place."""
    for i0 in starts:
        i1 = i0 + width
        block = mat[i0:i1, i0:i1]
        block[...] = np.triu(block) + np.triu(block, 1).T
        mat[i1:, i0:i1] = mat[i0:i1, i1:].T


def _accumulate(a, weights, rows: int, width: int, starts, outs) -> None:
    """For every row block A_b of a, in order, each weight vector w in
    weights with its output s in outs, and every tile I = [i0, i0 + width)
    with i0 in starts: s[I, i0:] += A_b[:, I]^T Y_b[:, i0:], Y_b = A_b * w_b.
    Y_b and each product are written into two buffers allocated here, so
    they are freed before the build's mirror allocates: held until the build
    returned, they made a one-tile build at n = 100, m = 250 about 1.5 times
    as slow."""
    m, n = a.shape
    y_buf, prod_buf = np.empty((min(rows, m), n)), np.empty(min(width, n) * n)
    for r0 in range(0, m, rows):
        a_b = a[r0:r0 + rows]
        for w, s in zip(weights, outs):
            y_b = np.multiply(a_b, w[r0:r0 + rows, None], out=y_buf[:len(a_b)])
            for i0 in starts:
                i1 = min(i0 + width, n)
                prod = prod_buf[:(i1 - i0) * (n - i0)].reshape(i1 - i0, n - i0)
                s[i0:i1, i0:] += np.matmul(a_b[:, i0:i1].T, y_b[:, i0:], out=prod)


def empirical_mean_y(data: MeasurementSet) -> float:
    """The mean observation ybar = y.mean().  An empty set is a
    ConfigurationError (links.empty_problems), and finite observations whose
    mean is not finite (their sum overflows, as 30 x 1e307 and 10 x -1e307
    do) a NumericalError naming the mean, raised with no overflow warning
    before it.  A NaN or infinite observation gives a mean that is not
    finite, which the build's diagonal check reports."""
    raise_problems(empty_problems(data))
    y = data.observations
    with np.errstate(over="ignore", invalid="ignore"):
        ybar = float(y.mean())
    if not math.isfinite(ybar) and np.isfinite(y).all():
        raise NumericalError(f"the observations' mean is {ybar}: the sum of {data.m} "
                             f"finite observations overflows")
    return ybar


def build_spectral_matrix(data: MeasurementSet) -> SpectralMatrix:
    """V = (1/m) A^T diag(y) A - ybar I, with the stack [G; M] of the Gram
    matrix G = A^T A / m and the moment matrix M = (1/m) A^T diag(y - ybar) A.

    G is one product A^T A, numpy's SYRK path, so exactly symmetric.  For
    each row block A_b of A, with Y_b = A_b * y_b, only the upper block
    triangle S[I, J>=I] += A_b[:, I]^T Y_b[:, J>=I] of S = A^T diag(y) A is
    accumulated, one GEMM per column block I, and M's in the same tiles
    from the weights y - ybar, which are exactly 0 for a constant y whose
    mean is exact, so then M is exactly 0.  Both run in the calling thread with OpenBLAS pinned to
    one thread, as G does (module docstring); S and M are then mirrored,
    and S is shifted into V in place.  Raises NumericalError when a
    diagonal entry of S is not finite, which any NaN or infinity in y or A
    causes, and before any tile runs, empirical_mean_y's ConfigurationError
    for an empty set and NumericalError for a mean that overflows.
    """
    ybar = empirical_mean_y(data)
    a = np.ascontiguousarray(data.sensing)   # a copy only of a column-major A
    y = data.observations
    m, n = data.m, data.n
    rows, width = _block_sizes(n)
    starts = range(0, n, width)
    s, stack = np.zeros((n, n)), np.zeros((2 * n, n))
    gram, moments = stack[:n], stack[n:]
    with _one_blas_thread():
        np.matmul(a.T, a, out=gram)
        _accumulate(a, (y, y - ybar), rows, width, starts, (s, moments))
    stack /= m
    s /= m
    # Exact symmetry by construction: mirror the upper triangles.
    _mirror_upper(s, starts, width)
    _mirror_upper(moments, starts, width)
    _check_diagonal(np.diag(s))
    s[np.diag_indices(n)] -= ybar
    return SpectralMatrix(v=s, ybar=ybar, stack=stack)


def _check_diagonal(diag) -> None:
    """The build's NumericalError when a diagonal entry is not finite."""
    if not np.isfinite(diag).all():
        raise NumericalError("spectral matrix is not finite: the measurements "
                             "contain NaN or Inf")


@dataclass
class SubspaceReduction:
    """A linear-subspace problem in the coordinates z of x = basis @ z."""
    basis: np.ndarray         # n x (k+1), orthonormal columns [W | u] (W alone when u = 0)
    data: MeasurementSet      # sensing A @ basis (column-major), signal basis^T x, same y
    prior: GenerativePrior    # linear subspace with basis eye(k+1, k)


def reduce_to_subspace(data: MeasurementSet, prior: GenerativePrior, w0) -> SubspaceReduction:
    """The problem of a linear-subspace prior with basis W in the coordinates
    of W^ = [W | u], u the unit residual of the start w0 off range(W)
    (orthogonalized twice), or of W alone when that residual is no larger
    than its rounding error, n * eps * |w0|.  Every start in span(W^) enters
    as W^T start, and an iterate z maps back as W^ z.  The reduced sensing
    matrix B^ = A W^ is one product with OpenBLAS pinned to one thread,
    formed as (W^T A^T)^T, with the bits of A @ W^; no spectral matrix is
    built here (the caller builds one, with G_k and M_k, on the reduced
    data).  The reduced data holds B^ column-major, for APPGD's B^ x
    (module docstring), which the transposed product already is, so
    np.asfortranarray copies nothing."""
    w = prior.layers[0]
    w0 = np.asarray(w0, dtype=float)
    resid = w0 - w @ (w0 @ w)
    resid -= w @ (resid @ w)
    size = vector_norm(resid)
    if size > prior.n * np.finfo(float).eps * vector_norm(w0):
        w = np.column_stack((w, resid / size))
    dim = w.shape[1]
    with _one_blas_thread():
        sensing = (w.T @ data.sensing.T).T
    reduced = MeasurementSet(n=dim, m=data.m, signal=data.signal @ w,
                             sensing=np.asfortranarray(sensing),
                             observations=data.observations, seed=data.seed, link=data.link)
    coords = GenerativePrior("linear-subspace", prior.k, dim, prior.r,
                             [np.eye(dim, prior.k)], prior.seed, 1.0)
    return SubspaceReduction(w, reduced, coords)


@dataclass(frozen=True)
class ShiftedMatrix:
    """S = (1/m) A^T diag(y) A = V + ybar I without its n x n array: the
    data it is read from and its diagonal y.(A o A) / m."""
    data: MeasurementSet
    diag: np.ndarray


def shifted_matrix(data: MeasurementSet) -> ShiftedMatrix:
    """S of the data, with its diagonal summed over A's row blocks of at
    most _BLOCK_BYTES / 8 (1 MiB), each block squared into one buffer and
    weighted by y in one GEMV, with OpenBLAS pinned to one thread.  Raises
    the build's NumericalError when a diagonal entry is not finite, which
    any NaN or infinity in y or A causes, and its ConfigurationError for
    an empty set."""
    raise_problems(empty_problems(data))
    a, y = data.sensing, data.observations
    # an eighth of the build's block: a buffer the size of A (n = 100 up to
    # m = 10485) cost memory and, at n = 2000, time
    rows = max(1, _BLOCK_BYTES // (64 * data.n))
    diag = np.zeros(data.n)
    squares = np.empty((min(rows, data.m), data.n))
    with _one_blas_thread():
        for r0 in range(0, data.m, rows):
            a_b = a[r0:r0 + rows]
            diag += y[r0:r0 + rows].dot(np.square(a_b, out=squares[:len(a_b)]))
    diag /= data.m
    _check_diagonal(diag)
    return ShiftedMatrix(data, diag)


def initial_vector(shifted: ShiftedMatrix) -> np.ndarray:
    """Column of S at its largest diagonal entry, normalized: (y o A[:, j])^T
    A / m, one GEMV with OpenBLAS pinned to one thread.

    Ties break to the lowest index (argmax convention); an all-zero column
    falls back to e_1, and a column whose norm overflows (finite entries from
    about 1e154) is a NumericalError.
    """
    a, y = shifted.data.sensing, shifted.data.observations
    j = int(np.argmax(shifted.diag))
    with _one_blas_thread():
        col = (y * a[:, j]).dot(a) / shifted.data.m
    nc = np.linalg.norm(col)
    if not math.isfinite(nc):
        raise NumericalError(f"spectral start overflows: the norm of its column {j} is {nc}")
    if nc == 0:
        col = np.zeros(len(col))
        col[0] = 1.0
        return col
    return col / nc


def t1_problems(t1) -> list:
    """The rule on the power iteration count, as a list of problems."""
    return count_problems(t1, "t1", 1)


def start_problems(w0, n: int | None = None) -> list:
    """The rule on a start vector, as a list of problems: given n, a vector
    of length n, and a finite nonzero norm (vector_norm, which an
    overflowing w0.w0 does not make infinite), which the first power step
    divides by."""
    if n is not None and np.shape(w0) != (n,):
        return [f"w0: the start vector must be a vector of length {n}, got shape {np.shape(w0)}"]
    size = vector_norm(w0)
    ok = math.isfinite(size) and size > 0
    return [] if ok else [f"w0: the start vector must have a finite nonzero norm, got {size}"]


def projected_power(spec: SpectralMatrix, prior: GenerativePrior, w0, t1: int,
                    proj_cfg: ProjectionConfig | None = None, seed=0,
                    truth=None) -> list[Step]:
    """Run t1 projected power iterations w <- P_G(V w) from w0 (normalized,
    not pre-projected), each offered the last latent as a warm start.  Returns
    the trajectory with its initial state, and correlation and error given truth.
    A w0 of the wrong length or of zero or non-finite norm is a
    ConfigurationError (start_problems)."""
    raise_problems(t1_problems(t1) + start_problems(w0, spec.v.shape[0]))
    w = np.asarray(w0, dtype=float)
    w = w / vector_norm(w)
    states = [Step(w, 0)]
    latent = None
    base = flatten_seed(seed)
    for t in range(1, t1 + 1):
        res = project(prior, spec.v.dot(w), proj_cfg, seed=[base, t], warm_start=latent)
        w, latent = res.point, res.latent
        states.append(Step(w, t))
    return score(states, truth)
