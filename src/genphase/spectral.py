"""Spectral initialization: the weighted second-moment matrix and projected
power iterations.

The matrix V = (1/m) sum_i y_i (a_i a_i^T - I) has expectation nu * x x^T, so
power iterations interleaved with projection onto the prior's range recover
the signal direction.  The starting vector is the column of the shifted
matrix (1/m) sum_i y_i a_i a_i^T with the largest diagonal entry, which is
V's largest diagonal entry too: the shift is uniform.

Building V reads the m x n sensing matrix A once, in row blocks, and
accumulates only the upper block triangle: about (c+1)/(2c) * 2mn^2 flops
for c column blocks (c = 1 up to n = 724, 8 at n = 2000), and memory for A
plus O(n^2) (V and fixed-size blocks), with no m x n temporary.

The build splits its output by column block ("tile"): the tile I gets, for
every row block in order, the GEMMs S[I, I:] += A_b[:, I]^T Y_b[:, I:] (and
the same for G), whichever thread runs it, so V and G have the same bits
for any number of threads.  The tiles are shared greedily, by their work
width * (n - i0), among min(CPUs, tiles) groups, where CPUs counts the CPUs
this process may run on (os.sched_getaffinity, so `taskset` limits them);
the calling thread runs one group and a thread each runs the others.  One
tile (every n <= 724) starts no thread.  While the tiles run, OpenBLAS is
pinned to one thread, through its own *_set_num_threads found with ctypes,
and its previous count is restored after, also on an error.  The pin holds
for the whole process while the build runs, and it makes the build's bits
the same at any OpenBLAS thread count.  Where those calls cannot be found
(another BLAS), the tiles run in the calling thread at the BLAS's own
thread count: threads over a multi-threaded BLAS were slower than its own.
The caller allocates every buffer a worker writes (its Y_b block and its
product tile), since blocks that threads allocate and free stay in glibc's
per-thread arenas and raise the peak memory.

When the caller will run enough refinement steps on the same measurements,
the same pass also accumulates the Gram matrix G = A^T A / m (another n^2
floats and as many flops again).  A refinement step then costs 4n^2 flops
from G and V instead of an m-space step's one streamed pass over A (see
refine.py).  The build pays for G when 2 * refine_steps * (m - n) > m * n,
the flop break-even between one extra 2mn^2 build and saving 4n(m - n) per
step against a 4mn m-space step; it never holds for m <= n.  The streamed
m-space step does 6mn flops, but its time is that of one read of A.

A linear-subspace problem is solved in k+1 coordinates (reduce_to_subspace).
Every projection lands in range(W), so the power and refinement iterates are
x = W z, and the first power step multiplies the start w0 itself, which need
not lie in range(W).  With u the unit residual of w0 off range(W), the basis
W^ = [W | u] spans every iterate and start.  One O(mnk) pass gives
B^ = A W^ (m x (k+1)); V_k = W^T V W^ and G_k = W^T G W^ are built from it
at O(m(k+1)^2), and the exact projector in these coordinates is the one of
the basis eye(k+1, k).  Without u, W^T V W W^T w0 would stand in for
W^T V w0, a different first step.
"""

from __future__ import annotations

import contextvars
import ctypes
import math
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np

from .errors import NumericalError, count_problems, raise_problems
from .links import MeasurementSet
from .priors import GenerativePrior, ProjectionConfig, project
from .runtrace import Step, step_at
from .seeds import flatten_seed


@dataclass
class SpectralMatrix:
    v: np.ndarray             # n x n, exactly symmetric
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
    steps, counting an m-space step as 4mn flops.  A flop rule: the build is
    compute-bound, and the streamed m-space step is bound by its one read
    of A."""
    return 2 * refine_steps * (m - n) > m * n


def _mirror_upper(mat: np.ndarray, starts, width: int) -> None:
    """Copy the upper block triangle of mat onto its lower one, in place."""
    for i0 in starts:
        i1 = i0 + width
        block = mat[i0:i1, i0:i1]
        block[...] = np.triu(block) + np.triu(block, 1).T
        mat[i1:, i0:i1] = mat[i0:i1, i1:].T


@cache
def _openblas_thread_calls():
    """OpenBLAS's (get, set) thread-count functions, or None where numpy's
    bundled OpenBLAS or the symbols cannot be found."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(handle, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                put.argtypes, put.restype = (ctypes.c_int,), None
                return get, put
    return None


@contextmanager
def _one_blas_thread():
    """Pin OpenBLAS to one thread for the block and restore its count after;
    yields whether it could."""
    calls = _openblas_thread_calls()
    if calls is None:
        yield False
        return
    get, put = calls
    saved = get()
    put(1)
    try:
        yield True
    finally:
        put(saved)


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _tile_groups(n: int, width: int, workers: int) -> list[list[int]]:
    """The column-block starts, each given to the group with the least work
    so far; a tile's work is width * (n - i0), largest first."""
    groups = [[] for _ in range(workers)]
    loads = [0] * workers
    for i0 in range(0, n, width):
        g = loads.index(min(loads))
        groups[g].append(i0)
        loads[g] += min(width, n - i0) * (n - i0)
    return groups


def _accumulate(a, y, rows: int, width: int, starts, s, gram, y_buf, prod_buf) -> None:
    """For every row block A_b of a, in order, and every tile I = [i0, i0 +
    width) with i0 in starts: s[I, i0:] += A_b[:, I]^T Y_b[:, i0:], Y_b =
    A_b * y_b, and gram[I, i0:] += A_b[:, I]^T A_b[:, i0:] unless gram is
    None.  Y_b and each product are written into y_buf and prod_buf."""
    n = a.shape[1]
    for r0 in range(0, a.shape[0], rows):
        a_b = a[r0:r0 + rows]
        y_b = y_buf[:len(a_b)]
        # columns left of the first tile are never read
        np.multiply(a_b[:, starts[0]:], y[r0:r0 + rows, None], out=y_b[:, starts[0]:])
        for i0 in starts:
            i1 = min(i0 + width, n)
            prod = prod_buf[:(i1 - i0) * (n - i0)].reshape(i1 - i0, n - i0)
            s[i0:i1, i0:] += np.matmul(a_b[:, i0:i1].T, y_b[:, i0:], out=prod)
            if gram is not None:
                gram[i0:i1, i0:] += np.matmul(a_b[:, i0:i1].T, a_b[:, i0:], out=prod)


def _run_groups(count: int, work) -> None:
    """work(0) in the calling thread and work(g), g = 1 .. count-1, each on
    a thread of its own, with the caller's context; joins every thread
    started and re-raises the first exception raised."""
    errors = []

    def run(g):
        try:
            work(g)
        except BaseException as exc:
            errors.append(exc)

    started = []
    try:
        for g in range(1, count):
            thread = threading.Thread(target=contextvars.copy_context().run, args=(run, g),
                                      name=f"genphase-build-{g}")
            thread.start()
            started.append(thread)
        work(0)
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[0]


def build_spectral_matrix(data: MeasurementSet, refine_steps: int = 0) -> SpectralMatrix:
    """V = (1/m) A^T diag(y) A - ybar I, and G = A^T A / m when
    gram_pays_off(m, n, refine_steps).

    For each row block A_b of A, with Y_b = A_b * y_b, only the upper block
    triangle S[I, J>=I] += A_b[:, I]^T Y_b[:, J>=I] of S = A^T diag(y) A is
    accumulated, one GEMM per column block I (and likewise for A^T A), with
    the column blocks shared among threads (module docstring); S is then
    mirrored and shifted in place.  Raises NumericalError when a diagonal
    entry of S is not finite, which any NaN or infinity in y or A causes.
    """
    a = data.sensing
    y = data.observations
    m, n = data.m, data.n
    rows, width = _block_sizes(n)
    starts = range(0, n, width)
    s = np.zeros((n, n))
    gram = np.zeros((n, n)) if gram_pays_off(m, n, refine_steps) else None
    with _one_blas_thread() as pinned:
        groups = _tile_groups(n, width, min(_cpu_count(), len(starts)) if pinned else 1)
        bufs = [(np.empty((min(rows, m), n)), np.empty(min(width, n) * n)) for _ in groups]
        _run_groups(len(groups), lambda g: _accumulate(a, y, rows, width, groups[g], s, gram,
                                                       *bufs[g]))
    # freed before the mirror allocates: held until the return, they made a
    # one-tile build at n = 100, m = 250 about 1.5 times as slow
    del bufs
    s /= m
    # Exact symmetry by construction: mirror the upper triangle.
    _mirror_upper(s, starts, width)
    if gram is not None:
        gram /= m
        _mirror_upper(gram, starts, width)
    if not np.isfinite(np.diag(s)).all():
        raise NumericalError("spectral matrix is not finite: the measurements "
                             "contain NaN or Inf")
    ybar = float(y.mean())
    s[np.diag_indices(n)] -= ybar
    return SpectralMatrix(v=s, ybar=ybar, gram=gram)


# Bytes of the row blocks A W^ is computed in: a block stays in L2 cache
# across its k+1 GEMVs, so the pass reads A from memory once.  As GEMVs
# (A_b @ w_j) the products gave the same bits at 1 and 2 BLAS threads, where
# A W^ as one GEMM, or as one GEMM per block, did not.
_REDUCE_BYTES = 1 << 20


@dataclass
class SubspaceReduction:
    """A linear-subspace problem in the coordinates z of x = basis @ z."""
    basis: np.ndarray         # n x (k+1), orthonormal columns [W | u] (W alone when u = 0)
    data: MeasurementSet      # sensing A @ basis, signal basis^T x, the same observations
    prior: GenerativePrior    # linear subspace with basis eye(k+1, k)
    spec: SpectralMatrix      # built from data


def _times_columns(a, basis) -> np.ndarray:
    """a @ basis, as one GEMV per column of basis and row block of a."""
    cols = np.ascontiguousarray(basis.T)
    out = np.empty((a.shape[0], cols.shape[0]))
    step = max(1, _REDUCE_BYTES // (8 * a.shape[1]))
    for r0 in range(0, a.shape[0], step):
        a_b = a[r0:r0 + step]
        for j, col in enumerate(cols):
            out[r0:r0 + step, j] = a_b @ col
    return out


def reduce_to_subspace(data: MeasurementSet, prior: GenerativePrior, w0,
                       refine_steps: int = 0) -> SubspaceReduction:
    """The problem of a linear-subspace prior with basis W in the coordinates
    of W^ = [W | u], u the unit residual of the start w0 off range(W)
    (orthogonalized twice), or of W alone when that residual is no larger
    than its rounding error, n * eps * |w0|.  Every start in span(W^) enters
    as W^T start, and an iterate z maps back as W^ z; the reduced spectral
    matrix is build_spectral_matrix of the reduced data, with G_k when
    refine_steps pay for it."""
    w = prior.layers[0]
    w0 = np.asarray(w0, dtype=float)
    resid = w0 - w @ (w0 @ w)
    resid -= w @ (resid @ w)
    size = np.linalg.norm(resid)
    if size > prior.n * np.finfo(float).eps * np.linalg.norm(w0):
        w = np.column_stack((w, resid / size))
    dim = w.shape[1]
    reduced = MeasurementSet(n=dim, m=data.m, signal=data.signal @ w,
                             sensing=_times_columns(data.sensing, w),
                             observations=data.observations, seed=data.seed, link=data.link)
    coords = GenerativePrior("linear-subspace", prior.k, dim, prior.r,
                             [np.eye(dim, prior.k)], prior.seed, 1.0)
    return SubspaceReduction(w, reduced, coords, build_spectral_matrix(reduced, refine_steps))


def shifted_matrix(spec: SpectralMatrix) -> np.ndarray:
    """(1/m) sum_i y_i a_i a_i^T, i.e. V + ybar * I, as a new array."""
    full = spec.v.copy()
    full[np.diag_indices_from(full)] += spec.ybar
    return full


def initial_vector(spec: SpectralMatrix, shifted_full: np.ndarray) -> np.ndarray:
    """Column of the shifted matrix at V's largest diagonal entry, normalized.

    Ties break to the lowest index (argmax convention); an all-zero column
    falls back to e_1.
    """
    j = int(np.argmax(np.diag(spec.v)))
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


def start_problems(w0) -> list:
    """The rule on a start vector, as a list of problems: a finite nonzero
    norm, which the first power step divides by."""
    size = float(np.linalg.norm(w0))
    ok = math.isfinite(size) and size > 0
    return [] if ok else [f"w0: the start vector must have a finite nonzero norm, got {size}"]


def projected_power(spec: SpectralMatrix, prior: GenerativePrior, w0, t1: int,
                    proj_cfg: ProjectionConfig | None = None, seed=0,
                    truth=None) -> list[Step]:
    """Run t1 projected power iterations w <- P_G(V w) from w0 (normalized,
    not pre-projected), each offered the last latent as a warm start.  Returns
    the trajectory with its initial state, and correlation and error given truth.
    A w0 of zero or non-finite norm is a ConfigurationError (start_problems)."""
    raise_problems(t1_problems(t1) + start_problems(w0))
    w = np.asarray(w0, dtype=float)
    w = w / np.linalg.norm(w)
    states = [step_at(w, 0, truth)]
    latent = None
    base = flatten_seed(seed)
    for t in range(1, t1 + 1):
        res = project(prior, spec.v.dot(w), proj_cfg, seed=[base, t], warm_start=latent)
        w, latent = res.point, res.latent
        states.append(step_at(w, t, truth))
    return states
