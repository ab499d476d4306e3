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
every row block in order, the GEMM S[I, I:] += A_b[:, I]^T Y_b[:, I:],
whichever thread runs it, so V has the same bits for any number of
threads.  The tiles are shared greedily, by their work
width * (n - i0), among min(CPUs, tiles) groups, where CPUs counts the CPUs
this process may run on (os.sched_getaffinity, so `taskset` limits them);
the calling thread runs one group and a thread each runs the others.  One
tile (every n <= 724) starts no thread.  While the tiles run, OpenBLAS is
pinned to one thread, through its own *_set_num_threads found with ctypes,
and its previous count is restored after, also on an error; builds that
overlap in several threads restore it once, when the last one ends.  The
pin holds for the whole process while a build runs, and it makes the
build's bits the same at any OpenBLAS thread count.  Where those calls
cannot be found (another BLAS), the tiles run in the calling thread at the
BLAS's own thread count: threads over a multi-threaded BLAS were slower
than its own.
The caller allocates every buffer a worker writes (its Y_b block and its
product tile), since blocks that threads allocate and free stay in glibc's
per-thread arenas and raise the peak memory.

A linear-subspace problem is solved in k+1 coordinates (reduce_to_subspace).
Every projection lands in range(W), so the power and refinement iterates are
x = W z, and the first power step multiplies the start w0 itself, which need
not lie in range(W).  With u the unit residual of w0 off range(W), the basis
W^ = [W | u] spans every iterate and start.  One O(mnk) GEMM gives
B^ = A W^ (m x (k+1)), under the build's one-thread pin, so its bits too
are the same at any OpenBLAS thread count; V_k = W^T V W^ and the Gram
matrix G_k = B^T B^ / m are formed from it at O(m(k+1)^2), and the exact
projector in these coordinates is the one of the basis eye(k+1, k).  The
reduced data then holds B^ column-major: its one reader per step is
APPGD's B^ x (baselines.appgd_step, which keeps its phase term across
steps), a GEMV that ran 1.4 to 2.3 times as fast in that layout at
(m, k+1) from (250, 6) to (16000, 11).  V_k and G_k are formed before the
copy, from the row-major product, which keeps their bits: a V_k built on
the column-major copy differed at (m, k+1) = (37, 4).  With G_k a
refinement step costs O((k+1)^2) instead of a pass over B^: one GEMV with
[G_k; M_k] (SpectralMatrix.stack, refine.py).  The n-space build
forms no Gram matrix, whose n^2 floats and 2mn^2 flops a relu-mlp solve's
steps did not measurably win back.  Without u, W^T V W W^T w0 would stand
in for W^T V w0, a different first step.
"""

from __future__ import annotations

import contextvars
import ctypes
import math
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import cache
from pathlib import Path

import numpy as np

from .errors import NumericalError, count_problems, raise_problems
from .links import MeasurementSet
from .priors import GenerativePrior, ProjectionConfig, project, vector_norm
from .runtrace import Step, step_at
from .seeds import flatten_seed


@dataclass(frozen=True)
class SpectralMatrix:
    """V, the mean observation and, when given, the Gram matrix G with the
    stack [G; M] (2n x n), M = V + ybar (I - G) = (1/m) A^T diag(y - ybar) A,
    formed at construction: one GEMV with it gives G x and M x, all of an
    n-space refinement step's products (refine.py).  Frozen, so the stack
    always matches v, ybar and gram; their arrays are not changed in place."""
    v: np.ndarray             # n x n, exactly symmetric
    ybar: float
    gram: np.ndarray | None = None  # A^T A / m, exactly symmetric (reduce_to_subspace)
    stack: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        g = self.gram
        if g is not None:
            moments = self.v + self.ybar * (np.eye(len(g)) - g)
            object.__setattr__(self, "stack", np.vstack((g, moments)))


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


# The open pins and the count the first of them saved; the lock guards these
# two names only, never a build.
_pin_lock = threading.Lock()
_pins, _pin_saved = 0, 0


@contextmanager
def _one_blas_thread():
    """Pin OpenBLAS to one thread for the block; yields whether it could.
    The first of overlapping pins saves the count and the last one out
    restores it, also on an error."""
    global _pins, _pin_saved
    calls = _openblas_thread_calls()
    if calls is None:
        yield False
        return
    get, put = calls
    with _pin_lock:
        if _pins == 0:
            _pin_saved = get()
            put(1)
        _pins += 1
    try:
        yield True
    finally:
        with _pin_lock:
            _pins -= 1
            if _pins == 0:
                put(_pin_saved)


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


def _accumulate(a, y, rows: int, width: int, starts, s, y_buf, prod_buf) -> None:
    """For every row block A_b of a, in order, and every tile I = [i0, i0 +
    width) with i0 in starts: s[I, i0:] += A_b[:, I]^T Y_b[:, i0:], Y_b =
    A_b * y_b.  Y_b and each product are written into y_buf and prod_buf."""
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


def build_spectral_matrix(data: MeasurementSet) -> SpectralMatrix:
    """V = (1/m) A^T diag(y) A - ybar I, without a Gram matrix.

    For each row block A_b of A, with Y_b = A_b * y_b, only the upper block
    triangle S[I, J>=I] += A_b[:, I]^T Y_b[:, J>=I] of S = A^T diag(y) A is
    accumulated, one GEMM per column block I, with the column blocks shared
    among threads (module docstring); S is then mirrored and shifted in
    place.  Raises NumericalError when a diagonal entry of S is not finite,
    which any NaN or infinity in y or A causes.
    """
    a = data.sensing
    y = data.observations
    m, n = data.m, data.n
    rows, width = _block_sizes(n)
    starts = range(0, n, width)
    s = np.zeros((n, n))
    with _one_blas_thread() as pinned:
        groups = _tile_groups(n, width, min(_cpu_count(), len(starts)) if pinned else 1)
        bufs = [(np.empty((min(rows, m), n)), np.empty(min(width, n) * n)) for _ in groups]
        _run_groups(len(groups), lambda g: _accumulate(a, y, rows, width, groups[g], s, *bufs[g]))
    # freed before the mirror allocates: held until the return, they made a
    # one-tile build at n = 100, m = 250 about 1.5 times as slow
    del bufs
    s /= m
    # Exact symmetry by construction: mirror the upper triangle.
    _mirror_upper(s, starts, width)
    if not np.isfinite(np.diag(s)).all():
        raise NumericalError("spectral matrix is not finite: the measurements "
                             "contain NaN or Inf")
    ybar = float(y.mean())
    s[np.diag_indices(n)] -= ybar
    return SpectralMatrix(v=s, ybar=ybar)


@dataclass
class SubspaceReduction:
    """A linear-subspace problem in the coordinates z of x = basis @ z."""
    basis: np.ndarray         # n x (k+1), orthonormal columns [W | u] (W alone when u = 0)
    data: MeasurementSet      # sensing A @ basis (column-major), signal basis^T x, same y
    prior: GenerativePrior    # linear subspace with basis eye(k+1, k)
    spec: SpectralMatrix      # built from data, with its Gram matrix


def reduce_to_subspace(data: MeasurementSet, prior: GenerativePrior, w0) -> SubspaceReduction:
    """The problem of a linear-subspace prior with basis W in the coordinates
    of W^ = [W | u], u the unit residual of the start w0 off range(W)
    (orthogonalized twice), or of W alone when that residual is no larger
    than its rounding error, n * eps * |w0|.  Every start in span(W^) enters
    as W^T start, and an iterate z maps back as W^ z.  The reduced sensing
    matrix B^ = A W^ and its Gram matrix B^T B^ / m are products with
    OpenBLAS pinned to one thread, and the reduced spectral matrix is
    build_spectral_matrix of the reduced data with that Gram matrix, so it
    carries the moment stack formed with its own ybar.
    The reduced data holds B^ column-major (np.asfortranarray of the
    product, the same floats), for APPGD's B^ x (module docstring)."""
    w = prior.layers[0]
    w0 = np.asarray(w0, dtype=float)
    resid = w0 - w @ (w0 @ w)
    resid -= w @ (resid @ w)
    size = vector_norm(resid)
    if size > prior.n * np.finfo(float).eps * vector_norm(w0):
        w = np.column_stack((w, resid / size))
    dim = w.shape[1]
    with _one_blas_thread():
        sensing = data.sensing @ w
        gram = sensing.T @ sensing / data.m   # numpy's SYRK path: exactly symmetric
    reduced = MeasurementSet(n=dim, m=data.m, signal=data.signal @ w, sensing=sensing,
                             observations=data.observations, seed=data.seed, link=data.link)
    coords = GenerativePrior("linear-subspace", prior.k, dim, prior.r,
                             [np.eye(dim, prior.k)], prior.seed, 1.0)
    spec = replace(build_spectral_matrix(reduced), gram=gram)
    reduced.sensing = np.asfortranarray(sensing)
    return SubspaceReduction(w, reduced, coords, spec)


def shifted_matrix(spec: SpectralMatrix) -> np.ndarray:
    """(1/m) sum_i y_i a_i a_i^T, i.e. V + ybar * I, as a new array."""
    full = spec.v.copy()
    full[np.diag_indices_from(full)] += spec.ybar
    return full


def initial_vector(spec: SpectralMatrix, shifted_full: np.ndarray) -> np.ndarray:
    """Column of the shifted matrix at V's largest diagonal entry, normalized.

    Ties break to the lowest index (argmax convention); an all-zero column
    falls back to e_1, and a column whose norm overflows (finite entries from
    about 1e154) is a NumericalError.
    """
    j = int(np.argmax(np.diag(spec.v)))
    col = np.array(shifted_full[:, j], dtype=float)
    nc = np.linalg.norm(col)
    if not math.isfinite(nc):
        raise NumericalError(f"spectral start overflows: the norm of its column {j} is {nc}")
    if nc == 0:
        col = np.zeros(shifted_full.shape[0])
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
    states = [step_at(w, 0, truth)]
    latent = None
    base = flatten_seed(seed)
    for t in range(1, t1 + 1):
        res = project(prior, spec.v.dot(w), proj_cfg, seed=[base, t], warm_start=latent)
        w, latent = res.point, res.latent
        states.append(step_at(w, t, truth))
    return states
