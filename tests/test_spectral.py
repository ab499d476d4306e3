import dataclasses
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from genphase import (ConfigurationError, LinkModel, MeasurementSet,
                      NumericalError, SpectralMatrix, build_spectral_matrix, evaluate,
                      initial_vector, linear_subspace_prior, projected_power,
                      run_algorithm, sample_measurements, shifted_matrix)
from genphase import spectral

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def _manual_set(sensing, y):
    sensing = np.asarray(sensing, dtype=float)
    y = np.asarray(y, dtype=float)
    n = sensing.shape[1]
    x = np.zeros(n)
    x[0] = 1.0
    return MeasurementSet(n=n, m=sensing.shape[0], signal=x, sensing=sensing,
                          observations=y, seed=0, link=LinkModel("linear"))


def test_build_all_zero_observations():
    data = _manual_set(np.random.default_rng(0).standard_normal((5, 3)), np.zeros(5))
    spec = build_spectral_matrix(data)
    assert np.array_equal(spec.v, np.zeros((3, 3)))
    assert spec.ybar == 0.0


def test_build_single_measurement_formula():
    # m=1, a=e1, y=2: shifted = 2 e1 e1^T, ybar=2, V = diag(0, -2)
    data = _manual_set([[1.0, 0.0]], [2.0])
    spec = build_spectral_matrix(data)
    assert np.array_equal(spec.v, np.diag([0.0, -2.0]))
    assert np.array_equal(shifted_matrix(data).diag, np.array([2.0, 0.0]))
    assert spec.ybar == 2.0


def test_matrix_exactly_symmetric():
    x = np.zeros(8)
    x[0] = 1.0
    data = sample_measurements(LinkModel("abs-noise-out", 0.1), x, 500, seed=1)
    spec = build_spectral_matrix(data)
    assert np.array_equal(spec.v, spec.v.T)


def test_shifted_matrix_consistency():
    x = np.zeros(6)
    x[0] = 1.0
    data = sample_measurements(LinkModel("square-noise", 0.2), x, 300, seed=2)
    spec = build_spectral_matrix(data)
    diag = shifted_matrix(data).diag
    assert np.allclose(diag, _naive_diag_shifted(data), atol=1e-12)
    assert np.allclose(diag - spec.ybar, np.diag(spec.v), atol=1e-12)


def _naive_diag_shifted(data):
    """The diagonal of (1/m) sum_i y_i a_i a_i^T: the mean of y * a^2."""
    return np.mean(data.observations[:, None] * data.sensing ** 2, axis=0)


def _naive_v(data):
    a, y = data.sensing, data.observations
    return a.T @ (a * y[:, None]) / data.m - y.mean() * np.eye(data.n)


def _random_set(m, n, seed, zero_frac=0.0):
    # mixed-sign observations, a share of them exactly zero
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(m) + 0.3
    y[rng.random(m) < zero_frac] = 0.0
    return _manual_set(rng.standard_normal((m, n)), y)


def _check_against_naive(data):
    spec = build_spectral_matrix(data)
    ref = _naive_v(data)
    assert np.abs(spec.v - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.array_equal(spec.v, spec.v.T)
    assert spec.ybar == data.observations.mean()
    # shifting V's diagonal back by ybar gives the naive shifted diagonal,
    # and so does the diagonal read from the data in its own row blocks
    full = spec.v + spec.ybar * np.eye(data.n)
    ref_diag = _naive_diag_shifted(data)
    assert np.abs(np.diag(full) - ref_diag).max() <= 1e-12 * np.abs(ref_diag).max()
    diag = shifted_matrix(data).diag
    assert np.abs(diag - ref_diag).max() <= 1e-12 * np.abs(ref_diag).max()
    off = ~np.eye(data.n, dtype=bool)
    assert np.array_equal(full[off], spec.v[off])
    return spec


def test_block_sizes_single_block_at_small_n():
    # n=100 (the sweep workloads) is one column block and, up to m=10485,
    # one row block: the build is then a single GEMM
    rows, width = spectral._block_sizes(100)
    assert width >= 100 and rows >= 10485
    assert spectral._block_sizes(2000) == (524, 262)


@pytest.mark.parametrize("m", [1, 5, 16, 50, 64])
def test_build_matches_naive_across_row_blocks(monkeypatch, m):
    # n=20: 16 rows per row block and 3 column blocks (8, 8, 4); m below one
    # block, exactly one, not a multiple of the block, and several blocks
    monkeypatch.setattr(spectral, "_BLOCK_BYTES", 8 * 20 * 16)
    assert spectral._block_sizes(20) == (16, 8)
    _check_against_naive(_random_set(m, 20, seed=m, zero_frac=0.2))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_build_matches_naive_one_row_and_column_per_block(monkeypatch, n):
    monkeypatch.setattr(spectral, "_BLOCK_BYTES", 8)
    assert spectral._block_sizes(n) == (1, 1)
    _check_against_naive(_random_set(9, n, seed=n, zero_frac=0.3))


@pytest.mark.parametrize("m,n", [(300, 100), (11000, 100), (700, 800)])
def test_build_matches_naive_default_blocks(m, n):
    # one block; several row blocks of one column block; two column blocks
    _check_against_naive(_random_set(m, n, seed=m + n, zero_frac=0.1))


def test_build_without_refine_steps_has_no_gram():
    assert build_spectral_matrix(_random_set(2000, 20, seed=7)).gram is None


def test_build_single_block_equals_one_gemm():
    data = _random_set(400, 30, seed=4)
    a, y = data.sensing, data.observations
    shifted = a.T @ (a * y[:, None]) / data.m
    shifted = np.triu(shifted) + np.triu(shifted, 1).T
    spec = build_spectral_matrix(data)
    assert np.array_equal(spec.v, shifted - spec.ybar * np.eye(30))


@pytest.mark.parametrize("where,bad", [("y", np.nan), ("y", np.inf),
                                       ("a", np.nan), ("a", -np.inf)])
@pytest.mark.parametrize("blocked", [False, True])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_build_rejects_non_finite_data(monkeypatch, where, bad, blocked):
    if blocked:
        monkeypatch.setattr(spectral, "_BLOCK_BYTES", 8 * 20 * 16)
    data = _random_set(50, 20, seed=6)
    data.observations[33] = 0.0   # a bad sensing entry meets a zero observation
    if where == "y":
        data.observations[40] = bad
    else:
        data.sensing[33, 17] = bad
    # the start's diagonal, read in its own row blocks, fails the same way
    for read in (build_spectral_matrix, shifted_matrix):
        with pytest.raises(NumericalError, match="spectral matrix is not finite"):
            read(data)


def test_an_empty_measurement_set_is_a_configuration_error():
    # refused before any mean over the measurements divides by m = 0
    data = _manual_set(np.zeros((0, 4)), [])
    prior = linear_subspace_prior(2, 4, seed=0)
    for read in (build_spectral_matrix, shifted_matrix,
                 lambda data: run_algorithm("mprg", data, prior)):
        with pytest.raises(ConfigurationError, match="need at least one measurement"):
            read(data)


requires_openblas = pytest.mark.skipif(spectral._openblas_thread_calls() is None,
                                       reason="needs numpy's bundled OpenBLAS")


@pytest.fixture
def three_tiles(monkeypatch):
    # n = 20 in column blocks of 8, 8 and 4 and row blocks of 16
    monkeypatch.setattr(spectral, "_BLOCK_BYTES", 8 * 20 * 16)
    assert spectral._block_sizes(20) == (16, 8)


def _record_tiles(monkeypatch):
    """Record, per _accumulate call of the builds that follow, its tile
    starts, its thread and the OpenBLAS thread count it ran at."""
    real, seen = spectral._accumulate, []

    def spy(a, y, rows, width, starts, *rest):
        calls = spectral._openblas_thread_calls()
        seen.append((list(starts), threading.current_thread(), calls and calls[0]()))
        real(a, y, rows, width, starts, *rest)

    monkeypatch.setattr(spectral, "_accumulate", spy)
    return seen


def _fail_on_thread_start(monkeypatch):
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: pytest.fail("the build started a thread"))


@requires_openblas
def test_every_tile_runs_in_the_calling_thread(three_tiles, monkeypatch):
    seen = _record_tiles(monkeypatch)
    _fail_on_thread_start(monkeypatch)
    build_spectral_matrix(_random_set(50, 20, seed=5))
    assert seen == [([0, 8, 16], threading.current_thread(), 1)]


class _BuildFailure(Exception):
    pass


@requires_openblas
def test_a_build_error_reaches_the_caller_and_leaves_no_thread(three_tiles, monkeypatch):
    def accumulate(*args):
        raise _BuildFailure("tiles")

    monkeypatch.setattr(spectral, "_accumulate", accumulate)
    get = spectral._openblas_thread_calls()[0]
    before, count = threading.enumerate(), get()
    with pytest.raises(_BuildFailure, match="tiles"):
        build_spectral_matrix(_random_set(50, 20, seed=3))
    assert threading.enumerate() == before and get() == count


@requires_openblas
def test_build_without_openblas_thread_calls_runs_in_the_caller(three_tiles, monkeypatch):
    data = _random_set(50, 20, seed=12, zero_frac=0.2)
    ref = build_spectral_matrix(data)
    # the pin that the fallback cannot make, made for it: the same bits at one thread
    with spectral._one_blas_thread():
        seen = _record_tiles(monkeypatch)
        monkeypatch.setattr(spectral, "_openblas_thread_calls", lambda: None)
        _fail_on_thread_start(monkeypatch)
        spec = build_spectral_matrix(data)
    assert seen == [([0, 8, 16], threading.current_thread(), None)]
    assert np.array_equal(spec.v, ref.v)


def test_overlapping_pins_restore_the_count_once(monkeypatch):
    # two builds in two threads: A pins, B pins, A ends, B ends with an
    # error; the count stays at one until both are out, then is restored
    count, sets = [2], []

    def put(threads):
        sets.append(threads)
        count[0] = threads

    monkeypatch.setattr(spectral, "_openblas_thread_calls", lambda: (lambda: count[0], put))
    first, second = spectral._one_blas_thread(), spectral._one_blas_thread()
    first.__enter__()
    second.__enter__()
    assert count == [1]
    first.__exit__(None, None, None)
    assert count == [1]
    assert not second.__exit__(_BuildFailure, _BuildFailure("build"), None)
    assert count == [2] and sets == [1, 2]
    with spectral._one_blas_thread():
        assert count == [1]
    assert count == [2] and sets == [1, 2, 1, 2]


# A three-tile build and one that raises NumericalError, at OPENBLAS_NUM_THREADS=2.
_BLAS_RESTORE_SCRIPT = """
import numpy as np
from genphase import LinkModel, MeasurementSet, NumericalError, build_spectral_matrix, spectral
get = spectral._openblas_thread_calls()[0]
counts = [get()]
spectral._BLOCK_BYTES = 8 * 20 * 16
rng = np.random.default_rng(0)
x = np.eye(20)[0]
data = MeasurementSet(n=20, m=50, signal=x, sensing=rng.standard_normal((50, 20)),
                      observations=rng.standard_normal(50), seed=0, link=LinkModel("linear"))
build_spectral_matrix(data)
counts.append(get())
data.observations[7] = np.nan
try:
    build_spectral_matrix(data)
except NumericalError:
    counts.append(get())
print(*counts)
"""


@requires_openblas
def test_build_restores_the_blas_thread_count():
    out = subprocess.run([sys.executable, "-c", _BLAS_RESTORE_SCRIPT], capture_output=True,
                         text=True, check=True, env=_env_with_src(OPENBLAS_NUM_THREADS="2"))
    assert out.stdout.split() == ["2", "2", "2"]


# A build at n = 800, two column tiles at the default blocks, from 1500 x 800
# data (9.6 MB), large enough for OpenBLAS to split an unpinned product
# across threads.  The data is drawn directly: sample_measurements' A x is
# not pinned, so its observations may differ with the thread count.
_BUILD_THREADS_SCRIPT = """
import hashlib
import sys
import numpy as np
from genphase import LinkModel, MeasurementSet, build_spectral_matrix, spectral
assert len(range(0, 800, spectral._block_sizes(800)[1])) == 2
rng = np.random.default_rng(9)
data = MeasurementSet(n=800, m=1500, signal=np.eye(800)[0],
                      sensing=rng.standard_normal((1500, 800)),
                      observations=rng.standard_normal(1500), seed=0, link=LinkModel("linear"))
sys.stdout.write(hashlib.sha256(build_spectral_matrix(data).v.tobytes()).hexdigest())
"""


def test_multi_tile_build_ignores_the_blas_thread_count():
    outs = [subprocess.run([sys.executable, "-c", _BUILD_THREADS_SCRIPT], capture_output=True,
                           text=True, check=True,
                           env=_env_with_src(OPENBLAS_NUM_THREADS=str(threads))).stdout
            for threads in (1, 2)]
    assert outs[0] and outs[0] == outs[1]


def _env_with_src(**extra):
    """The environment with src/ on PYTHONPATH, plus extra."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def _subspace_problem(k, n, m, seed=0):
    """A linear-subspace prior, measurements of a range signal and a unit
    start off the range."""
    prior = linear_subspace_prior(k, n, seed=seed)
    x = evaluate(prior, np.random.default_rng(seed + 1).standard_normal(k))
    data = sample_measurements(LinkModel("abs-noise-out", 0.1), x, m, seed=seed + 2)
    w0 = np.random.default_rng(seed + 3).standard_normal(n)
    return prior, data, w0 / np.linalg.norm(w0)


def _reduced_spec(red):
    """The spectral matrix a subspace cell solves with: built on the reduced
    data, with the reduction's Gram matrix."""
    return dataclasses.replace(build_spectral_matrix(red.data), gram=red.gram)


def test_reduce_to_subspace_is_the_problem_in_basis_coordinates(monkeypatch):
    # W^ = [W | u]: orthonormal, W first, and w0 in its span; the reduced
    # sensing, signal and spectral matrices are A W^, W^T x, W^T V W^ and
    # W^T G W^, and the reduction itself builds no spectral matrix
    prior, data, w0 = _subspace_problem(3, 12, 37)
    monkeypatch.setattr(spectral, "build_spectral_matrix",
                        lambda data: pytest.fail("the reduction built a spectral matrix"))
    red = spectral.reduce_to_subspace(data, prior, w0)
    basis, w = red.basis, prior.layers[0]
    assert basis.shape == (12, 4) and np.array_equal(basis[:, :3], w)
    assert np.allclose(basis.T @ basis, np.eye(4), atol=1e-15, rtol=0)
    assert np.linalg.norm(basis @ (w0 @ basis) - w0) <= 1e-15
    assert (red.data.m, red.data.n) == (37, 4)
    assert red.data.observations is data.observations
    assert np.allclose(red.data.sensing, data.sensing @ basis, atol=1e-14, rtol=0)
    assert np.allclose(red.data.signal, data.signal @ basis, atol=1e-15, rtol=0)
    full, reduced = build_spectral_matrix(data), _reduced_spec(red)
    assert reduced.ybar == full.ybar
    assert np.allclose(reduced.v, basis.T @ full.v @ basis, atol=1e-13, rtol=0)
    gram = data.sensing.T @ data.sensing / data.m
    assert np.allclose(red.gram, basis.T @ gram @ basis, atol=1e-13, rtol=0)
    assert red.prior.kind == "linear-subspace" and (red.prior.k, red.prior.n) == (3, 4)
    assert np.array_equal(red.prior.layers[0], np.eye(4, 3)) and red.prior.r == prior.r


@pytest.mark.parametrize("k,n,m,in_range", [(3, 12, 37, False), (3, 12, 2, False),
                                            (5, 100, 4000, False), (4, 30, 90, True)])
def test_reduced_spec_carries_the_gram_of_the_reduced_sensing(k, n, m, in_range):
    # the one place a Gram matrix is formed: G_k = B^T B^ / m for B^ = A W^,
    # at every m (also m <= k+1), with or without the residual column
    prior, data, w0 = _subspace_problem(k, n, m)
    red = spectral.reduce_to_subspace(data, prior, prior.layers[0][:, 0] if in_range else w0)
    b = red.data.sensing
    assert b.shape == (m, k + (not in_range))
    assert np.array_equal(red.gram, b.T @ b / m)
    assert np.array_equal(red.gram, red.gram.T)


def test_spectral_matrix_forms_its_stack_at_construction():
    # with a Gram matrix G the stack [G; M], M = V + ybar (I - G), is there
    # from the start; without one there is none, and no field can be
    # reassigned
    rng = np.random.default_rng(3)
    b, c = rng.standard_normal((4, 4)), rng.standard_normal((9, 4))
    v, gram = b + b.T, c.T @ c / 9
    spec = SpectralMatrix(v, 0.75, gram)
    assert np.array_equal(spec.stack, np.vstack((gram, v + 0.75 * (np.eye(4) - gram))))
    assert SpectralMatrix(v, 0.75).stack is None
    for name in ("v", "ybar", "gram", "stack"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(spec, name, None)


def test_reduced_spec_carries_the_stack_of_its_own_ybar():
    # [G; M], M = V + ybar (I - G) = (1/m) B^T diag(y - ybar) B^, with the
    # spec's ybar, the mean observation
    prior, data, w0 = _subspace_problem(5, 100, 250)
    red = spectral.reduce_to_subspace(data, prior, w0)
    spec, b, y = _reduced_spec(red), red.data.sensing, red.data.observations
    ybar = spec.ybar
    assert ybar == float(y.mean())
    stack = spec.stack
    assert stack.shape == (12, 6)
    assert np.array_equal(stack[:6], spec.gram)
    assert np.array_equal(stack[6:], spec.v + ybar * (np.eye(6) - spec.gram))
    assert np.array_equal(stack[6:], stack[6:].T)
    assert np.allclose(stack[6:], b.T @ ((y - ybar)[:, None] * b) / 250, rtol=0, atol=1e-13)


@pytest.mark.parametrize("k,n,m", [(3, 12, 37), (5, 100, 250), (5, 100, 4000)])
def test_reduced_sensing_is_column_major_with_the_bits_of_the_product(k, n, m):
    # APPGD reads B^ = A W^ column-major; the build reads it row-major, so
    # V_k has the bits of the row-major product's, which a build on the
    # column-major array did not at (37, 4)
    prior, data, w0 = _subspace_problem(k, n, m)
    red = spectral.reduce_to_subspace(data, prior, w0)
    b = red.data.sensing
    assert b.flags.f_contiguous and not b.flags.c_contiguous
    with spectral._one_blas_thread():
        product = data.sensing @ red.basis
    assert np.array_equal(b, product)
    row_major = MeasurementSet(n=red.data.n, m=m, signal=red.data.signal, sensing=product,
                               observations=data.observations, seed=data.seed, link=data.link)
    assert np.array_equal(build_spectral_matrix(red.data).v, build_spectral_matrix(row_major).v)


def test_reduce_to_subspace_drops_a_zero_residual():
    # a start in range(W) has no residual to keep: the basis is W itself
    prior, data, _ = _subspace_problem(3, 12, 37)
    w = prior.layers[0]
    red = spectral.reduce_to_subspace(data, prior, w[:, 0])
    assert np.array_equal(red.basis, w)
    assert red.data.sensing.shape == (37, 3) and red.data.n == 3
    assert np.array_equal(red.prior.layers[0], np.eye(3))


def test_reduce_to_subspace_takes_a_start_whose_square_overflows():
    # 1e200 w0, which start_problems and the power phase accept, warned
    # "overflow encountered in dot" in the two norms; its basis is w0's
    prior, data, w0 = _subspace_problem(3, 12, 37)
    red, big = (spectral.reduce_to_subspace(data, prior, scale * w0) for scale in (1.0, 1e200))
    assert big.basis.shape == (12, 4)
    assert np.allclose(big.basis, red.basis, rtol=0, atol=1e-14)


# A W^ with A 3000 x 500, large enough for OpenBLAS to split an unpinned
# product across threads.
_REDUCE_THREADS_SCRIPT = """
import sys
import numpy as np
from genphase import LinkModel, build_spectral_matrix, evaluate, linear_subspace_prior, \
    sample_measurements
from genphase.spectral import reduce_to_subspace
prior = linear_subspace_prior(5, 500, seed=2)
x = evaluate(prior, np.random.default_rng(1).standard_normal(5))
data = sample_measurements(LinkModel("abs-noise-out", 0.1), x, 3000, seed=9)
w0 = np.random.default_rng(2).standard_normal(500)
red = reduce_to_subspace(data, prior, w0 / np.linalg.norm(w0))
out = (red.basis, red.data.sensing, red.data.signal, build_spectral_matrix(red.data).v, red.gram)
sys.stdout.write(b"".join(a.tobytes() for a in out).hex())
"""


def test_reduction_ignores_the_blas_thread_count():
    outs = [subprocess.run([sys.executable, "-c", _REDUCE_THREADS_SCRIPT], capture_output=True,
                           text=True, check=True,
                           env=_env_with_src(OPENBLAS_NUM_THREADS=str(threads))).stdout
            for threads in (1, 2)]
    assert outs[0] and outs[0] == outs[1]


def test_reduction_multiplies_at_one_blas_thread(monkeypatch):
    # every product with A runs with OpenBLAS pinned to one thread, and the
    # count is restored once the reduction returns
    count, seen = [2], []
    monkeypatch.setattr(spectral, "_openblas_thread_calls",
                        lambda: (lambda: count[0], lambda threads: count.__setitem__(0, threads)))

    class Recording(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                seen.append(count[0])
            return getattr(ufunc, method)(*(np.asarray(a) for a in inputs), **kwargs)

    prior, data, w0 = _subspace_problem(3, 12, 37)
    sensing = data.sensing
    data.sensing = sensing.view(Recording)
    red = spectral.reduce_to_subspace(data, prior, w0)
    assert seen == [1] and count == [2]
    assert np.array_equal(red.data.sensing, sensing @ red.basis)


def test_spectral_concentration_single_seed():
    # ||V - nu x x^T||_op small at m = 1e5, n = 10, abs link (nu = sqrt(2/pi))
    x = np.zeros(10)
    x[0] = 1.0
    data = sample_measurements(LinkModel("abs-noise-out", 0.0), x, 10**5, seed=7)
    spec = build_spectral_matrix(data)
    dev = np.linalg.norm(spec.v - SQRT_2_OVER_PI * np.outer(x, x), 2)
    assert dev <= 0.05


def test_initial_vector_argmax_column():
    # rows (1, 0.5) and (0, 1) with y = (2, 4): S = [[1, 0.5], [0.5, 2.25]],
    # whose larger diagonal entry picks its column 1
    data = _manual_set([[1.0, 0.5], [0.0, 1.0]], [2.0, 4.0])
    w0 = initial_vector(shifted_matrix(data))
    col = np.array([0.5, 2.25])
    assert np.allclose(w0, col / np.linalg.norm(col), rtol=0, atol=1e-15)


def test_initial_vector_tie_breaks_low_index():
    # rows e_1, e_2 and (0.5, 0, 1) with y = (1.75, 2, 1): diag(S) = (2, 2, 1) / 3,
    # a tie the first column, (2, 0, 0.5) / 3, wins
    data = _manual_set([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.0, 1.0]], [1.75, 2.0, 1.0])
    shifted = shifted_matrix(data)
    assert np.array_equal(shifted.diag, np.array([2.0, 2.0, 1.0]) / 3)
    col = np.array([2.0, 0.0, 0.5]) / 3
    assert np.array_equal(initial_vector(shifted), col / np.linalg.norm(col))


def test_initial_vector_zero_column_fallback():
    data = _manual_set(np.random.default_rng(0).standard_normal((4, 3)), np.zeros(4))
    w0 = initial_vector(shifted_matrix(data))
    assert np.array_equal(w0, np.array([1.0, 0.0, 0.0]))


def test_initial_vector_norm_overflow_is_a_numerical_error():
    # rows (1, 1) and (0, 1) with y = (2c, 2): column 0 of S is (c, c), whose
    # norm overflows from about c = 1e154, which made the start all zeros; a
    # column just under that keeps its bits
    under = _manual_set([[1.0, 1.0], [0.0, 1.0]], [2e150, 2.0])
    col = np.array([1e150, 1e150])
    assert np.array_equal(initial_vector(shifted_matrix(under)), col / np.linalg.norm(col))
    over = _manual_set([[1.0, 1.0], [0.0, 1.0]], [2e200, 2.0])
    shifted = shifted_matrix(over)
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(NumericalError, match="spectral start overflows"):
            initial_vector(shifted)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_initial_vector_column_is_the_naive_argmax(seed):
    # the start column is where the naive mean(y * a^2) peaks, V's diagonal
    # shifted by ybar, and it is column j of S read from the data
    data = _random_set(300, 25, seed=20 + seed)
    a, y = data.sensing, data.observations
    j = int(np.argmax(_naive_diag_shifted(data)))
    col = (y * a[:, j]) @ a / data.m
    assert np.array_equal(initial_vector(shifted_matrix(data)), col / np.linalg.norm(col))
    full = build_spectral_matrix(data)
    assert j == int(np.argmax(np.diag(full.v)))
    assert np.allclose(col, full.v[:, j] + full.ybar * (np.arange(25) == j), rtol=0,
                       atol=1e-14 * np.abs(col).max())


# A start read from 4000 x 300 data (9.6 MB), large enough for OpenBLAS to
# split an unpinned product across threads.
_START_THREADS_SCRIPT = """
import sys
import numpy as np
from genphase import LinkModel, initial_vector, sample_measurements, shifted_matrix
x = np.random.default_rng(1).standard_normal(300)
data = sample_measurements(LinkModel("abs-noise-out", 0.1), x / np.linalg.norm(x), 4000, seed=9)
shifted = shifted_matrix(data)
sys.stdout.write((shifted.diag.tobytes() + initial_vector(shifted).tobytes()).hex())
"""


def test_start_ignores_the_blas_thread_count():
    outs = [subprocess.run([sys.executable, "-c", _START_THREADS_SCRIPT], capture_output=True,
                           text=True, check=True,
                           env=_env_with_src(OPENBLAS_NUM_THREADS=str(threads))).stdout
            for threads in (1, 2)]
    assert outs[0] and outs[0] == outs[1]


def test_initial_vector_mean_correlation():
    # with x = e1 the top shifted-diagonal entry marks the signal coordinate
    x = np.zeros(20)
    x[0] = 1.0
    link = LinkModel("abs-noise-out", 0.0)
    corr = []
    for seed in range(20):
        data = sample_measurements(link, x, 5000, seed=100 + seed)
        corr.append(x @ initial_vector(shifted_matrix(data)))
    assert np.mean(corr) >= 0.5


def _range_signal(prior, latent_seed=0):
    z = np.random.default_rng(latent_seed).standard_normal(prior.k)
    x = evaluate(prior, z)
    if x[int(np.argmax(np.abs(x)))] < 0:
        x = -x
    return x


def test_projected_power_rank_one_one_step():
    # exact rank-one V = nu x x^T with x in the range: one projected power
    # iteration from any positively-correlated start lands on x
    prior = linear_subspace_prior(5, 30, seed=1)
    x = _range_signal(prior, latent_seed=3)
    v = 0.8 * np.outer(x, x)
    spec = SpectralMatrix(v=v, ybar=0.0)
    w0 = x + 0.3 * np.random.default_rng(4).standard_normal(30)
    assert x @ w0 > 0
    states = projected_power(spec, prior, w0, 1, truth=x)
    assert np.linalg.norm(states[-1].iterate - x) <= 1e-9


def test_projected_power_identity_fixed_point():
    prior = linear_subspace_prior(5, 30, seed=1)
    x = _range_signal(prior, latent_seed=5)
    spec = SpectralMatrix(v=np.eye(30), ybar=0.0)
    states = projected_power(spec, prior, x, 3)
    for s in states:
        assert np.allclose(s.iterate, x, atol=1e-9)


def test_projected_power_trajectory_contract():
    prior = linear_subspace_prior(5, 100, seed=2)
    x = _range_signal(prior, latent_seed=1)
    data = sample_measurements(LinkModel("abs-noise-out", 0.0), x, 1000, seed=11)
    spec = build_spectral_matrix(data)
    w0 = initial_vector(shifted_matrix(data))
    states = projected_power(spec, prior, w0, 20, truth=x)
    assert len(states) == 21
    assert [s.t for s in states] == list(range(21))
    for s in states:
        assert np.linalg.norm(s.iterate) == pytest.approx(1.0, abs=1e-9)
        assert s.error == pytest.approx(np.linalg.norm(s.iterate - x), abs=1e-12)


def test_projected_power_determinism():
    prior = linear_subspace_prior(5, 50, seed=2)
    x = _range_signal(prior, latent_seed=2)
    data = sample_measurements(LinkModel("square-sin", 0.1), x, 500, seed=12)
    spec = build_spectral_matrix(data)
    w0 = initial_vector(shifted_matrix(data))
    a = projected_power(spec, prior, w0, 10, seed=3, truth=x)
    b = projected_power(spec, prior, w0, 10, seed=3, truth=x)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.iterate, sb.iterate)


def test_projected_power_rejects_zero_iterations():
    prior = linear_subspace_prior(5, 50, seed=2)
    spec = SpectralMatrix(v=np.eye(50), ybar=0.0)
    with pytest.raises(ConfigurationError, match="t1: must be an integer >= 1"):
        projected_power(spec, prior, np.ones(50), 0)


@pytest.mark.parametrize("w0", [np.zeros(50), np.full(50, np.nan), np.r_[np.inf, np.ones(49)]],
                         ids=["zero", "nan", "inf"])
def test_projected_power_rejects_a_zero_or_non_finite_start(w0):
    # a zero start used to warn "invalid value encountered in divide" and then
    # fail as a NaN projection target, which blamed the projector
    prior = linear_subspace_prior(5, 50, seed=2)
    spec = SpectralMatrix(v=np.eye(50), ybar=0.0)
    with pytest.raises(ConfigurationError, match="w0: the start vector must have a finite "
                                                 "nonzero norm"):
        projected_power(spec, prior, w0, 3)


# A finite start whose squared norm overflows (entries from about 1e154)
# warned "overflow encountered in dot", and its norm read inf.
def test_start_rule_takes_the_true_norm_of_a_start_whose_square_overflows():
    assert spectral.start_problems(np.r_[1e200, np.zeros(4)]) == []
    assert spectral.start_problems([1e308, -1e308]) == []   # norm 1.41e308
    assert spectral.start_problems(np.full(2, 1.7e308)) == \
        ["w0: the start vector must have a finite nonzero norm, got inf"]


def test_projected_power_checks_the_length_of_its_start():
    # a start of another length gave numpy's bare "shapes not aligned"
    prior, data, _ = _subspace_problem(3, 12, 37)
    spec = build_spectral_matrix(data)
    assert spectral.start_problems(np.ones(7), 12) == \
        ["w0: the start vector must be a vector of length 12, got shape (7,)"]
    with pytest.raises(ConfigurationError, match="w0: the start vector must be a vector"):
        projected_power(spec, prior, np.ones(7), 3)


def test_projected_power_normalizes_a_start_whose_square_overflows():
    prior, data, _ = _subspace_problem(3, 12, 37)
    spec = build_spectral_matrix(data)
    e = np.eye(12)[0]
    huge = projected_power(spec, prior, 1e200 * e, 3, truth=data.signal)
    unit = projected_power(spec, prior, e, 3, truth=data.signal)
    assert [s.record() for s in huge] == [s.record() for s in unit]
    assert all(np.array_equal(a.iterate, b.iterate) for a, b in zip(huge, unit))


def test_frobenius_residual_decreases_with_m():
    # median over 10 seeds of ||V - nu x x^T||_F drops as m grows
    x = np.zeros(10)
    x[0] = 1.0
    link = LinkModel("abs-noise-out", 0.0)
    target = SQRT_2_OVER_PI * np.outer(x, x)
    medians = []
    for m in (1000, 10000, 100000):
        devs = []
        for seed in range(10):
            data = sample_measurements(link, x, m, seed=300 + seed)
            spec = build_spectral_matrix(data)
            devs.append(np.linalg.norm(spec.v - target))
        medians.append(np.median(devs))
    assert medians[0] > medians[1] > medians[2]


def test_projected_power_recovers_subspace_signal():
    # desk config with best-of-sign start: most seeds reach error <= 0.3
    prior = linear_subspace_prior(5, 100, seed=2)
    link = LinkModel("abs-noise-out", 0.0)
    hits = 0
    for seed in range(10):
        x = _range_signal(prior, latent_seed=seed)
        data = sample_measurements(link, x, 2000, seed=400 + seed)
        spec = build_spectral_matrix(data)
        w0 = initial_vector(shifted_matrix(data))
        best = min(projected_power(spec, prior, s * w0, 20, truth=x)[-1].error
                   for s in (1.0, -1.0))
        if best <= 0.3:
            hits += 1
    assert hits >= 8


def test_correlation_rarely_collapses_once_gained():
    # soft invariant: once |corr| >= 0.2 it does not drop below 0.1 next step
    prior = linear_subspace_prior(5, 100, seed=2)
    link = LinkModel("abs-noise-out", 0.0)
    ok = 0
    for seed in range(10):
        x = _range_signal(prior, latent_seed=seed)
        data = sample_measurements(link, x, 2000, seed=500 + seed)
        spec = build_spectral_matrix(data)
        w0 = initial_vector(shifted_matrix(data))
        states = projected_power(spec, prior, w0, 20, truth=x)
        corrs = [abs(s.correlation) for s in states]
        good = all(corrs[t + 1] >= 0.1 for t in range(len(corrs) - 1)
                   if corrs[t] >= 0.2)
        ok += good
    assert ok >= 9
