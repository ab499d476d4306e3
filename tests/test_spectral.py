import math

import numpy as np
import pytest

from genphase import (ConfigurationError, LinkModel, MeasurementSet,
                      NumericalError, SpectralMatrix, build_spectral_matrix, evaluate,
                      initial_vector, linear_subspace_prior, projected_power,
                      sample_measurements, shifted_matrix)
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
    assert np.array_equal(spec.diag_shifted, np.array([2.0, 0.0]))
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
    full = shifted_matrix(spec)
    assert np.allclose(np.diag(full), spec.diag_shifted, atol=1e-12)
    assert np.allclose(full - spec.ybar * np.eye(6), spec.v, atol=1e-12)


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
    # refine_steps = m n asks for G exactly when m > n (2 m n (m - n) > m n)
    spec = build_spectral_matrix(data, refine_steps=data.m * data.n)
    ref = _naive_v(data)
    assert np.abs(spec.v - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.array_equal(spec.v, spec.v.T)
    if data.m > data.n:
        ref_g = data.sensing.T @ data.sensing / data.m
        assert np.abs(spec.gram - ref_g).max() <= 1e-12 * np.abs(ref_g).max()
        assert np.array_equal(spec.gram, spec.gram.T)
        # building G leaves V's bits alone
        assert np.array_equal(spec.v, build_spectral_matrix(data).v)
    else:
        assert spec.gram is None
    assert spec.ybar == data.observations.mean()
    # the +-ybar shift of the diagonal round-trips to within one rounding
    full = shifted_matrix(spec)
    eps = np.finfo(float).eps
    assert np.all(np.abs(np.diag(full) - spec.diag_shifted)
                  <= eps * (np.abs(spec.diag_shifted) + abs(spec.ybar)))
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
    data = _random_set(2000, 20, seed=7)
    assert build_spectral_matrix(data).gram is None
    # 2 * 5 * (2000 - 20) = 19,800 <= 2000 * 20 = 40,000
    assert build_spectral_matrix(data, refine_steps=5).gram is None


@pytest.mark.parametrize("m,n,steps,pays", [
    (250, 100, 2 * (30 + 30 + 50), True),   # 5 algorithms, 2 restarts, smallest m
    (400, 100, 10 * (30 + 30), True),       # mprg, mprgf and appgd, 10 restarts
    (16000, 2000, 2 * 30, False),           # mprg and appgd, 2 restarts
    (200, 100, 100, False),                 # break-even: 2 * 100 * 100 == 200 * 100
    (200, 100, 101, True),
    (100, 100, 10**9, False),               # never for m <= n
    (50, 100, 10**9, False),
    (1000, 100, 0, False),
])
def test_gram_pays_off_rule(m, n, steps, pays):
    assert spectral.gram_pays_off(m, n, steps) is pays


def test_build_single_block_equals_one_gemm():
    data = _random_set(400, 30, seed=4)
    a, y = data.sensing, data.observations
    shifted = a.T @ (a * y[:, None]) / data.m
    shifted = np.triu(shifted) + np.triu(shifted, 1).T
    spec = build_spectral_matrix(data)
    assert np.array_equal(spec.diag_shifted, np.diag(shifted))
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
    with pytest.raises(NumericalError):
        build_spectral_matrix(data)


def test_spectral_concentration_single_seed():
    # ||V - nu x x^T||_op small at m = 1e5, n = 10, abs link (nu = sqrt(2/pi))
    x = np.zeros(10)
    x[0] = 1.0
    data = sample_measurements(LinkModel("abs-noise-out", 0.0), x, 10**5, seed=7)
    spec = build_spectral_matrix(data)
    dev = np.linalg.norm(spec.v - SQRT_2_OVER_PI * np.outer(x, x), 2)
    assert dev <= 0.05


def test_initial_vector_argmax_column():
    shifted = np.array([[1.0, 0.5], [0.5, 3.0]])
    spec = SpectralMatrix(v=shifted - np.eye(2), diag_shifted=np.diag(shifted).copy(), ybar=1.0)
    w0 = initial_vector(spec, shifted)
    expect = shifted[:, 1] / np.linalg.norm(shifted[:, 1])
    assert np.allclose(w0, expect, atol=1e-15)


def test_initial_vector_tie_breaks_low_index():
    shifted = np.array([[2.0, 0.0, 0.1], [0.0, 2.0, 0.0], [0.1, 0.0, 1.0]])
    spec = SpectralMatrix(v=shifted, diag_shifted=np.diag(shifted).copy(), ybar=0.0)
    w0 = initial_vector(spec, shifted)
    expect = shifted[:, 0] / np.linalg.norm(shifted[:, 0])
    assert np.array_equal(w0, expect)


def test_initial_vector_zero_column_fallback():
    shifted = np.zeros((3, 3))
    spec = SpectralMatrix(v=shifted, diag_shifted=np.zeros(3), ybar=0.0)
    w0 = initial_vector(spec, shifted)
    assert np.array_equal(w0, np.array([1.0, 0.0, 0.0]))


def test_initial_vector_mean_correlation():
    # with x = e1 the top shifted-diagonal entry marks the signal coordinate
    x = np.zeros(20)
    x[0] = 1.0
    link = LinkModel("abs-noise-out", 0.0)
    corr = []
    for seed in range(20):
        data = sample_measurements(link, x, 5000, seed=100 + seed)
        spec = build_spectral_matrix(data)
        corr.append(x @ initial_vector(spec, shifted_matrix(spec)))
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
    spec = SpectralMatrix(v=v, diag_shifted=np.diag(v).copy(), ybar=0.0)
    w0 = x + 0.3 * np.random.default_rng(4).standard_normal(30)
    assert x @ w0 > 0
    states = projected_power(spec, prior, w0, 1, truth=x)
    assert np.linalg.norm(states[-1].iterate - x) <= 1e-9


def test_projected_power_identity_fixed_point():
    prior = linear_subspace_prior(5, 30, seed=1)
    x = _range_signal(prior, latent_seed=5)
    spec = SpectralMatrix(v=np.eye(30), diag_shifted=np.ones(30), ybar=0.0)
    states = projected_power(spec, prior, x, 3)
    for s in states:
        assert np.allclose(s.iterate, x, atol=1e-9)


def test_projected_power_trajectory_contract():
    prior = linear_subspace_prior(5, 100, seed=2)
    x = _range_signal(prior, latent_seed=1)
    data = sample_measurements(LinkModel("abs-noise-out", 0.0), x, 1000, seed=11)
    spec = build_spectral_matrix(data)
    w0 = initial_vector(spec, shifted_matrix(spec))
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
    w0 = initial_vector(spec, shifted_matrix(spec))
    a = projected_power(spec, prior, w0, 10, seed=3, truth=x)
    b = projected_power(spec, prior, w0, 10, seed=3, truth=x)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.iterate, sb.iterate)


def test_projected_power_rejects_zero_iterations():
    prior = linear_subspace_prior(5, 50, seed=2)
    spec = SpectralMatrix(v=np.eye(50), diag_shifted=np.ones(50), ybar=0.0)
    with pytest.raises(ConfigurationError, match="t1: must be an integer >= 1"):
        projected_power(spec, prior, np.ones(50), 0)


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
        w0 = initial_vector(spec, shifted_matrix(spec))
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
        w0 = initial_vector(spec, shifted_matrix(spec))
        states = projected_power(spec, prior, w0, 20, truth=x)
        corrs = [abs(s.correlation) for s in states]
        good = all(corrs[t + 1] >= 0.1 for t in range(len(corrs) - 1)
                   if corrs[t] >= 0.2)
        ok += good
    assert ok >= 9
