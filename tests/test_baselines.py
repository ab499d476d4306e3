import numpy as np
import pytest

from genphase import (ALGORITHMS, AppgdConfig, ConfigurationError, GenerativePrior,
                      LinkModel, MeasurementSet, NumericalError, appgd_step, evaluate,
                      linear_subspace_prior, run_algorithm, run_baseline,
                      sample_measurements)
from genphase.baselines import BASELINES


def _range_signal(prior, latent_seed=0):
    z = np.random.default_rng(latent_seed).standard_normal(prior.k)
    x = evaluate(prior, z)
    if x[int(np.argmax(np.abs(x)))] < 0:
        x = -x
    return x


def _axis_prior(k, n):
    """Subspace prior whose range is span(e_1..e_k), for hand-checkable
    projections."""
    w = np.zeros((n, k))
    w[:k, :k] = np.eye(k)
    return GenerativePrior(kind="linear-subspace", k=k, n=n, r=10.0, layers=[w],
                           activation="none", seed=0, lipschitz_proxy=1.0)


def _manual_set(sensing, y):
    sensing = np.asarray(sensing, dtype=float)
    n = sensing.shape[1]
    x = np.zeros(n)
    x[0] = 1.0
    return MeasurementSet(n=n, m=sensing.shape[0], signal=x, sensing=sensing,
                          observations=np.asarray(y, dtype=float), seed=0,
                          link=LinkModel("abs-noise-out"))


def test_appgd_noiseless_fixed_point():
    # y = |a^T x| and x in range: residual vanishes, iterate is unchanged
    prior = linear_subspace_prior(5, 40, seed=1)
    x = _range_signal(prior, latent_seed=1)
    a = np.random.default_rng(2).standard_normal((200, 40))
    data = _manual_set(a, np.abs(a @ x))
    out = appgd_step(data, x, AppgdConfig(), prior)
    assert np.allclose(out, x, atol=1e-12)


def test_appgd_single_measurement_hand_value():
    # a = e1, y = 3, x = e1, tau = 1: g = 1, resid = 1 - 3 = -2,
    # pre-projection = e1 + 2 e1 = 3 e1, projects back to e1
    prior = _axis_prior(2, 4)
    data = _manual_set(np.array([[1.0, 0.0, 0.0, 0.0]]), [3.0])
    x = np.array([1.0, 0.0, 0.0, 0.0])
    out = appgd_step(data, x, AppgdConfig(tau=1.0), prior)
    assert np.allclose(out, x, atol=1e-15)


def test_appgd_sign_zero_convention():
    # a^T x = 0 uses sign +1, pulling the iterate toward +a
    prior = _axis_prior(2, 3)
    data = _manual_set(np.array([[0.0, 1.0, 0.0]]), [2.0])
    x = np.array([1.0, 0.0, 0.0])
    out = appgd_step(data, x, AppgdConfig(tau=1.0), prior)
    # pre-projection = e1 - (0 - 2*(+1)) e2 = e1 + 2 e2; normalized in range
    expect = np.array([1.0, 2.0, 0.0]) / np.sqrt(5.0)
    assert np.allclose(out, expect, atol=1e-12)


def test_appgd_config_validation():
    with pytest.raises(ConfigurationError):
        AppgdConfig(tau=0.0)


def _desk_data(latent_seed=1, m=1000, seed=30, link=None):
    prior = linear_subspace_prior(5, 100, seed=2)
    x = _range_signal(prior, latent_seed=latent_seed)
    data = sample_measurements(link or LinkModel("abs-noise-out", 0.0), x, m, seed=seed)
    return prior, x, data


def test_trace_length_contract_all_algorithms():
    prior, x, data = _desk_data()
    t1, t2 = 3, 4
    for name in ALGORITHMS:
        trace = run_algorithm(name, data, prior, t1=t1, t2=t2, seed=5)
        assert len(trace.records) == t1 + t2 + 1, name
        assert [r["t"] for r in trace.records] == list(range(t1 + t2 + 1)), name
        assert trace.final_error == trace.records[-1]["error"], name
        assert trace.final_iterate is not None, name
        assert np.linalg.norm(trace.final_iterate) == pytest.approx(1.0, abs=1e-9)


def test_record_schemas():
    prior, x, data = _desk_data()
    trace = run_algorithm("mprg", data, prior, t1=2, t2=2, seed=5)
    assert all("correlation" in r for r in trace.records[:2])
    assert all("nu_hat" in r and "zeta" in r and "warn" in r
               for r in trace.records[2:])
    trace = run_algorithm("ppower", data, prior, t1=2, t2=2, seed=5)
    assert all("correlation" in r for r in trace.records)
    trace = run_algorithm("step2", data, prior, t1=2, t2=2, seed=5)
    assert all("nu_hat" in r for r in trace.records)


def test_appgd_budget_switch():
    prior, x, data = _desk_data()
    full = run_algorithm("appgd", data, prior, t1=3, t2=4, seed=5)
    bare = run_algorithm("appgd", data, prior, t1=3, t2=4, seed=5,
                         count_init_budget=False)
    assert len(full.records) == 8
    assert len(bare.records) == 5
    assert full.final_error == bare.final_error


def test_mprgf_nu_frozen_in_trace():
    prior, x, data = _desk_data()
    trace = run_algorithm("mprgf", data, prior, t1=2, t2=5, seed=5)
    nus = {r["nu_hat"] for r in trace.records if "nu_hat" in r}
    assert len(nus) == 1


def test_run_algorithm_determinism():
    prior, x, data = _desk_data()
    a = run_algorithm("mprg", data, prior, t1=5, t2=5, seed=9)
    b = run_algorithm("mprg", data, prior, t1=5, t2=5, seed=9)
    assert a.final_error == b.final_error
    assert np.array_equal(a.final_iterate, b.final_iterate)
    for ra, rb in zip(a.records, b.records):
        assert ra == rb


@pytest.mark.parametrize("name", ALGORITHMS)
def test_nan_observation_is_a_numerical_failure(name):
    # one NaN observation used to give final_error = nan without an error
    prior = linear_subspace_prior(5, 40, seed=1)
    x = _range_signal(prior, latent_seed=2)
    data = sample_measurements(LinkModel("abs-noise-out", 0.1), x, 300, seed=3)
    data.observations[17] = np.nan
    with pytest.raises(NumericalError):
        run_algorithm(name, data, prior, t1=3, t2=3)


def test_unknown_algorithm_rejected():
    prior, x, data = _desk_data()
    with pytest.raises(ConfigurationError):
        run_algorithm("nope", data, prior)
    with pytest.raises(ConfigurationError):
        run_baseline("mprg", data, prior)  # mprg is not a baseline
    assert set(BASELINES) <= set(ALGORITHMS)


def test_mprg_recovers_on_clean_abs_link():
    prior, x, data = _desk_data(latent_seed=1, m=2000, seed=31)
    best = min(run_algorithm("mprg", data, prior, t1=20, t2=30, seed=5,
                             w0_override=s * _w0(data)).final_error
               for s in (1.0, -1.0))
    assert best <= 0.15


def _w0(data):
    from genphase import build_spectral_matrix, initial_vector, shifted_matrix
    spec = build_spectral_matrix(data)
    return initial_vector(spec, shifted_matrix(spec))
