import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from genphase import (ALGORITHMS, ConfigurationError, GenerativePrior, LinkModel,
                      MeasurementSet, NumericalError, appgd_step, build_spectral_matrix,
                      evaluate, linear_subspace_prior, project, relu_mlp_prior, run_algorithm,
                      sample_measurements)
from genphase import baselines
from genphase.seeds import flatten_seed
from genphase.spectral import SpectralMatrix, reduce_to_subspace


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
                           seed=0, lipschitz_proxy=1.0)


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
    out = appgd_step(data, x, prior, 0.9)
    assert np.allclose(out, x, atol=1e-12)


def test_appgd_single_measurement_hand_value():
    # a = e1, y = 3, x = e1, tau = 1: g = 1, resid = 1 - 3 = -2,
    # pre-projection = e1 + 2 e1 = 3 e1, projects back to e1
    prior = _axis_prior(2, 4)
    data = _manual_set(np.array([[1.0, 0.0, 0.0, 0.0]]), [3.0])
    x = np.array([1.0, 0.0, 0.0, 0.0])
    out = appgd_step(data, x, prior, 1.0)
    assert np.allclose(out, x, atol=1e-15)


def test_appgd_sign_zero_convention():
    # a^T x = 0 uses sign +1, pulling the iterate toward +a
    prior = _axis_prior(2, 3)
    data = _manual_set(np.array([[0.0, 1.0, 0.0]]), [2.0])
    x = np.array([1.0, 0.0, 0.0])
    out = appgd_step(data, x, prior, 1.0)
    # pre-projection = e1 - (0 - 2*(+1)) e2 = e1 + 2 e2; normalized in range
    expect = np.array([1.0, 2.0, 0.0]) / np.sqrt(5.0)
    assert np.allclose(out, expect, atol=1e-12)


def test_appgd_step_rejects_bad_tau():
    # appgd_step checks its own step size
    prior = _axis_prior(2, 3)
    data = _manual_set(np.array([[0.0, 1.0, 0.0]]), [2.0])
    x = np.array([1.0, 0.0, 0.0])
    for tau in (0.0, -1.0, float("nan"), float("inf"), True, "0.9"):
        with pytest.raises(ConfigurationError, match="tau: must be a finite positive number"):
            appgd_step(data, x, prior, tau)


def test_a_phase_term_is_made_for_one_valid_tau():
    # _PhaseTerm checks its tau once, at construction, and appgd_step
    # refuses a phase made for another tau; a lone step makes the same phase
    prior = _axis_prior(2, 3)
    data = _manual_set(np.array([[0.0, 1.0, 0.0]]), [2.0])
    x = np.array([1.0, 0.0, 0.0])
    spec = build_spectral_matrix(data)
    for bad in (0.0, -1.0, float("nan"), float("inf"), True, "0.9"):
        with pytest.raises(ConfigurationError, match="tau: must be a finite positive number"):
            baselines._PhaseTerm(spec, bad)
    phase = baselines._PhaseTerm(spec, 1.0)
    first = appgd_step(data, x, prior, 1.0, phase=phase)
    assert np.array_equal(first, appgd_step(data, x, prior, 1.0))
    for other in (0.5, 2):
        with pytest.raises(ConfigurationError, match="tau: the phase term was made for tau=1.0"):
            appgd_step(data, x, prior, other, phase=phase)
    for bad in (float("nan"), 0.0, True):
        with pytest.raises(ConfigurationError, match="tau: must be a finite positive number"):
            appgd_step(data, x, prior, bad, phase=phase)


@pytest.mark.parametrize("t2", [1, 6])
def test_an_appgd_run_checks_tau_once_per_phase(t2, monkeypatch):
    # run_algorithm's argument check and the run's _PhaseTerm check tau;
    # each of the t2 steps passes the phase's own tau and checks nothing
    calls, check = [], baselines.tau_problems
    monkeypatch.setattr(baselines, "tau_problems", lambda tau: calls.append(tau) or check(tau))
    prior, x, data = _desk_data(m=200)
    trace = run_algorithm("appgd", data, prior, t1=2, t2=t2, tau=0.9)
    assert calls == [0.9, 0.9] and len(trace.records) == 2 + t2 + 1


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
    assert len(full.records) == 8


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


@pytest.mark.parametrize("name", ALGORITHMS)
def test_run_algorithm_checks_every_argument_first(name, monkeypatch):
    # every rule holds for every algorithm, also one that does not use the
    # argument (step2 has no power phase, only appgd uses tau), and the check
    # comes before any work.  A zero start used to fail as "projection target
    # contains NaN or Inf" (exit 3), which blamed the projector.
    def no_build(*args, **kwargs):
        raise AssertionError("built a spectral matrix before checking the arguments")

    monkeypatch.setattr(baselines, "build_spectral_matrix", no_build)
    monkeypatch.setattr(baselines, "shifted_matrix", no_build)
    prior, x, data = _desk_data()
    for kw, field in ((dict(t1=0), "t1"), (dict(t1=-10), "t1"), (dict(t2=-5), "t2"),
                      (dict(tau=float("nan")), "tau"), (dict(tau=0.0), "tau"),
                      (dict(w0_override=np.zeros(100)), "w0"),
                      (dict(w0_override=np.full(100, np.nan)), "w0")):
        with pytest.raises(ConfigurationError, match=f"invalid run arguments:\n  {field}: "):
            run_algorithm(name, data, prior, **kw)


def test_run_algorithm_lists_every_bad_argument():
    prior, x, data = _desk_data()
    with pytest.raises(ConfigurationError) as exc:
        run_algorithm("nope", data, prior, t1=0, t2=-1, tau=float("inf"))
    lines = str(exc.value).split("\n  ")
    assert lines[0] == "invalid run arguments:"
    assert [line.split(":")[0] for line in lines[1:]] == ["algorithms", "t1", "t2", "tau"]
    assert lines[1:] == baselines.run_problems(["nope"], 0, -1, float("inf"))


@pytest.mark.parametrize("name", ALGORITHMS)
def test_run_algorithm_checks_the_lengths_of_prior_and_start(name, monkeypatch):
    # a prior of another n gave numpy's bare "shapes (100,) and (40,5) not
    # aligned" after the spectral build, a short start a broadcast error
    def no_build(*args, **kwargs):
        raise AssertionError("built a spectral matrix before checking the arguments")

    monkeypatch.setattr(baselines, "build_spectral_matrix", no_build)
    monkeypatch.setattr(baselines, "shifted_matrix", no_build)
    prior, x, data = _desk_data()
    for other in (linear_subspace_prior(5, 40, seed=2), relu_mlp_prior(5, [16], 40, seed=2)):
        with pytest.raises(ConfigurationError, match="invalid run arguments:\n  prior: its "
                           "n=40 differs from the data's n=100$"):
            run_algorithm(name, data, other)
    for start in (np.ones(7), np.ones((1, 100))):
        with pytest.raises(ConfigurationError, match="invalid run arguments:\n  w0: the start "
                           "vector must be a vector of length 100, got shape"):
            run_algorithm(name, data, prior, w0_override=start)


def test_run_algorithm_checks_the_seed_rule():
    # a negative seed used to reach numpy's seeding as a bare ValueError,
    # after the spectral build
    prior, x, data = _desk_data(m=200)
    for bad in (-1, True, 1.5, [5, -1]):
        with pytest.raises(ConfigurationError, match="invalid run arguments:\n  seed: "):
            run_algorithm("mprg", data, prior, t1=2, t2=2, seed=bad)
    # a key is a seed: the same run as its flattened int
    a = run_algorithm("mprg", data, prior, t1=2, t2=2, seed=[5, 1])
    b = run_algorithm("mprg", data, prior, t1=2, t2=2, seed=flatten_seed([5, 1]))
    assert a.records == b.records


def test_mprg_recovers_on_clean_abs_link():
    prior, x, data = _desk_data(latent_seed=1, m=2000, seed=31)
    best = min(run_algorithm("mprg", data, prior, t1=20, t2=30, seed=5,
                             w0_override=s * _w0(data)).final_error
               for s in (1.0, -1.0))
    assert best <= 0.15


def _w0(data):
    from genphase import initial_vector, shifted_matrix
    return initial_vector(shifted_matrix(data))


def test_refine_step_count_table():
    assert {a: baselines.refine_step_count(a, 20, 30) for a in ALGORITHMS} == \
        {"mprg": 30, "mprgf": 30, "ppower": 0, "step2": 50, "appgd": 0}


@pytest.mark.parametrize("name", ["mprg", "mprgf", "step2", "appgd"])
def test_run_algorithm_refines_in_n_space_with_a_gram(name):
    # a run given no spec builds one, with its stack [G; M], and its records
    # are those of a run given that spec; a spec whose stack is replaced
    # (G scaled by 2, M by 3) changes the second phase's steps
    prior = linear_subspace_prior(5, 40, seed=2)
    x = _range_signal(prior, latent_seed=3)
    data = sample_measurements(LinkModel("abs-noise-out", 0.1), x, 400, seed=4)
    spec = build_spectral_matrix(data)
    other = SpectralMatrix(spec.v, spec.ybar, spec.stack * np.c_[np.r_[[2.0] * 40, [3.0] * 40]])
    a = run_algorithm(name, data, prior, t1=5, t2=8, seed=3)
    b = run_algorithm(name, data, prior, t1=5, t2=8, seed=3, spec=spec)
    c = run_algorithm(name, data, prior, t1=5, t2=8, seed=3, spec=other)
    assert a.records == b.records and np.array_equal(a.final_iterate, b.final_iterate)
    power = 0 if name == "step2" else 5   # the power records, which read V alone
    assert a.records[:power] == c.records[:power] and a.records[-1] != c.records[-1]
    # a spec made from v and ybar alone serves ppower only
    hand = SpectralMatrix(spec.v, spec.ybar)
    with pytest.raises(ConfigurationError, match=f"spec: {name} needs the stack"):
        run_algorithm(name, data, prior, t1=5, t2=8, seed=3, spec=hand)
    power = run_algorithm("ppower", data, prior, t1=5, t2=8, seed=3, spec=hand)
    assert power.records == run_algorithm("ppower", data, prior, t1=5, t2=8, seed=3).records


@pytest.mark.parametrize("given", [False, True], ids=["m-space", "n-space"])
@pytest.mark.parametrize("name", ["mprg", "appgd"])
def test_run_algorithm_with_no_second_phase_step(name, given):
    # t2 = 0: appgd's tail is empty and mprg's holds only its t = 0 state,
    # so the last record's error is that of the last power iterate, which
    # ppower's run of the same t1 steps reaches too; the runs start from the
    # measurements alone ("m-space") or are given the built spec ("n-space")
    prior = linear_subspace_prior(5, 40, seed=2)
    x = _range_signal(prior, latent_seed=3)
    data = sample_measurements(LinkModel("abs-noise-out", 0.1), x, 400, seed=4)
    spec = build_spectral_matrix(data) if given else None
    power = run_algorithm("ppower", data, prior, t1=4, t2=0, seed=3, spec=spec)
    trace = run_algorithm(name, data, prior, t1=4, t2=0, seed=3, spec=spec)
    assert [r["t"] for r in trace.records] == list(range(5))
    assert [r["error"] for r in trace.records] == [r["error"] for r in power.records]
    assert trace.records[:4] == power.records[:4]
    assert trace.final_error == power.final_error == trace.records[-1]["error"]
    assert np.array_equal(trace.final_iterate, power.final_iterate)
    assert ("nu_hat" in trace.records[-1]) == (name == "mprg")


@pytest.mark.parametrize("name", ["mprg", "appgd", "mprgf", "ppower", "step2"])
def test_run_algorithm_takes_a_start_whose_square_overflows(name):
    # 1e200 e_1 warned "overflow encountered in dot" and was refused as a
    # start of norm inf; its power steps are those of e_1.  step2, which
    # projects its start, then still warned and failed in the projector.
    prior = linear_subspace_prior(3, 12, seed=1)
    data = sample_measurements(LinkModel("abs-noise-out"), _range_signal(prior), 80, seed=2)
    e = np.eye(12)[0]
    runs = [run_algorithm(name, data, prior, t1=3, t2=4, seed=5, w0_override=scale * e)
            for scale in (1e200, 1.0)]
    assert runs[0].records == runs[1].records


def test_phase_term_is_the_fresh_product_after_every_step():
    # the kept signs and phase term against a fresh B^T (y sign(B^ x)) / m
    # over 30 steps: the second step flips about half the rows, row 1 flips
    # at every step, alone or (at a larger x_2) with others, and row 0 has
    # B^ x = 0 exactly (x_4 = 0), so its sign is +1; a sign(0) of -1 would
    # move h by 2 y_0 b_0 / m = 0.02
    prior = linear_subspace_prior(3, 12, seed=0)
    data = sample_measurements(LinkModel("abs-noise-out", 0.1), _range_signal(prior), 300, seed=1)
    red = reduce_to_subspace(data, prior, np.random.default_rng(2).standard_normal(12))
    data, tau, m = red.data, 0.9, 300
    data.sensing[0], data.sensing[1], data.observations[0] = (0, 0, 0, 1.5), (0, 1, 0, 0), 2.0
    phase = baselines._PhaseTerm(build_spectral_matrix(data), tau)
    states = [np.r_[np.random.default_rng(5).standard_normal(3), 0.0]]
    states += [np.array([1.0, (-1) ** t * (0.2 if t % 10 == 5 else 1e-3), 0.0, 0.0])
               for t in range(29)]
    signs, flips = None, []
    for x in states:
        g = data.sensing @ x
        s = np.where(g >= 0, 1.0, -1.0)
        out = appgd_step(data, x, red.prior, tau, phase=phase)
        fresh = data.sensing.T @ (data.observations * s) / m
        assert np.array_equal(phase.pos, g >= 0)
        assert np.linalg.norm(phase.tau_h / tau - fresh) <= 1e-12 * np.linalg.norm(fresh)
        grad = data.sensing.T @ (g - data.observations * s) / m
        assert np.allclose(out, project(red.prior, x - tau * grad).point, rtol=0, atol=1e-13)
        assert g[0] == 0 and s[0] == 1
        if signs is not None:
            flips.append(np.flatnonzero(s != signs))
        signs = s
    assert len(flips[0]) > 100 and all(1 in f for f in flips)
    assert any(len(f) == 1 for f in flips) and any(len(f) > 1 for f in flips[1:])


# A reduced B^ of 50,000 x 11 (4.4 MB), above the size from which r^T B^
# changed bits with the OpenBLAS thread count.
_PHASE_THREADS_SCRIPT = """
import sys
import numpy as np
from genphase import LinkModel, build_spectral_matrix, evaluate, linear_subspace_prior, \
    run_algorithm, sample_measurements
from genphase.spectral import reduce_to_subspace
prior = linear_subspace_prior(10, 40, seed=2)
x = evaluate(prior, np.random.default_rng(1).standard_normal(10))
data = sample_measurements(LinkModel("abs-noise-out", 0.1), x, 50000, seed=9)
w0 = np.random.default_rng(2).standard_normal(40)
red = reduce_to_subspace(data, prior, w0 / np.linalg.norm(w0))
assert red.data.sensing.shape == (50000, 11)
spec = build_spectral_matrix(red.data)
trace = run_algorithm("appgd", red.data, red.prior, t1=3, t2=30, seed=4, spec=spec,
                      w0_override=w0 @ red.basis)
steps = np.array([r["error"] for r in trace.records])
sys.stdout.write((trace.final_iterate.tobytes() + steps.tobytes()).hex())
"""


def test_reduced_appgd_ignores_the_blas_thread_count():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = [subprocess.run([sys.executable, "-c", _PHASE_THREADS_SCRIPT], capture_output=True,
                           text=True, check=True,
                           env={**os.environ, "PYTHONPATH": path,
                                "OPENBLAS_NUM_THREADS": str(threads)}).stdout
            for threads in (1, 2)]
    assert outs[0] and outs[0] == outs[1]
