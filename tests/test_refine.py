import math

import numpy as np
import pytest

from genphase import (ConfigurationError, LinkModel, MeasurementSet,
                      Step, build_spectral_matrix, empirical_mean_y,
                      estimate_nu_hat, evaluate, initial_vector,
                      linear_subspace_prior, population_nu, projected_power,
                      refine_step, run_refine, sample_measurements, shifted_matrix)
from genphase.refine import NU_FLOOR

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

# The two forms of a refinement step: two passes over A (m-space), or
# products with V and the Gram matrix A^T A / m (n-space).  The trajectory
# and convergence checks below run each form in turn.
FORMS = ("m-space", "n-space")


def _spec(data, form):
    """The spec that selects the gradient form: None for m-space, else a
    SpectralMatrix carrying the Gram matrix."""
    if form == "m-space":
        return None
    spec = build_spectral_matrix(data, refine_steps=data.m * data.n)
    if spec.gram is None:   # m <= n: the build never pays for it
        spec.gram = data.sensing.T @ data.sensing / data.m
    return spec


def _range_signal(prior, latent_seed=0):
    z = np.random.default_rng(latent_seed).standard_normal(prior.k)
    x = evaluate(prior, z)
    if x[int(np.argmax(np.abs(x)))] < 0:
        x = -x
    return x


def _manual_set(sensing, y):
    sensing = np.asarray(sensing, dtype=float)
    n = sensing.shape[1]
    x = np.zeros(n)
    x[0] = 1.0
    return MeasurementSet(n=n, m=sensing.shape[0], signal=x, sensing=sensing,
                          observations=np.asarray(y, dtype=float), seed=0,
                          link=LinkModel("linear"))


def test_empirical_mean_trivial():
    data = _manual_set(np.eye(3), [1.0, 2.0, 6.0])
    assert empirical_mean_y(data) == 3.0


def test_empirical_mean_needs_a_measurement():
    with pytest.raises(ConfigurationError, match="at least one measurement"):
        empirical_mean_y(_manual_set(np.zeros((0, 3)), []))


def test_empirical_mean_large_sample():
    x = np.zeros(5)
    x[0] = 1.0
    data = sample_measurements(LinkModel("abs-noise-out", 0.0), x, 10**5, seed=1)
    assert abs(empirical_mean_y(data) - SQRT_2_OVER_PI) <= 0.01


def test_nu_hat_constant_observations_is_zero():
    data = _manual_set(np.random.default_rng(0).standard_normal((8, 3)),
                       np.full(8, 3.0))
    assert estimate_nu_hat(data, empirical_mean_y(data), data.signal) == 0.0


def test_nu_hat_two_point_hand_value():
    # a1 = e1, a2 = e2, y = (2, 0), x = e1: ybar = 1,
    # nu_hat = mean((y - 1) * g^2) = ((2-1)*1 + (0-1)*0)/2 = 0.5
    data = _manual_set(np.eye(2), [2.0, 0.0])
    ybar = empirical_mean_y(data)
    assert estimate_nu_hat(data, ybar, data.signal) == 0.5


def test_nu_hat_consistent_at_truth():
    # |nu_hat(x) - nu| <= 5 sqrt(log m / m) * K for most seeds
    link = LinkModel("abs-noise-out", 0.0)
    rep = population_nu(link, 10**6, seed=99)
    x = np.zeros(20)
    x[0] = 1.0
    for m in (10**4, 10**5):
        bound = 5.0 * math.sqrt(math.log(m) / m) * rep.subexp_norm_proxy
        hits = 0
        for seed in range(10):
            data = sample_measurements(link, x, m, seed=600 + seed)
            nu_hat = estimate_nu_hat(data, empirical_mean_y(data), x)
            hits += abs(nu_hat - rep.nu) <= bound
        assert hits >= 9, m


def test_refine_step_zero_gradient_fixed_point():
    # constant observations make both nu_hat and the pseudo-observations
    # vanish, so the pre-projection equals the iterate and the projection of a
    # range point returns itself.  m-space only: in n-space V + ybar I and
    # ybar G cancel to rounding, not exactly.
    prior = linear_subspace_prior(5, 30, seed=1)
    x_t = _range_signal(prior, latent_seed=2)
    data = _manual_set(np.random.default_rng(1).standard_normal((20, 30)),
                       np.ones(20))
    state = Step(iterate=x_t, t=0, nu_hat=0.0)
    nxt = refine_step(data, empirical_mean_y(data), state, prior)
    assert np.array_equal(nxt.pre_projection, x_t)
    assert np.allclose(nxt.iterate, x_t, atol=1e-12)
    assert nxt.nu_hat == 0.0 and nxt.warn


def test_refine_step_hand_computed_update():
    # two measurements, hand-checkable arithmetic for the pre-projection
    prior = linear_subspace_prior(2, 4, seed=2)
    a = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    y = np.array([3.0, 1.0])
    data = _manual_set(a, y)
    x_t = np.array([1.0, 0.0, 0.0, 0.0])
    ybar = 2.0
    # g = (1, 0); nu_hat = ((3-2)*1 + (1-2)*0)/2 = 0.5; zeta = 1/0.5 = 2
    # ytil = ((3-2)*1, (1-2)*0) = (1, 0); resid = 0.5*g - ytil = (-0.5, 0)
    # x_til = x - (2/2) * a^T resid = (1.5, 0, 0, 0)
    state = Step(iterate=x_t, t=0, nu_hat=0.0)
    for form in FORMS:
        nxt = refine_step(data, ybar, state, prior, spec=_spec(data, form))
        assert nxt.nu_hat == 0.5, form
        assert nxt.zeta == 2.0, form
        assert not nxt.warn, form
        assert np.array_equal(nxt.pre_projection, np.array([1.5, 0.0, 0.0, 0.0])), form
        assert nxt.t == 1, form


def test_fixed_mode_freezes_nu():
    prior = linear_subspace_prior(5, 100, seed=2)
    x = _range_signal(prior, latent_seed=1)
    data = sample_measurements(LinkModel("abs-noise-out", 0.0), x, 2000, seed=3)
    for form in FORMS:
        states = run_refine(data, prior, x, 5, fixed=True, truth=x, spec=_spec(data, form))
        nus = {s.nu_hat for s in states}
        assert len(nus) == 1, form
        # derived step size is 1/nu_hat(0)
        assert states[1].zeta == pytest.approx(1.0 / states[0].nu_hat, rel=1e-12), form


def test_run_refine_trajectory_contract():
    prior = linear_subspace_prior(5, 100, seed=2)
    x = _range_signal(prior, latent_seed=1)
    data = sample_measurements(LinkModel("abs-noise-out", 0.0), x, 1000, seed=4)
    for form in FORMS:
        states = run_refine(data, prior, x, 7, truth=x,
                            spec=_spec(data, form))
        assert len(states) == 8, form
        assert [s.t for s in states] == list(range(8)), form
        assert all(s.error is not None for s in states), form


def test_run_refine_zero_iterations():
    prior = linear_subspace_prior(5, 100, seed=2)
    x = _range_signal(prior, latent_seed=1)
    data = sample_measurements(LinkModel("abs-noise-out", 0.0), x, 500, seed=5)
    for form in FORMS:
        states = run_refine(data, prior, x, 0, truth=x,
                            spec=_spec(data, form))
        assert len(states) == 1 and states[0].t == 0, form


def test_one_step_error_decrease_from_spectral_init():
    prior = linear_subspace_prior(5, 100, seed=2)
    link = LinkModel("abs-noise-out", 0.0)
    hits = dict.fromkeys(FORMS, 0)
    for seed in range(10):
        x = _range_signal(prior, latent_seed=seed)
        data = sample_measurements(link, x, 2000, seed=700 + seed)
        spec = build_spectral_matrix(data)
        w0 = initial_vector(spec, shifted_matrix(spec))
        init = min((projected_power(spec, prior, s * w0, 20, truth=x)[-1]
                    for s in (1.0, -1.0)), key=lambda st: st.error)
        for form in FORMS:
            states = run_refine(data, prior, init.iterate, 1, truth=x,
                                spec=_spec(data, form))
            hits[form] += states[1].error <= states[0].error
    assert min(hits.values()) >= 8, hits


def test_adaptive_update_scale_equivariant():
    # doubling every observation is exact in floating point, so the adaptive
    # trajectory must match bit for bit
    prior = linear_subspace_prior(5, 100, seed=2)
    x = _range_signal(prior, latent_seed=3)
    data = sample_measurements(LinkModel("abs-noise-out", 0.0), x, 1000, seed=6)
    data2 = MeasurementSet(n=data.n, m=data.m, signal=data.signal,
                           sensing=data.sensing,
                           observations=2.0 * data.observations,
                           seed=data.seed, link=data.link)
    for form in FORMS:
        s1 = run_refine(data, prior, x, 10, truth=x, spec=_spec(data, form))
        s2 = run_refine(data2, prior, x, 10, truth=x,
                        spec=_spec(data2, form))
        for a, b in zip(s1, s2):
            assert np.array_equal(a.iterate, b.iterate), form
            assert b.nu_hat == 2.0 * a.nu_hat, form


def test_linear_link_trips_warnings():
    # nu = 0 for the linear link, so the sign of nu_hat is noise and the
    # warning flag fires on at least half the iterations for this pinned seed
    prior = linear_subspace_prior(5, 100, seed=2)
    x = _range_signal(prior, latent_seed=0)
    data = sample_measurements(LinkModel("linear", 0.0), x, 2000, seed=51)
    for form in FORMS:
        states = run_refine(data, prior, x, 20, truth=x,
                            spec=_spec(data, form))
        warns = sum(s.warn for s in states)
        assert warns >= len(states) / 2, form


def test_warn_never_fires_on_square_noise():
    # nu = 2 here; at m = 2000 the estimate stays far from zero
    prior = linear_subspace_prior(5, 100, seed=2)
    x = _range_signal(prior, latent_seed=1)
    data = sample_measurements(LinkModel("square-noise", 0.1), x, 2000, seed=8)
    for form in FORMS:
        states = run_refine(data, prior, x, 10, truth=x,
                            spec=_spec(data, form))
        assert not any(s.warn for s in states), form


def test_run_refine_rejects_bad_t2():
    # run_refine checks its own step count, in both modes
    prior = linear_subspace_prior(5, 100, seed=2)
    x = _range_signal(prior, latent_seed=1)
    data = sample_measurements(LinkModel("abs-noise-out", 0.0), x, 200, seed=4)
    for t2 in (-1, -30, float("nan")):
        for fixed in (False, True):
            with pytest.raises(ConfigurationError, match="t2: must be an integer >= 0"):
                run_refine(data, prior, x, t2, fixed=fixed)


def _counting(sensing):
    """sensing as an ndarray subclass that counts its products with vectors
    (its transpose is a view of the same subclass, so A^T r counts too)."""
    class Counting(np.ndarray):
        matmuls = 0

        def __matmul__(self, other):
            Counting.matmuls += 1
            return np.asarray(self) @ other

    return np.asarray(sensing).view(Counting)


@pytest.mark.parametrize("fixed", [False, True], ids=["adaptive", "fixed"])
@pytest.mark.parametrize("t2", [0, 1, 4])
def test_run_refine_products_with_a(fixed, t2):
    # m-space: two products with A per step and none more, since the t=0
    # nu_hat comes from the first step's A x0; only t2 = 0 estimates it
    # on its own.  n-space: no product with A at all.
    prior = linear_subspace_prior(5, 40, seed=2)
    x = _range_signal(prior, latent_seed=1)
    data = sample_measurements(LinkModel("abs-noise-out", 0.1), x, 300, seed=9)
    spec = _spec(data, "n-space")
    data.sensing = _counting(data.sensing)
    counter = type(data.sensing)
    states = run_refine(data, prior, x, t2, fixed=fixed, truth=x)
    assert counter.matmuls == (2 * t2 if t2 else 1)
    counter.matmuls = 0
    nspace = run_refine(data, prior, x, t2, fixed=fixed, truth=x, spec=spec)
    assert counter.matmuls == (0 if t2 else 1)
    assert states[0].nu_hat == estimate_nu_hat(data, empirical_mean_y(data), x)
    assert nspace[0].nu_hat == pytest.approx(states[0].nu_hat, rel=1e-12)


def _close(a, b, rel=1e-12):
    return np.linalg.norm(np.subtract(a, b)) <= rel * np.linalg.norm(a)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("mode", ["adaptive", "fixed-derived"])
def test_refine_step_forms_agree(mode, sign):
    # mixed-sign observations y = +-(|g| - 0.7 + noise): nu > 0 for sign +1,
    # nu < 0 (so nu_hat <= 0 and the warning fires) for sign -1
    prior = linear_subspace_prior(5, 40, seed=3)
    x = _range_signal(prior, latent_seed=4)
    rng = np.random.default_rng(10)
    a = rng.standard_normal((600, 40))
    y = sign * (np.abs(a @ x) - 0.7 + 0.1 * rng.standard_normal(600))
    assert (y > 0).any() and (y < 0).any()
    data = _manual_set(a, y)
    ybar = empirical_mean_y(data)
    start = x + 0.3 * rng.standard_normal(40)
    state = Step(iterate=start / np.linalg.norm(start), t=0)
    spec = _spec(data, "n-space")
    # fixed mode: a given frozen_nu replaces nu_hat
    frozen = None if mode == "adaptive" else 0.4 * sign
    m_step, n_step = (refine_step(data, ybar, state, prior, frozen_nu=frozen, spec=s)
                      for s in (None, spec))
    assert _close(m_step.pre_projection, n_step.pre_projection)
    assert _close(m_step.iterate, n_step.iterate)
    assert n_step.nu_hat == pytest.approx(m_step.nu_hat, rel=1e-12)
    assert n_step.zeta == pytest.approx(m_step.zeta, rel=1e-12)
    assert n_step.warn == m_step.warn == (sign < 0)
    if sign < 0:   # nu <= 0 takes the floored step
        assert m_step.zeta == n_step.zeta == 1.0 / NU_FLOOR

