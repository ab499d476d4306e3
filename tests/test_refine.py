import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from genphase import (ConfigurationError, GenerativePrior, LinkModel, MeasurementSet,
                      NumericalError, ProjectionConfig, SpectralMatrix, Step, appgd_step,
                      build_spectral_matrix, empirical_mean_y, evaluate, initial_vector,
                      linear_subspace_prior, population_nu, project, projected_power,
                      refine_step, relu_mlp_prior, run_refine, sample_measurements,
                      shifted_matrix)
from genphase import priors, refine, spectral
from genphase.refine import NU_FLOOR
from genphase.runtrace import score
from genphase.seeds import flatten_seed
from genphase.spectral import reduce_to_subspace

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

# The two inputs a refinement call can start from: the m measurements alone
# ("m-space": the call builds its spectral matrix on them), or the n x n
# spectral matrix passed as spec ("n-space").  Either way every step reads
# only the stack [G; M], so the two give the same bits.
FORMS = ("m-space", "n-space")


def _spec(data, form):
    """The spec a form passes: None for m-space, else the built one."""
    return None if form == "m-space" else build_spectral_matrix(data)


def _nu_hat_at(data, x):
    """The t=0 nu_hat of a run without steps: x^T M x."""
    return run_refine(data, linear_subspace_prior(1, data.n, seed=0), x, 0)[0].nu_hat


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
    assert _nu_hat_at(data, data.signal) == 0.0


def test_nu_hat_two_point_hand_value():
    # a1 = e1, a2 = e2, y = (2, 0), x = e1: ybar = 1,
    # nu_hat = mean((y - 1) * g^2) = ((2-1)*1 + (0-1)*0)/2 = 0.5
    data = _manual_set(np.eye(2), [2.0, 0.0])
    assert _nu_hat_at(data, data.signal) == 0.5


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
            nu_hat = _nu_hat_at(data, x)
            hits += abs(nu_hat - rep.nu) <= bound
        assert hits >= 9, m


def test_refine_step_zero_gradient_fixed_point(monkeypatch):
    # constant observations make both nu_hat and the pseudo-observations
    # vanish, so the pre-projection equals the iterate and the projection of a
    # range point returns itself.  The built M is accumulated from the
    # weights y - ybar, exactly 0 for a constant y whose mean is exact (the
    # mean of twenty 0.3s is not 0.3), so M is exactly 0 (derived as V +
    # ybar (I - G) it would cancel to rounding only), in both forms and over
    # several row blocks and tiles of the build.
    prior = linear_subspace_prior(5, 30, seed=1)
    x_t = _range_signal(prior, latent_seed=2)
    data = _manual_set(np.random.default_rng(1).standard_normal((20, 30)),
                       np.full(20, 3.0))
    state = Step(iterate=x_t, t=0, nu_hat=0.0)
    for block_bytes in (None, 8 * 30 * 6):   # one block; 4 row blocks of 10 tiles
        with monkeypatch.context() as patch:
            if block_bytes:
                patch.setattr(spectral, "_BLOCK_BYTES", block_bytes)
            for form in FORMS:
                spec = _spec(data, form)
                assert spec is None or not spec.stack[30:].any()
                nxt = refine_step(data, state, prior, spec=spec)
                assert np.array_equal(nxt.pre_projection, x_t), form
                assert np.allclose(nxt.iterate, x_t, atol=1e-12), form
                assert nxt.nu_hat == 0.0 and nxt.warn, form


def test_refine_step_hand_computed_update():
    # two measurements, hand-checkable arithmetic for the pre-projection
    prior = linear_subspace_prior(2, 4, seed=2)
    a = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    y = np.array([3.0, 1.0])
    data = _manual_set(a, y)
    x_t = np.array([1.0, 0.0, 0.0, 0.0])
    # ybar = 2; g = (1, 0); nu_hat = ((3-2)*1 + (1-2)*0)/2 = 0.5; zeta = 1/0.5 = 2
    # ytil = ((3-2)*1, (1-2)*0) = (1, 0); resid = 0.5*g - ytil = (-0.5, 0)
    # x_til = x - (2/2) * a^T resid = (1.5, 0, 0, 0)
    state = Step(iterate=x_t, t=0, nu_hat=0.0)
    for form in FORMS:
        nxt = refine_step(data, state, prior, spec=_spec(data, form))
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
        w0 = initial_vector(shifted_matrix(data))
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


# Row budgets of the build's row blocks for the m = 300, n = 40 sets below (a
# row is 8 * 40 = 320 bytes), over which it accumulates M: the default, whose
# block rows exceed m; block rows equal to m; block rows that m is not a
# multiple of (4 * 64 + 44), in two column tiles; and one row per block (a
# budget below one row), in 40 tiles.
BUDGETS = {"below": None, "equal": 300 * 320, "not-a-multiple": 64 * 320, "one-row": 8}


def _set_budget(monkeypatch, budget):
    if BUDGETS[budget] is not None:
        monkeypatch.setattr(spectral, "_BLOCK_BYTES", BUDGETS[budget])


def _recording(sensing, log):
    """sensing as an ndarray subclass that appends the shapes of the
    operands to log for every product with it."""
    base = np.asarray(sensing)

    class Recording(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                log.append([np.shape(a) for a in inputs])
            return getattr(ufunc, method)(*(np.asarray(a) for a in inputs), **kwargs)

        def dot(self, other, out=None):
            log.append([self.shape, np.shape(other)])
            return np.asarray(self).dot(other, out)

    return base.view(Recording)


@pytest.mark.parametrize("fixed", [False, True], ids=["adaptive", "fixed"])
@pytest.mark.parametrize("t2", [0, 1, 4])
def test_run_refine_products_with_a(t2, fixed, monkeypatch):
    # no step makes a product with A: each reads the stack [G; M] alone,
    # also for the t=0 nu_hat.  Given no spec, run_refine builds one, once
    # for all its steps, on its data (the build reads a row-major base array
    # of A, which this log does not see), and takes the same steps.
    prior = linear_subspace_prior(5, 40, seed=2)
    x = _range_signal(prior, latent_seed=1)
    data = sample_measurements(LinkModel("abs-noise-out", 0.1), x, 300, seed=9)
    spec = _spec(data, "n-space")
    builds, build = [], refine.build_spectral_matrix
    monkeypatch.setattr(refine, "build_spectral_matrix",
                        lambda data: builds.append(data) or build(data))
    log = []
    data.sensing = _recording(data.sensing, log)
    states = run_refine(data, prior, x, t2, fixed=fixed, truth=x)
    assert log == [] and builds == [data]
    given = run_refine(data, prior, x, t2, fixed=fixed, truth=x, spec=spec)
    assert log == [] and builds == [data]
    assert states[0].nu_hat == given[0].nu_hat == float(x.dot(spec.stack.dot(x)[40:]))
    for got, want in zip(states, given, strict=True):
        assert np.array_equal(got.iterate, want.iterate)


def _stream_problem():
    """A prior, an m = 300, n = 40 measurement set and a start off the signal."""
    prior = linear_subspace_prior(5, 40, seed=3)
    x = _range_signal(prior, latent_seed=4)
    data = sample_measurements(LinkModel("abs-noise-out", 0.1), x, 300, seed=11)
    start = x + 0.3 * np.random.default_rng(12).standard_normal(40)
    return prior, data, start / np.linalg.norm(start)


def _two_pass_refine(data, ybar, x, frozen_nu=None):
    """nu_hat and the pre-projection of a step, from g = A x and a second
    pass for A^T (nu g - ytil)."""
    g = data.sensing @ x
    ytil = (data.observations - ybar) * g
    nu_hat = float(np.mean(ytil * g))
    nu = nu_hat if frozen_nu is None else frozen_nu
    zeta = 1.0 / max(nu, NU_FLOOR)
    return nu_hat, x - (zeta / data.m) * (data.sensing.T @ (nu * g - ytil))


def _two_pass_appgd(data, x, tau):
    """The pre-projection of an appgd step, from g = A x and A^T r."""
    g = data.sensing @ x
    resid = g - data.observations * np.where(g >= 0, 1.0, -1.0)
    return x - (tau / data.m) * (data.sensing.T @ resid)


@pytest.mark.parametrize("budget", list(BUDGETS))
@pytest.mark.parametrize("frozen", [None, 0.4], ids=["adaptive", "fixed"])
def test_streamed_refine_step_matches_two_passes(frozen, budget, monkeypatch):
    # the step with M accumulated over the build's row blocks and tiles
    # against the formula of two passes over A
    _set_budget(monkeypatch, budget)
    prior, data, start = _stream_problem()
    ybar = empirical_mean_y(data)
    nu_hat, target = _two_pass_refine(data, ybar, start, frozen)
    step = refine_step(data, Step(iterate=start, t=0), prior, frozen_nu=frozen)
    assert _close(target, step.pre_projection)
    assert _nu_hat_at(data, start) == pytest.approx(nu_hat, rel=1e-12)
    assert step.nu_hat == (pytest.approx(nu_hat, rel=1e-12) if frozen is None else frozen)


def _one_row_frozen_step(data, ybar, x, nu):
    """zeta and the pre-projection of a step with nu frozen, from g = A x
    and one product with the one row nu g - ytil."""
    g = data.sensing @ x
    resid = (nu * g - (data.observations - ybar) * g) @ data.sensing
    zeta = 1.0 / max(nu, NU_FLOOR)
    return zeta, x - (zeta / data.m) * resid


@pytest.mark.parametrize("budget", ["below", "not-a-multiple"])
@pytest.mark.parametrize("frozen", [0.4, -0.2, 1e-4])
def test_frozen_m_space_step_matches_the_one_row_stream(frozen, budget, monkeypatch):
    # a frozen nu replaces nu_hat in the step: the same step as the m-space
    # one-row residual nu g - ytil, with M built in one block and in several
    _set_budget(monkeypatch, budget)
    prior, data, start = _stream_problem()
    ybar = empirical_mean_y(data)
    zeta, x_til = _one_row_frozen_step(data, ybar, start, frozen)
    step = refine_step(data, Step(iterate=start, t=0), prior, frozen_nu=frozen)
    assert (step.nu_hat, step.zeta, step.warn) == (frozen, zeta, frozen <= 0)
    assert _close(x_til, step.pre_projection, rel=1e-13)


@pytest.mark.parametrize("budget", list(BUDGETS))
def test_streamed_appgd_step_matches_two_passes(budget, monkeypatch):
    # a lone appgd step makes its phase term from a spectral matrix built on
    # the data, in any row blocks, and takes the two-pass step to rounding
    _set_budget(monkeypatch, budget)
    prior, data, start = _stream_problem()
    expect = project(prior, _two_pass_appgd(data, start, 0.9)).point
    assert _close(expect, appgd_step(data, start, prior, 0.9))


def test_single_block_appgd_step_keeps_the_two_pass_bits():
    # a lone step builds in one block and keeps the bits of the plain phase
    # formula of two passes over A: the signs from A x, then tau h =
    # (tau y s / m)^T A, and (I - tau G) x + tau h with G = A^T A / m
    prior, data, start = _stream_problem()
    assert spectral._block_sizes(40)[0] >= data.m
    a, y, tau = data.sensing, data.observations, 0.9
    with priors._one_blas_thread():
        gram = a.T @ a / data.m
        tau_h = ((tau / data.m) * np.where(a @ start >= 0.0, y, -y)) @ a
    x_til = (np.eye(40) - tau * gram) @ start + tau_h
    assert np.array_equal(appgd_step(data, start, prior, tau), project(prior, x_til).point)


class _NegativeZeroRow(np.ndarray):
    """A sensing matrix whose product A x has -0.0, not 0.0, in row 1.  A
    BLAS dot product sums from +0.0, so it never gives -0.0 by itself."""

    def dot(self, other, out=None):
        out = np.asarray(self).dot(other, out)
        if np.ndim(other) == 1 and len(out) == len(self):
            assert out[1] == 0.0
            out[1] = -0.0
        return out


def test_streamed_appgd_step_takes_sign_zero_as_plus_one():
    # rows 0 and 1 have a_i^T x = 0.0 and -0.0, each with y_i = 2: both take
    # sign +1, and the step is the plain two-pass formula's with those signs
    # to rounding, not the one with sign -1 there (g > 0 for g >= 0)
    prior, data, start = _stream_problem()
    start = start.copy()
    start[0] = 0.0
    a = data.sensing
    a[:2] = 0.0
    a[:2, 0] = (1.5, -0.5)
    data.observations[:2] = 2.0
    g = a @ start
    g[1] = -0.0
    assert g[0] == g[1] == 0.0 and np.signbit(g[1]) and not np.signbit(g[0])

    def expect(sign):
        resid = g - data.observations * sign
        return project(prior, start - (0.9 / data.m) * (a.T @ resid)).point

    data.sensing = a.view(_NegativeZeroRow)
    got = appgd_step(data, start, prior, 0.9)
    plus, minus = expect(np.where(g >= 0, 1.0, -1.0)), expect(np.where(g > 0, 1.0, -1.0))
    assert _close(plus, got) and not _close(minus, got, rel=1e-6)


# Lone steps, each building its spectral matrix, which streams A in two row
# blocks at the default blocks (2097 rows at n = 500); the data is large
# enough for OpenBLAS to split an unpinned product across threads.
_THREADS_SCRIPT = """
import sys
import numpy as np
from genphase import (LinkModel, Step, appgd_step, evaluate, linear_subspace_prior,
                      refine_step, sample_measurements)
prior = linear_subspace_prior(5, 500, seed=2)
x = evaluate(prior, np.random.default_rng(1).standard_normal(5))
data = sample_measurements(LinkModel("abs-noise-out", 0.1), x, 3000, seed=9)
start = x + 0.3 * np.random.default_rng(2).standard_normal(500)
state = Step(iterate=start / np.linalg.norm(start), t=0)
steps = [refine_step(data, state, prior, frozen_nu=f) for f in (None, 0.4)]
out = [a for s in steps for a in (s.pre_projection, s.iterate, np.array([s.nu_hat, s.zeta]))]
out.append(appgd_step(data, state.iterate, prior, 0.9))
sys.stdout.write(b"".join(a.tobytes() for a in out).hex())
"""


def test_streamed_steps_ignore_the_blas_thread_count():
    assert 3000 > spectral._block_sizes(500)[0] > 1500
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = [subprocess.run([sys.executable, "-c", _THREADS_SCRIPT], capture_output=True,
                           text=True, check=True,
                           env={**os.environ, "PYTHONPATH": path,
                                "OPENBLAS_NUM_THREADS": str(threads)}).stdout
            for threads in (1, 2)]
    assert outs[0] and outs[0] == outs[1]


@pytest.mark.parametrize("fixed", [False, True], ids=["adaptive", "fixed"])
@pytest.mark.parametrize("t2", [0, 1, 3])
def test_non_finite_nu_hat_is_a_numerical_error_in_m_space(t2, fixed):
    # M of the spectral matrix a lone run builds overflows, and with it
    # nu_hat, while the mean (1.875e306) and S pass the build's checks: rows
    # s and 2s (s = sign(x)) with observations c and -c/4 add exactly 0 to
    # S per pair, and -15c/8 s s^T to M, -37.5c = -1.9e308 over 20 pairs.
    prior = linear_subspace_prior(3, 12, seed=1)
    x = _range_signal(prior, latent_seed=0)
    s, c = np.sign(x), 5e306
    data = _manual_set(np.tile(np.vstack((s, 2 * s)), (20, 1)), np.tile([c, -c / 4], 20))
    with pytest.warns(RuntimeWarning):
        with pytest.raises(NumericalError, match="nu_hat"):
            run_refine(data, prior, x, t2, fixed=fixed)


@pytest.mark.parametrize("fixed", [False, True], ids=["adaptive", "fixed"])
def test_non_finite_nu_hat_is_a_numerical_error_in_n_space(fixed):
    # M x, and so x^T M x, overflows for a hand-built M = 1e308 s s^T with
    # s = sign(x): x^T M x = 1e308 (sum |x_i|)^2 and sum |x_i| > |x| = 1
    prior = linear_subspace_prior(3, 12, seed=1)
    x = _range_signal(prior, latent_seed=0)
    data = _manual_set(np.random.default_rng(1).standard_normal((40, 12)), np.ones(40))
    s = np.sign(x)
    big = 1e308 * np.outer(s, s)
    spec = SpectralMatrix(v=big, ybar=1.0, stack=np.vstack((np.eye(12), big)))
    with pytest.warns(RuntimeWarning):
        with pytest.raises(NumericalError, match="nu_hat"):
            run_refine(data, prior, x, 1, fixed=fixed, spec=spec)


def _close(a, b, rel=1e-12):
    return np.linalg.norm(np.subtract(a, b)) <= rel * np.linalg.norm(a)


def test_fixed_mode_runs_agree_across_forms():
    # a whole fixed-mode run, nu_hat frozen at the first step's estimate,
    # the same bits from the data alone and from the built spec; its first
    # step is the two-pass one to rounding
    prior, data, start = _stream_problem()
    start = project(prior, start).point
    m_run, n_run = (run_refine(data, prior, start, 4, fixed=True, truth=data.signal,
                               spec=_spec(data, form))
                    for form in FORMS)
    for m_step, n_step in zip(m_run, n_run, strict=True):
        assert np.array_equal(m_step.iterate, n_step.iterate)
        assert (n_step.error, n_step.nu_hat, n_step.warn) == \
            (m_step.error, m_step.nu_hat, m_step.warn)
    for m_step, n_step in zip(m_run[1:], n_run[1:]):
        assert np.array_equal(m_step.pre_projection, n_step.pre_projection)
        assert n_step.zeta == m_step.zeta
    assert len({s.nu_hat for s in m_run}) == 1
    nu_hat, x_til = _two_pass_refine(data, empirical_mean_y(data), start)
    assert m_run[0].nu_hat == pytest.approx(nu_hat, rel=1e-12)
    assert _close(x_til, m_run[1].pre_projection)


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
    start = x + 0.3 * rng.standard_normal(40)
    state = Step(iterate=start / np.linalg.norm(start), t=0)
    # fixed mode: a given frozen_nu replaces nu_hat
    frozen = None if mode == "adaptive" else 0.4 * sign
    m_step, n_step = (refine_step(data, state, prior, frozen_nu=frozen, spec=_spec(data, form))
                      for form in FORMS)
    assert np.array_equal(m_step.pre_projection, n_step.pre_projection)
    assert np.array_equal(m_step.iterate, n_step.iterate)
    assert (n_step.nu_hat, n_step.zeta) == (m_step.nu_hat, m_step.zeta)
    assert n_step.warn == m_step.warn == (sign < 0)
    # and the two-pass step over A to rounding
    nu_hat, x_til = _two_pass_refine(data, empirical_mean_y(data), state.iterate, frozen)
    assert _close(x_til, m_step.pre_projection)
    assert m_step.nu_hat == (pytest.approx(nu_hat, rel=1e-12) if frozen is None else frozen)
    if sign < 0:   # nu <= 0 takes the floored step
        assert m_step.zeta == n_step.zeta == 1.0 / NU_FLOOR


def _form_reference(data, x, frozen, spec):
    """nu, zeta and the pre-projection of a step, x + zeta (M x - nu G x),
    from the stack [G; M] of spec, or of a build on data when spec is None."""
    if spec is None:
        spec = build_spectral_matrix(data)
    n = len(x)
    moments = spec.stack.dot(x)
    gx, mx = moments[:n], moments[n:]
    nu = float(x.dot(mx)) if frozen is None else frozen
    zeta = 1.0 / max(nu, NU_FLOOR)
    return nu, zeta, x + zeta * (mx - nu * gx)


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["nu-positive", "nu-negative"])
@pytest.mark.parametrize("frozen", [None, 0.4, -0.2, 1e-4])
@pytest.mark.parametrize("form", FORMS)
def test_one_update_keeps_the_bits_of_each_form(form, frozen, sign):
    # the one update x + zeta (mx - nu gx) against its expression from the
    # stack, bit for bit, from the data alone and from the built spec,
    # adaptive and frozen, with nu_hat > 0 (sign +1) and nu_hat <= 0 (sign -1)
    prior = linear_subspace_prior(5, 40, seed=3)
    x = _range_signal(prior, latent_seed=4)
    rng = np.random.default_rng(10)
    a = rng.standard_normal((600, 40))
    data = _manual_set(a, sign * (np.abs(a @ x) - 0.7 + 0.1 * rng.standard_normal(600)))
    start = x + 0.3 * rng.standard_normal(40)
    start /= np.linalg.norm(start)
    spec = _spec(data, form)
    nu, zeta, x_til = _form_reference(data, start, frozen, spec)
    if frozen is None:
        assert (nu > 0) == (sign > 0)
    got = refine_step(data, Step(iterate=start, t=0), prior, frozen_nu=frozen, spec=spec)
    assert (got.nu_hat, got.zeta, got.warn) == (nu, zeta, nu <= 0)
    assert got.pre_projection.tobytes() == x_til.tobytes()
    assert got.iterate.tobytes() == project(prior, x_til).point.tobytes()


def test_a_reduced_run_without_steps_reports_x_m_x():
    # t2 = 0 forms the t=0 nu_hat as the steps would: x^T M x from the
    # reduced spec's stack, not a pass over B^
    prior = linear_subspace_prior(5, 60, seed=2)
    truth = _range_signal(prior, latent_seed=3)
    data = sample_measurements(LinkModel("abs-noise-out", 0.1), truth, 700, seed=4)
    rng = np.random.default_rng(5)
    red = reduce_to_subspace(data, prior, truth + 0.2 * rng.standard_normal(60))
    x0 = project(red.prior, red.data.signal + 0.3 * rng.standard_normal(6)).point
    spec = build_spectral_matrix(red.data)
    states = run_refine(red.data, red.prior, x0, 0, spec=spec)
    assert len(states) == 1
    assert states[0].nu_hat == float(x0.dot(spec.stack.dot(x0)[6:]))


@pytest.mark.parametrize("dim", [6, 11, 100])
def test_step_path_keeps_the_bits_of_plain_matmul(dim):
    # The step path computes its products with ndarray.dot, which dispatches
    # faster than @ on short vectors; both call the same BLAS routine.  Plain
    # @ formulas must give the same bits: a reduced linear-subspace problem
    # in k+1 = 6 and 11 coordinates (basis eye(k+1, k)), and a relu-mlp
    # problem at n = 100.
    if dim == 100:
        prior, cfg = relu_mlp_prior(5, [32], 100, seed=3), ProjectionConfig(steps=5)
    else:
        prior = GenerativePrior("linear-subspace", dim - 1, dim, None, [np.eye(dim, dim - 1)],
                                0, 1.0)
        cfg = None
    truth = _range_signal(prior, latent_seed=4)
    data = sample_measurements(LinkModel("abs-noise-out", 0.1), truth, 400, seed=5)
    spec = _spec(data, "n-space")
    x = _range_signal(prior, latent_seed=6)
    state = Step(iterate=x, t=0)

    def record(point):   # score's error and correlation, as plain @ formulas
        d = point - truth
        return math.sqrt(d @ d), float(truth @ point)

    # the step: one product with the stack [G; M]
    gx, mx = np.split(spec.stack @ x, 2)
    for frozen in (None, 0.7):
        nu = frozen if frozen is not None else x @ mx
        zeta = 1.0 / max(nu, NU_FLOOR)
        x_til = x + zeta * (mx - nu * gx)
        point = project(prior, x_til, cfg, seed=[7, 1]).point
        got = refine_step(data, state, prior, cfg, seed=[7, 1], truth=truth,
                          frozen_nu=frozen, spec=spec)
        assert (got.nu_hat, got.zeta) == (nu, zeta)
        assert np.array_equal(got.pre_projection, x_til)
        assert np.array_equal(got.iterate, point)
        assert (got.error, got.correlation) == record(point)

    w0 = np.random.default_rng(8).standard_normal(dim)
    w = w0 / np.linalg.norm(w0)
    point = project(prior, spec.v @ w, cfg, seed=[flatten_seed(9), 1]).point
    power = projected_power(spec, prior, w0, 1, cfg, seed=9, truth=truth)
    assert np.array_equal(power[0].iterate, w)
    assert np.array_equal(power[1].iterate, point)
    assert (power[1].error, power[1].correlation) == record(point)
    one, = score([Step(x, 3)], truth)
    assert (one.t, one.error, one.correlation) == (3, *record(x))


@pytest.mark.parametrize("n", [6, 11, 100, 2000])
def test_score_keeps_the_bits_of_the_per_step_dots(n):
    # score's np.vecdot over the stacked iterates must give each step the
    # bits of the per-vector formulas, also at the iterates +truth (error
    # 0) and -truth, and at iterates off the unit sphere
    rng = np.random.default_rng(n)
    truth = rng.standard_normal(n)
    truth /= np.linalg.norm(truth)
    iterates = [truth, -truth, 3.0 * truth] + list(rng.standard_normal((40, n)))
    iterates += [v / np.linalg.norm(v) for v in rng.standard_normal((40, n))]
    states = [Step(x, t) for t, x in enumerate(iterates)]
    assert score(states, truth) is states
    for t, (x, step) in enumerate(zip(iterates, states)):
        d = x - truth
        assert (step.error, step.correlation) == (math.sqrt(d @ d), float(truth @ x))
        assert type(step.error) is float and type(step.correlation) is float
        assert step.iterate is x and step.t == t
    assert states[0].error == 0.0 and states[1].correlation == -states[0].correlation


def test_score_without_truth_or_steps_returns_the_states_unchanged():
    # an empty list is what appgd's tail is at t2 = 0: np.array([]) - truth
    # would raise
    states = [Step(np.ones(3), 0), Step(np.zeros(3), 1, nu_hat=0.5)]
    assert score(states) is states
    assert all(s.error is None and s.correlation is None for s in states)
    empty = []
    assert score(empty, np.ones(3)) is empty and empty == []


def _v_and_g_step(spec, ybar, x, frozen):
    """A step from the products V x and G x: nu_hat = x^T V x + ybar (x^T x
    - x^T G x) and x~ = x - zeta ((nu + ybar) G x - V x - ybar x), the same
    as the step with M = V + ybar (I - G) up to rounding."""
    gx, vx = spec.stack[:len(x)] @ x, spec.v @ x
    nu = frozen if frozen is not None else x @ vx + ybar * (x @ x - x @ gx)
    zeta = 1.0 / max(nu, NU_FLOOR)
    return nu, zeta, x - zeta * ((nu + ybar) * gx - vx - ybar * x)


@pytest.mark.parametrize("frozen", [None, 0.7], ids=["adaptive", "fixed"])
@pytest.mark.parametrize("case", ["reduced", "hand-built"])
def test_moment_step_matches_the_v_and_g_products(case, frozen):
    # a reduced linear-subspace cell (k+1 = 6), whose build accumulates M,
    # and a SpectralMatrix built by hand with M = V + ybar (I - G)
    prior = linear_subspace_prior(5, 60, seed=2)
    truth = _range_signal(prior, latent_seed=3)
    data = sample_measurements(LinkModel("abs-noise-out", 0.1), truth, 700, seed=4)
    w0 = truth + 0.2 * np.random.default_rng(5).standard_normal(60)
    red = reduce_to_subspace(data, prior, w0)
    spec, ybar = build_spectral_matrix(red.data), empirical_mean_y(red.data)
    if case == "hand-built":
        rng = np.random.default_rng(6)
        b = rng.standard_normal((6, 6))
        g = rng.standard_normal((40, 6))
        v, gram, ybar = b + b.T + 8.0 * np.eye(6), g.T @ g / 40, 1.25
        spec = SpectralMatrix(v, ybar, np.vstack((gram, v + ybar * (np.eye(6) - gram))))
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = red.data.signal + 0.3 * rng.standard_normal(6)
        x /= np.linalg.norm(x)
        nu, zeta, x_til = _v_and_g_step(spec, ybar, x, frozen)
        got = refine_step(red.data, Step(iterate=x, t=0), red.prior, frozen_nu=frozen,
                          spec=spec)
        assert nu > 0.1
        assert got.nu_hat == pytest.approx(nu, rel=1e-13, abs=0)
        assert got.zeta == pytest.approx(zeta, rel=1e-13, abs=0)
        assert _close(x_til, got.pre_projection, rel=1e-13)
