import json
import math
import re

import numpy as np
import pytest

from genphase import (ConfigurationError, DegenerateLatentError, GenerativePrior,
                      NumericalError, ProjectionConfig, evaluate, linear_subspace_prior,
                      load_prior, project, project_exact, project_iterative,
                      projection_loss_grad, relu_mlp_prior, save_prior)
from genphase import priors
from genphase.priors import _finite_target, _latent_target, clip_to_ball, default_radius, \
    make_prior
from genphase.seeds import flatten_seed


def test_default_radius():
    assert default_radius(4) == pytest.approx(20.0)


def test_evaluate_unit_norm():
    rng = np.random.default_rng(0)
    for prior in (linear_subspace_prior(5, 40, seed=1),
                  relu_mlp_prior(5, [16], 40, seed=1)):
        for _ in range(5):
            x = evaluate(prior, rng.standard_normal(prior.k))
            assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)


def test_subspace_basis_is_orthonormal():
    w = linear_subspace_prior(6, 30, seed=2).layers[0]
    assert np.allclose(w.T @ w, np.eye(6), atol=1e-12)


def test_subspace_evaluate_basis_vector():
    prior = linear_subspace_prior(4, 20, seed=3)
    z = np.zeros(4)
    z[0] = 1.0
    assert np.allclose(evaluate(prior, z), prior.layers[0][:, 0], atol=1e-12)


def test_relu_positive_scale_invariance():
    # no bias terms, so G(cz) = G(z) for c > 0 after normalization
    prior = relu_mlp_prior(5, [16, 16], 40, seed=4)
    z = np.random.default_rng(1).standard_normal(5)
    assert np.allclose(evaluate(prior, z), evaluate(prior, 2.0 * z), atol=1e-12)


def test_latent_ball_clipping():
    prior = linear_subspace_prior(4, 20, seed=5)
    z = np.random.default_rng(2).standard_normal(4)
    z_big = z * (3.0 * prior.r / np.linalg.norm(z))
    clipped = clip_to_ball(z_big, prior.r)
    assert np.linalg.norm(clipped) == pytest.approx(prior.r, rel=1e-12)
    assert np.array_equal(evaluate(prior, z_big), evaluate(prior, clipped))


def test_clip_takes_the_true_norm_of_a_latent_whose_square_overflows():
    # z.z overflowed from entries of about 1e154: the clip warned "overflow
    # encountered in dot" and scaled z to zero, which evaluate then refused
    # as a degenerate latent
    assert np.array_equal(clip_to_ball(np.full(4, 1e200), 2.0), np.ones(4))
    prior = relu_mlp_prior(5, [16], 40, seed=1)
    e = np.eye(5)[0]
    assert np.allclose(evaluate(prior, 1e200 * e), evaluate(prior, e), rtol=0, atol=1e-15)


def test_zero_latent_is_degenerate():
    prior = linear_subspace_prior(4, 20, seed=5)
    with pytest.raises(DegenerateLatentError):
        evaluate(prior, np.zeros(4))


def test_lipschitz_proxy_subspace_is_one():
    # orthonormal basis has spectral norm exactly 1
    prior = linear_subspace_prior(5, 50, seed=6)
    assert prior.lipschitz_proxy == pytest.approx(1.0, abs=1e-9)


def test_make_prior_runs_its_lapack_calls_at_one_blas_thread(monkeypatch):
    # the QR of a linear subspace and the SVD of each layer's spectral norm
    # run with OpenBLAS pinned to one thread, and the count is restored
    count, seen = [2], []
    monkeypatch.setattr(priors, "_openblas_thread_calls",
                        lambda: (lambda: count[0], lambda threads: count.__setitem__(0, threads)))
    for name in ("qr", "norm"):
        def spy(*args, real=getattr(np.linalg, name), name=name, **kwargs):
            seen.append((name, count[0]))
            return real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    make_prior("linear-subspace", 3, 12, seed=1)
    make_prior("relu-mlp", 3, 12, hidden=[8, 6], seed=1)
    assert seen == [("qr", 1)] + [("norm", 1)] * 4 and count == [2]


def test_lipschitz_proxy_matches_svd():
    # the second shape is the mlp-sweep benchmark prior
    for k, hidden, n, seed in ((4, [12], 24, 7), (5, [32], 100, 2)):
        prior = relu_mlp_prior(k, hidden, n, seed=seed)
        exact = 1.0
        for w in prior.layers:
            exact *= np.linalg.svd(w, compute_uv=False)[0]
        assert prior.lipschitz_proxy == pytest.approx(exact, rel=1e-12), (k, hidden, n)


def test_project_exact_fixed_point():
    prior = linear_subspace_prior(5, 30, seed=8)
    v = evaluate(prior, np.random.default_rng(3).standard_normal(5))
    res = project_exact(prior, v)
    assert np.allclose(res.point, v, atol=1e-12)
    again = project_exact(prior, res.point)
    assert np.linalg.norm(again.point - res.point) <= 1e-9


def test_project_exact_near_orthogonal_target_stays_unit():
    prior = linear_subspace_prior(5, 30, seed=8)
    w = prior.layers[0]
    v = np.random.default_rng(4).standard_normal(30)
    v -= w @ (w.T @ v)  # in the orthogonal complement up to fp noise
    res = project_exact(prior, v)
    assert np.linalg.norm(res.point) == pytest.approx(1.0, abs=1e-9)


def test_project_exact_zero_target_fallback_is_basis_column():
    prior = linear_subspace_prior(5, 30, seed=8)
    res = project_exact(prior, np.zeros(30))
    assert np.array_equal(res.point, prior.layers[0][:, 0])


def _project_exact_with_clip(prior, v):
    """project_exact's point, latent and objective in plain @ form, with the
    latent always passed through clip_to_ball."""
    w = prior.layers[0]
    c = v @ w
    p = w @ c
    size = math.sqrt(p @ p)
    if size == 0:
        point = w[:, 0].copy()
        latent = np.zeros(prior.k)
        latent[0] = min(1.0, prior.r)
    else:
        point, latent = p / size, clip_to_ball(c, prior.r)
    d = point - v
    return point, latent, math.sqrt(d @ d)


@pytest.mark.parametrize("r", [None, 0.5], ids=["default-r", "r=0.5"])
@pytest.mark.parametrize("reduced", [False, True], ids=["basis", "reduced"])
def test_project_exact_keeps_the_bits_of_an_always_clipped_latent(reduced, r):
    # targets with v.v below, at and above r^2/4 (where the clip is skipped
    # up to), in range and off it, and one with a zero projection
    prior = GenerativePrior("linear-subspace", 5, 6, r, [np.eye(6, 5)], 0, 1.0) if reduced \
        else linear_subspace_prior(4, 12, r=r, seed=5)
    w, half = prior.layers[0], prior.r / 2
    rng = np.random.default_rng(9)
    off = rng.standard_normal(prior.n)
    off /= np.linalg.norm(off)
    on = w @ rng.standard_normal(prior.k)
    on /= np.linalg.norm(on)
    edge = np.zeros(prior.n)
    edge[0] = half
    assert edge @ edge == half * half and 4.0 * (edge @ edge) == prior.r ** 2
    zero = np.zeros(prior.n)
    if reduced:
        zero[-1] = 3.0 * half   # outside every basis column
    targets = [edge, zero] + [s * u for s in (0.3 * half, half, 2.0 * half, 6.0 * half)
                              for u in (off, on)]
    for v in targets:
        got = project_exact(prior, v)
        point, latent, objective = _project_exact_with_clip(prior, v)
        assert np.array_equal(got.point, point)
        assert np.array_equal(got.latent, latent)
        assert got.objective == objective and got.restart_index == 0
    # the clip acts on the largest in-range target
    assert np.linalg.norm(project_exact(prior, 6.0 * half * on).latent) == \
        pytest.approx(prior.r, rel=1e-12)
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(NumericalError, match="squared norm of W W\\^T v is not finite"):
            project_exact(linear_subspace_prior(3, 12, r=r, seed=1), np.full(12, 1e200))


def _reduced_prior(k):
    """The prior of a reduced linear-subspace problem: basis eye(k+1, k),
    whose last row is all zeros."""
    return GenerativePrior("linear-subspace", k, k + 1, None, [np.eye(k + 1, k)], 0, 1.0)


# The first three cases put the bad entry inside a random basis's support;
# the reduced ones put it in the coordinate that no basis column reaches.
@pytest.mark.parametrize("bad, reduced, projector", [
    *(pytest.param(bad, False, project_exact, id=str(bad)) for bad in (np.nan, np.inf, -np.inf)),
    *(pytest.param(bad, True, fn, id=f"reduced-{fn.__name__}-{bad}")
      for fn in (project, project_exact) for bad in (np.nan, np.inf, -np.inf))])
def test_project_exact_rejects_non_finite_target(bad, reduced, projector):
    prior = _reduced_prior(5) if reduced else linear_subspace_prior(4, 30, seed=5)
    v = np.random.default_rng(5).standard_normal(prior.n)
    v[-1 if reduced else 7] = bad
    with pytest.raises(NumericalError, match="NaN or Inf"):
        projector(prior, v)


class _KeepSubclasses:
    """numpy with an asarray that keeps an ndarray subclass, so a recorded
    target stays recorded through _finite_target."""
    asarray = staticmethod(np.asanyarray)

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.mark.parametrize("reduced", [False, True], ids=["basis", "reduced"])
def test_project_exact_forms_the_distance_only_when_it_is_read(reduced, monkeypatch):
    # the call makes four products, v.v, W^T v, W c and p.p, and forms no
    # point - v; the first read of objective forms d = point - v and d.d,
    # with the bits of the clipped-latent reference, and a second read
    # forms nothing
    log = []

    class Recording(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            log.append(ufunc.__name__)
            out = getattr(ufunc, method)(*(np.asarray(a) for a in inputs), **kwargs)
            return out.view(Recording) if isinstance(out, np.ndarray) else out

        def dot(self, other, out=None):
            log.append((np.shape(self), np.shape(other)))
            out = np.asarray(self).dot(np.asarray(other), out)
            return out.view(Recording) if isinstance(out, np.ndarray) else out

    prior = _reduced_prior(5) if reduced else linear_subspace_prior(5, 30, seed=4)
    n, k = prior.n, prior.k
    v = np.random.default_rng(6).standard_normal(n)
    v /= np.linalg.norm(v)   # 4 v.v <= r^2: no clip, whose norm would be a fifth product
    point, latent, objective = _project_exact_with_clip(prior, v)
    prior.layers[0] = prior.layers[0].view(Recording)
    monkeypatch.setattr(priors, "np", _KeepSubclasses())
    res = project_exact(prior, v.view(Recording))
    assert log == [((n,), (n,)), ((n,), (n, k)), ((n, k), (k,)), ((n,), (n,)), "divide"]
    assert np.array_equal(res.point, point) and np.array_equal(res.latent, latent)
    del log[:]
    assert res.objective == objective
    assert log == ["subtract", ((n,), (n,))]
    assert res.objective == objective and len(log) == 2


def test_an_exact_result_refuses_an_overflowing_distance_when_read():
    # a result whose d.d overflows, which from project_exact takes a v.v
    # within a few ulps of the largest double, raises the call's overflow
    # error when objective is read
    res = priors.ProjectionResult(np.array([1.0, 0.0]), np.zeros(1), None, 0,
                                  np.array([-1e308, 0.0]))
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(NumericalError, match="squared distance to v is not finite"):
            res.objective


def test_project_exact_requires_a_subspace_prior():
    with pytest.raises(ConfigurationError, match="linear-subspace"):
        project_exact(relu_mlp_prior(3, [8], 12, seed=1), np.ones(12))


# A finite target whose squared norm overflows used to give a zero "point"
# with objective inf (exact) or an inf objective at every iterate
# (iterative), each with only numpy's overflow warning.
@pytest.mark.parametrize("kind", ["linear-subspace", "relu-mlp"])
def test_projection_overflow_is_a_numerical_error(kind):
    prior = linear_subspace_prior(3, 12, seed=1) if kind == "linear-subspace" else \
        relu_mlp_prior(3, [8], 12, seed=1)
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(NumericalError, match="overflows"):
            project(prior, np.full(12, 1e200), ProjectionConfig(steps=3))
    if kind == "relu-mlp":
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(NumericalError, match="overflows"):
                projection_loss_grad(prior, np.ones(3), np.full(12, 1e200))
    else:
        # W W^T v stays finite, but the distance from v to its projection
        # overflows: v is huge only outside the range
        w = prior.layers[0]
        u = np.random.default_rng(0).standard_normal(12)
        u -= w.dot(u.dot(w))
        u /= np.linalg.norm(u)
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(NumericalError, match="overflows"):
                project_exact(prior, 1e160 * u + w[:, 0])


def test_project_exact_beats_random_range_points():
    # brute-force oracle: no sampled range point is closer than the projector's
    prior = linear_subspace_prior(4, 20, seed=9)
    rng = np.random.default_rng(5)
    v = rng.standard_normal(20)
    res = project_exact(prior, v)
    d_star = np.linalg.norm(res.point - v)
    for _ in range(10**4):
        cand = evaluate(prior, rng.standard_normal(4))
        assert d_star <= np.linalg.norm(cand - v) + 1e-9


def test_project_dispatches_exact_for_subspace():
    prior = linear_subspace_prior(4, 20, seed=9)
    v = np.random.default_rng(6).standard_normal(20)
    assert np.array_equal(project(prior, v).point, project_exact(prior, v).point)


def test_project_iterative_matches_exact_on_subspace():
    prior = linear_subspace_prior(4, 20, seed=3)
    cfg = ProjectionConfig(steps=200, learning_rate=0.05, restarts=2)
    rng = np.random.default_rng(7)
    for i in range(5):
        v = rng.standard_normal(20)
        it = project_iterative(prior, v, cfg, seed=i)
        ex = project_exact(prior, v)
        assert np.linalg.norm(it.point - ex.point) <= 1e-3


def test_project_iterative_recovers_range_point():
    prior = relu_mlp_prior(5, [32], 100, seed=10)
    z_star = np.random.default_rng(8).standard_normal(5)
    v = evaluate(prior, z_star)
    cfg = ProjectionConfig(steps=200, learning_rate=0.05, restarts=10)
    res = project_iterative(prior, v, cfg, seed=0)
    assert res.objective <= 0.05


def test_project_iterative_warm_start():
    prior = relu_mlp_prior(5, [32], 100, seed=10)
    z_star = np.random.default_rng(9).standard_normal(5)
    v = evaluate(prior, z_star)
    cfg = ProjectionConfig(steps=30, learning_rate=0.05, restarts=1,
                           latent_init="warm-start")
    res = project_iterative(prior, v, cfg, seed=0, warm_start=z_star)
    assert res.objective <= 1e-6


def test_project_iterative_determinism():
    prior = relu_mlp_prior(5, [16], 40, seed=11)
    v = np.random.default_rng(10).standard_normal(40)
    cfg = ProjectionConfig(steps=50, learning_rate=0.05, restarts=3)
    a = project_iterative(prior, v, cfg, seed=[4, 2])
    b = project_iterative(prior, v, cfg, seed=[4, 2])
    assert np.array_equal(a.point, b.point)
    assert np.array_equal(a.latent, b.latent)
    assert a.objective == b.objective and a.restart_index == b.restart_index


def test_project_iterative_checks_the_seed_rule():
    # a negative seed used to reach numpy's seeding as a bare ValueError; a
    # key is a list of seeds, each under the same rule
    prior = relu_mlp_prior(3, [8], 12, seed=1)
    v = np.random.default_rng(2).standard_normal(12)
    cfg = ProjectionConfig(steps=3, restarts=1)
    for bad in (-1, True, 1.5, [4, -2], [4, 2.0], "7"):
        with pytest.raises(ConfigurationError, match="seed: must be a nonnegative integer"):
            project_iterative(prior, v, cfg, seed=bad)
    for good in (np.int64(4), [4, 2], (4, np.int64(2))):
        project_iterative(prior, v, cfg, seed=good)


def test_project_iterative_rejects_bad_target():
    prior = relu_mlp_prior(5, [16], 40, seed=11)
    cfg = ProjectionConfig(steps=10)
    with pytest.raises(ConfigurationError):
        project_iterative(prior, np.zeros(40), cfg)
    with pytest.raises(NumericalError):
        project_iterative(prior, np.full(40, np.nan), cfg)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(12)
    priors = [linear_subspace_prior(4, 20, seed=12),
              relu_mlp_prior(4, [12], 20, seed=12),
              relu_mlp_prior(4, [10, 10], 20, seed=13)]
    h = 1e-5
    for prior in priors:
        for _ in range(7):
            z = rng.standard_normal(prior.k)
            v = rng.standard_normal(prior.n)
            v /= np.linalg.norm(v)
            _, grad = projection_loss_grad(prior, z, v)
            fd = np.zeros(prior.k)
            for j in range(prior.k):
                zp, zm = z.copy(), z.copy()
                zp[j] += h
                zm[j] -= h
                lp, _ = projection_loss_grad(prior, zp, v)
                lm, _ = projection_loss_grad(prior, zm, v)
                fd[j] = (lp - lm) / (2 * h)
            denom = max(np.linalg.norm(fd), 1e-12)
            assert np.linalg.norm(grad - fd) / denom <= 1e-4


def test_relu_mlp_default_hidden_width():
    for k, width in ((3, 16), (5, 20)):
        for hidden in ((), None):
            prior = relu_mlp_prior(k, hidden, 40, seed=1)
            assert [w.shape for w in prior.layers] == [(width, k), (40, width)]


def test_projection_config_validation():
    for bad in (dict(steps=0), dict(restarts=0), dict(learning_rate=0.0),
                dict(latent_init="nope"), dict(latent_init="zero")):
        with pytest.raises(ConfigurationError):
            ProjectionConfig(**bad)


def test_prior_roundtrip_file(tmp_path):
    for prior in (linear_subspace_prior(5, 40, seed=14),
                  relu_mlp_prior(5, [16], 40, seed=14)):
        path = tmp_path / f"{prior.kind}.json"
        save_prior(prior, path)
        back = load_prior(path)
        assert back.kind == prior.kind and back.k == prior.k and back.n == prior.n
        assert back.r == prior.r
        # the file names the kind's activation
        assert json.loads(path.read_text())["activation"] == \
            {"linear-subspace": "none", "relu-mlp": "relu"}[prior.kind]
        z = np.random.default_rng(15).standard_normal(5)
        assert np.array_equal(evaluate(back, z), evaluate(prior, z))


def test_invalid_dims_rejected():
    with pytest.raises(ConfigurationError):
        linear_subspace_prior(10, 10)
    with pytest.raises(ConfigurationError):
        relu_mlp_prior(10, [8], 10)
    for k, hidden in ((0, [8]), (-2, [8]), (3, [0]), (3, [8, 0])):
        with pytest.raises(ConfigurationError):
            relu_mlp_prior(k, hidden, 10)
    with pytest.raises(ConfigurationError):
        linear_subspace_prior(0, 10)


def test_constructors_check_the_seed_and_list_every_problem():
    # a negative seed used to reach numpy's seeding as a bare ValueError
    for bad in (-1, True, 1.5):
        with pytest.raises(ConfigurationError, match="seed:"):
            linear_subspace_prior(3, 8, seed=bad)
        with pytest.raises(ConfigurationError, match="seed:"):
            relu_mlp_prior(3, [8], 8, seed=bad)
    # every bad argument is listed in one error, not only the first
    with pytest.raises(ConfigurationError) as exc:
        relu_mlp_prior(0, [0], 0, r=-1)
    lines = str(exc.value).split("\n  ")
    assert [line.split(":")[0] for line in lines] == ["k", "r", "hidden"], lines
    assert "k=0, n=0" in lines[0] and "-1" in lines[1] and "[0]" in lines[2]
    # a numpy integer is a seed, the same as the int
    assert np.array_equal(linear_subspace_prior(3, 8, seed=np.int64(4)).layers[0],
                          linear_subspace_prior(3, 8, seed=4).layers[0])


def test_model_file_null_radius_is_the_default(tmp_path):
    # the radius rule of the constructors: None (null) is the default radius
    path = tmp_path / "prior.json"
    save_prior(linear_subspace_prior(3, 8, seed=2), path)
    doc = json.loads(path.read_text())
    path.write_text(json.dumps({**doc, "r": None}))
    assert load_prior(path).r == default_radius(3)


def test_numpy_integer_fields_write_back(tmp_path):
    # numpy integers keep the prior rules, so the model file takes them too
    prior = relu_mlp_prior(np.int64(3), [np.int64(8)], np.int64(12), seed=np.int64(5))
    save_prior(prior, tmp_path / "prior.json")
    back = load_prior(tmp_path / "prior.json")
    assert (back.k, back.n, back.seed) == (3, 12, 5)
    assert all(np.array_equal(a, b) for a, b in zip(back.layers, prior.layers))


# ---------------------------------------------------------------------------
# Bit identity: the projector's arithmetic is pinned to this plain-numpy
# reference (np.linalg.norm, @ and array-valued Adam moments).  The loss and
# gradient are the latent-space form, S rebuilt at every call; evaluate()
# keeps the full forward pass.
# ---------------------------------------------------------------------------

def _ref_clip(z, r):
    nz = np.linalg.norm(z)
    return z * (r / nz) if nz > r else z


def _ref_step_clip(z, r):
    """The clip after an Adam step: the squared norm summed in index order."""
    nz = np.sqrt(np.cumsum(z * z)[-1])
    return z * (r / nz) if nz > r else z


def _ref_hidden(prior, z):
    a, pres = z, []
    for w in prior.layers[:-1]:
        pre = w @ a
        pres.append(pre)
        a = np.maximum(pre, 0.0)
    return a, pres


def _ref_evaluate(prior, z):
    a, _ = _ref_hidden(prior, _ref_clip(np.asarray(z, dtype=float), prior.r))
    h = prior.layers[-1] @ a
    nh = np.linalg.norm(h)
    if nh == 0:
        raise DegenerateLatentError("latent maps to the zero vector")
    return h / nh


def _ref_backprop(prior, g, pres):
    for l in range(len(pres) - 1, -1, -1):
        g = prior.layers[l].T @ (g * (pres[l] > 0))
    return g


def _ref_rows(prior, z, target):
    """S = [J^T Q J ; (J^T c)^T] on the activation pattern at z."""
    w = prior.layers[-1]
    c, q = w.T @ target, w.T @ w
    j = np.eye(prior.k)
    for wl, pre in zip(prior.layers[:-1], _ref_hidden(prior, z)[1]):
        j = (wl @ j) * (pre > 0)[:, None]
    return np.vstack((j.T @ (q @ j), c @ j))


def _ref_loss_grad(prior, z, target):
    k = prior.k
    s = _ref_rows(prior, z, target)
    u = s @ z
    nh2 = z @ u[:k]
    if nh2 <= 0:
        raise DegenerateLatentError("latent maps to the zero vector")
    nh = np.sqrt(nh2)
    ac = u[k]
    loss = max(1.0 - 2.0 * ac / nh + target @ target, 0.0)
    return float(loss), (u[:k] * (ac / nh2) - s[k]) * (2.0 / nh)


def _output_space_loss_grad(prior, z, target):
    """Direct backprop through the last layer and the output normalization."""
    a, pres = _ref_hidden(prior, z)
    h = prior.layers[-1] @ a
    nh = np.linalg.norm(h)
    u = h / nh
    diff = u - target
    g_u = 2.0 * diff
    g = prior.layers[-1].T @ ((g_u - u * (u @ g_u)) / nh)
    return float(diff @ diff), _ref_backprop(prior, g, pres)


def _ref_project_iterative(prior, v, cfg, seed, warm_start=None):
    """Returns (point, latent, objective, restart_index, degenerate restarts)."""
    key = flatten_seed(seed)
    best, degenerate = None, 0
    for restart in range(cfg.restarts):
        rng = np.random.default_rng([key, restart])
        if restart == 0 and cfg.latent_init == "warm-start" and warm_start is not None:
            z = np.array(warm_start, dtype=float)
        else:
            z = 0.1 * rng.standard_normal(prior.k)
        z = _ref_clip(z, prior.r)
        m1 = np.zeros(prior.k)
        m2 = np.zeros(prior.k)
        restart_best = None
        try:
            for step in range(cfg.steps):
                loss, grad = _ref_loss_grad(prior, z, v)
                obj = math.sqrt(loss)
                if restart_best is None or obj < restart_best[0]:
                    restart_best = (obj, z.copy())
                m1 = 0.9 * m1 + 0.1 * grad
                m2 = 0.999 * m2 + 0.001 * grad * grad
                mh = m1 / (1.0 - 0.9 ** (step + 1))
                vh = m2 / (1.0 - 0.999 ** (step + 1))
                z = _ref_step_clip(z - cfg.learning_rate * mh / (np.sqrt(vh) + 1e-8), prior.r)
            loss, _ = _ref_loss_grad(prior, z, v)
            obj = math.sqrt(loss)
            if obj < restart_best[0]:
                restart_best = (obj, z.copy())
        except DegenerateLatentError:
            degenerate += 1
            if restart_best is None:
                continue
        obj, z_best = restart_best
        if best is None or obj < best[2]:
            best = (_ref_evaluate(prior, z_best), z_best, obj, restart)
    return (*best, degenerate)


def _half_space_prior(k, seed):
    """A ReLU prior whose hidden units all read mostly z[0], so a latent with
    z[0] < 0 maps to zero: a Gaussian restart is often degenerate."""
    prior = relu_mlp_prior(k, [24], 40, seed=seed)
    w = np.abs(prior.layers[0])
    w[:, 1:] *= 0.01
    prior.layers[0] = w
    return prior


def _assert_same_projection(prior, v, cfg, seed, warm_start=None):
    got = project_iterative(prior, v, cfg, seed=seed, warm_start=warm_start)
    point, latent, objective, restart_index, degenerate = \
        _ref_project_iterative(prior, v, cfg, seed, warm_start)
    assert np.array_equal(got.point, point)
    assert np.array_equal(got.latent, latent)
    assert got.objective == objective
    assert got.restart_index == restart_index
    return degenerate


@pytest.mark.parametrize("k, hidden", [pytest.param(k, [32], id=str(k)) for k in (4, 5, 10, 20)]
                         + [pytest.param(1, [32], id="1"),
                            pytest.param(5, [12, 30, 16], id="5-hidden-12-30-16")])
@pytest.mark.parametrize("latent_init", ["gaussian", "warm-start"])
@pytest.mark.parametrize("radius", [None, 0.05])
def test_project_iterative_bit_identical_to_reference(k, hidden, latent_init, radius):
    # three hidden layers: a pattern's key spans several masks
    prior = relu_mlp_prior(k, hidden, 60, r=radius, seed=k)
    rng = np.random.default_rng(100 + k)
    v = rng.standard_normal(60)
    cfg = ProjectionConfig(steps=40, learning_rate=0.1, restarts=3, latent_init=latent_init)
    _assert_same_projection(prior, v, cfg, [k, 7], warm_start=rng.standard_normal(k))


@pytest.mark.parametrize("steps", [1, 1500])
@pytest.mark.parametrize("kind, hidden", [("linear-subspace", ()), ("relu-mlp", [32])])
def test_project_iterative_bit_identical_at_other_step_counts(kind, hidden, steps):
    # step counts no other test uses, since the bias corrections come from a
    # table per step count, and a prior with no hidden layer (J = I, one
    # pattern), which project would hand to project_exact
    prior = make_prior(kind, 5, 60, hidden=hidden, seed=40)
    rng = np.random.default_rng(41)
    v = rng.standard_normal(60)
    for latent_init in ("gaussian", "warm-start"):
        cfg = ProjectionConfig(steps=steps, learning_rate=0.05, restarts=2,
                               latent_init=latent_init)
        _assert_same_projection(prior, v, cfg, 42, warm_start=rng.standard_normal(5))


def test_project_iterative_bit_identical_after_file_roundtrip(tmp_path):
    path = tmp_path / "prior.json"
    save_prior(relu_mlp_prior(5, [16, 24], 50, seed=21), path)
    prior = load_prior(path)
    v = np.random.default_rng(22).standard_normal(50)
    cfg = ProjectionConfig(steps=60, learning_rate=0.05, restarts=3)
    _assert_same_projection(prior, v, cfg, 23)


def test_project_iterative_bit_identical_with_degenerate_restart():
    prior = _half_space_prior(4, seed=24)
    v = np.random.default_rng(25).standard_normal(40)
    cfg = ProjectionConfig(steps=30, learning_rate=0.1, restarts=4)
    assert _assert_same_projection(prior, v, cfg, 26) > 0


def test_project_exact_and_evaluate_bit_identical_to_reference():
    rng = np.random.default_rng(27)
    for k in (4, 5, 10, 20):
        sub = linear_subspace_prior(k, 60, r=0.5, seed=k)
        mlp = relu_mlp_prior(k, [32], 60, r=0.5, seed=k)
        for _ in range(5):
            v = rng.standard_normal(60)
            w = sub.layers[0]
            c = w.T @ v
            p = w @ c
            got = project_exact(sub, v)
            assert np.array_equal(got.point, p / np.linalg.norm(p))
            assert np.array_equal(got.latent, _ref_clip(c, sub.r))
            assert got.objective == float(np.linalg.norm(got.point - v))
            z = rng.standard_normal(k)     # |z| > r: clipping is active
            for prior in (sub, mlp):
                assert np.array_equal(evaluate(prior, z), _ref_evaluate(prior, z))
                assert np.array_equal(evaluate(prior, 0.01 * z), _ref_evaluate(prior, 0.01 * z))
            loss, grad = projection_loss_grad(mlp, z, v)
            ref_loss, ref_grad = _ref_loss_grad(mlp, z, v)
            assert loss == ref_loss and np.array_equal(grad, ref_grad)


def test_project_iterative_calls_loss_grad_through_module_global(monkeypatch):
    import genphase.priors as priors_module
    calls = []
    inner = priors_module.projection_loss_grad

    def counting(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(priors_module, "projection_loss_grad", counting)
    prior = relu_mlp_prior(5, [16], 40, seed=28)
    rng = np.random.default_rng(29)
    v = rng.standard_normal(40)
    for latent_init in ("gaussian", "warm-start"):
        calls.clear()
        cfg = ProjectionConfig(steps=17, learning_rate=0.05, restarts=3, latent_init=latent_init)
        project_iterative(prior, v, cfg, seed=30, warm_start=rng.standard_normal(5))
        assert len(calls) == cfg.restarts * (cfg.steps + 1)


@pytest.mark.parametrize("hidden", [[8], [40], [16, 24], [40, 8], [12, 30, 16], [160],
                                    [24, 64]])
def test_loss_grad_matches_output_space_backprop(hidden):
    # hidden widths below and above n = 20, one to three hidden layers; the
    # last two have a last layer well above n
    prior = relu_mlp_prior(4, hidden, 20, seed=len(hidden))
    rng = np.random.default_rng(31)
    for _ in range(20):
        z = rng.standard_normal(prior.k)
        v = rng.standard_normal(prior.n)
        if np.count_nonzero(_ref_hidden(prior, z)[0]) < 2:
            continue    # G is locally constant: both gradients are rounding noise
        for target in (v, v / np.linalg.norm(v)):
            loss, grad = projection_loss_grad(prior, z, target)
            ref_loss, ref_grad = _output_space_loss_grad(prior, z, target)
            assert loss == pytest.approx(ref_loss, rel=1e-12)
            assert np.linalg.norm(grad - ref_grad) <= 1e-12 * np.linalg.norm(ref_grad)


@pytest.mark.parametrize("hidden", [[32], [16, 24]])
def test_cached_rows_give_the_bits_of_a_fresh_target(hidden):
    # positive multiples of z share its activation pattern (no bias terms),
    # and so does a tiny move; only the first call builds S
    prior = relu_mlp_prior(5, hidden, 50, seed=36)
    rng = np.random.default_rng(37)
    v = rng.standard_normal(50)
    z = rng.standard_normal(5)
    target = _latent_target(prior, *_finite_target(v, prior.n))
    for zi in (z, 2.0 * z, 0.5 * z, z + 1e-9 * rng.standard_normal(5), 3.0 * z):
        loss, grad = projection_loss_grad(prior, zi, target)
        fresh_loss, fresh_grad = projection_loss_grad(prior, zi, v)
        assert loss == fresh_loss and np.array_equal(grad, fresh_grad)
    assert len(target.rows) == 1


@pytest.mark.parametrize("bad", [
    pytest.param([np.nan, 0.1, 0.2, 0.3, 0.4], id="nan"),
    pytest.param([0.1, np.inf, 0.2, 0.3, 0.4], id="inf"),
    pytest.param([0.1, 0.2, 0.3], id="length-3"),
    pytest.param([[0.1, 0.2, 0.3, 0.4, 0.5]], id="2-d"),
    pytest.param(["a", "b", "c", "d", "e"], id="text")])
def test_a_latent_that_is_not_a_finite_k_vector_is_a_configuration_error(bad):
    # a NaN warm start used to give a NaN point and objective, an inf one a
    # warning and then NaN, a short one numpy's bare "shapes not aligned";
    # evaluate and projection_loss_grad had the same gaps, and the latter
    # also an AttributeError for any list
    prior = relu_mlp_prior(5, [16], 40, seed=1)
    v = np.random.default_rng(38).standard_normal(40)
    rule = "a latent must be a finite vector of length 5"
    with pytest.raises(ConfigurationError, match=f"warm_start: {rule}"):
        project(prior, v, ProjectionConfig(steps=3, latent_init="warm-start"), warm_start=bad)
    with pytest.raises(ConfigurationError, match=f"z: {rule}"):
        evaluate(prior, bad)
    with pytest.raises(ConfigurationError, match=f"z: {rule}"):
        projection_loss_grad(prior, bad, v)
    # a list that is a finite length-k vector is taken as that vector
    z = [0.1, 0.2, 0.3, 0.4, 0.5]
    assert projection_loss_grad(prior, z, v) == projection_loss_grad(prior, np.array(z), v)
    # a Gaussian-started projection does not read the warm start
    project(prior, v, ProjectionConfig(steps=3), warm_start=bad)


@pytest.mark.parametrize("shape", [(7,), (41,), (1, 40), (40, 1)],
                         ids=["short", "long", "row", "column"])
def test_a_target_of_the_wrong_shape_is_a_configuration_error(shape):
    # each raised numpy's bare ValueError ("shapes (7,) and (40,16) not
    # aligned", or a broadcast error), which named no argument
    rule = "a projection target must be a vector of length 40"
    bad = np.random.default_rng(39).standard_normal(shape)
    mlp = relu_mlp_prior(5, [16], 40, seed=1)
    with pytest.raises(ConfigurationError, match=re.escape(f"v: {rule}, got shape {shape}")):
        project(mlp, bad, ProjectionConfig(steps=3))
    with pytest.raises(ConfigurationError, match=f"target: {rule}"):
        projection_loss_grad(mlp, np.ones(5), bad)
    with pytest.raises(ConfigurationError, match=f"v: {rule}"):
        project(linear_subspace_prior(5, 40, seed=1), bad)
    with pytest.raises(ConfigurationError, match=f"v: {rule}"):
        project_exact(linear_subspace_prior(5, 40, seed=1), bad)


def test_target_in_range_clamps_loss_at_zero():
    # about half of these losses round below zero before the clamp
    prior = relu_mlp_prior(5, [32], 100, seed=32)
    rng = np.random.default_rng(33)
    cfg = ProjectionConfig(steps=5, learning_rate=0.05, latent_init="warm-start")
    for _ in range(20):
        z = rng.standard_normal(5)
        v = evaluate(prior, z)
        loss, _ = projection_loss_grad(prior, z, v)
        assert 0.0 <= loss <= 1e-14
        res = project_iterative(prior, v, cfg, warm_start=z)
        assert 0.0 <= res.objective <= 1e-6


def test_zero_hidden_activation_is_degenerate():
    prior = _half_space_prior(4, seed=34)
    z = np.array([-1.0, 0.1, 0.2, 0.3])
    assert not np.any(np.maximum(prior.layers[0] @ z, 0.0))
    with pytest.raises(DegenerateLatentError):
        projection_loss_grad(prior, z, np.random.default_rng(35).standard_normal(40))
