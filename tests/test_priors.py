import numpy as np
import pytest

from genphase import (ConfigurationError, DegenerateLatentError, GenerativePrior,
                      NumericalError, ProjectionConfig, evaluate, linear_subspace_prior, load_prior,
                      project, project_exact, project_iterative,
                      projection_loss_grad, relu_mlp_prior, save_prior)
from genphase.priors import clip_to_ball, default_radius


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


def test_zero_latent_is_degenerate():
    prior = linear_subspace_prior(4, 20, seed=5)
    with pytest.raises(DegenerateLatentError):
        evaluate(prior, np.zeros(4))


def test_lipschitz_proxy_subspace_is_one():
    # orthonormal basis has spectral norm exactly 1
    prior = linear_subspace_prior(5, 50, seed=6)
    assert prior.lipschitz_proxy == pytest.approx(1.0, abs=1e-9)


def test_lipschitz_proxy_matches_svd():
    prior = relu_mlp_prior(4, [12], 24, seed=7)
    exact = 1.0
    for w in prior.layers:
        exact *= np.linalg.svd(w, compute_uv=False)[0]
    assert prior.lipschitz_proxy == pytest.approx(exact, rel=1e-6)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_project_exact_rejects_non_finite_target(bad):
    prior = linear_subspace_prior(4, 30, seed=5)
    v = np.random.default_rng(5).standard_normal(30)
    v[7] = bad
    with pytest.raises(NumericalError):
        project_exact(prior, v)


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


def test_projection_config_validation():
    for bad in (dict(steps=0), dict(restarts=0), dict(learning_rate=0.0),
                dict(latent_init="nope"), dict(tolerance=-1.0)):
        with pytest.raises(ConfigurationError):
            ProjectionConfig(**bad)


def test_prior_roundtrip_file(tmp_path):
    for prior in (linear_subspace_prior(5, 40, seed=14),
                  relu_mlp_prior(5, [16], 40, seed=14)):
        path = tmp_path / f"{prior.kind}.json"
        save_prior(prior, path)
        back = load_prior(path)
        assert back.kind == prior.kind and back.k == prior.k and back.n == prior.n
        assert back.r == prior.r and back.activation == prior.activation
        z = np.random.default_rng(15).standard_normal(5)
        assert np.array_equal(evaluate(back, z), evaluate(prior, z))


def test_invalid_dims_rejected():
    with pytest.raises(ConfigurationError):
        linear_subspace_prior(10, 10)
    with pytest.raises(ConfigurationError):
        relu_mlp_prior(10, [8], 10)
