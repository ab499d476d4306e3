import json
import math

import numpy as np
import pytest

from genphase import (ConfigurationError, ExperimentConfig, InsufficientDataError,
                      config_from_dict, config_from_file, draw_signal, emit_outputs,
                      fit_slope, read_sweep_csv, run_experiment, validate_config)
from genphase.baselines import run_problems
from genphase.harness import build_prior, t_quantile_975
from genphase.svg import render_sweep_svg


def _tiny_cfg(**kw):
    base = dict(k=3, n=12, m_grid=(60, 120), trials=2, restarts=2,
                algorithms=("mprg",), t1=3, t2=3, master_seed=7)
    base.update(kw)
    return ExperimentConfig(**base)


def test_validate_collects_all_problems():
    cfg = ExperimentConfig(k=0, n=0, trials=0, restarts=0, m_grid=(5, 3),
                           algorithms=("bogus",), t1=0, tau=-1.0, sigma=-1.0)
    with pytest.raises(ConfigurationError) as exc:
        validate_config(cfg)
    msg = str(exc.value)
    for frag in ("k:", "trials:", "restarts:", "m_grid:", "algorithms:",
                 "t1:", "tau:", "sigma:"):
        assert frag in msg, frag


def test_validate_uses_link_and_refine_checks():
    # LinkModel's own checks and the t2 check; validate_config lists each
    # with the other problems instead of leaving it to the run
    for kw, frag in ((dict(link_name="bogus"), "link.name:"),
                     (dict(link_name="custom", link_params={"cube": 1.0}), "link.params:"),
                     (dict(t2=-1), "t2:")):
        with pytest.raises(ConfigurationError) as exc:
            validate_config(_tiny_cfg(trials=0, **kw))
        assert frag in str(exc.value) and "trials:" in str(exc.value), frag


def test_validate_uses_the_run_rules():
    # the algorithm, t1, t2 and tau lines are run_algorithm's own rules,
    # listed with the other problems
    cfg = _tiny_cfg(trials=0, algorithms=("bogus",), t1=0, t2=-1, tau=float("nan"))
    with pytest.raises(ConfigurationError) as exc:
        validate_config(cfg)
    assert str(exc.value).split("\n  ")[1:] == \
        ["trials: must be an integer >= 1, got 0"] + run_problems(cfg.algorithms, cfg.t1, cfg.t2, cfg.tau)


def test_validate_rejects_bad_radius_and_width():
    # r = 0 and a zero-width layer used to fail later as a numerical error
    # ("latent maps to the zero vector"); a negative r used to run
    for kw, frag in ((dict(r=0.0), "r:"), (dict(r=-1.0), "r:"),
                     (dict(prior_kind="relu-mlp", hidden=(0,)), "hidden:")):
        with pytest.raises(ConfigurationError, match=frag):
            validate_config(_tiny_cfg(**kw))


def test_config_from_dict_round_trip(tmp_path):
    doc = {
        "prior": {"kind": "linear-subspace", "k": 3, "n": 12, "seed": 4},
        "link": {"name": "square-sin", "sigma": 0.1},
        "m_grid": [60, 120],
        "trials": 2,
        "restarts": 2,
        "algorithms": ["mprg", "appgd"],
        "t1": 3,
        "t2": 3,
        "master_seed": 9,
        "projection": {"steps": 50, "learning_rate": 0.1},
    }
    cfg = config_from_dict(doc)
    assert cfg.k == 3 and cfg.link_name == "square-sin"
    assert cfg.algorithms == ("mprg", "appgd")
    assert cfg.projection.steps == 50
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert config_from_file(path) == cfg


def test_config_from_dict_defaults_are_the_field_defaults():
    assert config_from_dict({}) == ExperimentConfig()
    assert config_from_dict({"prior": {}, "link": {}, "projection": {}}) == ExperimentConfig()


def test_config_from_dict_names_projection_field():
    for proj, frag in (({"steps": 0}, "projection.steps:"),
                       ({"latent_init": "zero"}, "projection.latent_init:")):
        with pytest.raises(ConfigurationError, match=frag):
            config_from_dict({"projection": proj})


def test_config_from_dict_lists_every_value_problem():
    # the projection and link sections are checked with the rest, not alone
    for doc, frags in (({"trials": 0, "projection": {"steps": 0, "restarts": 0}},
                        ("trials:", "projection.steps:", "projection.restarts:")),
                       ({"link": {"name": "bogus", "sigma": -1.0}, "t2": -1},
                        ("link.name:", "link.sigma:", "t2:"))):
        with pytest.raises(ConfigurationError) as exc:
            config_from_dict(doc)
        msg = str(exc.value)
        assert msg.startswith("invalid experiment config:\n  ")
        assert all(f"\n  {frag}" in msg for frag in frags), msg


def test_config_from_file_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigurationError):
        config_from_file(path)


def test_draw_signal_is_canonical_and_deterministic():
    prior = build_prior(_tiny_cfg())
    a = draw_signal(prior, 7, 0, 0)
    b = draw_signal(prior, 7, 0, 0)
    c = draw_signal(prior, 7, 0, 1)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)
    assert a[int(np.argmax(np.abs(a)))] > 0


def test_fit_slope_exact_power_law():
    pts = [(m, 3.0 / math.sqrt(m)) for m in (100, 200, 400, 800)]
    fit = fit_slope(pts)
    assert fit.slope == pytest.approx(-0.5, abs=1e-9)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-9)
    assert fit.ci95 == pytest.approx(0.0, abs=1e-9)


def test_fit_slope_constant_is_zero():
    fit = fit_slope([(m, 0.25) for m in (10, 100, 1000)])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_fit_slope_drops_nonpositive():
    with pytest.warns(UserWarning):
        fit = fit_slope([(10, 1.0), (100, 0.0), (1000, 0.1), (10000, 0.01)])
    assert fit.slope < 0
    with pytest.raises(InsufficientDataError):
        with pytest.warns(UserWarning):
            fit_slope([(10, 1.0), (100, 0.0), (1000, 0.1)])
    # any iterable: a generator is consumed once, the warning still fires
    with pytest.warns(UserWarning):
        fit = fit_slope(p for p in [(10, 1.0), (100, 0.0), (1000, 0.1), (10000, 0.01)])
    assert fit.slope < 0


def test_fit_slope_rejects_m_below_one():
    # log(-5) gave SlopeFit(nan, nan, nan) with only a numpy RuntimeWarning
    with pytest.raises(ConfigurationError, match=r"point \(m=-5, error=1.0\)"):
        fit_slope([(-5, 1.0), (10, 0.5), (100, 0.2)])


def test_fit_slope_rejects_non_finite_error():
    # an infinite error gave SlopeFit(nan, nan, nan); a NaN one was dropped
    # as nonpositive
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ConfigurationError, match=rf"point \(m=10, error={bad!r}\)"):
            fit_slope([(10, bad), (100, 0.5), (1000, 0.2)])


# t_{0.975}(df) as scipy.stats.t.ppf(0.975, df) gives it in scipy 1.17.1
T975 = {1: 12.706204736174694, 2: 4.302652729749462, 3: 3.1824463052837078,
        4: 2.7764451051977934, 5: 2.5705818356363146, 10: 2.228138851986274,
        30: 2.0422724563012378, 100: 1.9839715185235518}


@pytest.mark.parametrize("df", sorted(T975))
def test_t_quantile_975_reference_values(df):
    assert t_quantile_975(df) == pytest.approx(T975[df], rel=1e-13, abs=0)


def test_fit_slope_matches_scipy_linregress():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(11)
    for _ in range(200):
        size = int(rng.integers(3, 12))
        m = np.sort(rng.choice(np.arange(10, 10**5), size, replace=False))
        err = np.exp(rng.standard_normal(size)) / np.sqrt(m)
        fit = fit_slope(zip(m.tolist(), err.tolist()))
        ref = stats.linregress(np.log(m), np.log(err))
        # the same arithmetic, so the same bits
        assert (fit.slope, fit.intercept) == (ref.slope, ref.intercept)
        assert fit.ci95 == pytest.approx(stats.t.ppf(0.975, size - 2) * ref.stderr,
                                         rel=1e-13, abs=0)


def test_fit_slope_single_m_is_insufficient_data():
    # scipy's linregress raised its own ValueError here
    with pytest.raises(InsufficientDataError, match="distinct m"):
        fit_slope([(100, 0.3), (100, 0.2), (100, 0.1)])


def test_run_experiment_row_cardinality():
    cfg = _tiny_cfg(algorithms=("mprg", "ppower"))
    result = run_experiment(cfg)
    assert len(result.rows) == len(cfg.m_grid) * cfg.trials * 2
    assert len(result.aggregates) == len(cfg.m_grid) * 2
    for row in result.rows:
        assert 0 <= row["restart"] < cfg.restarts
    # fewer than 3 grid points: slope fit must be reported as unavailable
    assert result.slopes == {"mprg": None, "ppower": None}


def test_run_experiment_builds_for_all_refine_steps(monkeypatch):
    # each cell's build is told the refinement steps of every restart of
    # every algorithm: 2 restarts x (mprg t2 + step2 t1+t2 + appgd 0)
    from genphase import harness
    seen = []
    build = harness.build_spectral_matrix

    def recording(data, refine_steps=0):
        seen.append(refine_steps)
        return build(data, refine_steps=refine_steps)

    monkeypatch.setattr(harness, "build_spectral_matrix", recording)
    run_experiment(_tiny_cfg(algorithms=("mprg", "step2", "appgd"), t1=3, t2=4))
    assert seen == [2 * (4 + 7 + 0)] * 4


def test_run_experiment_determinism():
    cfg = _tiny_cfg()
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg)
    assert r1.rows == r2.rows
    assert r1.aggregates == r2.aggregates


def test_best_of_restarts_never_hurts():
    one = run_experiment(_tiny_cfg(restarts=1))
    two = run_experiment(_tiny_cfg(restarts=2))
    for a, b in zip(one.rows, two.rows):
        assert b["final_error"] <= a["final_error"] + 1e-12


def test_sweep_csv_round_trip(tmp_path):
    cfg = _tiny_cfg()
    result = run_experiment(cfg)
    path = tmp_path / "sweep.csv"
    emit_outputs(result, "csv", path)
    rows, aggregates = read_sweep_csv(path)
    assert rows == result.rows
    # aggregates recomputed from the parsed rows match the stored block
    for agg in aggregates:
        errs = [r["final_error"] for r in rows
                if r["m"] == agg["m"] and r["algorithm"] == agg["algorithm"]]
        assert agg["mean"] == pytest.approx(np.mean(errs), abs=1e-12)
        expect_se = np.std(errs, ddof=1) / math.sqrt(len(errs)) if len(errs) > 1 else 0.0
        assert agg["stderr"] == pytest.approx(expect_se, abs=1e-12)


def test_emit_outputs_rejects_unknown_format(tmp_path):
    result = run_experiment(_tiny_cfg())
    with pytest.raises(ConfigurationError):
        emit_outputs(result, "png", tmp_path / "x.png")
    assert not (tmp_path / "x.png").exists()


def test_emit_outputs_rejects_empty_result(tmp_path):
    from genphase.harness import SweepResult
    empty = SweepResult(rows=[], aggregates=[], slopes={})
    for fmt in ("csv", "svg"):
        with pytest.raises(ConfigurationError):
            emit_outputs(empty, fmt, tmp_path / f"x.{fmt}")
        assert not (tmp_path / f"x.{fmt}").exists()


def test_svg_structure(tmp_path):
    aggregates = [{"m": 100, "algorithm": "mprg", "mean": 0.5, "stderr": 0.1},
                  {"m": 200, "algorithm": "mprg", "mean": 0.3, "stderr": 0.05},
                  {"m": 400, "algorithm": "mprg", "mean": 0.2, "stderr": 0.02}]
    path = tmp_path / "plot.svg"
    render_sweep_svg(aggregates, path)
    text = path.read_text()
    assert text.count("<polyline") == 1
    poly = text.split('<polyline points="')[1].split('"')[0]
    assert len(poly.split()) == 3  # one vertex per m value
    assert text.count("stroke-width=\"1\"") == 3  # one error bar per point
    assert "mprg" in text and text.startswith("<svg")


def test_svg_deterministic(tmp_path):
    aggregates = [{"m": 100, "algorithm": "b", "mean": 0.5, "stderr": 0.0},
                  {"m": 200, "algorithm": "a", "mean": 0.3, "stderr": 0.0},
                  {"m": 100, "algorithm": "a", "mean": 0.4, "stderr": 0.0},
                  {"m": 200, "algorithm": "b", "mean": 0.2, "stderr": 0.0}]
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    render_sweep_svg(aggregates, p1)
    render_sweep_svg(list(reversed(aggregates)), p2)
    assert p1.read_text() == p2.read_text()
    # algorithms drawn in sorted order
    text = p1.read_text()
    assert text.index(">a</text>") < text.index(">b</text>")


def test_svg_rejects_nonpositive_means(tmp_path):
    with pytest.raises(ConfigurationError):
        render_sweep_svg([{"m": 10, "algorithm": "x", "mean": 0.0, "stderr": 0.0}],
                         tmp_path / "x.svg")
    with pytest.raises(ConfigurationError):
        render_sweep_svg([], tmp_path / "y.svg")
