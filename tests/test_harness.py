import json
import math
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from genphase import (ConfigurationError, ExperimentConfig, InsufficientDataError,
                      ProjectionConfig, build_spectral_matrix, config_from_dict,
                      config_from_file, draw_signal, emit_outputs, fit_slope, initial_vector,
                      read_sweep_csv, run_algorithm, run_experiment, sample_measurements,
                      shifted_matrix, validate_config)
from genphase import priors
from genphase.baselines import ALGORITHMS, run_problems
from genphase.harness import build_prior, oracle_restart, solve_cell, t_quantile_975
from genphase.runtrace import RunTrace
from genphase.seeds import flatten_seed
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


@pytest.mark.parametrize("kind", ["relu-mlp", "linear-subspace"])
def test_every_cell_builds_one_spec_with_its_stack(monkeypatch, kind):
    # a cell's one build carries the stack [G; M] its solves read: on the
    # n-space data of a relu-mlp cell, and on the reduced data of a
    # linear-subspace cell, whose G_k is B^T B^ / m
    from genphase import harness
    build, reduce, solve = (harness.build_spectral_matrix, harness.reduce_to_subspace,
                            harness.run_algorithm)
    built, reduced, solved = [], [], []

    def building(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    def reducing(*args):
        reduced.append(reduce(*args))
        return reduced[-1]

    def solving(name, data, prior, **kwargs):
        solved.append(kwargs["spec"])
        return solve(name, data, prior, **kwargs)

    monkeypatch.setattr(harness, "build_spectral_matrix", building)
    monkeypatch.setattr(harness, "reduce_to_subspace", reducing)
    monkeypatch.setattr(harness, "run_algorithm", solving)
    cfg = _tiny_cfg(prior_kind=kind, hidden=(8,) if kind == "relu-mlp" else (), n=20,
                    m_grid=(60,), trials=1, restarts=3, algorithms=("mprg", "mprgf"), t2=100,
                    projection=ProjectionConfig(steps=5))
    solve_cell(cfg, build_prior(cfg), 0, 0)
    spec = solved[0]
    assert built == [spec] and len(solved) == 6 and all(got is spec for got in solved)
    n = 20 if kind == "relu-mlp" else cfg.k + 1
    assert spec.stack.shape == (2 * n, n)
    if kind == "relu-mlp":
        assert reduced == []
    else:
        b = np.ascontiguousarray(reduced[0].data.sensing)
        with priors._one_blas_thread():
            assert np.array_equal(spec.stack[:n], b.T @ b / 60)


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


@pytest.mark.parametrize("prior", [dict(prior_kind="relu-mlp", hidden=(8,),
                                        projection=ProjectionConfig(steps=5)),
                                   dict(prior_kind="linear-subspace")],
                         ids=["relu-mlp", "linear-subspace"])
def test_solve_cell_traces_and_oracle_rule_give_the_rows(prior):
    # a cell's traces: cfg.restarts per algorithm, in config order; the
    # sweep's rows are the oracle rule applied to them, cell by cell
    cfg = _tiny_cfg(algorithms=("appgd", "mprg"), restarts=3, **prior)
    prior_obj = build_prior(cfg)
    rows = []
    for m_index, m in enumerate(cfg.m_grid):
        for trial in range(cfg.trials):
            cell = solve_cell(cfg, prior_obj, m_index, trial)
            assert list(cell) == list(cfg.algorithms)
            for algo, traces in cell.items():
                assert len(traces) == cfg.restarts
                assert all(t.algorithm == algo for t in traces)
                best = oracle_restart(traces)
                rows.append({"m": m, "algorithm": algo, "trial": trial,
                             "restart": best, "final_error": traces[best].final_error})
    assert run_experiment(cfg).rows == rows


def _n_space_cell(cfg, prior, m_index, trial):
    """A linear-subspace cell solved in n-space, as before its reduction:
    the same data, starts and seeds, and the n x n spectral matrix built on
    it, whose stack [G; M] its steps read as the reduced solves read their
    (k+1) x (k+1) one."""
    from genphase import harness
    x = draw_signal(prior, cfg.master_seed, m_index, trial)
    data = sample_measurements(harness._link(cfg), x, cfg.m_grid[m_index],
                               flatten_seed([cfg.master_seed, m_index, trial, harness.ROLE_MEAS]))
    spec = build_spectral_matrix(data)
    w0 = initial_vector(shifted_matrix(data))
    return {algo: [run_algorithm(algo, data, prior, t1=cfg.t1, t2=cfg.t2, tau=cfg.tau, spec=spec,
                                 w0_override=harness._restart_start(
                                     prior, spec, w0, cfg.master_seed, m_index, trial, restart),
                                 seed=flatten_seed([cfg.master_seed, m_index, trial, restart,
                                                    harness.ROLE_ALGO + index]))
                   for restart in range(cfg.restarts)]
            for index, algo in enumerate(cfg.algorithms)}


@pytest.mark.parametrize("k, n, m_grid", [(3, 12, (40, 120)), (5, 100, (250, 1000))],
                         ids=["k3-n12", "k5-n100"])
def test_subspace_cell_in_k_plus_1_coordinates_matches_n_space(monkeypatch, k, n, m_grid):
    # both solves take the same step form, one GEMV with the stack [G; M]:
    # every record to rounding, the same oracle restart, and final iterates
    # that are unit range points; every solve sees a (k+1)-column sensing
    # matrix, so a fall-back to n-space fails here.  The error |x - x*| of a
    # unit iterate rounds in absolute terms, about eps, so near x* (3.8e-4 at
    # k5-n100) it agrees to 1e-15 absolute rather than 1e-12 relative.
    from genphase import harness
    solve, columns = harness.run_algorithm, []

    def recording(name, data, *args, **kwargs):
        columns.append(data.sensing.shape[1])
        return solve(name, data, *args, **kwargs)

    monkeypatch.setattr(harness, "run_algorithm", recording)
    cfg = _tiny_cfg(k=k, n=n, m_grid=m_grid, trials=1, restarts=3, algorithms=ALGORITHMS)
    prior = build_prior(cfg)
    w = prior.layers[0]
    for m_index in range(len(m_grid)):
        reduced = solve_cell(cfg, prior, m_index, 0)
        full = _n_space_cell(cfg, prior, m_index, 0)
        for algo in ALGORITHMS:
            assert oracle_restart(reduced[algo]) == oracle_restart(full[algo])
            for got, want in zip(reduced[algo], full[algo]):
                assert len(got.records) == len(want.records)
                for r, s in zip(got.records, want.records):
                    assert r.keys() == s.keys() and r["t"] == s["t"]
                    assert r.get("warn") == s.get("warn")
                    for key in ("error", "correlation", "nu_hat", "zeta"):
                        if key in r:
                            near = 1e-15 if key == "error" else 0
                            assert r[key] == pytest.approx(s[key], rel=1e-12, abs=near), key
                f = got.final_iterate
                assert f.shape == (n,) and np.linalg.norm(f) == pytest.approx(1.0, abs=1e-12)
                assert np.linalg.norm(w @ (f @ w) - f) <= 1e-12
                assert np.linalg.norm(f - want.final_iterate) <= 1e-12
    assert columns == [k + 1] * (len(m_grid) * cfg.restarts * len(ALGORITHMS))


@pytest.mark.parametrize("kind", ["linear-subspace", "relu-mlp"])
def test_a_cell_holds_its_n_space_a_and_v_only_for_solves_that_read_them(monkeypatch, kind):
    # a linear-subspace cell's solves read its reduction alone, so its
    # n-space A is freed before its one V is built, on the reduced data, and
    # no n-space V exists; a relu-mlp cell's solves get the cell's own A and
    # its V, built on the n-space data.  In a three-cell sweep one n-space A
    # exists at a time: a linear-subspace sweep posts each next cell's draw
    # to its worker once the cell's reduction has freed the cell's A, before
    # the cell's solves, and the worker keeps no drawn buffer; a relu-mlp
    # cell draws its own once the last cell's solves are done and its A is
    # freed
    from genphase import harness
    sample, build, solve, post = (harness.sample_measurements, harness.build_spectral_matrix,
                                  harness.run_algorithm, harness._Drawer.post)
    refs, seen, builds, draws, sampled = {"a": lambda: None}, [], [], [], []

    def sampling(*args, **kwargs):
        sampled.append((refs["a"]() is None, len(seen)))
        data = sample(*args, **kwargs)
        refs["a"] = weakref.ref(data.sensing)
        return data

    def building(data):
        builds.append((data.n, refs["a"]() is None))
        spec = build(data)
        refs["v"] = weakref.ref(spec.v)
        return spec

    def solving(name, data, prior, **kwargs):
        a, v = refs["a"](), refs["v"]()
        seen.append((a is None, v is None, data.sensing is a, kwargs["spec"].v is v))
        return solve(name, data, prior, **kwargs)

    def posting(*args):
        draws.append((len(sampled), refs["a"]() is None, len(seen)))
        return post(*args)

    monkeypatch.setattr(harness, "sample_measurements", sampling)
    monkeypatch.setattr(harness, "build_spectral_matrix", building)
    monkeypatch.setattr(harness, "run_algorithm", solving)
    monkeypatch.setattr(harness._Drawer, "post", posting)
    monkeypatch.setattr(harness, "_cpu_count", lambda: 2)
    cfg = _tiny_cfg(prior_kind=kind, hidden=(8,) if kind == "relu-mlp" else (),
                    m_grid=(60, 90, 120), trials=1,
                    algorithms=("mprg", "appgd"), projection=ProjectionConfig(steps=5))
    run_experiment(cfg)
    freed = kind == "linear-subspace"
    assert builds == ([(cfg.k + 1, True)] if freed else [(cfg.n, False)]) * 3
    assert seen == [(freed, False, not freed, True)] * 12
    assert sampled == [(True, 0), (True, 4), (True, 8)]
    assert draws == ([(1, True, 0), (2, True, 4)] if freed else [])


def _prefetch_probe(monkeypatch, cpus):
    """Give the sweep `cpus` CPUs and record every draw made through the
    harness's worker binding (its seed and whether it ran in the main
    thread) and every sampled seed."""
    from genphase import harness
    draw, sample, log = harness.draw_gaussians, harness.sample_measurements, \
        {"drawn": [], "sampled": []}

    def drawing(seed, m, n, out):
        log["drawn"].append((seed, threading.current_thread() is threading.main_thread()))
        return draw(seed, m, n, out=out)

    def sampling(link, signal, m, seed, **kwargs):
        log["sampled"].append(seed)
        return sample(link, signal, m, seed, **kwargs)

    monkeypatch.setattr(harness, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(harness, "draw_gaussians", drawing)
    monkeypatch.setattr(harness, "sample_measurements", sampling)
    return log


def _meas_seeds(cfg):
    from genphase import harness
    return [flatten_seed([cfg.master_seed, m_index, trial, harness.ROLE_MEAS])
            for m_index in range(len(cfg.m_grid)) for trial in range(cfg.trials)]


@pytest.mark.parametrize("prior", [dict(prior_kind="relu-mlp", hidden=(8,),
                                        projection=ProjectionConfig(steps=5)),
                                   dict(prior_kind="linear-subspace")],
                         ids=["relu-mlp", "linear-subspace"])
@pytest.mark.parametrize("cpus", [1, 2])
def test_a_prefetched_sweep_is_the_sequential_sweep(monkeypatch, prior, cpus):
    # with a CPU to spare every linear-subspace cell but the first is drawn
    # on a worker thread, in order, and every relu-mlp cell by itself; the
    # rows are a sequential solve_cell loop's either way, also with the
    # interpreter switching threads every microsecond, and no thread outlives
    # the sweep
    cfg = _tiny_cfg(algorithms=("appgd", "mprg"), trials=3, **prior)
    prior_obj = build_prior(cfg)
    rows = []
    for m_index, m in enumerate(cfg.m_grid):
        for trial in range(cfg.trials):
            for algo, traces in solve_cell(cfg, prior_obj, m_index, trial).items():
                best = oracle_restart(traces)
                rows.append({"m": m, "algorithm": algo, "trial": trial,
                             "restart": best, "final_error": traces[best].final_error})
    log = _prefetch_probe(monkeypatch, cpus)
    threads, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert run_experiment(cfg).rows == rows
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads
    seeds = _meas_seeds(cfg)
    assert log["sampled"] == seeds
    ahead = cpus > 1 and cfg.prior_kind == "linear-subspace"
    assert log["drawn"] == ([(seed, False) for seed in seeds[1:]] if ahead else [])


def test_a_one_cell_sweep_starts_no_thread(monkeypatch):
    log = _prefetch_probe(monkeypatch, 2)
    threads = threading.active_count()
    run_experiment(_tiny_cfg(m_grid=(60,), trials=1))
    assert threading.active_count() == threads
    assert len(log["sampled"]) == 1 and log["drawn"] == []


@pytest.mark.parametrize("stage, cell", [("sample", 0), ("solve", 0), ("solve", 2)])
def test_a_cell_that_raises_leaves_no_thread(monkeypatch, stage, cell):
    # the sweep's first cell fails before any draw is posted, or a cell
    # fails in a solve while the next cell's draw is running
    from genphase import harness
    cfg = _tiny_cfg(trials=2)
    seeds = _meas_seeds(cfg)
    log = _prefetch_probe(monkeypatch, 2)
    real = getattr(harness, {"sample": "sample_measurements", "solve": "run_algorithm"}[stage])

    def failing(*args, **kwargs):
        seed = args[3] if stage == "sample" else args[1].seed
        if seed == seeds[cell]:
            raise RuntimeError(f"{stage} failed")
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "sample_measurements" if stage == "sample" else "run_algorithm",
                        failing)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match=f"{stage} failed"):
        run_experiment(cfg)
    assert threading.active_count() == threads
    assert [seed for seed, _ in log["drawn"]] == (seeds[1:cell + 2] if stage == "solve" else [])


def test_a_draw_error_is_raised_at_its_own_cell(monkeypatch):
    # cell 3's draw fails on the worker while cell 2 solves: cells 1 and 2
    # are sampled and solved, and the error is raised as cell 3 samples
    from genphase import harness
    cfg = _tiny_cfg(trials=2)
    seeds = _meas_seeds(cfg)
    log = _prefetch_probe(monkeypatch, 2)
    draw, solve, solved = harness.draw_gaussians, harness.run_algorithm, []

    def drawing(seed, m, n, out):
        draw(seed, m, n, out)
        if seed == seeds[2]:
            raise MemoryError("draw failed")
        return out

    def solving(name, data, prior, **kwargs):
        solved.append(data.seed)
        return solve(name, data, prior, **kwargs)

    monkeypatch.setattr(harness, "draw_gaussians", drawing)
    monkeypatch.setattr(harness, "run_algorithm", solving)
    threads = threading.active_count()
    with pytest.raises(MemoryError, match="draw failed"):
        run_experiment(cfg)
    assert threading.active_count() == threads
    assert solved == [seeds[0]] * 2 + [seeds[1]] * 2
    assert log["sampled"] == seeds[:2]


@pytest.mark.parametrize("kind", ["linear-subspace", "relu-mlp"])
def test_a_subspace_cell_builds_no_n_space_v(monkeypatch, kind):
    # the start is read from the n-space data and the one build is on the
    # reduced data: a build at the prior's n raises in a linear-subspace
    # cell, and a relu-mlp cell makes exactly one, at n
    from genphase import harness
    build, shapes = harness.build_spectral_matrix, []
    cfg = _tiny_cfg(prior_kind=kind, hidden=(8,) if kind == "relu-mlp" else (), n=20,
                    algorithms=ALGORITHMS, restarts=3, projection=ProjectionConfig(steps=5))
    prior = build_prior(cfg)

    def building(data):
        shapes.append(data.n)
        if kind == "linear-subspace" and data.n == prior.n:
            raise AssertionError("a linear-subspace cell built an n-space V")
        return build(data)

    monkeypatch.setattr(harness, "build_spectral_matrix", building)
    cell = solve_cell(cfg, prior, 1, 0)
    assert shapes == [cfg.k + 1 if kind == "linear-subspace" else cfg.n]
    assert [len(traces) for traces in cell.values()] == [3] * len(ALGORITHMS)


def test_a_subspace_cell_allocates_no_n_by_n_array():
    # at n = 400, m = 60 one n x n array (1.28 MB) outweighs everything else
    # a linear-subspace cell allocates: its peak stays below it (the start
    # and the reduction read A, 192 kB, in O(mn) memory)
    cfg = _tiny_cfg(n=400, m_grid=(60,), trials=1, restarts=3, algorithms=ALGORITHMS)
    prior = build_prior(cfg)
    solve_cell(cfg, prior, 0, 0)   # first-call caches stay out of the count
    tracemalloc.start()
    try:
        solve_cell(cfg, prior, 0, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * cfg.n ** 2


def test_oracle_restart_breaks_ties_to_the_lowest_restart():
    def traces(*errors):
        return [RunTrace(algorithm="mprg", final_error=e) for e in errors]

    assert oracle_restart(traces(0.3, 0.2, 0.2, 0.5)) == 1
    assert oracle_restart(traces(0.2, 0.2)) == 0
    assert oracle_restart(traces(0.4, 0.3, 0.1)) == 2
    assert oracle_restart(traces(0.7)) == 0


@pytest.mark.parametrize("block, bad", [("rows", dict(final_error=float("nan"))),
                                        ("rows", dict(restart=-1)),
                                        ("aggregates", dict(mean=float("nan")))],
                         ids=["nan-error", "negative-restart", "nan-mean"])
def test_sweep_csv_writer_refuses_what_its_reader_refuses(tmp_path, block, bad):
    from genphase.harness import SweepResult
    rows = [{"m": 60, "algorithm": "mprg", "trial": 0, "restart": 0, "final_error": 0.5}]
    aggregates = [{"m": 60, "algorithm": "mprg", "mean": 0.5, "stderr": 0.0}]
    result = SweepResult(rows=rows, aggregates=aggregates, slopes={})
    getattr(result, block)[0].update(bad)
    path = tmp_path / "sweep.csv"
    with pytest.raises(ConfigurationError, match="cannot write sweep CSV"):
        emit_outputs(result, "csv", path)
    assert not path.exists()


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


@pytest.mark.parametrize("rows, polyline", [
    # one m: the x range widens to one decade around it, centring the point
    ([{"m": 100, "algorithm": "a", "mean": 0.5, "stderr": 0.1},
      {"m": 100, "algorithm": "b", "mean": 0.2, "stderr": 0.0}], "345.00,"),
    # one mean and no error bar: the y range widens the same way
    ([{"m": 100, "algorithm": "a", "mean": 0.5, "stderr": 0.0},
      {"m": 400, "algorithm": "a", "mean": 0.5, "stderr": 0.0}], "70.00,225.00 620.00,225.00"),
], ids=["single-m", "constant-mean"])
def test_svg_degenerate_ranges_widen(tmp_path, rows, polyline):
    path = tmp_path / "plot.svg"
    render_sweep_svg(rows, path)
    assert f'<polyline points="{polyline}' in path.read_text()


_MISSING = object()   # a key the row lacks


@pytest.mark.parametrize("bad", [dict(m=0), dict(m=2.5), dict(mean=float("inf")),
                                 dict(mean=float("nan")), dict(mean=-0.1), dict(stderr=-1.0),
                                 dict(stderr=float("nan")), dict(mean=1e308, stderr=1e308),
                                 dict(m=_MISSING), dict(algorithm=_MISSING),
                                 dict(mean=_MISSING), dict(stderr=_MISSING)],
                         ids=["m-0", "m-float", "mean-inf", "mean-nan", "mean-negative",
                              "stderr-negative", "stderr-nan", "sum-overflows", "no-m",
                              "no-algorithm", "no-mean", "no-stderr"])
def test_svg_rejects_rows_that_break_the_aggregate_rule(tmp_path, bad):
    row = {"m": 200, "algorithm": "a", "mean": 0.3, "stderr": 0.1, **bad}
    rows = [{"m": 100, "algorithm": "a", "mean": 0.5, "stderr": 0.1},
            {key: value for key, value in row.items() if value is not _MISSING}]
    with pytest.raises(ConfigurationError, match="aggregate row"):
        render_sweep_svg(rows, tmp_path / "x.svg")
    assert not (tmp_path / "x.svg").exists()


@pytest.mark.parametrize("kind", ["linear-subspace", "relu-mlp"])
def test_random_restart_start_is_one_unit_range_point_for_every_algorithm(monkeypatch, kind):
    # restarts 0 and 1 start from +-w0; each later one from a seeded random
    # range point, which is a function of (master seed, m index, trial,
    # restart) alone, so every algorithm of a cell gets the same one
    from genphase import harness
    start_of, starts = harness._restart_start, {}

    def recording(prior, spec, w0, master_seed, m_index, trial, restart):
        out = start_of(prior, spec, w0, master_seed, m_index, trial, restart)
        starts.setdefault((m_index, trial, restart), []).append(out)
        return out

    monkeypatch.setattr(harness, "_restart_start", recording)
    cfg = _tiny_cfg(prior_kind=kind, hidden=(8,) if kind == "relu-mlp" else (), m_grid=(60,),
                    restarts=4, algorithms=("mprg", "appgd"),
                    projection=ProjectionConfig(steps=5))
    run_experiment(cfg)
    prior = build_prior(cfg)
    randoms = {key: outs for key, outs in starts.items() if key[2] >= 2}
    assert len(randoms) == cfg.trials * 2
    for (m_index, trial, restart), outs in randoms.items():
        assert len(outs) == len(cfg.algorithms)
        assert all(np.array_equal(out, outs[0]) for out in outs)
        assert np.linalg.norm(outs[0]) == pytest.approx(1.0, abs=1e-12)
        again = start_of(prior, None, None, cfg.master_seed, m_index, trial, restart)
        assert np.array_equal(again, outs[0])
        if kind == "linear-subspace":   # a point of the range: its own projection
            w = prior.layers[0]
            assert np.allclose(w @ (w.T @ outs[0]), outs[0], atol=1e-12)
    firsts = [outs[0] for outs in randoms.values()]
    assert not any(np.array_equal(a, b) for i, a in enumerate(firsts) for b in firsts[:i])
