import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from genphase import ALGORITHMS, ConfigurationError, ExperimentConfig, LinkModel, \
    NumericalError, ProjectionConfig, build_spectral_matrix, config_from_dict, draw_signal, \
    linear_subspace_prior, load_measurements, load_prior, population_nu, projected_power, \
    read_sweep_csv, relu_mlp_prior, run_algorithm, run_experiment, sample_measurements, \
    save_prior, validate_config, write_trajectory_csv
from genphase.cli import main
from genphase.errors import is_finite_number, is_integer
from genphase.harness import build_prior


def test_gen_model_and_simulate(tmp_path, capsys):
    model = tmp_path / "prior.json"
    assert main(["gen-model", "--kind", "linear-subspace", "--k", "3", "--n", "12",
                 "--seed", "1", "--out", str(model)]) == 0
    prior = load_prior(model)
    assert prior.k == 3 and prior.n == 12

    csv = tmp_path / "meas.csv"
    assert main(["simulate", "--model", str(model), "--link", "abs-noise-out",
                 "--m", "40", "--seed", "2", "--out", str(csv)]) == 0
    data = load_measurements(csv)
    assert data.m == 40 and data.n == 12
    assert (tmp_path / "meas.csv.meta.json").exists()
    out = capsys.readouterr().out
    assert "wrote" in out


def test_nu_command(capsys):
    assert main(["nu", "--link", "square-noise", "--samples", "20000"]) == 0
    out = capsys.readouterr().out
    assert "nu" in out and "2" in out
    assert "subexp_norm_proxy" in out


def test_run_command(tmp_path):
    model = tmp_path / "prior.json"
    main(["gen-model", "--k", "3", "--n", "12", "--seed", "1", "--out", str(model)])
    traj = tmp_path / "traj.csv"
    assert main(["run", "--model", str(model), "--algorithm", "mprg",
                 "--link", "abs-noise-out", "--m", "200", "--seed", "3",
                 "--t1", "3", "--t2", "4", "--out", str(traj)]) == 0
    lines = traj.read_text().strip().splitlines()
    assert lines[0] == "t,error,nu_hat,zeta,warn"
    assert len(lines) == 1 + 3 + 4 + 1  # header + t1 + t2 + initial state


def test_run_command_power_schema(tmp_path):
    model = tmp_path / "prior.json"
    main(["gen-model", "--k", "3", "--n", "12", "--seed", "1", "--out", str(model)])
    traj = tmp_path / "traj.csv"
    assert main(["run", "--model", str(model), "--algorithm", "ppower",
                 "--m", "200", "--t1", "2", "--t2", "2", "--out", str(traj)]) == 0
    lines = traj.read_text().strip().splitlines()
    assert lines[0] == "t,error,correlation"
    assert len(lines) == 6


def _run_trajectory(tmp_path, algorithm, t1=3, t2=4):
    model = tmp_path / "prior.json"
    main(["gen-model", "--k", "3", "--n", "12", "--seed", "1", "--out", str(model)])
    traj = tmp_path / f"{algorithm}.csv"
    assert main(["run", "--model", str(model), "--algorithm", algorithm,
                 "--m", "200", "--seed", "3", "--t1", str(t1), "--t2", str(t2),
                 "--out", str(traj)]) == 0
    return [line.split(",") for line in traj.read_text().splitlines()]


def test_run_trajectory_cells_mprg(tmp_path):
    rows = _run_trajectory(tmp_path, "mprg", t1=3, t2=4)
    assert rows[0] == ["t", "error", "nu_hat", "zeta", "warn"]
    body = rows[1:]
    assert [r[0] for r in body] == [str(t) for t in range(3 + 4 + 1)]
    # power rows t < t1 carry no nu_hat, zeta or warn flag
    for r in body[:3]:
        assert r[2:] == ["nan", "nan", "0"]
        assert float(r[1]) >= 0
    # the refinement starts at t = t1 with nu_hat but no step size yet
    assert body[3][3] == "nan"
    assert math.isfinite(float(body[3][2]))
    for r in body[4:]:
        assert float(r[3]) > 0 and r[4] in ("0", "1")


@pytest.mark.parametrize("value", [math.nan, math.inf, np.float64(-np.inf)])
def test_trajectory_writer_refuses_a_non_finite_record(tmp_path, value):
    # "nan" in a trajectory CSV means a field the record lacks, never a
    # value; a non-finite one is refused before the file is opened
    records = [{"t": 0, "error": 1.0, "correlation": 0.5},
               {"t": 1, "error": 0.5, "nu_hat": value, "zeta": None, "warn": False}]
    out = tmp_path / "traj.csv"
    with pytest.raises(NumericalError, match=r"record 1 nu_hat="):
        write_trajectory_csv(records, out)
    assert not out.exists()
    records[1]["nu_hat"] = None
    write_trajectory_csv(records, out)
    assert out.read_text().splitlines()[1:] == ["0,1,nan,nan,0", "1,0.5,nan,nan,0"]


def test_run_trajectory_cells_power_schema(tmp_path):
    for algorithm in ("ppower", "appgd"):
        rows = _run_trajectory(tmp_path, algorithm, t1=3, t2=4)
        assert rows[0] == ["t", "error", "correlation"], algorithm
        assert len(rows) == 1 + 3 + 4 + 1, algorithm
        assert [r[0] for r in rows[1:]] == [str(t) for t in range(8)], algorithm
        assert all(abs(float(r[2])) <= 1.0 + 1e-12 for r in rows[1:]), algorithm


def _sweep_config_error(tmp_path, capsys, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["sweep", "--config", str(bad), "--out-csv", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()
    return code, err


def test_config_wrong_type_exit_code(tmp_path, capsys):
    code, err = _sweep_config_error(tmp_path, capsys, {"trials": "2"})
    assert code == 2
    assert "configuration error" in err and "trials" in err


def test_config_unknown_nested_key_exit_code(tmp_path, capsys):
    code, err = _sweep_config_error(tmp_path, capsys, {"projection": {"stepz": 5}})
    assert code == 2
    assert "projection.stepz" in err


def test_config_unknown_top_level_key_exit_code(tmp_path, capsys):
    # select_by, nu_floor and zeta_fixed were sweep-config keys; they are gone
    for key, value in (("trails", 2), ("select_by", "residual"), ("nu_floor", 1e-3),
                       ("zeta_fixed", 0.7)):
        code, err = _sweep_config_error(tmp_path, capsys, {key: value})
        assert code == 2, key
        assert f"{key}: unknown key" in err, key


def test_config_builtin_link_params_exit_code(tmp_path, capsys):
    code, err = _sweep_config_error(
        tmp_path, capsys, {"link": {"name": "abs-noise-out", "params": {"square": 2.0}}})
    assert code == 2
    assert "link.params" in err


# a linear subspace has no hidden layers; its kind and the widths are both
# valid alone, so the rule is the only thing that stops the widths being dropped
def test_config_subspace_with_hidden_widths_exit_code(tmp_path, capsys):
    code, err = _sweep_config_error(
        tmp_path, capsys, {"prior": {"kind": "linear-subspace", "k": 3, "n": 12, "hidden": [8]}})
    assert code == 2
    assert re.search(r"(?m)^  prior\.hidden: a linear-subspace prior has no hidden widths", err)
    assert "Traceback" not in err


def test_gen_model_subspace_with_hidden_widths_exit_code(tmp_path, capsys):
    model = tmp_path / "prior.json"
    assert main(["gen-model", "--kind", "linear-subspace", "--k", "3", "--n", "12",
                 "--hidden", "32", "--out", str(model)]) == 2
    err = capsys.readouterr().err
    assert "hidden: a linear-subspace prior has no hidden widths" in err
    assert "Traceback" not in err
    assert not model.exists()


@pytest.mark.parametrize("kind", [{}, [], 3, None], ids=["object", "list", "int", "null"])
def test_config_non_string_kind_exit_code(tmp_path, capsys, kind):
    # an unhashable kind must not reach a dict lookup
    code, err = _sweep_config_error(tmp_path, capsys, {"prior": {"kind": kind}})
    assert code == 2
    assert "prior.kind: unknown kind" in err and "Traceback" not in err


@pytest.mark.parametrize("doc, field", [
    ({"projection": {"learning_rate": float("nan")}}, "projection.learning_rate"),
    ({"projection": {"learning_rate": float("inf")}}, "projection.learning_rate"),
    ({"tau": float("nan")}, "tau"),
    ({"tau": float("-inf")}, "tau"),
    ({"link": {"sigma": float("nan")}}, "link.sigma"),
    ({"link": {"name": "custom", "params": {"abs": float("nan")}}}, "link.params"),
    ({"prior": {"r": float("inf")}}, "prior.r"),
])
def test_config_non_finite_number_exit_code(tmp_path, capsys, doc, field):
    # json.dumps writes NaN and Infinity literals, which json.load reads back;
    # the field's own rule rejects them
    code, err = _sweep_config_error(tmp_path, capsys, doc)
    assert code == 2
    assert re.search(rf"(?m)^  {re.escape(field)}: .*finite", err), err


@pytest.mark.parametrize("argv, field", [
    (["run", "--sigma", "nan"], "link.sigma"),
    (["run", "--sigma", "inf"], "link.sigma"),
    (["run", "--algorithm", "appgd", "--tau", "nan"], "tau"),
    (["run", "--link", "custom", "--link-params", '{"abs": NaN}'], "link.params"),
    (["run", "--link", "custom", "--link-params", '{"abs": "x"}'], "link.params"),
    (["run", "--link", "custom", "--link-params", "[1]"], "link.params"),
    (["gen-model", "--r", "nan"], "r"),
])
def test_cli_non_finite_number_exit_code(tmp_path, capsys, argv, field):
    model = tmp_path / "prior.json"
    main(["gen-model", "--k", "3", "--n", "12", "--seed", "1", "--out", str(model)])
    out = tmp_path / "out.csv"
    args = ["--model", str(model), "--m", "40", "--t1", "2", "--t2", "2"] \
        if argv[0] == "run" else []
    capsys.readouterr()
    assert main(argv + args + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{field}: " in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv, field", [
    (["run", "--algorithm", "appgd", "--t2", "-5"], "t2"),
    (["run", "--algorithm", "ppower", "--t1", "-10"], "t1"),
    (["run", "--algorithm", "step2", "--t1", "0"], "t1"),
    (["run", "--algorithm", "mprg", "--tau", "nan"], "tau"),
    (["nu", "--samples", "-1"], "mc_samples"),
    (["nu", "--link", "linear", "--samples", "0"], "mc_samples"),
])
def test_cli_run_argument_exit_code(tmp_path, capsys, argv, field):
    # every rule holds for every algorithm, also one that does not use the
    # argument; the nu report needs 1e4 samples for every link
    out = tmp_path / "out.csv"
    if argv[0] == "run":
        model = tmp_path / "prior.json"
        main(["gen-model", "--k", "3", "--n", "12", "--seed", "1", "--out", str(model)])
        argv = argv + ["--model", str(model), "--m", "40", "--out", str(out)]
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error: ")
    assert f"{field}: must be" in captured.err
    assert "Traceback" not in captured.err and "nan" not in captured.out
    assert not out.exists()


# Seeded property test: sweep configs with up to three values replaced by
# wrong types, non-finite numbers, empty or out-of-range values, or dropped.
# Every integer an integer field can get is small, so no sweep allocates much;
# an int too large for a float goes only to number fields.
_ODD_VALUES = [-1, 0, 1, 2, -0.5, 1e300, True, None, "", "x", [], [0], [3, 2], {},
               {"abs": float("nan")}]
_NUMBER_FIELDS = [("", "tau"), ("prior", "r"), ("link", "sigma"), ("projection", "learning_rate")]
_NON_FINITE = [float("nan"), float("inf"), float("-inf"), 10**400]


def _base_sweep_doc(rng):
    kind = ("linear-subspace", "relu-mlp")[rng.integers(2)]
    link = ("abs-noise-out", "square-sin", "custom")[rng.integers(3)]
    return {
        "prior": {"kind": kind, "k": 2, "n": int(rng.integers(6, 16)), "r": 5.0, "seed": 1,
                  "hidden": [6] if kind == "relu-mlp" else []},
        "link": {"name": link, "sigma": 0.1,
                 **({"params": {"square": 1.0}} if link == "custom" else {})},
        "projection": {"steps": 8, "learning_rate": 0.05, "restarts": 1,
                       "latent_init": "warm-start"},
        "m_grid": [30, 60], "trials": 1, "restarts": 2,
        "algorithms": ["mprg", "appgd", "step2"], "t1": 2, "t2": 2, "tau": 0.9,
        "master_seed": int(rng.integers(1000)),
    }


def _mutate(doc, rng):
    if rng.random() < 0.3:
        section, key = _NUMBER_FIELDS[rng.integers(len(_NUMBER_FIELDS))]
        value = _NON_FINITE[rng.integers(len(_NON_FINITE))]
    else:
        section = ("", "prior", "link", "projection")[rng.integers(4)]
        key, value = None, _ODD_VALUES[rng.integers(len(_ODD_VALUES))]
    values = doc.get(section) if section else doc
    if not (isinstance(values, dict) and values):
        return
    key = key or sorted(values)[rng.integers(len(values))]
    if rng.random() < 0.15:
        values.pop(key, None)
    else:
        values[key] = value


def _has_non_finite(value):
    if isinstance(value, dict):
        return any(map(_has_non_finite, value.values()))
    if isinstance(value, list):
        return any(map(_has_non_finite, value))
    # NaN, the infinities and ints too large for a float
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and not abs(value) <= sys.float_info.max


def test_sweep_property_random_configs(tmp_path, capsys):
    rng = np.random.default_rng(2024)
    cfg_path, csv = tmp_path / "cfg.json", tmp_path / "sweep.csv"
    codes = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for case in range(300):
            doc = _base_sweep_doc(rng)
            for _ in range(rng.integers(4)):
                _mutate(doc, rng)
            cfg_path.write_text(json.dumps(doc))
            csv.unlink(missing_ok=True)
            code = main(["sweep", "--config", str(cfg_path), "--out-csv", str(csv)])
            err = capsys.readouterr().err
            codes.append(code)
            assert code in (0, 2, 3), (case, doc, err)
            assert "Traceback" not in err, (case, doc, err)
            if _has_non_finite(doc):
                assert code == 2, (case, doc, err)
            if code == 0:
                cells = csv.read_text().replace("\n", ",").split(",")
                assert not any(c.lower() in ("nan", "inf", "-inf") for c in cells), (case, doc)
            else:
                assert not csv.exists(), (case, doc)
    assert {0, 2} <= set(codes)
    # a random config can have a zero mean error at some m, which the slope
    # fit drops; any other warning is new
    assert {str(w.message) for w in caught} <= {"fit_slope: dropped nonpositive error values"}


# Seeded twin of the sweep property test on the library path: the same odd
# values go straight into up to three fields of an ExperimentConfig (checked
# by validate_config and, if they pass, run by run_experiment) or arguments
# of run_algorithm, ProjectionConfig, population_nu, relu_mlp_prior and
# LinkModel.  A call returns or raises ConfigurationError; any other
# exception is a rule that assumed its value's type.  A checked config may
# still fail numerically (NumericalError, exit 3), e.g. a relu-mlp prior
# whose narrow layers send every latent to zero.
def _odd_arguments(rng, names):
    return {names[rng.integers(len(names))]: _ODD_VALUES[rng.integers(len(_ODD_VALUES))]
            for _ in range(1 + rng.integers(3))}


def _validate_and_run(cfg):
    validate_config(cfg)
    try:
        run_experiment(cfg)
    except NumericalError:
        pass


def test_library_property_random_arguments():
    rng = np.random.default_rng(2025)
    cfg = ExperimentConfig(prior_kind="relu-mlp", k=2, n=8, hidden=(6,), prior_seed=1,
                           link_name="square-sin", sigma=0.1, m_grid=(30, 60), trials=1,
                           algorithms=("mprg", "appgd", "step2"), t1=2, t2=2,
                           projection=ProjectionConfig(steps=8, latent_init="warm-start"))
    prior = build_prior(cfg)
    data = sample_measurements(LinkModel("square-sin", 0.1), draw_signal(prior, 0, 0, 0),
                               30, 1)
    entries = {
        "ExperimentConfig": (lambda **kw: _validate_and_run(dataclasses.replace(cfg, **kw)),
                             [f.name for f in dataclasses.fields(cfg)]),
        "run_algorithm": (lambda name, **kw: run_algorithm(
            name, data, prior, **{"t1": 2, "t2": 2, "proj_cfg": cfg.projection, **kw}),
            ["name", "t1", "t2", "tau", "seed"]),
        "ProjectionConfig": (ProjectionConfig, ["steps", "learning_rate", "restarts",
                                                "latent_init"]),
        "population_nu": (lambda **kw: population_nu(
            LinkModel("square-sin", 0.1), **{"mc_samples": 10**4, **kw}),
            ["mc_samples", "seed"]),
        "relu_mlp_prior": (lambda **kw: relu_mlp_prior(**{"k": 2, "hidden": [6], "n": 8, **kw}),
                           ["k", "hidden", "n", "r", "seed"]),
        "LinkModel": (lambda **kw: LinkModel(**{"name": "custom", "params": {"abs": 1.0}, **kw}),
                      ["name", "sigma", "params"]),
    }
    outcomes = set()
    for case in range(300):
        entry = sorted(entries)[rng.integers(len(entries))]
        call, names = entries[entry]
        kw = _odd_arguments(rng, names)
        if entry == "run_algorithm":
            kw.setdefault("name", ALGORITHMS[rng.integers(len(ALGORITHMS))])
        try:
            call(**kw)
            outcomes.add((entry, "pass"))
        except ConfigurationError:
            outcomes.add((entry, "rejected"))
        except Exception as exc:   # what the command line would show as a traceback
            pytest.fail(f"case {case}: {entry}({kw!r}) raised {exc!r}")
    assert outcomes == {(entry, outcome) for entry in entries
                        for outcome in ("pass", "rejected")}


def _small_problem():
    prior = linear_subspace_prior(3, 12, seed=1)
    data = sample_measurements(LinkModel("abs-noise-out"), draw_signal(prior, 0, 0, 0), 40, 1)
    return prior, data, build_spectral_matrix(data)


def test_each_count_rule_checks_its_type():
    # each call raised a bare TypeError, except t1=True (which ran) and
    # steps=2.5 (which failed only in the projection)
    prior, data, spec = _small_problem()
    cases = [
        ("t1", lambda: run_algorithm("mprg", data, prior, t1=2.5)),
        ("t1", lambda: run_algorithm("mprg", data, prior, t1=True)),
        ("t2", lambda: run_algorithm("mprg", data, prior, t2=2.5)),
        ("t1", lambda: projected_power(spec, prior, np.ones(12), 2.0)),
        ("projection.steps", lambda: ProjectionConfig(steps="3")),
        ("projection.steps", lambda: ProjectionConfig(steps=2.5)),
        ("trials", lambda: run_experiment(ExperimentConfig(trials=1.5))),
        ("restarts", lambda: run_experiment(ExperimentConfig(restarts=1.5))),
        ("trials", lambda: validate_config(ExperimentConfig(trials="2"))),
        ("mc_samples", lambda: population_nu(LinkModel("linear"), mc_samples=1e5)),
        ("mc_samples", lambda: population_nu(LinkModel("linear"), mc_samples="20000")),
        ("hidden", lambda: relu_mlp_prior(3, 5, 12)),
        ("link.name", lambda: LinkModel(name=["x"])),
    ]
    for i, (field, call) in enumerate(cases):
        with pytest.raises(ConfigurationError) as exc:
            call()
        # the field each line of the message names, section and all
        named = set(re.findall(r"(?m)^\s*([\w.]+):", str(exc.value)))
        assert named == {field}, (i, str(exc.value))


@pytest.mark.parametrize("t1", [2.5, True, 0])
def test_t1_rule_is_the_same_on_every_path(t1):
    # one bad t1 as a sweep config key, an ExperimentConfig field, a run
    # argument and a power iteration count
    prior, data, spec = _small_problem()
    calls = (lambda: config_from_dict({"t1": t1}),
             lambda: validate_config(ExperimentConfig(t1=t1)),
             lambda: run_algorithm("mprg", data, prior, t1=t1),
             lambda: projected_power(spec, prior, np.ones(12), t1))
    lines = []
    for call in calls:
        with pytest.raises(ConfigurationError) as exc:
            call()
        lines.append([line.strip() for line in str(exc.value).splitlines()
                      if line.strip().startswith("t1:")])
    assert lines == [[f"t1: must be an integer >= 1, got {t1!r}"]] * len(calls)


def test_sweep_and_plot(tmp_path):
    cfg = {"prior": {"k": 3, "n": 12, "seed": 4},
           "link": {"name": "abs-noise-out"},
           "m_grid": [60, 120], "trials": 2, "restarts": 1,
           "algorithms": ["mprg"], "t1": 3, "t2": 3, "master_seed": 5}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    csv = tmp_path / "sweep.csv"
    svg = tmp_path / "sweep.svg"
    assert main(["sweep", "--config", str(cfg_path), "--out-csv", str(csv),
                 "--out-svg", str(svg)]) == 0
    rows, aggregates = read_sweep_csv(csv)
    assert len(rows) == 4 and len(aggregates) == 2
    assert svg.read_text().startswith("<svg")

    svg2 = tmp_path / "replot.svg"
    assert main(["plot", "--in-csv", str(csv), "--out-svg", str(svg2)]) == 0
    assert svg2.read_text() == svg.read_text()


def test_config_that_is_not_utf8_exit_code(tmp_path, capsys):
    # a UTF-16 byte-order mark is not UTF-8
    bad = tmp_path / "cfg.json"
    bad.write_bytes(b"\xff\xfe{\x00}\x00")
    assert main(["sweep", "--config", str(bad), "--out-csv", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "configuration error: cannot parse config file" in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("doc", [[1, 2], "sweep", 3, None])
def test_config_that_is_not_an_object_exit_code(tmp_path, capsys, doc):
    code, err = _sweep_config_error(tmp_path, capsys, doc)
    assert code == 2
    assert "expected a JSON object" in err


def test_sweep_prints_a_slope_per_algorithm(tmp_path, capsys):
    # three m values are the fewest a slope fit takes
    cfg = {"prior": {"k": 3, "n": 12, "seed": 4}, "m_grid": [40, 80, 160], "trials": 2,
           "restarts": 1, "algorithms": ["mprg", "appgd"], "t1": 2, "t2": 2, "master_seed": 5}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["sweep", "--config", str(cfg_path), "--out-csv", str(tmp_path / "s.csv")]) == 0
    out = capsys.readouterr().out
    for algo in cfg["algorithms"]:
        assert re.search(rf"(?m)^{algo}: log-log slope -?\d+\.\d{{3}} \+/- \d+\.\d{{3}}$", out)


@pytest.mark.parametrize("kind", ["linear-subspace", "relu-mlp"])
def test_run_projection_overflow_exit_code(tmp_path, capsys, kind):
    # a finite tau of 1e200 overflows the squared norm of APPGD's first
    # projection target; numpy warns, and the projector raises
    model = tmp_path / "prior.json"
    assert main(["gen-model", "--kind", kind, "--k", "3", "--n", "12", "--out", str(model)]) == 0
    out = tmp_path / "traj.csv"
    with pytest.warns(RuntimeWarning, match="overflow"):
        code = main(["run", "--model", str(model), "--algorithm", "appgd", "--tau", "1e200",
                     "--m", "40", "--out", str(out)])
    assert code == 3
    assert "numerical failure: projection" in capsys.readouterr().err
    assert not out.exists()


_HUGE_OBSERVATIONS = [["--sigma", "1e200"],
                      ["--link", "custom", "--link-params", json.dumps({"square": 1e160})]]


@pytest.mark.parametrize("link_args", _HUGE_OBSERVATIONS, ids=["sigma", "custom-square"])
def test_run_spectral_start_overflow_exit_code(tmp_path, capsys, link_args):
    # finite observations of 1e200 overflow the norm of the spectral start's
    # column; that used to exit 2, naming a w0 the user never gave
    model = tmp_path / "prior.json"
    assert main(["gen-model", "--kind", "linear-subspace", "--k", "3", "--n", "20",
                 "--out", str(model)]) == 0
    out = tmp_path / "traj.csv"
    with pytest.warns(RuntimeWarning, match="overflow"):
        code = main(["run", "--model", str(model), "--m", "60", *link_args, "--out", str(out)])
    assert code == 3
    assert "numerical failure: spectral start overflows" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_spectral_start_overflow_exit_code(tmp_path, capsys):
    doc = {"prior": {"k": 3, "n": 20}, "link": {"sigma": 1e200}, "m_grid": [60],
           "trials": 1, "restarts": 1, "t1": 2, "t2": 2}
    with pytest.warns(RuntimeWarning, match="overflow"):
        code, err = _sweep_config_error(tmp_path, capsys, doc)
    assert code == 3
    assert "numerical failure: spectral start overflows" in err


_OVERFLOWING_LINK = ["--link", "custom", "--link-params", json.dumps({"square": 1e308})]


def test_simulate_overflowing_link_exit_code(tmp_path, capsys):
    # g^2 * 1e308 overflows: that wrote inf observations, which load refused
    model = tmp_path / "prior.json"
    assert main(["gen-model", "--k", "3", "--n", "20", "--out", str(model)]) == 0
    out = tmp_path / "meas.csv"
    with pytest.warns(RuntimeWarning, match="overflow"):
        code = main(["simulate", "--model", str(model), "--m", "60", *_OVERFLOWING_LINK,
                     "--out", str(out)])
    assert code == 3
    assert "numerical failure: link 'custom'" in capsys.readouterr().err
    assert not out.exists() and not Path(str(out) + ".meta.json").exists()


def test_nu_overflowing_link_exit_code(capsys):
    # that printed "nu nan" and "mean_y inf" with exit 0
    with pytest.warns(RuntimeWarning, match="overflow"):
        code = main(["nu", *_OVERFLOWING_LINK, "--samples", "20000"])
    assert code == 3
    out, err = capsys.readouterr()
    assert "numerical failure: link 'custom'" in err and "nu" not in out


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"trials": 0}))
    assert main(["sweep", "--config", str(bad), "--out-csv",
                 str(tmp_path / "x.csv")]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_bad_link_exit_code(capsys):
    assert main(["nu", "--link", "not-a-link"]) == 2
    assert main(["nu", "--link", "custom", "--link-params", "{bad json"]) == 2
    assert main(["nu", "--link", "abs-noise-out", "--link-params", '{"square": 2.0}']) == 2
    assert "link.params" in capsys.readouterr().err


def test_missing_file_exit_code(tmp_path, capsys):
    assert main(["simulate", "--model", str(tmp_path / "absent.json"),
                 "--m", "10", "--out", str(tmp_path / "x.csv")]) == 3
    assert "I/O error" in capsys.readouterr().err


def test_custom_link_cli(tmp_path, capsys):
    assert main(["nu", "--link", "custom", "--link-params",
                 json.dumps({"square": 2.0, "sin-abs": 3.0}),
                 "--samples", "20000"]) == 0
    capsys.readouterr()


def _model_file(tmp_path, edit):
    """A gen-model file passed through edit(doc) -> doc, or written as the
    text edit returns when that is a string."""
    model = tmp_path / "prior.json"
    main(["gen-model", "--kind", "relu-mlp", "--k", "3", "--n", "12", "--hidden", "8",
          "--seed", "1", "--out", str(model)])
    doc = edit(json.loads(model.read_text()))
    model.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return model


def _drop_layers(doc):
    del doc["layers"]
    return doc


def _nan_weight(doc):
    doc["layers"][0][0][0] = float("nan")   # json.dumps writes NaN, json.load reads it
    return doc


def _field(key, value):
    return lambda doc: {**doc, key: value}


def _k_equals_n(doc):
    # n cut down to k = 3, with the last layer cut to match: the layers map k to n
    return {**doc, "n": doc["k"], "layers": [doc["layers"][0], doc["layers"][1][:doc["k"]]]}


def _zero_k(doc):
    # k = 0 with a first layer of zero columns, so the layers map k to n
    return {**doc, "k": 0, "layers": [[[] for _ in doc["layers"][0]], doc["layers"][1]]}


def _kind(kind, activation):
    # the file has two layers, so linear-subspace is wrong even with activation none
    return lambda doc: {**doc, "kind": kind, "activation": activation}


@pytest.mark.parametrize("edit, code, frag", [
    (_drop_layers, 2, "'layers'"),
    (lambda doc: "{not json", 2, "malformed model file"),
    (_field("k", 4), 2, "do not map k to n"),
    (_nan_weight, 3, "NaN or Inf weight"),
    (_kind("bogus", "tanh"), 2, "is not a prior"),
    (_kind("relu-mlp", "tanh"), 2, "is not a prior"),
    (_kind("relu-mlp", "none"), 2, "is not a prior"),
    (_kind("linear-subspace", "relu"), 2, "is not a prior"),
    (_kind("linear-subspace", "none"), 2, "a linear-subspace prior has no hidden widths"),
    (_field("kind", {}), 2, "unknown kind {}"),
    (_field("kind", ["relu-mlp"]), 2, "unknown kind ['relu-mlp']"),
    (_field("r", -1.0), 2, "radius"),
    (_field("r", "abc"), 2, "radius"),
    (_field("r", float("nan")), 2, "radius"),
    (_field("k", 3.0), 2, "must be integers"),
    (_field("n", 12.0), 2, "must be integers"),
    (_field("lipschitz_proxy", "abc"), 2, "lipschitz_proxy 'abc'"),
    (_field("seed", "abc"), 2, "\n  seed:"),
    (_field("seed", -1), 2, "\n  seed:"),
    (_field("seed", 1.5), 2, "\n  seed:"),
    (_k_equals_n, 2, "\n  k:"),
    (_zero_k, 2, "\n  k:"),
], ids=["missing-key", "not-json", "layer-shapes", "nan-weight", "unknown-kind",
        "unknown-activation", "relu-mlp-without-relu", "subspace-with-relu",
        "subspace-with-two-layers", "object-kind", "list-kind", "negative-radius",
        "text-radius", "nan-radius", "float-k", "float-n", "text-lipschitz-proxy", "text-seed",
        "negative-seed", "float-seed", "k-equals-n", "zero-k"])
def test_malformed_model_exit_code(tmp_path, capsys, edit, code, frag):
    model = _model_file(tmp_path, edit)
    capsys.readouterr()
    csv = tmp_path / "meas.csv"
    assert main(["simulate", "--model", str(model), "--m", "20", "--out", str(csv)]) == code
    err = capsys.readouterr().err
    assert frag in err and "Traceback" not in err
    assert not csv.exists()
    traj = tmp_path / "traj.csv"
    assert main(["run", "--model", str(model), "--algorithm", "mprg", "--m", "50",
                 "--t1", "2", "--t2", "2", "--out", str(traj)]) == code
    err = capsys.readouterr().err
    assert frag in err and "Traceback" not in err
    assert not traj.exists()


def _named_fields(message):
    """The fields a problem list names: each line that starts with a field
    name and a colon, without the sweep config's "prior." section."""
    return set(re.findall(r"(?m)^\s*(?:prior\.)?(\w+):", message))


def _zero_width_layer(doc):
    # the last layer reads a hidden layer of width 0
    return {**doc, "layers": [doc["layers"][0], [[] for _ in doc["layers"][1]]]}


@pytest.mark.parametrize("field, value, file_edit", [
    ("k", 0, _field("k", 0)),
    ("k", 12, _field("k", 12)),
    ("r", 0.0, _field("r", 0.0)),
    ("r", float("nan"), _field("r", float("nan"))),
    ("hidden", [0], _zero_width_layer),
    ("seed", -1, _field("seed", -1)),
], ids=["k-zero", "k-equals-n", "r-zero", "r-nan", "hidden-zero", "seed-negative"])
def test_prior_rule_is_the_same_on_every_path(tmp_path, capsys, field, value, file_edit):
    # one bad field of the relu-mlp prior k=3, hidden [8], n=12, seed 1, as a
    # sweep config's prior, as a constructor argument and in a model file
    fields = dict(k=3, hidden=[8], n=12, seed=1)
    bad = {**fields, field: value}
    with pytest.raises(ConfigurationError) as exc:
        config_from_dict({"prior": {"kind": "relu-mlp", **bad}})
    from_config = str(exc.value)
    with pytest.raises(ConfigurationError) as exc:
        relu_mlp_prior(**bad)
    from_constructor = str(exc.value)
    model = _model_file(tmp_path, file_edit)
    capsys.readouterr()
    assert main(["run", "--model", str(model), "--m", "50", "--t1", "2", "--t2", "2",
                 "--out", str(tmp_path / "traj.csv")]) == 2
    from_file = capsys.readouterr().err
    assert "Traceback" not in from_file
    for message in (from_config, from_constructor, from_file):
        assert _named_fields(message) == {field}, message


# Seeded property test: model files with up to three mutations each (a
# dropped key, a wrong-typed or out-of-range value, k or n as a float, a NaN
# or infinite weight, a ragged or short layer) run through `genphase run`.
# A model that runs must also write back (save_prior) and read again as it was.
_MODEL_KEYS = ["kind", "k", "n", "r", "seed", "activation", "lipschitz_proxy", "layers"]
_MODEL_ODD_VALUES = [-1, 0, 1, 2.5, 1e300, True, None, "", "abc", [], [[1.0]], {},
                     float("nan"), float("inf"), float("-inf")]
_BAD_WEIGHTS = [float("nan"), float("inf"), float("-inf"), None, "x"]


def _mutate_model(doc, rng):
    layers = doc.get("layers")
    has_rows = isinstance(layers, list) and layers and all(
        isinstance(w, list) and w and all(isinstance(row, list) and row for row in w)
        for w in layers)
    kind = rng.integers(6 if has_rows else 3)
    if kind == 0:
        doc.pop(_MODEL_KEYS[rng.integers(len(_MODEL_KEYS))], None)
    elif kind == 1:
        key = _MODEL_KEYS[rng.integers(len(_MODEL_KEYS))]
        doc[key] = _MODEL_ODD_VALUES[rng.integers(len(_MODEL_ODD_VALUES))]
    elif kind == 2:
        key = ("k", "n")[rng.integers(2)]
        if is_integer(doc.get(key)):
            doc[key] = float(doc[key])
    else:
        w = layers[rng.integers(len(layers))]
        row = w[rng.integers(len(w))]
        if kind == 3:
            row[rng.integers(len(row))] = _BAD_WEIGHTS[rng.integers(len(_BAD_WEIGHTS))]
        elif kind == 4:
            row.pop()           # ragged, or a row of zero width
        else:
            w.pop()             # one row short


def test_run_property_random_model_files(tmp_path, capsys):
    bases = []
    for kind, hidden in (("linear-subspace", []), ("relu-mlp", ["--hidden", "5"])):
        path = tmp_path / f"{kind}.json"
        main(["gen-model", "--kind", kind, "--k", "2", "--n", "8", *hidden,
              "--seed", "3", "--out", str(path)])
        bases.append(path.read_text())
    rng = np.random.default_rng(77)
    model, traj, back = tmp_path / "model.json", tmp_path / "traj.csv", tmp_path / "back.json"
    codes = []
    for case in range(200):
        doc = json.loads(bases[rng.integers(2)])
        for _ in range(1 + rng.integers(3)):
            _mutate_model(doc, rng)
        model.write_text(json.dumps(doc))
        traj.unlink(missing_ok=True)
        algorithm = ("mprg", "mprgf", "ppower", "step2", "appgd")[rng.integers(5)]
        argv = ["run", "--model", str(model), "--algorithm", algorithm, "--m", "30",
                "--t1", "2", "--t2", "2", "--out", str(traj)]
        try:
            code = main(argv)
        except Exception as exc:   # what the command line would show as a traceback
            pytest.fail(f"case {case}: {exc!r} from {doc}")
        err = capsys.readouterr().err
        codes.append(code)
        assert code in (0, 2, 3), (case, doc, err)
        assert traj.exists() == (code == 0), (case, doc, err)
        ints_ok = all(is_integer(doc.get(key, 0)) for key in ("k", "n"))
        seed = doc.get("seed", 0)
        seed_ok = is_integer(seed) and seed >= 0
        if not (ints_ok and seed_ok) or not is_finite_number(doc.get("lipschitz_proxy", 0.0)):
            assert code == 2, (case, doc, err)
        if code == 0:   # the loaded prior writes back and reads again unchanged
            prior = load_prior(model)
            save_prior(prior, back)
            again = load_prior(back)
            assert all(np.array_equal(a, b) for a, b in zip(again.layers, prior.layers))
            assert len(again.layers) == len(prior.layers)
            assert (again.kind, again.k, again.n, again.r, again.seed,
                    again.lipschitz_proxy) == (prior.kind, prior.k, prior.n, prior.r,
                                               prior.seed, prior.lipschitz_proxy), (case, doc)
    assert {0, 2, 3} <= set(codes)


def _plot_exit_code(tmp_path, capsys, text):
    csv = tmp_path / "sweep.csv"
    csv.write_text(text)
    code = main(["plot", "--in-csv", str(csv), "--out-svg", str(tmp_path / "x.svg")])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert not (tmp_path / "x.svg").exists()
    return code, err


# the cells must parse, and the per-trial row rule holds: integers m >= 1,
# trial >= 0 and restart >= 0, and a finite final_error >= 0
@pytest.mark.parametrize("line", ["60,mprg,0.5,0,0.1", "60,mprg,0,0", "60,mprg,0,0,0.1,7",
                                  "60,mprg,x,0,0.1", "0,mprg,0,0,0.1", "60,mprg,-1,0,0.1",
                                  "60,mprg,0,-1,0.1", "60,mprg,0,0,-0.1", "60,mprg,0,0,nan",
                                  "60,mprg,0,0,inf"])
def test_malformed_sweep_csv_exit_code(tmp_path, capsys, line):
    code, err = _plot_exit_code(tmp_path, capsys, "m,algorithm,trial,restart,final_error\n"
                                + line + "\nm,algorithm,mean,stderr\n60,mprg,0.1,0.0\n")
    assert code == 2
    assert "malformed sweep CSV line" in err and repr(line) in err


# the aggregate row rule: an integer m >= 1 and a finite mean and stderr >= 0
# with a finite sum; each of these used to exit 1 with a math domain error or
# write nan coordinates
@pytest.mark.parametrize("line", ["100,mprg,0.5,-1", "0,mprg,0.5,0.1", "100,mprg,inf,0.1",
                                  "100,mprg,nan,0.1", "100,mprg,-0.5,0.1", "100,mprg,0.5,inf",
                                  "100,mprg,1e308,1e308"])
def test_malformed_sweep_csv_aggregate_exit_code(tmp_path, capsys, line):
    code, err = _plot_exit_code(tmp_path, capsys, "m,algorithm,trial,restart,final_error\n"
                                "100,mprg,0,0,0.5\nm,algorithm,mean,stderr\n" + line + "\n")
    assert code == 2
    assert "malformed sweep CSV line" in err and repr(line) in err


def test_sweep_csv_with_headers_only_exit_code(tmp_path, capsys):
    code, err = _plot_exit_code(tmp_path, capsys, "m,algorithm,trial,restart,final_error\n"
                                "m,algorithm,mean,stderr\n")
    assert code == 2
    assert "no sweep data found" in err


def test_sweep_csv_line_before_any_header_exit_code(tmp_path, capsys):
    # a trajectory CSV given as a sweep CSV: its first line is in no block,
    # which used to be reported as a zip() length mismatch
    traj = tmp_path / "traj.csv"
    write_trajectory_csv([{"t": 0, "error": 1.0, "correlation": 0.5}], traj)
    code, err = _plot_exit_code(tmp_path, capsys, traj.read_text())
    assert code == 2
    assert "malformed sweep CSV line" in err and repr("t,error,correlation") in err
    assert "no block header" in err and "m,algorithm,trial,restart,final_error" in err
    assert "zip()" not in err


def test_sweep_csv_that_is_not_text_exit_code(tmp_path, capsys):
    csv = tmp_path / "sweep.csv"
    csv.write_bytes(b"\xff\xfe\x00garbage\n")
    assert main(["plot", "--in-csv", str(csv), "--out-svg", str(tmp_path / "x.svg")]) == 2
    assert "configuration error" in capsys.readouterr().err


# A relu-mlp and a linear-subspace sweep at n = 100, whose spectral builds
# are GEMMs that OpenBLAS splits across threads when it may; so it may split
# the reduced APPGD GEMVs at m = 2000, whose 2000 x 6 entries are over
# OpenBLAS's gemv threading threshold of 9,216.
_THREAD_COUNT_SWEEPS = {
    "relu-mlp": {"prior": {"kind": "relu-mlp", "k": 5, "n": 100, "hidden": [32], "seed": 2},
                 "link": {"name": "square-sin", "sigma": 0.5}, "m_grid": [400], "trials": 2,
                 "restarts": 2, "algorithms": ["mprg"], "t1": 3, "t2": 3, "master_seed": 1,
                 "projection": {"steps": 30}},
    "linear-subspace": {"prior": {"k": 5, "n": 100, "seed": 2},
                        "link": {"name": "abs-noise-out", "sigma": 0.1}, "m_grid": [250, 2000],
                        "trials": 2, "restarts": 2, "algorithms": ["mprg", "appgd"], "t1": 5,
                        "t2": 5, "master_seed": 1},
}


@pytest.mark.parametrize("kind", sorted(_THREAD_COUNT_SWEEPS))
def test_sweep_bytes_ignore_the_blas_thread_count(tmp_path, kind):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_THREAD_COUNT_SWEEPS[kind]))
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    csvs = []
    for threads in (1, 2):
        csvs.append(tmp_path / f"threads{threads}.csv")
        subprocess.run([sys.executable, "-m", "genphase.cli", "sweep", "--config", str(cfg_path),
                        "--out-csv", str(csvs[-1])], capture_output=True, check=True,
                       env={**os.environ, "PYTHONPATH": path,
                            "OPENBLAS_NUM_THREADS": str(threads)})
    assert csvs[0].read_bytes() == csvs[1].read_bytes()


# OpenBLAS splits some products across threads in a way that changes their
# bits, by shape: at (m, n) = (1500, 800) A x, so the observations of
# `simulate`; at (1000, 650) the GEMV of a refinement step with the
# 1300 x 650 stack [G; M].  Every such product of `simulate` and of a
# relu-mlp `run` (sampling, build, power, refinement and APPGD steps and
# projections) runs under the one-thread pin, so no output byte moves.
_THREAD_COUNT_RUNS = """
import sys
from genphase.cli import main
model, m, out = sys.argv[1:]
common = ["--model", model, "--link", "abs-noise-out", "--sigma", "0.1", "--m", m, "--seed", "9"]
assert main(["simulate", *common, "--out", out + "/sim.csv"]) == 0
for algorithm in ("mprg", "appgd"):
    assert main(["run", *common, "--algorithm", algorithm, "--t1", "3", "--t2", "3",
                 "--out", out + f"/{algorithm}.csv"]) == 0
"""


@pytest.mark.parametrize("n,m", [(800, 1500), (650, 1000)], ids=["n800", "n650"])
def test_simulate_and_relu_mlp_runs_ignore_the_blas_thread_count(tmp_path, n, m):
    model = tmp_path / "model.json"
    assert main(["gen-model", "--kind", "relu-mlp", "--k", "5", "--n", str(n), "--hidden", "32",
                 "--seed", "2", "--out", str(model)]) == 0
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = []
    for threads in (1, 2):
        outs.append(tmp_path / f"threads{threads}")
        outs[-1].mkdir()
        subprocess.run([sys.executable, "-c", _THREAD_COUNT_RUNS, str(model), str(m),
                        str(outs[-1])], capture_output=True, check=True,
                       env={**os.environ, "PYTHONPATH": path,
                            "OPENBLAS_NUM_THREADS": str(threads)})
    names = sorted(f.name for f in outs[0].iterdir())
    assert names == ["appgd.csv", "mprg.csv", "sim.csv", "sim.csv.meta.json"]
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
