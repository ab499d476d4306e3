import json
import math

import numpy as np
import pytest

from genphase import (ConfigurationError, LinkModel, NumericalError, apply_link,
                      load_measurements, population_nu, sample_measurements,
                      save_measurements)
from genphase.links import BUILTIN_LINKS

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def test_apply_link_abs_noise_out_zero():
    assert apply_link(LinkModel("abs-noise-out"), 0.0, 0.0) == 0.0


def test_apply_link_square_sin():
    got = apply_link(LinkModel("square-sin"), 2.0, 0.0)
    assert got == pytest.approx(2 * 4 + 3 * math.sin(2.0), abs=1e-12)


def test_apply_link_abs_noise_in():
    # noise enters inside the absolute value
    assert apply_link(LinkModel("abs-noise-in"), 1.0, -2.0) == 1.0
    assert apply_link(LinkModel("abs-noise-out"), 1.0, -2.0) == -1.0


def test_apply_link_abs_tanh():
    got = apply_link(LinkModel("abs-tanh"), -1.5, 0.25)
    assert got == pytest.approx(1.5 + 2 * math.tanh(1.5) + 0.25, abs=1e-12)


# Each built-in link's formula written out, with the noise where it enters.
_LINK_FORMULAS = {
    "abs-noise-out": lambda g, eta: np.abs(g) + eta,
    "abs-noise-in": lambda g, eta: np.abs(g + eta),
    "square-noise": lambda g, eta: np.square(g) + eta,
    "abs-tanh": lambda g, eta: np.abs(g) + 2.0 * np.tanh(np.abs(g)) + eta,
    "square-sin": lambda g, eta: 2.0 * np.square(g) + 3.0 * np.sin(np.abs(g)) + eta,
    "linear": lambda g, eta: g + eta,
}


@pytest.mark.parametrize("link", [LinkModel("custom", params={"square": 1e308}),
                                  LinkModel("abs-noise-out", sigma=1e308)],
                         ids=["custom-square", "sigma"])
def test_sample_measurements_rejects_an_overflowing_link(link):
    # an observation that overflows to inf is a NumericalError naming the
    # link, not a measurement set that load_measurements would refuse
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(NumericalError, match=f"link '{link.name}'"):
            sample_measurements(link, np.eye(5)[0], 50, seed=0)


def test_link_formulas_cover_builtin_links():
    assert set(_LINK_FORMULAS) == set(BUILTIN_LINKS)


@pytest.mark.parametrize("name", sorted(_LINK_FORMULAS))
def test_builtin_link_matches_formula_bitwise(name):
    rng = np.random.default_rng(17)
    g = rng.standard_normal(10**5)
    eta = 0.3 * rng.standard_normal(10**5)
    got = apply_link(LinkModel(name, 0.3), g, eta)
    assert got.tobytes() == _LINK_FORMULAS[name](g, eta).tobytes()


def test_custom_link_composition():
    # 2 g^2 + 3 sin|g| rebuilt from primitives matches the builtin
    link = LinkModel("custom", params={"square": 2.0, "sin-abs": 3.0})
    g = np.linspace(-3, 3, 11)
    assert np.allclose(apply_link(link, g, 0.0),
                       apply_link(LinkModel("square-sin"), g, 0.0))


def test_unknown_link_name_rejected():
    with pytest.raises(ConfigurationError):
        LinkModel("not-a-link")


def test_builtin_link_rejects_params():
    with pytest.raises(ConfigurationError, match="link.params"):
        LinkModel("abs-noise-out", params={"square": 2.0})
    assert LinkModel("abs-noise-out", params={}).params == {}


def test_unknown_custom_primitive_rejected():
    with pytest.raises(ConfigurationError):
        LinkModel("custom", params={"cube": 1.0})


def test_negative_sigma_rejected():
    with pytest.raises(ConfigurationError):
        LinkModel("linear", sigma=-0.1)


def test_link_lists_every_problem():
    with pytest.raises(ConfigurationError) as exc:
        LinkModel("bogus", sigma=-0.1)
    assert "link.sigma:" in str(exc.value) and "link.name:" in str(exc.value)


def _unit(n, j=0):
    e = np.zeros(n)
    e[j] = 1.0
    return e


def test_sample_linear_noiseless_identity():
    data = sample_measurements(LinkModel("linear", 0.0), _unit(6), 50, seed=3)
    assert np.array_equal(data.observations, data.sensing @ data.signal)


def test_sample_determinism():
    link = LinkModel("abs-noise-in", 0.3)
    a = sample_measurements(link, _unit(4), 20, seed=9)
    b = sample_measurements(link, _unit(4), 20, seed=9)
    assert np.array_equal(a.sensing, b.sensing)
    assert np.array_equal(a.observations, b.observations)


def test_sample_rejects_bad_inputs():
    with pytest.raises(ConfigurationError):
        sample_measurements(LinkModel("linear"), _unit(4), 0, seed=0)
    with pytest.raises(ConfigurationError):
        sample_measurements(LinkModel("linear"), 2.0 * _unit(4), 5, seed=0)
    # abs(norm - 1) > tol is false for NaN, so a NaN signal needs its own check
    for bad in (np.nan, np.inf):
        signal = _unit(4)
        signal[1] = bad
        with pytest.raises(NumericalError):
            sample_measurements(LinkModel("linear"), signal, 5, seed=0)


def test_a_signal_whose_square_overflows_is_not_a_unit_vector():
    # a finite signal of norm 2e200: its squared norm overflows, which
    # warned "overflow encountered in dot" before the rule could refuse it
    with pytest.raises(ConfigurationError, match="signal: must be a unit vector"):
        sample_measurements(LinkModel("abs-noise-out"), np.full(4, 1e200), 10, 0)


def test_abs_mean_matches_monte_carlo_oracle():
    # Oracle: direct |N(0,1)| draws, independent of the sampling path.
    oracle = np.abs(np.random.default_rng(123456).standard_normal(10**6))
    assert oracle.mean() == pytest.approx(SQRT_2_OVER_PI, abs=4 * oracle.std() / 1000.0)
    data = sample_measurements(LinkModel("abs-noise-out", 0.0), _unit(5), 10**4, seed=21)
    y = data.observations
    stderr = y.std(ddof=1) / math.sqrt(y.size)
    assert abs(y.mean() - oracle.mean()) <= 3 * stderr


def test_population_nu_linear_is_zero():
    for sigma in (0.0, 0.7):
        rep = population_nu(LinkModel("linear", sigma), 10**5, seed=1)
        assert rep.nu == 0.0
        assert rep.mc_stderr == 0.0


def test_population_nu_square_noise_analytic():
    rep = population_nu(LinkModel("square-noise", 0.0), 10**5, seed=1)
    assert rep.nu == 2.0
    assert rep.mean_y == 1.0
    # independent Monte Carlo oracle confirms Var(g^2) = 2
    g = np.random.default_rng(777).standard_normal(10**6)
    g2 = g * g
    prod = (g2 - g2.mean()) * (g2 - g2.mean())
    assert prod.mean() == pytest.approx(2.0, rel=0.02)


def test_population_nu_abs_noise_out():
    # analytic: E|g|^3 - E|g| = 2 sqrt(2/pi) - sqrt(2/pi) = sqrt(2/pi)
    rep = population_nu(LinkModel("abs-noise-out", 0.0), 10**6, seed=5)
    assert rep.nu == pytest.approx(SQRT_2_OVER_PI, rel=0.02)
    assert rep.mc_stderr > 0
    assert abs(rep.nu - SQRT_2_OVER_PI) <= 4 * rep.mc_stderr


def test_nu_invariant_to_noise_out_sigma():
    # additive independent noise cannot change Cov[y, g^2]
    for name in ("abs-noise-out", "abs-tanh", "square-sin"):
        r0 = population_nu(LinkModel(name, 0.0), 10**6, seed=11)
        r1 = population_nu(LinkModel(name, 0.5), 10**6, seed=12)
        tol = 4 * math.hypot(r0.mc_stderr, r1.mc_stderr)
        assert abs(r0.nu - r1.nu) <= tol, name


def test_subexp_proxy_zero_link():
    assert population_nu(LinkModel("custom", params={}), 10**4, seed=0).subexp_norm_proxy == 0.0


def test_subexp_proxy_linear_matches_gaussian_moments():
    # exact grid maximum from closed-form absolute Gaussian moments
    def abs_moment(p):
        return 2 ** (p / 2.0) * math.gamma((p + 1) / 2.0) / math.sqrt(math.pi)

    exact = max(abs_moment(p) ** (1.0 / p) / p for p in range(1, 9))
    got = population_nu(LinkModel("linear", 0.0), 10**6, seed=3).subexp_norm_proxy
    assert got == pytest.approx(exact, rel=0.02)
    assert 0.5 <= got <= 1.5


def test_subexp_proxy_square_dominates_linear():
    lin = population_nu(LinkModel("linear", 0.0), 10**5, seed=4).subexp_norm_proxy
    sq = population_nu(LinkModel("square-noise", 0.0), 10**5, seed=4).subexp_norm_proxy
    assert sq > lin


def test_proxy_requires_enough_samples():
    # the proxy is Monte Carlo for every link, also one with a closed-form nu
    for name in ("linear", "square-noise", "abs-noise-out"):
        for samples in (9999, 100, 0, -1):
            with pytest.raises(ConfigurationError, match="mc_samples: must be an integer >= 10000"):
                population_nu(LinkModel(name), samples, seed=0)


def test_population_nu_checks_the_seed_rule():
    # a negative seed used to reach numpy's seeding as a bare ValueError
    for bad in (-1, True, 1.5, [3, -1]):
        with pytest.raises(ConfigurationError, match="seed: must be a nonnegative integer"):
            population_nu(LinkModel("abs-noise-out"), 10**4, seed=bad)
    # a key is a seed too, and each bad argument is listed
    assert population_nu(LinkModel("abs-noise-out"), 10**4, seed=[3, 1]).nu > 0
    with pytest.raises(ConfigurationError, match="mc_samples: .*\n  seed: "):
        population_nu(LinkModel("linear"), 0, seed=-1)


def test_csv_roundtrip_bit_exact(tmp_path):
    link = LinkModel("abs-tanh", 0.25)
    data = sample_measurements(link, _unit(7, 2), 13, seed=42)
    path = tmp_path / "meas.csv"
    save_measurements(data, path)
    back = load_measurements(path)
    assert back.n == data.n and back.m == data.m and back.seed == data.seed
    assert back.link == data.link
    assert np.array_equal(back.signal, data.signal)
    assert np.array_equal(back.sensing, data.sensing)
    assert np.array_equal(back.observations, data.observations)


def _saved_measurements(tmp_path):
    path = tmp_path / "meas.csv"
    save_measurements(sample_measurements(LinkModel("abs-tanh", 0.25), _unit(4, 1), 6, seed=3),
                      path)
    return path, tmp_path / "meas.csv.meta.json"


def _edit_meta(meta_path, edit):
    doc = json.loads(meta_path.read_text())
    edit(doc)
    meta_path.write_text(json.dumps(doc))


def _edit_csv_cell(csv_path, row, col, text):
    lines = csv_path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = text
    lines[row] = ",".join(cells)
    csv_path.write_text("\n".join(lines) + "\n")


def _set_signal_entry(bad):
    def edit(doc):
        doc["signal"][0] = bad
    return edit


@pytest.mark.parametrize("damage", [
    lambda csv, meta: meta.write_text("{not json"),
    lambda csv, meta: _edit_meta(meta, lambda doc: doc.pop("signal")),
    lambda csv, meta: _edit_meta(meta, lambda doc: doc["link"].pop("name")),
    lambda csv, meta: meta.write_text("[1, 2]"),
    lambda csv, meta: _edit_csv_cell(csv, 2, 3, "x"),
    lambda csv, meta: _edit_csv_cell(csv, 2, 4, ""),
    lambda csv, meta: _edit_meta(meta, lambda doc: doc["signal"].pop()),
    lambda csv, meta: _edit_meta(meta, lambda doc: doc.update(n=float(doc["n"]))),
    lambda csv, meta: _edit_meta(meta, lambda doc: doc.update(m=float(doc["m"]))),
    lambda csv, meta: _edit_meta(meta, lambda doc: doc.update(seed="abc")),
    lambda csv, meta: _edit_meta(meta, lambda doc: doc.update(seed=-3)),
    lambda csv, meta: _edit_meta(meta, _scale_signal(2.0)),
    lambda csv, meta: _edit_meta(meta, lambda doc: doc.update(m=doc["m"] + 1)),
    lambda csv, meta: csv.write_text("".join(csv.read_text().splitlines(True)[:-1])),
], ids=["meta-not-json", "meta-no-signal", "meta-no-link-name", "meta-not-object",
        "csv-text-cell", "csv-empty-cell", "signal-length", "float-n", "float-m",
        "text-seed", "negative-seed", "signal-norm-2", "meta-m-above-rows", "csv-row-missing"])
def test_load_measurements_malformed_is_configuration_error(tmp_path, damage):
    damage(*_saved_measurements(tmp_path))
    with pytest.raises(ConfigurationError):
        load_measurements(tmp_path / "meas.csv")


def _scale_signal(c):
    def edit(doc):
        doc["signal"] = [repr(c * float(v)) for v in doc["signal"]]
    return edit


def test_sample_measurements_checks_the_measurement_set_rules():
    # a negative seed used to reach numpy's seeding as a bare ValueError, a
    # float m its sensing draw as a TypeError
    for kw, frag in ((dict(seed=-1), "seed:"), (dict(seed=True), "seed:"),
                     (dict(m=5.0), "m:"), (dict(m=0), "m:")):
        with pytest.raises(ConfigurationError, match=frag):
            sample_measurements(LinkModel("linear"), _unit(4), **{"m": 5, "seed": 0, **kw})
    # a numpy integer is a seed, the same as the int
    a = sample_measurements(LinkModel("linear"), _unit(4), np.int64(5), seed=np.int64(7))
    b = sample_measurements(LinkModel("linear"), _unit(4), 5, seed=7)
    assert np.array_equal(a.sensing, b.sensing)


def test_numpy_integer_fields_write_back(tmp_path):
    data = sample_measurements(LinkModel("linear"), _unit(4), np.int64(5), seed=np.int64(7))
    save_measurements(data, tmp_path / "meas.csv")
    back = load_measurements(tmp_path / "meas.csv")
    assert (back.m, back.n, back.seed) == (5, 4, 7)
    assert np.array_equal(back.sensing, data.sensing)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("where, damage", [
    ("observation", lambda csv, meta, bad: _edit_csv_cell(csv, 3, 0, bad)),
    ("sensing entry", lambda csv, meta, bad: _edit_csv_cell(csv, 1, 2, bad)),
    ("signal entry", lambda csv, meta, bad: _edit_meta(meta, _set_signal_entry(bad))),
], ids=["observation", "sensing", "signal"])
def test_load_measurements_non_finite_is_numerical_error(tmp_path, where, damage, bad):
    damage(*_saved_measurements(tmp_path), bad)
    with pytest.raises(NumericalError, match=where):
        load_measurements(tmp_path / "meas.csv")
