import json
import math
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmwsim import build_codebook, build_pilot_matrix, eta1, eta2, eta3, steering_vector
from mmwsim.bounds import exact_mean_abs2, exact_mean_inner, exact_mean_triple
from mmwsim.cli import _resolve_config, build_parser
from mmwsim.config import (MAX_B, SETTABLE_KEYS, SystemConfig, config_from_dict,
                           distortion_factor, load_config, validate_config)
from mmwsim.errors import ConfigError, ParameterError
from mmwsim.sweep import _point_config, sweep_spec_from_dict


def test_distortion_factor_one_bit_is_analytic():
    assert distortion_factor(1) == pytest.approx(1.0 - 2.0 / math.pi, rel=1e-9)


def test_distortion_factor_three_bits():
    # Lloyd-Max fixed point for 8 Gaussian levels
    assert distortion_factor(3) == pytest.approx(0.0345477608, rel=1e-6)


def test_distortion_factor_twelve_bits_nearly_transparent():
    assert distortion_factor(12) < 1e-5


def test_distortion_factor_strictly_decreasing():
    vals = [distortion_factor(b) for b in range(1, 13)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("bits", [0, 13, -1, 1.5, True])
def test_distortion_factor_rejects_bad_bits(bits):
    with pytest.raises(ParameterError):
        distortion_factor(bits)


def test_defaults_filled():
    cfg = SystemConfig(L=2, K=8, N=32, M=2, adc_bits=2, p_t=0.5)
    assert cfg.beta_inter == 0.1
    assert cfg.B == 6
    assert cfg.tau == 8
    assert cfg.p_p == 8 * 0.5


def test_tau_less_than_K_is_hard_error():
    with pytest.raises(ConfigError, match="tau < K"):
        SystemConfig(K=8, tau=4, adc_bits=1)


def test_all_violations_collected():
    with pytest.raises(ConfigError) as err:
        SystemConfig(K=8, tau=4, adc_bits=40, p_t=-1.0, beta_inter=0.0)
    assert len(err.value.errors) >= 4


# (a public helper's call, the SystemConfig fields that hold the same values):
# each helper checks its integers by the config's own rule
_HELPER_CASES = {
    "codebook-B13": (lambda: build_codebook(MAX_B + 1), dict(B=MAX_B + 1)),
    "codebook-B-1": (lambda: build_codebook(-1), dict(B=-1)),
    "codebook-B2.5": (lambda: build_codebook(2.5), dict(B=2.5)),
    "codebook-Bint64": (lambda: build_codebook(np.int64(3)), dict(B=np.int64(3))),
    "pilots-tau2.5": (lambda: build_pilot_matrix(2.5, 2), dict(tau=2.5, K=2)),
    "pilots-tau<K": (lambda: build_pilot_matrix(3, 4), dict(tau=3, K=4)),
    "pilots-K0": (lambda: build_pilot_matrix(3, 0), dict(tau=3, K=0)),
    "steering-2.5": (lambda: steering_vector(0.3, 2.5), dict(N=2.5)),
    "steering-True": (lambda: steering_vector(0.3, True), dict(N=True)),
    "steering-0": (lambda: steering_vector(0.3, 0), dict(N=0)),
    "eta1-True": (lambda: eta1(True), dict(N=True)),
    "eta2-0": (lambda: eta2(0), dict(N=0)),
    "eta3-64.0": (lambda: eta3(64.0), dict(N=64.0)),
    "eta3-nan": (lambda: eta3(math.nan), dict(N=math.nan)),
    "inner-0": (lambda: exact_mean_inner(0), dict(N=0)),
    "abs2-True": (lambda: exact_mean_abs2(True), dict(N=True)),
    "triple-64.0": (lambda: exact_mean_triple(64.0), dict(N=64.0)),
}


@pytest.mark.parametrize("call, values", _HELPER_CASES.values(), ids=_HELPER_CASES)
def test_helpers_refuse_what_a_config_refuses(call, values):
    with pytest.raises(ConfigError) as config_error:
        SystemConfig(adc_bits=3, **values)
    with pytest.raises(ParameterError) as helper_error:
        call()
    assert str(helper_error.value) == str(config_error.value)


def test_rho_override_beats_bits():
    cfg = SystemConfig(adc_bits=1, rho_ad=0.25)
    assert cfg.rho == 0.25


def test_missing_quantizer_spec_is_error():
    with pytest.raises(ConfigError, match="adc_bits or rho_ad"):
        SystemConfig(adc_bits=None, rho_ad=None)


def test_wide_codebook_interval_warns_not_fails():
    # zeta = pi/4 > 2/8 for B=1, M=8
    cfg = SystemConfig(M=8, B=1, adc_bits=3)
    assert any("lower bound" in w for w in cfg.warnings)
    ok = SystemConfig(M=8, B=6, adc_bits=3)
    assert ok.warnings == ()


def test_replace_rechecks_tau_against_K():
    # tau was filled from K=2 when cfg was built, so K=8 breaks orthogonality
    cfg = SystemConfig(L=3, K=2, adc_bits=3)
    with pytest.raises(ConfigError, match="tau < K"):
        replace(cfg, K=8)


@pytest.mark.parametrize("name, value", [("beta_inter", 5.0), ("p_t", -1.0)])
def test_replace_rechecks_ranges(name, value):
    cfg = SystemConfig(L=3, K=2, adc_bits=3)
    with pytest.raises(ConfigError, match=name):
        replace(cfg, **{name: value})


def test_replace_recomputes_warnings():
    cfg = SystemConfig(L=3, K=2, adc_bits=3)
    assert cfg.warnings == ()
    assert any("lower bound" in w for w in replace(cfg, B=1, M=16).warnings)


def test_validate_is_idempotent():
    # configs are checked when built; the old entry point stays importable
    cfg = SystemConfig(L=3, K=4, adc_bits=3, seed=5)
    assert validate_config(cfg) is cfg


def test_unknown_json_key_is_hard_error(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"L": 2, "K": 2, "adc_bits": 3, "pt": 1.0}))
    with pytest.raises(ConfigError, match="unknown config key 'pt'"):
        load_config(path)
    # half-wavelength arrays, base-2 rates and the unit noise power are
    # fixed, not settings
    for key, value in (("antenna_spacing_ratio", 1.0), ("rate_log_base", 2.0),
                       ("sigma_n2", 1.0)):
        path.write_text(json.dumps({"L": 2, "K": 2, "adc_bits": 3, key: value}))
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            load_config(path)


def test_json_round_trip(tmp_path):
    doc = {"L": 3, "K": 4, "N": 64, "M": 2, "adc_bits": 1, "p_t": 1.0,
           "p_p": 4.0, "seed": 7}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    cfg = load_config(path)
    assert (cfg.L, cfg.K, cfg.N, cfg.M) == (3, 4, 64, 2)
    assert cfg.seed == 7


def test_layer_snr_translation():
    # powers are in noise units: snr_db = 10 log10(p_t)
    base = {"adc_bits": 3}
    assert config_from_dict(base, {"snr_db": -10}).p_t == pytest.approx(0.1)
    assert config_from_dict(base, {"snr_db": -10}, {"pilot_snr_db": 10}).p_p == pytest.approx(10.0)
    with pytest.raises(ConfigError, match="unknown config key 'bogus'"):
        config_from_dict(base, {"bogus": 1})
    with pytest.raises(ParameterError, match="antenna_spacing_ratio"):
        _resolve_config(build_parser().parse_args(
            ["bound", "--set", "antenna_spacing_ratio=0.5"]))


def _resolve(*settings):
    argv = ["bound"] + [a for item in ("adc_bits=3",) + settings for a in ("--set", item)]
    return _resolve_config(build_parser().parse_args(argv))


def test_later_of_db_key_and_power_wins_from_any_source(tmp_path):
    assert _resolve("p_t=2", "snr_db=10").p_t == pytest.approx(10.0)
    assert _resolve("snr_db=10", "p_t=2").p_t == 2.0
    assert _resolve("p_p=2", "pilot_snr_db=10").p_p == pytest.approx(10.0)
    assert _resolve("pilot_snr_db=10", "p_p=2").p_p == 2.0
    # one document: its own key order decides
    assert config_from_dict({"adc_bits": 3, "snr_db": 10, "p_t": 2}).p_t == 2
    assert config_from_dict({"adc_bits": 3, "p_t": 2, "snr_db": 10}).p_t == pytest.approx(10.0)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"adc_bits": 3, "pilot_snr_db": 10}))
    assert load_config(path).p_p == pytest.approx(10.0)


def test_bad_db_value_fails_even_where_a_later_layer_sets_the_power():
    # a dB key translates as its layer merges, so a bad value is reported
    # though a later layer replaces the power it stands for
    with pytest.raises(ConfigError, match="snr_db must be a finite number, got 'x'"):
        config_from_dict({"adc_bits": 3, "snr_db": "x"}, {"p_t": 1.0})


def _via_layers(first, second, tmp_path):
    return config_from_dict(first, second)


def _via_config_and_set(first, second, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(first))
    [(key, value)] = second.items()
    return _resolve_config(build_parser().parse_args(
        ["bound", "--config", str(path), "--set", f"{key}={value}"]))


def _via_sweep_curve(first, second, tmp_path):
    spec = sweep_spec_from_dict({"scenario_id": "s", "base": first, "axis": "K", "values": [1]})
    return _point_config(spec, second, 1, {})


@pytest.mark.parametrize("resolve", [_via_layers, _via_config_and_set, _via_sweep_curve],
                         ids=["layers", "config-then-set", "sweep-curve-over-base"])
@pytest.mark.parametrize("db, power", [("snr_db", "p_t"), ("pilot_snr_db", "p_p")])
def test_later_layer_wins_between_db_key_and_power(resolve, db, power, tmp_path):
    assert getattr(resolve({"adc_bits": 3, db: 10}, {power: 2}, tmp_path), power) == 2
    later_db = resolve({"adc_bits": 3, power: 2}, {db: 10}, tmp_path)
    assert getattr(later_db, power) == pytest.approx(10.0)


def test_layers_rederive_what_replace_keeps():
    # tau = K and p_p = tau * p_t follow the merged settings; replace() keeps
    # the tau and p_p the config was built with
    base = {"L": 3, "K": 4, "adc_bits": 3}
    cfg = config_from_dict(base)
    assert (cfg.tau, cfg.p_p) == (4, 4.0)
    assert config_from_dict(base, {"p_t": 2.0}).p_p == 8.0
    wider = config_from_dict(base, {"K": 8})
    assert (wider.tau, wider.p_p) == (8, 8.0)
    assert replace(cfg, p_t=2.0).p_p == 4.0


@pytest.mark.parametrize("name", ["p_t", "p_p", "beta_inter", "rho_ad"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_numbers_rejected(name, value):
    with pytest.raises(ConfigError, match=f"{name} must be a finite number"):
        SystemConfig(adc_bits=2, **{name: value})


def test_infinite_power_fails_before_any_rate():
    # the config cannot be built, so no rate or bound ever sees it
    with pytest.raises(ConfigError):
        SystemConfig(L=2, K=2, adc_bits=2, p_t=math.inf)


_WRONG_TYPES = [
    ({"p_t": None}, "p_t must be a finite number, got None"),
    ({"K": None}, "K must be a positive integer, got None"),
    ({"K": 3, "p_t": "1"}, "p_t must be a finite number, got '1'"),
    ({"K": 3, "tau": "4"}, "tau must be a positive integer, got '4'"),
    ({"p_t": True}, "p_t must be a finite number, got True"),
    ({"rho_ad": True}, "rho_ad must be a finite number, got True"),
    ({"K": True}, "K must be a positive integer, got True"),
    ({"tau": True}, "tau must be a positive integer, got True"),
    ({"B": False}, "B must be a non-negative integer, got False"),
    ({"B": 13}, "B must be at most 12, got 13"),
    ({"adc_bits": True}, "adc_bits must be an integer in [1, 12], got True"),
    ({"seed": True}, "seed must be a non-negative integer, got True"),
    ({"seed": -1}, "seed must be a non-negative integer, got -1"),
    ({"rho_ad": 1.0}, "rho_ad must be in [0, 1), got 1.0"),
]


@pytest.mark.parametrize("kw, message", _WRONG_TYPES,
                         ids=[",".join(f"{k}={v}" for k, v in kw.items()) for kw, _ in _WRONG_TYPES])
def test_wrong_types_fail_with_config_error_naming_the_field(kw, message):
    # one error, for the field at fault, not for the defaults derived from it
    with pytest.raises(ConfigError) as err:
        SystemConfig(**{"adc_bits": 2, **kw})
    assert err.value.errors == [message]


_POSITIVE = st.floats(1e-6, 1e6)
_SETTABLE_VALUES = {
    "L": st.integers(1, 4), "K": st.integers(1, 16), "N": st.integers(1, 4096),
    "M": st.integers(1, 8), "B": st.integers(0, 8), "tau": st.integers(16, 24),
    "adc_bits": st.integers(1, 12), "seed": st.integers(0, 2 ** 63),
    "rho_ad": st.floats(0.0, 0.99), "p_t": _POSITIVE, "p_p": _POSITIVE,
    "beta_inter": st.floats(0.001, 0.999),
    "snr_db": st.floats(-40.0, 40.0), "pilot_snr_db": st.floats(-40.0, 40.0),
}


@st.composite
def _settings(draw, required=()):
    """(key, value) pairs over SETTABLE_KEYS that make a valid config."""
    keys = draw(st.sets(st.sampled_from(sorted(SETTABLE_KEYS))))
    keys |= set(required) | {"adc_bits"}
    return [(k, draw(_SETTABLE_VALUES[k])) for k in sorted(keys)]


@pytest.fixture(scope="module")
def json_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("configs")


def test_settable_value_strategies_cover_every_key():
    assert set(_SETTABLE_VALUES) == SETTABLE_KEYS
    assert SETTABLE_KEYS == {f.name for f in fields(SystemConfig)} | {"snr_db", "pilot_snr_db"}


@settings(max_examples=60, deadline=None)
@given(pairs=_settings())
def test_config_json_round_trip_property(pairs, json_dir):
    doc = dict(pairs)
    cfg = config_from_dict(doc)
    path = json_dir / "doc.json"
    path.write_text(json.dumps(doc))
    assert load_config(path) == cfg
    # the config, written out field by field, loads back to itself
    path.write_text(json.dumps(asdict(cfg)))
    assert load_config(path) == cfg


@pytest.mark.parametrize("key", sorted(SETTABLE_KEYS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_set_overrides_reproduce_json_config(key, data, json_dir):
    pairs = data.draw(_settings(required=(key,)))
    path = json_dir / "doc.json"
    path.write_text(json.dumps(dict(pairs)))
    argv = ["bound"] + [a for k, v in pairs for a in ("--set", f"{k}={v!r}")]
    from_set = _resolve_config(build_parser().parse_args(argv))
    from_json = _resolve_config(build_parser().parse_args(["bound", "--config", str(path)]))
    assert from_set == from_json == load_config(path)
