import csv
import io
import json
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from mmwsim import sweep
from mmwsim.errors import ParameterError
from mmwsim.sweep import (CSV_COLUMNS, emit_plot_script, list_presets, load_preset,
                          run_sweep, sweep_spec_from_dict, write_csv)


def _tiny_spec(**kw):
    doc = dict(
        scenario_id="tiny",
        base={"L": 2, "N": 16, "M": 2, "adc_bits": 2, "p_t": 1.0, "seed": 1},
        axis="K",
        values=[1, 2],
        trials=20,
        outputs=["rate_mc", "ci95", "rate_lb"],
    )
    doc.update(kw)
    return sweep_spec_from_dict(doc)


def test_all_presets_load():
    names = list_presets()
    assert names == [f"fig{i}" for i in range(2, 10)]
    for name in names:
        spec = load_preset(name)
        assert spec.values


def test_unknown_axis_rejected():
    with pytest.raises(ParameterError):
        _tiny_spec(axis="q_factor")


def test_unknown_output_column_rejected():
    with pytest.raises(ParameterError, match=re.escape("unknown output columns ['snr']")):
        _tiny_spec(outputs=["rate_lb", "snr"])


def test_unknown_preset_rejected():
    with pytest.raises(ParameterError, match="no preset named 'nope'"):
        load_preset("nope")


def test_empty_values_rejected():
    with pytest.raises(ParameterError):
        _tiny_spec(values=[])


@pytest.mark.parametrize("doc, message", [
    ([], "sweep spec must be a JSON object"),
    (None, "sweep spec must be a JSON object"),
    ("x", "sweep spec must be a JSON object"),
    ({}, "sweep spec is missing required keys ['scenario_id', 'base', 'axis', 'values']"),
    ({"scenario_id": "s", "base": {}, "axis": "K"}, "sweep spec is missing required keys ['values']"),
], ids=["list", "null", "string", "empty", "no-values"])
def test_spec_document_shape_checked_at_load(doc, message):
    with pytest.raises(ParameterError, match=re.escape(message)):
        sweep_spec_from_dict(doc)


@pytest.mark.parametrize("key, value, message", [
    ("values", 5, "sweep values must be a non-empty list, got 5"),
    ("values", "12", "sweep values must be a non-empty list, got '12'"),
    ("outputs", "rate_lb", "sweep outputs must be a list of names, got 'rate_lb'"),
], ids=["values-number", "values-string", "outputs-string"])
def test_values_and_outputs_must_be_lists(key, value, message):
    with pytest.raises(ParameterError, match=re.escape(message)):
        _tiny_spec(**{key: value})


@pytest.mark.parametrize("trials", [20.5, "20", True, 5],
                         ids=["float", "string", "bool", "too-few"])
def test_bad_trials_fail_before_any_point(monkeypatch, trials):
    # in the spec, or in the run_sweep override, as `sweep --trials` passes it
    monkeypatch.setattr(sweep, "lower_bound_rate", pytest.fail)
    message = re.escape(f"trials must be an integer >= 10, got {trials!r}")
    with pytest.raises(ParameterError, match=message):
        run_sweep(_tiny_spec(trials=trials))
    with pytest.raises(ParameterError, match=message):
        run_sweep(_tiny_spec(), trials=trials)


def test_unknown_spec_key_rejected():
    for key, value in (("plot", True), ("pilot_rule", "tau_times_data")):
        with pytest.raises(ParameterError, match=key):
            sweep_spec_from_dict({"scenario_id": "x", "base": {}, "axis": "K",
                                  "values": [1], key: value})


@pytest.mark.parametrize("scenario_id", ["a\rb", "a\nb", 'say "hi"', "a\x00", 7],
                         ids=["carriage-return", "newline", "quote", "nul", "int"])
def test_scenario_id_that_breaks_outputs_rejected(scenario_id):
    # the id lands in CSV cells and in the gnuplot title "..." line
    with pytest.raises(ParameterError, match="scenario_id"):
        _tiny_spec(scenario_id=scenario_id)


def test_unknown_base_key_rejected():
    with pytest.raises(ParameterError):
        _tiny_spec(base={"L": 2, "frequency": 28e9})


@pytest.mark.parametrize("curves, message", [
    ([], "non-empty"),
    ([{}, 5], "must be an object"),
    ([{"adc_bits": 1}, ["N", 8]], "must be an object"),
    ([{"adc_bits": 1}, {"frequency": 28e9}], "unknown config key 'frequency'"),
], ids=["empty", "number", "list", "unknown-key"])
def test_bad_curves_rejected_at_load(curves, message):
    with pytest.raises(ParameterError, match=message):
        _tiny_spec(curves=curves)


@pytest.mark.parametrize("where, key, value", [
    ("base", "K", 2.7), ("base", "L", True), ("base", "adc_bits", 1.9),
    ("axis", "K", 2.7), ("axis", "adc_bits", 1.9),
    pytest.param("axis", "N", 10 ** 400, id="axis-N-beyond-float-range"),
])
def test_wrongly_typed_values_fail_before_any_point(monkeypatch, where, key, value):
    # JSON values keep their types, so SystemConfig rejects them as it
    # does in a --config file, and every point resolves before one runs
    monkeypatch.setattr(sweep, "lower_bound_rate", pytest.fail)
    base = {"L": 2, "N": 16, "M": 2, "adc_bits": 2, "K": 2}
    if where == "base":
        spec = _tiny_spec(base={**base, key: value}, axis="N", values=[16, 32])
    else:
        spec = _tiny_spec(base=base, axis=key, values=[1, value])
    with pytest.raises(ParameterError, match=key):
        run_sweep(spec)


def test_overflowing_db_axis_value_fails_before_any_point(monkeypatch):
    monkeypatch.setattr(sweep, "lower_bound_rate", pytest.fail)
    spec = _tiny_spec(axis="snr_db", values=[0, 4000])
    with pytest.raises(ParameterError, match="snr_db = 4000 dB overflows"):
        run_sweep(spec)


def test_unknown_mode_rejected_before_any_point(monkeypatch):
    # at load, or at the run_sweep override before the first point's bound
    monkeypatch.setattr(sweep, "lower_bound_rate", pytest.fail)
    for mode in ("bogus", "semi_analytic", "Semi"):
        with pytest.raises(ParameterError, match="unknown mode"):
            _tiny_spec(mode=mode)
        with pytest.raises(ParameterError, match="unknown mode"):
            run_sweep(_tiny_spec(), mode=mode)
    assert [_tiny_spec(mode=m).mode for m in ("semi", "symbol")] == ["semi", "symbol"]


def test_symbol_mode_rho_ad_curve_rejected_before_any_point(monkeypatch):
    # the second curve's override would fail only after the first curve ran
    def no_point(*args, **kwargs):
        raise AssertionError("a point ran before every config was checked")
    monkeypatch.setattr(sweep, "lower_bound_rate", no_point)
    monkeypatch.setattr(sweep, "ergodic_rate", no_point)
    spec = _tiny_spec(base={"L": 1, "K": 2, "N": 16, "adc_bits": 2}, axis="snr_db",
                      values=[-10, 0], trials=200, mode="symbol",
                      curves=[{}, {"rho_ad": 0.1}])
    with pytest.raises(ParameterError, match="cannot honor a rho_ad override"):
        run_sweep(spec)


def test_rows_follow_axis_and_default_pilot_power():
    rows = run_sweep(_tiny_spec())
    assert [r["K"] for r in rows] == [1, 2]
    # p_p is unset, so it defaults to tau * p_t and pilot SNR rises with K
    assert [r["tau"] for r in rows] == [1, 2]
    assert float(rows[0]["pilot_snr_db"]) == pytest.approx(0.0)
    assert float(rows[1]["pilot_snr_db"]) == pytest.approx(3.0103, abs=1e-3)
    for r in rows:
        assert r["rate_mc"] != "" and r["rate_lb"] != ""
        assert r["rate_lb_s"] == ""  # not selected


def test_bound_only_outputs_skip_simulation():
    rows = run_sweep(_tiny_spec(outputs=["rate_lb", "r_inf"]))
    assert all(r["rate_mc"] == "" for r in rows)
    assert all(r["rate_lb"] != "" and r["r_inf"] != "" for r in rows)


def test_single_cell_bound_column():
    # rate_lb_s is the bound at L = 1 and stays empty for a multi-cell point
    spec = _tiny_spec(curves=[{"L": 1}, {"L": 3}], outputs=["rate_lb", "rate_lb_s"])
    rows = run_sweep(spec)
    assert [r["L"] for r in rows] == [1, 1, 3, 3]
    assert all(r["rate_lb_s"] == r["rate_lb"] != "" for r in rows[:2])
    assert all(r["rate_lb_s"] == "" and r["rate_lb"] != "" for r in rows[2:])


def test_reruns_are_byte_identical():
    spec = _tiny_spec()
    a, b = io.StringIO(), io.StringIO()
    write_csv(run_sweep(spec), a)
    write_csv(run_sweep(spec), b)
    assert a.getvalue() == b.getvalue()


def test_bound_validity_with_statistical_slack():
    rows = run_sweep(_tiny_spec(values=[1, 2, 4], trials=100))
    for r in rows:
        assert float(r["rate_mc"]) + float(r["ci95"]) >= float(r["rate_lb"])


def test_curves_and_seed_override():
    spec = _tiny_spec(curves=[{"adc_bits": 1}, {"adc_bits": 3}],
                      outputs=["rate_lb"])
    rows = run_sweep(spec, seed=42)
    assert len(rows) == 4
    assert [r["bits"] for r in rows] == [1, 1, 3, 3]
    assert all(r["seed"] == 42 for r in rows)


def _read_csv(path):
    """Rows of a sweep CSV, below its units comment line."""
    with open(path, newline="") as fh:
        assert fh.readline() == sweep.CSV_UNITS_COMMENT + "\n"
        return list(csv.DictReader(fh))


def test_csv_round_trip(tmp_path):
    rows = run_sweep(_tiny_spec(outputs=["rate_lb"]))
    path = tmp_path / "out.csv"
    with open(path, "w") as fh:
        write_csv(rows, fh)
    back = _read_csv(path)
    assert len(back) == len(rows)
    assert back[0]["scenario_id"] == "tiny"
    assert path.read_text().startswith("#")  # units comment


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


# any text but a carriage return: the csv module leaves a lone "\r" unquoted
# under the "\n" line terminator these files are written with
_CELL = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r"))


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.fixed_dictionaries({c: _CELL for c in CSV_COLUMNS}), max_size=4))
@example(rows=[dict.fromkeys(CSV_COLUMNS, "#1"), dict.fromkeys(CSV_COLUMNS, "a\nb,\"c\"")])
def test_csv_round_trip_keeps_every_cell_property(rows, csv_dir):
    path = csv_dir / "rows.csv"
    with open(path, "w", newline="") as fh:
        write_csv(rows, fh)
    assert _read_csv(path) == rows


def test_plot_script_two_series(tmp_path):
    spec = _tiny_spec()
    script = emit_plot_script(tmp_path / "fig.csv", spec, run_sweep(spec))
    assert script.count("yerrorlines") == 1  # one simulated series
    assert script.count("dashtype 2") == 1   # one bound series
    assert 'set ylabel "rate (bits/s/Hz)"' in script


def test_plot_script_groups_curves(tmp_path):
    spec = _tiny_spec(curves=[{"adc_bits": 1}, {"adc_bits": 3}],
                      outputs=["rate_lb"])
    script = emit_plot_script(tmp_path / "fig.csv", spec, run_sweep(spec))
    assert "bits=1" in script and "bits=3" in script


def test_spec_json_round_trip(tmp_path):
    spec = _tiny_spec()
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "scenario_id": spec.scenario_id, "base": spec.base, "axis": spec.axis,
        "values": spec.values, "trials": spec.trials,
        "outputs": list(spec.outputs),
    }))
    from mmwsim.sweep import load_sweep_spec
    loaded = load_sweep_spec(path)
    assert loaded.axis == "K" and loaded.trials == 20
