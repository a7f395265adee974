"""Scenario sweeps: preset loading, CSV emission, and gnuplot script generation."""

import csv
import json
from dataclasses import dataclass, field, fields, replace
from importlib import resources

from .bounds import lower_bound_rate
from .config import SETTABLE_KEYS, config_from_dict
from .errors import ParameterError
from .rate import check_mode, check_trials, ergodic_rate

# sweep axis -> the CSV column that holds its value
AXIS_COLUMN = {"K": "K", "N": "N", "M": "M", "adc_bits": "bits",
               "snr_db": "snr_db", "pilot_snr_db": "pilot_snr_db"}
AXES = tuple(AXIS_COLUMN)
OUTPUT_COLUMNS = ("rate_mc", "ci95", "rate_lb", "rate_lb_s", "xi1", "xi2", "r_inf")
CSV_COLUMNS = (
    "scenario_id", "L", "K", "N", "M", "bits", "B", "tau", "beta",
    "snr_db", "pilot_snr_db", "trials", "seed",
) + OUTPUT_COLUMNS
CSV_UNITS_COMMENT = "# rate columns (rate_mc, ci95, rate_lb, rate_lb_s) in bits/s/Hz, log base 2"


@dataclass
class SweepSpec:
    """One swept scenario: a base config, an axis, and optional curve overrides."""

    scenario_id: str
    base: dict
    axis: str
    values: list
    trials: int = 2000
    outputs: tuple = OUTPUT_COLUMNS
    curves: list = field(default_factory=lambda: [{}])
    mode: str = "semi"
    notes: str = ""

    def __post_init__(self):
        # the id is written into CSV cells and a quoted gnuplot title
        if not (isinstance(self.scenario_id, str) and self.scenario_id.isprintable()
                and '"' not in self.scenario_id):
            raise ParameterError(
                f"scenario_id must be printable text without '\"', got {self.scenario_id!r}")
        if self.axis not in AXES:
            raise ParameterError(f"unknown sweep axis {self.axis!r}; choose from {AXES}")
        if not (isinstance(self.values, list) and self.values):
            raise ParameterError(f"sweep values must be a non-empty list, got {self.values!r}")
        check_trials(self.trials)
        if not isinstance(self.outputs, (list, tuple)):
            raise ParameterError(f"sweep outputs must be a list of names, got {self.outputs!r}")
        self.outputs = tuple(self.outputs)
        bad = [o for o in self.outputs if o not in OUTPUT_COLUMNS]
        if bad:
            raise ParameterError(f"unknown output columns {bad}")
        if not self.curves:
            raise ParameterError("sweep curves must be non-empty; [{}] is one plain curve")
        for name, layer in [("base", self.base)] + [("curve", c) for c in self.curves]:
            if not isinstance(layer, dict):
                raise ParameterError(f"a sweep {name} must be an object, got {layer!r}")
            unknown = set(layer) - SETTABLE_KEYS
            if unknown:
                raise ParameterError(f"unknown {name} config keys {sorted(unknown)}")
        check_mode(self.mode)


def load_sweep_spec(path):
    with open(path) as fh:
        return sweep_spec_from_dict(json.load(fh))


def sweep_spec_from_dict(doc):
    """The SweepSpec a JSON document describes; unknown or missing keys are errors."""
    if not isinstance(doc, dict):
        raise ParameterError("sweep spec must be a JSON object")
    unknown = set(doc) - {f.name for f in fields(SweepSpec)}
    if unknown:
        raise ParameterError(f"unknown sweep spec keys {sorted(unknown)}")
    missing = [key for key in ("scenario_id", "base", "axis", "values") if key not in doc]
    if missing:
        raise ParameterError(f"sweep spec is missing required keys {missing}")
    return SweepSpec(**doc)


def load_preset(name):
    """The packaged preset `name`, such as 'fig2'."""
    res = resources.files("mmwsim").joinpath("presets", f"{name}.json")
    if not res.is_file():
        raise ParameterError(f"no preset named {name!r}")
    with res.open() as fh:
        return sweep_spec_from_dict(json.load(fh))


def list_presets():
    root = resources.files("mmwsim").joinpath("presets")
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def _point_config(spec, curve, value, overrides):
    """SystemConfig of one (curve, axis value) point: base, curve, value, then `overrides`."""
    return config_from_dict(spec.base, curve, {spec.axis: value}, overrides)


def _resolve(spec, trials=None, seed=None, mode=None):
    """(spec with the flags applied, its point configs in row order), all checked."""
    # replace() re-runs the spec's checks, so a bad flag fails before any point
    flags = {"trials": trials, "mode": mode}
    spec = replace(spec, **{name: v for name, v in flags.items() if v is not None})
    overrides = {} if seed is None else {"seed": seed}
    cfgs = [_point_config(spec, curve, value, overrides)
            for curve in spec.curves for value in spec.values]
    check_mode(spec.mode, cfgs)
    return spec, cfgs


def run_sweep(spec, trials=None, seed=None, mode=None, progress=None):
    """Run every (curve, value) point and return CSV-ready row dicts.

    Deterministic for fixed seed and flags; rows appear in curve-major,
    axis-order.  Every point's config resolves and is checked before any runs.
    """
    spec, cfgs = _resolve(spec, trials, seed, mode)
    rows = []
    for cfg in cfgs:
        report = lower_bound_rate(cfg)
        simulate = "rate_mc" in spec.outputs or "ci95" in spec.outputs
        mc = ergodic_rate(cfg, spec.trials, mode=spec.mode) if simulate else None
        row = sweep_row(spec.scenario_id, cfg, spec.trials, report, mc, spec.outputs)
        rows.append(row)
        if progress is not None:
            progress(row)
    return rows


def sweep_row(scenario_id, cfg, trials, report, mc=None, outputs=OUTPUT_COLUMNS):
    """One CSV row for a config: its identity columns, then the
    selected outputs, formatted; the rest of OUTPUT_COLUMNS stay empty.

    `report` is the config's lower_bound_rate, `mc` its ergodic_rate report or
    None when nothing was simulated.
    """
    row = {
        "scenario_id": scenario_id,
        "L": cfg.L, "K": cfg.K, "N": cfg.N, "M": cfg.M,
        "bits": cfg.adc_bits if cfg.rho_ad is None else "",
        "B": cfg.B, "tau": cfg.tau, "beta": cfg.beta_inter,
        "snr_db": _fmt(cfg.snr_db), "pilot_snr_db": _fmt(cfg.pilot_snr_db),
        "trials": trials, "seed": cfg.seed,
    }
    values = {
        "rate_mc": None if mc is None else mc.rate_mc,
        "ci95": None if mc is None else mc.ci95,
        "rate_lb": report.R_LB,
        "rate_lb_s": report.R_LB if cfg.L == 1 else None,  # the single-cell bound
        "xi1": report.xi1,
        "xi2": report.xi2,
        "r_inf": report.R_inf if cfg.L > 1 else None,   # +inf for a single cell
    }
    for name in OUTPUT_COLUMNS:
        row[name] = _fmt(values[name]) if name in outputs else ""
    return row


def write_csv(rows, fh):
    fh.write(CSV_UNITS_COMMENT + "\n")
    writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)


def plotted_outputs(spec):
    """The plotted outputs, rate_mc and rate_lb, that the spec holds: one or both."""
    series = [c for c in ("rate_mc", "rate_lb") if c in spec.outputs]
    if not series:
        raise ParameterError(f"a plot needs rate_mc or rate_lb among the outputs {spec.outputs}")
    return series


def emit_plot_script(csv_path, spec, rows):
    """Self-contained gnuplot script that plots `rows`, as written to csv_path.

    Rows are grouped into curves by whichever identity columns actually vary
    (other than the swept axis); each curve gets a rate_mc errorbar series
    and a dashed rate_lb series, each when the spec outputs it.
    """
    series = plotted_outputs(spec)
    axis_col = AXIS_COLUMN[spec.axis]
    identity = [c for c in ("L", "K", "N", "M", "bits", "B", "tau", "beta",
                            "snr_db", "pilot_snr_db") if c != axis_col]
    # a column separates curves only if it varies among rows sharing an axis
    # value, i.e. has more distinct (axis, column) pairs than axis values
    # (columns merely derived from the axis, like tau = K, are not identities)
    axis_values = {r[axis_col] for r in rows}
    varying = [c for c in identity if len({(r[axis_col], r[c]) for r in rows}) > len(axis_values)]
    groups = list(dict.fromkeys(tuple(r[c] for c in varying) for r in rows))

    col_idx = {c: i + 1 for i, c in enumerate(CSV_COLUMNS)}

    lines = [
        "# gnuplot script generated by mmwsim",
        'set datafile separator ","',
        "set key below",
        f'set xlabel "{spec.axis}"',
        'set ylabel "rate (bits/s/Hz)"',
        f'set title "{spec.scenario_id}"',
        "set grid",
    ]
    plots = []
    for key in groups:
        cond = " && ".join(
            f"(${col_idx[c]} == {v})" for c, v in zip(varying, key)
        ) or "1"
        label = ", ".join(f"{c}={v}" for c, v in zip(varying, key)) or spec.scenario_id
        x = f"(({cond}) ? ${col_idx[axis_col]} : 1/0)"
        if "rate_mc" in series:
            plots.append(
                f"'{csv_path}' using {x}:(${col_idx['rate_mc']}):(${col_idx['ci95']}) "
                f"with yerrorlines title \"{label} simulated\""
            )
        if "rate_lb" in series:
            plots.append(
                f"'{csv_path}' using {x}:(${col_idx['rate_lb']}) "
                f"with lines dashtype 2 title \"{label} bound\""
            )
    lines.append("plot \\\n    " + ", \\\n    ".join(plots))
    lines.append("pause -1")
    return "\n".join(lines) + "\n"


def _fmt(v):
    if v is None:
        return ""
    return f"{v:.6g}"
