"""Command-line entry point: bound, simulate, sweep, validate, codebook."""

import argparse
import csv
import math
import os
import sys
from contextlib import ExitStack

from . import __version__
from .bounds import lower_bound_rate
from .checks import SUITES
from .config import (beam_warnings, codebook_zeta, config_from_dict, load_config_doc,
                     parse_setting)
from .errors import ParameterError
from .rate import MODES, check_mode, check_trials, ergodic_rate, trial_zero
from .sweep import (AXIS_COLUMN, _resolve, emit_plot_script, list_presets, load_preset,
                    load_sweep_spec, plotted_outputs, run_sweep, sweep_row, write_csv)
from .training import build_codebook, gain_lower_bound


def _add_config_args(p):
    p.add_argument("--config", help="config JSON path")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE", help="override a config field (repeatable)")


def _resolve_config(args):
    layers = [load_config_doc(args.config)] if args.config else []
    for item in args.overrides:
        if "=" not in item:
            raise ParameterError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        layers.append({key: parse_setting(key, value)})
    return config_from_dict(*layers)


def cmd_bound(args):
    cfg = _resolve_config(args)
    with ExitStack() as stack:
        # a path that cannot be written fails before the report prints
        out = stack.enter_context(open(args.out, "w")) if args.out else None
        rep = lower_bound_rate(cfg)
        _print_bound(cfg, rep)
        if out:
            write_csv([sweep_row("bound", cfg, 0, rep)], out)
    if args.out:
        print(f"wrote {args.out}")
    return 0


def _print_bound(cfg, rep):
    iv = rep.inputs
    adc = f"bits={cfg.adc_bits}" if cfg.rho_ad is None else f"rho_ad={cfg.rho_ad:.6g}"
    print(f"config: L={cfg.L} K={cfg.K} N={cfg.N} M={cfg.M} B={cfg.B} tau={cfg.tau} "
          f"{adc} rho={cfg.rho:.6g} beta={cfg.beta_inter} "
          f"snr={cfg.snr_db:.4g}dB pilot_snr={cfg.pilot_snr_db:.4g}dB")
    for w in cfg.warnings:
        print(f"warning: {w}")
    print(f"inputs: c={iv.c:.6f} lambda={iv.lam:.6f} mu={iv.mu:.6f} "
          f"eta1={iv.eta1:.6f} eta2={iv.eta2:.6f} eta3={iv.eta3:.6f}")
    print(f"terms:  P_u={rep.P_u:.6g} P_c={rep.P_c:.6g} P_n={rep.P_n:.6g} "
          f"P_q={rep.P_q:.6g} P_e={rep.P_e:.6g}")
    print(f"rate lower bound R_LB   = {rep.R_LB:.6f} bits/s/Hz")
    if cfg.L == 1:
        print(f"single-cell form R_LB_s = {rep.R_LB:.6f} bits/s/Hz")
    print("premise: R_LB assumes the additive quantization-noise model; with few users at "
          "high SNR the real quantizer's rate can fall below it (see README)")
    if math.isfinite(rep.R_inf):
        print(f"large-N limit R_inf     = {rep.R_inf:.6f} bits/s/Hz")
    else:
        print("large-N limit R_inf     = +inf (single cell: no pilot contamination)")
    print(f"low-SNR scaling   xi1={rep.xi1:.6g}  R_LB_1={rep.R_LB_1:.6f}")
    print(f"high-pilot scaling xi2={rep.xi2:.6g}  R_LB_2={rep.R_LB_2:.6f}")


def cmd_simulate(args):
    cfg = _resolve_config(args)
    # a run the engine rejects fails before any dump file is created
    check_trials(args.trials)
    check_mode(args.mode, [cfg])
    suffixes = ["_realization.csv"] + (["_error_power.csv"] if args.mode == "symbol" else [])
    dumps = [args.debug_dump + suffix for suffix in suffixes] if args.debug_dump else []
    with ExitStack() as stack:
        # dump paths that cannot be written fail before any trial runs
        files = [stack.enter_context(open(path, "w", newline="")) for path in dumps]
        for w in cfg.warnings:
            print(f"warning: {w}")
        rep = ergodic_rate(cfg, args.trials, mode=args.mode)
        lb = lower_bound_rate(cfg)
        print(f"mode={rep.mode} trials={rep.trials} seed={cfg.seed}")
        print(f"ergodic rate = {rep.rate_mc:.6f} +- {rep.ci95:.6f} bits/s/Hz (95% CI)")
        print(f"lower bound  = {lb.R_LB:.6f} bits/s/Hz")
        if rep.pathological:
            print(f"note: {rep.pathological} of {rep.trials * cfg.K} user-realizations "
                  "hit the destructive-contamination floor")
        if files:
            _debug_dump(cfg, args.mode, *files)
    for path in dumps:
        print(f"wrote {path}")
    return 0


def _write_rows(fh, header, rows):
    w = csv.writer(fh)
    w.writerow(header)
    w.writerows(rows)


def _debug_dump(cfg, mode, realization, error_power=None):
    """Write rate.trial_zero's theta_0lk, beta_0lk and |c_0lk| to `realization`, and
    symbol mode's error powers ||e_0k||^2 to `error_power`."""
    theta, beta, c, err = trial_zero(cfg, mode)
    _write_rows(realization, ["l", "k", "theta", "beta", "abs_c"], [
        [l, k, f"{theta[l, k]:.10g}", f"{beta[l, k]:.10g}", f"{abs(c[l, k]):.10g}"]
        for l in range(cfg.L) for k in range(cfg.K)])
    if err is not None:
        _write_rows(error_power, ["k", "err_power"],
                    [[k, f"{err[k]:.10g}"] for k in range(cfg.K)])


def cmd_sweep(args):
    if args.plot_script and not args.out:
        raise ParameterError("--plot-script needs --out: the script plots the CSV file")
    if args.plot_script and "'" in args.out:
        # the script quotes the CSV path in gnuplot's '...' string
        raise ParameterError(f"--plot-script needs an --out path without \"'\", got {args.out!r}")
    if args.plot_script and os.path.realpath(args.plot_script) == os.path.realpath(args.out):
        # the script would overwrite the CSV it plots
        raise ParameterError(f"--plot-script {args.plot_script!r} names the --out file {args.out!r}")
    spec = load_preset(args.preset) if args.preset else load_sweep_spec(args.spec)
    if args.plot_script:
        plotted_outputs(spec)
    # a sweep the flags or the engine reject fails before any file is created
    _resolve(spec, args.trials, args.seed, args.mode)
    with ExitStack() as stack:
        # paths that cannot be written fail before any point runs
        out = stack.enter_context(open(args.out, "w")) if args.out else sys.stdout
        script = stack.enter_context(open(args.plot_script, "w")) if args.plot_script else None
        rows = run_sweep(spec, trials=args.trials, seed=args.seed, mode=args.mode,
                         progress=lambda r: print(
                             f"  {spec.axis}={r[AXIS_COLUMN[spec.axis]]} "
                             f"rate_mc={r['rate_mc'] or '-'} rate_lb={r['rate_lb'] or '-'}",
                             file=sys.stderr))
        write_csv(rows, out)
        if script:
            script.write(emit_plot_script(args.out, spec, rows))
    for path in (args.out, args.plot_script):
        if path:
            print(f"wrote {path}")
    return 0


def cmd_validate(args):
    names = list(SUITES) if args.suite == "all" else [args.suite]
    results = [r for name in names for r in SUITES[name]()]
    failed = 0
    for r in results:
        print(r.line())
        failed += 0 if r.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def cmd_codebook(args):
    lo = gain_lower_bound(args.M, args.B)             # checks M and B before anything prints
    phases = build_codebook(args.B)
    zeta = codebook_zeta(args.B)
    print(f"B={args.B} -> {len(phases)} phases, interval zeta={zeta:.6f} rad")
    for i, p in enumerate(phases):
        print(f"  [{i:3d}] {p:.6f}")
    print(f"gain bounds for M={args.M}: {lo:.6f} <= |c| <= {math.sqrt(args.M):.6f}")
    for w in beam_warnings(args.M, args.B):
        print(f"warning: {w}")
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="mmwsim",
        description="Uplink rate simulation and closed-form bounds for multi-cell "
                    "mmWave massive MIMO with low-resolution ADCs",
    )
    p.add_argument("--version", action="version", version=f"mmwsim {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bound", help="evaluate the closed-form rate bounds")
    _add_config_args(b)
    b.add_argument("--out", help="also write one CSV row here")
    b.set_defaults(fn=cmd_bound)

    s = sub.add_parser("simulate", help="Monte-Carlo ergodic rate for one config")
    _add_config_args(s)
    s.add_argument("--trials", type=int, default=2000)
    s.add_argument("--mode", choices=MODES, default="semi")
    s.add_argument("--debug-dump", metavar="PREFIX",
                   help="dump trial 0's BS-0 realization CSV (and, in symbol mode, "
                        "its error-power CSV)")
    s.set_defaults(fn=cmd_simulate)

    w = sub.add_parser("sweep", help="run a preset or custom sweep to CSV")
    source = w.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=list_presets())
    source.add_argument("--spec", help="sweep spec JSON path")
    w.add_argument("--trials", type=int)
    w.add_argument("--seed", type=int)
    w.add_argument("--mode", choices=MODES)
    w.add_argument("--out", help="output CSV path (stdout when omitted)")
    w.add_argument("--plot-script", help="also emit a gnuplot script here (needs --out)")
    w.set_defaults(fn=cmd_sweep)

    v = sub.add_parser("validate", help="run self-validation suites")
    v.add_argument("--suite", default="all", choices=(*SUITES, "all"))
    v.set_defaults(fn=cmd_validate)

    c = sub.add_parser("codebook", help="print the phase codebook and gain bounds")
    c.add_argument("--M", type=int, required=True, help="user antenna count")
    c.add_argument("--B", type=int, required=True, help="phase quantization bits")
    c.set_defaults(fn=cmd_codebook)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
