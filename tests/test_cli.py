import csv
import json

import numpy as np
import pytest

from goldens import cli_output
from mmwsim import cli
from mmwsim.checks import SUITES, CheckResult
from mmwsim.cli import main
from mmwsim.config import SystemConfig
from mmwsim.rng import STAGE_CHANNEL, STAGE_PILOT, substream
from oracles import estimate_all, sample_channel, train_beams


def test_codebook_command(capsys):
    assert main(["codebook", "--M", "2", "--B", "1"]) == 0
    out = capsys.readouterr().out
    assert "2 phases" in out
    assert "0.785398" in out  # pi/4


def test_codebook_warns_on_coarse_phases(capsys):
    # the same note a config with this M and B carries
    main(["codebook", "--M", "8", "--B", "1"])
    [note] = SystemConfig(M=8, B=1, adc_bits=3).warnings
    assert f"warning: {note}\n" in capsys.readouterr().out


@pytest.mark.parametrize("argv, message", [
    (["bound", "--set", "adc_bits=3", "--set", "B=1100"], "B must be at most 12, got 1100"),
    (["codebook", "--M", "0", "--B", "6"], "M must be a positive integer, got 0"),
    (["codebook", "--M", "-1", "--B", "6"], "M must be a positive integer, got -1"),
    (["codebook", "--M", "2", "--B", "1100"], "B must be at most 12, got 1100"),
], ids=["bound-B", "codebook-M0", "codebook-M-1", "codebook-B"])
def test_beam_settings_checked_before_any_output(capsys, argv, message):
    # the codebook command applies the rule a config's M and B must pass
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_set_without_a_value_exits_2(capsys):
    assert main(["bound", "--set", "adc_bits=3", "--set", "K"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: --set expects KEY=VALUE, got 'K'\n"


@pytest.mark.parametrize("item, message", [
    ("K=abc", "K must be an integer, got 'abc'"),
    ("K=2.0", "K must be an integer, got '2.0'"),
    ("p_t=abc", "p_t must be a number, got 'abc'"),
    ("snr_db=", "snr_db must be a number, got ''"),
], ids=["K-text", "K-float", "p_t-text", "snr_db-empty"])
def test_set_value_that_does_not_parse_names_its_key(capsys, item, message):
    assert main(["bound", "--set", "adc_bits=3", "--set", item]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [["bound"], ["simulate", "--trials", "10"]], ids=["bound", "simulate"])
def test_run_commands_print_the_coarse_phase_warning(capsys, argv):
    # the same note the codebook command prints for this M and B
    assert main(argv + ["--set", "adc_bits=3", "--set", "M=16", "--set", "B=1"]) == 0
    [note] = SystemConfig(M=16, B=1, adc_bits=3).warnings
    assert f"warning: {note}" in capsys.readouterr().out.splitlines()


def test_bound_command_with_overrides(capsys, tmp_path):
    out_csv = tmp_path / "row.csv"
    rc = main(["bound", "--set", "L=3", "--set", "K=4", "--set", "N=64",
               "--set", "M=2", "--set", "adc_bits=1", "--set", "p_t=1",
               "--set", "p_p=4", "--out", str(out_csv)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "R_LB   = 1.880025" in out
    assert out_csv.exists()
    text = out_csv.read_text()
    assert "1.88003" in text


def test_bound_prints_the_rho_ad_override_in_place_of_bits(capsys):
    # as the CSV leaves `bits` blank, the printout names the override
    assert main(["bound", "--set", "rho_ad=0.1", "--set", "K=2"]) == 0
    [line] = [l for l in capsys.readouterr().out.splitlines() if l.startswith("config:")]
    assert " tau=2 rho_ad=0.1 rho=0.1 " in line and "bits=" not in line


_HUGE = 10 ** 400


@pytest.mark.parametrize("settings, doc, field", [
    (["adc_bits=3", f"K={_HUGE}"], None, "K"),
    (["adc_bits=3", f"K={_HUGE}", "p_p=1"], None, "K"),
    (["adc_bits=3", f"N={_HUGE}"], None, "N"),
    ([], {"adc_bits": 3, "p_t": _HUGE}, "p_t"),
], ids=["K", "K-with-p_p", "N", "config-p_t"])
def test_integer_beyond_float_range_is_config_error(capsys, tmp_path, settings, doc, field):
    argv = ["bound"]
    if doc is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        argv += ["--config", str(path)]
    for item in settings:
        argv += ["--set", item]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {field} must be a " in err and "got an integer beyond float range" in err


_CSV_HEAD = (
    "# rate columns (rate_mc, ci95, rate_lb, rate_lb_s) in bits/s/Hz, log base 2\n"
    "scenario_id,L,K,N,M,bits,B,tau,beta,snr_db,pilot_snr_db,trials,seed,"
    "rate_mc,ci95,rate_lb,rate_lb_s,xi1,xi2,r_inf\n"
)


@pytest.mark.parametrize("overrides, row", [
    (["L=1", "K=2", "N=32", "adc_bits=3", "p_t=0.1"],
     "bound,1,2,32,2,3,6,2,0.1,-10,-6.9897,0,0,,,1.15781,1.15781,23.8617,59.6543,\n"),
    (["L=3", "K=4", "adc_bits=1", "p_p=4"],
     "bound,3,4,64,2,1,6,4,0.1,0,6.0206,0,0,,,1.88003,,415.012,51.8764,5.66682\n"),
    (["L=3", "K=8", "rho_ad=0.2", "snr_db=-7"],
     "bound,3,8,64,2,,6,8,0.1,-7,2.0309,0,0,,,1.37532,,261.523,81.92,5.66682\n"),
], ids=["L1", "L3", "L3-rho_ad"])
def test_bound_out_csv_bytes(capsys, tmp_path, overrides, row):
    out_csv = tmp_path / "row.csv"
    argv = ["bound", "--out", str(out_csv)]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 0
    assert out_csv.read_bytes() == (_CSV_HEAD + row).encode()


@pytest.mark.parametrize("argv", [
    ["bound", "--config", "{missing}"],
    ["sweep", "--spec", "{missing}"],
    ["bound", "--set", "adc_bits=3", "--out", "{missing_dir}/x.csv"],
], ids=["config", "spec", "out"])
def test_file_errors_exit_2(capsys, tmp_path, argv):
    paths = {"missing": tmp_path / "missing.json", "missing_dir": tmp_path / "no_dir"}
    argv = [a.format(**paths) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "No such file or directory" in err


@pytest.mark.parametrize("command", [["bound", "--config"], ["sweep", "--spec"]],
                         ids=["config", "spec"])
@pytest.mark.parametrize("content", [b'{"K": 2,\n}', b'\xff{}'], ids=["malformed", "not-utf8"])
def test_a_file_that_holds_no_json_is_named(capsys, tmp_path, command, content):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    assert main(command + [str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {path} is not a JSON document: ")


@pytest.mark.parametrize("argv", [
    ["sweep", "--preset", "fig2", "--out", "{missing_dir}/x.csv"],
    ["sweep", "--preset", "fig2", "--out", "{tmp}/x.csv", "--plot-script", "{missing_dir}/x.gp"],
    ["bound", "--set", "adc_bits=3", "--out", "{missing_dir}/x.csv"],
    ["simulate", "--set", "L=3", "--set", "K=8", "--set", "adc_bits=3", "--trials", "2000",
     "--mode", "symbol", "--debug-dump", "{missing_dir}/x"],
], ids=["sweep-out", "sweep-plot-script", "bound-out", "simulate-debug-dump"])
def test_unwritable_output_fails_before_any_work(capsys, tmp_path, monkeypatch, argv):
    # the whole sweep or simulation, or the printed report, would be thrown away
    def no_work(*args, **kwargs):
        raise AssertionError("ran before the output path was checked")
    monkeypatch.setattr(cli, "run_sweep", no_work)
    monkeypatch.setattr(cli, "lower_bound_rate", no_work)
    monkeypatch.setattr(cli, "ergodic_rate", no_work)
    paths = {"missing_dir": tmp_path / "no_dir", "tmp": tmp_path}
    assert main([a.format(**paths) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "No such file or directory" in captured.err


def test_bound_command_config_file(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"L": 1, "K": 2, "N": 32, "M": 2,
                               "adc_bits": 3, "p_t": 0.1, "p_p": 1.0}))
    assert main(["bound", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "single-cell form" in out
    assert "+inf" in out


def test_bound_command_rejects_bad_config(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"L": 1, "K": 8, "tau": 2, "adc_bits": 3}))
    assert main(["bound", "--config", str(cfg)]) == 2
    assert "tau < K" in capsys.readouterr().err


@pytest.mark.parametrize("doc, settings, key", [
    ({}, ["adc_bits=3", "snr_db=4000"], "snr_db = 4000.0"),
    ({"adc_bits": 3, "pilot_snr_db": 1e5}, [], "pilot_snr_db = 100000.0"),
], ids=["set", "config"])
def test_overflowing_db_setting_exits_2(capsys, tmp_path, doc, settings, key):
    # 10^(dB/10) overflows a float: a config error naming the key, not a traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    argv = ["bound", "--config", str(cfg)] + [a for item in settings for a in ("--set", item)]
    assert main(argv) == 2
    assert f"error: {key} dB overflows" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["null", "[]", "0", '""'])
@pytest.mark.parametrize("extra", [[], ["--set", "K=2"]], ids=["plain", "with-set"])
def test_config_file_must_hold_an_object(capsys, tmp_path, text, extra):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert main(["bound", "--config", str(cfg)] + extra) == 2
    assert "config document must be a JSON object" in capsys.readouterr().err


def test_spec_file_must_hold_an_object(capsys, tmp_path):
    path = tmp_path / "s.json"
    path.write_text("[]")
    assert main(["sweep", "--spec", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: sweep spec must be a JSON object\n"


def test_simulate_command(capsys):
    rc = main(["simulate", "--set", "L=2", "--set", "K=2", "--set", "N=16",
               "--set", "M=2", "--set", "adc_bits=2", "--set", "p_t=1",
               "--set", "p_p=2", "--set", "seed=5", "--trials", "30"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ergodic rate" in out and "lower bound" in out


def test_simulate_notes_the_contamination_floor(capsys):
    assert main(["simulate", "--set", "L=3", "--set", "K=2", "--set", "adc_bits=1",
                 "--set", "seed=7", "--trials", "700"]) == 0
    assert ("note: 13 of 1400 user-realizations hit the destructive-contamination floor\n"
            in capsys.readouterr().out)


_DUMP_ARGS = ["simulate", "--set", "L=2", "--set", "K=2", "--set", "N=16",
              "--set", "M=2", "--set", "adc_bits=3", "--set", "p_t=1",
              "--set", "p_p=2", "--trials", "20"]


def _read_dump(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_simulate_symbol_mode_and_dump(capsys, tmp_path):
    prefix = str(tmp_path / "dbg")
    assert main(_DUMP_ARGS + ["--mode", "symbol", "--debug-dump", prefix]) == 0
    out = capsys.readouterr().out
    assert f"wrote {prefix}_realization.csv" in out
    assert f"wrote {prefix}_error_power.csv" in out
    # the dump holds BS 0's row of trial 0 as the reference pipeline computes
    # it, with the error powers of the pilot phase symbol mode samples: the
    # real quantizer on the first realization
    cfg = SystemConfig(L=2, K=2, N=16, M=2, adc_bits=3, p_t=1.0, p_p=2.0)
    real = sample_channel(cfg, substream(cfg.seed, 0, STAGE_CHANNEL))
    training = train_beams(real, cfg)
    est = estimate_all(real, training, cfg, substream(cfg.seed, 0, STAGE_PILOT),
                       quant_path="real")
    rows = _read_dump(prefix + "_realization.csv")
    assert list(rows[0]) == ["l", "k", "theta", "beta", "abs_c"]
    assert [(r["l"], r["k"]) for r in rows] == [
        (str(l), str(k)) for l in range(cfg.L) for k in range(cfg.K)]
    for r in rows:
        l, k = int(r["l"]), int(r["k"])
        assert (r["theta"], r["beta"], r["abs_c"]) == (
            f"{real.theta[0, l, k]:.10g}", f"{real.beta[0, l, k]:.10g}",
            f"{abs(training.c[0, l, k]):.10g}")
    err = np.sum(np.abs(est.e[0]) ** 2, axis=0)
    assert _read_dump(prefix + "_error_power.csv") == [
        {"k": str(k), "err_power": f"{err[k]:.10g}"} for k in range(cfg.K)]


def test_simulate_semi_mode_dump_writes_realization_only(capsys, tmp_path):
    # semi mode samples no pilots, so there are no error powers to dump
    prefix = str(tmp_path / "dbg")
    assert main(_DUMP_ARGS + ["--debug-dump", prefix]) == 0
    out = capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dbg_realization.csv"]
    assert f"wrote {prefix}_realization.csv" in out and "error_power" not in out
    assert len(_read_dump(prefix + "_realization.csv")) == 2 * 2


def test_sweep_preset_to_files(capsys, tmp_path):
    out_csv = tmp_path / "fig2.csv"
    out_gp = tmp_path / "fig2.gp"
    rc = main(["sweep", "--preset", "fig2", "--trials", "20",
               "--out", str(out_csv), "--plot-script", str(out_gp)])
    assert rc == 0
    text = out_csv.read_text()
    assert text.splitlines()[1].startswith("scenario_id,")
    assert len(text.strip().splitlines()) == 2 + 4  # comment + header + rows
    assert "plot" in out_gp.read_text()


def test_sweep_spec_file_stdout(capsys, tmp_path):
    spec = {"scenario_id": "t", "base": {"L": 1, "N": 8, "M": 2, "adc_bits": 2,
                                         "p_t": 1.0, "p_p": 1.0},
            "axis": "K", "values": [1], "trials": 10, "outputs": ["rate_lb"]}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(spec))
    assert main(["sweep", "--spec", str(path)]) == 0
    out = capsys.readouterr().out
    assert "scenario_id" in out and ",t," not in out  # id leads each row
    assert out.splitlines()[2].startswith("t,")


def test_rejected_simulate_leaves_no_dump_files(capsys, tmp_path):
    # symbol mode cannot honor rho_ad; the run fails before a dump file is created
    argv = ["simulate", "--set", "rho_ad=0.1", "--set", "K=2", "--mode", "symbol",
            "--trials", "20", "--debug-dump", str(tmp_path / "x")]
    assert main(argv) == 2
    assert "rho_ad" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_rejected_sweep_leaves_no_out_file(capsys, tmp_path):
    spec = {"scenario_id": "t", "base": {"L": 1, "N": 8, "M": 2, "adc_bits": 2, "rho_ad": 0.1},
            "axis": "K", "values": [1], "trials": 10, "mode": "symbol"}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(spec))
    assert main(["sweep", "--spec", str(path), "--out", str(tmp_path / "s.csv")]) == 2
    assert "rho_ad" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["s.json"]


def test_sweep_requires_source(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep"])
    assert exc.value.code == 2
    assert "one of the arguments --preset --spec is required" in capsys.readouterr().err


def test_sweep_rejects_preset_with_spec(capsys, tmp_path):
    # one source only: a spec given next to a preset must not be ignored
    spec = tmp_path / "s.json"
    spec.write_text("{}")
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--preset", "fig2", "--spec", str(spec), "--trials", "10"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_sweep_plot_script_needs_out(capsys, tmp_path):
    # the script plots the CSV file, so without --out nothing runs
    gp = tmp_path / "fig2.gp"
    assert main(["sweep", "--preset", "fig2", "--trials", "10",
                 "--plot-script", str(gp)]) == 2
    captured = capsys.readouterr()
    assert "--plot-script needs --out" in captured.err
    assert "rate_mc=" not in captured.err and captured.out == ""
    assert not gp.exists()


def test_sweep_plot_script_rejects_a_quote_in_out(capsys, tmp_path):
    # the script names the CSV in a '...' string, which a ' would break
    out, gp = tmp_path / "it's.csv", tmp_path / "fig2.gp"
    assert main(["sweep", "--preset", "fig2", "--trials", "10", "--out", str(out),
                 "--plot-script", str(gp)]) == 2
    captured = capsys.readouterr()
    assert "--plot-script needs an --out path without" in captured.err
    assert "rate_mc=" not in captured.err and captured.out == ""
    assert not out.exists() and not gp.exists()


@pytest.mark.parametrize("out, script", [("s.csv", "s.csv"), ("s.csv", "./s.csv"),
                                         ("s.csv", "sub/../s.csv")],
                         ids=["same", "dot", "dot-dot"])
def test_sweep_plot_script_refuses_the_out_file(capsys, tmp_path, monkeypatch, out, script):
    # one file cannot hold both the CSV and the script that plots it
    monkeypatch.setattr(cli, "run_sweep", pytest.fail)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    assert main(["sweep", "--preset", "fig2", "--trials", "10", "--out", out,
                 "--plot-script", script]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --plot-script {script!r} names the --out file {out!r}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["sub"]


def test_sweep_plot_script_needs_a_plotted_output(capsys, tmp_path):
    # a spec without rate_mc or rate_lb has nothing to plot: nothing runs
    spec = tmp_path / "s.json"
    spec.write_text(json.dumps({"scenario_id": "t", "base": {"L": 1, "adc_bits": 2},
                                "axis": "K", "values": [1, 2], "trials": 10,
                                "outputs": ["ci95", "xi1"]}))
    out, gp = tmp_path / "s.csv", tmp_path / "s.gp"
    assert main(["sweep", "--spec", str(spec), "--out", str(out),
                 "--plot-script", str(gp)]) == 2
    captured = capsys.readouterr()
    assert "a plot needs rate_mc or rate_lb" in captured.err
    assert "rate_mc=" not in captured.err and captured.out == ""
    assert not out.exists() and not gp.exists()



@pytest.mark.parametrize("suite", ["bounds"])
def test_validate_suite_exit_codes(capsys, suite):
    assert main(["validate", "--suite", suite]) == 0
    *checks, summary = capsys.readouterr().out.splitlines()
    assert checks and all(line.startswith(f"PASS {suite}/") for line in checks)
    assert summary == f"{len(checks)}/{len(checks)} checks passed"


def test_validate_fails_loudly(monkeypatch, capsys):
    # the validate golden is the one tier-1 run of these checks: a FAIL line
    # must fail it, and must stop it from being recorded
    for name in SUITES:
        monkeypatch.setitem(SUITES, name, lambda name=name: [
            CheckResult(name, "holds", True, 1.0, 2.0)])
    monkeypatch.setitem(SUITES, "rate", lambda: [
        CheckResult("rate", "holds", True, 1.0, 2.0),
        CheckResult("rate", "broken", False, 3.0, 2.0, "stub")])
    assert main(["validate", "--suite", "rate"]) == 1
    assert capsys.readouterr().out == ("PASS rate/holds: value=1 tol=2\n"
                                       "FAIL rate/broken: value=3 tol=2  (stub)\n"
                                       "1/2 checks passed\n")
    with pytest.raises(RuntimeError, match="exited 1"):
        cli_output("validate")
