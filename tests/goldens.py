"""Recorded outputs under tests/golden/, and the script that rewrites them.

OUTPUTS maps each file to the function that produces its text: the stdout
of one `mmwsim` command run through `mmwsim.cli.main`, or engine values
printed with repr.  test_golden.py compares every file byte for byte.
validate.txt is the one tier-1 run of the `validate` suites, which hold
acceptance criteria 3-7 (xi ordering, the large-N limit, the steering-sum
lemmas, the quantizer model, the analog-gain bounds); cli_output raises when
a command exits nonzero, so one FAIL line fails that test and cannot be
recorded.

After a change that is meant to move an output, rewrite the files it moves
with

    PYTHONPATH=src python tests/goldens.py FILE [FILE ...]

(no FILE rewrites them all) and name each rewritten file, with the reason,
in CHANGES.md.
"""

import contextlib
import io
import pathlib
import sys
from functools import partial

from mmwsim.cli import main
from mmwsim.config import config_from_dict
from mmwsim.rate import ergodic_rate
from mmwsim.sweep import _point_config, list_presets, load_preset

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"


def cli_output(*argv):
    """stdout of one `mmwsim` run that must exit 0; stderr (sweep progress) is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(list(argv))
    if rc != 0:
        raise RuntimeError(f"mmwsim {' '.join(argv)} exited {rc}:\n{out.getvalue()}")
    return out.getvalue()


def preset_configs():
    """repr of the SystemConfig of every preset point, in run_sweep's order."""
    lines = []
    for name in list_presets():
        spec = load_preset(name)
        lines += [f"{name} {_point_config(spec, curve, value, {})!r}"
                  for curve in spec.curves for value in spec.values]
    return "\n".join(lines) + "\n"


def symbol_k8(seed):
    """Symbol mode on the fig2 base with K=8, 3-bit ADCs and p_p=8, over 100
    trials: every pilot, symbol and noise draw and the quantizer's input
    variance feed these digits."""
    cfg = config_from_dict(dict(load_preset("fig2").base, K=8, adc_bits=3, p_p=8.0, seed=seed))
    rep = ergodic_rate(cfg, 100, mode="symbol")
    return f"rate_mc={rep.rate_mc!r} ci95={rep.ci95!r}\n"


OUTPUTS = {
    "fig2_seed2.csv": partial(cli_output, "sweep", "--preset", "fig2", "--seed", "2"),
    "fig2_seed7.csv": partial(cli_output, "sweep", "--preset", "fig2", "--seed", "7"),
    **{f"{name}_trials40.csv": partial(cli_output, "sweep", "--preset", name, "--trials", "40")
       for name in list_presets()},
    "fig5_symbol_trials10.csv": partial(cli_output, "sweep", "--preset", "fig5",
                                        "--mode", "symbol", "--trials", "10"),
    "validate.txt": partial(cli_output, "validate"),
    "bound_K8_bits3.txt": partial(cli_output, "bound", "--set", "K=8", "--set", "adc_bits=3"),
    "bound_L1_K4_bits3.txt": partial(cli_output, "bound", "--set", "L=1", "--set", "K=4",
                                     "--set", "adc_bits=3"),
    "codebook_M8_B6.txt": partial(cli_output, "codebook", "--M", "8", "--B", "6"),
    "preset_configs.txt": preset_configs,
    "symbol_k8_seed2.txt": partial(symbol_k8, 2),
    "symbol_k8_seed7.txt": partial(symbol_k8, 7),
}


if __name__ == "__main__":
    names = sys.argv[1:] or list(OUTPUTS)
    unknown = sorted(set(names) - set(OUTPUTS))
    if unknown:
        sys.exit(f"unknown golden files {unknown}; choose from {sorted(OUTPUTS)}")
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in names:
        (GOLDEN_DIR / name).write_bytes(OUTPUTS[name]().encode())
        print(f"wrote {GOLDEN_DIR / name}")
