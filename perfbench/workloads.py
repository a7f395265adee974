"""The benchmark's Monte-Carlo workloads and their correctness gates.

Each workload is one closed-loop batch job: a single call into the package's
public entry points (`mmwsim.sweep.run_sweep` or `mmwsim.rate.ergodic_rate`),
run to completion at a fixed trial count.  The seed is the only input that
varies between runs.

At DEFAULT_SEED the outputs are compared with values recorded from the
reference implementation; at any other seed only invariants are checked.
"""

import math

from calibrate import Kernel
from mmwsim import rate, sweep
from mmwsim.config import config_from_dict, validate_config
from mmwsim.quantize import lloyd_max_design

DEFAULT_SEED = 2
TRIALS = 2000

# Relative tolerances for the reference comparison.  Both sit far below the
# relative 95% half-width of the recorded points (0.36% to 0.85%), so a changed
# model fails while re-ordered floating-point sums pass.  run_sweep formats its
# outputs to six significant digits, so fig2 allows two units in the last digit.
SWEEP_RTOL = 2e-5
RATE_RTOL = 1e-9

# fig2 preset at its own seed: (rate_mc, ci95, rate_lb, r_inf) per K in 2, 8, 16, 32.
FIG2_REFERENCE = (
    (3.04934, 0.023609, 2.44331, 5.66682),
    (1.7684, 0.0108472, 1.3149, 5.66682),
    (1.15154, 0.00558674, 0.836821, 5.66682),
    (0.683329, 0.00248294, 0.489929, 5.66682),
)
FIG2_COLUMNS = ("rate_mc", "ci95", "rate_lb", "r_inf")


class Workload:
    """One benchmark workload: how to resolve it, run it and check its outputs.

    `overrides` of None selects the fig2 sweep; otherwise they are applied to
    the fig2 base config for a single `ergodic_rate` point in `mode`.
    `kernel` is the calibration kernel its times are scaled by, `bits` the
    ADC depth whose quantizer set-up warms, and `reference` the recorded
    (rate_mc, ci95) at DEFAULT_SEED.
    """

    def __init__(self, name, kernel, bits, mode=None, overrides=None, reference=None):
        self.name = name
        self.kernel = kernel
        self.bits = bits
        self.mode = mode
        self.overrides = overrides
        self.reference = reference

    def setup(self, seed):
        """Everything a fresh interpreter pays before the first trial.

        Resolves the configs the job runs and warms the quantizer design for
        the bit depth in use.  Returns what `run` needs.
        """
        spec = sweep.load_preset("fig2")
        lloyd_max_design(self.bits)
        cfg = validate_config(
            config_from_dict(dict(spec.base, **(self.overrides or {}), seed=seed)))
        return spec if self.overrides is None else cfg

    def run(self, prepared, seed):
        """Run the job once; return (outputs, trials)."""
        if self.overrides is None:
            rows = sweep.run_sweep(prepared, seed=seed)
            return rows, sum(int(r["trials"]) for r in rows)
        report = rate.ergodic_rate(prepared, TRIALS, mode=self.mode)
        return report, report.trials

    def checks(self, outputs, seed):
        """List of (check name, passed) for one job's outputs."""
        if self.overrides is None:
            return _sweep_checks(outputs, seed)
        return _rate_checks(outputs, seed, self.reference)


def _finite_positive(x):
    return math.isfinite(x) and x > 0.0


def _close(value, ref, rtol):
    return abs(value - ref) <= rtol * abs(ref)


def _sweep_checks(rows, seed):
    vals = [{c: float(row[c]) for c in FIG2_COLUMNS} for row in rows]
    out = []
    for row, v in zip(rows, vals):
        tag = f"K={row['K']}"
        for c in ("rate_mc", "ci95", "rate_lb"):
            out.append((f"{tag} {c} finite and positive", _finite_positive(v[c])))
        out.append((f"{tag} rate_mc + ci95 >= rate_lb", v["rate_mc"] + v["ci95"] >= v["rate_lb"]))
    if seed == DEFAULT_SEED:
        out.append(("point count matches reference", len(rows) == len(FIG2_REFERENCE)))
        for row, v, ref in zip(rows, vals, FIG2_REFERENCE):
            for c, r in zip(FIG2_COLUMNS, ref):
                out.append((f"K={row['K']} {c} matches reference", _close(v[c], r, SWEEP_RTOL)))
    return out


def _rate_checks(report, seed, reference):
    out = [
        ("rate_mc finite and positive", _finite_positive(report.rate_mc)),
        ("ci95 finite and positive", _finite_positive(report.ci95)),
    ]
    if seed == DEFAULT_SEED:
        out.append(("rate_mc matches reference", _close(report.rate_mc, reference[0], RATE_RTOL)))
        out.append(("ci95 matches reference", _close(report.ci95, reference[1], RATE_RTOL)))
    return out


WORKLOADS = {
    w.name: w for w in (
        # the packaged fig2 sweep: per-trial overhead and growth with K dominate
        Workload("fig2_semi", Kernel((2, 8, 16, 32), 64, 1800, 1.2), bits=1),
        # the criterion-9 config in symbol mode: the real quantizer and sampled pilots
        Workload(
            "symbol_k8", Kernel((8,), 64, 600, 1.2, symbols=256), bits=3, mode="symbol",
            overrides={"K": 8, "adc_bits": 3, "p_p": 8.0},
            reference=(3.2126922118486547, 0.02718239977127653),
        ),
    )
}
