"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import mmwsim  # noqa: E402
from mmwsim import SystemConfig, validate_config  # noqa: E402
from mmwsim import rate  # noqa: E402

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class Canned(workloads.Workload):
    """A workload whose job returns fixed outputs instead of simulating."""

    def __init__(self, base, outputs, **changes):
        kw = dict(kernel=base.kernel, bits=base.bits, mode=base.mode, overrides=base.overrides,
                  reference=base.reference)
        kw.update(changes)
        super().__init__(base.name, **kw)
        self.outputs = outputs

    def run(self, prepared, seed):
        return self.outputs, workloads.TRIALS


def _failed_frac(workload, seed=workloads.DEFAULT_SEED):
    job = run.Job(workload, seed)
    job()
    return len(job.failed_checks) / job.attempted


def _fig2_rows(reference):
    return [{"K": k, **{c: f"{v:.6g}" for c, v in zip(workloads.FIG2_COLUMNS, ref)}}
            for k, ref in zip((2, 8, 16, 32), reference)]


def test_perturbed_rate_reference_fails():
    base = workloads.WORKLOADS["symbol_k8"]
    report = SimpleNamespace(rate_mc=base.reference[0], ci95=base.reference[1])
    assert _failed_frac(Canned(base, report)) == 0.0
    perturbed = (base.reference[0] * (1 + 1e-6), base.reference[1])
    assert _failed_frac(Canned(base, report, reference=perturbed)) > 0.0


def test_perturbed_sweep_reference_fails(monkeypatch):
    base = workloads.WORKLOADS["fig2_semi"]
    rows = _fig2_rows(workloads.FIG2_REFERENCE)
    assert _failed_frac(Canned(base, rows)) == 0.0
    perturbed = [list(r) for r in workloads.FIG2_REFERENCE]
    perturbed[1][0] *= 1.001
    monkeypatch.setattr(workloads, "FIG2_REFERENCE", tuple(map(tuple, perturbed)))
    assert _failed_frac(Canned(base, rows)) > 0.0


def test_other_seed_checks_invariants_only():
    base = workloads.WORKLOADS["fig2_semi"]
    shifted = [(r * 1.01, ci, lb, inf) for r, ci, lb, inf in workloads.FIG2_REFERENCE]
    assert _failed_frac(Canned(base, _fig2_rows(shifted)), seed=7) == 0.0
    below_bound = [(lb * 0.5, ci, lb, inf) for _, ci, lb, inf in workloads.FIG2_REFERENCE]
    assert _failed_frac(Canned(base, _fig2_rows(below_bound)), seed=7) > 0.0


def _sites():
    import importlib
    return {(m, a): getattr(importlib.import_module(m), a)
            for _, m, a, _ in tracing.SITES}


@pytest.mark.parametrize("mode", ["semi", "symbol"])
def test_traced_run_restores_wrapped_functions(mode):
    before = _sites()
    cfg = validate_config(SystemConfig(L=2, K=2, N=8, M=2, adc_bits=2, seed=3))
    tracer = tracing.Tracer()
    with tracer.installed():
        assert all(_sites()[key] is not fn for key, fn in before.items())
        traced = rate.ergodic_rate(cfg, 10, mode=mode)
    assert _sites() == before and all(_sites()[k] is fn for k, fn in before.items())
    assert traced.rate_mc == rate.ergodic_rate(cfg, 10, mode=mode).rate_mc
    totals = tracer.totals()
    assert totals["channel.sample_channel"][0] == 10
    assert tracer.counts["rate.trials"] == 10
    assert all(0 <= own <= total for _, total, own in totals.values())

    with pytest.raises(RuntimeError):
        with tracer.installed():
            raise RuntimeError("boom")
    assert all(_sites()[k] is fn for k, fn in before.items())


def test_compare_file_with_itself_gives_unit_ratios():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        for i in range(3):
            metrics = {m["name"]: {"value": 1.0 + 0.01 * i + j, "unit": m["unit"]}
                       for j, m in enumerate(bench[section])}
            runs.append({"workload": "fig2_semi", "trace": trace, "metrics": metrics})
    doc = {"runs": runs}
    rows = compare.compare(doc, doc, bench)
    assert [w for w, _ in rows] == ["fig2_semi"]
    cells = rows[0][1]
    assert len(cells) == len(bench["end_to_end"]) + len(bench["per_layer"])
    assert all(ratio == 1.0 for _, _, _, ratio, _ in cells)


def test_benchmark_json_matches_workloads():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    assert Path(mmwsim.__file__).resolve().is_relative_to((ROOT / "src").resolve())
