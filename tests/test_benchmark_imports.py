"""The package names the benchmark under perfbench/ imports still resolve,
and a traced run of each workload still counts its trials.

perfbench/ is outside tier-1, so a change that renames or removes what its
workloads or trace sites import would otherwise first fail in a benchmark
run.  This loads perfbench/workloads.py, resolves every workload's configs
and imports every module perfbench/tracing.py wraps functions in.  Its
per-layer metrics are per trial, counted at the trace sites of
ergodic_rate, so it also runs each workload once under the tracer.
"""

import importlib
import importlib.util
import pathlib

BENCH_DIR = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, monkeypatch):
    # workloads.py imports its sibling calibrate.py by its bare name
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_workload_sets_up(monkeypatch):
    workloads = _load("workloads", monkeypatch)
    assert workloads.WORKLOADS
    for workload in workloads.WORKLOADS.values():
        assert workload.setup(2) is not None


def test_every_trace_site_module_imports(monkeypatch):
    tracing = _load("tracing", monkeypatch)
    modules = sorted({module for _, module, _, _ in tracing.SITES})
    assert modules
    for module in modules:
        importlib.import_module(module)


def test_a_traced_run_of_every_workload_passes_and_counts_its_trials(monkeypatch):
    # a run that reaches the engine past the traced names counts no trials,
    # and `perfbench/run.py --trace 1` then divides by zero
    workloads, tracing = _load("workloads", monkeypatch), _load("tracing", monkeypatch)
    seed = workloads.DEFAULT_SEED
    for workload in workloads.WORKLOADS.values():
        prepared = workload.setup(seed)
        tracer = tracing.Tracer()
        with tracer.installed():
            outputs, trials = workload.run(prepared, seed)
        assert [name for name, ok in workload.checks(outputs, seed) if not ok] == []
        assert tracer.counts["rate.trials"] == trials > 0
