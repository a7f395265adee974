"""mmwsim benchmark: one Monte-Carlo workload per run, in a fresh interpreter.

    python3 perfbench/run.py --workload fig2_semi --seed 2 --seconds 45 --trace 0

Run from the root of a checkout.  The package is imported from the
checkout's own src/ (it need not be installed).  The workload's fixed-trial
job is repeated until --seconds have passed; each job's outputs are checked.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json:
trials_per_s (median over jobs), setup_s (median over fresh interpreters),
peak_rss_mb and passed_frac.  --trace 1 alternates untraced and traced jobs
and reports the per-layer metrics: self time per trial of each wrapped
layer, work counts, per-module import time and the tracing overhead.

Every run appends a record with provenance to --out (default
perfbench/out/results.json); a traced run also writes its spans to
perfbench/out/spans-<workload>.csv.  The last stdout line is the JSON
result.  Exits non-zero without a result when src/mmwsim is missing.
"""

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import Clock
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PROBE = HERE / "setup_probe.py"
THREADS_ENV = "SIMKIT_THREADS"
SETUP_PROBES = 5
IMPORT_PROBES = 3
PROBE_TIMEOUT_S = 60

# metric-name prefix -> module, for the per-module import times
IMPORT_MODULES = {
    "mmwsim": "mmwsim", "errors": "mmwsim.errors", "config": "mmwsim.config",
    "channel": "mmwsim.channel", "training": "mmwsim.training",
    "estimation": "mmwsim.estimation", "quantize": "mmwsim.quantize",
    "rate": "mmwsim.rate", "bounds": "mmwsim.bounds", "sweep": "mmwsim.sweep",
    "rng": "mmwsim.rng",
}
# spans whose self time per trial is reported
SELF_TIME_LAYERS = (
    "channel.sample_channel", "training.train_beams", "estimation.pilot_statistics",
    "estimation.estimate_all", "quantize.lloyd_max_quantize",
    "quantize.quant_noise_power_data", "rate.ergodic_rate", "rng.substream",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=OUT / "results.json")
    args = p.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def _env():
    env = dict(os.environ)
    env.pop(THREADS_ENV, None)
    return env


def _probe(workload, seed, *python_flags):
    """Run the set-up probe in a fresh interpreter; return (seconds to ready, stderr)."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, *python_flags, str(PROBE), workload, str(seed)],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1]) - start, proc.stderr


def setup_seconds(workload, seed, clock):
    samples = [_probe(workload, seed)[0] for _ in range(SETUP_PROBES)]
    return statistics.median(samples) * clock.scale()


_IMPORTTIME = re.compile(r"^import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")


def import_seconds(workload, seed, clock):
    """Median cumulative import time of each mmwsim module, from -X importtime."""
    samples = {name: [] for name in IMPORT_MODULES}
    for _ in range(IMPORT_PROBES):
        _, err = _probe(workload, seed, "-X", "importtime")
        cumulative = {}
        for line in err.splitlines():
            m = _IMPORTTIME.match(line)
            if m:
                cumulative[m.group(3)] = int(m.group(2)) * 1e-6
        for name, module in IMPORT_MODULES.items():
            samples[name].append(cumulative.get(module, 0.0))
    scale = clock.scale()
    return {f"{name}.import_s": statistics.median(v) * scale for name, v in samples.items()}


def provenance(seed, threads_env):
    import mmwsim
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": commit,
        "seed": seed,
        "simkit_threads_set": threads_env is not None,
        "blas_threads_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS",
                                                            "OMP_NUM_THREADS")},
        "mmwsim_file": mmwsim.__file__,
    }


class Job:
    """The workload's job plus a tally of the correctness checks run on it."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.prepared = workload.setup(seed)
        self.attempted = 0
        self.failed_checks = []

    def __call__(self):
        """Run and check one job; return (wall seconds, trials)."""
        start = time.perf_counter()
        outputs, trials = self.workload.run(self.prepared, self.seed)
        wall = time.perf_counter() - start
        for name, ok in self.workload.checks(outputs, self.seed):
            self.attempted += 1
            if not ok:
                self.failed_checks.append(name)
        return wall, trials


def measure(job, seconds, clock):
    """Repeat the job until the next one would overrun `seconds` (at least once).

    Returns (wall seconds, time scale, trials) per job.
    """
    deadline = time.perf_counter() + seconds
    walls = []
    while True:
        wall, trials = job()
        walls.append((wall, clock.scale(), trials))
        if time.perf_counter() + wall > deadline:
            return walls


def end_to_end(job, args, clock):
    setup_s = setup_seconds(args.workload, job.seed, clock)
    walls = measure(job, args.seconds, clock)
    return {
        "trials_per_s": statistics.median(t / (w * f) for w, f, t in walls),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passed_frac": 1.0 - len(job.failed_checks) / job.attempted,
    }, [w for w, _, _ in walls]


def per_layer(job, args, clock):
    metrics = import_seconds(args.workload, job.seed, clock)
    tracer = Tracer()
    untraced, traced, walls, scales = [], [], [], {}
    deadline = time.perf_counter() + args.seconds
    while True:
        if len(traced) < len(untraced):
            with tracer.installed():
                tracer.request += 1
                wall = job()[0]
            scales[tracer.request] = clock.scale()
            traced.append(wall * scales[tracer.request])
        else:
            wall = job()[0]
            untraced.append(wall * clock.scale())
        walls.append(wall)
        if traced and time.perf_counter() + wall > deadline:
            break

    totals = tracer.totals(scales)
    counts = tracer.counts
    trials = counts["rate.trials"]
    jobs = len(traced)

    def self_us(name):
        return totals.get(name, (0, 0, 0))[2] / 1e3 / trials

    def ratio(num, den):
        return counts[num] / counts[den] if counts[den] else 0.0

    for name in SELF_TIME_LAYERS:
        metrics[f"{name}.self_us_per_trial"] = self_us(name)
    calls, total_ns, _ = totals.get("bounds.lower_bound_rate", (0, 0, 0))
    metrics.update({
        "channel.sample_channel.bytes_per_trial": counts["channel.bytes"] / trials,
        "channel.bs_rows_used_ratio": ratio("channel.bs_entries_used",
                                            "channel.bs_entries_computed"),
        "estimation.cells_used_ratio": ratio("estimation.cells_used",
                                             "estimation.cells_computed"),
        "quantize.samples_per_trial": counts["quantize.samples"] / trials,
        "rate.pathological": counts["rate.pathological"] / jobs,
        "rng.substream.calls_per_trial": totals.get("rng.substream", (0,))[0] / trials,
        "bounds.lower_bound_rate.us_per_call": total_ns / 1e3 / calls if calls else 0.0,
        "sweep.run_sweep.self_s": totals.get("sweep.run_sweep", (0, 0, 0))[2] / 1e9 / jobs,
        "trace.overhead_frac": statistics.median(traced) / statistics.median(untraced) - 1.0,
        "trace.accounted_frac": sum(own for _, _, own in totals.values()) / 1e9 / sum(traced),
    })
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}.csv")
    return metrics, walls


def append_record(path, record):
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = json.loads(path.read_text()) if path.exists() else {"runs": []}
    doc["runs"].append(record)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc, indent=1) + "\n")
    os.replace(tmp, path)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "mmwsim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no mmwsim package under {SRC}; run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    threads_env = os.environ.pop(THREADS_ENV, None)
    sys.path.insert(0, str(SRC))
    import mmwsim
    from workloads import DEFAULT_SEED, WORKLOADS

    if not Path(mmwsim.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: imported mmwsim from {mmwsim.__file__}, not from {SRC}")
    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    seed = DEFAULT_SEED if args.seed is None else args.seed

    job = Job(WORKLOADS[args.workload], seed)
    clock = Clock(job.workload.kernel)
    values, walls = (per_layer if args.trace else end_to_end)(job, args, clock)
    section = spec["per_layer" if args.trace else "end_to_end"]
    if set(values) != {m["name"] for m in section}:
        raise RuntimeError(f"computed metrics {sorted(values)} differ from BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}
    failed = len(job.failed_checks)

    append_record(args.out, {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "provenance": provenance(seed, threads_env),
        "job_walls_s": walls, "kernel_s": clock.samples, "time_scales": clock.scales,
        "attempted": job.attempted, "failed": failed, "failed_frac": failed / job.attempted,
        "failed_checks": sorted(set(job.failed_checks)),
        "metrics": metrics,
    })
    width = max(len(name) for name in metrics)
    for name, m in metrics.items():
        print(f"{name:<{width}}  {m['value']:.6g} {m['unit']}")
    print(f"{'failed_frac':<{width}}  {failed / job.attempted:.6g} ({failed}/{job.attempted} checks)")
    for name in sorted(set(job.failed_checks)):
        print(f"FAILED: {name}")
    print(json.dumps({"correct": failed == 0, "attempted": job.attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
