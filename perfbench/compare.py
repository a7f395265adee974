"""Compare two benchmark result files metric by metric.

    python3 perfbench/compare.py BASE.json NEW.json

Each file holds the runs that perfbench/run.py appended to it (its --out).
For every workload in both files this prints one row: each end-to-end
metric (from untraced runs) and each per-layer metric (from traced runs) as
`name=base->new xRATIO`, with medians over runs and RATIO = new / base.

A `?` after a ratio marks it unresolved: a side has fewer than two runs, or
a side's run-to-run spread (quartile distance over median) is wider than the
metric's bound in BENCHMARK.json.  Per-layer metrics have no bound, so for
them the spread is held against the change itself, |RATIO - 1|.
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _values(doc, trace):
    """{workload: {metric: [value per run]}} for runs with the given trace flag."""
    out = {}
    for run in doc["runs"]:
        if run["trace"] != trace:
            continue
        per = out.setdefault(run["workload"], {})
        for name, m in run["metrics"].items():
            per.setdefault(name, []).append(m["value"])
    return out


def spread(values):
    """Quartile distance over median, or None with fewer than two values."""
    if len(values) < 2:
        return None
    q1, med, q3 = statistics.quantiles(values, n=4)
    if med == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(med)


def _ratio(base, new):
    if base == 0:
        return 1.0 if new == 0 else float("inf")
    return new / base


def compare(doc_a, doc_b, bench):
    """[(workload, [(metric, base, new, ratio, unresolved)])] for workloads in both."""
    sections = ((0, bench["end_to_end"]), (1, bench["per_layer"]))
    rows = {}
    for trace, metrics in sections:
        a, b = _values(doc_a, trace), _values(doc_b, trace)
        for workload in sorted(set(a) & set(b)):
            cells = rows.setdefault(workload, [])
            for m in metrics:
                va, vb = a[workload].get(m["name"]), b[workload].get(m["name"])
                if not va or not vb:
                    continue
                base, new = statistics.median(va), statistics.median(vb)
                ratio = _ratio(base, new)
                limit = m.get("bound", abs(ratio - 1.0))
                spreads = (spread(va), spread(vb))
                unresolved = any(s is None or s > limit for s in spreads)
                cells.append((m["name"], base, new, ratio, unresolved))
    return sorted(rows.items())


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit("usage: compare.py BASE.json NEW.json")
    bench = json.loads(BENCHMARK.read_text())
    doc_a, doc_b = (json.loads(Path(p).read_text()) for p in argv)
    rows = compare(doc_a, doc_b, bench)
    if not rows:
        sys.exit("compare: the two files share no workload")
    print(f"base {argv[0]} -> new {argv[1]}; ratio = new/base median; ? = unresolved")
    for workload, cells in rows:
        tokens = [f"{name}={base:.4g}->{new:.4g} x{ratio:.3f}{'?' if unresolved else ''}"
                  for name, base, new, ratio, unresolved in cells]
        print(workload + "  " + "  ".join(tokens))


if __name__ == "__main__":
    main()
