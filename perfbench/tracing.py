"""Span tracing from outside the package.

Each layer's public function is wrapped at the module attribute its caller
looks it up through (for example `mmwsim.rate.sample_channel`), so the
package itself is unchanged.  A span records name, start, end and parent;
spans stay in memory until the run writes them out.  Counter hooks read
work counts off the wrapped calls' arguments and results.
"""

import collections
import csv
import importlib
import time
from contextlib import contextmanager

import numpy as np


def _count_channel(counts, args, result):
    cfg = args[0]
    h_B, h_U = getattr(result, "h_B", None), getattr(result, "h_U", None)
    counts["channel.bytes"] += sum(a.nbytes for a in (h_B, h_U) if a is not None)
    # the rate is evaluated at BS 0 only, so of all BS-side steering entries
    # computed, L*K*N (BS 0's row) feed the result
    counts["channel.bs_entries_computed"] += 0 if h_B is None else h_B.size
    counts["channel.bs_entries_used"] += cfg.L * cfg.K * cfg.N


def _count_cells(counts, args, result):
    mu = result[1] if isinstance(result, tuple) else result.mu
    counts["estimation.cells_computed"] += len(mu)
    counts["estimation.cells_used"] += 1


def _count_samples(counts, args, result):
    counts["quantize.samples"] += np.size(args[0])


def _count_trials(counts, args, result):
    counts["rate.trials"] += result.trials
    counts["rate.pathological"] += result.pathological


# (span name, module its caller looks the function up in, attribute, counter hook)
SITES = (
    ("sweep.run_sweep", "mmwsim.sweep", "run_sweep", None),
    ("bounds.lower_bound_rate", "mmwsim.sweep", "lower_bound_rate", None),
    ("rate.ergodic_rate", "mmwsim.sweep", "ergodic_rate", _count_trials),
    ("rate.ergodic_rate", "mmwsim.rate", "ergodic_rate", _count_trials),
    ("channel.sample_channel", "mmwsim.rate", "sample_channel", _count_channel),
    ("training.train_beams", "mmwsim.rate", "train_beams", None),
    ("estimation.pilot_statistics", "mmwsim.rate", "pilot_statistics", _count_cells),
    ("estimation.estimate_all", "mmwsim.rate", "estimate_all", _count_cells),
    ("estimation.pilot_statistics", "mmwsim.estimation", "pilot_statistics", None),
    ("quantize.lloyd_max_quantize", "mmwsim.rate", "lloyd_max_quantize", _count_samples),
    ("quantize.lloyd_max_quantize", "mmwsim.estimation", "lloyd_max_quantize", _count_samples),
    ("quantize.quant_noise_power_data", "mmwsim.rate", "quant_noise_power_data", None),
    ("rng.substream", "mmwsim.rng", "substream", None),
)


class Tracer:
    """In-memory span recorder.

    `spans` holds (request, name, start_ns, end_ns, parent) tuples, where
    parent is the index of the enclosing span or -1; `request` numbers the
    job a span belongs to.
    """

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.request = 0
        self._stack = []

    def _wrap(self, name, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[idx] = (self.request, name, start, end, parent)
            if hook is not None:
                hook(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every site for the duration of the block, then restore the originals.

        A site whose attribute no longer exists is skipped, so its metrics
        read zero instead of the run failing.
        """
        saved = []
        try:
            for name, module, attr, hook in SITES:
                mod = importlib.import_module(module)
                if hasattr(mod, attr):
                    original = getattr(mod, attr)
                    saved.append((mod, attr, original))
                    setattr(mod, attr, self._wrap(name, original, hook))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def totals(self, scales=None):
        """{name: (calls, total_ns, self_ns)}; self time excludes child spans.

        `scales` maps a request to the factor its times are multiplied by.
        """
        scales = scales or {}
        child_ns = [0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {}
        for (request, name, start, end, _), child in zip(self.spans, child_ns):
            f = scales.get(request, 1.0)
            calls, total, own = out.get(name, (0, 0, 0))
            out[name] = (calls + 1, total + f * (end - start), own + f * (end - start - child))
        return out

    def write(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("request", "name", "start_ns", "end_ns", "parent"))
            w.writerows(self.spans)
