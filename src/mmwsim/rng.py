"""Deterministic RNG substreams.

Every stochastic stage draws from a stream keyed by (seed, trial, stage), so
results do not depend on how trials are grouped into blocks.
"""

import numpy as np

# Stage indices within one trial; beam training draws nothing, and 1 is unused.
STAGE_CHANNEL = 0
STAGE_PILOT = 2
STAGE_DATA = 3


def substream(seed, *key):
    """Generator for the substream identified by `key` under `seed`."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


def complex_normal(rng, shape, variance):
    """Circularly-symmetric complex Gaussian with the given per-entry variance.

    Real parts are drawn before imaginary parts; a zero variance draws nothing.
    """
    if variance == 0.0:
        return np.zeros(shape, dtype=complex)
    out = np.empty(shape, dtype=complex)
    out.real = rng.standard_normal(shape)
    out.imag = rng.standard_normal(shape)
    parts = out.reshape(-1).view(float)      # re, im interleaved
    parts *= np.sqrt(variance / 2.0)
    return out
