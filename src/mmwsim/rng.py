"""Deterministic RNG substreams.

Every stochastic stage draws from a stream keyed by (seed, trial, stage), so
results do not depend on how trials are grouped into blocks.  The engine
builds one seeder per (seed, stage) and run (`streams`), which takes the
seed's hash pool from numpy's own SeedSequence and seeds a block's streams
in one vectorized pass; `substream` is the reference it matches bit for bit.
"""

import numpy as np

# Stage indices within one trial; beam training draws nothing, and 1 is unused.
STAGE_CHANNEL = 0
STAGE_PILOT = 2
STAGE_DATA = 3

# numpy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier.
_M32, _M128 = (1 << 32) - 1, (1 << 128) - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _PCG_MULT = 0xCA01F9DD, 0x4973F715, 0x2360ED051FC65DA44385DF649FCCF645


def substream(seed, *key):
    """Generator for the substream identified by `key` under `seed`."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


def _keys(init, mult, start, count):
    """SeedSequence's hash keys start, ..., start + count - 1 as (count, 1) uint32
    columns of xors and multipliers: key i xors with init * mult^i and
    multiplies by init * mult^(i+1), mod 2^32."""
    consts = [init * pow(mult, i, 1 << 32) & _M32 for i in range(start, start + count + 1)]
    return np.array([consts[:-1], consts[1:]], dtype=np.uint32)[..., None]


def _hashmix(value, xor, mult):
    """SeedSequence's hashmix; ints stay masked ints, uint32 arrays wrap."""
    value = (value ^ xor) * mult & _M32
    return value ^ value >> 16


def _mix(x, y):
    r = (_MIX_L * x & _M32) - (_MIX_R * y & _M32) & _M32
    return r ^ r >> 16


def streams(seed, stage):
    """Return a function that yields, per trial in its argument, a Generator
    bit-identical to substream(seed, trial, stage).

    SeedSequence(seed).pool is the seed's part of SeedSequence's hash, which
    spent 4 * max(4, w) hash keys on the seed's w 32-bit words; the trial's
    word and the stage's, the only words spawn_key adds, are mixed into that
    pool with the keys that follow.  The stage's word is hashed here once;
    each call hashes its trials as one uint32 array.  One reused Generator
    per call is set to each trial's PCG64 state in turn: use it before
    taking the next.  Trials and the stage lie in [0, 2^32).
    """
    seed, stage = int(seed), int(stage)
    message = "streams takes a seed >= 0, and trials and a stage in [0, 2^32)"
    if seed < 0 or not 0 <= stage <= _M32:
        raise ValueError(message)
    pool = np.random.SeedSequence(seed).pool[:, None]
    start = 4 * max(4, -(-seed.bit_length() // 32))
    trial_keys = _keys(_INIT_A, _MULT_A, start, 4)
    stage_word = _hashmix(stage, *_keys(_INIT_A, _MULT_A, start + 4, 4))
    generate_keys = _keys(_INIT_B, _MULT_B, 0, 8)

    def per_trial(trials):
        trials = list(trials)
        if not 0 <= min(trials, default=0) <= max(trials, default=0) <= _M32:
            raise ValueError(message)
        mixed = _mix(_mix(pool, _hashmix(np.array(trials, dtype=np.uint32), *trial_keys)),
                     stage_word)
        generated = np.ascontiguousarray(_hashmix(np.tile(mixed, (2, 1)), *generate_keys).T, "<u4")
        gen = np.random.default_rng(0)
        for s_hi, s_lo, i_hi, i_lo in generated.view("<u8").tolist():
            inc = (i_hi << 65 | i_lo << 1 | 1) & _M128     # PCG64's seeding: two LCG steps
            state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _M128
            gen.bit_generator.state = {"bit_generator": "PCG64",
                                       "state": {"state": state, "inc": inc},
                                       "has_uint32": 0, "uinteger": 0}
            yield gen

    return per_trial


def complex_normal(rng, shape, variance, out=None, scratch=None):
    """Circularly-symmetric complex Gaussian with the given per-entry variance.

    Real parts are drawn before imaginary parts; a zero variance draws
    nothing.  `out`, if given, is the contiguous complex128 array of `shape`
    to fill, and `scratch` a float64 array of at least its size that takes
    the draws (fresh if None).
    """
    if out is None:
        out = np.empty(shape, dtype=complex)
    if variance == 0.0:
        out.fill(0.0)
        return out
    draws = (np.empty(out.size) if scratch is None else scratch[:out.size]).reshape(out.shape)
    out.real = rng.standard_normal(out=draws)
    out.imag = rng.standard_normal(out=draws)
    parts = out.reshape(-1).view(float)      # re, im interleaved
    parts *= np.sqrt(variance / 2.0)
    return out
