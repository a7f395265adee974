"""Scalar MMSE quantization and its linearized (gain + uncorrelated noise) model.

The analysis path only ever needs the distortion factor and the two noise
powers; the actual quantizer exists so the linearized model can be checked
empirically and so the rate engine has a fully-sampled mode.  The quantizer's
levels are fixed numbers, shipped as LEVELS_FILE.
"""

import math
from functools import lru_cache
from importlib import resources

import numpy as np

from .config import adc_bits_violation
from .errors import ParameterError

_SQRT_2PI = np.sqrt(2.0 * np.pi)

# The Lloyd-Max levels of depths 1-12, one depth after another (2^b levels
# from offset 2^b - 2).  tests/oracles.lloyd_max_design is the fixed-point
# design that made them, and tests/test_quantize.py regenerates every depth.
LEVELS_FILE = "lloyd_max_levels.npy"


def _norm_pdf(x):
    return np.exp(-0.5 * x * x) / _SQRT_2PI


@lru_cache(maxsize=None)
def _level_table():
    with resources.files("mmwsim").joinpath(LEVELS_FILE).open("rb") as fh:
        table = np.load(fh)
    table.setflags(write=False)
    return table


# typed: True and 3.0 must reach the check, not the cached designs for 1 and 3
@lru_cache(maxsize=None, typed=True)
def lloyd_max_design(bits):
    """Levels and thresholds of the MMSE quantizer for a unit-variance Gaussian.

    The levels are the `bits`-deep slice of LEVELS_FILE and the thresholds
    their midpoints.  Returns (levels, thresholds), both read-only since every
    caller shares them, with len(thresholds) == len(levels) - 1.
    """
    if error := adc_bits_violation(bits):
        raise ParameterError(error)
    levels = _level_table()[2 ** bits - 2:2 ** (bits + 1) - 2]
    thresholds = 0.5 * (levels[:-1] + levels[1:])
    thresholds.setflags(write=False)
    return levels, thresholds


def lloyd_max_distortion(bits):
    """MSE of the designed quantizer on a unit-variance Gaussian.

    Regenerates the value behind distortion_factor's frozen table.  Summed
    per cell from the Gaussian partial moments, so it is the MSE of the levels
    and thresholds as designed, also where the design stopped short of
    convergence.
    """
    levels, thresholds = lloyd_max_design(bits)
    # over cell (a, b]: P = Phi(b) - Phi(a) with Phi(t) = erfc(-t/sqrt(2))/2,
    # and the partial moments E[x; a < x <= b] = phi(a) - phi(b) and
    # E[x^2; a < x <= b] = P + a phi(a) - b phi(b), with their limits at the
    # +-inf edges
    pdf = _norm_pdf(thresholds)
    cdf = [0.5 * math.erfc(-t / math.sqrt(2.0)) for t in thresholds]
    prob = np.diff(np.concatenate(([0.0], cdf, [1.0])))
    m1 = -np.diff(np.concatenate(([0.0], pdf, [0.0])))
    m2 = prob - np.diff(np.concatenate(([0.0], thresholds * pdf, [0.0])))
    return float(np.sum(m2 - 2.0 * levels * m1 + levels ** 2 * prob))


# Depths up to this many bits count the thresholds below each sample; deeper
# ones search for them (lloyd_max_quantize).
_COUNT_BITS = 5


def quantizer_work(size):
    """Buffers lloyd_max_quantize can reuse for up to `size` complex samples.

    Per real component: the scaled input, the level index, a comparison mask
    and a gathered threshold, whose storage also holds the index increment
    or, at low depths, the byte count the index is taken from.
    """
    n = 2 * size
    return np.empty(n), np.empty(n, dtype=np.int64), np.empty(n, dtype=bool), np.empty(n)


def lloyd_max_quantize(samples, bits, input_variance, work=None, out=None):
    """Quantize complex samples with per-component Gaussian MMSE codebooks.

    Real and imaginary parts are quantized independently with the codebook
    matched to a Gaussian of variance input_variance / 2 per component, i.e.
    ideal automatic gain control.  `input_variance` is one variance for all
    samples or, as a 1-d array, one per row of their leading axis; each row
    then quantizes bit for bit as a call with its own variance.  Returns a
    complex128 array of the input's shape: `out` if given, a contiguous one
    that may be `samples` itself.  `work` is a quantizer_work for at least
    samples.size samples (fresh if None); the output does not depend on
    what it held.

    Each component's level index is the count of thresholds strictly below
    it, i.e. searchsorted(side="left"): up to _COUNT_BITS bits it is counted
    in bytes, one compare and one add per threshold, and deeper a branch-free
    binary search finds it, with a gather, compare, multiply and add per
    bit.  The levels are scaled before the gather, the same product of the
    same two doubles as scaling after it.
    """
    variance = np.asarray(input_variance, dtype=float)
    bad = ~(variance > 0)                              # NaN too; +inf passes
    if bad.any():
        raise ParameterError(f"input_variance must be > 0, got {variance[bad][0]}")
    levels, thresholds = lloyd_max_design(bits)
    samples = np.asarray(samples)
    if variance.ndim and variance.shape != samples.shape[:1]:
        raise ParameterError(f"input_variance of shape {variance.shape} needs one entry "
                             f"per row of samples of shape {samples.shape}")
    rows = variance.size
    scale = np.sqrt(variance / 2.0).reshape(rows, 1)
    n = 2 * samples.size
    x, idx, above, gathered = (w[:n] for w in work or quantizer_work(samples.size))
    # both components at once, as the interleaved float64 view of the samples
    components = np.ascontiguousarray(samples, dtype=complex).reshape(rows, -1).view(np.float64)
    np.divide(components, scale, out=x.reshape(rows, -1))
    if bits <= _COUNT_BITS:
        count = gathered.view(np.uint8)[:n]
        np.greater(x, thresholds[0], out=count.view(bool))
        for t in thresholds[1:]:
            count += np.greater(x, t, out=above).view(np.uint8)
        np.copyto(idx, count)
    else:
        step = 1 << (bits - 1)
        np.multiply(np.greater(x, thresholds[step - 1], out=above), step, out=idx)
        step >>= 1
        while step:
            np.greater(x, np.take(thresholds[step - 1:], idx, out=gathered, mode="clip"),
                       out=above)
            idx += np.multiply(above, step, out=gathered.view(np.int64))
            step >>= 1
    table = levels * scale                              # (rows, 2^bits)
    if rows > 1:                                        # row r gathers from table[r]
        row_idx = idx.reshape(rows, -1)
        row_idx += np.arange(0, table.size, len(levels))[:, None]
    if out is None:
        out = np.empty(samples.shape, dtype=complex)
    np.take(table.reshape(-1), idx, out=out.reshape(-1).view(np.float64), mode="clip")
    return out


def bussgang_decompose(pre_quant, post_quant):
    """Empirical gain / noise split of a quantizer run.

    Returns (gain, noise_var, crosscorr) where gain = Re E[q y*] / E|y|^2,
    the noise is q - gain*y, and crosscorr measures how decorrelated the
    noise is from the input (should be ~0 for an MMSE quantizer).
    """
    pre_quant = np.asarray(pre_quant).ravel()
    post_quant = np.asarray(post_quant).ravel()
    if pre_quant.shape != post_quant.shape:
        raise ParameterError(
            f"pre/post lengths differ: {pre_quant.shape} vs {post_quant.shape}"
        )
    power = np.mean(np.abs(pre_quant) ** 2)
    gain = float(np.mean(post_quant * pre_quant.conj()).real / power)
    noise = post_quant - gain * pre_quant
    noise_var = float(np.mean(np.abs(noise) ** 2))
    crosscorr = float(abs(np.mean(noise * pre_quant.conj())) / power)
    return gain, noise_var, crosscorr


def received_power(total, power):
    """1 + power * total: a BS antenna's received power in noise units, the ADC's input variance.

    `total` is the received gain sum_l sum_k beta_jlk |c_jlk|^2 (a scalar or
    an array of them) and `power` the per-symbol transmit power.
    """
    return 1.0 + power * total


def quant_noise_power(cfg, total, power):
    """rho(1-rho) * received_power(total, power) at a BS."""
    rho = cfg.rho
    return rho * (1.0 - rho) * received_power(total, power)
