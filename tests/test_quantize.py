import re

import numpy as np
import pytest

from mmwsim.config import SystemConfig, distortion_factor
from mmwsim.errors import ConfigError, ParameterError
from mmwsim.quantize import (bussgang_decompose, lloyd_max_design, lloyd_max_distortion,
                             lloyd_max_quantize, quant_noise_power, quantizer_work,
                             received_power)
import oracles


@pytest.fixture(scope="module")
def gaussian_samples():
    rng = np.random.default_rng(42)
    n = 10 ** 6
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)


@pytest.mark.parametrize("bits", range(1, 13))
def test_shipped_levels_are_the_fixed_point_design(bits):
    """The shipped levels and their midpoints equal the oracle's design bit for bit.

    After a change to the design, rewrite the level file from the repository root with
    PYTHONPATH=src:tests python -c "import numpy as np, oracles; np.save('src/mmwsim/lloyd_max_levels.npy', oracles.lloyd_max_level_table())"
    """
    for got, want in zip(lloyd_max_design(bits), oracles.lloyd_max_design(bits)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_designs_are_read_only():
    # every caller shares the cached arrays, and the levels of all depths
    # are slices of one table
    for bits in (1, 3, 12):
        for array in lloyd_max_design(bits):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0


def test_one_bit_levels_are_sign_times_two_over_pi():
    levels, thresholds = lloyd_max_design(1)
    assert levels == pytest.approx([-np.sqrt(2 / np.pi), np.sqrt(2 / np.pi)])
    assert thresholds == pytest.approx([0.0])


def test_one_bit_quantizer_closed_form(gaussian_samples):
    z = gaussian_samples[:1000]
    q = lloyd_max_quantize(z, 1, 1.0)
    expect = np.sqrt(1.0 / np.pi) * (np.sign(z.real) + 1j * np.sign(z.imag))
    np.testing.assert_allclose(q, expect, rtol=1e-12)


def test_high_resolution_is_nearly_identity(gaussian_samples):
    # oracle-measured quantiles of the relative error at 12 bits
    z = gaussian_samples[:200000]
    q = lloyd_max_quantize(z, 12, 1.0)
    rel = np.abs(q - z) / np.abs(z)
    assert np.median(rel) < 5e-4
    assert np.quantile(rel, 0.90) < 2e-3
    assert np.quantile(rel, 0.99) < 5e-3


def test_zero_input_snaps_to_innermost_level():
    q = lloyd_max_quantize(np.zeros(4, dtype=complex), 3, 2.0)
    levels, _ = lloyd_max_design(3)
    inner = np.sqrt(1.0) * levels[len(levels) // 2 - 1]
    np.testing.assert_allclose(q, np.full(4, inner + 1j * inner))


def test_quantize_rejects_bad_args():
    with pytest.raises(ParameterError):
        lloyd_max_quantize(np.ones(4, dtype=complex), 0, 1.0)
    with pytest.raises(ParameterError):
        lloyd_max_quantize(np.ones(4, dtype=complex), 3, 0.0)
    with pytest.raises(ParameterError, match="input_variance must be > 0, got nan"):
        lloyd_max_quantize(np.ones(4, dtype=complex), 2, float("nan"))


@pytest.mark.parametrize("bits", [1.5, 3.0, True, 0, 13])
def test_adc_bits_rule_is_the_same_everywhere(bits):
    # cache the designs whose keys equal True and 3.0
    lloyd_max_design(1), lloyd_max_design(3)
    message = f"adc_bits must be an integer in [1, 12], got {bits!r}"
    with pytest.raises(ConfigError) as err:
        SystemConfig(adc_bits=bits)
    assert err.value.errors == [message]
    for call in (distortion_factor, lloyd_max_design,
                 lambda b: lloyd_max_quantize(np.ones(4, dtype=complex), b, 1.0)):
        with pytest.raises(ParameterError, match=re.escape(message)):
            call(bits)


@pytest.mark.parametrize("bits", range(1, 13))
def test_distortion_of_the_design_matches_the_table(bits):
    # from 7 bits the design stops at its iteration budget; from 10 bits that
    # leaves it 6e-4 to 3e-3 off the converged table value
    assert lloyd_max_distortion(bits) == pytest.approx(
        distortion_factor(bits), rel=1e-4 if bits <= 9 else 3e-3)


def _searchsorted_quantize(samples, bits, input_variance):
    # the per-component searchsorted formula the quantizer must reproduce
    levels, thresholds = lloyd_max_design(bits)
    scale = np.sqrt(input_variance / 2.0)
    samples = np.asarray(samples)
    re = levels[np.searchsorted(thresholds, samples.real / scale)]
    im = levels[np.searchsorted(thresholds, samples.imag / scale)]
    return scale * (re + 1j * im)


def _assert_bit_equal(got, want):
    assert got.dtype == np.complex128 and got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.float64), want.view(np.float64))


@pytest.mark.parametrize("bits", range(1, 13))
def test_quantizer_matches_searchsorted_oracle(bits):
    rng = np.random.default_rng(100 + bits)
    z = 1.7 * (rng.standard_normal((64, 33)) + 1j * rng.standard_normal((64, 33)))
    _assert_bit_equal(lloyd_max_quantize(z, bits, 3.1), _searchsorted_quantize(z, bits, 3.1))
    # a strided (non-contiguous) view quantizes the same
    _assert_bit_equal(lloyd_max_quantize(z[:, ::2], bits, 0.4),
                      _searchsorted_quantize(z[:, ::2], bits, 0.4))
    # real-valued input: imaginary parts quantize as zeros
    x = rng.standard_normal(257)
    _assert_bit_equal(lloyd_max_quantize(x, bits, 2.0), _searchsorted_quantize(x, bits, 2.0))
    # one set of reused buffers, every byte set before each use, also for
    # fewer samples than it holds; the output may overwrite the samples
    work = quantizer_work(z.size)
    for samples in (z, z[:5], z[:, ::2]):
        for buf in work:
            buf.view(np.uint8).fill(0xFF)
        inplace = samples.copy(order="C")
        want = _searchsorted_quantize(inplace, bits, 3.1)
        assert lloyd_max_quantize(inplace, bits, 3.1, work, out=inplace) is inplace
        _assert_bit_equal(inplace, want)


@pytest.mark.parametrize("bits", range(1, 13))
def test_quantizer_ties_at_thresholds_match_oracle(bits):
    # input_variance = 2 makes the scale exactly 1, so these samples sit on the
    # thresholds and a neighbour of each; ties must resolve as searchsorted does
    _, thresholds = lloyd_max_design(bits)
    edge = np.concatenate((thresholds, np.nextafter(thresholds, np.inf),
                           np.nextafter(thresholds, -np.inf), [-50.0, 0.0, 50.0]))
    z = edge + 1j * edge[::-1]
    _assert_bit_equal(lloyd_max_quantize(z, bits, 2.0), _searchsorted_quantize(z, bits, 2.0))


@pytest.mark.parametrize("bits", range(1, 13))
def test_quantizer_takes_one_variance_per_row(bits):
    # a (T, 2, n) array with T variances quantizes bit for bit as T calls
    # with one variance each; rows 0 and 3 hold the threshold ties of
    # test_quantizer_ties_at_thresholds_match_oracle at scale 1
    rng = np.random.default_rng(200 + bits)
    _, thresholds = lloyd_max_design(bits)
    edge = np.concatenate((thresholds, np.nextafter(thresholds, np.inf),
                           np.nextafter(thresholds, -np.inf), [-50.0, 0.0, 50.0]))
    shape = (5, 2, edge.size)
    z = 1.7 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    z[0, 0] = edge + 1j * edge[::-1]
    z[3, 1] = edge[::-1] + 1j * edge
    variances = np.array([2.0, 3.1, 0.4, 2.0, 17.0])
    want = np.stack([lloyd_max_quantize(row, bits, v) for row, v in zip(z, variances)])
    _assert_bit_equal(lloyd_max_quantize(z, bits, variances), want)
    _assert_bit_equal(lloyd_max_quantize(z[:1], bits, variances[:1]), want[:1])
    # the same in one set of dirtied buffers, overwriting the samples
    work = quantizer_work(z.size)
    for buf in work:
        buf.view(np.uint8).fill(0xFF)
    inplace = z.copy()
    assert lloyd_max_quantize(inplace, bits, variances, work, out=inplace) is inplace
    _assert_bit_equal(inplace, want)


def test_quantize_rejects_bad_row_variances():
    z = np.ones((3, 4), dtype=complex)
    for bad, shown in ((0.0, "0.0"), (float("nan"), "nan"), (-1.0, "-1.0")):
        with pytest.raises(ParameterError, match=f"input_variance must be > 0, got {shown}$"):
            lloyd_max_quantize(z, 2, np.array([1.0, bad, 2.0]))
    for shape in ((4,), (2,), (3, 1)):
        with pytest.raises(ParameterError, match="one entry per row"):
            lloyd_max_quantize(z, 2, np.ones(shape))


def test_decompose_identity_limit(gaussian_samples):
    z = gaussian_samples[:100000]
    q = lloyd_max_quantize(z, 12, 1.0)
    gain, noise_var, _ = bussgang_decompose(z, q)
    assert gain == pytest.approx(1.0, abs=1e-3)
    assert noise_var < 1e-3


def test_decompose_length_mismatch():
    with pytest.raises(ParameterError):
        bussgang_decompose(np.ones(8), np.ones(9))


def test_noise_power_single_user_hand_value():
    # one own-cell user at unit gain with |c|^2 = M: the received gain is M,
    # so an antenna receives the noise power 0.7 plus M times the per-symbol
    # power, in noise units; the next test pins quant_noise_power's rho share of it
    M = 4
    cfg = SystemConfig(L=1, K=1, M=M, adc_bits=2, p_t=3.0 / 0.7, p_p=6.0 / 0.7, tau=2)
    assert received_power(float(M), cfg.p_t) == pytest.approx((0.7 + 3.0 * M) / 0.7)
    assert received_power(float(M), cfg.p_p / cfg.tau) == pytest.approx((0.7 + 6.0 / 2 * M) / 0.7)


def test_noise_power_is_rho_share_of_received_power():
    cfg = SystemConfig(L=3, K=4, adc_bits=2)
    totals = np.random.default_rng(5).uniform(0.0, 10.0, 257)
    rho = cfg.rho
    assert np.array_equal(quant_noise_power(cfg, totals, 0.3 / 0.7),
                          rho * (1.0 - rho) * received_power(totals, 0.3 / 0.7))
