import json
import math
import os
import pathlib
import subprocess
import sys

import mpmath
import numpy as np
import pytest

import mmwsim
from mmwsim.bounds import (EULER_GAMMA, _j0_pi_table, _triple_double_sum, asymptotic_limit,
                           bound_inputs, eta1, eta2, eta3, eta3_upper_bound,
                           exact_mean_abs2, exact_mean_inner, exact_mean_triple,
                           high_pilot_approx, low_snr_approx, lower_bound_rate)
from mmwsim.config import SystemConfig
from mmwsim.errors import ParameterError
from oracles import single_cell_bound


def _cfg(**kw):
    base = dict(L=3, K=4, N=64, M=2, adc_bits=1, p_t=1.0, p_p=4.0)
    base.update(kw)
    return SystemConfig(**base)


# _j0_pi_table, J0(n*pi) for n < N, is where the package evaluates Bessel J0

def test_bessel_j0_at_zero():
    assert _j0_pi_table(1)[0] == 1.0


def test_bessel_j0_at_pi():
    assert _j0_pi_table(2)[1] == pytest.approx(-0.3042421776, abs=1e-9)


def test_bessel_j0_against_series_oracle():
    xs = math.pi * np.arange(64)
    want = np.array([float(mpmath.besselj(0, float(x))) for x in xs])
    np.testing.assert_allclose(_j0_pi_table(64), want, atol=1e-10)


def test_bessel_j0_asymptotic_form():
    x = 32 * math.pi
    asym = math.sqrt(2.0 / (math.pi * x)) * math.cos(x - math.pi / 4)
    assert abs(_j0_pi_table(33)[32] - asym) < 1e-4


def test_euler_constant_precision():
    assert EULER_GAMMA == pytest.approx(float(mpmath.euler), abs=1e-15)


def test_eta_small_N_values():
    # N=1: the exact sums are exactly 1; the large-N forms sit nearby
    assert exact_mean_inner(1) == 1.0
    assert exact_mean_abs2(1) == 1.0
    assert exact_mean_triple(1) == 1.0
    assert eta1(1) == pytest.approx(1.0 + EULER_GAMMA / math.pi ** 2)
    assert eta1(1) == pytest.approx(1.0585, abs=1e-4)
    # N=4 (values from the high-precision series oracle)
    assert exact_mean_inner(4) == pytest.approx(1.173923, abs=1e-6)
    assert eta1(4) == pytest.approx(1.198945, abs=1e-6)
    with pytest.raises(ParameterError):
        eta1(0)
    with pytest.raises(ParameterError, match="N must be >= 1, got 0"):
        eta2(0)


def test_eta_closed_forms_track_exact_sums():
    for N in (64, 256, 1024):
        assert eta1(N) == pytest.approx(exact_mean_inner(N), rel=0.02)
        assert eta2(N) == pytest.approx(exact_mean_abs2(N), rel=0.02)
    assert eta3(256) == pytest.approx(exact_mean_triple(256), rel=0.10)


def test_eta3_upper_bound_property():
    for N in (2, 16, 256, 4096):
        assert eta3(N) <= eta3_upper_bound(N) + 1e-9
    # and the normalized constants vanish
    ns = np.array([10 ** 2, 10 ** 3, 10 ** 4])
    vals = np.array([eta3(int(n)) / n ** 2 for n in ns])
    assert np.all(np.diff(vals) < 0)
    assert vals[-1] < 1e-6


def test_eta3_switches_to_bound_for_huge_N():
    n = 2 * 10 ** 5
    assert eta3(n) == pytest.approx(eta3_upper_bound(n))


def _loop_triple_double_sum(N):
    # the definition, term by term
    b = [float(mpmath.besselj(0, n * mpmath.pi)) for n in range(N)]
    return sum(b[m] * b[n] * b[n + m] for m in range(1, N) for n in range(N - m))


def _convolve_triple_double_sum(N):
    b = _j0_pi_table(N)
    conv = np.convolve(b, b)[:N]
    return float(np.sum(b[1:] * (conv[1:] - b[0] * b[1:])))


@pytest.mark.parametrize("N", [2, 3, 5, 12, 40])
def test_triple_double_sum_matches_definition(N):
    assert _triple_double_sum(N) == pytest.approx(_loop_triple_double_sum(N),
                                                  rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("N", [2, 3, 17, 64, 333, 1024, 2047, 2048])
def test_triple_double_sum_matches_direct_convolution(N):
    assert _triple_double_sum(N) == pytest.approx(_convolve_triple_double_sum(N), rel=1e-13)


def test_triple_double_sum_at_largest_exact_N():
    # the value the former scipy.signal.fftconvolve path gave at N = 10^5
    assert _triple_double_sum(10 ** 5) == pytest.approx(63.91434178683845, rel=1e-12)
    assert _triple_double_sum(1) == 0.0


def test_package_import_loads_only_scipy_special():
    # a fresh interpreter, so that no other test's imports count
    src = pathlib.Path(mmwsim.__file__).resolve().parents[1]
    code = ("import json, sys, mmwsim, mmwsim.cli\n"
            "print(json.dumps(sorted(name for name, mod in list(sys.modules.items())\n"
            "    if name.count('.') == 1 and name.startswith('scipy.')\n"
            "    and not name.split('.')[1].startswith('_') and hasattr(mod, '__path__'))))")
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    assert json.loads(proc.stdout) == ["scipy.special"]


def test_gain_floor_value():
    cfg = _cfg(M=2, B=6)
    c = bound_inputs(cfg).c
    assert c == pytest.approx(math.sqrt(2) * math.sin(math.pi ** 2 / 128) / (math.pi ** 2 / 128))
    assert c ** 4 == pytest.approx(3.9842, abs=2e-4)


def test_bound_inputs_invariants():
    cfg = _cfg()
    iv = bound_inputs(cfg)
    assert 0.0 < iv.c <= math.sqrt(cfg.M)
    assert iv.lam >= iv.c ** 2
    assert iv.mu > 0.0
    assert iv.eta1 >= 1.0
    assert iv.eta2 >= cfg.N * (1.0 - 2.0 / math.pi ** 2)
    assert iv.eta3 > 0.0


def test_lower_bound_regression_value():
    # frozen from an independent term-by-term evaluation
    rep = lower_bound_rate(_cfg())
    assert rep.R_LB == pytest.approx(1.8800251355, abs=1e-9)


def test_lower_bound_single_cell_drops_terms():
    rep = lower_bound_rate(_cfg(L=1))
    assert rep.P_c == 0.0
    solo = lower_bound_rate(_cfg(L=1, K=1))
    assert solo.P_u == 0.0


def test_single_cell_bound_requires_L1():
    # the oracle's SNR form holds for a single cell only
    with pytest.raises(ParameterError):
        single_cell_bound(_cfg(L=3))


def test_single_cell_identity_on_grid():
    # the library's one bound formula, at L = 1, against the paper's SNR form
    for K in (1, 2, 8):
        for bits in (1, 3, 5):
            for p in (0.1, 1.0, 10.0):
                cfg = _cfg(L=1, K=K, adc_bits=bits, p_t=p, p_p=2 * p, tau=K + 1)
                rep = lower_bound_rate(cfg)
                assert rep.R_LB == pytest.approx(single_cell_bound(cfg), abs=1e-12)


def test_single_cell_saturates_with_quantization():
    rates = [lower_bound_rate(_cfg(L=1, adc_bits=3, p_t=p, p_p=p)).R_LB
             for p in (1e2, 1e4, 1e6, 1e8)]
    assert all(b >= a for a, b in zip(rates, rates[1:]))
    assert rates[-1] - rates[-2] < 1e-3  # quantization ceiling


def test_asymptotic_limit_values():
    rep = asymptotic_limit(_cfg(L=3, M=2, B=6))
    assert rep == pytest.approx(5.6668183253, abs=1e-8)
    assert asymptotic_limit(_cfg(L=1)) == math.inf
    # unit plug-in: L=2 with beta -> 1, M=1, c -> 1 approaches log2(2) = 1
    near = asymptotic_limit(_cfg(L=2, M=1, B=12, beta_inter=1 - 1e-9))
    assert near == pytest.approx(1.0, abs=1e-4)


def test_low_snr_approx_unit_case():
    xi1, rate = low_snr_approx(_cfg(rho_ad=0.0, N=1, M=1, p_p=1.0, p_t=1.0))
    assert xi1 == pytest.approx(1.0)
    assert rate == pytest.approx(1.0)


def test_low_snr_invariant_to_pilot_antenna_swap():
    a = low_snr_approx(_cfg(N=64, p_p=0.2))[0]
    b = low_snr_approx(_cfg(N=128, p_p=0.1))[0]
    assert a == pytest.approx(b)


def test_high_pilot_approx_limits():
    xi2, _ = high_pilot_approx(_cfg(rho_ad=0.0))
    assert xi2 == pytest.approx(64 * 2)
    # tau = K makes the factor collapse to (1-rho)^2 N M independent of K
    for K in (2, 8, 32):
        cfg = _cfg(K=K, adc_bits=3, tau=K, p_p=float(K))
        xi2, _ = high_pilot_approx(cfg)
        rho = cfg.rho
        assert xi2 == pytest.approx((1 - rho) ** 2 * 64 * 2)


def test_bound_monotone_on_lattice():
    def rlb(**kw):
        return lower_bound_rate(_cfg(**kw)).R_LB
    assert rlb(K=2) > rlb(K=4) > rlb(K=8)
    assert rlb(beta_inter=0.05) > rlb(beta_inter=0.1) > rlb(beta_inter=0.3)
    assert rlb(adc_bits=1) < rlb(adc_bits=2) < rlb(adc_bits=4)
    assert rlb(N=32) < rlb(N=64) < rlb(N=128)
    assert rlb(p_p=2.0) < rlb(p_p=4.0) < rlb(p_p=16.0)

