import json
import math
import os
import pathlib
import subprocess
import sys

import mpmath
import numpy as np
import pytest
import scipy.special

import mmwsim
from mmwsim.bounds import (_J0_PI_HEAD, ETA3_EXACT_MAX_N, EULER_GAMMA, _j0_pi_table,
                           _triple_double_sum, asymptotic_limit, bound_inputs, eta1, eta2,
                           eta3, eta3_upper_bound, exact_mean_abs2, exact_mean_inner,
                           exact_mean_triple, high_pilot_approx, low_snr_approx,
                           lower_bound_rate)
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


def test_j0_table_follows_scipy_to_a_few_ulps():
    n = np.arange(ETA3_EXACT_MAX_N)
    want = scipy.special.j0(math.pi * n)
    got = _j0_pi_table(ETA3_EXACT_MAX_N)
    assert got.dtype == want.dtype and not got.flags.writeable
    np.testing.assert_array_equal(_J0_PI_HEAD, want[:len(_J0_PI_HEAD)])
    np.testing.assert_array_equal(_j0_pi_table(5), want[:5])
    assert np.max(np.abs(got - want) / np.spacing(np.abs(want))) <= 8


def _j0_at_rounded_phase(x):
    # J0 at the double x, with its phase x - pi/4 rounded to a double as cephes
    # and _j0_pi_table round it: J0 = sqrt(2/(pi x)) (P cos w - Q sin w) with
    # the modulus-phase functions P, Q of x taken exactly from J0 and Y0.
    # That rounding moves J0(n pi) by up to ~1e5 ulps at n = 10^5, alike for
    # both, so the exact J0(x) could not tell their arithmetic apart
    with mpmath.workdps(40):
        X = mpmath.mpf(x)
        chi = X - mpmath.pi / 4
        j, y = mpmath.besselj(0, X), mpmath.bessely(0, X)
        s = mpmath.sqrt(mpmath.pi * X / 2)
        p = s * (j * mpmath.cos(chi) + y * mpmath.sin(chi))
        q = s * (y * mpmath.cos(chi) - j * mpmath.sin(chi))
        w = mpmath.mpf(x - math.pi / 4)
        return mpmath.sqrt(2 / (mpmath.pi * X)) * (p * mpmath.cos(w) - q * mpmath.sin(w))


def test_j0_expansion_is_no_less_accurate_than_scipy():
    # errors in units of 2^-52 |J0| on a log grid of n from 16 to 10^5; the
    # two are within a few tenths of a unit at most points, either side
    table = _j0_pi_table(ETA3_EXACT_MAX_N)
    errors = []
    for n in np.geomspace(len(_J0_PI_HEAD), ETA3_EXACT_MAX_N - 1, 10).astype(int):
        x = math.pi * n
        want = _j0_at_rounded_phase(x)
        unit = float(abs(want)) * 2.0 ** -52
        errors.append((float(abs(table[n] - want)) / unit,
                       float(abs(scipy.special.j0(x) - want)) / unit))
    ours, theirs = np.array(errors).T
    assert np.all(ours <= 2.0)
    assert ours.max() <= theirs.max()


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
    for eta in (eta1, eta2):
        with pytest.raises(ParameterError, match="N must be >= 1, got nan"):
            eta(math.nan)


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


def test_package_runs_without_scipy():
    # a fresh interpreter, so that no other test's imports count: import the
    # package and its CLI, run the bound at both ends of the exact eta3 sums,
    # every quantizer design and a short symbol-mode run, and find no scipy
    src = pathlib.Path(mmwsim.__file__).resolve().parents[1]
    code = ("import json, sys, dataclasses, mmwsim, mmwsim.cli\n"
            "from mmwsim.bounds import ETA3_EXACT_MAX_N, lower_bound_rate\n"
            "from mmwsim.config import SystemConfig\n"
            "from mmwsim.quantize import lloyd_max_design\n"
            "cfg = SystemConfig(L=3, K=4, N=64, M=2, adc_bits=3, p_t=1.0, p_p=4.0)\n"
            "lower_bound_rate(cfg)\n"
            "lower_bound_rate(dataclasses.replace(cfg, N=ETA3_EXACT_MAX_N))\n"
            "for bits in range(1, 13):\n"
            "    lloyd_max_design(bits)\n"
            "mmwsim.ergodic_rate(cfg, 20, mode='symbol')\n"
            "print(json.dumps(sorted(name for name in sys.modules\n"
            "    if name == 'scipy' or name.startswith('scipy.'))))")
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    assert json.loads(proc.stdout) == []


def test_source_names_scipy_only_in_blas_symbols():
    # what `grep -rn scipy src/mmwsim` finds in a checkout: the two lines of
    # rate.py that name numpy's scipy_openblas entry points, and nothing else
    package = pathlib.Path(mmwsim.__file__).resolve().parent
    hits = [(path.relative_to(package).as_posix(), line)
            for path in sorted(package.rglob("*"))
            if path.is_file() and "__pycache__" not in path.parts
            for line in path.read_bytes().split(b"\n") if b"scipy" in line]
    assert [name for name, _ in hits] == ["rate.py"] * 2
    assert all(b"scipy_openblas" in line for _, line in hits)


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

