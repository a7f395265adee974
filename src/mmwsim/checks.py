"""Self-validation suites behind the `validate` CLI subcommand.

Each suite re-measures a family of model properties (quantizer statistics,
steering-sum constants, bound behavior, rate engine sanity) and reports
machine-readable pass/fail lines with the measured values and tolerances.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import bounds, quantize
from .channel import dirichlet
from .config import SystemConfig, distortion_factor
from .rate import ergodic_rate
from .rng import complex_normal, substream
from .training import build_codebook, gain_lower_bound, _candidate_gains


@dataclass
class CheckResult:
    suite: str
    name: str
    passed: bool
    value: float
    tolerance: float
    detail: str = ""

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return (f"{status} {self.suite}/{self.name}: value={self.value:.6g} "
                f"tol={self.tolerance:.6g}{extra}")


def quantizer_suite():
    """Distortion table, linearized-model gain/noise, and residual decorrelation."""
    out = []
    rng = substream(1234, 0)
    y = complex_normal(rng, 10 ** 6, 1.0)
    power = np.mean(np.abs(y) ** 2)
    for b in range(1, 6):
        rho = distortion_factor(b)
        q = quantize.lloyd_max_quantize(y, b, 1.0)
        mse = np.mean(np.abs(q - y) ** 2) / power
        out.append(CheckResult(
            "quantizer", f"distortion_b{b}", abs(mse / rho - 1.0) < 0.01,
            float(mse), rho * 0.01, f"table={rho:.6g}"))
        gain, nvar, cross = quantize.bussgang_decompose(y, q)
        out.append(CheckResult(
            "quantizer", f"gain_b{b}", abs(gain / (1.0 - rho) - 1.0) < 0.01,
            gain, 0.01, f"model={1.0 - rho:.6g}"))
        out.append(CheckResult(
            "quantizer", f"crosscorr_b{b}", cross < 0.01, cross, 0.01))
        ratio = nvar / power
        target = rho * (1.0 - rho)
        out.append(CheckResult(
            "quantizer", f"noise_var_b{b}", abs(ratio / target - 1.0) < 0.02,
            float(ratio), target * 0.02, f"model={target:.6g}"))
    for b in range(1, 7):
        regen = quantize.lloyd_max_distortion(b)
        table = distortion_factor(b)
        out.append(CheckResult(
            "quantizer", f"table_regen_b{b}", abs(regen / table - 1.0) < 1e-4,
            regen, table * 1e-4, f"table={table:.6g}"))
    return out


def _steering_sum(N, d):
    """sum_n e^{j pi d n} over n < N, as e^{j(N-1)x} dirichlet(N, x) with x = pi d / 2."""
    x = (np.pi / 2) * d
    return np.exp(1j * (N - 1) * x) * dirichlet(N, x)


def _mc_inner_products(N, draws, rng):
    """h^H h' and the triple product over independent angle draws, chunked."""
    inner = np.empty(draws, dtype=complex)
    triple = np.empty(draws, dtype=complex)
    done = 0
    while done < draws:
        nb = min(20000, draws - done)
        th = rng.uniform(0.0, np.pi, size=(3, nb))
        e1 = _steering_sum(N, np.cos(th[0]) - np.cos(th[1]))
        e2 = _steering_sum(N, np.cos(th[1]) - np.cos(th[2]))
        inner[done:done + nb] = e1
        triple[done:done + nb] = e1 * e2
        done += nb
    return inner, triple


def lemmas_suite():
    """Monte-Carlo vs exact steering sums vs their large-N forms."""
    out = []
    draws = 10 ** 5
    for N in (16, 64, 256):
        rng = substream(77, N)
        inner, triple = _mc_inner_products(N, draws, rng)
        checks = [
            ("mean_inner", inner.real, bounds.exact_mean_inner(N)),
            ("mean_abs2", np.abs(inner) ** 2, bounds.exact_mean_abs2(N)),
            ("mean_triple", triple.real, bounds.exact_mean_triple(N)),
        ]
        for name, samp, exact in checks:
            se = np.std(samp, ddof=1) / math.sqrt(draws)
            dev = abs(np.mean(samp) - exact)
            out.append(CheckResult(
                "lemmas", f"{name}_mc_N{N}", dev < 3 * se, float(dev), float(3 * se),
                f"exact={exact:.6g}"))
    for name, exact_fn, eta_fn, tol in (
        ("eta1", bounds.exact_mean_inner, bounds.eta1, 0.02),
        ("eta2", bounds.exact_mean_abs2, bounds.eta2, 0.02),
        ("eta3", bounds.exact_mean_triple, bounds.eta3, 0.10),
    ):
        exact = exact_fn(256)
        approx = eta_fn(256)
        rel = abs(approx - exact) / exact
        out.append(CheckResult(
            "lemmas", f"{name}_closed_form_N256", rel < tol, float(rel), tol,
            f"exact={exact:.6g} closed={approx:.6g}"))
    return out


def bounds_suite():
    """Parameter monotonicity, limits, low-SNR convergence, and xi ordering."""
    out = []
    base = dict(K=4, N=64, M=2, adc_bits=3, p_t=0.1, p_p=1.0)

    def rlb(**kw):
        d = dict(L=3, **base)
        d.update(kw)
        return bounds.lower_bound_rate(SystemConfig(**d)).R_LB

    mono = [
        ("K", [1, 2, 4, 8], -1),
        ("beta_inter", [0.05, 0.1, 0.2, 0.4], -1),
        ("N", [16, 32, 64, 128], +1),
        ("p_p", [0.5, 1.0, 2.0, 4.0], +1),
        ("adc_bits", [1, 2, 3, 4], +1),
    ]
    for name, vals, sign in mono:
        seq = [rlb(**{name: v}) for v in vals]
        diffs = np.diff(seq) * sign
        out.append(CheckResult(
            "bounds", f"monotone_{name}", bool(np.all(diffs >= 0)),
            float(np.min(diffs)), 0.0, f"values={np.round(seq, 4).tolist()}"))

    # singling out the asymptotic limit
    cfg_inf = SystemConfig(L=3, K=4, N=64, M=2, adc_bits=1, p_t=1.0, p_p=4.0)
    ladder = [bounds.lower_bound_rate(SystemConfig(
        L=3, K=4, N=int(n), M=2, adc_bits=1, p_t=1.0, p_p=4.0)).R_LB
        for n in np.logspace(2, 7, 8)]
    r_inf = bounds.asymptotic_limit(cfg_inf)
    out.append(CheckResult(
        "bounds", "asymptotic_monotone", bool(np.all(np.diff(ladder) > 0)),
        float(np.min(np.diff(ladder))), 0.0))
    out.append(CheckResult(
        "bounds", "asymptotic_gap", abs(r_inf - ladder[-1]) < 0.2,
        abs(r_inf - ladder[-1]), 0.2, f"R_inf={r_inf:.4f}"))

    # low-SNR convergence of the single-cell bound to its xi1 approximation
    cfg_lo = SystemConfig(L=1, K=4, N=64, M=2, adc_bits=3, p_t=1e-3, p_p=1e-3)
    rep = bounds.lower_bound_rate(cfg_lo)
    rel = abs((2 ** rep.R_LB - 1) - rep.xi1 * cfg_lo.p_t) / (2 ** rep.R_LB - 1)
    out.append(CheckResult(
        "bounds", "low_snr_convergence", rel < 0.05, float(rel), 0.05))

    # xi2 >= xi1 in 1000 random single-cell configs with tau >= K and M*gamma_p <= 1
    rng = substream(99, 1)
    viol = 0
    for _ in range(1000):
        K = int(rng.integers(1, 17))
        M = int(2 ** rng.integers(0, 4))
        cfg = SystemConfig(
            L=1, K=K, tau=int(rng.integers(K, 2 * K + 8)), M=M,
            N=int(2 ** rng.integers(4, 10)), adc_bits=int(rng.integers(1, 13)),
            p_t=float(rng.uniform(1e-3, 0.1)),
            p_p=float(rng.uniform(1e-3, 1.0 / M)))
        viol += int(bounds.high_pilot_approx(cfg)[0] < bounds.low_snr_approx(cfg)[0])
    out.append(CheckResult("bounds", "xi_ordering_1000", viol == 0, viol, 0))
    return out


def rate_suite():
    """Bound validity, gain-bound sweep, and mode agreement at reduced scale."""
    out = []
    seed, trials = 11, 400
    for K in (2, 8):
        cfg = SystemConfig(
            L=3, K=K, N=64, M=2, adc_bits=1, p_t=1.0, p_p=float(K), seed=seed)
        rep = ergodic_rate(cfg, trials)
        lb = bounds.lower_bound_rate(cfg).R_LB
        out.append(CheckResult(
            "rate", f"bound_validity_K{K}", rep.rate_mc + rep.ci95 >= lb,
            rep.rate_mc - lb, -rep.ci95, f"rate={rep.rate_mc:.4f} lb={lb:.4f}"))

    # noiseless beam-selection gain |c| of the B=6 codebook on an angle grid
    # against its analytic bounds gain_lower_bound(M, B) <= |c| <= sqrt(M)
    B = 6
    cos_cb = np.cos(build_codebook(B))
    cos_grid = np.cos(np.linspace(0.0, np.pi, 10 ** 4))
    for M in (2, 4, 8):
        sel = _candidate_gains(cos_grid, cos_cb, M).max(axis=-1)
        worst, best = float(sel.min()), float(sel.max())
        lo = gain_lower_bound(M, B)
        ok = worst >= lo - 1e-12 and best <= math.sqrt(M) + 1e-12
        out.append(CheckResult(
            "rate", f"gain_bounds_M{M}", ok, worst, lo, f"max={best:.6f}"))

    cfg = SystemConfig(L=3, K=4, N=64, M=2, adc_bits=3, p_t=1.0, p_p=4.0, seed=seed)
    semi = ergodic_rate(cfg, trials)
    symb = ergodic_rate(cfg, trials, mode="symbol")
    rel = abs(semi.rate_mc - symb.rate_mc) / semi.rate_mc
    out.append(CheckResult(
        "rate", "mode_agreement_b3", rel < 0.03, float(rel), 0.03,
        f"semi={semi.rate_mc:.4f} symbol={symb.rate_mc:.4f}"))
    return out


SUITES = {
    "quantizer": quantizer_suite,
    "lemmas": lemmas_suite,
    "bounds": bounds_suite,
    "rate": rate_suite,
}

