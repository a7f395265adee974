"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

These are criteria 1, 2, 8 and 9, the full-size claims.  Criteria 1 and 8
check the paper's claims where the paper makes them: the bound tightens in
K in the absolute gap and in the SIQNR-denominator ratio (the relative gap
widens through Jensen's inequality on the simulated side), and the K-free
xi1 law is checked at a data SNR whose regime condition the test itself
asserts.  Criteria 3-7 (xi ordering, the large-N limit, the steering-sum
lemmas, the quantizer model and the analog-gain bounds) are the `bounds`,
`lemmas`, `quantizer` and `rate` checks of `mmwsim validate`, which
tests/golden/validate.txt runs in tier-1.  One more test states where
R_LB is no bound on the real quantizer's rate.
"""

import dataclasses
import time

import numpy as np

from mmwsim.bounds import bound_inputs, log_rate, low_snr_approx, lower_bound_rate
from mmwsim.config import SystemConfig, config_from_dict
from mmwsim.rate import ergodic_rate
from mmwsim.sweep import _point_config, load_preset


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def _sweep_points(spec):
    """(cfg, RateReport) for every point of `spec`, in run_sweep's order."""
    for curve in spec.curves:
        for value in spec.values:
            cfg = _point_config(spec, curve, value, {})
            yield cfg, ergodic_rate(cfg, spec.trials, mode=spec.mode)


def test_criterion_1_bound_validity_and_gap_direction():
    t0 = time.time()
    spec = load_preset("fig2")
    rate, ci, lb, ratio, jensen = {}, {}, {}, {}, {}
    for cfg, mc in _sweep_points(spec):
        k = cfg.K
        rate[k], ci[k] = mc.rate_mc, mc.ci95
        lb[k] = lower_bound_rate(cfg).R_LB
        # the closed form bounds mean(I/S) from above: 1/gamma_LB >= mean(I/S)
        mean_is = float(np.mean(mc.I / mc.S))
        ratio[k] = 1.0 / (2.0 ** lb[k] - 1.0) / mean_is
        jensen[k] = rate[k] - log_rate(1.0 + 1.0 / mean_is)
    elapsed = time.time() - t0
    ks = sorted(rate)
    valid = all(rate[k] + ci[k] >= lb[k] for k in ks)
    absgap = {k: rate[k] - lb[k] for k in ks}
    relgap = {k: absgap[k] / rate[k] for k in ks}
    # each step down in the absolute gap must clear both points' CI
    abs_tightens = all(absgap[a] - absgap[b] > ci[a] + ci[b]
                       for a, b in zip(ks, ks[1:]))
    # steps between neighbouring K are within Monte-Carlo error of mean(I/S)
    # at large K, so only the ends are compared
    ratio_ok = all(ratio[k] >= 1.0 for k in ks) and ratio[ks[-1]] < ratio[ks[0]]
    ok = valid and abs_tightens and ratio_ok and elapsed < 180
    per_k = "; ".join(
        f"K={k}: gap {absgap[k]:.3f} (ci {ci[k]:.3f}) = jensen {jensen[k]:.3f}"
        f" + closed-form {absgap[k] - jensen[k]:.3f} bits, rel {relgap[k]:.3f},"
        f" r_K {ratio[k]:.3f}"
        for k in ks
    )
    detail = (
        f"validity={valid}; absolute gap tightens beyond CI={abs_tightens}; "
        f"denominator ratio >= 1 and shrinks={ratio_ok}; {per_k}; {elapsed:.0f}s"
    )
    _report(1, ok, detail)
    assert valid, f"simulated rate fell below the bound: {detail}"
    assert elapsed < 180, detail
    # The relative gap widens with K on this preset (0.20 -> 0.28) and is only
    # printed.  Its growth is the Jensen part rate_mc - log(1 + 1/mean(I/S)):
    # the Dirichlet-kernel interference |h^H h'|^2 at N=64 is heavy-tailed and
    # concentrates slowly in K.  The closed-form part stays a near-constant
    # share of the rate, and at L=1, M=1, where the bound prices nothing at a
    # ceiling, the relative gap still widens while the closed-form part is
    # ~0.  The bound's tightening shows in the absolute gap and in r_K.
    assert abs_tightens, f"absolute gap did not shrink beyond CI in K: {detail}"
    assert ratio_ok, f"SIQNR-denominator ratio out of order: {detail}"


def test_criterion_2_adc_antenna_tradeoff():
    g_t, g_p = 10.0 ** -2.0, 10.0 ** -1.0
    ratios, diffs = [], []
    for n1, n5 in ((80, 32), (160, 64), (240, 96)):
        c1 = SystemConfig(L=1, K=4, N=n1, M=2, adc_bits=1, p_t=g_t, p_p=g_p)
        c5 = SystemConfig(L=1, K=4, N=n5, M=2, adc_bits=5, p_t=g_t, p_p=g_p)
        xi_a, r_a = low_snr_approx(c1)
        xi_b, r_b = low_snr_approx(c5)
        ratios.append(xi_a / xi_b)
        diffs.append(abs(r_a - r_b))
    # (1 - rho_1)^2 N_1 / ((1 - rho_5)^2 N_5) at N_1 / N_5 = 2.5
    ok = all(abs(r - 1.018306) <= 1e-5 for r in ratios) and all(d < 0.05 for d in diffs)
    _report(2, ok, f"xi1 ratios={np.round(ratios, 6).tolist()} "
                   f"rate diffs={np.round(diffs, 4).tolist()} bits")
    assert ok


def _pilot_curves(spec):
    """Low- and high-pilot rates in K order, and lambda * data SNR per K."""
    low, high, lam_gt = [], [], {}
    for cfg, mc in _sweep_points(spec):
        (low if cfg.pilot_snr_db < 0 else high).append(mc.rate_mc)
        lam_gt[cfg.K] = bound_inputs(cfg).lam * cfg.p_t
    return low, high, lam_gt


def _spread(rates):
    return (max(rates) - min(rates)) / max(rates)


def test_criterion_8_pilot_power_user_scaling():
    t0 = time.time()
    spec = load_preset("fig9")
    low, high, lam_gt = _pilot_curves(spec)
    elapsed = time.time() - t0
    high_decreasing = all(b < a for a, b in zip(high, high[1:]))
    # xi1 = (1-rho)^2 N M^2 g_p is free of K only once terms of order
    # lambda * g_t are dropped; at the preset's -15 dB they reach ~1.2, so
    # the low-pilot flatness is checked at -30 dB, with everything else kept
    low30, high30, lam_gt30 = _pilot_curves(
        dataclasses.replace(spec, base={**spec.base, "snr_db": -30}))
    in_regime = max(lam_gt30.values()) <= 0.05
    low_flat = _spread(low30) < 0.10
    contrast = _spread(low30) < _spread(high30)
    ok = high_decreasing and elapsed < 180 and in_regime and low_flat and contrast
    _report(8, ok, f"K={sorted(lam_gt)}; -15 dB: lambda*g_t="
                   f"{np.round(list(lam_gt.values()), 3).tolist()} low-pilot rates="
                   f"{np.round(low, 4).tolist()} spread={_spread(low):.1%}, "
                   f"high-pilot rates={np.round(high, 4).tolist()} spread="
                   f"{_spread(high):.1%} strictly decreasing={high_decreasing}; "
                   f"-30 dB: lambda*g_t={np.round(list(lam_gt30.values()), 3).tolist()}"
                   f" (need <= 0.05) low-pilot spread={_spread(low30):.1%} "
                   f"(need <10% and below high-pilot) high-pilot spread="
                   f"{_spread(high30):.1%}; {elapsed:.0f}s at -15 dB")
    assert high_decreasing, "high-pilot rates must decrease in K"
    assert elapsed < 180
    assert in_regime, f"-30 dB is outside the xi1 regime: lambda*g_t={lam_gt30}"
    assert low_flat, f"low-pilot rate varied {_spread(low30):.1%} across K at -30 dB"
    assert contrast, (
        f"low-pilot spread {_spread(low30):.1%} not below high-pilot spread "
        f"{_spread(high30):.1%} at -30 dB"
    )


def test_criterion_9_model_consistency():
    spec = load_preset("fig2")
    base = dict(spec.base)
    cfg = SystemConfig(
        L=base["L"], K=8, N=base["N"], M=base["M"], adc_bits=3,
        p_t=base["p_t"], p_p=8 * base["p_t"], seed=base["seed"])
    semi = ergodic_rate(cfg, spec.trials)
    symb = ergodic_rate(cfg, spec.trials, mode="symbol")
    rel = abs(semi.rate_mc - symb.rate_mc) / semi.rate_mc
    ok = rel < 0.03
    _report(9, ok, f"semi={semi.rate_mc:.4f}, symbol={symb.rate_mc:.4f}, "
                   f"relative difference={rel:.2%} (tol 3%) at 3-bit depth")
    assert ok


def test_r_lb_is_no_bound_on_the_real_quantizer_with_few_users():
    # R_LB rests on the additive quantization-noise model; with one or two
    # users the real quantizer's distortion is correlated along the signal
    # and MRC does not average it out.  The two configs were chosen before
    # the runs: the README's 1-bit L=1, K=2 point at 0 dB and seed 7, and
    # the 3-bit L=K=1 point at 10 dB and seed 2
    base = load_preset("fig2").base
    for over in (dict(L=1, K=2, seed=7), dict(L=1, K=1, adc_bits=3, snr_db=10.0, seed=2)):
        cfg = config_from_dict(base, over)
        symb = ergodic_rate(cfg, 2000, mode="symbol")
        r_lb = lower_bound_rate(cfg).R_LB
        ok = symb.rate_mc + symb.ci95 < r_lb
        _report("R_LB", ok, f"{over}: symbol={symb.rate_mc:.4f} +- {symb.ci95:.4f}, "
                            f"R_LB={r_lb:.4f}")
        assert ok
