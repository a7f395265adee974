import numpy as np
import pytest

from mmwsim import rate
from mmwsim.config import SystemConfig
from mmwsim.errors import ParameterError
from mmwsim.estimation import build_pilot_matrix, noise_equivalent_mu
from mmwsim.quantize import quant_noise_power
from mmwsim.rng import STAGE_CHANNEL, STAGE_PILOT, streams, substream
from oracles import (effective_channel, estimate_all, mmse_gain, pilot_statistics,
                     receive_pilots, sample_channel, train_beams)


def test_pilot_matrix_trivial():
    np.testing.assert_allclose(build_pilot_matrix(1, 1), [[1.0]])


def test_pilot_matrix_two_point_dft():
    expect = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    np.testing.assert_allclose(build_pilot_matrix(2, 2), expect, atol=1e-12)


def test_pilot_matrix_orthonormal():
    psi = build_pilot_matrix(8, 4)
    np.testing.assert_allclose(psi.conj().T @ psi, np.eye(4), atol=1e-12)


def test_pilot_matrix_rejects_short():
    with pytest.raises(ParameterError):
        build_pilot_matrix(3, 4)


def test_mu_vanishing_quantization():
    cfg = SystemConfig(rho_ad=0.0, p_p=2.5)
    assert noise_equivalent_mu(cfg, 0.0) == pytest.approx(0.4)


def test_mu_hand_value():
    cfg = SystemConfig(rho_ad=0.1175, p_p=10.0)
    want = 0.1 + 0.5 / (0.8825 ** 2 * 10.0)
    assert noise_equivalent_mu(cfg, 0.5) == pytest.approx(want, rel=1e-9)
    assert want == pytest.approx(0.16420, abs=5e-6)


def test_mu_scales_inversely_with_pilot_power_in_noise_regime():
    lo = SystemConfig(rho_ad=0.0, p_p=5.0)
    hi = SystemConfig(rho_ad=0.0, p_p=50.0)
    assert noise_equivalent_mu(hi, 0.0) == pytest.approx(noise_equivalent_mu(lo, 0.0) / 10)


def test_mu_saturates_with_quantization():
    # quantization keeps the error floor above zero as pilot power grows
    total = 2.0             # one user, beta = 1, |c|^2 = 2
    vals = []
    for p_p in (1.0, 10.0, 1e3, 1e6, 1e9):
        cfg = SystemConfig(L=1, K=1, M=2, adc_bits=2, tau=1, p_p=p_p, p_t=1.0)
        vals.append(noise_equivalent_mu(cfg, quant_noise_power(cfg, total, cfg.p_p / cfg.tau)))
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    rho = SystemConfig(adc_bits=2).rho
    floor = rho * 2.0 / ((1 - rho) * 1)
    assert vals[-1] == pytest.approx(floor, rel=1e-3)


def test_gain_matrix_interference_free_limit():
    C = np.full((1, 1, 4), 0.7 + 0.2j)
    B = np.ones((1, 1, 4))
    np.testing.assert_allclose(mmse_gain(C, B, 0.0, 0), np.ones(4))


def test_gain_matrix_scalar_value():
    M = 4.0
    C = np.full((1, 1, 3), np.sqrt(M))
    B = np.ones((1, 1, 3))
    np.testing.assert_allclose(mmse_gain(C, B, 2.0, 0), M / (M + 2.0))


def test_gain_matrix_shrinks_to_zero():
    C = np.full((1, 1, 2), 1.0)
    B = np.ones((1, 1, 2))
    assert np.all(mmse_gain(C, B, 1e12, 0) < 1e-10)


def test_gain_matrix_entries_at_most_one():
    rng = substream(5, 0)
    C = rng.uniform(0.1, 2.0, size=(2, 2, 5)) * np.exp(1j * rng.uniform(0, np.pi, (2, 2, 5)))
    B = np.full((2, 2, 5), 0.1)
    B[0, 0] = B[1, 1] = 1.0
    g = mmse_gain(C, B, 0.3, 0)
    assert np.all(g > 0.0) and np.all(g <= 1.0)


def _pipeline(cfg, trial=0, quant_path="bussgang"):
    real = sample_channel(cfg, substream(cfg.seed, trial, 0))
    training = train_beams(real, cfg)
    est = estimate_all(real, training, cfg, substream(cfg.seed, trial, 2),
                       quant_path=quant_path)
    return real, training, est


def test_estimate_identity_holds_exactly():
    cfg = SystemConfig(L=2, K=3, N=16, M=2, adc_bits=2, p_t=1.0, p_p=6.0, tau=3, seed=3)
    real, training, est = _pipeline(cfg)
    for j in range(2):
        hbar = effective_channel(real, training, j, j)
        np.testing.assert_allclose(est.H_hat[j], (hbar + est.e[j]) * est.G[j][None, :],
                                   atol=1e-10)


def test_distortionless_noiseless_pilots_reproduce_signal():
    cfg = SystemConfig(L=2, K=2, N=8, M=2, rho_ad=0.0, p_t=1e30, p_p=4e30, seed=1)
    real = sample_channel(cfg, substream(0, 0))
    training = train_beams(real, cfg)
    psi = build_pilot_matrix(cfg.tau, cfg.K)
    eff = np.stack([effective_channel(real, training, 0, l) for l in range(2)])
    y_qp, _ = receive_pilots(eff, psi, cfg, 0.0, "bussgang", substream(0, 1))
    np.testing.assert_allclose(y_qp, np.sqrt(cfg.p_p) * eff.sum(0) @ psi.T, atol=1e-10)


def test_bussgang_pilot_noise_power():
    cfg = SystemConfig(L=1, K=2, N=32, M=2, adc_bits=2, p_t=1.0, p_p=2.0, seed=2)
    real = sample_channel(cfg, substream(cfg.seed, 0, 0))
    training = train_beams(real, cfg)
    sigma_pq2, _, _ = pilot_statistics(real, training, cfg)
    psi = build_pilot_matrix(cfg.tau, cfg.K)
    eff = np.stack([effective_channel(real, training, 0, l) for l in range(1)])
    rng = substream(cfg.seed, 0, 2)
    acc = 0.0
    draws = 1000
    for _ in range(draws):
        y_qp, y_p = receive_pilots(eff, psi, cfg, sigma_pq2[0], "bussgang", rng)
        acc += np.mean(np.abs(y_qp - (1 - cfg.rho) * y_p) ** 2)
    assert acc / draws == pytest.approx(sigma_pq2[0], rel=0.03)


def test_pilot_signal_power_reconstruction():
    # single cell, single user: time-averaged per-antenna pilot power matches
    # the inversion of the pilot quantization-noise formula
    cfg = SystemConfig(L=1, K=1, N=16, M=2, adc_bits=3, p_t=2.0, p_p=6.0, tau=2, seed=4)
    real = sample_channel(cfg, substream(cfg.seed, 0, 0))
    training = train_beams(real, cfg)
    sigma_pq2, _, _ = pilot_statistics(real, training, cfg)
    psi = build_pilot_matrix(cfg.tau, cfg.K)
    eff = effective_channel(real, training, 0, 0)
    signal = np.sqrt(cfg.p_p) * eff @ psi.T
    mean_power = np.mean(np.abs(signal) ** 2)
    rho = cfg.rho
    assert mean_power == pytest.approx(
        sigma_pq2[0] / (rho * (1 - rho)) - 1.0, rel=1e-9)


def test_pure_pilot_contamination_error():
    # two cells, distortionless, vanishing noise: the error column is exactly
    # the other cell's effective channel column
    cfg = SystemConfig(L=2, K=2, N=8, M=2, rho_ad=0.0, p_t=1e30, p_p=4e30, seed=6)
    real, training, est = _pipeline(cfg)
    other = effective_channel(real, training, 0, 1)
    np.testing.assert_allclose(est.e[0], other, atol=1e-8)


def test_error_power_matches_prediction():
    # realized ||e_jk||^2 / N averages to mu + sum of inter-cell beta|c|^2
    cfg = SystemConfig(L=2, K=2, N=32, M=2, adc_bits=3, p_t=1.0, p_p=4.0, seed=8)
    trials = 1000
    measured = np.zeros(cfg.K)
    predicted = np.zeros(cfg.K)
    for t in range(trials):
        real, training, est = _pipeline(cfg, trial=t)
        measured += np.sum(np.abs(est.e[0]) ** 2, axis=0) / cfg.N
        predicted += est.mu[0] + real.beta[0, 1] * np.abs(training.c[0, 1]) ** 2
    np.testing.assert_allclose(measured / trials, predicted / trials, rtol=0.05)


def test_contamination_floor_never_vanishes():
    cfg = SystemConfig(L=3, K=2, N=16, M=2, rho_ad=0.0, p_t=1e12, p_p=1e21, seed=9)
    _, _, est = _pipeline(cfg)
    assert np.all(np.sum(np.abs(est.e[0]) ** 2, axis=0) > 1e-3)


def test_real_quantizer_path_runs():
    cfg = SystemConfig(L=2, K=2, N=16, M=2, adc_bits=3, p_t=1.0, p_p=4.0, seed=10)
    real, training, est = _pipeline(cfg, quant_path="real")
    assert est.Y_qp.shape == (2, 16, 2)
    # quantized observation stays within the outermost level magnitude
    from mmwsim.quantize import lloyd_max_design
    levels, _ = lloyd_max_design(3)
    agc = est.sigma_pq2[0] / (cfg.rho * (1 - cfg.rho))
    lim = levels[-1] * np.sqrt(agc / 2) + 1e-9
    assert np.max(np.abs(est.Y_qp[0].real)) <= lim


# (L, K, tau, adc_bits): one and several cells, one and several users, 1 to
# 12 bits, and one pilot longer than K
_PILOT_GRID = [(L, K, K, bits) for L in (1, 3) for K in (1, 8) for bits in (1, 3, 12)]
_PILOT_GRID.append((3, 2, 5, 3))


@pytest.mark.parametrize("L, K, tau, bits", _PILOT_GRID)
def test_pilot_phase_matches_oracle_mmse_form(L, K, tau, bits):
    # the engine's estimate is the oracle's MMSE estimate with its shrinkage
    # G divided out, hbar_00 + e_0, on the same draws: each of a seed's five
    # trials as a one-trial block, and the five in blocks of two, the last
    # one partial, through one workspace
    trials = range(5)
    for seed in (0, 5, 23):
        cfg = SystemConfig(L=L, K=K, N=16, M=2, tau=tau, adc_bits=bits, p_t=1.0, seed=seed)
        table = rate._run_tables(cfg)
        refs = []
        for trial in trials:
            real = sample_channel(cfg, substream(seed, trial, STAGE_CHANNEL))
            refs.append(estimate_all(real, train_beams(real, cfg), cfg,
                                     substream(seed, trial, STAGE_PILOT), quant_path="real"))
        for size in (1, 2):
            workspace = rate._symbol_workspace(cfg, size)
            for start in range(0, len(trials), size):
                block = trials[start:start + size]
                theta0, c0, _, total, _ = rate._draw_block(cfg, block,
                                                           streams(seed, STAGE_CHANNEL), table)
                eff, est = rate._pilot_phase(cfg, table,
                                             [substream(seed, t, STAGE_PILOT) for t in block],
                                             theta0, c0, total, workspace)
                for trial, eff_t, est_t in zip(block, eff, est, strict=True):
                    ref = refs[trial]
                    np.testing.assert_allclose(est_t, ref.H_hat[0] / ref.G[0], rtol=1e-12, atol=0)
                    np.testing.assert_allclose(est_t - eff_t[:, :K], ref.e[0], rtol=1e-12, atol=0)
