"""MRC detection, per-realization SIQNR, and the Monte-Carlo ergodic rate.

The semi-analytic mode conditions on the realized angles and beamforming
gains and integrates the data symbols, AWGN, quantization noise, and the
equivalent estimation noise analytically.  The symbol-level mode samples all
of those and runs the real quantizer, providing a model-error cross-check.

Both modes run trials in blocks and evaluate BS 0 only, the BS the rate is
reported for.  Every trial still draws from its own (seed, trial, stage)
substreams, so results do not depend on the block size.
"""

from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .channel import draw_angles, large_scale_gains, steering_vector
from .config import validate_config
from .errors import InternalConsistencyError, ParameterError, DegenerateInputError
from .estimation import build_pilot_matrix, estimate_cell, noise_equivalent_mu
from .quantize import lloyd_max_quantize, quant_noise_power, quant_noise_power_data
from .training import beamformer_from_angle, build_codebook, select_beams

# Data symbols sampled per trial in symbol mode.
SYMBOLS_PER_TRIAL = 256

# Memory budget of one trial block.  A trial's share is its largest
# intermediate, the (LK, LK) Gram kernel or the (L, K, 2^B) beam scores,
# counted at 16 bytes per entry.
BLOCK_BYTES = 1 << 18


def mrc_detect(H_hat, received):
    """Maximal ratio combining: H_hat^H @ received."""
    H_hat = np.asarray(H_hat)
    received = np.asarray(received)
    if H_hat.ndim != 2 or received.shape[0] != H_hat.shape[0]:
        raise ParameterError(
            f"MRC shapes do not align: H_hat {H_hat.shape}, received {received.shape}"
        )
    return H_hat.conj().T @ received


def signal_power(realization, training, cfg, j, k):
    """Desired-signal power (1-rho)^2 P_t beta^2 |c|^4 N^2 for user (j, k)."""
    rho = cfg.rho
    return (
        (1.0 - rho) ** 2
        * cfg.p_t
        * realization.beta[j, j, k] ** 2
        * abs(training.c[j, j, k]) ** 4
        * realization.N ** 2
    )


def _conditional_powers(realization, training, mu_j, sigma_q2, cfg, j):
    """Per-user (S, I, I_floor) at BS j, vectorized over k.

    S and I follow the conditional split: S is the clean-channel signal power
    and I = E|I_n|^2 + E|I_q|^2 + E|S_r|^2 - S with the expectations taken
    over symbols, AWGN, quantization noise, and the estimation noise vector.
    I_floor is the always-positive mean-square-error form E|y - a x_k|^2 that
    the rate engine falls back to when destructive pilot contamination drives
    I itself below zero (rare, small K only).
    """
    rho = cfg.rho
    N = realization.N
    b_j = realization.beta[j]                     # (L, K)
    c_j = training.c[j]                           # (L, K)
    h_j = realization.h_B[j]                      # (L, K, N)
    gains2 = np.abs(c_j) ** 2

    total = float(np.sum(b_j * gains2))
    # u_k = sum_l beta^(1/2) c_jlk h_B_jlk: the pilot-contaminated estimate mean
    u = np.einsum("lk,lkn->kn", np.sqrt(b_j) * c_j, h_j)
    u_norm2 = np.sum(np.abs(u) ** 2, axis=1).real
    bracket = N * mu_j + u_norm2

    uh = np.einsum("kn,lin->kli", u.conj(), h_j)
    quad = np.einsum("li,kli->k", b_j * gains2, np.abs(uh) ** 2)

    e_in = (1.0 - rho) ** 2 * cfg.sigma_n2 * bracket
    e_iq = sigma_q2 * bracket
    e_sr = (1.0 - rho) ** 2 * cfg.p_t * (mu_j * N * total + quad)

    S = (1.0 - rho) ** 2 * cfg.p_t * (b_j[j] ** 2) * gains2[j] ** 2 * N ** 2
    I = e_in + e_iq + e_sr - S

    # clean coefficient a and the nu-averaged realized coefficient of x_jk
    a = (1.0 - rho) * np.sqrt(cfg.p_t) * b_j[j] * gains2[j] * N
    ea = (1.0 - rho) * np.sqrt(cfg.p_t) * np.sqrt(b_j[j]) * c_j[j] \
        * np.einsum("kn,kn->k", u.conj(), h_j[j])
    I_floor = I + 2.0 * a * (a - ea.real)
    return S, I, I_floor


def interference_power(realization, training, estimation, cfg, j, k):
    """Conditional interference-plus-noise power for user (j, k).

    Evaluates the closed-form expectations over data, AWGN, quantization
    noise, and estimation noise, holding the realized angles and gains fixed.
    """
    gains2 = np.abs(training.c) ** 2
    sigma_q2 = quant_noise_power_data(cfg, gains2, realization.beta, j)
    _, I, _ = _conditional_powers(realization, training, estimation.mu[j], sigma_q2, cfg, j)
    val = float(I[k])
    if val <= 0.0:
        raise InternalConsistencyError(
            f"conditional interference power is non-positive ({val:.4g}) for user "
            f"({j}, {k}); the realized estimate anti-aligned with the desired channel"
        )
    return val


def siqnr(S, I):
    """gamma = S / I."""
    if I <= 0.0:
        raise DegenerateInputError(f"interference power must be > 0, got {I}")
    return S / I


@dataclass
class RateReport:
    """Monte-Carlo ergodic-rate output.

    gamma_samples, S, and I are (trials, K) arrays for the evaluated cell.
    `pathological` counts realizations where the conditional interference
    power went non-positive and the mean-square-error floor was used instead.
    """

    rate_mc: float
    ci95: float
    trials: int
    mode: str
    gamma_samples: np.ndarray
    S: np.ndarray
    I: np.ndarray
    pathological: int
    seed: int


def _block_trials(cfg):
    """Trials per block under BLOCK_BYTES (at least one)."""
    LK = cfg.L * cfg.K
    return max(1, BLOCK_BYTES // (16 * LK * max(LK, 2 ** cfg.B)))


def _draw_block(cfg, trials, training_noise_var):
    """Draws and beam training for a block of trials, reduced to BS 0.

    Each trial draws its angles from its (seed, trial, STAGE_CHANNEL)
    substream and, for noisy training, its tone noise from STAGE_TRAINING,
    exactly as sample_channel and train_beams would.  Returns theta0, BS 0's
    (T, L, K) angles of arrival, and c0, the (T, L, K) realized gains
    c[0, l, k] = h_U[0, l, k]^H w[l, k].
    """
    L, K, M = cfg.L, cfg.K, cfg.M
    codebook = build_codebook(cfg.B)
    phi = np.empty((len(trials), L, L, K))
    theta = np.empty_like(phi)
    nu = None if training_noise_var is None else np.empty(
        (len(trials), L, K, codebook.size), dtype=complex)
    for i, t in enumerate(trials):
        phi[i], theta[i] = draw_angles(
            cfg, rngmod.substream(cfg.seed, t, rngmod.STAGE_CHANNEL))
        if nu is not None:
            nu[i] = rngmod.complex_normal(
                rngmod.substream(cfg.seed, t, rngmod.STAGE_TRAINING), nu.shape[1:],
                training_noise_var)
    cells = np.arange(L)
    amp = np.sqrt(large_scale_gains(cfg)[cells, cells])[..., None]
    phi_hat = select_beams(phi[:, cells, cells], amp, codebook, M, nu)   # (T, L, K)
    w = beamformer_from_angle(phi_hat, M)
    c0 = np.einsum("tlkm,tlkm->tlk", steering_vector(phi[:, 0], M).conj(), w)
    return theta[:, 0], c0


def _semi_block(cfg, theta0, c0):
    """(S, I, I_floor) at BS 0 for a block of trials, each (T, K).

    The same conditional powers as _conditional_powers, with every BS-side
    inner product taken from the closed-form Gram matrix of the steering
    vectors instead of length-N vectors:

        h_a^H h_b = e^{j(N-1)(x_a - x_b)} sin(N(x_a - x_b)) / sin(x_a - x_b),

    x = (pi/2) * cos(theta), and N where the denominator vanishes.
    The difference identities turn the kernel into outer products of
    per-user sines and cosines, and the phase factors are folded into the
    coefficients, so the per-pair work is real arithmetic.
    """
    rho, N = cfg.rho, cfg.N
    T, L, K = c0.shape
    b0 = large_scale_gains(cfg)[0]                    # (L, K)
    gains2 = np.abs(c0) ** 2
    bg = b0 * gains2
    total = np.sum(bg, axis=(1, 2))                   # (T,)
    sigma_q2 = quant_noise_power(cfg, total, cfg.p_t)[:, None]
    mu = noise_equivalent_mu(cfg, quant_noise_power(cfg, total, cfg.p_p / cfg.tau))[:, None]

    x = (np.pi / 2) * np.cos(theta0).reshape(T, L * K)
    s, c = np.sin(x), np.cos(x)
    sN, cN = np.sin(N * x), np.cos(N * x)
    den = s[:, :, None] * c[:, None, :]
    den -= c[:, :, None] * s[:, None, :]
    kernel = sN[:, :, None] * cN[:, None, :]
    kernel -= cN[:, :, None] * sN[:, None, :]
    small = np.abs(den) < 1e-12
    den[small] = 1.0
    kernel[small] = N
    kernel /= den
    phase = np.exp(1j * (N - 1) * x).reshape(T, L, K)

    # u_k = sum_l beta^(1/2) c_0lk h_lk is the pilot-contaminated estimate
    # mean; y[t, k, b] = e^{j(N-1)x_b} u_k^H h_b
    a = np.sqrt(b0) * c0
    v = a.conj() * phase
    kernel = kernel.reshape(T, L, K, L * K)
    y = sum(v[:, l, :, None] * kernel[:, l] for l in range(L))   # (T, K, LK)
    y_own = np.diagonal(y.reshape(T, K, L, K), axis1=1, axis2=3)  # (T, L, K): b = (l, k)
    u_norm2 = np.einsum("tlk,tlk->tk", v.conj(), y_own).real
    bracket = N * mu + u_norm2
    quad = np.einsum("tb,tkb->tk", bg.reshape(T, L * K), y.real ** 2 + y.imag ** 2)

    e_in = (1.0 - rho) ** 2 * cfg.sigma_n2 * bracket
    e_iq = sigma_q2 * bracket
    e_sr = (1.0 - rho) ** 2 * cfg.p_t * (mu * N * total[:, None] + quad)

    S = (1.0 - rho) ** 2 * cfg.p_t * (b0[0] ** 2) * gains2[:, 0] ** 2 * N ** 2
    I = e_in + e_iq + e_sr - S

    a_clean = (1.0 - rho) * np.sqrt(cfg.p_t) * b0[0] * gains2[:, 0] * N
    ea = (1.0 - rho) * np.sqrt(cfg.p_t) * a[:, 0] * phase[:, 0].conj() * y_own[:, 0]
    I_floor = I + 2.0 * a_clean * (a_clean - ea.real)
    return S, I, I_floor


def _symbol_trial(cfg, trial, theta0, c0):
    """(S, I) at BS 0 for one trial with sampled pilots, symbols and quantizer."""
    rho = cfg.rho
    L, K, N = cfg.L, cfg.K, cfg.N
    b0 = large_scale_gains(cfg)[0]                    # (L, K)
    # effective channels (L, N, K) from every cell's users to BS 0
    eff = np.swapaxes(
        steering_vector(theta0, N) * (np.sqrt(b0) * c0)[..., None], 1, 2)

    pilot_rng = rngmod.substream(cfg.seed, trial, rngmod.STAGE_PILOT)
    est = estimate_cell(eff, c0[None], b0[None], 0, cfg, build_pilot_matrix(cfg.tau, K),
                        pilot_rng, quant_path="real")
    combiner = est.H_hat / est.G[None, :]             # hbar + realized error

    eff_all = np.concatenate(eff, axis=1)             # (N, L*K)
    gains2 = np.abs(c0) ** 2
    total = float(np.sum(b0 * gains2))
    agc_var = cfg.sigma_n2 + cfg.p_t * total

    data_rng = rngmod.substream(cfg.seed, trial, rngmod.STAGE_DATA)
    X = (
        data_rng.standard_normal((L * K, SYMBOLS_PER_TRIAL))
        + 1j * data_rng.standard_normal((L * K, SYMBOLS_PER_TRIAL))
    ) / np.sqrt(2.0)
    noise = (
        data_rng.standard_normal((N, SYMBOLS_PER_TRIAL))
        + 1j * data_rng.standard_normal((N, SYMBOLS_PER_TRIAL))
    ) * np.sqrt(cfg.sigma_n2 / 2.0)
    R = np.sqrt(cfg.p_t) * eff_all @ X + noise
    Q = lloyd_max_quantize(R, cfg.adc_bits, agc_var) if rho > 0.0 else R

    Y = combiner.conj().T @ Q                         # (K, SYMBOLS_PER_TRIAL)
    a = (1.0 - rho) * np.sqrt(cfg.p_t) * b0[0] * gains2[0] * N
    S = a ** 2
    # measured mean-square deviation from the clean-coefficient signal; always
    # positive, and everything the analytic path treats as interference
    # (inter-user, inter-cell, noises, estimation error) lands in it
    I = np.mean(np.abs(Y - a[:, None] * X[:K, :]) ** 2, axis=1)
    return S, I


def ergodic_rate(cfg, trials, mode="semi", training_noise_var=None):
    """Monte-Carlo ergodic rate over `trials` block-fading realizations.

    `mode` is "semi" (semi-analytic) or "symbol" (symbol-level).  Returns
    mean log2(1 + gamma) with a 95% confidence half-width over per-trial
    averages.  Deterministic for a given cfg.seed; trials run in blocks of
    BLOCK_BYTES, and every trial draws from its own (seed, trial, stage)
    substreams, so the result does not depend on the block size.
    """
    cfg = cfg if cfg.validated else validate_config(cfg)
    if trials < 10:
        raise ParameterError(f"trials must be >= 10, got {trials}")
    if mode == "symbol":
        if cfg.rho_ad is not None:
            raise ParameterError(
                "symbol mode runs the real adc_bits quantizer and cannot honor "
                f"a rho_ad override (rho_ad={cfg.rho_ad}); set adc_bits only"
            )
    elif mode != "semi":
        raise ParameterError(f"unknown mode {mode!r}; choose 'semi' or 'symbol'")

    S = np.empty((trials, cfg.K))
    I = np.empty((trials, cfg.K))
    npath = 0
    block = _block_trials(cfg)
    for start in range(0, trials, block):
        ts = range(start, min(start + block, trials))
        theta0, c0 = _draw_block(cfg, ts, training_noise_var)
        if mode == "semi":
            S_b, I_b, I_floor = _semi_block(cfg, theta0, c0)
            bad = I_b <= 0.0
            S[start:ts.stop], I[start:ts.stop] = S_b, np.where(bad, I_floor, I_b)
            npath += int(np.sum(bad))
        else:
            for i, t in enumerate(ts):
                S[t], I[t] = _symbol_trial(cfg, t, theta0[i], c0[i])

    gamma = S / I
    if not np.all(np.isfinite(gamma)):
        raise InternalConsistencyError(
            f"non-finite SIQNR in {np.sum(~np.isfinite(gamma))} user-realizations"
        )
    per_trial = np.mean(np.log1p(gamma) / np.log(2.0), axis=1)
    rate = float(np.mean(per_trial))
    ci95 = float(1.96 * np.std(per_trial, ddof=1) / np.sqrt(trials))
    return RateReport(
        rate_mc=rate, ci95=ci95, trials=trials, mode=mode,
        gamma_samples=gamma, S=S, I=I, pathological=npath, seed=cfg.seed,
    )
