"""The Monte-Carlo ergodic rate under estimated CSI, from per-user SIQNRs at BS 0.

The semi-analytic mode conditions on the realized angles and beamforming
gains and integrates the data symbols, AWGN, quantization noise, and the
equivalent estimation noise analytically.  The symbol-level mode samples all
of those and runs the real quantizer, providing a model-error cross-check.

Both modes run trials in blocks and evaluate BS 0 only, the BS the rate is
reported for, and both map their blocks over a pool of up to WORKERS
threads.  A block is sized for its draw stage, which seeds the block's
streams in one vectorized pass; semi mode then runs its Gram kernel over
sub-blocks sized for that kernel.  A symbol run holds numpy's OpenBLAS pool
at one thread, so its idle workers do not spin on the cores the blocks
need; where that pool cannot be reached, symbol mode maps its blocks over
one worker.  Every trial still draws from its own (seed, trial, stage)
substreams, so results do not depend on the block sizes or the thread count.
"""

import contextlib
import contextvars
import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .channel import draw_angles, large_scale_gains, steering_vector
from .config import BLOCK_BYTES
from .errors import InternalConsistencyError, ParameterError
from .estimation import build_pilot_matrix, noise_equivalent_mu
from .quantize import lloyd_max_quantize, quant_noise_power, received_power
from .training import beamformer_from_angle, build_codebook, select_beams

# Engine modes: semi-analytic and symbol-level.
MODES = ("semi", "symbol")

# Data symbols sampled per trial in symbol mode.
SYMBOLS_PER_TRIAL = 256

# Usable cores: both modes run up to this many trial blocks at once, each
# holding its own BLOCK_BYTES.
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)

# Thread-count entry points of numpy's OpenBLAS: numpy 2.x wheels export the
# scipy_openblas 64-bit names; other OpenBLAS builds use the last two.
_BLAS_THREAD_NAMES = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

# Symbol runs take turns holding numpy's OpenBLAS pool at one thread.
_pin_lock = threading.Lock()


@dataclass
class RateReport:
    """Monte-Carlo ergodic-rate output.

    S and I are (trials, K) arrays for the evaluated cell; S / I is the SIQNR.
    `pathological` counts realizations where the conditional interference
    power went non-positive and the mean-square-error floor was used instead.
    """

    rate_mc: float
    ci95: float
    trials: int
    mode: str
    S: np.ndarray
    I: np.ndarray
    pathological: int
    seed: int


def check_trials(trials):
    """Raise ParameterError unless `trials` is an integer >= 10 (a bool is not)."""
    if isinstance(trials, bool) or not isinstance(trials, int) or trials < 10:
        raise ParameterError(f"trials must be an integer >= 10, got {trials!r}")


def check_mode(mode, cfgs=()):
    """Raise ParameterError unless `mode` is an engine mode that can run every config in `cfgs`."""
    if mode not in MODES:
        raise ParameterError(f"unknown mode {mode!r}; choose from {MODES}")
    overrides = [cfg.rho_ad for cfg in cfgs if cfg.rho_ad is not None]
    if mode == "symbol" and overrides:
        raise ParameterError(
            "symbol mode runs the real adc_bits quantizer and cannot honor "
            f"a rho_ad override (rho_ad={overrides[0]}); set adc_bits only"
        )


@functools.cache
def _blas_thread_calls():
    """(get, set) thread-count functions of numpy's OpenBLAS, or None.

    dlsym on an extension module numpy has loaded also searches the libraries
    it links, so this finds numpy's own OpenBLAS without naming its file.
    None under MKL, Accelerate or a numpy without these exports.
    """
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for get_name, set_name in _BLAS_THREAD_NAMES:
        try:
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread(get, set_):
    """Hold numpy's OpenBLAS pool at one thread inside the block.

    The pool size is process-wide, so runs take turns: each holds _pin_lock
    throughout and restores the count it found, also when it raises.
    """
    with _pin_lock:
        saved = get()
        set_(1)
        try:
            yield
        finally:
            set_(saved)


def _block_trials(cfg, kernel=False):
    """Trials per block under BLOCK_BYTES (at least one).

    A drawn block's share per trial is 32 entries per (cell, user): a user's
    draws, six beam candidates and their scores and the temporaries around
    them (about 416 B measured against the 512 B counted).  With `kernel`,
    the count is for _semi_block's sub-blocks of a drawn block, where a
    trial's share is its (LK, LK) Gram kernel if that is more.
    """
    LK = cfg.L * cfg.K
    return max(1, BLOCK_BYTES // (16 * LK * (max(LK, 32) if kernel else 32)))


def _draw_block(cfg, trials):
    """Draws and beam training for a block of trials, reduced to BS 0.

    Each trial draws its angles from its (seed, trial, STAGE_CHANNEL)
    substream, exactly as the per-realization reference in tests/oracles.py
    does; rng.streams seeds the block's substreams in one pass, and training
    selects beams noiselessly.  Returns BS 0's (T, L, K) angles theta0, gains
    c0 = h_U[0, l, k]^H w[l, k] and bg = beta_0lk |c_0lk|^2, bg's (T,) sums
    `total`, and the (T, K) clean-coefficient amplitudes
    a = (1 - rho) sqrt(p_t) bg_00k N; S = a^2 in both modes.
    """
    L, K, M = cfg.L, cfg.K, cfg.M
    phi = np.empty((len(trials), L, L, K))
    theta = np.empty_like(phi)
    for i, rng in enumerate(rngmod.streams(cfg.seed, trials, rngmod.STAGE_CHANNEL)):
        phi[i], theta[i] = draw_angles(cfg, rng)
    cells = np.arange(L)
    phi_hat = select_beams(phi[:, cells, cells], build_codebook(cfg.B), M)   # (T, L, K)
    w = beamformer_from_angle(phi_hat, M)
    c0 = np.einsum("tlkm,tlkm->tlk", steering_vector(phi[:, 0], M).conj(), w)
    bg = large_scale_gains(cfg)[0] * np.abs(c0) ** 2
    a = (1.0 - cfg.rho) * np.sqrt(cfg.p_t) * bg[:, 0] * cfg.N
    return theta[:, 0], c0, bg, np.sum(bg, axis=(1, 2)), a


def _semi_block(cfg, theta0, c0, bg, total, a):
    """(I, pathological) at BS 0 for a block: I is (T, K), from _draw_block's outputs.

    The same conditional powers as the per-realization _conditional_powers
    in tests/oracles.py, with every BS-side inner product taken from the
    closed-form Gram matrix of the steering vectors instead of length-N
    vectors:

        h_a^H h_b = e^{j(N-1)(x_a - x_b)} sin(N(x_a - x_b)) / sin(x_a - x_b),

    x = (pi/2) * cos(theta).  Where the denominator vanishes the kernel takes
    its limit: N for equal angles and (-1)^(N-1) N for the endfire pair
    x_a - x_b = +-pi, as channel.dirichlet does.  The difference identities
    turn the kernel into outer products of per-user sines and cosines, and
    the phase factors are folded into the coefficients, so the per-pair work
    is real arithmetic.

    I is the conditional variance E|y|^2 - S, or, where pilot contamination
    drives that to zero or below (counted in `pathological`), E|y - a x|^2.
    """
    rho, N = cfg.rho, cfg.N
    T, L, K = c0.shape
    b0 = large_scale_gains(cfg)[0]                    # (L, K)
    sigma_q2 = quant_noise_power(cfg, total, cfg.p_t)[:, None]
    mu = noise_equivalent_mu(cfg, quant_noise_power(cfg, total, cfg.p_p / cfg.tau))[:, None]

    x = (np.pi / 2) * np.cos(theta0).reshape(T, L * K)
    s, c = np.sin(x), np.cos(x)
    sN, cN = np.sin(N * x), np.cos(N * x)
    den = s[:, :, None] * c[:, None, :]
    outer = c[:, :, None] * s[:, None, :]             # reused for kernel's second product
    den -= outer
    kernel = sN[:, :, None] * cN[:, None, :]
    kernel -= np.multiply(cN[:, :, None], sN[:, None, :], out=outer)
    del outer
    small = np.abs(den) < 1e-12
    den[small] = 1.0
    kernel[small] = N
    # an endfire pair needs users with |sin x| = 1, at theta = 0 and pi
    if N % 2 == 0 and np.any(np.abs(s) == 1.0):
        ti, ai, bi = np.nonzero(small)
        endfire = c[ti, ai] * c[ti, bi] + s[ti, ai] * s[ti, bi] < 0.0   # cos(x_a - x_b)
        kernel[ti[endfire], ai[endfire], bi[endfire]] = -N
    kernel /= den
    phase = np.exp(1j * (N - 1) * x).reshape(T, L, K)

    # u_k = sum_l beta^(1/2) c_0lk h_lk is the pilot-contaminated estimate
    # mean; y[t, k, b] = e^{j(N-1)x_b} u_k^H h_b
    coef = np.sqrt(b0) * c0
    v = coef.conj() * phase
    kernel = kernel.reshape(T, L, K, L * K)
    y = v[:, 0, :, None] * kernel[:, 0]               # (T, K, LK)
    for l in range(1, L):
        y += v[:, l, :, None] * kernel[:, l]
    y_own = np.diagonal(y.reshape(T, K, L, K), axis1=1, axis2=3)  # (T, L, K): b = (l, k)
    u_norm2 = np.einsum("tlk,tlk->tk", v.conj(), y_own).real
    bracket = N * mu + u_norm2
    quad = np.einsum("tb,tkb->tk", bg.reshape(T, L * K), y.real ** 2 + y.imag ** 2)

    e_in = (1.0 - rho) ** 2 * bracket
    e_iq = sigma_q2 * bracket
    e_sr = (1.0 - rho) ** 2 * cfg.p_t * (mu * N * total[:, None] + quad)

    I = e_in + e_iq + e_sr - a ** 2
    bad = I <= 0.0
    ea = (1.0 - rho) * np.sqrt(cfg.p_t) * coef[:, 0] * phase[:, 0].conj() * y_own[:, 0]
    return np.where(bad, I + 2.0 * a * (a - ea.real), I), int(np.sum(bad))


def _symbol_constants(cfg):
    """Symbol mode's per-run constants: sqrt(beta_0lk) (L, K) and the pilot matrix (tau, K)."""
    return np.sqrt(large_scale_gains(cfg)[0]), build_pilot_matrix(cfg.tau, cfg.K)


def _pilot_phase(cfg, consts, rng, theta0, c0, total):
    """BS 0's effective channels (L, N, K) and pilot estimate hbar + e (N, K).

    `consts` is _symbol_constants(cfg).  The pilots come from `rng`, the
    trial's STAGE_PILOT substream, and pass through the real adc_bits
    quantizer; `total` is sum_lk beta_0lk |c_0lk|^2.  The paper's per-user
    MMSE shrinkage is left out: MRC ignores it.
    """
    root_b0, Psi = consts
    eff = np.swapaxes(steering_vector(theta0, cfg.N) * (root_b0 * c0)[..., None], 1, 2)
    Y_p = np.sqrt(cfg.p_p) * eff.sum(axis=0) @ Psi.T
    Y_p = Y_p + rngmod.complex_normal(rng, Y_p.shape, 1.0)
    Y_qp = lloyd_max_quantize(Y_p, cfg.adc_bits, received_power(total, cfg.p_p / cfg.tau))
    return eff, (Y_qp @ Psi.conj()) / ((1.0 - cfg.rho) * np.sqrt(cfg.p_p))


def _symbol_trial(cfg, consts, pilot_rng, data_rng, theta0, c0, total, a):
    """BS 0's I (K,) for one drawn trial with sampled pilots, symbols and quantizer.

    The pilots come from `pilot_rng` and the symbols and noise from
    `data_rng`, the trial's STAGE_PILOT and STAGE_DATA substreams.
    """
    L, K, N = cfg.L, cfg.K, cfg.N
    eff, combiner = _pilot_phase(cfg, consts, pilot_rng, theta0, c0, total)   # hbar + e

    eff_all = np.concatenate(eff, axis=1)             # (N, L*K)

    X = rngmod.complex_normal(data_rng, (L * K, SYMBOLS_PER_TRIAL), 1.0)
    noise = rngmod.complex_normal(data_rng, (N, SYMBOLS_PER_TRIAL), 1.0)
    R = np.sqrt(cfg.p_t) * eff_all @ X + noise
    Q = lloyd_max_quantize(R, cfg.adc_bits, received_power(total, cfg.p_t))

    Y = combiner.conj().T @ Q                         # (K, SYMBOLS_PER_TRIAL)
    # measured mean-square deviation from the clean-coefficient signal; always
    # positive, and everything the analytic path treats as interference
    # (inter-user, inter-cell, noises, estimation error) lands in it
    return np.mean(np.abs(Y - a[:, None] * X[:K, :]) ** 2, axis=1)


def ergodic_rate(cfg, trials, mode="semi"):
    """Monte-Carlo ergodic rate over `trials` block-fading realizations.

    `mode` is "semi" (semi-analytic) or "symbol" (symbol-level).  Returns
    mean log2(1 + gamma) with a 95% confidence half-width over per-trial
    averages.  Deterministic for a given cfg.seed; trials run in blocks of
    BLOCK_BYTES (semi mode's Gram kernel in sub-blocks of its own), and every
    trial draws from its own (seed, trial, stage) substreams, so the result
    does not depend on the block sizes.  Up to
    WORKERS blocks run at once on a thread pool, each in a copy of the
    caller's context (so np.errstate holds in every block), and the result is
    bit-identical at any thread count.

    A symbol run holds numpy's OpenBLAS pool at one thread until it returns
    or raises, then restores the count it found; where that pool cannot be
    reached, it runs on one worker.  The hold is process-wide: other BLAS
    work in the process also runs on one thread meanwhile, and symbol runs
    called from several threads at once take turns.
    """
    check_trials(trials)
    check_mode(mode, [cfg])

    S = np.empty((trials, cfg.K))
    I = np.empty((trials, cfg.K))
    block, sub = _block_trials(cfg), _block_trials(cfg, kernel=True)
    consts = _symbol_constants(cfg) if mode == "symbol" else None

    def run_block(start):
        """Fill the block's rows of S and I; return its floor count."""
        ts = range(start, min(start + block, trials))
        theta0, c0, bg, total, a = _draw_block(cfg, ts)
        S[start:ts.stop] = a ** 2
        rows = I[start:ts.stop]
        if mode == "semi":
            nbad = 0
            for i in range(0, len(ts), sub):              # Gram-kernel sub-blocks
                j = slice(i, i + sub)
                rows[j], n = _semi_block(cfg, theta0[j], c0[j], bg[j], total[j], a[j])
                nbad += n
            return nbad
        pilots = rngmod.streams(cfg.seed, ts, rngmod.STAGE_PILOT)
        data = rngmod.streams(cfg.seed, ts, rngmod.STAGE_DATA)
        for i, (pilot_rng, data_rng) in enumerate(zip(pilots, data)):
            rows[i] = _symbol_trial(cfg, consts, pilot_rng, data_rng,
                                    theta0[i], c0[i], total[i], a[i])
        return 0

    starts = range(0, trials, block)
    workers = min(WORKERS, len(starts))
    hold = contextlib.nullcontext()
    if mode == "symbol":
        calls = _blas_thread_calls()
        if calls is None:
            workers = 1
        else:
            hold = _one_blas_thread(*calls)
    context = contextvars.copy_context()
    with hold, ThreadPoolExecutor(workers) as pool:
        # map's iterator cancels the blocks not yet started when one raises
        npath = sum(pool.map(lambda start: context.copy().run(run_block, start), starts))

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
        S=S, I=I, pathological=npath, seed=cfg.seed,
    )
