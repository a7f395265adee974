"""The Monte-Carlo ergodic rate under estimated CSI, from per-user SIQNRs at BS 0.

The semi-analytic mode conditions on the realized angles and beamforming
gains and integrates the data symbols, AWGN, quantization noise, and the
equivalent estimation noise analytically.  The symbol-level mode samples all
of those and runs the real quantizer, providing a model-error cross-check.

Both modes run trials in blocks and evaluate BS 0 only, the BS the rate is
reported for, and both map their blocks over a pool of up to WORKERS
threads.  A block is sized for what a trace of its draw stage and of semi
mode's set-up holds.  The draw stage seeds the block's streams in one
vectorized pass from seeders built once per run, scales the block's uniform
draws to angles at once, looks each user's beam up in training's per-(M, B)
table of certified intervals and takes its beamformer from the run's one
table (_RunTable), which also holds BS 0's gains and the pilot matrix.
Semi mode then computes the block's per-trial set-up once and runs its Gram
kernel over sub-blocks sized for that kernel: two outer products by
np.einsum, each minus its transpose, and the vanishing-denominator fix-up
only on the diagonal and the few trials whose angles can make one vanish.
Symbol mode runs its pilot phase, with one quantizer call, over sub-blocks
sized for that phase, each followed by its trials' data phases.  Each mode
writes its large arrays into one workspace per pool thread that lives for
the run, so blocks and trials reuse memory instead of faulting in fresh
pages.  A symbol run holds numpy's OpenBLAS pool at one thread, so its idle
workers do not spin on the cores the blocks need; where that pool cannot be
reached, symbol mode maps its blocks over one worker.  Every trial still
draws from its own (seed, trial, stage) streams, so its row does not depend
on the block sizes, the thread count or the range it runs in: run_trials
fills a range's rows, and ergodic_rate reduces them.
"""

import contextlib
import contextvars
import ctypes
import functools
import importlib
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import rng as rngmod
from .channel import dirichlet_limit, draw_angles, large_scale_gains, steering_vector
from .config import BLOCK_BYTES
from .errors import InternalConsistencyError, ParameterError
from .estimation import build_pilot_matrix, noise_equivalent_mu
from .quantize import lloyd_max_quantize, quant_noise_power, quantizer_work, received_power
from .training import beamformer_from_angle, build_codebook, select_beams

# Engine modes: semi-analytic and symbol-level.
MODES = ("semi", "symbol")

# Data symbols sampled per trial in symbol mode.
SYMBOLS_PER_TRIAL = 256

# Bytes that _block_trials sets aside in a block's budget for the buffers
# numpy takes per call when an operation must cast or broadcast: 8192
# entries per operand, whatever the block's size.
NUMPY_BUFFERS = 1 << 18

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
    numpy 1.x names the extension module numpy.core._multiarray_umath;
    numpy 2 keeps that name as a deprecated shim, so it is read only where
    numpy._core is absent.  None under MKL, Accelerate or a numpy without
    these exports.
    """
    try:
        umath = np._core._multiarray_umath
    except AttributeError:                            # numpy 1.x: no numpy._core
        umath = importlib.import_module("numpy.core._multiarray_umath")
    try:
        lib = ctypes.CDLL(umath.__file__)
    except OSError:
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


def _block_trials(cfg, sub=None):
    """Trials per block under BLOCK_BYTES (at least one): a drawn block, or
    with `sub`, "semi" or "symbol", that mode's sub-blocks of a drawn block.

    Drawn blocks and symbol sub-blocks first set NUMPY_BUFFERS aside.  A
    drawn block's share per trial is counted from a trace of _draw_block
    and _semi_block on its outputs: 64 + 32 M bytes per (cell, user), for
    the larger of the draw stage's peak (a user's beamformer and steering
    vector take 32 M of it) and _semi_block's set-up, and 256 bytes for
    the seeding and the per-trial arrays, which outweigh the rest at
    L = K = 1.  Traced, a block holds 0.66-0.97 of BLOCK_BYTES over fig2's
    K in {2, 8, 16, 32} x M in {2, 3, 5, 8, 10, 20, 64} and at L = K = 1,
    B = 12.

    A semi sub-block runs _semi_block's Gram kernel: a trial's share is 16
    max(LK, 32) bytes per (cell, user), for its (LK, LK) kernel.  A symbol
    sub-block runs _pilot_phase and its trials' data phases: a trial's
    share is 16 N (LK + 2 K) + 82 N tau bytes for its (N, LK) effective
    channel and its rows of the workspace's pilot arrays (sums, pilots,
    their noise, estimates and quantizer buffers), 8 per ADC level for its
    scaled levels and 1 KiB for its two seeders' state and its I.  Its
    reserve is the larger of NUMPY_BUFFERS, which steering_vector's
    broadcast of the sub-block's angles over N takes, and one trial's data
    phase, 16 (N LK + 3 K S) bytes.  Traced with its workspace rows, a
    sub-block holds 0.62-0.98 of BLOCK_BYTES on 16 configs, 0.97 at
    symbol_k8 (9 trials), and a drawn block with its sub-blocks 0.66-0.87
    on 8 configs with M <= 5.
    """
    LK = cfg.L * cfg.K
    if sub is None:
        return max(1, (BLOCK_BYTES - NUMPY_BUFFERS) // (LK * (64 + 32 * cfg.M) + 256))
    if sub == "semi":
        return max(1, BLOCK_BYTES // (16 * LK * max(LK, 32)))
    N, K = cfg.N, cfg.K
    reserve = max(NUMPY_BUFFERS, 16 * (N * LK + 3 * K * SYMBOLS_PER_TRIAL))
    share = 16 * N * (LK + 2 * K) + 82 * N * cfg.tau + (8 << cfg.adc_bits) + 1024
    return max(1, (BLOCK_BYTES - reserve) // share)


class _RunTable(NamedTuple):
    """What every block of a run reads, built once per run by _run_tables."""

    b0: np.ndarray          # BS 0's gains beta_0lk (L, K)
    root_b0: np.ndarray     # their square roots
    beams: np.ndarray       # the (2^B, M) beamformers of build_codebook(B), in index order
    pilots: np.ndarray      # the (tau, K) pilot matrix Psi


def _run_tables(cfg):
    """Build the run's _RunTable, which both engine modes read."""
    b0 = large_scale_gains(cfg)[0]
    return _RunTable(b0, np.sqrt(b0), beamformer_from_angle(build_codebook(cfg.B), cfg.M),
                     build_pilot_matrix(cfg.tau, cfg.K))


def _draw_block(cfg, trials, channel, table):
    """Draws and beam training for a block of trials, reduced to BS 0.

    Each trial draws its angles from its (seed, trial, STAGE_CHANNEL)
    stream, exactly as the per-realization reference in tests/oracles.py
    does; `channel`, the run's rng.streams for that stage, seeds the block's
    streams in one pass, and training selects beams noiselessly, each
    user's beamformer a row of the run's `table` (_run_tables(cfg)).
    Returns BS 0's (T, L, K) angles theta0, gains c0 = h_U[0, l, k]^H
    w[l, k] and bg = beta_0lk |c_0lk|^2, bg's (T,) sums `total`, and the
    (T, K) clean-coefficient amplitudes a = (1 - rho) sqrt(p_t) bg_00k N;
    S = a^2 in both modes.
    """
    L, K, M = cfg.L, cfg.K, cfg.M
    angles = draw_angles(channel(trials), np.empty((len(trials), 2, L, L, K)))
    cells = np.arange(L)
    w = table.beams[select_beams(angles[:, 0, cells, cells], M, cfg.B)]   # (T, L, K, M)
    phi0, theta0 = angles[:, 0, 0].copy(), angles[:, 1, 0].copy()
    del angles                                        # BS 0's rows are all that is left to read
    h = steering_vector(phi0, M)
    c0 = np.einsum("tlkm,tlkm->tlk", np.conjugate(h, out=h), w)
    bg = table.b0 * np.abs(c0) ** 2
    a = (1.0 - cfg.rho) * np.sqrt(cfg.p_t) * bg[:, 0] * cfg.N
    return theta0, c0, bg, np.sum(bg, axis=(1, 2)), a


def _semi_workspace(trials, L, K):
    """_semi_block's large arrays, for sub-blocks of up to `trials` trials.

    Returns (kernel, scratch): the (T, LK, LK) Gram kernel and complex
    scratch rows that hold in turn the kernel's denominator and
    outer-product temporary, then y and its per-cell term, then |y|^2.  A
    row holds two (LK, LK) float arrays or two (K, LK) complex ones,
    whichever is more: the latter at L = 1.
    """
    LK = L * K
    return (np.empty((trials, LK, LK)),
            np.empty((trials, max(LK * LK, 2 * K * LK)), dtype=complex))


def _angle_terms(N, x):
    """The Gram kernel's per-block set-up from x = (pi/2) cos(theta), (T, LK).

    Returns (trig, near): the sines and cosines (s, c, sN, cN) of x and N x,
    and a (T,) mask of the trials where an off-diagonal denominator
    sin(x_a - x_b) can vanish.  The computed denominator is within about
    1e-15 of sin(x_a - x_b), so |den| < 1e-12 needs |x_a - x_b| < 1.01e-12
    or > pi - 1.01e-12 (x lies in [-pi/2, pi/2]).  The first makes every
    step between a and b in the trial's sorted x less than 2e-12, the
    second its range more than pi - 2e-12: `near` marks both.
    """
    xs = np.sort(x, axis=1)
    near = np.any(np.diff(xs, axis=1) < 2e-12, axis=1)
    near |= xs[:, -1] - xs[:, 0] > np.pi - 2e-12
    return (np.sin(x), np.cos(x), np.sin(N * x), np.cos(N * x)), near


def _gram_kernel(N, trig, near, kernel, den, outer):
    """Write a sub-block's (T, LK, LK) Dirichlet Gram kernel into `kernel`.

    kernel[t, a, b] = sin(N(x_a - x_b)) / sin(x_a - x_b) for the sub-block's
    rows of _angle_terms' `trig` and `near`.  Both difference identities are
    P - P^T for one np.einsum outer product P (s c^T, then sN cN^T), since
    c_a s_b and s_b c_a are the same double; `den` and `outer`, (T, LK, LK)
    float arrays, are overwritten.  Where the computed denominator vanishes
    (|den| < 1e-12) the kernel takes channel.dirichlet_limit at
    cos(x_a - x_b), also from the identities.  The diagonal's denominator is
    exactly 0 and is set through a strided view; the off-diagonal test runs
    on the `near` trials only.  Bit for bit the full-mask arithmetic of
    tests/oracles.gram_kernel.
    """
    s, c, sN, cN = trig
    T, LK = s.shape
    np.subtract(np.einsum("ta,tb->tab", s, c, out=outer), outer.swapaxes(1, 2), out=den)
    np.subtract(np.einsum("ta,tb->tab", sN, cN, out=outer), outer.swapaxes(1, 2), out=kernel)
    den.reshape(T, -1)[:, ::LK + 1] = 1.0
    kernel.reshape(T, -1)[:, ::LK + 1] = dirichlet_limit(N, 1.0)      # cos(0) = 1
    rows = np.flatnonzero(near)
    if rows.size:
        d, k, s, c = den[rows], kernel[rows], s[rows], c[rows]
        ti, ai, bi = np.nonzero(np.abs(d) < 1e-12)
        d[ti, ai, bi] = 1.0
        k[ti, ai, bi] = dirichlet_limit(N, c[ti, ai] * c[ti, bi] + s[ti, ai] * s[ti, bi])
        den[rows], kernel[rows] = d, k
    kernel /= den


def _semi_block(cfg, table, theta0, c0, bg, total, a, workspace):
    """(I, floor) at BS 0 for a drawn block, from _draw_block's outputs: I is
    (T, K) and floor (T,) counts each trial's users that hit the floor.

    The same conditional powers as the per-realization _conditional_powers
    in tests/oracles.py, with every BS-side inner product taken from the
    closed-form Gram matrix of the steering vectors instead of length-N
    vectors:

        h_a^H h_b = e^{j(N-1)(x_a - x_b)} sin(N(x_a - x_b)) / sin(x_a - x_b),

    x = (pi/2) * cos(theta).  _gram_kernel forms the real kernel from
    outer products of per-user sines and cosines, and the phase factors are
    folded into the coefficients, so the per-pair work is real arithmetic.
    `table` is the run's _run_tables(cfg).

    I is the conditional variance E|y|^2 - S, or, where pilot contamination
    drives that to zero or below (counted in `floor`), E|y - a x|^2.

    The per-trial set-up (x and its sines and cosines, the phases, the
    coefficients, mu and sigma_q^2) is computed once for the block; the
    Gram kernel and the (T, K, LK) arrays are formed over sub-blocks of as
    many trials as `workspace`, a _semi_workspace, holds, and written into
    it.  The outputs do not depend on what it held before.
    """
    rho, N = cfg.rho, cfg.N
    T, L, K = c0.shape
    LK = L * K
    sigma_q2 = quant_noise_power(cfg, total, cfg.p_t)[:, None]
    mu = noise_equivalent_mu(cfg, quant_noise_power(cfg, total, cfg.p_p / cfg.tau))[:, None]
    x = (np.pi / 2) * np.cos(theta0).reshape(T, LK)
    trig, near = _angle_terms(N, x)
    phase = 1j * (N - 1) * x
    phase = np.exp(phase, out=phase).reshape(T, L, K)
    # u_k = sum_l beta^(1/2) c_0lk h_lk is the pilot-contaminated estimate
    # mean; y[t, k, b] = e^{j(N-1)x_b} u_k^H h_b
    coef = table.root_b0 * c0
    ea_scale = (1.0 - rho) * np.sqrt(cfg.p_t) * coef[:, 0] * phase[:, 0].conj()
    v = np.conjugate(coef, out=coef)
    v *= phase
    del x, phase                                      # the sub-block loop holds no more
    u_norm2, quad, ea = np.empty((T, K)), np.empty((T, K)), np.empty((T, K))
    kernel_rows, scratch_rows = workspace
    sub = len(kernel_rows)
    for i in range(0, T, sub):
        j, n = slice(i, i + sub), min(sub, T - i)
        kernel = kernel_rows[:n]
        scratch = scratch_rows[:n].reshape(-1)        # the first n rows: contiguous
        floats, m = scratch.view(float), n * LK * LK
        _gram_kernel(N, [t[j] for t in trig], near[j], kernel,
                     floats[:m].reshape(n, LK, LK), floats[m:2 * m].reshape(n, LK, LK))
        # y and its per-cell term overwrite the kernel's spent temporaries
        kernel = kernel.reshape(n, L, K, LK)
        vj = v[j]
        m = n * K * LK
        y, term = scratch[:m].reshape(n, K, LK), scratch[m:2 * m].reshape(n, K, LK)
        np.multiply(vj[:, 0, :, None], kernel[:, 0], out=y)
        for l in range(1, L):
            y += np.multiply(vj[:, l, :, None], kernel[:, l], out=term)
        y_own = np.diagonal(y.reshape(n, K, L, K), axis1=1, axis2=3)  # (n, L, K): b = (l, k)
        u_norm2[j] = np.einsum("tlk,tlk->tk", vj.conj(), y_own).real
        ea[j] = (ea_scale[j] * y_own[:, 0]).real        # the cross term of E|y - a x|^2
        y2, imag2 = term.view(float).reshape(2, n, K, LK)   # |y|^2 over the spent term
        np.square(y.real, out=y2)
        y2 += np.square(y.imag, out=imag2)
        quad[j] = np.einsum("tb,tkb->tk", bg[j].reshape(n, LK), y2)
    del trig, near, v, ea_scale                       # spent: only (T, K) rows are left

    bracket = N * mu + u_norm2
    e_in = (1.0 - rho) ** 2 * bracket
    e_iq = sigma_q2 * bracket
    e_sr = (1.0 - rho) ** 2 * cfg.p_t * (mu * N * total[:, None] + quad)

    I = e_in + e_iq + e_sr - a ** 2
    bad = I <= 0.0
    return np.where(bad, I + 2.0 * a * (a - ea), I), np.sum(bad, axis=1)


def _pilot_phase(cfg, table, rngs, theta0, c0, total, workspace):
    """BS 0's effective channels (T, N, LK) and pilot estimates hbar + e (T, N, K).

    For a sub-block of a drawn block: theta0, c0 and total are its rows of
    _draw_block's outputs and `table` is the run's _run_tables(cfg).
    Column l K + k of a trial's effective channel is cell l's user k, so
    cell 0's are [..., :K].  Each trial's pilot noise comes from its
    generator in `rngs`, the sub-block's STAGE_PILOT streams, into its own
    row; the sub-block's pilots pass through the real adc_bits quantizer in
    one call, each trial at its own input variance.  The pilot arrays and
    the estimates are written into `workspace`, a _symbol_workspace for at
    least T trials.  The paper's per-user MMSE shrinkage is left out: MRC
    ignores it.
    """
    T, L, K = c0.shape
    N = cfg.N
    (sums, Y_p, noise, est, work), (_, _, _, scratch, _) = workspace
    sums, Y_p, noise, est = sums[:T], Y_p[:T], noise[:T], est[:T]
    h = steering_vector(theta0, N)
    h *= (table.root_b0 * c0)[..., None]              # (T, L, K, N)
    np.sum(h, axis=1, out=sums)
    sums *= np.sqrt(cfg.p_p)
    Psi = table.pilots
    np.matmul(sums.swapaxes(1, 2), Psi.T, out=Y_p)
    for rng, row in zip(rngs, noise, strict=True):
        rngmod.complex_normal(rng, row.shape, row, scratch)
    Y_p += noise
    lloyd_max_quantize(Y_p, cfg.adc_bits, received_power(total, cfg.p_p / cfg.tau), work, out=Y_p)
    np.matmul(Y_p, Psi.conj(), out=est)
    est /= (1.0 - cfg.rho) * np.sqrt(cfg.p_p)
    return h.reshape(T, L * K, N).swapaxes(1, 2), est


def _symbol_workspace(cfg, trials):
    """Symbol mode's large arrays, for one worker's sub-blocks of up to `trials` trials in turn.

    Returns (pilots, data): _pilot_phase's (T, K, N) pilot sums, (T, N, tau)
    received pilots (whose storage the quantized pilots reuse) and their
    noise, (T, N, K) estimates and a quantize.quantizer_work for them; and
    _symbol_block's per-trial (LK, S) symbols, (N, S) noise and received
    signal (whose storage the quantized signal reuses), float scratch for
    both phases' normal draws and a quantizer_work.
    """
    L, K, N, tau, S = cfg.L, cfg.K, cfg.N, cfg.tau, SYMBOLS_PER_TRIAL
    pilots = (np.empty((trials, K, N), dtype=complex), np.empty((trials, N, tau), dtype=complex),
              np.empty((trials, N, tau), dtype=complex), np.empty((trials, N, K), dtype=complex),
              quantizer_work(trials * N * tau))
    data = (np.empty((L * K, S), dtype=complex), np.empty((N, S), dtype=complex),
            np.empty((N, S), dtype=complex), np.empty(max(L * K * S, N * S, N * tau)),
            quantizer_work(N * S))
    return pilots, data


def _symbol_block(cfg, table, pilots, data, trials, theta0, c0, total, a, workspace):
    """BS 0's I (T, K) for a drawn block of `trials` in symbol mode, from _draw_block's outputs.

    The pilot phase runs over sub-blocks of as many trials as `workspace`, a
    _symbol_workspace, holds, each followed by its trials' data phases.
    `pilots` and `data` are the run's rng.streams seeders for STAGE_PILOT
    and STAGE_DATA, called per sub-block, and `table` is the run's
    _run_tables(cfg).  A trial's data phase draws its symbols X and noise
    from its STAGE_DATA stream, passes R = sqrt(p_t) eff X + noise through
    the real adc_bits quantizer and combines it with the trial's estimates.
    The output does not depend on what the workspace held.
    """
    K = cfg.K
    X, noise, R, scratch, work = workspace[1]
    sub = len(workspace[0][0])
    I = np.empty((len(trials), K))
    for i in range(0, len(trials), sub):
        j = slice(i, i + sub)
        eff, combiner = _pilot_phase(cfg, table, pilots(trials[j]), theta0[j], c0[j], total[j],
                                     workspace)
        for t, data_rng in enumerate(data(trials[j]), i):
            rngmod.complex_normal(data_rng, X.shape, X, scratch)
            rngmod.complex_normal(data_rng, noise.shape, noise, scratch)
            np.matmul(np.sqrt(cfg.p_t) * eff[t - i], X, out=R)
            R += noise
            Q = lloyd_max_quantize(R, cfg.adc_bits, received_power(total[t], cfg.p_t), work, out=R)
            Y = combiner[t - i].conj().T @ Q          # (K, SYMBOLS_PER_TRIAL)
            # measured mean-square deviation from the clean-coefficient
            # signal; always positive, and everything the analytic path
            # treats as interference (inter-user, inter-cell, noises,
            # estimation error) lands in it
            I[t] = np.mean(np.abs(Y - a[t, :, None] * X[:K]) ** 2, axis=1)
        del eff, combiner                             # not alive beside the next sub-block's
    return I


class TrialRows(NamedTuple):
    """Per-trial rows of run_trials, in trial order."""

    S: np.ndarray           # (n, K) signal powers at BS 0
    I: np.ndarray           # (n, K) interference-plus-noise powers at BS 0
    floor: np.ndarray       # (n,) users of the trial that hit the contamination floor


def run_trials(cfg, trials, mode):
    """Per-trial rows at BS 0 for `trials`, a range of trial indices, in `mode`.

    Trials run in blocks of BLOCK_BYTES (semi mode's Gram kernel and symbol
    mode's pilot phase in sub-blocks of their own), and every trial draws
    from its own (seed, trial, stage) streams, so a trial's row does not
    depend on the range it runs in or on the block sizes.  Up to WORKERS
    blocks run at once on a thread pool, each in a copy of the caller's
    context (so np.errstate holds in every block), and the rows are
    bit-identical at any thread count.  Each pool thread builds one
    workspace on its first block (a _semi_workspace or a _symbol_workspace,
    sized for a sub-block) and reuses it for the rest of the run; the
    workspaces are dropped when the run returns.

    A symbol run holds numpy's OpenBLAS pool at one thread until it returns
    or raises, then restores the count it found; where that pool cannot be
    reached, it runs on one worker.  The hold is process-wide: other BLAS
    work in the process also runs on one thread meanwhile, and symbol runs
    called from several threads at once take turns.  An empty range returns
    empty rows and starts no pool.
    """
    check_mode(mode, [cfg])
    n = len(trials)
    S, I, floor = np.empty((n, cfg.K)), np.empty((n, cfg.K)), np.zeros(n, dtype=int)
    if not n:
        return TrialRows(S, I, floor)
    block = min(_block_trials(cfg), n)
    sub = min(_block_trials(cfg, mode), block)
    table = _run_tables(cfg)
    channel, pilots, data = (rngmod.streams(cfg.seed, stage) for stage in (
        rngmod.STAGE_CHANNEL, rngmod.STAGE_PILOT, rngmod.STAGE_DATA))
    workspaces = {}                  # one per pool thread, which alone sets its key

    def run_block(i):
        """Fill the rows of the block that starts at row i."""
        ts = trials[i:i + block]
        rows = slice(i, i + len(ts))
        theta0, c0, bg, total, a = _draw_block(cfg, ts, channel, table)
        S[rows] = a ** 2
        ident = threading.get_ident()
        if ident not in workspaces:
            workspaces[ident] = (_semi_workspace(sub, cfg.L, cfg.K) if mode == "semi"
                                 else _symbol_workspace(cfg, sub))
        workspace = workspaces[ident]
        if mode == "semi":
            I[rows], floor[rows] = _semi_block(cfg, table, theta0, c0, bg, total, a, workspace)
        else:
            I[rows] = _symbol_block(cfg, table, pilots, data, ts, theta0, c0, total, a, workspace)

    starts = range(0, n, block)
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
        list(pool.map(lambda i: context.copy().run(run_block, i), starts))
    return TrialRows(S, I, floor)


def ergodic_rate(cfg, trials, mode="semi"):
    """Monte-Carlo ergodic rate over run_trials' rows for trials [0, `trials`) in `mode`.

    Returns mean log2(1 + gamma) with a 95% confidence half-width over
    per-trial averages; deterministic for a given cfg.seed.
    """
    check_trials(trials)
    S, I, floor = run_trials(cfg, range(trials), mode)
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
        S=S, I=I, pathological=int(floor.sum()),
    )


def trial_zero(cfg, mode):
    """Trial 0 at BS 0 as run_trials draws it in `mode`: the (L, K) theta_0lk, beta_0lk
    and c_0lk, and symbol mode's (K,) error powers ||e_0k||^2 (None in semi mode)."""
    check_mode(mode, [cfg])
    table = _run_tables(cfg)
    theta0, c0, _, total, _ = _draw_block(
        cfg, range(1), rngmod.streams(cfg.seed, rngmod.STAGE_CHANNEL), table)
    if mode == "semi":
        return theta0[0], table.b0, c0[0], None
    eff, est = _pilot_phase(cfg, table, rngmod.streams(cfg.seed, rngmod.STAGE_PILOT)(range(1)),
                            theta0, c0, total, _symbol_workspace(cfg, 1))
    return theta0[0], table.b0, c0[0], (abs(est[0] - eff[0, :, :cfg.K]) ** 2).sum(axis=0)
