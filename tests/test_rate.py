import contextlib
import ctypes
import functools
import gc
import itertools
import os
import sys
import threading
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmwsim import rate, training
from mmwsim.channel import draw_angles, steering_vector
from mmwsim.config import BLOCK_BYTES, SystemConfig, config_from_dict
from mmwsim.errors import InternalConsistencyError, ParameterError
from mmwsim.quantize import quant_noise_power
from mmwsim.rate import ergodic_rate
from mmwsim.rng import STAGE_CHANNEL, STAGE_DATA, STAGE_PILOT, complex_normal, streams, substream
from mmwsim.sweep import _point_config, load_preset
from mmwsim.training import build_codebook, _candidate_gains
from oracles import _conditional_powers, gram_kernel, pilot_statistics, sample_channel, train_beams


def _cfg(**kw):
    base = dict(L=1, K=1, N=16, M=2, adc_bits=3, p_t=1.0, p_p=4.0, seed=0)
    base.update(kw)
    return SystemConfig(**base)


def _pipeline(cfg, trial=0):
    """Oracle realization, training and BS 0's mu for one trial."""
    real = sample_channel(cfg, substream(cfg.seed, trial, 0))
    training = train_beams(real, cfg)
    _, mu, _ = pilot_statistics(real, training, cfg)
    return real, training, mu[0]


def _sigma_q2(cfg, real, training):
    """Data-phase quantization noise power at BS 0."""
    total = float(np.sum(real.beta[0] * np.abs(training.c[0]) ** 2))
    return quant_noise_power(cfg, total, cfg.p_t)


def _powers(cfg, real, training, mu0):
    """Oracle per-user (S, I) at BS 0."""
    S, I, _ = _conditional_powers(real, training, mu0, _sigma_q2(cfg, real, training), cfg, 0)
    return S, I


def test_signal_power_aligned_distortionless():
    cfg = _cfg(rho_ad=0.0, M=4, N=8)
    real, training, mu0 = _pipeline(cfg)
    training.c[0, 0, 0] = 2.0  # |c|^2 = M = 4
    assert _powers(cfg, real, training, mu0)[0][0] == pytest.approx(1.0 * 16.0 * 64.0)


def test_signal_power_one_bit_factor():
    cfg = _cfg(adc_bits=1, M=4, N=8)
    real, training, mu0 = _pipeline(cfg)
    training.c[0, 0, 0] = 2.0
    factor = (1.0 - cfg.rho) ** 2
    assert factor == pytest.approx(0.6366 ** 2, abs=1e-4)
    assert _powers(cfg, real, training, mu0)[0][0] == pytest.approx(factor * 16 * 64)


def test_signal_power_quadratic_in_N():
    c1 = _cfg(N=16)
    c2 = _cfg(N=32)
    r1, t1, mu1 = _pipeline(c1)
    r2, t2, mu2 = _pipeline(c2)
    t1.c[0, 0, 0] = t2.c[0, 0, 0] = 1.0 + 0.5j
    assert _powers(c2, r2, t2, mu2)[0][0] == pytest.approx(
        4.0 * _powers(c1, r1, t1, mu1)[0][0])


def test_interference_degenerate_single_user():
    # single cell, one user, distortionless, perfect pilots: only AWGN remains
    cfg = _cfg(rho_ad=0.0, N=16, M=2)
    real, training, _ = _pipeline(cfg)
    S, I = _powers(cfg, real, training, 0.0)
    expect = cfg.N * abs(training.c[0, 0, 0]) ** 2
    assert I[0] == pytest.approx(expect, rel=1e-10)
    assert S[0] / I[0] == pytest.approx(cfg.p_t * expect, rel=1e-10)


def test_interference_positive_and_raises_when_not():
    cfg = _cfg(L=3, K=2, N=64, adc_bits=1, p_t=1.0, p_p=2.0, seed=7)
    assert _powers(cfg, *_pipeline(cfg, trial=0))[1][0] > 0.0
    # trial 75 at this seed realizes destructive pilot contamination: the
    # conditional interference power of user 1 is not positive
    assert _powers(cfg, *_pipeline(cfg, trial=75))[1][1] <= 0.0


def test_interference_matches_brute_force():
    cfg = _cfg(L=3, K=2, N=32, adc_bits=2, p_t=0.3, p_p=2.0, seed=5)
    real, training, mu0 = _pipeline(cfg)
    sq2 = _sigma_q2(cfg, real, training)
    k = 0
    S, I = _powers(cfg, real, training, mu0)
    S, I_closed = S[k], I[k]

    # sample (x, n, n_q, n_tilde) and measure E|y|^2 - S; the known clean
    # signal draw is subtracted per sample so its fluctuation cancels
    rng = np.random.default_rng(99)
    coef = (np.sqrt(real.beta[0]) * training.c[0]).reshape(-1)
    cols = real.h_B[0].reshape(-1, cfg.N)
    u = np.einsum("lk,lkn->kn", np.sqrt(real.beta[0]) * training.c[0], real.h_B[0])[k]
    draws, acc, done = 2 * 10 ** 5, 0.0, 0
    while done < draws:
        nb = min(20000, draws - done)
        x = (rng.standard_normal((nb, cfg.L * cfg.K))
             + 1j * rng.standard_normal((nb, cfg.L * cfg.K))) / np.sqrt(2)
        n = (rng.standard_normal((nb, cfg.N))
             + 1j * rng.standard_normal((nb, cfg.N))) / np.sqrt(2)
        nq = (rng.standard_normal((nb, cfg.N))
              + 1j * rng.standard_normal((nb, cfg.N))) * np.sqrt(sq2 / 2)
        nt = (rng.standard_normal((nb, cfg.N))
              + 1j * rng.standard_normal((nb, cfg.N))) * np.sqrt(mu0 / 2)
        hhat = u[None, :] + nt
        recv = (1 - cfg.rho) * (np.sqrt(cfg.p_t) * (x * coef[None, :]) @ cols + n) + nq
        y = np.einsum("bn,bn->b", hhat.conj(), recv)
        acc += np.sum(np.abs(y) ** 2 - S * np.abs(x[:, k]) ** 2)
        done += nb
    I_sampled = acc / draws
    assert I_closed == pytest.approx(I_sampled, rel=0.02)


def test_ergodic_rate_matched_filter_oracle():
    # distortionless single link with near-perfect pilots: the rate collapses
    # to the matched-filter form averaged over the selected-beam gain
    cfg = _cfg(rho_ad=0.0, L=1, K=1, N=16, M=2, p_p=1e12)
    rep = ergodic_rate(cfg, 2000)
    cos_cb = np.cos(build_codebook(cfg.B))
    rng = substream(123, 0)
    phis = rng.uniform(0, np.pi, 10 ** 5)
    g2 = _candidate_gains(np.cos(phis), cos_cb, cfg.M).max(axis=-1) ** 2
    oracle = np.mean(np.log2(1 + cfg.p_t * cfg.N * g2))
    assert rep.rate_mc == pytest.approx(oracle, abs=3 * rep.ci95 + 1e-3)


def test_ergodic_rate_deterministic():
    cfg = _cfg(L=2, K=2, N=16, adc_bits=2, seed=13)
    a = ergodic_rate(cfg, 40)
    b = ergodic_rate(cfg, 40)
    assert a.rate_mc == b.rate_mc


def _oracle_powers(cfg, trials):
    """Per-trial S, I (after the floor) and floor count from the vector path."""
    S = np.empty((trials, cfg.K))
    I = np.empty((trials, cfg.K))
    bad = 0
    for t in range(trials):
        real = sample_channel(cfg, substream(cfg.seed, t, STAGE_CHANNEL))
        training = train_beams(real, cfg)
        _, mu, _ = pilot_statistics(real, training, cfg)
        S[t], I_t, I_floor = _conditional_powers(real, training, mu[0],
                                                 _sigma_q2(cfg, real, training), cfg, 0)
        I[t] = np.where(I_t <= 0.0, I_floor, I_t)
        bad += int(np.sum(I_t <= 0.0))
    return S, I, bad


def _assert_engine_matches_oracle(cfg, trials):
    rep = ergodic_rate(cfg, trials)
    S, I, bad = _oracle_powers(cfg, trials)
    np.testing.assert_allclose(rep.S, S, rtol=1e-9)
    np.testing.assert_allclose(rep.I, I, rtol=1e-9)
    assert rep.pathological == bad
    return rep


def _fig2_cfg(K, **overrides):
    """The fig2 preset's point at K, with fields replaced by `overrides`."""
    return replace(_point_config(load_preset("fig2"), {}, K, {}), **overrides)


@pytest.mark.parametrize("cfg, trials", [
    (_fig2_cfg(2), 60),
    (_fig2_cfg(32), 12),
    (_fig2_cfg(8, N=16), 40),
    (_fig2_cfg(8, N=1024), 20),
    (_fig2_cfg(4, L=1), 40),
], ids=["fig2-K2", "fig2-K32", "N16", "N1024", "L1"])
def test_block_engine_matches_vector_oracle(cfg, trials):
    _assert_engine_matches_oracle(cfg, trials)


def test_block_engine_matches_oracle_on_contamination_floor():
    # the realization test_interference_positive_and_raises_when_not pins
    cfg = _cfg(L=3, K=2, N=64, adc_bits=1, p_t=1.0, p_p=2.0, seed=7)
    rep = _assert_engine_matches_oracle(cfg, 80)
    assert rep.pathological > 0


def _engine_kernel(N, x):
    """rate._gram_kernel over x (T, LK) in one sub-block, its buffers NaN-filled."""
    trig, near = rate._angle_terms(N, x)
    kernel, den, outer = (np.full(x.shape + x.shape[1:], np.nan) for _ in range(3))
    rate._gram_kernel(N, trig, near, kernel, den, outer)
    return kernel, near


def _crafted_x(rng, K):
    """(T, 3K) x rows that hold every case of a vanishing or nearly vanishing
    denominator, one per row, after one plain row; returns (x, crafted rows)."""
    half = np.pi / 2
    x = half * np.cos(rng.uniform(0.0, np.pi, (13, 3 * K)))
    x[1, K:2 * K] = x[1, :K]                      # exact duplicates across cells
    for row, gap in zip(range(2, 7), (1e-13, 0.9e-12, 1e-12, 1.1e-12, 1.5e-12)):
        x[row, 1] = x[row, 0] + gap               # |den| straddles 1e-12; 1.5e-12 is not small
    x[7, :2] = half * np.cos([0.0, np.pi])        # the endfire pair, x = +-pi/2
    x[8, :2] = half, -half + 0.9e-12              # near it: |den| small, then not
    x[9, :2] = half, -half + 1.5e-12
    x[10, :2] = half * np.cos(np.pi), half        # the endfire pair in the other order
    x[11, :3] = half, half, -half                 # a duplicate at endfire
    x[12, :] = half * np.cos(np.pi)               # every user at one endfire end
    return x, list(range(1, 13))


@pytest.mark.parametrize("N", [2, 3, 63, 64, 1024])
def test_gram_kernel_matches_the_full_mask_oracle_on_crafted_angles(N):
    # the sparse fix-up of vanishing denominators writes exactly the oracle's
    # full-mask arithmetic, also where the superset trips but |den| is not small
    for K in (1, 2, 8):
        x, crafted = _crafted_x(np.random.default_rng(N + K), K)
        got, near = _engine_kernel(N, x)
        assert got.tobytes() == gram_kernel(N, x).tobytes()
        assert list(np.flatnonzero(near)) == crafted


@pytest.mark.parametrize("K", [2, 8, 16, 32])
def test_gram_kernel_matches_the_full_mask_oracle_on_fig2(K):
    cfg = _fig2_cfg(K)
    theta0 = rate._draw_block(cfg, range(40), streams(cfg.seed, STAGE_CHANNEL),
                              rate._run_tables(cfg))[0]
    x = (np.pi / 2) * np.cos(theta0).reshape(40, -1)
    got, _ = _engine_kernel(cfg.N, x)
    assert got.tobytes() == gram_kernel(cfg.N, x).tobytes()


def test_numpy_facts_the_engine_relies_on():
    # _gram_kernel's einsum outer product is the broadcast product, its
    # P - P^T is the oracle's two-product difference, and draw_angles' scaled
    # random draws are Generator.uniform(0, pi) on the same stream, bit for
    # bit; a numpy that broke any fails here by name, not as a drifted golden
    a, b = np.random.default_rng(1).standard_normal((2, 7, 96))
    out = np.empty((7, 96, 96))
    np.einsum("ta,tb->tab", a, b, out=out)
    assert out.tobytes() == (a[:, :, None] * b[:, None, :]).tobytes()
    diff = np.subtract(out, out.swapaxes(1, 2), out=np.empty_like(out))
    assert diff.tobytes() == (a[:, :, None] * b[:, None, :]
                              - b[:, :, None] * a[:, None, :]).tobytes()
    block = np.empty((4, 2, 3, 3, 8))
    gen = np.random.default_rng(5)
    for row in block:
        gen.random(out=row)
    block *= np.pi
    gen = np.random.default_rng(5)
    uniform = [gen.uniform(0.0, np.pi, size=(2, 3, 3, 8)) for _ in range(4)]
    assert block.tobytes() == np.array(uniform).tobytes()


def test_semi_block_endfire_pair_matches_oracle(monkeypatch):
    # BS 0 sees user (0, 0) at theta = 0 and user (1, 0) at theta = pi, so
    # h^H h' = (-1)^(N-1) N; pilot contamination makes the sign matter
    def endfire_angles(rngs, out):
        angles = draw_angles(rngs, out)
        angles[:, 1, 0, :, 0] = (0.0, np.pi)          # theta[0, l, 0] of every trial
        return angles
    monkeypatch.setattr(rate, "draw_angles", endfire_angles)
    for N in (63, 64):
        cfg = _cfg(L=2, K=1, N=N, adc_bits=3, seed=3)
        real = sample_channel(cfg, substream(cfg.seed, 0, STAGE_CHANNEL))
        real.theta[0, :, 0] = (0.0, np.pi)
        real.h_B[0] = steering_vector(real.theta[0], N)
        training = train_beams(real, cfg)
        _, mu, _ = pilot_statistics(real, training, cfg)
        S, I, I_floor = _conditional_powers(real, training, mu[0],
                                            _sigma_q2(cfg, real, training), cfg, 0)
        table = rate._run_tables(cfg)
        theta0, c0, bg, total, a = rate._draw_block(cfg, range(1),
                                                    streams(cfg.seed, STAGE_CHANNEL), table)
        assert np.array_equal(theta0[0, :, 0], (0.0, np.pi))
        got, bad = rate._semi_block(cfg, table, theta0, c0, bg, total, a,
                                    rate._semi_workspace(1, cfg.L, cfg.K))
        for g, e in zip((a ** 2, got), (S, np.where(I <= 0.0, I_floor, I))):
            np.testing.assert_allclose(g[0], e, rtol=1e-9)
        assert bad == np.sum(I <= 0.0)


def _buffers(workspace):
    """The arrays of an engine workspace, also those in nested tuples."""
    for item in workspace:
        yield from _buffers(item) if isinstance(item, tuple) else (item,)


def _dirty(workspace):
    """Set every byte of an engine workspace: its floats read NaN."""
    for buf in _buffers(workspace):
        buf.reshape(-1).view(np.uint8).fill(0xFF)


@pytest.mark.parametrize("cfg", [
    *(_fig2_cfg(K) for K in (2, 8, 16, 32)),
    _fig2_cfg(4, L=1),
    _cfg(L=3, K=2, N=64, adc_bits=1, p_t=1.0, p_p=2.0, seed=7),
], ids=["fig2-K2", "fig2-K8", "fig2-K16", "fig2-K32", "L1", "floor-seed7"])
def test_semi_block_in_a_reused_workspace_matches_a_fresh_one(cfg):
    # one dirtied workspace over a block of two full sub-blocks and a partial
    # last one of one trial, against a fresh workspace for each sub-block
    # alone; at L = 1, y outgrows an (LK, LK) array
    sub = rate._block_trials(cfg, "semi")
    table = rate._run_tables(cfg)
    drawn = rate._draw_block(cfg, range(2 * sub + 1), streams(cfg.seed, STAGE_CHANNEL), table)
    workspace = rate._semi_workspace(sub, cfg.L, cfg.K)
    _dirty(workspace)
    reused, floor = rate._semi_block(cfg, table, *drawn, workspace)
    fresh = []
    for i in range(0, len(reused), sub):
        args = [x[i:i + sub] for x in drawn]
        fresh.append(rate._semi_block(cfg, table, *args,
                                      rate._semi_workspace(len(args[0]), cfg.L, cfg.K)))
    rows, floors = zip(*fresh)
    assert reused.tobytes() == np.concatenate(rows).tobytes()
    assert floor.tobytes() == np.concatenate(floors).tobytes()
    assert len(reused) % sub == 1
    if cfg.seed == 7:
        assert floor.sum() > 0


@pytest.mark.parametrize("mode", rate.MODES)
def test_a_run_builds_one_workspace_per_worker(monkeypatch, mode):
    # 40 one-trial blocks on 2 workers: no block or trial builds its own
    # workspace, and none outlives the run
    _pooled(monkeypatch)
    built, refs = [], []
    name = f"_{mode}_workspace"
    build = getattr(rate, name)

    def record(*args):
        built.append(threading.get_ident())
        workspace = build(*args)
        refs.extend(weakref.ref(buf) for buf in _buffers(workspace))
        return workspace

    monkeypatch.setattr(rate, name, record)
    ergodic_rate(_fig2_cfg(8) if mode == "semi" else _cfg(L=2, K=2), 40, mode=mode)
    assert 1 <= len(built) <= 2 and len(set(built)) == len(built)
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)


@settings(max_examples=25, deadline=None)
@given(L=st.integers(1, 3), K=st.integers(1, 8), N=st.integers(4, 256),
       M=st.integers(1, 8), B=st.integers(0, 6), seed=st.integers(0, 2 ** 16),
       quantizer=st.one_of(st.integers(1, 12).map(lambda b: {"adc_bits": b}),
                           st.floats(0.0, 0.9).map(lambda r: {"rho_ad": r})))
def test_block_engine_matches_oracle_property(L, K, N, M, B, seed, quantizer):
    cfg = SystemConfig(L=L, K=K, N=N, M=M, B=B, seed=seed, **quantizer)
    _assert_engine_matches_oracle(cfg, 10)


def test_ergodic_rate_rejects_non_finite_siqnr():
    # finite inputs whose signal power overflows
    cfg = _cfg(L=1, K=1, N=16, adc_bits=3, p_t=1e308, p_p=1.0)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(InternalConsistencyError):
        ergodic_rate(cfg, 10)


def _pooled(monkeypatch, workers=2, budget=1):
    """Run trial blocks on `workers` threads, one trial per block by default."""
    monkeypatch.setattr(rate, "WORKERS", workers)
    monkeypatch.setattr(rate, "BLOCK_BYTES", budget)


def test_pooled_blocks_run_in_the_callers_context(monkeypatch, recwarn):
    # np.errstate is a context variable; a pool thread starts with an empty context
    _pooled(monkeypatch)
    cfg = _cfg(L=1, K=1, N=16, adc_bits=3, p_t=1e308, p_p=1.0)
    for mode in rate.MODES:
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            ergodic_rate(cfg, 10, mode=mode)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(InternalConsistencyError):
            ergodic_rate(cfg, 10, mode=mode)
    assert [w.message for w in recwarn if issubclass(w.category, RuntimeWarning)] == []


# at fig2's K=32 point a drawn block then holds 14 trials and a Gram
# sub-block 3, so every drawn block ends in a partial sub-block
SEAM_BYTES = 3 * BLOCK_BYTES // 7


def _reports_by_workers(monkeypatch, cfg, trials, mode, workers_list=(1, 2, 3)):
    """One report per worker count and budget: one trial per block,
    SEAM_BYTES, the default budget and one block for all trials."""
    reports = []
    for workers in workers_list:
        for budget in (1, SEAM_BYTES, BLOCK_BYTES, 10 ** 9):
            _pooled(monkeypatch, workers, budget)
            reports.append(ergodic_rate(cfg, trials, mode=mode))
    return reports


def _assert_same_outputs(reports):
    first = reports[0]
    for rep in reports[1:]:
        np.testing.assert_array_equal(rep.S, first.S)
        np.testing.assert_array_equal(rep.I, first.I)
        assert (rep.rate_mc, rep.ci95, rep.pathological) == (
            first.rate_mc, first.ci95, first.pathological)


# seed 7 realizes the destructive-contamination floor at trial 75
FLOOR_SEED7 = _cfg(L=3, K=2, N=64, adc_bits=1, p_t=1.0, p_p=2.0, seed=7)

# the benchmark's symbol_k8 config: the fig2 base with K=8, 3-bit ADCs, p_p=8
SYMBOL_K8 = config_from_dict(dict(load_preset("fig2").base, K=8, adc_bits=3, p_p=8.0))


@pytest.mark.parametrize("mode, cfg, trials, blocks", [
    ("semi", FLOOR_SEED7, 900, 2),
    ("semi", FLOOR_SEED7, 100, 1),
    ("semi", _fig2_cfg(32), 81, 2),
    ("symbol", FLOOR_SEED7, 30, 1),
    ("symbol", SYMBOL_K8, 100, 1),
    ("symbol", _cfg(L=1, K=16, N=16, adc_bits=2, p_p=16.0, seed=3), 200, 1),
], ids=["semi-floor-seed7", "semi-floor-seed7-100", "semi-fig2-K32", "symbol-floor-seed7",
        "symbol-symbol_k8", "symbol-L1"])
def test_outputs_do_not_depend_on_block_size_or_worker_count(monkeypatch, mode, cfg, trials,
                                                             blocks):
    # every budget on one, two and three workers gives the same bits; symbol
    # runs hold OpenBLAS at one thread on every worker count
    reports = _reports_by_workers(monkeypatch, cfg, trials, mode)
    _assert_same_outputs(reports)
    assert rate._block_trials(cfg) >= trials                # the last budget: one block
    if cfg is FLOOR_SEED7 and mode == "semi":
        assert reports[0].pathological > 0
    monkeypatch.setattr(rate, "BLOCK_BYTES", BLOCK_BYTES)
    drawn = rate._block_trials(cfg)
    assert -(-trials // drawn) == blocks                    # blocks at the default budget
    # run as [0, split) and [split, n), split no multiple of the drawn block,
    # the rows concatenate to those of [0, n) bit for bit
    split = trials // 2 + 1
    assert split % drawn
    whole = rate.run_trials(cfg, range(trials), mode)
    parts = [rate.run_trials(cfg, r, mode) for r in (range(split), range(split, trials))]
    for rows, pieces in zip(whole, zip(*parts), strict=True):
        assert rows.tobytes() == np.concatenate(pieces).tobytes()
    if cfg.K == 32:
        # at SEAM_BYTES each drawn block, the last one too, runs several Gram
        # sub-blocks, the last partial
        monkeypatch.setattr(rate, "BLOCK_BYTES", SEAM_BYTES)
        drawn, sub = rate._block_trials(cfg), rate._block_trials(cfg, "semi")
        for size in {drawn, trials % drawn or drawn}:
            assert size >= 2 * sub and size % sub
    if mode == "symbol" and cfg is not FLOOR_SEED7:
        # the default budget's drawn block runs several pilot sub-blocks,
        # the last one partial, and SEAM_BYTES makes several drawn blocks
        sub = rate._block_trials(cfg, "symbol")
        assert drawn >= trials > sub and trials % sub
        monkeypatch.setattr(rate, "BLOCK_BYTES", SEAM_BYTES)
        assert rate._block_trials(cfg) < trials


@pytest.mark.parametrize("trials", [range(0), range(7, 7)], ids=["range0", "range7-7"])
@pytest.mark.parametrize("mode", rate.MODES)
def test_an_empty_range_gives_empty_rows_and_starts_no_pool(monkeypatch, mode, trials):
    # an extension run's [n0, n) may be empty: no pool, no BLAS hold, (0, K) rows
    def refuse(*args):
        raise AssertionError("an empty range started engine work")

    for name in ("ThreadPoolExecutor", "_blas_thread_calls", "_one_blas_thread", "_run_tables"):
        monkeypatch.setattr(rate, name, refuse)
    S, I, floor = rate.run_trials(_cfg(L=2, K=3), trials, mode)
    assert (S.shape, I.shape, floor.shape) == ((0, 3), (0, 3), (0,))
    assert (S.dtype, I.dtype, floor.dtype) == (float, float, int)


def test_blocks_are_sized_for_the_draws(monkeypatch):
    # fig2's K=32 point draws 62 trials per block, in Gram sub-blocks of 7
    sizes = []
    draw_block = rate._draw_block

    def record(cfg, trials, *streams):
        sizes.append(len(trials))
        return draw_block(cfg, trials, *streams)

    monkeypatch.setattr(rate, "_draw_block", record)
    ergodic_rate(_fig2_cfg(32), 2000)
    assert len(sizes) == 33
    assert sorted(sizes)[:2] == [16, 62]
    assert rate._block_trials(_fig2_cfg(32), "semi") == 7


@pytest.mark.parametrize("cfg", [_fig2_cfg(2), _fig2_cfg(8), _fig2_cfg(32),
                                 *(_fig2_cfg(8, M=M) for M in (8, 20, 64)),
                                 _cfg(L=1, K=1, B=12, adc_bits=1, seed=5)],
                         ids=["fig2-K2", "fig2-K8", "fig2-K32", "fig2-K8-M8", "fig2-K8-M20",
                              "fig2-K8-M64", "L1-K1-B12"])
def test_a_drawn_block_holds_what_its_count_says(cfg):
    # _block_trials counts a drawn block's share per trial from a trace of
    # the draw stage and _semi_block on its outputs, after numpy's per-call
    # buffers, which do not shrink with the block and matter most where
    # large M makes blocks small; the run's table, beam table and workspace
    # are built before the trace, as in a run
    trials = rate._block_trials(cfg)
    table = rate._run_tables(cfg)
    workspace = rate._semi_workspace(rate._block_trials(cfg, "semi"), cfg.L, cfg.K)
    channel = streams(cfg.seed, STAGE_CHANNEL)
    rate._draw_block(cfg, range(1), channel, table)
    tracemalloc.start()
    try:
        rate._semi_block(cfg, table, *rate._draw_block(cfg, range(trials), channel, table),
                         workspace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= BLOCK_BYTES


def test_pooled_block_memory_is_bounded_per_worker(monkeypatch):
    # each worker holds one block of BLOCK_BYTES at a time
    _pooled(monkeypatch, budget=BLOCK_BYTES)
    cfg = _fig2_cfg(32)
    trials = 20 * rate._block_trials(cfg)
    tracemalloc.start()
    try:
        ergodic_rate(cfg, trials)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 3 * BLOCK_BYTES


def test_a_failing_block_stops_the_run(monkeypatch):
    # map's iterator cancels the blocks that have not started
    _pooled(monkeypatch)
    calls = itertools.count()
    semi_block = rate._semi_block

    def fail_first(*args):
        if next(calls) == 0:
            raise RuntimeError("first block failed")
        return semi_block(*args)

    monkeypatch.setattr(rate, "_semi_block", fail_first)
    with pytest.raises(RuntimeError, match="first block failed"):
        ergodic_rate(_cfg(), 100)
    assert next(calls) < 50


needs_blas_pin = pytest.mark.skipif(
    rate._blas_thread_calls() is None, reason="numpy's BLAS exposes no OpenBLAS thread count")


def _blas_threads():
    return rate._blas_thread_calls()[0]()


def _symbol_args(cfg, table, trials):
    """rate._symbol_block's arguments after cfg, but the workspace, for a drawn block."""
    channel, pilots, data = (streams(cfg.seed, stage)
                             for stage in (STAGE_CHANNEL, STAGE_PILOT, STAGE_DATA))
    theta0, c0, _, total, a = rate._draw_block(cfg, trials, channel, table)
    return table, pilots, data, trials, theta0, c0, total, a


@pytest.mark.parametrize("cfg", [
    SYMBOL_K8,
    _cfg(L=3, K=16, N=16, adc_bits=2, p_p=16.0, seed=3),
], ids=["symbol_k8", "LK-over-N"])
def test_symbol_trial_in_a_reused_workspace_matches_a_fresh_one(cfg):
    # one dirtied workspace over a block of two full pilot sub-blocks of 3
    # trials and a partial one of 1, against a fresh workspace for each
    # trial alone; past N users the draws' scratch is sized by LK
    table = rate._run_tables(cfg)
    workspace = rate._symbol_workspace(cfg, 3)
    _dirty(workspace)
    reused = rate._symbol_block(cfg, *_symbol_args(cfg, table, range(7)), workspace)
    fresh = [rate._symbol_block(cfg, *_symbol_args(cfg, table, range(t, t + 1)),
                                rate._symbol_workspace(cfg, 1))
             for t in range(7)]
    assert reused.tobytes() == np.concatenate(fresh).tobytes()


@pytest.mark.parametrize("cfg", [
    SYMBOL_K8,
    _cfg(L=3, K=16, N=16, adc_bits=2, p_p=16.0, seed=3),
], ids=["symbol_k8", "LK-over-N"])
def test_a_symbol_block_holds_what_its_count_says(cfg):
    # a default-sized drawn block, its draws, pilot sub-blocks and data
    # phases, traces within BLOCK_BYTES; so does one pilot sub-block, past
    # its draws, with its rows of the workspace's pilot arrays, which
    # _block_trials(cfg, "symbol") counts.  The run's tables and workspace
    # are built before the trace, as in a run
    block, sub = rate._block_trials(cfg), rate._block_trials(cfg, "symbol")
    table = rate._run_tables(cfg)
    workspace = rate._symbol_workspace(cfg, sub)
    rate._symbol_block(cfg, *_symbol_args(cfg, table, range(1)), workspace)
    tracemalloc.start()
    try:
        rate._symbol_block(cfg, *_symbol_args(cfg, table, range(block)), workspace)
        block_peak = tracemalloc.get_traced_memory()[1]
        args = _symbol_args(cfg, table, range(sub))
        drawn = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        rate._symbol_block(cfg, *args, workspace)
        sub_peak = tracemalloc.get_traced_memory()[1] - drawn
    finally:
        tracemalloc.stop()
    assert block > 2 * sub > 2
    assert block_peak <= BLOCK_BYTES
    assert sub_peak + sum(buf.nbytes for buf in _buffers(workspace[0])) <= BLOCK_BYTES


def test_symbol_run_builds_its_pilot_matrix_once(monkeypatch):
    # one run of 20 one-trial blocks on 2 workers
    _pooled(monkeypatch)
    built = []
    build = rate.build_pilot_matrix

    def record(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(rate, "build_pilot_matrix", record)
    ergodic_rate(_cfg(L=2, K=2), 20, mode="symbol")
    assert built == [(2, 2)]


@needs_blas_pin
def test_symbol_run_restores_the_blas_thread_count(monkeypatch):
    _pooled(monkeypatch)
    symbol_trial = rate._symbol_trial
    inside = []

    def record(*args):
        inside.append(_blas_threads())
        return symbol_trial(*args)

    monkeypatch.setattr(rate, "_symbol_trial", record)
    before = _blas_threads()
    ergodic_rate(_cfg(L=2, K=2), 20, mode="symbol")
    assert set(inside) == {1}
    assert _blas_threads() == before

    def fail(*args):
        raise RuntimeError("block failed")

    monkeypatch.setattr(rate, "_symbol_trial", fail)
    with pytest.raises(RuntimeError, match="block failed"):
        ergodic_rate(_cfg(L=2, K=2), 20, mode="symbol")
    assert _blas_threads() == before


@needs_blas_pin
def test_concurrent_symbol_runs_take_turns_holding_the_blas_pool(monkeypatch):
    # more callers than cores, switching often: no two runs hold the pool at
    # once, the count comes back as found, and every run gives the lone run's outputs
    _pooled(monkeypatch)
    cfg = _cfg(L=2, K=2, seed=9)
    alone = ergodic_rate(cfg, 40, mode="symbol")
    before = _blas_threads()
    reports, errors = [], []
    lock, holders, most = threading.Lock(), [0], [0]
    one_blas_thread = rate._one_blas_thread

    @contextlib.contextmanager
    def counted(*calls):
        with one_blas_thread(*calls):
            with lock:
                holders[0] += 1
                most[0] = max(most[0], holders[0])
            try:
                yield
            finally:
                with lock:
                    holders[0] -= 1

    monkeypatch.setattr(rate, "_one_blas_thread", counted)

    def run():
        try:
            reports.append(ergodic_rate(cfg, 40, mode="symbol"))
        except Exception as exc:     # a thread cannot fail the test; report it below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run) for _ in range(2 * os.cpu_count() + 2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(reports) == len(threads)
    assert most[0] == 1
    _assert_same_outputs([alone] + reports)
    assert _blas_threads() == before


def test_symbol_mode_without_a_blas_pin_runs_on_one_worker(monkeypatch):
    cfg = _cfg(L=3, K=2, N=32, adc_bits=2, seed=5)
    pooled = _reports_by_workers(monkeypatch, cfg, 30, "symbol", workers_list=(1, 2))
    sizes = []
    pool_type = rate.ThreadPoolExecutor

    def recording_pool(workers):
        sizes.append(workers)
        return pool_type(workers)

    monkeypatch.setattr(rate, "_blas_thread_calls", lambda: None)
    monkeypatch.setattr(rate, "ThreadPoolExecutor", recording_pool)
    unheld = _reports_by_workers(monkeypatch, cfg, 30, "symbol", workers_list=(2,))
    assert sizes == [1] * len(unheld)         # one pool per budget, each of one worker
    _assert_same_outputs(pooled + unheld)


@needs_blas_pin
def test_blas_thread_calls_fall_back_to_numpy_core_where_numpy_core_is_absent(monkeypatch):
    # numpy 1.x has no numpy._core and loads its extension module as
    # numpy.core._multiarray_umath; numpy 2's deprecated shim of that name is
    # never touched while numpy._core exists (tier-1 makes its warning an error)
    found = rate._blas_thread_calls.__wrapped__()
    monkeypatch.setitem(sys.modules, "numpy.core._multiarray_umath", np._core._multiarray_umath)
    monkeypatch.delattr(np, "_core")
    fallback = rate._blas_thread_calls.__wrapped__()
    assert fallback is not None
    for got, want in zip(fallback, found, strict=True):    # the same OpenBLAS entry points
        assert ctypes.cast(got, ctypes.c_void_p).value == ctypes.cast(want, ctypes.c_void_p).value


def test_ergodic_rate_trials_precondition():
    with pytest.raises(ParameterError):
        ergodic_rate(_cfg(), 5)


@pytest.mark.parametrize("trials", [20.5, True], ids=["float", "bool"])
def test_ergodic_rate_trials_must_be_an_integer(trials):
    # the rule a sweep spec's trials pass, with the same message
    with pytest.raises(ParameterError, match=f"trials must be an integer >= 10, got {trials!r}"):
        ergodic_rate(_cfg(), trials)


def test_ci_shrinks_with_trials():
    cfg = _cfg(L=2, K=2, N=16, adc_bits=2, seed=3)
    small = ergodic_rate(cfg, 200)
    big = ergodic_rate(cfg, 800)
    ratio = big.ci95 / small.ci95
    assert 0.3 < ratio < 0.75  # ~1/2 expected


def test_rate_monotone_in_N_and_bits():
    rates_N = [ergodic_rate(_cfg(L=2, K=2, N=n, adc_bits=2, seed=17), 300).rate_mc
               for n in (8, 16, 32, 64)]
    assert all(a < b for a, b in zip(rates_N, rates_N[1:]))
    rates_b = [ergodic_rate(_cfg(L=2, K=2, N=32, adc_bits=b, seed=17), 300).rate_mc
               for b in (1, 2, 3, 5)]
    assert all(a < b for a, b in zip(rates_b, rates_b[1:]))


def test_rate_bound_holds_on_regression_grid():
    from mmwsim.bounds import lower_bound_rate
    for K in (2, 4):
        for bits in (1, 3):
            cfg = _cfg(L=3, K=K, N=64, adc_bits=bits, p_t=1.0, p_p=float(K), seed=23)
            rep = ergodic_rate(cfg, 400)
            assert rep.rate_mc + rep.ci95 >= lower_bound_rate(cfg).R_LB


def test_semi_and_symbol_signal_powers_are_identical():
    # both modes square the draw stage's clean amplitude a; only I differs
    cfg = _cfg(L=3, K=4, adc_bits=3, seed=11)
    semi, symbol = (ergodic_rate(cfg, 50, mode=m) for m in ("semi", "symbol"))
    assert np.array_equal(semi.S, symbol.S)


def test_symbol_mode_needs_bits():
    cfg = _cfg(rho_ad=0.25, adc_bits=None, L=1, K=1)
    with pytest.raises(ParameterError):
        ergodic_rate(cfg, 10, mode="symbol")


def test_symbol_mode_rejects_rho_ad_override():
    # the real quantizer is the adc_bits one; scaling it by 1 - rho_ad would
    # evaluate a different model from the semi-analytic mode
    cfg = _cfg(L=3, K=4, N=64, adc_bits=3, rho_ad=0.3, seed=7)
    assert ergodic_rate(cfg, 10).rate_mc > 0.0
    with pytest.raises(ParameterError, match="rho_ad"):
        ergodic_rate(cfg, 10, mode="symbol")


def test_block_memory_stays_bounded_when_every_user_falls_back(monkeypatch):
    # one cell of one user makes the largest blocks; at B = 12 an unchunked
    # full scan of a 1000-trial block would hold 1000 x 4096 scores (33 MB)
    cfg = _cfg(L=1, K=1, B=12, adc_bits=1, seed=5)
    certified = ergodic_rate(cfg, 1000)
    # an infinite sidelobe bound certifies no score, so a fresh table is empty
    monkeypatch.setattr(training, "_sidelobe_bound", lambda M: np.inf)
    monkeypatch.setattr(training, "_beam_table", functools.cache(training._beam_table.__wrapped__))
    scanned = []
    scan = training._full_scan
    monkeypatch.setattr(training, "_full_scan",
                        lambda c, cb, M: scanned.append(len(c)) or scan(c, cb, M))
    tracemalloc.start()
    try:
        fallback = ergodic_rate(cfg, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * BLOCK_BYTES
    assert sum(scanned) == 1000                       # one user per trial
    np.testing.assert_array_equal(fallback.S, certified.S)
    np.testing.assert_array_equal(fallback.I, certified.I)


@pytest.mark.parametrize("shape", [(64, 256), (24, 3), 1000, ()])
def test_complex_normal_is_the_pinned_draw(shape):
    # the draws of symbol mode: sqrt(1/2) (re + 1j im), real block first, bit
    # for bit, into fresh arrays and into given ones whose every byte was set
    ref_rng = substream(11, 4)
    ref = np.sqrt(0.5) * (ref_rng.standard_normal(shape) + 1j * ref_rng.standard_normal(shape))
    after = ref_rng.random()
    given = (np.empty(shape, dtype=complex), np.empty(2 * np.prod(shape, dtype=int) + 3))
    _dirty(given)
    for buffers in ((), given):
        got_rng = substream(11, 4)
        got = complex_normal(got_rng, shape, *buffers)
        assert got.shape == ref.shape and got.dtype == complex
        assert got.tobytes() == ref.tobytes()
        assert got_rng.random() == after     # the same draws were consumed
    assert got is given[0]


def test_unknown_mode():
    # one name per mode: the long forms are not aliases
    for mode in ("exact", "semi_analytic", "symbol_level"):
        with pytest.raises(ParameterError, match="unknown mode"):
            ergodic_rate(_cfg(), 10, mode=mode)


def test_report_shapes_and_nonnegative_gamma():
    cfg = _cfg(L=2, K=3, N=16, adc_bits=2, seed=31)
    rep = ergodic_rate(cfg, 50)
    assert rep.S.shape == rep.I.shape == (50, 3)
    assert np.all(rep.S / rep.I >= 0.0)
    assert np.all(rep.I > 0.0)
    assert rep.rate_mc >= 0.0

