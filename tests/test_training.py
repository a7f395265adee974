import math

import numpy as np
import pytest

from mmwsim.channel import steering_vector
from mmwsim.config import SystemConfig
from mmwsim.rng import substream
from mmwsim.training import beamformer_from_angle, build_codebook, _candidate_gains
from oracles import estimate_aoa, sample_channel, train_beams


def test_codebook_b0():
    np.testing.assert_allclose(build_codebook(0), [np.pi / 2])


def test_codebook_b1():
    np.testing.assert_allclose(build_codebook(1), [np.pi / 4, 3 * np.pi / 4])


def test_codebook_b6():
    cb = build_codebook(6)
    assert len(cb) == 64
    assert cb[0] == pytest.approx(np.pi / 128)
    np.testing.assert_allclose(np.diff(cb), np.pi / 64)
    assert np.all((cb > 0) & (cb < np.pi))


def test_beamformer_single_antenna():
    np.testing.assert_allclose(beamformer_from_angle(0.3, 1), [1.0])


def test_beamformer_broadside_uniform():
    w = beamformer_from_angle(np.pi / 2, 4)
    np.testing.assert_allclose(w, np.full(4, 0.5), atol=1e-12)
    assert np.linalg.norm(w) == pytest.approx(1.0)


def test_perfect_alignment_attains_sqrt_M():
    for M in (1, 4, 9):
        phi = 0.8234
        c = np.vdot(steering_vector(phi, M), beamformer_from_angle(phi, M))
        assert abs(c) == pytest.approx(math.sqrt(M), rel=1e-12)


def test_two_antenna_exact_cancellation():
    c = np.vdot(steering_vector(0.0, 2), beamformer_from_angle(np.pi / 2, 2))
    assert abs(c) == pytest.approx(0.0, abs=1e-12)


def test_estimate_aoa_recovers_codebook_angle():
    cfg = SystemConfig(L=1, K=1, M=8, B=4, adc_bits=3, seed=0)
    cb = build_codebook(4)
    real = sample_channel(cfg, substream(0, 0))
    for idx in (0, 5, 15):
        real.phi[0, 0, 0] = cb[idx]
        real.h_U[0, 0, 0] = steering_vector(cb[idx], 8)
        assert estimate_aoa(real, cfg, 0, 0) == pytest.approx(cb[idx])


def test_estimate_aoa_single_antenna_tie_breaks_low():
    cfg = SystemConfig(L=1, K=1, M=1, B=3, adc_bits=3)
    real = sample_channel(cfg, substream(1, 0))
    # with one antenna every candidate scores identically
    assert estimate_aoa(real, cfg, 0, 0) == pytest.approx(build_codebook(3)[0])


def test_train_beams_matches_scalar_op():
    cfg = SystemConfig(L=2, K=3, M=4, adc_bits=2, seed=4)
    real = sample_channel(cfg, substream(cfg.seed, 0))
    training = train_beams(real, cfg)
    for l in range(2):
        for k in range(3):
            assert training.phi_hat[l, k] == pytest.approx(
                estimate_aoa(real, cfg, l, k))
            w = beamformer_from_angle(training.phi_hat[l, k], 4)
            np.testing.assert_allclose(training.w[l, k], w, atol=1e-12)
            for j in range(2):
                c = np.vdot(real.h_U[j, l, k], w)
                assert training.c[j, l, k] == pytest.approx(c, abs=1e-12)


def test_training_result_invariants():
    cfg = SystemConfig(L=3, K=4, M=8, adc_bits=1, seed=8)
    real = sample_channel(cfg, substream(cfg.seed, 0))
    training = train_beams(real, cfg)
    norms = np.linalg.norm(training.w, axis=-1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)
    np.testing.assert_allclose(np.abs(training.w), 1 / np.sqrt(8), atol=1e-12)
    assert np.all(np.abs(training.c) <= np.sqrt(8) + 1e-12)


@pytest.mark.parametrize("M", [2, 4, 8])
def test_selected_candidate_alignment(M):
    # the chosen codeword's cosine sits within one interval of the truth;
    # exactly at 0 and pi the two edge codewords tie with identical gain and
    # the low-index winner aliases, so the open interval is what's claimed
    B = 6
    zeta = np.pi / 2 ** (B + 1)
    cb = build_codebook(B)
    grid = np.linspace(0.0, np.pi, 10 ** 4 + 2)[1:-1]
    gains = _candidate_gains(np.cos(grid), np.cos(cb), M)
    chosen = cb[np.argmax(gains, axis=-1)]
    assert np.max(np.abs(np.cos(grid) - np.cos(chosen))) <= zeta + 1e-12

