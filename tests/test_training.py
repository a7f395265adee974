import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmwsim import training
from mmwsim.channel import steering_vector
from mmwsim.config import MAX_B, SystemConfig
from mmwsim.errors import ParameterError
from mmwsim.rng import substream
from mmwsim.training import beamformer_from_angle, build_codebook, select_beams, _candidate_gains
from oracles import estimate_aoa, sample_channel, train_beams


def test_codebook_b0():
    np.testing.assert_allclose(build_codebook(0), [np.pi / 2])


def test_codebook_b1():
    np.testing.assert_allclose(build_codebook(1), [np.pi / 4, 3 * np.pi / 4])


def test_codebook_rejects_negative_B():
    with pytest.raises(ParameterError, match="B must be >= 0, got -1"):
        build_codebook(-1)
    for B in (2.5, 3.0, True):
        with pytest.raises(ParameterError, match=f"B must be an integer, got {B!r}"):
            build_codebook(B)


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


def _full_scan_argmax(phi, codebook, M):
    return np.argmax(_candidate_gains(np.cos(phi), np.cos(codebook), M), axis=-1)


def _near_codebook(codebook, index, kind):
    """An angle on, next to or midway between codebook entries, or at an end."""
    psi = codebook[index % len(codebook)]
    nxt = codebook[(index + 1) % len(codebook)]
    return {"on": psi, "below": np.nextafter(psi, 0.0), "above": np.nextafter(psi, 4.0),
            "mid": 0.5 * (psi + nxt), "cos_mid": np.arccos(0.5 * (np.cos(psi) + np.cos(nxt))),
            "zero": 0.0, "pi": np.pi, "near_zero": 1e-9, "near_pi": np.pi - 1e-9}[kind]


_KINDS = ("on", "below", "above", "mid", "cos_mid", "zero", "pi", "near_zero", "near_pi")


@given(M=st.integers(1, 64), B=st.integers(0, MAX_B),
       picks=st.lists(st.tuples(st.integers(0, 4095), st.sampled_from(_KINDS)), max_size=12),
       uniform=st.lists(st.floats(0.0, np.pi), max_size=12))
@settings(max_examples=300, deadline=None)
def test_select_beams_equals_full_scan(M, B, picks, uniform):
    cb = build_codebook(B)
    phi = np.array([_near_codebook(cb, i, kind) for i, kind in picks] + uniform + [0.0, np.pi])
    np.testing.assert_array_equal(select_beams(phi, cb, M), _full_scan_argmax(phi, cb, M))


@pytest.mark.parametrize("M,B", [(2, 0), (2, 1), (3, 3), (4, 6), (16, 3), (32, 4), (64, 6), (2, 8), (5, 8),
                                 (10, 6), (20, 6)])
def test_select_beams_equals_full_scan_on_a_dense_grid(M, B):
    cb = build_codebook(B)
    rng = np.random.default_rng(M * 100 + B)
    edges = np.concatenate([cb, np.nextafter(cb, 0.0), np.nextafter(cb, 4.0),
                            0.5 * (cb[1:] + cb[:-1]), [0.0, np.pi, 1e-9, np.pi - 1e-9]])
    phi = np.concatenate([rng.uniform(0.0, np.pi, 20_000 + len(edges) % 2), edges]).reshape(-1, 2)
    got = select_beams(phi, cb, M)
    assert got.shape == phi.shape
    np.testing.assert_array_equal(got, _full_scan_argmax(phi, cb, M))


def test_forced_fallback_scans_in_chunks(monkeypatch):
    # with no certificate every user is scanned in full, 3 users per chunk
    calls = []
    gains = training._candidate_gains
    monkeypatch.setattr(training, "_sidelobe_bound", lambda M: np.inf)
    monkeypatch.setattr(training, "BLOCK_BYTES", 3 * 16 * 64)
    monkeypatch.setattr(training, "_candidate_gains",
                        lambda c, cb, M: calls.append(np.shape(c)) or gains(c, cb, M))
    cb = build_codebook(6)
    phi = np.random.default_rng(3).uniform(0.0, np.pi, (4, 5))
    got = select_beams(phi, cb, 4)
    np.testing.assert_array_equal(got, _full_scan_argmax(phi, cb, 4))
    assert calls[1:] == [(3,)] * 6 + [(2,)]     # after the six-candidate pass


_SETTLE_CASES = [(2, 6), (4, 6), (5, 6), (8, 6), (10, 6), (20, 6),
                 (2, 10), (8, 10), (16, 10), (2, 12), (8, 12), (16, 12)]


@pytest.mark.parametrize("M, B", _SETTLE_CASES,
                         ids=[f"{M}" if B == 6 else f"{M}-B{B}" for M, B in _SETTLE_CASES])
def test_certificate_settles_nearly_every_user(monkeypatch, M, B):
    # a certificate that always fell back would still be exact, only slow;
    # at fine codebooks the best and runner-up nearly tie on the flat main
    # lobe, so the margin must be a rounding bound, not a loose factor
    scanned = []
    scan = training._full_scan
    monkeypatch.setattr(training, "_full_scan",
                        lambda c, cb, M: scanned.append(len(c)) or scan(c, cb, M))
    phi = np.random.default_rng(M).uniform(0.0, np.pi, 100_000)
    select_beams(phi, build_codebook(B), M)
    assert sum(scanned) <= 0.01 * len(phi)


@pytest.mark.parametrize("B", [6, 10, 12])
@pytest.mark.parametrize("M", [2, 5, 8, 16])
def test_select_beams_equals_full_scan_at_fine_codebooks(M, B):
    # near-ties on the main lobe, and users near 0 and pi, whose far-end
    # codewords wrap and, unless M is a power of two, carry the largest
    # rounding in their scores
    cb = build_codebook(B)
    rng = np.random.default_rng(M * 100 + B)
    picks = rng.integers(0, len(cb), 100)
    tiny = 10.0 ** -np.arange(1, 13)
    phi = np.concatenate([rng.uniform(0.0, np.pi, 1000), tiny, np.pi - tiny, [0.0, np.pi],
                          *([_near_codebook(cb, i, kind) for i in picks]
                            for kind in ("on", "below", "above", "mid", "cos_mid"))])
    np.testing.assert_array_equal(select_beams(phi, cb, M), _full_scan_argmax(phi, cb, M))


def test_sidelobe_bound_covers_the_sidelobes():
    # the proof holds for every M >= 3; a dense grid only ever undershoots the peak
    for M in range(3, 129):
        y = np.linspace(np.pi / M, np.pi / 2, 200_001)
        peak = np.max(np.abs(np.sin(M * y) / np.sin(y))) / math.sqrt(M)
        assert peak <= training._sidelobe_bound(M)


def test_sidelobe_bound_closed_form():
    assert training._sidelobe_bound(1) == training._sidelobe_bound(2) == 0.0
    for M in (3, 4, 5, 8, 16, 20, 64):
        assert training._sidelobe_bound(M) == 1.0 / (math.sqrt(M) * math.sin((math.pi + 1.0) / M))
