import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmwsim import training
from mmwsim.channel import steering_vector
from mmwsim.config import MAX_B, SystemConfig
from mmwsim.errors import ParameterError
from mmwsim.rng import substream
from mmwsim.sweep import _point_config, load_preset
from mmwsim.training import beamformer_from_angle, build_codebook, select_beams, _candidate_gains
from oracles import estimate_aoa, sample_channel, train_beams


def test_codebook_b0():
    np.testing.assert_allclose(build_codebook(0), [np.pi / 2])


def test_codebook_b1():
    np.testing.assert_allclose(build_codebook(1), [np.pi / 4, 3 * np.pi / 4])


def test_codebook_rejects_negative_B():
    with pytest.raises(ParameterError, match="B must be a non-negative integer, got -1"):
        build_codebook(-1)
    for B in (2.5, 3.0, True):
        with pytest.raises(ParameterError, match=f"B must be a non-negative integer, got {B!r}"):
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


def _assert_picks_the_full_scan(got, cos_phi, codebook, M):
    """`got` holds each computed cos phi's best codeword by a scan of the
    whole codebook, scored about 2^16 scores at a time."""
    flat, rows = np.ravel(cos_phi), max(1, (1 << 16) // len(codebook))
    best = [np.argmax(_candidate_gains(flat[i:i + rows], np.cos(codebook), M), axis=-1)
            for i in range(0, len(flat), rows)]
    np.testing.assert_array_equal(got, np.concatenate(best).reshape(np.shape(cos_phi)))


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
    _assert_picks_the_full_scan(select_beams(phi, M, B), np.cos(phi), cb, M)


def _dense_grid(cb, M, B):
    """20k uniform angles, the codewords, the doubles beside them, the
    midpoints and the ends, as an (n, 2) array."""
    rng = np.random.default_rng(M * 100 + B)
    edges = np.concatenate([cb, np.nextafter(cb, 0.0), np.nextafter(cb, 4.0),
                            0.5 * (cb[1:] + cb[:-1]), [0.0, np.pi, 1e-9, np.pi - 1e-9]])
    return np.concatenate([rng.uniform(0.0, np.pi, 20_000 + len(edges) % 2), edges]).reshape(-1, 2)


def _fine_codebook(cb, M, B):
    """Near-ties on the main lobe, and users near 0 and pi, whose far-end
    codewords wrap and, unless M is a power of two, carry the largest
    rounding in their scores."""
    rng = np.random.default_rng(M * 100 + B)
    picks = rng.integers(0, len(cb), 100)
    tiny = 10.0 ** -np.arange(1, 13)
    return np.concatenate([rng.uniform(0.0, np.pi, 1000), tiny, np.pi - tiny, [0.0, np.pi],
                           *([_near_codebook(cb, i, kind) for i in picks]
                             for kind in ("on", "below", "above", "mid", "cos_mid"))])


_FAMILIES = {"grid": _dense_grid, "fine": _fine_codebook}
_FAMILY_CASES = (
    [("grid", M, B) for M, B in [(2, 0), (2, 1), (3, 3), (4, 6), (16, 3), (32, 4), (64, 6),
                                 (2, 8), (5, 8), (10, 6), (20, 6)]]
    + [("fine", M, B) for B in (6, 10, 12) for M in (2, 5, 8, 16)]
    + [("edges", M, B) for M, B in [(2, 6), (2, 12), (4, 6), (5, 6), (8, 10), (16, 8), (20, 6)]])


@pytest.mark.parametrize("family, M, B", _FAMILY_CASES,
                         ids=[f"{family}-{M}-{B}" for family, M, B in _FAMILY_CASES])
def test_select_beams_equals_full_scan_on_each_family(family, M, B):
    cb = build_codebook(B)
    if family == "edges":
        # certification stops at each interval's edges: at an edge and one
        # double either side of it, a lookup must pick what the full scan picks
        edges, index = training._beam_table(M, B)
        cos_phi = np.concatenate([edges, np.nextafter(edges, -2.0), np.nextafter(edges, 2.0)])
        cos_phi = cos_phi[np.abs(cos_phi) <= 1.0]
        _assert_picks_the_full_scan(training._lookup(cos_phi, M, B), cos_phi, cb, M)
        # lower edges and the doubles above them lie inside: the table answers those
        assert np.mean(index[np.searchsorted(edges, cos_phi, side="right")] >= 0) > 0.3
        phi = np.concatenate([cb, [0.0, np.pi]])       # and the codewords, through select_beams
    else:
        phi = _FAMILIES[family](cb, M, B)
    got = select_beams(phi, M, B)
    assert got.shape == phi.shape
    _assert_picks_the_full_scan(got, np.cos(phi), cb, M)


def test_forced_fallback_scans_in_chunks(monkeypatch):
    # with no certificate every user is scanned in full, 3 users per chunk;
    # an infinite sidelobe bound certifies no score, so a fresh table is empty
    calls = []
    gains = training._candidate_gains
    monkeypatch.setattr(training, "_sidelobe_bound", lambda M: np.inf)
    monkeypatch.setattr(training, "_beam_table", functools.cache(training._beam_table.__wrapped__))
    monkeypatch.setattr(training, "BLOCK_BYTES", 3 * 16 * 64)
    cb = build_codebook(6)
    edges, _ = training._beam_table(4, 6)
    np.testing.assert_array_equal(edges, np.repeat(np.cos(cb)[::-1], 2))    # every interval empty
    monkeypatch.setattr(training, "_candidate_gains",
                        lambda c, cb, M: calls.append(np.shape(c)) or gains(c, cb, M))
    phi = np.random.default_rng(3).uniform(0.0, np.pi, (4, 5))
    _assert_picks_the_full_scan(select_beams(phi, 4, 6), np.cos(phi), cb, 4)
    assert calls == [(3,)] * 6 + [(2,)]


_FIG2 = _point_config(load_preset("fig2"), {}, 2, {})
_SETTLE_CASES = [(_FIG2.M, _FIG2.B), (4, 6), (5, 6), (8, 6), (10, 6), (20, 6),
                 (2, 10), (8, 10), (16, 10), (2, 12), (8, 12), (16, 12)]


@pytest.mark.parametrize("M, B", _SETTLE_CASES,
                         ids=[f"{M}" if B == 6 else f"{M}-B{B}" for M, B in _SETTLE_CASES])
def test_certificate_settles_nearly_every_user(monkeypatch, M, B):
    # a table that always fell back would still be exact, only slow: its
    # intervals must place at least 99% of uniform users.  At fine codebooks
    # the best and runner-up nearly tie on the flat main lobe, so the margin
    # must be a rounding bound, not a loose factor
    scanned = []
    scan = training._full_scan
    monkeypatch.setattr(training, "_full_scan",
                        lambda c, cb, M: scanned.append(len(c)) or scan(c, cb, M))
    phi = np.random.default_rng(M).uniform(0.0, np.pi, 100_000)
    select_beams(phi, M, B)
    assert sum(scanned) <= 0.01 * len(phi)


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
