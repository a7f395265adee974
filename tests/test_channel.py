import numpy as np
import pytest

from mmwsim.bounds import eta1
from mmwsim.channel import dirichlet, steering_vector
from mmwsim.config import SystemConfig
from mmwsim.errors import ParameterError
from mmwsim.rng import substream
from oracles import effective_channel, sample_channel, train_beams


def _cfg(**kw):
    base = dict(L=2, K=3, N=16, M=4, adc_bits=3, p_t=1.0, seed=1)
    base.update(kw)
    return SystemConfig(**base)


def test_steering_vector_broadside():
    np.testing.assert_allclose(steering_vector(np.pi / 2, 4), np.ones(4), atol=1e-12)


def test_steering_vector_endfire():
    np.testing.assert_allclose(steering_vector(0.0, 2), [1.0, -1.0], atol=1e-12)


def test_steering_vector_single_element():
    np.testing.assert_allclose(steering_vector(1.234, 1), [1.0])


def test_steering_vector_rejects_empty():
    with pytest.raises(ParameterError):
        steering_vector(0.5, 0)


def test_steering_vector_unit_modulus():
    v = steering_vector(0.777, 33)
    np.testing.assert_allclose(np.abs(v), 1.0, atol=1e-12)
    assert v[0] == 1.0 + 0.0j


def test_sample_channel_beta_pattern():
    cfg = _cfg(L=2, K=3)
    real = sample_channel(cfg, substream(cfg.seed, 0))
    assert np.all(real.beta[0, 0] == 1.0) and np.all(real.beta[1, 1] == 1.0)
    assert np.all(real.beta[0, 1] == cfg.beta_inter)
    assert np.all(real.beta[1, 0] == cfg.beta_inter)
    single = sample_channel(_cfg(L=1, K=1), substream(1, 0))
    assert single.beta[0, 0, 0] == 1.0


def test_sample_channel_deterministic_per_trial():
    cfg = _cfg(seed=9)
    a = sample_channel(cfg, substream(cfg.seed, 5))
    b = sample_channel(cfg, substream(cfg.seed, 5))
    c = sample_channel(cfg, substream(cfg.seed, 6))
    np.testing.assert_array_equal(a.phi, b.phi)
    assert not np.array_equal(a.phi, c.phi)


def test_channel_matrix_rank_one_and_norm():
    cfg = _cfg()
    for t in range(100):
        real = sample_channel(cfg, substream(cfg.seed, t))
        H = real.channel_matrix(0, 1, 2)
        assert np.linalg.matrix_rank(H) == 1
        fro2 = np.sum(np.abs(H) ** 2)
        assert fro2 == pytest.approx(real.beta[0, 1, 2] * cfg.N * cfg.M, rel=1e-10)


def test_effective_channel_equals_direct_product():
    cfg = _cfg(L=2, K=3, N=16, M=4)
    real = sample_channel(cfg, substream(cfg.seed, 0))
    training = train_beams(real, cfg)
    for j in range(2):
        for l in range(2):
            eff = effective_channel(real, training, j, l)
            direct = np.stack(
                [real.channel_matrix(j, l, k) @ training.w[l, k] for k in range(3)],
                axis=1)
            np.testing.assert_allclose(eff, direct, atol=1e-12)


def test_effective_channel_aligned_and_orthogonal_columns():
    cfg = _cfg(L=1, K=1, N=8, M=2)
    real = sample_channel(cfg, substream(3, 1))
    training = train_beams(real, cfg)
    # overwrite with a perfectly aligned beamformer
    training.w[0, 0] = real.h_U[0, 0, 0] / np.sqrt(2)
    training.c[0, 0, 0] = np.vdot(real.h_U[0, 0, 0], training.w[0, 0])
    eff = effective_channel(real, training, 0, 0)
    np.testing.assert_allclose(eff[:, 0], np.sqrt(2) * real.h_B[0, 0, 0], atol=1e-12)
    # and an orthogonal one
    h = real.h_U[0, 0, 0]
    w_perp = np.array([h[1].conj(), -h[0].conj()]) / np.sqrt(2)
    training.w[0, 0] = w_perp
    training.c[0, 0, 0] = np.vdot(h, w_perp)
    eff = effective_channel(real, training, 0, 0)
    np.testing.assert_allclose(eff[:, 0], 0.0, atol=1e-12)
    norm = np.linalg.norm(effective_channel(real, training, 0, 0)[:, 0])
    assert norm == pytest.approx(abs(training.c[0, 0, 0]) * np.sqrt(cfg.N), abs=1e-9)


def test_effective_channel_shape_mismatch():
    cfg = _cfg(L=2, K=3)
    real = sample_channel(cfg, substream(0, 0))
    training = train_beams(real, cfg)
    training.c = training.c[:, :, :2]
    with pytest.raises(ParameterError):
        effective_channel(real, training, 0, 0)


def _inner_products(N, draws, rng):
    """h(a)^H h(b) over independent uniform angle pairs, in closed form."""
    th = rng.uniform(0.0, np.pi, size=(2, draws))
    x = (np.pi / 2) * (np.cos(th[0]) - np.cos(th[1]))
    return np.exp(1j * (N - 1) * x) * dirichlet(N, x)


def test_large_N_column_orthogonality():
    # normalized inner products shrink like eta1/N
    N, draws = 1024, 2 * 10 ** 4
    rng = substream(22, 0)
    vals = _inner_products(N, draws, rng).real / N
    se = np.std(vals, ddof=1) / np.sqrt(draws)
    predicted = eta1(N) / N
    assert abs(np.mean(vals) - predicted) < 3 * se
    assert abs(np.mean(vals)) < predicted + 3 * se


@pytest.mark.parametrize("n", [1, 2, 3, 16, 1024])
def test_dirichlet_is_the_steering_inner_product(n):
    # angle pairs with d = cos a - cos b at 0, at the endfire +-2, and between
    a, b = np.array([(0.0, 0.0), (np.pi, np.pi), (np.pi / 2, np.pi / 2), (0.0, np.pi),
                     (np.pi, 0.0), (0.3, 2.9), (1.1, 0.4), (2.0, 2.0 + 1e-9)]).T
    x = (np.pi / 2) * (np.cos(a) - np.cos(b))
    closed = np.exp(1j * (n - 1) * x) * dirichlet(n, x)
    explicit = [np.vdot(steering_vector(p, n), steering_vector(q, n)) for p, q in zip(a, b)]
    np.testing.assert_allclose(closed, explicit, rtol=0, atol=1e-9 * n)
