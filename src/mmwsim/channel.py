"""Sparse rank-one LoS channel: steering vectors, large-scale gains, angle draws."""

import numpy as np

from .errors import ParameterError


def steering_vector(angle, count):
    """Half-wavelength ULA response: element n is exp(-j*pi*n*cos(angle)).

    `angle` may be an array of any shape; the element axis is appended last.
    The first element is exactly 1+0j and every element has unit modulus.
    """
    if count < 1:
        raise ParameterError(f"steering vector length must be >= 1, got {count}")
    return np.exp(-1j * np.pi * np.cos(angle)[..., None] * np.arange(count))


def large_scale_gains(cfg):
    """(L, L, K) table beta[j, l, k]: 1 intra-cell and cfg.beta_inter across cells."""
    L = cfg.L
    beta = np.full((L, L, cfg.K), cfg.beta_inter, dtype=float)
    beta[np.arange(L), np.arange(L), :] = 1.0
    return beta


def draw_angles(cfg, rng):
    """(phi, theta), each (L, L, K) i.i.d. uniform on [0, pi], drawn in that order."""
    phi, theta = rng.uniform(0.0, np.pi, size=(2, cfg.L, cfg.L, cfg.K))
    return phi, theta
