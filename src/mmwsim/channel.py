"""Sparse rank-one LoS channel: steering vectors, their Dirichlet kernel, gains, angles."""

import numpy as np

from .config import check_integers


def steering_vector(angle, count):
    """Half-wavelength ULA response: element n is exp(-j*pi*n*cos(angle)).

    `angle` may be an array of any shape; the element axis is appended last.
    The first element is exactly 1+0j and every element has unit modulus.
    `count` is checked as a SystemConfig's N.
    """
    check_integers(N=count)
    z = -1j * np.pi * np.cos(angle)[..., None] * np.arange(count)
    return np.exp(z, out=z)


def dirichlet(n, x):
    """sin(n x) / sin(x) over an array x, and dirichlet_limit where |sin(x)| < 1e-12.

    e^{j(n-1)x} dirichlet(n, x) = h(a)^H h(b), x = (pi/2)(cos a - cos b)."""
    den = np.sin(x)
    small = np.abs(den) < 1e-12
    out = np.sin(n * x)
    np.divide(out, den, out=out, where=~small)
    out[small] = dirichlet_limit(n, np.cos(x[small]))
    return out


def dirichlet_limit(n, cos_x):
    """The limit of sin(n x) / sin(x) where sin(x) vanishes: n where cos(x) > 0,
    (-1)^(n-1) n where cos(x) < 0 (the endfire pair)."""
    return np.where(cos_x < 0.0, (-1) ** (n - 1) * n, n)


def large_scale_gains(cfg):
    """(L, L, K) table beta[j, l, k]: 1 intra-cell and cfg.beta_inter across cells."""
    L = cfg.L
    beta = np.full((L, L, cfg.K), cfg.beta_inter, dtype=float)
    beta[np.arange(L), np.arange(L), :] = 1.0
    return beta


def draw_angles(rngs, out):
    """Fill `out`, a C-contiguous (T, 2, L, L, K) float array, with the
    angles of one trial per generator in `rngs`, and return it.

    Row t holds trial t's phi and theta, each (L, L, K) i.i.d. uniform on
    [0, pi], drawn from its generator in that order.  Each angle is pi times
    a Generator.random draw, the same bits as Generator.uniform(0, pi), and
    the block is scaled once.
    """
    for rng, angles in zip(rngs, out, strict=True):
        rng.random(out=angles)
    out *= np.pi
    return out
