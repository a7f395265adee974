"""Sparse rank-one LoS channel sampling and effective-channel assembly."""

import csv
from dataclasses import dataclass, field

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


@dataclass
class ChannelRealization:
    """One block-fading draw of every (BS j, cell l, user k) link.

    phi/theta/beta have shape (L, L, K) indexed [j, l, k]; h_U is (L, L, K, M)
    and h_B is (L, L, K, N).  The full N x M rank-one channel matrices are
    materialized lazily since most consumers only need the factors.
    """

    phi: np.ndarray
    theta: np.ndarray
    beta: np.ndarray
    h_U: np.ndarray
    h_B: np.ndarray
    _H: np.ndarray = field(default=None, repr=False)

    @property
    def L(self):
        return self.phi.shape[0]

    @property
    def K(self):
        return self.phi.shape[2]

    @property
    def M(self):
        return self.h_U.shape[3]

    @property
    def N(self):
        return self.h_B.shape[3]

    def channel_matrix(self, j, l, k):
        """beta^(1/2) * h_B h_U^H for one link (N x M, rank one)."""
        return np.sqrt(self.beta[j, l, k]) * np.outer(
            self.h_B[j, l, k], self.h_U[j, l, k].conj()
        )

    @property
    def H(self):
        """All channel matrices, shape (L, L, K, N, M)."""
        if self._H is None:
            self._H = np.sqrt(self.beta)[..., None, None] * (
                self.h_B[..., :, None] * self.h_U[..., None, :].conj()
            )
        return self._H


def sample_channel(cfg, rng):
    """Draw one ChannelRealization for a validated config.

    Angles are i.i.d. uniform on [0, pi] for every (j, l, k) triple; the
    large-scale gain is 1 intra-cell and cfg.beta_inter across cells.
    """
    phi, theta = draw_angles(cfg, rng)
    return ChannelRealization(
        phi=phi, theta=theta, beta=large_scale_gains(cfg),
        h_U=steering_vector(phi, cfg.M), h_B=steering_vector(theta, cfg.N),
    )


def effective_channel(realization, training, j, l):
    """Post-beamforming N x K channel from cell l's users to BS j.

    Column k is beta_jlk^(1/2) * c_jlk * h_B_jlk with c_jlk the realized
    beamforming gain from training.
    """
    if training.c.shape != realization.beta.shape:
        raise ParameterError(
            f"training gains shaped {training.c.shape} do not match channel "
            f"{realization.beta.shape}"
        )
    w = np.sqrt(realization.beta[j, l]) * training.c[j, l]      # (K,)
    return (realization.h_B[j, l] * w[:, None]).T               # (N, K)


def dump_realization_csv(realization, training, path):
    """Debug dump: one row per (j, l, k) with angles, beta, and |c|."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["j", "l", "k", "phi", "theta", "beta", "abs_c"])
        L, K = realization.L, realization.K
        for j in range(L):
            for l in range(L):
                for k in range(K):
                    w.writerow([
                        j, l, k,
                        f"{realization.phi[j, l, k]:.10g}",
                        f"{realization.theta[j, l, k]:.10g}",
                        f"{realization.beta[j, l, k]:.10g}",
                        f"{abs(training.c[j, l, k]):.10g}",
                    ])
