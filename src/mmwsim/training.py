"""Downlink tone-based AoA selection over a quantized phase codebook."""

import math

import numpy as np

from .channel import dirichlet, steering_vector
from .config import codebook_zeta
from .errors import ParameterError


def build_codebook(B):
    """Candidate phases [zeta, 3*zeta, ..., (2^(B+1)-1)*zeta], zeta = pi/2^(B+1)."""
    if B < 0:
        raise ParameterError(f"B must be >= 0, got {B}")
    return (2 * np.arange(2 ** B) + 1) * codebook_zeta(B)


def beamformer_from_angle(phi_hat, M):
    """Unit-norm analog beamformer steered at phi_hat; entries have modulus 1/sqrt(M).

    phi_hat may be an array; the element axis is appended last.
    """
    return steering_vector(phi_hat, M) / math.sqrt(M)


def gain_lower_bound(M, B):
    """Noiseless in-cell gain floor sqrt(M) * sinc(M*pi*zeta/2), valid for zeta <= 2/M."""
    x = 0.5 * M * math.pi * codebook_zeta(B)
    return math.sqrt(M) * (math.sin(x) / x if x != 0.0 else 1.0)


def _candidate_gains(cos_phi, cos_codebook, M):
    """|h_U(phi)^H w(psi)| for every codebook entry, via the Dirichlet kernel.

    cos_phi may be any array shape; a trailing codebook axis is appended.
    """
    x = np.pi * (np.asarray(cos_phi)[..., None] - cos_codebook)
    return np.abs(dirichlet(M, 0.5 * x)) / math.sqrt(M)


def select_beams(own_phi, codebook, M):
    """Codebook phase maximizing each user's noiseless received tone magnitude.

    own_phi holds own-cell angles phi[l, l, k] with any leading shape.  The
    tone amplitude beta_llk^(1/2) is 1 for every own-cell user, so it does not
    scale the scores.  Ties break toward the smallest codebook index.
    """
    scores = _candidate_gains(np.cos(own_phi), np.cos(codebook), M)
    return codebook[np.argmax(scores, axis=-1)]
