"""Downlink tone-based AoA selection over a quantized phase codebook."""

import math

import numpy as np

from .channel import steering_vector
from .errors import ParameterError


def build_codebook(B):
    """Candidate phases [zeta, 3*zeta, ..., (2^(B+1)-1)*zeta], zeta = pi/2^(B+1)."""
    if B < 0:
        raise ParameterError(f"B must be >= 0, got {B}")
    zeta = math.pi / 2 ** (B + 1)
    return (2 * np.arange(2 ** B) + 1) * zeta


def beamformer_from_angle(phi_hat, M):
    """Unit-norm analog beamformer steered at phi_hat; entries have modulus 1/sqrt(M).

    phi_hat may be an array; the element axis is appended last.
    """
    if M < 1:
        raise ParameterError(f"M must be >= 1, got {M}")
    return steering_vector(phi_hat, M) / math.sqrt(M)


def gain_lower_bound(M, B):
    """Noiseless in-cell gain floor sqrt(M) * sinc(M*pi*zeta/2), valid for zeta <= 2/M."""
    zeta = math.pi / 2 ** (B + 1)
    x = 0.5 * M * math.pi * zeta
    return math.sqrt(M) * (math.sin(x) / x if x != 0.0 else 1.0)


def _candidate_gains(cos_phi, cos_codebook, M):
    """|h_U(phi)^H w(psi)| for every codebook entry, via the Dirichlet kernel.

    cos_phi may be any array shape; a trailing codebook axis is appended.
    """
    x = np.pi * (np.asarray(cos_phi)[..., None] - cos_codebook)
    num = np.sin(0.5 * M * x)
    den = np.sin(0.5 * x)
    with np.errstate(divide="ignore", invalid="ignore"):
        mag = np.abs(num / den)
    return np.where(np.abs(den) < 1e-12, float(M), mag) / math.sqrt(M)


def select_beams(own_phi, amp, codebook, M, nu=None):
    """Codebook phase maximizing each user's received tone magnitude.

    own_phi holds own-cell angles phi[l, l, k] with any leading shape; amp is
    the tone amplitude beta_llk^(1/2), broadcastable against the candidate
    scores (..., 2^B); nu is the matching complex observation noise, or None
    for noiseless selection.  Ties break toward the smallest codebook index.
    """
    cand = _candidate_gains(np.cos(own_phi), np.cos(codebook), M)
    scores = amp * cand if nu is None else np.abs(amp * cand + nu)
    return codebook[np.argmax(scores, axis=-1)]
