"""Downlink tone-based AoA selection over a quantized phase codebook."""

import math
from dataclasses import dataclass

import numpy as np

from .channel import steering_vector
from .errors import ParameterError
from .rng import complex_normal


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


def beamforming_gain(h_U, w):
    """Inner product h_U^H w; |result| <= sqrt(M) for unit-modulus h_U entries."""
    h_U = np.asarray(h_U)
    w = np.asarray(w)
    if h_U.shape != w.shape:
        raise ParameterError(f"length mismatch: {h_U.shape} vs {w.shape}")
    return complex(np.vdot(h_U, w))


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


def estimate_aoa(realization, cfg, l, k, noise_var=None, rng=None, codebook=None):
    """Pick the codebook phase maximizing the received tone magnitude for user (l, k).

    The BS tone is unit power; each candidate observation r = beta^(1/2) *
    (h_U^H w(psi)) + nu sees an independent noise draw nu ~ CN(0, noise_var)
    when noise_var is given (noiseless otherwise).  Ties break toward the
    smallest codebook index.
    """
    if codebook is None:
        codebook = build_codebook(cfg.B)
    phi = realization.phi[l, l, k]
    gains = _candidate_gains(np.cos(phi), np.cos(codebook), cfg.M)
    r = np.sqrt(realization.beta[l, l, k]) * gains
    if noise_var is not None:
        if rng is None:
            raise ParameterError("noisy training needs an rng")
        nu = rng.normal(size=(2, codebook.size)) * np.sqrt(noise_var / 2.0)
        # gains enter |r| through magnitude only; attach noise in complex form
        r = np.abs(r + nu[0] + 1j * nu[1])
    return float(codebook[np.argmax(r)])


@dataclass
class TrainingResult:
    """Per-user beam selections and every realized beamforming gain.

    phi_hat is (L, K); w is (L, K, M) unit-norm rows; c is the complex
    (L, L, K) gain table c[j, l, k] = h_U[j, l, k]^H w[l, k].
    """

    phi_hat: np.ndarray
    w: np.ndarray
    c: np.ndarray
    codebook: np.ndarray


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


def train_beams(realization, cfg, noise_var=None, rng=None):
    """Run AoA selection for every user and tabulate all cross-cell gains.

    Cells train on orthogonal resources, so there is no inter-cell
    interference here; only thermal noise (optional) perturbs the selection.
    """
    L, K, M = realization.L, realization.K, realization.M
    codebook = build_codebook(cfg.B)
    nu = None
    if noise_var is not None:
        if rng is None:
            raise ParameterError("noisy training needs an rng")
        nu = complex_normal(rng, (L, K, codebook.size), noise_var)
    cells = np.arange(L)
    amp = np.sqrt(realization.beta[cells, cells])[..., None]      # (L, K, 1)
    phi_hat = select_beams(realization.phi[cells, cells], amp, codebook, M, nu)  # (L, K)
    w = beamformer_from_angle(phi_hat, M)

    # c[j, l, k] = h_U[j, l, k]^H w[l, k]
    c = np.einsum("jlkm,lkm->jlk", realization.h_U.conj(), w)
    return TrainingResult(phi_hat=phi_hat, w=w, c=c, codebook=codebook)
