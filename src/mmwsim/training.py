"""Downlink tone-based AoA selection over a quantized phase codebook."""

import math

import numpy as np

from .channel import dirichlet, steering_vector
from .config import BLOCK_BYTES, codebook_zeta
from .errors import ParameterError

# Certification margin of select_beams, in units of sqrt(M), the peak score:
# over 300 times twice the rounding bound on computed scores, stated there.
SCORE_MARGIN = 1e-12


def build_codebook(B):
    """Candidate phases [zeta, 3*zeta, ..., (2^(B+1)-1)*zeta], zeta = pi/2^(B+1)."""
    if isinstance(B, bool) or not isinstance(B, (int, np.integer)):
        raise ParameterError(f"B must be an integer, got {B!r}")
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


def _full_scan(cos_phi, cos_codebook, M):
    """Index of each user's best codebook entry, scoring every entry.

    cos_phi is flat.  Users are scored in chunks of at most BLOCK_BYTES / 16
    scores, so memory stays bounded whatever the user count and codebook size.
    """
    rows = max(1, BLOCK_BYTES // (16 * len(cos_codebook)))
    idx = np.empty(len(cos_phi), dtype=np.intp)
    for start in range(0, len(cos_phi), rows):
        part = slice(start, start + rows)
        idx[part] = np.argmax(_candidate_gains(cos_phi[part], cos_codebook, M), axis=-1)
    return idx


def _sidelobe_bound(M):
    """s_M = 1/(sqrt(M) sin((pi+1)/M)), a bound on |D_M(y)|/sqrt(M) off the main lobe.

    D_M(y) = sin(M y) / sin(y) is even with period pi and its main lobe is
    |y| < pi/M, so the rest is y in [pi/M, pi/2], where |sin M y| <=
    min(1, M y - pi).  From y = (pi + 1)/M on, |D_M| <= 1/sin(y) <=
    1/sin((pi + 1)/M), as sin rises up to pi/2 and (pi + 1)/M <= pi/2 for
    M >= 3.  Before it, |D_M| <= (M y - pi)/sin(y), which rises while
    M tan(y) > M y - pi, that is while tan(y) > y - pi/M, which holds on
    (0, pi/2); so it too is at most 1/sin((pi + 1)/M).  For M <= 2 the
    region holds at most the null y = pi/2, so s_M = 0.
    """
    if M <= 2:
        return 0.0
    return 1.0 / (math.sqrt(M) * math.sin((math.pi + 1.0) / M))


def select_beams(own_phi, codebook, M):
    """Index into `codebook` of the phase maximizing each user's noiseless tone magnitude.

    own_phi holds own-cell angles phi[l, l, k] with any leading shape; the
    result has that shape.  The tone amplitude beta_llk^(1/2) is 1 for every
    own-cell user, so it does not scale the scores.  The result is the
    argmax of _candidate_gains over the whole codebook, ties broken toward
    the smallest index; M = 1 scores every entry alike and returns index 0.

    Most users are certified from six scores.  Entry j scores
    |D_M(x_j/2)|/sqrt(M), x_j = pi (cos phi - cos psi_j), a function of the
    circular distance d_j = min(|x_j|, 2 pi - |x_j|) alone (|D_M| has period
    pi) that falls with d_j on the main lobe d_j < 2 pi/M and is at most
    s_M = _sidelobe_bound(M) off it.  cos psi_j descends with j, so
    searchsorted finds where cos phi falls, and |x_j| grows away from it on
    either side (rounding is monotone, so the computed |x_j| do too).  The
    scored entries are the two nearest on each side and both ends.  Take an
    unscored j.  If d_j = |x_j|, both scored entries on its side have
    d <= d_j, and at most one of them is the best.  If x_j wraps (d_j =
    2 pi - |x_j|), the end on its side has |x| >= |x_j|, so d <= d_j; that
    end is never the best, because the other end's d is no larger
    (cos psi_{n-1} = -cos psi_0, up to rounding).  Either way a scored entry
    that lost is at least as close as j, or j is off the main lobe, so j's
    exact score at its computed x_j is at most max(runner-up, s_M).

    Computed scores carry rounding.  sin, the division and the scaling add
    at most ten ulps of |D_M| <= M.  The product M y, y = x_j/2, is exact
    when M is a power of two and otherwise rounded to a relative 2^-53,
    which moves sin(M y)/sin(y) by at most M |y| 2^-53 / |sin y|: at most
    (pi/2) M 2^-53 where |y| <= pi/2, and at most pi M 2^-53 / w where x_j
    wraps, with w the smaller |sin y| of the ends that wrap (a wrapped
    entry lies between the middle and its end, so its |sin y| is no
    smaller).  With w = 1 where M is a power of two or neither end wraps,
    every score is within E = sqrt(M) 2^-53 (pi/w + 10) of the exact
    kernel at its computed argument, so an unscored j computes to at most
    max(runner-up, s_M) + 2E.  A user is accepted when w times the best
    score's lead over max(runner-up, s_M) exceeds SCORE_MARGIN sqrt(M),
    over 300 times 2 w E; _full_scan, which computes the same scores, then
    finds the same strict maximum.  Every other user falls back to the
    full scan.
    """
    own_phi = np.asarray(own_phi, dtype=float)
    if M == 1:
        return np.zeros(own_phi.shape, dtype=np.intp)
    cos_phi = np.cos(own_phi).ravel()
    cos_cb = np.cos(codebook)
    n = len(cos_cb)
    below = n - np.searchsorted(cos_cb[::-1], cos_phi)    # first entry below cos phi
    cand = np.empty((len(cos_phi), 6), dtype=np.intp)
    np.clip(below[:, None] + np.arange(-2, 2), 0, n - 1, out=cand[:, :4])
    cand[:, 4], cand[:, 5] = 0, n - 1
    scores = _candidate_gains(cos_phi, cos_cb[cand], M)
    rows = np.arange(len(cos_phi))
    arg = np.argmax(scores, axis=1)
    idx, best = cand[rows, arg], scores[rows, arg]
    runner = np.where(cand == idx[:, None], -np.inf, scores).max(axis=1)
    rival = np.maximum(runner, _sidelobe_bound(M))
    w = 1.0
    if M & (M - 1):                                     # M y is rounded
        y = 0.5 * np.pi * (cos_phi[:, None] - cos_cb[[0, -1]])     # the ends'
        w = np.where(np.abs(y) > np.pi / 2, np.abs(np.sin(y)), 1.0).min(axis=1)
    fallback = ~((best - rival) * w > SCORE_MARGIN * math.sqrt(M))
    if np.any(fallback):
        idx[fallback] = _full_scan(cos_phi[fallback], cos_cb, M)
    return idx.reshape(own_phi.shape)
