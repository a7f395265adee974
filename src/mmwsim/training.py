"""Downlink tone-based AoA selection over a quantized phase codebook.

Noiseless selection depends on cos phi alone, so select_beams looks each
user up in a table of certified cos phi intervals, built once per (M, B),
and scans the whole codebook only for users outside them.
"""

import functools
import math

import numpy as np

from .channel import dirichlet, steering_vector
from .config import BLOCK_BYTES, check_integers, codebook_zeta
from .errors import InternalConsistencyError

# Certification margin of select_beams, in units of sqrt(M), the peak score:
# over 150 times four times the rounding bound on computed scores, stated there.
SCORE_MARGIN = 1e-12


def build_codebook(B):
    """Candidate phases [zeta, 3*zeta, ..., (2^(B+1)-1)*zeta], zeta = pi/2^(B+1)."""
    check_integers(B=B)
    return (2 * np.arange(2 ** B) + 1) * codebook_zeta(B)


def beamformer_from_angle(phi_hat, M):
    """Unit-norm analog beamformer steered at phi_hat; entries have modulus 1/sqrt(M).

    phi_hat may be an array; the element axis is appended last.  M is
    checked as a SystemConfig's M.
    """
    check_integers(M=M)
    return steering_vector(phi_hat, M) / math.sqrt(M)


def gain_lower_bound(M, B):
    """Noiseless in-cell gain floor sqrt(M) * sinc(M*pi*zeta/2), valid for zeta <= 2/M."""
    check_integers(M=M, B=B)
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


def _six_scores(cos_phi, cos_cb, M):
    """select_beams' six-score certificate at each point of flat cos_phi.

    Scores the two codebook entries nearest on each side of each point and
    both ends, and returns (idx, best, runner, w): the best-scoring entry,
    its score, the largest score of the other five and the wrap factor w
    (1 where M is a power of two).
    """
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
    w = np.ones(len(cos_phi))
    if M & (M - 1):                                     # M y is rounded
        y = 0.5 * np.pi * (cos_phi[:, None] - cos_cb[[0, -1]])     # the ends'
        w = np.where(np.abs(y) > np.pi / 2, np.abs(np.sin(y)), 1.0).min(axis=1)
    return idx, best, runner, w


@functools.cache
def _beam_table(M, B):
    """(edges, index): the certified intervals of cos phi that select_beams looks up.

    Codeword j's interval runs from an edge below cos psi_j to one above it,
    each at most its neighbour's cos psi (or -1 and 1 at the codebook's
    ends).  A side is a chain of pieces, each certified by select_beams'
    interval certificate at its two ends and found by bisection from the
    last piece's edge; a new piece starts only where a rival that scored
    high at the last start blocked the last one.  Sides are bisected in
    chunks of BLOCK_BYTES / 640, a side's share being 40 entries: its six
    scores and the temporaries around them.  `edges` holds the 2^(B+1)
    ends in ascending order, and index[searchsorted(edges, c, "right")] is
    the codeword of the interval [lower, upper) that holds c, or -1 where c
    lies in none.
    """
    cos_cb = np.cos(build_codebook(B))
    n = len(cos_cb)
    margin, s_M = SCORE_MARGIN * math.sqrt(M), _sidelobe_bound(M)
    j = np.tile(np.arange(n), 2)                        # the lower edges, then the upper
    limit = np.concatenate([cos_cb[1:], [-1.0, 1.0], cos_cb[:-1]])
    edge = cos_cb[j]

    def scores(c, jr):
        """Whether jr wins the six scores at c, its score, max(runner-up, s_M) and w."""
        idx, best, runner, w = _six_scores(c, cos_cb, M)
        return idx == jr, best, np.maximum(runner, s_M), w

    queue, chunk = np.arange(2 * n), max(1, BLOCK_BYTES // (16 * 40))
    while queue.size:
        rows, queue = queue[:chunk], queue[chunk:]
        jr, start, far = j[rows], edge[rows], limit[rows]
        won_s, _, floor_s, w_s = scores(start, jr)

        def piece(c):
            won, best, floor, w = scores(c, jr)
            return won_s & won & (np.minimum(w_s, w) * (best - np.maximum(floor_s, floor)) > margin)

        good, bad = np.where(piece(far), far, start), far
        for _ in range(40):                             # to 2^-40 of the gap
            mid = 0.5 * (good + bad)
            ok = piece(mid)
            good, bad = np.where(ok, mid, good), np.where(ok, bad, mid)
        good = np.where(piece(good), good, start)       # the proof's check, at the edge itself
        edge[rows] = good
        won, best, floor, w = scores(bad, jr)
        queue = np.concatenate([queue, rows[(good != start) & (good != far) & won
                                            & (w * (best - floor) > margin)]])
    edges = edge.reshape(2, n).T[::-1].ravel()          # ascending cos: codeword n-1 first
    if np.any(np.diff(edges) < 0.0):
        raise InternalConsistencyError(f"certified beam intervals overlap at M={M}, B={B}")
    index = np.full(2 * n + 1, -1, dtype=np.intp)
    index[1::2] = np.arange(n)[::-1]
    return edges, index


def select_beams(own_phi, M, B):
    """Index into build_codebook(B) of the phase maximizing each user's noiseless tone magnitude.

    own_phi holds own-cell angles phi[l, l, k] with any leading shape; the
    result has that shape.  M and B are checked as a SystemConfig's.  The tone
    amplitude beta_llk^(1/2) is 1 for every own-cell user, so it does not
    scale the scores.  The result is the argmax of _candidate_gains over
    the whole codebook, ties broken toward the smallest index; M = 1 scores
    every entry alike and returns index 0.

    The choice depends on cos phi alone, so it is a fixed partition of
    [-1, 1].  _beam_table(M, B) holds an interval of cos phi around each
    codeword on which that codeword is certified to win; a user whose
    computed cos phi lies in one takes its codeword from one searchsorted,
    and every other user falls back to _full_scan.

    The certificate at one point (_six_scores).  Entry j scores
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
    kernel at its computed argument.  So every entry but the best has an
    exact score at its computed argument of at most max(runner-up + E, s_M).

    The certificate on a piece (_beam_table).  Let a and b be two points
    between cos psi_j and its neighbour's cos psi (or an end of [-1, 1]),
    b the farther from cos psi_j, at both of which the six scores pick j,
    and take c between them.  No other codeword lies there, so each
    fl(pi fl(c - cos psi_i)) keeps its sign and is monotone in c.  j's
    |x_j| falls toward cos psi_j, so its exact score at its computed
    argument is least at b, where it is at least best(b) - E.  For any
    other i, d_i rises with |x_i| and falls past |x_i| = pi, so the
    envelope max(main-lobe score at d_i, s_M), which bounds i's exact score
    and falls with d_i, is quasi-convex in c: it is largest at a or b,
    where it is at most max(runner-up + E, s_M).  w is the smaller of two
    factors, one from each end of the codebook; the first rises with c
    (end 0 wraps only near c = -1, and |sin y| grows toward 1 as c rises)
    and the second falls, so the smaller w at a and b bounds w, and so E,
    on the whole piece.  With that w, j computes to at least best(b) - 2E
    anywhere on the piece and every other entry to at most max(runner(a),
    runner(b), s_M) + 2E.  A piece is accepted when w times that lead of
    best(b) exceeds SCORE_MARGIN sqrt(M), over 150 times 4 w E; _full_scan,
    which computes the same scores, then finds the same strict maximum.
    The condition is checked at the edge that bisection returns; the proof
    needs it there only, not a condition monotone in c.  Each side of an
    interval is a chain of pieces from cos psi_j, so every point of the
    interval is certified.
    """
    check_integers(M=M, B=B)
    own_phi = np.asarray(own_phi, dtype=float)
    if M == 1:
        return np.zeros(own_phi.shape, dtype=np.intp)
    return _lookup(np.cos(own_phi).ravel(), M, B).reshape(own_phi.shape)


def _lookup(cos_phi, M, B):
    """select_beams' indices for flat computed cos phi, M >= 2."""
    edges, index = _beam_table(M, B)
    idx = index[np.searchsorted(edges, cos_phi, side="right")]
    fallback = idx < 0
    if np.any(fallback):
        idx[fallback] = _full_scan(cos_phi[fallback], np.cos(build_codebook(B)), M)
    return idx
