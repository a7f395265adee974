"""Reference implementations that the tests compare the library against.

single_cell_bound is the paper's single-cell bound in SNR form;
lower_bound_rate must equal it at L = 1.

gram_kernel is the trial-blocked engine's Dirichlet Gram kernel by
broadcast outer products and a mask over every entry, the arithmetic
rate._gram_kernel must equal bit for bit.

lloyd_max_design is the fixed-point Lloyd-Max design that made the level
table mmwsim ships (quantize.LEVELS_FILE); lloyd_max_level_table stacks its
levels at depths 1-12 into that table.

The rest is a per-realization reference pipeline for the trial-blocked rate
engine: one block-fading draw of every (BS j, cell l, user k) link, beam training
for every user, the paper's MMSE pilot phase at every BS (with its per-user
shrinkage G), and the conditional signal and interference powers at one BS,
all with length-N vectors.  The engine in mmwsim.rate evaluates BS 0 only,
from the closed-form Gram matrix, and never forms G; the tests compare it
against this code.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri  # standard normal CDF and its inverse

from mmwsim.bounds import eta2, log_rate
from mmwsim.channel import draw_angles, large_scale_gains, steering_vector
from mmwsim.errors import ParameterError
from mmwsim.estimation import build_pilot_matrix, noise_equivalent_mu
from mmwsim.quantize import _norm_pdf, lloyd_max_quantize, quant_noise_power
from mmwsim.rng import complex_normal
from mmwsim.training import (_candidate_gains, beamformer_from_angle, build_codebook,
                             gain_lower_bound, select_beams)


def single_cell_bound(cfg):
    """Single-cell closed-form bound, written in SNR form.

    Algebraically identical to lower_bound_rate at L = 1; kept as a separate
    expression so the identity is testable.
    """
    if cfg.L != 1:
        raise ParameterError(f"single_cell_bound needs L == 1, got L={cfg.L}")
    rho = cfg.rho
    one = 1.0 - rho
    c = gain_lower_bound(cfg.M, cfg.B)
    K, N, M = cfg.K, cfg.N, cfg.M
    lam = c ** 2 + (K - 1) * M
    g_t, g_p = cfg.p_t, cfg.p_p
    denom = (
        c ** -4 * N / (g_t * g_p)
        + c ** -2 * N * ((one + rho * c ** -2 * lam / cfg.tau) / g_t + c ** -2 * lam / g_p)
        + (one + c ** -2 * lam / cfg.tau) * rho * N * c ** -2 * lam
        + one ** 2 * M * (K - 1) * c ** -2 * eta2(N)
    )
    return log_rate(1.0 + one ** 2 * N ** 2 / denom)


def gram_kernel(N, x):
    """(T, LK, LK) kernel sin(N(x_a - x_b)) / sin(x_a - x_b) over x (T, LK).

    The difference identities as broadcast outer products; every entry
    whose denominator is below 1e-12 takes the limit N, or -N for an
    endfire pair (cos(x_a - x_b) < 0) at even N.
    """
    s, c = np.sin(x), np.cos(x)
    sN, cN = np.sin(N * x), np.cos(N * x)
    den = s[:, :, None] * c[:, None, :] - c[:, :, None] * s[:, None, :]
    kernel = sN[:, :, None] * cN[:, None, :] - cN[:, :, None] * sN[:, None, :]
    small = np.abs(den) < 1e-12
    den[small] = 1.0
    kernel[small] = N
    if N % 2 == 0 and np.any(np.abs(s) == 1.0):
        ti, ai, bi = np.nonzero(small)
        endfire = c[ti, ai] * c[ti, bi] + s[ti, ai] * s[ti, bi] < 0.0
        kernel[ti[endfire], ai[endfire], bi[endfire]] = -N
    return kernel / den


def lloyd_max_design(bits):
    """Levels and thresholds of the MMSE quantizer for a unit-variance Gaussian.

    Fixed-point iteration (levels -> midpoint thresholds -> conditional means)
    warm-started from the optimal point density pdf^(1/3), which for a Gaussian
    is again Gaussian with variance 3.  Returns (levels, thresholds) with
    len(thresholds) == len(levels) - 1.
    """
    n = 2 ** bits
    # low depths converge fully; high depths start close enough that a
    # bounded budget leaves the levels within noise of optimal
    max_iters = 20000 if bits <= 6 else 1500
    p = (np.arange(n) + 0.5) / n
    # quantile init on the companded density
    y = np.sqrt(3.0) * ndtri(p)
    for _ in range(max_iters):
        t = 0.5 * (y[:-1] + y[1:])
        tl = np.concatenate(([-np.inf], t))
        tu = np.concatenate((t, [np.inf]))
        prob = ndtr(tu) - ndtr(tl)
        y_new = (_norm_pdf(tl) - _norm_pdf(tu)) / prob
        delta = np.max(np.abs(y_new - y))
        y = y_new
        if delta < 1e-12:
            break
    thresholds = 0.5 * (y[:-1] + y[1:])
    return y, thresholds


def lloyd_max_level_table():
    """The levels of lloyd_max_design at depths 1-12, one after another (8190 doubles)."""
    return np.concatenate([lloyd_max_design(bits)[0] for bits in range(1, 13)])


@dataclass
class ChannelRealization:
    """One block-fading draw of every (BS j, cell l, user k) link.

    phi/theta/beta have shape (L, L, K) indexed [j, l, k]; h_U is (L, L, K, M)
    and h_B is (L, L, K, N).
    """

    phi: np.ndarray
    theta: np.ndarray
    beta: np.ndarray
    h_U: np.ndarray
    h_B: np.ndarray

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


def sample_channel(cfg, rng):
    """Draw one ChannelRealization for a config.

    Angles are i.i.d. uniform on [0, pi] for every (j, l, k) triple; the
    large-scale gain is 1 intra-cell and cfg.beta_inter across cells.
    """
    phi, theta = draw_angles([rng], np.empty((1, 2, cfg.L, cfg.L, cfg.K)))[0]
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


def estimate_aoa(realization, cfg, l, k):
    """Pick the codebook phase maximizing the noiseless received tone magnitude
    for user (l, k).  Ties break toward the smallest codebook index."""
    codebook = build_codebook(cfg.B)
    phi = realization.phi[l, l, k]
    gains = _candidate_gains(np.cos(phi), np.cos(codebook), cfg.M)
    r = np.sqrt(realization.beta[l, l, k]) * gains
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


def train_beams(realization, cfg):
    """Run noiseless AoA selection for every user and tabulate all cross-cell
    gains.  Cells train on orthogonal resources, so nothing perturbs the
    selection."""
    L, M = realization.L, realization.M
    cells = np.arange(L)
    phi_hat = build_codebook(cfg.B)[select_beams(realization.phi[cells, cells], M, cfg.B)]  # (L, K)
    w = beamformer_from_angle(phi_hat, M)

    # c[j, l, k] = h_U[j, l, k]^H w[l, k]
    c = np.einsum("jlkm,lkm->jlk", realization.h_U.conj(), w)
    return TrainingResult(phi_hat=phi_hat, w=w, c=c)


@dataclass
class EstimationResult:
    """Pilot-phase outputs for every cell.

    Per-cell arrays are stacked along axis 0: Y_qp is (L, N, tau), G holds the
    estimator diagonals (L, K), H_hat is (L, N, K), e is (L, N, K) realized
    error columns, mu and sigma_pq2 are length-L.
    """

    Y_qp: np.ndarray
    G: np.ndarray
    mu: np.ndarray
    H_hat: np.ndarray
    e: np.ndarray
    sigma_pq2: np.ndarray


def mmse_gain(C, Bmat, mu_j, j):
    """Diagonal of the per-user MMSE shrinkage at BS j.

    C and Bmat are the (L, L, K) gain and large-scale tables; entry k is
    beta_jjk |c_jjk|^2 / (sum_l beta_jlk |c_jlk|^2 + mu_j).
    """
    bg = Bmat[j] * np.abs(C[j]) ** 2                  # (L, K)
    return bg[j] / (np.sum(bg, axis=0) + mu_j)


def pilot_statistics(realization, training, cfg):
    """(sigma_pq2, mu, G) per cell, from gains and config only (no sampling)."""
    bg = realization.beta * np.abs(training.c) ** 2
    sigma_pq2 = np.array([quant_noise_power(cfg, float(np.sum(bg[j])), cfg.p_p / cfg.tau)
                          for j in range(realization.L)])
    mu = noise_equivalent_mu(cfg, sigma_pq2)
    G = np.array([mmse_gain(training.c, realization.beta, mu[j], j)
                  for j in range(realization.L)])
    return sigma_pq2, mu, G


def receive_pilots(eff, Psi, cfg, sigma_pq2, quant_path, rng):
    """One quantized pilot observation (Y_qp, Y_p), each N x tau, at a BS.

    eff stacks the L effective channels (L, N, K) this BS sees.  The
    bussgang path applies the linearized model (scale by 1-rho, add white
    noise of power sigma_pq2); the real path runs the adc_bits quantizer with
    gain control matched to the statistical receive variance.
    """
    Y_p = np.sqrt(cfg.p_p) * eff.sum(axis=0) @ Psi.T
    Y_p = Y_p + complex_normal(rng, Y_p.shape)
    rho = cfg.rho
    if quant_path == "bussgang":
        return (1.0 - rho) * Y_p + np.sqrt(sigma_pq2) * complex_normal(rng, Y_p.shape), Y_p
    return lloyd_max_quantize(Y_p, cfg.adc_bits, sigma_pq2 / (rho * (1.0 - rho))), Y_p


def estimate_all(realization, training, cfg, rng, quant_path="bussgang"):
    """Run the full pilot phase for every cell and return an EstimationResult.

    Cells run in order 0..L-1 on one rng, so cell 0's draws come first.  The
    estimate is H_hat = Y_qp Psi* diag(G) / ((1-rho) sqrt(P_p)), and the
    realized error is e = H_hat diag(1/G) - hbar_jj.
    """
    L = realization.L
    Psi = build_pilot_matrix(cfg.tau, realization.K)
    sigma_pq2, mu, G = pilot_statistics(realization, training, cfg)
    Y_qp, H_hat, e = [], [], []
    for j in range(L):
        eff = np.stack([effective_channel(realization, training, j, l) for l in range(L)])
        y, _ = receive_pilots(eff, Psi, cfg, sigma_pq2[j], quant_path, rng)
        H_hat.append((y @ Psi.conj()) * G[j] / ((1.0 - cfg.rho) * np.sqrt(cfg.p_p)))
        e.append(H_hat[j] / G[j] - eff[j])
        Y_qp.append(y)
    return EstimationResult(Y_qp=np.array(Y_qp), G=G, mu=mu, H_hat=np.array(H_hat),
                            e=np.array(e), sigma_pq2=sigma_pq2)


def _conditional_powers(realization, training, mu_j, sigma_q2, cfg, j):
    """Per-user (S, I, I_floor) at BS j, vectorized over k.

    S and I follow the conditional split: S is the clean-channel signal power
    and I = E|I_n|^2 + E|I_q|^2 + E|S_r|^2 - S with the expectations taken
    over symbols, AWGN, quantization noise, and the estimation noise vector.
    I_floor is the always-positive mean-square-error form E|y - a x_k|^2 that
    the rate engine falls back to when destructive pilot contamination drives
    I itself below zero (rare, small K only).
    """
    rho = cfg.rho
    N = realization.N
    b_j = realization.beta[j]                     # (L, K)
    c_j = training.c[j]                           # (L, K)
    h_j = realization.h_B[j]                      # (L, K, N)
    gains2 = np.abs(c_j) ** 2

    total = float(np.sum(b_j * gains2))
    # u_k = sum_l beta^(1/2) c_jlk h_B_jlk: the pilot-contaminated estimate mean
    u = np.einsum("lk,lkn->kn", np.sqrt(b_j) * c_j, h_j)
    u_norm2 = np.sum(np.abs(u) ** 2, axis=1).real
    bracket = N * mu_j + u_norm2

    uh = np.einsum("kn,lin->kli", u.conj(), h_j)
    quad = np.einsum("li,kli->k", b_j * gains2, np.abs(uh) ** 2)

    e_in = (1.0 - rho) ** 2 * bracket
    e_iq = sigma_q2 * bracket
    e_sr = (1.0 - rho) ** 2 * cfg.p_t * (mu_j * N * total + quad)

    S = (1.0 - rho) ** 2 * cfg.p_t * (b_j[j] ** 2) * gains2[j] ** 2 * N ** 2
    I = e_in + e_iq + e_sr - S

    # clean coefficient a and the nu-averaged realized coefficient of x_jk
    a = (1.0 - rho) * np.sqrt(cfg.p_t) * b_j[j] * gains2[j] * N
    ea = (1.0 - rho) * np.sqrt(cfg.p_t) * np.sqrt(b_j[j]) * c_j[j] \
        * np.einsum("kn,kn->k", u.conj(), h_j[j])
    I_floor = I + 2.0 * a * (a - ea.real)
    return S, I, I_floor
