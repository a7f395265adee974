"""Closed-form machinery: steering-sum constants, the rate lower bound, its
large-N limit, and the single-cell low-SNR scaling laws."""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ParameterError
from .estimation import noise_equivalent_mu
from .quantize import quant_noise_power
from .training import gain_lower_bound

EULER_GAMMA = 0.577215664901533  # Euler-Mascheroni constant

# Above this N the triple-product constant switches from its exact double sum
# to its proven upper bound (the ratio to N^2 vanishes either way).
ETA3_EXACT_MAX_N = 10 ** 5


# J0(n*pi) for n < 16, as the cephes library's j0 gives them
_J0_PI_HEAD = np.array([
    1.0, -0.30424217764409384, 0.22027690853993448, -0.18121145350892762,
    0.15750739248213824, -0.14118205211198417, 0.12906351943681874, -0.11960936315586373,
    0.11196783453388685, -0.1056252447862022, 0.10025099457300612, -0.09562141524003429,
    0.09157905754765178, -0.08800944874434553, 0.08482710019048086, -0.08196670775562534,
])


def _hankel_coefficients(terms):
    """(-1)^k c_2k and (-1)^k c_2k+1 for k < terms, c_m = (1^2 3^2 ... (2m-1)^2) / (m! 8^m)."""
    num, den, c = 1, 1, [1.0]
    for m in range(1, 2 * terms):
        num *= (2 * m - 1) ** 2
        den *= 8 * m
        c.append(num / den)                             # int / int: correctly rounded
    signed = [(-1) ** (m // 2) * v for m, v in enumerate(c)]
    return signed[0::2], signed[1::2]


# Hankel's expansion (DLMF 10.17.3) J0(x) ~ sqrt(2/(pi x)) (P cos w + Q sin w)
# with w = x - pi/4, P = sum_k (-1)^k c_2k x^-2k and Q = sum_k (-1)^k c_2k+1
# x^-(2k+1).  At x >= 16 pi its first omitted term is below 3e-29.
_HANKEL_P, _HANKEL_Q = _hankel_coefficients(14)


@lru_cache(maxsize=32)
def _j0_pi_table(N):
    """J0(n*pi) for n = 0..N-1, read-only: the one place the package evaluates Bessel J0.

    n < 16 come from _J0_PI_HEAD, the rest from Hankel's expansion, with the
    phase x - pi/4 and the factor sqrt(2/pi)/sqrt(x) rounded as cephes' j0
    rounds them.  tests/test_bounds.py pins the table to that j0, within a
    few ulps, and to mpmath.
    """
    x = math.pi * np.arange(len(_J0_PI_HEAD), N)
    y = 1.0 / (x * x)
    p = np.full_like(x, _HANKEL_P[-1])
    q = np.full_like(x, _HANKEL_Q[-1])
    for a, b in zip(_HANKEL_P[-2::-1], _HANKEL_Q[-2::-1]):  # Horner in 1/x^2
        p *= y
        p += a
        q *= y
        q += b
    q /= x
    w = x - math.pi / 4
    p *= np.cos(w)
    q *= np.sin(w)
    p += q
    p *= math.sqrt(2.0 / math.pi)
    p /= np.sqrt(x)
    table = np.concatenate((_J0_PI_HEAD[:N], p))
    table.setflags(write=False)
    return table


def exact_mean_inner(N):
    """Exact E{h^H h'} over independent angles: sum of J0(n*pi)^2."""
    b = _j0_pi_table(N)
    return float(np.sum(b * b))


def exact_mean_abs2(N):
    """Exact E{|h^H h'|^2}: N + 2 sum (N-n) J0(n*pi)^2."""
    b = _j0_pi_table(N)
    n = np.arange(1, N)
    return float(N + 2.0 * np.sum((N - n) * b[1:] ** 2))


@lru_cache(maxsize=32)
def _triple_double_sum(N):
    """sum_{m=1}^{N-1} sum_{n=0}^{N-m-1} J0(m pi) J0(n pi) J0((n+m) pi)."""
    b = _j0_pi_table(N)
    if N < 2:
        return 0.0
    # self-convolution by a zero-padded real FFT (length 2N holds all 2N-1 lags)
    f = np.fft.rfft(b, 2 * N)
    conv = np.fft.irfft(f * f, 2 * N)[:N]
    # conv[s] = sum_{m=0..s} b_m b_{s-m}; drop the m=0 term to start at m=1
    return float(np.sum(b[1:] * (conv[1:] - b[0] * b[1:])))


def exact_mean_triple(N):
    """Exact E{h^H h' h'^H h''} over three independent angles."""
    return exact_mean_inner(N) + 2.0 * _triple_double_sum(N)


def eta1(N):
    """Large-N constant for E{h^H h'}: 1 + (ln N + a)/pi^2."""
    if not N >= 1:
        raise ParameterError(f"N must be >= 1, got {N}")
    return 1.0 + (math.log(N) + EULER_GAMMA) / math.pi ** 2


def eta2(N):
    """Large-N constant for E{|h^H h'|^2}."""
    if not N >= 1:
        raise ParameterError(f"N must be >= 1, got {N}")
    return N - 2.0 / math.pi ** 2 * (N - 1) + 2.0 * N / math.pi ** 2 * (math.log(N) + EULER_GAMMA)


def eta3(N):
    """Constant for the triple product: eta1 plus the exact double sum.

    For N > ETA3_EXACT_MAX_N the double sum is replaced by its proven upper
    bound (2(N-1)/pi^2)(ln N + a).  eta3/N^2 vanishes either way, but the
    bound is loose, so eta3 and R_LB jump at the switch.  At L=3, K=4, M=2,
    1-bit, p_p=4, eta3 goes from 130.05 at N=10^5 to 245 000 at N=10^5+1,
    and R_LB falls from 5.645691 to 5.636181.  At N=10^7 the exact sum is
    1284, 26 000 times below the bound, and takes 3.2 s on a 2-core host.
    """
    if N > ETA3_EXACT_MAX_N:
        return eta3_upper_bound(N)
    return eta1(N) + 2.0 * _triple_double_sum(N)


def eta3_upper_bound(N):
    """eta1(N) + (2(N-1)/pi^2)(ln N + a), an upper bound on eta3 for N >= 2."""
    return eta1(N) + 2.0 * (N - 1) / math.pi ** 2 * (math.log(N) + EULER_GAMMA)


def log_rate(x):
    """log2(x), the rate in bits."""
    return math.log(x) / math.log(2.0)


@dataclass(frozen=True)
class BoundInputs:
    """Scalars feeding the lower bound."""

    c: float          # analog-gain floor
    lam: float        # c^2 + (K-1)M + beta(L-1)KM
    mu: float         # bounded equivalent estimation-noise power
    eta1: float
    eta2: float
    eta3: float


def bound_inputs(cfg):
    c = gain_lower_bound(cfg.M, cfg.B)
    L, K, M = cfg.L, cfg.K, cfg.M
    lam = c ** 2 + (K - 1) * M + cfg.beta_inter * (L - 1) * K * M
    # the engine's estimation noise at received gain lambda
    mu = noise_equivalent_mu(cfg, quant_noise_power(cfg, lam, cfg.p_p / cfg.tau))
    return BoundInputs(c=c, lam=lam, mu=mu, eta1=eta1(cfg.N), eta2=eta2(cfg.N), eta3=eta3(cfg.N))


@dataclass(frozen=True)
class BoundReport:
    """Lower bound value, its five interference terms, and the special cases."""

    P_u: float
    P_c: float
    P_n: float
    P_q: float
    P_e: float
    R_LB: float
    R_inf: float
    R_LB_1: float
    R_LB_2: float
    xi1: float
    xi2: float
    inputs: BoundInputs


def lower_bound_rate(cfg):
    """Closed-form ergodic-rate lower bound and its term decomposition."""
    iv = bound_inputs(cfg)
    c, lam, mu = iv.c, iv.lam, iv.mu
    e1, e2, e3 = iv.eta1, iv.eta2, iv.eta3
    L, K, N, M = cfg.L, cfg.K, cfg.N, cfg.M
    beta = cfg.beta_inter
    pt = cfg.p_t
    one = 1.0 - cfg.rho

    P_u = one ** 2 * pt * (K - 1) * M * c ** -2 * e2
    P_c = one ** 2 * pt * (L - 1) * K * beta * M * c ** -2 * e2
    bracket = (
        N * c ** 2
        + N * mu
        + (L - 1) * N * beta * M
        + (L - 1) * (L - 2) * beta * M * e1
        + 2.0 * (L - 1) * math.sqrt(beta) * c * math.sqrt(M) * e1
    )
    P_n = one ** 2 * c ** -4 * bracket
    P_q = quant_noise_power(cfg, lam, pt) * c ** -4 * bracket
    P_e = one ** 2 * pt * c ** -4 * (
        N * lam * mu
        + (L - 1) * N ** 2 * beta ** 2 * M ** 2
        + 2.0 * (L - 1) * (L - 2) * N * beta ** 2 * M ** 2 * e1
        + 2.0 * (L - 1) * N * (math.sqrt(beta) * c ** 3 * math.sqrt(M)
                               + beta ** 1.5 * c * M ** 1.5) * e1
        + (L - 1) * K * beta * M ** 2 * e2
        + (L - 1) * (L * K - K - 1) * beta ** 2 * M ** 2 * e2
        + (L - 1) * (L - 2) * K * beta * M ** 2 * e3
        + (L - 1) * (L - 2) * (L * K - K - 2) * beta ** 2 * M ** 2 * e3
        + 2.0 * (L - 1) * (K - 1) * math.sqrt(beta) * c * M ** 1.5 * e3
        + 2.0 * (L - 1) * (L * K - K - 1) * beta ** 1.5 * c * M ** 1.5 * e3
    )
    denom = P_u + P_c + P_n + P_q + P_e
    r_lb = log_rate(1.0 + one ** 2 * pt * N ** 2 / denom)

    xi1, r_lb_1 = low_snr_approx(cfg)
    xi2, r_lb_2 = high_pilot_approx(cfg)
    return BoundReport(
        P_u=P_u, P_c=P_c, P_n=P_n, P_q=P_q, P_e=P_e,
        R_LB=r_lb,
        R_inf=asymptotic_limit(cfg),
        R_LB_1=r_lb_1, R_LB_2=r_lb_2, xi1=xi1, xi2=xi2,
        inputs=iv,
    )


def asymptotic_limit(cfg):
    """N -> infinity limit log(1 + c^4 / ((L-1) beta^2 M^2)).

    Diverges for a single cell (no pilot contamination); reported as +inf.
    """
    if cfg.L == 1:
        return math.inf
    c = gain_lower_bound(cfg.M, cfg.B)
    return log_rate(1.0 + c ** 4 / ((cfg.L - 1) * cfg.beta_inter ** 2 * cfg.M ** 2))


def low_snr_approx(cfg):
    """(xi1, rate) for the low data & pilot SNR regime: xi1 = (1-rho)^2 N M^2 p_p."""
    one = 1.0 - cfg.rho
    xi1 = one ** 2 * cfg.N * cfg.M ** 2 * cfg.p_p
    return xi1, log_rate(1.0 + xi1 * cfg.p_t)


def high_pilot_approx(cfg):
    """(xi2, rate) for low data / high pilot SNR: xi2 = (1-rho)^2 N M / (1-rho+rho K/tau)."""
    rho = cfg.rho
    one = 1.0 - rho
    xi2 = one ** 2 * cfg.N * cfg.M / (one + rho * cfg.K / cfg.tau)
    return xi2, log_rate(1.0 + xi2 * cfg.p_t)
