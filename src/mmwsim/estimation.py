"""Orthogonal pilots, quantized pilot reception, and per-cell MMSE estimation."""

from typing import NamedTuple

import numpy as np

from .errors import ParameterError, DegenerateInputError
from .quantize import lloyd_max_quantize, quant_noise_power_pilot
from .rng import complex_normal


def build_pilot_matrix(tau, K):
    """First K columns of the tau-point unitary DFT matrix; Psi^H Psi = I_K."""
    if tau < K:
        raise ParameterError(f"pilot length tau={tau} must be >= K={K}")
    m = np.arange(tau)[:, None]
    n = np.arange(K)[None, :]
    return np.exp(-2j * np.pi * m * n / tau) / np.sqrt(tau)


def noise_equivalent_mu(cfg, sigma_pq2):
    """Equivalent estimation-noise power: sigma_n^2/P_p + sigma_pq^2/((1-rho)^2 P_p)."""
    if cfg.p_p <= 0:
        raise ParameterError("p_p must be > 0")
    rho = cfg.rho
    return cfg.sigma_n2 / cfg.p_p + sigma_pq2 / ((1.0 - rho) ** 2 * cfg.p_p)


def mmse_gain_matrix(C, Bmat, mu_j, j):
    """Diagonal of the per-user MMSE shrinkage matrix at BS j.

    C and Bmat are the (L, L, K) gain and large-scale tables; entry k is
    beta_jjk |c_jjk|^2 / (sum_l beta_jlk |c_jlk|^2 + mu_j).
    """
    if mu_j < 0:
        raise ParameterError(f"mu_j must be >= 0, got {mu_j}")
    num = Bmat[j, j] * np.abs(C[j, j]) ** 2                     # (K,)
    den = np.sum(Bmat[j] * np.abs(C[j]) ** 2, axis=0) + mu_j    # (K,)
    if np.any(den == 0.0):
        raise DegenerateInputError("estimator bracket is singular (all gains and mu are zero)")
    return num / den


def receive_pilots(eff_channels, Psi, cfg, sigma_pq2, quant_path="bussgang", rng=None):
    """One quantized pilot observation Y_qp (N x tau) at a BS.

    eff_channels stacks the L effective channels (L, N, K) seen by this BS.
    The bussgang path applies the linearized model (scale by 1-rho, add white
    noise of power sigma_pq2); the real path runs the per-component MMSE
    quantizer with gain control matched to the statistical receive variance.
    """
    if rng is None:
        raise ParameterError("receive_pilots needs an rng")
    N = eff_channels.shape[1]
    tau = Psi.shape[0]
    Y_p = np.sqrt(cfg.p_p) * eff_channels.sum(axis=0) @ Psi.T
    Y_p = Y_p + complex_normal(rng, (N, tau), cfg.sigma_n2)
    rho = cfg.rho
    if quant_path == "bussgang":
        return (1.0 - rho) * Y_p + complex_normal(rng, (N, tau), sigma_pq2), Y_p
    if quant_path == "real":
        if cfg.adc_bits is None:
            raise ParameterError("the real quantizer path needs adc_bits")
        if cfg.rho_ad is not None:
            raise ParameterError(
                "the real quantizer path runs the adc_bits quantizer and cannot honor "
                f"a rho_ad override (rho_ad={cfg.rho_ad})"
            )
        agc_var = sigma_pq2 / (rho * (1.0 - rho)) if rho > 0 else None
        if agc_var is None:
            return Y_p.copy(), Y_p
        return lloyd_max_quantize(Y_p, cfg.adc_bits, agc_var), Y_p
    raise ParameterError(f"unknown quant_path {quant_path!r}")


def estimate_channel(Y_qp, Psi, g_diag, cfg, hbar_jj=None):
    """MMSE channel estimate H_hat = Y_qp Psi* diag(g) / ((1-rho) sqrt(P_p)).

    When the true effective channel hbar_jj is supplied, the realized error
    matrix E = H_hat diag(1/g) - hbar_jj is returned as well (None otherwise).
    """
    g_diag = np.asarray(g_diag, dtype=float)
    if np.any(g_diag == 0.0):
        raise DegenerateInputError("estimation matrix has zero diagonal entries")
    rho = cfg.rho
    H_hat = (Y_qp @ Psi.conj()) * g_diag[None, :] / ((1.0 - rho) * np.sqrt(cfg.p_p))
    E = None
    if hbar_jj is not None:
        E = H_hat / g_diag[None, :] - hbar_jj
    return H_hat, E


class CellEstimate(NamedTuple):
    """Pilot-phase outputs at one BS."""

    sigma_pq2: float
    mu: float
    G: np.ndarray
    Y_qp: np.ndarray
    H_hat: np.ndarray
    e: np.ndarray


def cell_statistics(C, Bmat, j, cfg):
    """(sigma_pq2, mu, G) at BS j from gains and config only (no sampling).

    C and Bmat are gain and large-scale tables indexed [j, l, k]; only row j
    is read, so tables holding rows 0..j suffice.
    """
    sigma_pq2 = quant_noise_power_pilot(cfg, np.abs(C) ** 2, Bmat, j)
    mu = noise_equivalent_mu(cfg, sigma_pq2)
    return sigma_pq2, mu, mmse_gain_matrix(C, Bmat, mu, j)


def estimate_cell(eff, C, Bmat, j, cfg, Psi, rng, quant_path="bussgang"):
    """Run the pilot phase at BS j alone and return its CellEstimate.

    eff stacks the L effective channels (L, N, K) BS j sees; C and Bmat are
    read as in cell_statistics.  Only the pilot observation draws from rng.
    """
    sigma_pq2, mu, G = cell_statistics(C, Bmat, j, cfg)
    Y_qp, _ = receive_pilots(eff, Psi, cfg, sigma_pq2, quant_path, rng)
    H_hat, e = estimate_channel(Y_qp, Psi, G, cfg, hbar_jj=eff[j])
    return CellEstimate(sigma_pq2, mu, G, Y_qp, H_hat, e)
