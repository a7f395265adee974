"""Orthogonal pilots and the equivalent estimation-noise power.

The paper's MMSE estimate scales each user's pilot correlation by a shrinkage
G_jk that MRC ignores, so the rate engine never forms it: it works with hbar +
e, analytically via mu in semi mode and sampled, a block of trials at a
time, in rate._pilot_phase.
"""

import numpy as np

from .config import check_integers


def build_pilot_matrix(tau, K):
    """First K columns of the tau-point unitary DFT matrix; Psi^H Psi = I_K."""
    check_integers(K=K, tau=tau)
    m = np.arange(tau)[:, None]
    n = np.arange(K)[None, :]
    return np.exp(-2j * np.pi * m * n / tau) / np.sqrt(tau)


def noise_equivalent_mu(cfg, sigma_pq2):
    """Equivalent estimation-noise power: 1/P_p + sigma_pq^2/((1-rho)^2 P_p)."""
    return 1.0 / cfg.p_p + sigma_pq2 / ((1.0 - cfg.rho) ** 2 * cfg.p_p)
