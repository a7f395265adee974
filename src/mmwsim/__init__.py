"""Uplink performance toolkit for multi-cell mmWave massive MIMO with
low-resolution ADCs: Monte-Carlo ergodic rates under estimated CSI plus the
matching closed-form lower bound, large-N limit, and low-SNR scaling laws."""

__version__ = "0.1.0"

from .config import SystemConfig, distortion_factor, load_config
from .config import validate_config  # noqa: F401  importable, not public
from .channel import steering_vector
from .training import build_codebook
from .estimation import build_pilot_matrix
from .quantize import bussgang_decompose, lloyd_max_quantize
from .rate import RateReport, ergodic_rate
from .bounds import (BoundInputs, BoundReport, asymptotic_limit, eta1, eta2, eta3,
                     high_pilot_approx, low_snr_approx, lower_bound_rate)
from .sweep import SweepSpec, load_preset, run_sweep

__all__ = [
    "SystemConfig", "distortion_factor", "load_config",
    "steering_vector", "build_codebook", "build_pilot_matrix",
    "bussgang_decompose", "lloyd_max_quantize",
    "RateReport", "ergodic_rate",
    "BoundInputs", "BoundReport", "asymptotic_limit",
    "eta1", "eta2", "eta3", "high_pilot_approx", "low_snr_approx",
    "lower_bound_rate",
    "SweepSpec", "load_preset", "run_sweep",
]
