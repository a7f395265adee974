"""Scenario configuration, its checks, and the ADC distortion-factor table."""

import json
import math
import sys
from dataclasses import dataclass, fields

from .errors import ParameterError, ConfigError

# Normalized MSE of the MSE-optimal (Lloyd-Max) scalar quantizer for a
# unit-variance Gaussian input, by bit depth.  Values come from running the
# fixed-point design tests/oracles.lloyd_max_design to convergence; b=1 is the
# analytic 1 - 2/pi.  tests/test_quantize.py regenerates every depth with
# quantize.lloyd_max_distortion from the shipped levels (quantize.LEVELS_FILE,
# that design under its iteration budget), to 1e-4 up to 9 bits and to 3e-3
# beyond, where the budget stops short of convergence.
RHO_AD_TABLE = {
    1: 0.363380227632,
    2: 0.117481847829,
    3: 0.034547760788,
    4: 0.009501008008,
    5: 0.002504668356,
    6: 6.442396653e-04,
    7: 1.634782300e-04,
    8: 4.118508286e-05,
    9: 1.033682869e-05,
    10: 2.587973554e-06,
    11: 6.464407687e-07,
    12: 1.616356268e-07,
}


def adc_bits_violation(bits):
    """The message if `bits` is no ADC depth of RHO_AD_TABLE, else None."""
    if _is_int(bits) and bits in RHO_AD_TABLE:
        return None
    return (f"adc_bits must be an integer in [{min(RHO_AD_TABLE)}, {max(RHO_AD_TABLE)}], "
            f"got {_shown(bits)}")


def distortion_factor(bits):
    """Distortion factor of a `bits`-deep MMSE quantizer for Gaussian input.

    Strictly decreasing in `bits`; 1 - distortion_factor(bits) is the
    linearized quantizer gain.
    """
    if error := adc_bits_violation(bits):
        raise ParameterError(error)
    return RHO_AD_TABLE[bits]


# Memory budget of five things: a drawn trial block and its sub-blocks in
# semi mode's Gram kernel and in symbol mode's pilot phase, each counted by
# rate._block_trials; one chunk of training._full_scan, where a scanned
# user's share is its 2^B scores at 16 bytes each; and one chunk of the
# sides that training._beam_table bisects.  Both engine modes run up to
# rate.WORKERS blocks at once, each with its own budget.  A worker's
# workspace (rate._semi_workspace, about one Gram sub-block's arrays, or
# rate._symbol_workspace) lives for the whole run, so it counts against
# that worker's budget also while the worker draws its next block: on
# fig2's K = 8, 16 and 32 points a worker's measured peak is 2.0-2.3x the
# budget.  On the fig2 sweep (4 x 2000 trials in process, 2 cores, medians
# of 7 interleaved runs) 512 KiB took 0.46 s, 1 MiB 0.32 s, 2 MiB 0.28 s
# and 4 MiB 0.29 s: 2 MiB is 13% faster, for twice the memory.
BLOCK_BYTES = 1 << 20


def codebook_zeta(B):
    """Half-interval pi / 2^(B+1) of the B-bit phase codebook."""
    return math.pi / 2 ** (B + 1)


def beam_warnings(M, B):
    """The analytic lower gain bound only holds for zeta <= 2/M; wider
    codebook intervals are allowed but flagged.  Returns () or one note."""
    zeta = codebook_zeta(B)
    if zeta <= 2.0 / M:
        return ()
    return (f"zeta = pi/2^(B+1) = {zeta:.4g} exceeds 2/M = {2.0 / M:.4g}; "
            "the analog-gain lower bound is not asserted",)


@dataclass(frozen=True)
class SystemConfig:
    """All scenario parameters for one simulation or bound evaluation.

    Powers are linear and in units of the noise power, so p_t and p_p are
    the data and pilot SNRs.  `tau` and `p_p` default to K and tau*p_t when left
    unset.  Every instance is checked when it is built, and
    `dataclasses.replace` builds a new one, so a SystemConfig that exists is
    valid; the checks collect every violation into one ConfigError.  Both
    arrays are half-wavelength ULAs, as the closed-form bound assumes, and
    rates are in bits.
    """

    L: int = 1                      # cells
    K: int = 1                      # users per cell
    N: int = 64                     # BS antennas
    M: int = 2                      # user antennas
    B: int = 6                      # phase-shifter bits
    tau: int = None                 # pilot length, default K
    adc_bits: int = None            # ADC depth; ignored when rho_ad given
    rho_ad: float = None            # explicit distortion-factor override
    p_t: float = 1.0                # data transmit power
    p_p: float = None               # pilot power (total per user over tau)
    beta_inter: float = 0.1         # inter-cell large-scale factor
    seed: int = 0

    def __post_init__(self):
        # tau and p_p derive only from a K, tau and p_t that pass their type
        # checks; otherwise they stay unset and only the field at fault is reported
        if self.tau is None and _is_int(self.K):
            object.__setattr__(self, "tau", self.K)
        if self.p_p is None and _is_int(self.tau) and _is_finite_number(self.p_t):
            object.__setattr__(self, "p_p", self.tau * self.p_t)
        errors = _violations(self)
        if errors:
            raise ConfigError(errors)

    @property
    def warnings(self):
        """Non-fatal notes: beam_warnings for this M and B."""
        return beam_warnings(self.M, self.B)

    @property
    def rho(self):
        """Effective ADC distortion factor."""
        if self.rho_ad is not None:
            return self.rho_ad
        return distortion_factor(self.adc_bits)

    @property
    def snr_db(self):
        return 10.0 * math.log10(self.p_t)

    @property
    def pilot_snr_db(self):
        return 10.0 * math.log10(self.p_p)


def _is_int(v):
    """An int, not a bool, that a float can hold."""
    return _is_finite_number(v) and isinstance(v, int)


def _is_finite_number(v):
    """An int or float, not a bool, within float range (compared exactly, so never overflowing)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _shown(v):
    """repr(v), but an int beyond float range by that fact, not by its digits."""
    return repr(v) if type(v) is not int or _is_int(v) else "an integer beyond float range"


# (least, greatest or None) of each integer field.  B's ceiling bounds the
# 2^B codebook phases that training._full_scan scores for a user outside
# the certified intervals of training._beam_table (2^(B+1) edges), and that
# `checks` scans on its angle grid; 12 bits (4096 phases) is far finer than
# any phase shifter the model is meant for.
MAX_B = 12
_INT_RANGES = {"L": (1, None), "K": (1, None), "N": (1, None), "M": (1, None),
               "B": (0, MAX_B), "tau": (1, None), "seed": (0, None)}


def _int_violations(values):
    """The messages for integer fields by name in `values` that cannot hold
    their value, then for tau < K where both are named and pass."""
    errors = {}
    for name, v in values.items():
        low, high = _INT_RANGES[name]
        if not (_is_int(v) and v >= low):
            kind = "positive" if low else "non-negative"
            errors[name] = f"{name} must be a {kind} integer, got {_shown(v)}"
        elif high is not None and v > high:
            errors[name] = f"{name} must be at most {high}, got {v}"
    if {"tau", "K"} <= values.keys() - errors.keys() and values["tau"] < values["K"]:
        errors["tau < K"] = ("tau < K: orthogonal pilots need tau >= K "
                             f"(tau={values['tau']}, K={values['K']})")
    return list(errors.values())


def check_integers(**values):
    """Raise ParameterError, with the message a SystemConfig gives, unless
    each named integer field (L, K, N, M, B, tau, seed) passes its check."""
    errors = _int_violations(values)
    if errors:
        raise ParameterError("; ".join(errors))


def _violations(cfg):
    """Every violation in a config whose defaults are filled, as messages."""
    # tau stays unset, and is not reported, only when K is at fault
    ints = {name: getattr(cfg, name) for name in _INT_RANGES}
    if cfg.tau is None:
        del ints["tau"]
    errors = _int_violations(ints)
    bad = {"p_p"} if cfg.p_p is None else set()

    for name in ("p_t", "p_p", "beta_inter", "rho_ad"):
        v = getattr(cfg, name)
        if name == "rho_ad" and v is None:
            continue        # optional: adc_bits then sets the distortion factor
        if name not in bad and not _is_finite_number(v):
            errors.append(f"{name} must be a finite number, got {_shown(v)}")
            bad.add(name)

    if cfg.rho_ad is not None:
        if "rho_ad" not in bad and not 0.0 <= cfg.rho_ad < 1.0:
            errors.append(f"rho_ad must be in [0, 1), got {cfg.rho_ad}")
    elif cfg.adc_bits is None:
        errors.append("one of adc_bits or rho_ad must be set")
    elif error := adc_bits_violation(cfg.adc_bits):
        errors.append(error)

    for name in ("p_t", "p_p"):
        v = getattr(cfg, name)
        if name not in bad and not v > 0:
            errors.append(f"{name} must be > 0, got {v!r}")

    if "beta_inter" not in bad and not 0.0 < cfg.beta_inter < 1.0:
        errors.append(f"beta_inter must be in (0, 1), got {cfg.beta_inter}")
    return errors


def validate_config(cfg):
    """`cfg` itself: a SystemConfig is checked when it is built.  Kept for
    callers written when configs were checked in a separate step."""
    return cfg


# Keys of settings dicts (`--set`, config documents, sweeps): the SystemConfig
# fields, plus snr_db and pilot_snr_db, p_t and p_p in dB.
_INT_KEYS = {f.name for f in fields(SystemConfig) if f.type is int}
_DB_POWER = {"snr_db": "p_t", "pilot_snr_db": "p_p"}
SETTABLE_KEYS = {f.name for f in fields(SystemConfig)} | set(_DB_POWER)


def parse_setting(name, text):
    """Value of a `--set name=text` string, parsed by the key's type."""
    if name not in SETTABLE_KEYS:
        raise ParameterError(f"unknown parameter {name!r}")
    return int(text) if name in _INT_KEYS else float(text)


def config_from_dict(*layers):
    """Build a SystemConfig from settings dicts with strict key checking.

    Layers apply in order, and each layer's keys in order: a later value
    wins.  snr_db and pilot_snr_db translate to p_t and p_p as they merge, so
    a dB key and the power it stands for replace each other.  SystemConfig
    derives tau and p_p from the merged settings.  Other values keep their
    types, for SystemConfig to check.
    """
    unknown = sorted({k for layer in layers for k in layer} - SETTABLE_KEYS)
    if unknown:
        raise ConfigError([f"unknown config key {k!r}" for k in unknown])
    fields_doc = {}
    for layer in layers:
        for name, value in layer.items():
            if name in _DB_POWER:       # to p_t or p_p, in noise units
                if not _is_finite_number(value):
                    raise ConfigError(f"{name} must be a finite number, got {_shown(value)}")
                try:
                    name, value = _DB_POWER[name], 10.0 ** (value / 10.0)
                except OverflowError:
                    raise ConfigError(f"{name} = {value!r} dB overflows a float power") from None
            fields_doc[name] = value
    return SystemConfig(**fields_doc)


def load_config_doc(path):
    """Read a settings document: a JSON object, checked by config_from_dict."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    return doc


def load_config(path):
    """Read a config JSON document; unknown keys are a hard error."""
    return config_from_dict(load_config_doc(path))
