import importlib
import inspect
import pathlib

import mmwsim

PUBLIC = [
    "SystemConfig", "distortion_factor", "load_config",
    "steering_vector", "build_codebook", "build_pilot_matrix",
    "bussgang_decompose", "lloyd_max_quantize",
    "RateReport", "ergodic_rate",
    "BoundInputs", "BoundReport", "asymptotic_limit",
    "eta1", "eta2", "eta3", "high_pilot_approx", "low_snr_approx",
    "lower_bound_rate",
    "SweepSpec", "load_preset", "run_sweep",
]

# the per-realization reference pipeline, the paper's MMSE estimator and the
# single-cell bound's SNR form live in tests/oracles.py; the rest had no
# caller outside the tests or wrapped what its callers now call directly (the
# check helpers are inlined in the `validate` suites).  Keys name a module or a
# class in it.
RETIRED = {
    "channel": ["ChannelRealization", "sample_channel", "effective_channel",
                "dump_realization_csv"],
    "training": ["TrainingResult", "train_beams", "estimate_aoa", "beamforming_gain"],
    "estimation": ["EstimationResult", "pilot_statistics", "estimate_all",
                   "dump_error_power_csv", "mmse_gain_matrix", "receive_pilots",
                   "estimate_channel", "CellEstimate", "cell_statistics", "estimate_cell"],
    "rate": ["_conditional_powers", "mrc_detect", "siqnr", "signal_power",
             "interference_power"],
    "quantize": ["BussgangModel", "total_rx_gain", "quant_noise_power_data",
                 "quant_noise_power_pilot"],
    "errors": ["DegenerateInputError", "FormatError"],
    "rng": ["STAGE_TRAINING"],
    "sweep": ["read_csv_rows", "rows_to_csv_text"],
    "bounds": ["sinc", "single_cell_bound", "bessel_j0", "gain_floor"],
    "bounds.BoundInputs": ["euler_a"],
    "bounds.BoundReport": ["R_LB_s"],
    "config": ["set_param", "gain_floor_warnings", "_PAIRED"],
    "config.SystemConfig": ["zeta", "log_rate", "validated", "sigma_n2"],
    "rate.RateReport": ["gamma_samples", "seed"],
    "checks": ["xi_ordering_violations", "gain_bound_checks", "run_suite"],
}

SIGNATURES = {
    "rate.ergodic_rate": "(cfg, trials, mode='semi')",
    "training.select_beams": "(own_phi, codebook, M)",
    "quantize.lloyd_max_design": "(bits)",
    "quantize.lloyd_max_distortion": "(bits)",
    "quantize.received_power": "(total, power)",
    "sweep.emit_plot_script": "(csv_path, spec, rows)",
    "config.config_from_dict": "(*layers)",
    "rng.streams": "(seed, stage)",
    "rng.complex_normal": "(rng, shape, out=None, scratch=None)",
    "channel.draw_angles": "(cfg, rngs, out)",
    "checks.quantizer_suite": "()",
    "checks.lemmas_suite": "()",
    "checks.bounds_suite": "()",
    "checks.rate_suite": "()",
}


def _lookup(path):
    module, _, attr = path.partition(".")
    obj = importlib.import_module(f"mmwsim.{module}")
    return getattr(obj, attr) if attr else obj


def test_public_names():
    assert mmwsim.__all__ == PUBLIC
    assert all(hasattr(mmwsim, name) for name in PUBLIC)


def test_retired_names_are_gone():
    # a dataclass field without a default is no class attribute, so look in
    # the fields as well
    for owner, names in RETIRED.items():
        obj = _lookup(owner)
        fields = getattr(obj, "__dataclass_fields__", {})
        assert [n for n in names if hasattr(obj, n) or n in fields] == []


def test_signatures():
    # beam training is noiseless and unweighted; the quantizer design has one budget
    assert {name: str(inspect.signature(_lookup(name))) for name in SIGNATURES} == SIGNATURES


def test_rng_is_the_one_seeding_path():
    # every draw comes from an rng stream: only rng names numpy's seeding,
    # and substream's only other library caller is checks, whose validate
    # draws use (seed, n) keys that rng.streams does not take
    src = pathlib.Path(mmwsim.__file__).parent
    texts = {path.name: path.read_text() for path in sorted(src.glob("*.py"))}
    assert [name for name, text in texts.items() if "np.random" in text] == ["rng.py"]
    assert [name for name, text in texts.items() if "substream" in text] == ["checks.py", "rng.py"]
