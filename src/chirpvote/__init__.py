"""chirpvote: chirp-based over-the-air majority-vote simulation framework.

Simulates federated sign-vote learning where edge devices transmit gradient
sign votes simultaneously as circularly-shifted chirps, detected
non-coherently at the receiver, alongside a coherent QPSK baseline and the
RF plumbing (shaping, PA, spectral metrics, path loss) needed to compare
them under realistic constraints.
"""

from .channel import (
    ChannelRealization,
    draw_epa,
    draw_sync_offset,
    epa_rms_delay_spread_ns,
    min_guard_bins,
    propagate,
    superpose,
)
from .config import (
    SCHEME_NAMES,
    ExperimentConfig,
    MetricsConfig,
    TrainConfig,
    config_from_dict,
    config_to_dict,
    default_config,
    load_config,
    save_config,
    scheme_votes,
)
from .datasets import Dataset, idx_digits, synthetic_digits
from .deployment import (
    Deployment,
    PowerControlParams,
    coverage_radius,
    link_power,
    received_power,
    snr_vs_distance,
)
from .errors import ChirpVoteError, ConfigError, FramingError, InfeasibleError
from .learn import (
    BoundParams,
    TrainSetup,
    TrainState,
    convergence_bound,
    evaluate,
    ideal_mv,
    partition_dataset,
    run_round,
    run_training,
)
from .numerics import fresnel_array, power_spectrum
from .oac import (
    VotePlan,
    build_vote_plan,
    decode_obda,
    detect_mv,
    encode_csc,
    encode_obda,
    guard_for_votes,
    votes_per_block,
)
from .rf import (
    RappPa,
    aclr,
    aclr_at_obo,
    cubic_metric,
    obo_for_aclr,
    occupied_band,
    pmepr,
)
from .waveform import (
    ComplexSignal,
    WaveformConfig,
    assemble_stream,
    build_fdss,
    demodulate_ofdm,
    despread,
    modulate_ofdm,
    spread,
)

__version__ = "0.1.0"

__all__ = [
    "BoundParams",
    "ChannelRealization",
    "ChirpVoteError",
    "ComplexSignal",
    "ConfigError",
    "Dataset",
    "Deployment",
    "ExperimentConfig",
    "FramingError",
    "InfeasibleError",
    "MetricsConfig",
    "PowerControlParams",
    "RappPa",
    "SCHEME_NAMES",
    "TrainConfig",
    "TrainSetup",
    "TrainState",
    "VotePlan",
    "WaveformConfig",
    "aclr",
    "aclr_at_obo",
    "assemble_stream",
    "build_fdss",
    "build_vote_plan",
    "config_from_dict",
    "config_to_dict",
    "convergence_bound",
    "coverage_radius",
    "cubic_metric",
    "decode_obda",
    "default_config",
    "demodulate_ofdm",
    "despread",
    "detect_mv",
    "draw_epa",
    "draw_sync_offset",
    "encode_csc",
    "encode_obda",
    "epa_rms_delay_spread_ns",
    "evaluate",
    "fresnel_array",
    "guard_for_votes",
    "ideal_mv",
    "idx_digits",
    "link_power",
    "load_config",
    "min_guard_bins",
    "modulate_ofdm",
    "obo_for_aclr",
    "occupied_band",
    "partition_dataset",
    "pmepr",
    "power_spectrum",
    "propagate",
    "received_power",
    "run_round",
    "run_training",
    "save_config",
    "scheme_votes",
    "snr_vs_distance",
    "spread",
    "superpose",
    "synthetic_digits",
    "votes_per_block",
]
