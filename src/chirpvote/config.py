"""Experiment configuration: one JSON-serializable tree of dataclasses.

The default profile reproduces the desk-scale study: a 54-bin / 64-point
waveform in 10 MHz-class numerology, a 50-device annular cell from 10 m to
50 m with fourth-power path loss and full compensation up to the coverage
radius, and a 20-device training run.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path
from typing import get_type_hints

from .deployment import PowerControlParams
from .errors import ConfigError, require_field_types
from .rf import RappPa
from .waveform import WaveformConfig


@dataclass(frozen=True)
class Scheme:
    """What a scheme token means: two fields, and two properties derived from them."""

    votes_per_block: int  # chirp votes per DFT-spread symbol; 0 for plain subcarriers
    #: the power-control clamp radius in m, None without a transmit chain: the
    #: ``coverage_radius`` at the paper's compliant back-offs, 3.3 dB for the chirps
    #: and 10.5 dB for OBDA, rounded by hand
    clamp_radius_m: float | None

    @property
    def spread(self) -> bool:
        """Whether a symbol is DFT-spread chirp votes, or plain subcarriers."""
        return self.votes_per_block > 0

    @property
    def transmits(self) -> bool:
        """Whether the scheme has a transmit chain to measure and simulate."""
        return self.clamp_radius_m is not None


#: every scheme token's meaning, in the order the CLI and the studies list them
SCHEMES = {
    "csc_mv_1": Scheme(votes_per_block=1, clamp_radius_m=46.5),
    "csc_mv_2": Scheme(votes_per_block=2, clamp_radius_m=46.5),
    "csc_mv_4": Scheme(votes_per_block=4, clamp_radius_m=46.5),
    "obda": Scheme(votes_per_block=0, clamp_radius_m=30.73),
    "ideal": Scheme(votes_per_block=0, clamp_radius_m=None),
}

#: the tokens with a transmit chain: the default ``schemes`` and the RF commands' choices
RADIO_SCHEMES = tuple(name for name, s in SCHEMES.items() if s.transmits)


def scheme(name: str) -> Scheme:
    """The record of a scheme token; an unknown token raises ConfigError."""
    if name not in SCHEMES:
        raise ConfigError(f"unknown scheme {name!r}")
    return SCHEMES[name]


@dataclass(frozen=True)
class MetricsConfig:
    """Sample sizes and the ACLR sweep step for the waveform/RF metric runs."""

    num_symbols: int = 10000
    stream_symbols: int = 2000
    obo_step_db: float = 0.5

    def __post_init__(self) -> None:
        require_field_types(self)
        if self.num_symbols < 1 or self.stream_symbols < 1:
            raise ConfigError("symbol counts must be positive")
        # 0.01 dB is a 3,001-point aclr sweep over rf.OBO_SPAN_DB
        if self.obo_step_db < 0.01:
            raise ConfigError(f"obo_step_db must be at least 0.01 dB, got {self.obo_step_db!r}")


@dataclass(frozen=True)
class TrainConfig:
    """Federated training run shape."""

    num_eds: int = 20
    rounds: int = 200
    snr_db: tuple[float, ...] = (20.0,)
    batch_size: int = 32
    step_size: float = 0.02
    train_samples: int = 2000
    test_samples: int = 2000
    max_sync_offset: int = 4
    partition: str = "homogeneous"
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)

    def __post_init__(self) -> None:
        require_field_types(self)
        object.__setattr__(self, "snr_db", tuple(float(s) for s in self.snr_db))
        object.__setattr__(self, "seeds", tuple(self.seeds))
        if self.num_eds < 1 or self.rounds < 1 or self.batch_size < 1:
            raise ConfigError("num_eds, rounds and batch_size must be positive")
        if self.max_sync_offset < 0:
            raise ConfigError("max_sync_offset must be non-negative")
        if self.step_size <= 0:
            raise ConfigError("step_size must be positive")
        if self.train_samples < 1 or self.test_samples < 1:
            raise ConfigError("sample counts must be positive")
        if self.partition not in ("homogeneous", "heterogeneous"):
            raise ConfigError("partition must be 'homogeneous' or 'heterogeneous'")
        if not self.snr_db or not self.seeds:
            raise ConfigError("snr_db and seeds must be non-empty")
        if min(self.seeds) < 0:
            raise ConfigError("seeds must be non-negative")
        # training's noise power is 10^(-snr_db/10)
        try:
            finite = all(math.isfinite(10.0 ** (-s / 10.0)) for s in self.snr_db)
        except OverflowError:
            finite = False
        if not finite:
            raise ConfigError("snr_db values must keep 10^(-snr_db/10) a finite float")


@dataclass(frozen=True)
class ExperimentConfig:
    """Top-level experiment profile."""

    wave: WaveformConfig = field(default_factory=WaveformConfig)
    pa: RappPa = field(default_factory=RappPa)
    power: PowerControlParams = field(default_factory=PowerControlParams)
    metrics: MetricsConfig = field(default_factory=MetricsConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    schemes: tuple[str, ...] = RADIO_SCHEMES
    r_min: float = 10.0
    r_max: float = 50.0
    aclr_target_db: float = -22.0
    seed: int = 0

    def __post_init__(self) -> None:
        require_field_types(self)
        object.__setattr__(self, "schemes", tuple(self.schemes))
        for name in self.schemes:
            scheme(name)  # validates
        if not self.schemes:
            raise ConfigError("at least one scheme is required")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if not 0 < self.r_min <= self.r_max:
            raise ConfigError("need 0 < r_min <= r_max")


def _build(cls, data: dict, where: str):
    """``cls`` from a JSON object whose keys are its fields; a
    dataclass-typed field given an object is a section, built the same way
    under its name. The dataclasses check their own values, a section that
    is not an object included."""
    kinds = get_type_hints(cls)
    unknown = sorted(set(data) - set(kinds))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    kwargs = {
        name: _build(kinds[name], value, name)
        if is_dataclass(kinds[name]) and isinstance(value, dict)
        else value
        for name, value in data.items()
    }
    return cls(**kwargs)


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be an object")
    return _build(ExperimentConfig, data, "config")


def load_config(path: str | Path) -> ExperimentConfig:
    """Read a JSON experiment profile; malformed input raises ConfigError."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    return config_from_dict(data)


def save_config(cfg: ExperimentConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(asdict(cfg), indent=2, sort_keys=True) + "\n")
