"""Experiment configuration: one JSON-serializable tree of dataclasses.

The default profile reproduces the desk-scale study: a 54-bin / 64-point
waveform in 10 MHz-class numerology, a 50-device annular cell from 10 m to
50 m with fourth-power path loss and full compensation up to the coverage
radius, and a 20-device training run.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from numbers import Integral, Real
from pathlib import Path

from .deployment import PowerControlParams
from .errors import ConfigError
from .rf import RappPa
from .waveform import WaveformConfig

#: scheme identifiers accepted across the CLI and config files
SCHEME_NAMES = ("csc_mv_1", "csc_mv_2", "csc_mv_4", "obda")


def scheme_votes(name: str) -> int | None:
    """Votes per block for a chirp scheme, None for the QPSK baseline."""
    if name == "obda":
        return None
    if name.startswith("csc_mv_"):
        try:
            votes = int(name[len("csc_mv_") :])
        except ValueError:
            raise ConfigError(f"unknown scheme {name!r}") from None
        if votes < 1:
            raise ConfigError(f"unknown scheme {name!r}")
        return votes
    raise ConfigError(f"unknown scheme {name!r}")


@dataclass(frozen=True)
class MetricsConfig:
    """Sample sizes and resolutions for the waveform/RF metric runs."""

    num_symbols: int = 10000
    stream_symbols: int = 2000
    oversample: int = 4
    segment_len: int = 1024
    obo_step_db: float = 0.5

    def __post_init__(self) -> None:
        if self.num_symbols < 1 or self.stream_symbols < 1:
            raise ConfigError("symbol counts must be positive")
        if self.oversample < 1:
            raise ConfigError("oversample must be a positive integer")
        if self.segment_len < 1:
            raise ConfigError("segment_len must be positive")
        if self.obo_step_db <= 0:
            raise ConfigError("obo_step_db must be positive")


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
    tci_threshold: float = 0.1
    partition: str = "homogeneous"
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    # power-control clamp radii (coverage) used by the simulated uplinks
    csc_coverage_m: float = 46.5
    obda_coverage_m: float = 30.73

    def __post_init__(self) -> None:
        if not all(isinstance(s, Real) for s in self.snr_db) or not all(
            isinstance(s, Integral) for s in self.seeds
        ):
            raise ConfigError(
                "snr_db entries must be numbers and seeds entries non-negative integers"
            )
        object.__setattr__(self, "snr_db", tuple(float(s) for s in self.snr_db))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if self.num_eds < 1 or self.rounds < 1 or self.batch_size < 1:
            raise ConfigError("num_eds, rounds and batch_size must be positive")
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
        if not all(math.isfinite(s) for s in self.snr_db):
            raise ConfigError("snr_db values must be finite")
        if self.csc_coverage_m <= 0 or self.obda_coverage_m <= 0:
            raise ConfigError("coverage radii must be positive")


@dataclass(frozen=True)
class ExperimentConfig:
    """Top-level experiment profile."""

    wave: WaveformConfig = field(default_factory=WaveformConfig)
    pa: RappPa = field(default_factory=RappPa)
    power: PowerControlParams = field(default_factory=PowerControlParams)
    metrics: MetricsConfig = field(default_factory=MetricsConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    schemes: tuple[str, ...] = SCHEME_NAMES
    r_min: float = 10.0
    r_max: float = 50.0
    aclr_target_db: float = -22.0
    seed: int = 0
    out_dir: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "schemes", tuple(str(s) for s in self.schemes))
        for name in self.schemes:
            scheme_votes(name)  # validates
        if not self.schemes:
            raise ConfigError("at least one scheme is required")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if not 0 < self.r_min <= self.r_max:
            raise ConfigError("need 0 < r_min <= r_max")


_SECTIONS = {
    "wave": WaveformConfig,
    "pa": RappPa,
    "power": PowerControlParams,
    "metrics": MetricsConfig,
    "train": TrainConfig,
}


def _build(cls, data: dict, where: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected an object")
    allowed = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    try:
        return cls(**data)
    except TypeError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be an object")
    kwargs = dict(data)
    for key, cls in _SECTIONS.items():
        if key in kwargs:
            kwargs[key] = _build(cls, kwargs[key], key)
    return _build(ExperimentConfig, kwargs, "config")


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return asdict(cfg)


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
    Path(path).write_text(json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n")


def default_config() -> ExperimentConfig:
    return ExperimentConfig()
