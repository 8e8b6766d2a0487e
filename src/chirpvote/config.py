"""Experiment configuration: one JSON-serializable tree of dataclasses.

The default profile reproduces the desk-scale study: a 54-bin / 64-point
waveform in 10 MHz-class numerology, a 50-device annular cell from 10 m to
50 m with fourth-power path loss and full compensation up to the coverage
radius, and a 20-device training run.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path
from typing import NewType, get_args, get_origin, get_type_hints

from .deployment import PowerControlParams
from .errors import ConfigError, require_finite_floats
from .rf import RappPa
from .waveform import WaveformConfig


@dataclass(frozen=True)
class Scheme:
    """What a scheme token means; every reader dispatches on these fields."""

    votes_per_block: int  # chirp votes per DFT-spread symbol
    spread: bool  # whether a symbol is DFT-spread, or plain subcarriers
    #: the power-control clamp radius in m: ``coverage_radius`` at the paper's
    #: compliant back-offs, 3.3 dB for the chirps and 10.5 dB for OBDA, rounded by hand
    clamp_radius_m: float | None
    transmits: bool = True  # False for the error-free vote: no transmit chain


#: every scheme token's meaning, in the order the CLI and the studies list them
SCHEMES = {
    "csc_mv_1": Scheme(votes_per_block=1, spread=True, clamp_radius_m=46.5),
    "csc_mv_2": Scheme(votes_per_block=2, spread=True, clamp_radius_m=46.5),
    "csc_mv_4": Scheme(votes_per_block=4, spread=True, clamp_radius_m=46.5),
    "obda": Scheme(votes_per_block=0, spread=False, clamp_radius_m=30.73),
    "ideal": Scheme(votes_per_block=0, spread=False, clamp_radius_m=None, transmits=False),
}

#: the tokens with a transmit chain: the default ``schemes`` and the RF commands' choices
RADIO_SCHEMES = tuple(name for name, s in SCHEMES.items() if s.transmits)

#: a random-stream key; keyed_rng needs a non-negative integer
Seed = NewType("Seed", int)


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
        require_finite_floats(self)
        if self.num_symbols < 1 or self.stream_symbols < 1:
            raise ConfigError("symbol counts must be positive")
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
    partition: str = "homogeneous"
    seeds: tuple[Seed, ...] = (0, 1, 2, 3, 4)

    def __post_init__(self) -> None:
        require_finite_floats(self)
        if isinstance(self.snr_db, str) or isinstance(self.seeds, str):
            raise ConfigError("snr_db and seeds must be sequences, not strings")
        object.__setattr__(self, "snr_db", tuple(float(s) for s in self.snr_db))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
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
            finite = all(
                math.isfinite(s) and math.isfinite(10.0 ** (-s / 10.0)) for s in self.snr_db
            )
        except OverflowError:
            finite = False
        if not finite:
            raise ConfigError("snr_db values must be finite, with 10^(-snr_db/10) a finite float")


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
    seed: Seed = 0

    def __post_init__(self) -> None:
        require_finite_floats(self)
        object.__setattr__(self, "schemes", tuple(str(s) for s in self.schemes))
        for name in self.schemes:
            scheme(name)  # validates
        if not self.schemes:
            raise ConfigError("at least one scheme is required")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if not 0 < self.r_min <= self.r_max:
            raise ConfigError("need 0 < r_min <= r_max")


#: what a profile value must be, by field annotation
_EXPECTED = {
    int: "an integer", Seed: "a non-negative integer", float: "a finite number", str: "a string"
}


def _fits(value, kind) -> bool:
    """Whether a JSON value has a field's annotated type: an integer (not a
    bool) for int, a finite number for float, a list of such for a tuple."""
    if get_origin(kind) is tuple:
        return isinstance(value, (list, tuple)) and all(_fits(v, get_args(kind)[0]) for v in value)
    if isinstance(value, bool):
        return False
    if kind is float:
        # a comparison, not math.isfinite, which overflows on a huge integer;
        # it is false for NaN, the infinities and integers no float can hold
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, getattr(kind, "__supertype__", kind))


def _describe(kind) -> str:
    if get_origin(kind) is tuple:
        return f"a list, each entry {_describe(get_args(kind)[0])}"
    return _EXPECTED[kind]


def _build(cls, data: dict, where: str):
    """``cls`` from a JSON object, checked against its field annotations; a
    dataclass-typed field is a section, built the same way under its name."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected an object")
    kinds = get_type_hints(cls)
    unknown = sorted(set(data) - set(kinds))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    kwargs = {}
    for name, value in data.items():
        if is_dataclass(kinds[name]):
            value = _build(kinds[name], value, name)
        elif not _fits(value, kinds[name]):
            raise ConfigError(
                f"{where}: {name} must be {_describe(kinds[name])}, got {value!r}"
            )
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be an object")
    return _build(ExperimentConfig, data, "config")


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
