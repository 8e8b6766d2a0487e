"""Configuration tree: defaults, validation, and JSON round-trips."""
import json
import math
import warnings
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chirpvote.cli import main
from chirpvote.config import (
    RADIO_SCHEMES,
    SCHEMES,
    ExperimentConfig,
    MetricsConfig,
    Scheme,
    TrainConfig,
    config_from_dict,
    load_config,
    save_config,
    scheme,
)
from chirpvote.deployment import Deployment, PowerControlParams
from chirpvote.errors import ConfigError
from chirpvote.learn import BoundParams
from chirpvote.rf import RappPa
from chirpvote.waveform import WaveformConfig

ROOT = Path(__file__).resolve().parents[1]
PROFILES = ROOT / "scripts" / "profiles"


class TestSchemeTokens:
    def test_votes_per_scheme(self):
        assert scheme("csc_mv_1").votes_per_block == 1
        assert scheme("csc_mv_2").votes_per_block == 2
        assert scheme("csc_mv_4").votes_per_block == 4
        assert all(scheme(f"csc_mv_{v}").spread for v in (1, 2, 4))
        assert not scheme("obda").spread and not scheme("ideal").spread
        # every token but the error-free vote has a transmit chain
        assert [name for name, s in SCHEMES.items() if not s.transmits] == ["ideal"]
        # spread and transmits are derived, so a record cannot contradict itself
        assert [f.name for f in fields(Scheme)] == ["votes_per_block", "clamp_radius_m"]

    # only the listed tokens: csc_mv_3 and csc_mv_7 are well formed but not schemes
    @pytest.mark.parametrize(
        "bad", ["qpsk", "csc_mv_0", "csc_mv_x", "", "csc", "csc_mv_3", "csc_mv_7"]
    )
    def test_unknown_scheme_rejected(self, bad):
        with pytest.raises(ConfigError):
            scheme(bad)

    def test_scheme_without_transmit_chain_accepted(self):
        # train runs the error-free vote; the RF studies reject it by its record
        assert ExperimentConfig(schemes=("ideal",)).schemes == ("ideal",)


class TestDefaults:
    def test_default_profile_is_self_consistent(self):
        cfg = ExperimentConfig()
        assert cfg.wave.num_bins == 54
        assert cfg.wave.idft_size == 64
        assert cfg.schemes == ("csc_mv_1", "csc_mv_2", "csc_mv_4", "obda")
        assert 0 < cfg.r_min <= cfg.r_max
        assert cfg.train.partition == "homogeneous"
        assert cfg.train.seeds == (0, 1, 2, 3, 4)
        assert cfg.power.obo_min <= cfg.power.obo_ref

    def test_readme_lists_the_default_profile(self):
        block = (ROOT / "README.md").read_text().split("```json\n", 1)[1]
        listed = json.loads(block.split("```", 1)[0])
        assert listed == json.loads(json.dumps(asdict(ExperimentConfig())))

    def test_sequence_fields_coerced_to_tuples(self):
        train = TrainConfig(snr_db=[5, 10], seeds=[3])
        assert train.snr_db == (5.0, 10.0)
        assert train.seeds == (3,)
        cfg = ExperimentConfig(schemes=["obda"])
        assert cfg.schemes == ("obda",)


class TestValidation:
    def test_bad_scheme_in_experiment(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(schemes=("csc_mv_2", "qpsk"))

    def test_empty_schemes(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(schemes=())

    def test_radius_ordering(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(r_min=40.0, r_max=10.0)

    def test_metrics_bounds(self):
        with pytest.raises(ConfigError):
            MetricsConfig(num_symbols=0)
        with pytest.raises(ConfigError):
            MetricsConfig(obo_step_db=0.0)
        # 0.01 dB, a 3,001-point aclr sweep, is the finest step
        assert MetricsConfig(obo_step_db=0.01).obo_step_db == 0.01
        for step in (0.0099, 1e-300):
            with pytest.raises(ConfigError, match="^obo_step_db must be at least 0.01 dB"):
                MetricsConfig(obo_step_db=step)

    def test_train_bounds(self):
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigError):
            TrainConfig(partition="dirichlet")
        with pytest.raises(ConfigError):
            TrainConfig(seeds=())
        with pytest.raises(ConfigError):
            TrainConfig(snr_db=(10.0, float("nan")))
        with pytest.raises(ConfigError, match="a finite float"):
            TrainConfig(snr_db=(10.0, -3100.0))
        assert TrainConfig(snr_db=(-3000.0, 1e308)).snr_db == (-3000.0, 1e308)
        with pytest.raises(ConfigError, match="max_sync_offset"):
            TrainConfig(max_sync_offset=-1)
        with pytest.raises(ConfigError, match="step_size"):
            TrainConfig(step_size=0.0)
        with pytest.raises(ConfigError, match="rounds"):
            TrainConfig(rounds=0)
        for bad in ({"snr_db": "20"}, {"seeds": "12"}):
            with pytest.raises(ConfigError, match="must be a list, each entry"):
                TrainConfig(**bad)
        # entries of the wrong type are rejected by the dataclass, so a
        # profile meets the same check (a string is a sequence of characters)
        for bad in ({"snr_db": ["loud"]}, {"snr_db": "20"}, {"seeds": ["x"]}, {"seeds": [1.5]}):
            with pytest.raises(ConfigError, match="must be a list, each entry"):
                config_from_dict({"train": bad})

    @pytest.mark.parametrize(
        "cls, kwargs, field",
        [
            (WaveformConfig, {"sample_rate": float("inf")}, "sample_rate"),
            (WaveformConfig, {"sample_rate": float("nan")}, "sample_rate"),
            (WaveformConfig, {"sweep_cycles": float("nan")}, "sweep_cycles"),
            (RappPa, {"smoothness": float("inf")}, "smoothness"),
            (RappPa, {"smoothness": float("nan")}, "smoothness"),
            (PowerControlParams, {"alpha": float("inf"), "beta": float("inf")}, "alpha"),
            (MetricsConfig, {"obo_step_db": float("inf")}, "obo_step_db"),
            (MetricsConfig, {"obo_step_db": float("nan")}, "obo_step_db"),
            (TrainConfig, {"step_size": float("inf")}, "step_size"),
            (TrainConfig, {"step_size": float("nan")}, "step_size"),
            (ExperimentConfig, {"aclr_target_db": float("nan")}, "aclr_target_db"),
            (ExperimentConfig, {"r_max": float("inf")}, "r_max"),
        ],
    )
    def test_non_finite_float_field_rejected(self, cls, kwargs, field):
        # the one type check, errors.require_field_types, runs in the
        # dataclass, so the Python API and a profile meet the same check
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ConfigError, match=f"^{field} must be a finite number"):
                cls(**kwargs)

    def test_negative_seeds(self):
        with pytest.raises(ConfigError, match="non-negative"):
            ExperimentConfig(seed=-3)
        with pytest.raises(ConfigError, match="non-negative"):
            TrainConfig(seeds=(0, -1))


def _profile_fields():
    """(section, class, name, annotation) of every profile value, read from
    the annotations; the section is None at the root."""
    found = []
    for name, kind in get_type_hints(ExperimentConfig).items():
        if is_dataclass(kind):
            found += [(name, kind, n, k) for n, k in get_type_hints(kind).items()]
        else:
            found.append((None, ExperimentConfig, name, kind))
    return found


PROFILE_FIELDS = _profile_fields()
FIELD_IDS = [f"{section or 'root'}.{name}" for section, _, name, _ in PROFILE_FIELDS]
#: (name, dataclass) of every section of a profile
SECTIONS = [(n, k) for n, k in get_type_hints(ExperimentConfig).items() if is_dataclass(k)]

#: values no field of the kind may hold, each listed value tried on every field
LISTED_BAD = {
    int: [True, 2.5],
    float: [False, math.nan, math.inf, -math.inf, 10**400],
    str: [True],
}
#: valid entries of a list field, to surround a bad one
GOOD_ENTRY = {int: st.integers(0, 9), float: st.floats(-50, 50), str: st.sampled_from(RADIO_SCHEMES)}


def _listed_bad(kind) -> list:
    if get_origin(kind) is tuple:
        entry = get_args(kind)[0]
        good = {int: 0, float: 1.0, str: "obda"}[entry]
        return [True, "20", *([good, bad] for bad in LISTED_BAD[entry])]
    return LISTED_BAD[kind]


def _profile(section, name, value) -> dict:
    return {section: {name: value}} if section else {name: value}


def _bad_scalar(kind):
    if kind is int:
        fractions = st.floats(allow_nan=False, allow_infinity=False)
        return st.booleans() | fractions.filter(lambda x: not x.is_integer())
    if kind is float:
        huge = st.integers(min_value=2**1024) | st.integers(max_value=-(2**1024))
        return st.booleans() | st.sampled_from([math.nan, math.inf, -math.inf]) | huge
    return st.booleans() | st.integers() | st.floats()


def _bad_value(kind):
    if get_origin(kind) is tuple:
        entry = get_args(kind)[0]
        around = st.lists(GOOD_ENTRY[entry], max_size=2)
        one_bad = st.tuples(around, _bad_scalar(entry), around).map(
            lambda t: [*t[0], t[1], *t[2]]
        )
        return st.booleans() | st.text() | one_bad
    return _bad_scalar(kind)


def _rejection(build) -> str:
    with pytest.raises(ConfigError) as exc:
        build()
    return str(exc.value)


def _assert_rejected_alike(section, cls, name, value) -> str:
    """The Python API and a profile reject ``value`` with one message, which
    names the field; returns it."""
    api = _rejection(lambda: cls(**{name: value}))
    assert _rejection(lambda: config_from_dict(_profile(section, name, value))) == api
    assert api.startswith(f"{name} must be ")
    return api


class TestFieldTypes:
    """One type check per value, run by the dataclass that holds it: a
    constructor, a profile and the CLI reject a mistyped value alike."""

    def test_every_field_is_typed(self):
        for _, _, name, kind in PROFILE_FIELDS:
            entry = get_args(kind)[0] if get_origin(kind) is tuple else kind
            assert entry in LISTED_BAD, name

    @pytest.mark.parametrize(
        "cls, valid",
        [
            (
                BoundParams,
                dict(
                    smoothness=np.ones(2), grad_noise_scale=np.ones(2), initial_gap=1.0,
                    step_scale=1.0, num_workers=3, detection_snr=1.0, num_rounds=5,
                ),
            ),
            # a NaN radius would pass every comparison of the range check
            (Deployment, dict(ed_distances=np.array([20.0]), r_min=10.0, r_max=50.0)),
        ],
        ids=["BoundParams", "Deployment"],
    )
    def test_other_dataclasses_check_their_typed_fields(self, cls, valid):
        cls(**valid)
        for name, kind in get_type_hints(cls).items():
            for value in LISTED_BAD.get(kind, []):
                message = _rejection(lambda: cls(**{**valid, name: value}))
                assert message.startswith(f"{name} must be ")

    @pytest.mark.parametrize("section, cls", SECTIONS, ids=[n for n, _ in SECTIONS])
    def test_section_holds_only_its_dataclass(self, tmp_path, capsys, section, cls):
        other = next(k for _, k in SECTIONS if k is not cls)()
        for value in (5, True, [1], other):
            message = _rejection(lambda: ExperimentConfig(**{section: value}))
            assert message == f"{section} must be a {cls.__name__} object, got {value!r}"
        # through a profile and the CLI: exit 2 naming the section, before
        # anything is written; another section's values are unknown keys here
        values = (5, True, [1], asdict(other))
        messages = [f"{section} must be a {cls.__name__} object, got {v!r}" for v in values[:3]]
        messages.append(f"{section}: unknown keys {sorted(asdict(other))}")
        profile = tmp_path / "bad.json"
        out = tmp_path / "out"
        argv = ["train", "--config", str(profile), "--scheme", "ideal", "--out", str(out)]
        for value, message in zip(values, messages):
            profile.write_text(json.dumps({section: value}))
            assert main(argv) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not out.exists()

    @pytest.mark.parametrize("section, cls, name, kind", PROFILE_FIELDS, ids=FIELD_IDS)
    def test_listed_bad_values_rejected(self, tmp_path, capsys, section, cls, name, kind):
        for value in _listed_bad(kind):
            message = _assert_rejected_alike(section, cls, name, value)
            # through the CLI: exit 2 before anything is written
            profile = tmp_path / "bad.json"
            profile.write_text(json.dumps(_profile(section, name, value)))
            out = tmp_path / "out"
            argv = ["train", "--config", str(profile), "--scheme", "ideal", "--out", str(out)]
            assert main(argv) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not out.exists()

    @pytest.mark.parametrize("section, cls, name, kind", PROFILE_FIELDS, ids=FIELD_IDS)
    def test_generated_bad_values_rejected(self, section, cls, name, kind):
        @settings(max_examples=25, derandomize=True, deadline=None)
        @given(value=_bad_value(kind))
        def check(value):
            _assert_rejected_alike(section, cls, name, value)

        check()


class TestDictConversion:
    def test_round_trip_preserves_equality(self):
        cfg = ExperimentConfig()
        assert config_from_dict(asdict(cfg)) == cfg

    def test_round_trip_non_default(self):
        cfg = ExperimentConfig(
            schemes=("csc_mv_4", "obda"),
            r_min=5.0,
            r_max=25.0,
            aclr_target_db=-30.0,
            seed=7,
            metrics=MetricsConfig(num_symbols=500, stream_symbols=300),
            train=TrainConfig(rounds=10, snr_db=(0.0, 10.0), seeds=(1, 2)),
        )
        assert config_from_dict(asdict(cfg)) == cfg

    def test_unknown_root_key(self):
        data = asdict(ExperimentConfig())
        data["modulation"] = "qam"
        with pytest.raises(ConfigError, match="modulation"):
            config_from_dict(data)

    def test_unknown_nested_key(self):
        data = asdict(ExperimentConfig())
        data["wave"]["bandwidth_hz"] = 1e6
        with pytest.raises(ConfigError, match="bandwidth_hz"):
            config_from_dict(data)

    @pytest.mark.parametrize(
        "key, value",
        [("csc_coverage_m", 46.5), ("obda_coverage_m", 30.73), ("tci_threshold", 0.1)],
    )
    def test_removed_train_key(self, key, value):
        # the clamp radii are the config.SCHEMES records' clamp_radius_m and
        # the inversion threshold is oac.TCI_THRESHOLD, so no profile sets them
        with pytest.raises(ConfigError, match=rf"train: unknown keys \['{key}'\]"):
            config_from_dict({"train": {key: value}})

    def test_settable_value_count(self):
        data = asdict(ExperimentConfig())
        sections = [v for v in data.values() if isinstance(v, dict)]
        assert len(data) - len(sections) + sum(map(len, sections)) == 30

    def test_section_must_be_object(self):
        data = asdict(ExperimentConfig())
        data["pa"] = 3.0
        with pytest.raises(ConfigError):
            config_from_dict(data)

    def test_root_must_be_object(self):
        with pytest.raises(ConfigError):
            config_from_dict([1, 2, 3])

    def test_nested_validation_propagates(self):
        data = asdict(ExperimentConfig())
        data["train"]["batch_size"] = 0
        with pytest.raises(ConfigError):
            config_from_dict(data)


class TestFiles:
    def test_json_file_round_trip(self, tmp_path):
        cfg = ExperimentConfig(seed=9, train=TrainConfig(rounds=3, seeds=(5,)))
        path = tmp_path / "profile.json"
        save_config(cfg, path)
        assert load_config(path) == cfg
        # the stored form is ordinary JSON a human can edit
        raw = json.loads(path.read_text())
        assert raw["seed"] == 9
        assert raw["train"]["rounds"] == 3

    @pytest.mark.parametrize(
        "path", sorted(PROFILES.glob("*.json")), ids=lambda p: p.name
    )
    def test_shipped_profiles_load(self, path):
        assert isinstance(load_config(path), ExperimentConfig)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")

    def test_idx_dataset_rejected_at_load(self, tmp_path):
        # the profile has no data source: synthetic digits are the only
        # training data, so a dataset key is unknown
        data = asdict(ExperimentConfig())
        data["train"]["dataset"] = "idx"
        path = tmp_path / "idx.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match=r"unknown keys \['dataset'\]"):
            load_config(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)
