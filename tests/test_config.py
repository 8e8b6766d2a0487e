"""Configuration tree: defaults, validation, and JSON round-trips."""
import json
import warnings
from pathlib import Path

import pytest

from chirpvote.config import (
    SCHEMES,
    ExperimentConfig,
    MetricsConfig,
    TrainConfig,
    config_from_dict,
    config_to_dict,
    default_config,
    load_config,
    save_config,
    scheme,
)
from chirpvote.deployment import PowerControlParams
from chirpvote.errors import ConfigError
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
        assert not scheme("obda").spread
        # every token but the error-free vote has a transmit chain
        assert [name for name, s in SCHEMES.items() if not s.transmits] == ["ideal"]

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
        cfg = default_config()
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
        assert listed == json.loads(json.dumps(config_to_dict(default_config())))

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
            with pytest.raises(ConfigError, match="not strings"):
                TrainConfig(**bad)
        # entries of the wrong type are rejected where a profile is read (a
        # string is a sequence of characters)
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
        # the Python API meets the check a profile's values meet in _fits
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ConfigError, match=f"^{field} must be a finite number"):
                cls(**kwargs)

    def test_negative_seeds(self):
        with pytest.raises(ConfigError, match="non-negative"):
            ExperimentConfig(seed=-3)
        with pytest.raises(ConfigError, match="non-negative"):
            TrainConfig(seeds=(0, -1))


class TestDictConversion:
    def test_round_trip_preserves_equality(self):
        cfg = default_config()
        assert config_from_dict(config_to_dict(cfg)) == cfg

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
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_unknown_root_key(self):
        data = config_to_dict(default_config())
        data["modulation"] = "qam"
        with pytest.raises(ConfigError, match="modulation"):
            config_from_dict(data)

    def test_unknown_nested_key(self):
        data = config_to_dict(default_config())
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
        data = config_to_dict(default_config())
        sections = [v for v in data.values() if isinstance(v, dict)]
        assert len(data) - len(sections) + sum(map(len, sections)) == 30

    def test_section_must_be_object(self):
        data = config_to_dict(default_config())
        data["pa"] = 3.0
        with pytest.raises(ConfigError):
            config_from_dict(data)

    def test_root_must_be_object(self):
        with pytest.raises(ConfigError):
            config_from_dict([1, 2, 3])

    def test_nested_validation_propagates(self):
        data = config_to_dict(default_config())
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
        data = config_to_dict(default_config())
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
