"""Configuration tree: defaults, validation, and JSON round-trips."""
import json

import pytest

from chirpvote import (
    ConfigError,
    ExperimentConfig,
    MetricsConfig,
    SCHEME_NAMES,
    TrainConfig,
    config_from_dict,
    config_to_dict,
    default_config,
    load_config,
    save_config,
    scheme_votes,
)


class TestSchemeTokens:
    def test_votes_per_scheme(self):
        assert scheme_votes("csc_mv_1") == 1
        assert scheme_votes("csc_mv_2") == 2
        assert scheme_votes("csc_mv_4") == 4
        assert scheme_votes("obda") is None

    @pytest.mark.parametrize("bad", ["qpsk", "csc_mv_0", "csc_mv_x", "", "csc"])
    def test_unknown_scheme_rejected(self, bad):
        with pytest.raises(ConfigError):
            scheme_votes(bad)


class TestDefaults:
    def test_default_profile_is_self_consistent(self):
        cfg = default_config()
        assert cfg.wave.num_bins == 54
        assert cfg.wave.idft_size == 64
        assert cfg.schemes == SCHEME_NAMES
        assert cfg.num_eds == 50
        assert 0 < cfg.r_min <= cfg.r_max
        assert cfg.train.partition == "homogeneous"
        assert cfg.train.seeds == (0, 1, 2, 3, 4)
        assert cfg.power.obo_min <= cfg.power.obo_ref

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
            TrainConfig(dataset="mnist-url")
        with pytest.raises(ConfigError):
            TrainConfig(partition="dirichlet")
        with pytest.raises(ConfigError):
            TrainConfig(seeds=())
        with pytest.raises(ConfigError):
            TrainConfig(snr_db=(10.0, float("nan")))


class TestDictConversion:
    def test_round_trip_preserves_equality(self):
        cfg = default_config()
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_round_trip_non_default(self):
        cfg = ExperimentConfig(
            schemes=("csc_mv_4", "obda"),
            num_eds=12,
            r_min=5.0,
            r_max=25.0,
            aclr_target_db=-30.0,
            seed=7,
            out_dir="results/run7",
            metrics=MetricsConfig(num_symbols=500, segment_len=256),
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
        cfg = ExperimentConfig(num_eds=9, train=TrainConfig(rounds=3, seeds=(5,)))
        path = tmp_path / "profile.json"
        save_config(cfg, path)
        assert load_config(path) == cfg
        # the stored form is ordinary JSON a human can edit
        raw = json.loads(path.read_text())
        assert raw["num_eds"] == 9
        assert raw["train"]["rounds"] == 3

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)
