"""CLI contract: exit codes, artifact formats, and run-to-run determinism."""
import json

import numpy as np
import pytest

from chirpvote import cli, studies
from chirpvote._rng import keyed_rng
from chirpvote.config import ExperimentConfig, MetricsConfig, TrainConfig, save_config
from chirpvote.waveform import build_fdss, spread

N_PERCENTILES = len(studies.PERCENTILES)


def write_cfg(tmp_path, name="cfg.json", **overrides):
    """A small profile that keeps every subcommand under a second."""
    cfg = ExperimentConfig(
        metrics=MetricsConfig(num_symbols=100, stream_symbols=50, obo_step_db=2.5),
        train=TrainConfig(
            num_eds=4,
            rounds=2,
            train_samples=60,
            test_samples=40,
            snr_db=(10.0,),
            seeds=(0,),
        ),
        num_eds=8,
        **overrides,
    )
    path = tmp_path / name
    save_config(cfg, path)
    return path


def run(*argv) -> int:
    return cli.main([str(a) for a in argv])


class TestStudyCommands:
    def test_pmepr_artifacts(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "pmepr"
        assert run("pmepr", "--config", cfg, "--out", out) == 0
        lines = (out / "pmepr_distribution.csv").read_text().splitlines()
        assert lines[0] == "scheme,percentile,value_db"
        assert len(lines) == 1 + 4 * N_PERCENTILES
        summary = json.loads((out / "pmepr_summary.json").read_text())
        assert set(summary) == {"csc_mv_1", "csc_mv_2", "csc_mv_4", "obda"}
        for stats in summary.values():
            assert set(stats) == {"median_db", "p99_db", "p99_9_db"}
            assert stats["median_db"] <= stats["p99_9_db"]

    def test_pmepr_stdout_separators(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        assert run("pmepr", "--config", cfg, "--scheme", "obda") == 0
        out = capsys.readouterr().out
        assert out.startswith("# file: pmepr_distribution.csv\n")
        assert "# file: pmepr_summary.json\n" in out

    def test_scheme_filter(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "one"
        assert run("pmepr", "--config", cfg, "--scheme", "csc_mv_2", "--out", out) == 0
        lines = (out / "pmepr_distribution.csv").read_text().splitlines()
        assert len(lines) == 1 + N_PERCENTILES
        assert all(line.startswith("csc_mv_2,") for line in lines[1:])

    def test_cm_artifacts(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "cm"
        assert run("cm", "--config", cfg, "--scheme", "csc_mv_1", "--out", out) == 0
        lines = (out / "cm_distribution.csv").read_text().splitlines()
        assert lines[0] == "scheme,percentile,value_db"
        assert "csc_mv_1" in json.loads((out / "cm_summary.json").read_text())

    def test_aclr_sweep(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "aclr"
        assert run("aclr", "--config", cfg, "--scheme", "obda", "--out", out) == 0
        lines = (out / "aclr_vs_obo.csv").read_text().splitlines()
        assert lines[0] == "scheme,obo_db,aclr_db"
        obos = [float(line.split(",")[1]) for line in lines[1:]]
        assert obos[0] == 0.0 and obos[-1] == 30.0
        assert len(obos) == 13  # 0..30 in 2.5 dB steps

    def test_aclr_spot_value(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "aclr1"
        assert run("aclr", "--config", cfg, "--obo-db", "10", "--out", out) == 0
        lines = (out / "aclr_vs_obo.csv").read_text().splitlines()
        assert len(lines) == 5
        for line in lines[1:]:
            assert line.split(",")[1] == "10.000000"

    def test_coverage_rows(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "cov"
        assert run("coverage", "--config", cfg, "--out", out) == 0
        lines = (out / "coverage.csv").read_text().splitlines()
        assert lines[0] == "scheme,status,obo_min_db,coverage_m"
        assert len(lines) == 5
        for line in lines[1:]:
            assert line.split(",")[1] in ("ok", "infeasible")

    def test_coverage_infeasible_is_reported_not_fatal(self, tmp_path):
        cfg = write_cfg(tmp_path, name="strict.json", aclr_target_db=-60.0)
        out = tmp_path / "cov"
        assert run("coverage", "--config", cfg, "--out", out) == 0
        for line in (out / "coverage.csv").read_text().splitlines()[1:]:
            scheme, status, obo_min, radius = line.split(",")
            assert status == "infeasible"
            assert obo_min == "" and radius == ""

    def test_snr_distance_stdout(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        assert run("snr-distance", "--config", cfg) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "distance_m,snr_db"
        assert len(lines) == 82


class TestTrainCommand:
    def test_single_scheme_artifacts(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "train"
        assert run("train", "--config", cfg, "--scheme", "ideal", "--out", out) == 0
        history = (out / "train_history.csv").read_text().splitlines()
        assert history[0] == "scheme,snr_db,seed,round,train_loss,test_accuracy"
        assert len(history) == 3  # 2 rounds
        assert history[1].split(",")[:4] == ["ideal", "10.000000", "0", "0"]
        summary = json.loads((out / "train_summary.json").read_text())
        assert len(summary) == 1
        assert summary[0]["scheme"] == "ideal"
        assert 0.0 <= summary[0]["final_accuracy"] <= 1.0
        loss = (out / "loss_by_distance.csv").read_text().splitlines()
        assert loss[0] == "scheme,snr_db,seed,ed_index,distance_m,loss"
        assert len(loss) == 5  # one row per device

    def test_full_sweep_covers_configured_grid(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "sweep"
        assert run("train", "--config", cfg, "--out", out) == 0
        summary = json.loads((out / "train_summary.json").read_text())
        assert [row["scheme"] for row in summary] == [
            "csc_mv_1", "csc_mv_2", "csc_mv_4", "obda",
        ]

    def test_snr_list_flag(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "snrs"
        assert run(
            "train", "--config", cfg, "--scheme", "ideal",
            "--snr-db", "5", "--snr-db", "15", "--out", out,
        ) == 0
        summary = json.loads((out / "train_summary.json").read_text())
        assert [row["snr_db"] for row in summary] == [5.0, 15.0]

    def test_seed_flag_narrows_sweep(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "seeded"
        assert run(
            "train", "--config", cfg, "--scheme", "ideal", "--seed", "3", "--out", out
        ) == 0
        summary = json.loads((out / "train_summary.json").read_text())
        assert [row["seed"] for row in summary] == [3]

    def test_idx_dataset_without_files_is_diagnosed(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, name="idx.json")
        data = json.loads(cfg.read_text())
        data["train"]["dataset"] = "idx"
        cfg.write_text(json.dumps(data))
        assert run("train", "--config", cfg, "--scheme", "ideal") == 2
        assert "idx" in capsys.readouterr().err


class TestWaveformDump:
    def test_matches_library_symbol(self, tmp_path):
        cfg_path = write_cfg(tmp_path)
        out = tmp_path / "dump"
        assert run(
            "waveform-dump", "--config", cfg_path, "--scheme", "csc_mv_2",
            "--seed", "3", "--out", out,
        ) == 0
        rows = [
            line.split(",")
            for line in (out / "waveform_symbol.csv").read_text().splitlines()[1:]
        ]
        dumped = np.array([float(r) + 1j * float(im) for _, r, im in rows])

        cfg = ExperimentConfig()
        rng = keyed_rng(3, "waveform-dump", "csc_mv_2")
        bins = studies.scheme_bin_symbols(cfg, "csc_mv_2", 1, rng)[0]
        sig = spread(cfg.wave, build_fdss(cfg.wave), bins)
        assert dumped.shape == sig.samples.shape
        np.testing.assert_allclose(dumped, sig.samples, atol=1e-9)

    def test_seed_changes_output(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        assert run("waveform-dump", "--config", cfg, "--seed", "0") == 0
        first = capsys.readouterr().out
        assert run("waveform-dump", "--config", cfg, "--seed", "1") == 0
        assert capsys.readouterr().out != first


class TestBoundCommand:
    def test_json_payload(self, tmp_path):
        out = tmp_path / "bound"
        assert run("bound", "--workers", "5", "--rounds", "100", "--out", out) == 0
        payload = json.loads((out / "bound.json").read_text())
        assert payload["num_workers"] == 5
        assert payload["num_rounds"] == 100
        assert payload["bound"] > 0

    def test_invalid_arguments_exit_2(self, capsys):
        assert run("bound", "--rounds", "0") == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_heterogeneous_profile_sets_advisory(self, tmp_path, capsys):
        cfg = tmp_path / "het.json"
        cfg.write_text(json.dumps({"train": {"partition": "heterogeneous"}}))
        assert run("bound", "--config", cfg) == 0
        payload = json.loads(capsys.readouterr().out)
        # the guarantee models identically distributed workers, so a
        # heterogeneous profile gets a flag instead of a silent number
        assert payload["advisory"] is True

    def test_homogeneous_profile_has_no_advisory(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        assert run("bound", "--config", cfg) == 0
        assert "advisory" not in json.loads(capsys.readouterr().out)


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("pmepr",),
            ("train", "--scheme", "csc_mv_2"),
        ],
    )
    def test_rerun_byte_identical(self, tmp_path, argv):
        cfg = write_cfg(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(*argv, "--config", cfg, "--out", a) == 0
        assert run(*argv, "--config", cfg, "--out", b) == 0
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_profile_out_dir_field(self, tmp_path):
        out = tmp_path / "from-profile"
        cfg = write_cfg(tmp_path, name="outdir.json", out_dir=str(out))
        assert run("snr-distance", "--config", cfg) == 0
        assert (out / "snr_vs_distance.csv").exists()


class TestErrorPaths:
    def test_malformed_config_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert run("pmepr", "--config", bad) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_config_key_exit_2(self, tmp_path):
        bad = tmp_path / "extra.json"
        bad.write_text('{"modulation": "qam"}')
        assert run("pmepr", "--config", bad) == 2

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run("pmepr", "--scheme", "bogus")
        assert exc.value.code == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_snr_exits_2(self, tmp_path, value, capsys):
        # NaN noise power would compare false against zero and run noiseless
        cfg = write_cfg(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run("train", "--config", cfg, "--scheme", "ideal", f"--snr-db={value}")
        assert exc.value.code == 2
        assert "not a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--detection-snr", "--step-scale", "--noise-l1"])
    def test_non_finite_bound_input_exits_2(self, tmp_path, flag):
        # a NaN bound would be written as the non-JSON token NaN
        out = tmp_path / "bound"
        with pytest.raises(SystemExit) as exc:
            run("bound", flag, "nan", "--out", out)
        assert exc.value.code == 2
        assert not out.exists()

    def test_missing_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run()
        assert exc.value.code == 2

    def test_oversubscribed_scheme_exit_3(self, tmp_path, capsys):
        # csc_mv_28 is a well-formed token but 28 vote pairs cannot fit in
        # 54 bins, so the run is rejected as infeasible rather than invalid
        cfg = write_cfg(tmp_path, name="wide.json", schemes=("csc_mv_28",))
        assert run("pmepr", "--config", cfg) == 3
        assert capsys.readouterr().err.startswith("infeasible:")
