"""CLI contract: exit codes, artifact formats, and run-to-run determinism."""
import json
import math
from pathlib import Path

import numpy as np
import pytest

from chirpvote import cli, learn, rf, studies
from chirpvote._rng import keyed_rng
from chirpvote.config import ExperimentConfig, MetricsConfig, TrainConfig, save_config
from chirpvote.deployment import PowerControlParams, coverage_radius
from chirpvote.errors import InfeasibleError
from chirpvote.oac import random_csc_traffic, random_qpsk
from chirpvote.waveform import WaveformConfig, build_fdss, modulate_ofdm, spread

N_PERCENTILES = len(studies.PERCENTILES)
QUICK = Path(__file__).resolve().parents[1] / "scripts" / "profiles" / "quick.json"


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

    def test_coverage_searches_up_to_obo_ref(self, tmp_path):
        # OBDA needs about 10 dB of back-off, more than the 5 dB available
        # at the reference point, so it alone is infeasible
        power = PowerControlParams(obo_ref=5.0, obo_min=4.0)
        cfg = write_cfg(tmp_path, name="low_ref.json", power=power)
        out = tmp_path / "cov"
        assert run("coverage", "--config", cfg, "--out", out) == 0
        rows = [line.split(",") for line in (out / "coverage.csv").read_text().splitlines()[1:]]
        assert [(scheme, status) for scheme, status, _, _ in rows] == [
            ("csc_mv_1", "ok"), ("csc_mv_2", "ok"), ("csc_mv_4", "ok"), ("obda", "infeasible")
        ]
        assert all(0.0 <= float(obo_min) <= 5.0 for _, _, obo_min, _ in rows[:3])

    @pytest.mark.parametrize("obo_ref", [400.0, 4000.0])
    def test_coverage_searches_no_higher_than_the_sweep(self, tmp_path, obo_ref):
        # a reference back-off above the 0-30 dB span leaves the solve on that
        # span: the same back-offs as at the default 30 dB, where 4000 dB
        # would underflow the drive gain at the top of the bisection
        base, high = tmp_path / "base", tmp_path / "high"
        assert run("coverage", "--config", write_cfg(tmp_path), "--out", base) == 0
        power = PowerControlParams(obo_ref=obo_ref)
        cfg = write_cfg(tmp_path, name="high_ref.json", power=power)
        assert run("coverage", "--config", cfg, "--out", high) == 0

        def backoffs(out):
            lines = (out / "coverage.csv").read_text().splitlines()[1:]
            return [tuple(line.split(",")[:3]) for line in lines]

        assert backoffs(high) == backoffs(base)
        assert all(status == "ok" for _, status, _ in backoffs(base))

    def test_snr_distance_stdout(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        assert run("snr-distance", "--config", cfg) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "target_snr_db,distance_m,snr_db"
        assert len(lines) == 82
        # inside the coverage radius each curve sits at its training target
        assert lines[1] == "10.000000,10.000000,10.000000"

    def test_snr_distance_steep_path_loss_stays_finite(self, tmp_path, capsys):
        # min(1, r_p/d)^10000 underflows to 0 beyond the 10 m radius, and its
        # log to -inf; the gain taken in dB does not
        power = {"alpha": 10000.0, "beta": 10000.0}
        cfg = tmp_path / "steep.json"
        cfg.write_text(json.dumps({"power": power}))
        assert run("snr-distance", "--config", cfg) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        rows = [[float(v) for v in line.split(",")] for line in lines]
        assert all(math.isfinite(v) for row in rows for v in row)
        target, r_max, snr = rows[-1]
        r_p = coverage_radius(PowerControlParams(**power))
        assert snr == pytest.approx(target + 10.0 * 10000.0 * math.log10(r_p / r_max), abs=1e-6)


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
        bins = random_csc_traffic(cfg.wave.num_bins, 2, 1, rng)[0]
        sig = spread(cfg.wave, build_fdss(cfg.wave), bins)
        assert dumped.shape == sig.shape
        np.testing.assert_allclose(dumped, sig, atol=1e-9)

    def test_obda_dumps_plain_ofdm_symbol(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path)
        assert run("waveform-dump", "--config", cfg_path, "--scheme", "obda") == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        dumped = np.array([float(r) + 1j * float(im) for _, r, im in rows])

        wave = ExperimentConfig().wave
        rng = keyed_rng(0, "waveform-dump", "obda")
        sig = modulate_ofdm(wave, random_qpsk(wave.num_bins, 1, rng)[0])
        assert dumped.shape == sig.shape
        np.testing.assert_allclose(dumped, sig, atol=1e-9)

    def test_scheme_takes_one_value(self, tmp_path, capsys):
        # one symbol is dumped, so a repeated --scheme keeps the last value
        cfg = write_cfg(tmp_path)
        assert run("waveform-dump", "--config", cfg, "--scheme", "obda") == 0
        obda = capsys.readouterr().out
        assert run(
            "waveform-dump", "--config", cfg, "--scheme", "csc_mv_2", "--scheme", "obda"
        ) == 0
        assert capsys.readouterr().out == obda

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

    def test_defaults_come_from_the_profile(self, tmp_path, capsys):
        cfg = tmp_path / "small.json"
        cfg.write_text(json.dumps({"train": {"num_eds": 4, "rounds": 5}}))
        assert run("bound", "--config", cfg) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_workers"] == 4
        assert payload["num_rounds"] == 5

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


class TestFlagOverrides:
    @pytest.mark.parametrize(
        "flagged, plain, profile",
        [
            (["pmepr", "--seed", "3"], ["pmepr"], {"seed": 3}),
            (["waveform-dump", "--seed", "3"], ["waveform-dump"], {"seed": 3}),
            (
                ["train", "--scheme", "ideal", "--seed", "3", "--snr-db", "5"],
                ["train", "--scheme", "ideal"],
                {"train": {"seeds": [3], "snr_db": [5.0]}},
            ),
            (
                ["aclr", "--scheme", "obda", "--obo-db", "6"],
                ["aclr", "--obo-db", "6"],
                {"schemes": ["obda"]},
            ),
            (
                ["bound", "--rounds", "7", "--workers", "3"],
                ["bound"],
                {"train": {"rounds": 7, "num_eds": 3}},
            ),
            # train's --scheme is repeatable and takes every token
            (
                ["train", "--scheme", "ideal", "--scheme", "obda"],
                ["train"],
                {"schemes": ["ideal", "obda"]},
            ),
        ],
    )
    def test_flag_matches_the_profile_value_it_replaces(self, tmp_path, flagged, plain, profile):
        data = json.loads(QUICK.read_text())
        for key, value in profile.items():
            if isinstance(value, dict):
                data.setdefault(key, {}).update(value)
            else:
                data[key] = value
        cfg = tmp_path / "profile.json"
        cfg.write_text(json.dumps(data))
        a, b = tmp_path / "flag", tmp_path / "profile"
        assert run(*flagged, "--config", QUICK, "--out", a) == 0
        assert run(*plain, "--config", cfg, "--out", b) == 0
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes()


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

    @pytest.mark.parametrize("argv", [("aclr", "--obo-db", "9"), ("coverage",)])
    def test_rf_rows_do_not_move_with_the_sample_rate(self, tmp_path, capsys, argv):
        # the samples do not depend on the rate, so neither may the ACLR; at
        # (96, 56) the low band edge falls exactly on PSD bin -76
        printed = []
        for rate in (1.8e6, 2.0e6):
            cfg = tmp_path / f"{rate:g}.json"
            cfg.write_text(
                json.dumps(
                    {
                        "wave": {"idft_size": 96, "num_bins": 56, "sample_rate": rate},
                        "metrics": {"stream_symbols": 200},
                    }
                )
            )
            capsys.readouterr()
            assert run(*argv, "--config", cfg, "--scheme", "obda", "--scheme", "csc_mv_2") == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]


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

    @pytest.mark.parametrize(
        "argv",
        [("bound",), ("train", "--config", QUICK)],
        ids=["bound", "train"],
    )
    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    def test_out_naming_a_file_exits_2_before_the_study(
        self, tmp_path, monkeypatch, capsys, argv, under
    ):
        # an existing file, or a path under one, is rejected before the study
        # runs, so nothing is computed and nothing is written
        existing = tmp_path / "taken"
        existing.write_text("keep")
        ran = []
        monkeypatch.setattr(studies, "train_sweep", lambda cfg: ran.append(cfg))
        out = existing / "sub" if under else existing
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--out", out)
        assert exc.value.code == 2
        assert "--out" in capsys.readouterr().err
        assert ran == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
        assert existing.read_text() == "keep"

    def test_unwritable_artifact_exits_2_naming_the_path(self, tmp_path, capsys):
        # an OS error while writing is a usage error that names the path
        out = tmp_path / "bound"
        (out / "bound.json").mkdir(parents=True)
        assert run("bound", "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"--out {out}" in err

    @pytest.mark.parametrize(
        "profile, message",
        [({"train": [1]}, "train: expected an object"), ({"wave": 5}, "wave: expected an object")],
    )
    def test_section_that_is_not_an_object_exits_2(self, tmp_path, capsys, profile, message):
        cfg = tmp_path / "section.json"
        cfg.write_text(json.dumps(profile))
        assert run("snr-distance", "--config", cfg) == 2
        assert message in capsys.readouterr().err

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run("pmepr", "--scheme", "bogus")
        assert exc.value.code == 2

    def test_scheme_without_transmit_chain_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("pmepr", "--scheme", "ideal")
        assert exc.value.code == 2
        assert "invalid choice: 'ideal'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, schemes",
        [
            ("pmepr", ("obda", "ideal")),
            ("cm", ("obda", "ideal")),
            ("aclr", ("obda", "ideal")),
            ("coverage", ("obda", "ideal")),
            ("waveform-dump", ("ideal",)),
        ],
    )
    def test_profile_scheme_without_transmit_chain_exits_2(
        self, tmp_path, command, schemes, capsys
    ):
        # the error-free vote has no waveform to measure; the check reads its
        # record, and no artifact is written, not even the other scheme's
        cfg = write_cfg(tmp_path, schemes=schemes)
        out = tmp_path / "out"
        assert run(command, "--config", cfg, "--out", out) == 2
        assert "'ideal' has no transmit chain" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["pmepr", "cm", "aclr", "coverage"])
    def test_scheme_without_transmit_chain_fails_before_measuring(
        self, tmp_path, monkeypatch, command
    ):
        # the check reads every scheme's record before the first scheme's
        # stream or symbols are built
        built = []

        def spy(real):
            def wrapped(*args, **kwargs):
                built.append(real.__name__)
                return real(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(studies, "PaDriver", spy(studies.PaDriver))
        monkeypatch.setattr(rf, "PaDriver", spy(rf.PaDriver))
        monkeypatch.setattr(studies, "_per_symbol_blocks", spy(studies._per_symbol_blocks))
        cfg = write_cfg(tmp_path, schemes=("obda", "csc_mv_2", "ideal"))
        assert run(command, "--config", cfg) == 2
        assert built == []

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_snr_exits_2(self, tmp_path, value, capsys):
        # a NaN noise power would turn every statistic NaN and every vote -1;
        # the flag's value fails the check of train.snr_db, which it sets
        cfg = write_cfg(tmp_path)
        out = tmp_path / "train"
        argv = ("train", "--config", cfg, "--scheme", "ideal", f"--snr-db={value}", "--out", out)
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "snr_db" in err
        assert not out.exists()

    @pytest.mark.parametrize("scheme", ["csc_mv_2", "obda", "ideal"])
    def test_snr_flag_with_unrepresentable_noise_exits_2(self, tmp_path, scheme, capsys):
        # 10^(4000/10) is beyond the largest float
        cfg = write_cfg(tmp_path)
        out = tmp_path / "train"
        assert run("train", "--config", cfg, "--scheme", scheme, "--snr-db=-4000", "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "snr_db" in err
        assert not out.exists()

    def test_profile_snr_with_unrepresentable_noise_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "loud.json"
        cfg.write_text(json.dumps({"train": {"snr_db": [-1e308]}}))
        assert run("train", "--config", cfg, "--scheme", "ideal") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "snr_db" in err

    @pytest.mark.parametrize(
        "flag",
        ["--detection-snr", "--step-scale", "--noise-l1", "--initial-gap", "--smoothness-l1"],
    )
    def test_non_finite_bound_input_exits_2(self, tmp_path, capsys, flag):
        # a NaN bound would be written as the non-JSON token NaN; the flag's
        # value fails the check of the BoundParams field it sets
        field = {"--noise-l1": "grad_noise_scale", "--smoothness-l1": "smoothness"}.get(
            flag, flag[2:].replace("-", "_")
        )
        out = tmp_path / "bound"
        for value in ("nan", "inf", "-inf"):
            assert run("bound", f"{flag}={value}", "--out", out) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and field in err
            assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, name",
        [
            ("--rounds", "0", "rounds"),
            ("--workers", "0", "num_eds"),
            ("--initial-gap", "-1", "initial_gap"),
            ("--smoothness-l1", "-1", "smoothness"),
            ("--detection-snr", "0", "detection_snr"),
        ],
    )
    def test_bound_input_outside_the_domain_exits_2(self, tmp_path, capsys, flag, value, name):
        # --rounds and --workers fail the checks of train.rounds and
        # train.num_eds; the others that of their BoundParams field
        out = tmp_path / "bound"
        assert run("bound", f"{flag}={value}", "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--step-scale", "1e308"), ("--initial-gap", "1e308"), ("--detection-snr", "1e-308")],
    )
    def test_overflowing_bound_exits_2(self, tmp_path, capsys, flag, value):
        # finite inputs whose bound overflows would be written as the non-JSON
        # token Infinity
        out = tmp_path / "bound"
        assert run("bound", flag, value, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "overflows" in err
        assert not out.exists()

    def test_snr_distance_takes_no_seed(self):
        # the SNR map has no random draw, so a seed would change nothing
        with pytest.raises(SystemExit) as exc:
            run("snr-distance", "--seed", "0")
        assert exc.value.code == 2

    def test_missing_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run()
        assert exc.value.code == 2

    def test_oversubscribed_scheme_exit_3(self, tmp_path, capsys):
        # csc_mv_4 is a valid token but 4 vote pairs cannot fit in 6 bins,
        # so the run is rejected as infeasible rather than invalid
        narrow = WaveformConfig(num_bins=6, sweep_cycles=4.0)
        cfg = write_cfg(tmp_path, name="narrow.json", wave=narrow, schemes=("csc_mv_4",))
        assert run("pmepr", "--config", cfg) == 3
        assert capsys.readouterr().err.startswith("infeasible:")

    @pytest.mark.parametrize("command", ["pmepr", "train"])
    def test_inexact_vote_count_exit_3(self, tmp_path, command, capsys):
        # in 30 bins the widest guard that fits 4 vote pairs fits 5, and the
        # next wider one fits 3, so csc_mv_4 cannot run as named
        wave = WaveformConfig(num_bins=30, sweep_cycles=26.0)
        cfg = write_cfg(tmp_path, name="thirty.json", wave=wave)
        out = tmp_path / command
        assert run(command, "--config", cfg, "--scheme", "csc_mv_4", "--out", out) == 3
        assert "exactly 4 vote pairs" in capsys.readouterr().err
        assert not out.exists()

    def test_sync_offset_beyond_cyclic_prefix_exit_3(self, tmp_path, capsys):
        # 12 samples of timing error plus the 6-sample EPA tail overrun the
        # 16-sample cyclic prefix, so the spectral uplink would be wrong
        cfg = tmp_path / "late.json"
        cfg.write_text('{"train": {"max_sync_offset": 12}}')
        out = tmp_path / "train"
        assert run("train", "--config", cfg, "--scheme", "csc_mv_2", "--out", out) == 3
        assert capsys.readouterr().err.startswith("infeasible:")
        assert not out.exists()

    @pytest.mark.parametrize("offset, code", [(8, 0), (9, 3), (10, 3)])
    def test_sync_offset_into_window_taper_exit_3(self, tmp_path, offset, code, capsys):
        # the first window_rolloff (2) cyclic-prefix samples are tapered, so
        # the 6-sample EPA tail leaves room for offsets up to 16 - 2 - 6 = 8
        data = json.loads(write_cfg(tmp_path).read_text())
        data["train"]["max_sync_offset"] = offset
        cfg = tmp_path / "taper.json"
        cfg.write_text(json.dumps(data))
        out = tmp_path / "train"
        assert run("train", "--config", cfg, "--scheme", "csc_mv_2", "--out", out) == code
        if code:
            assert "cp_len - window_rolloff" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("rate, code", [(1e300, 2), (3.2e26, 2), (1e9, 3)])
    def test_sample_rate_past_int64_delays_exit_2(self, tmp_path, rate, code, capsys):
        # the 410 ns EPA tap snaps to 410 samples at 1e9, past the cyclic
        # prefix; at the two higher rates it snaps past the int64 range
        data = json.loads(write_cfg(tmp_path).read_text())
        data["wave"]["sample_rate"] = rate
        cfg = tmp_path / "fast.json"
        cfg.write_text(json.dumps(data))
        out = tmp_path / "train"
        assert run("train", "--config", cfg, "--scheme", "obda", "--out", out) == code
        err = capsys.readouterr().err
        assert "sample_rate" in err if code == 2 else "cp_len - window_rolloff" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["aclr", "pmepr"])
    @pytest.mark.parametrize("pa", [{"smoothness": 0.0}, {"smoothness": -1.0}])
    def test_bad_pa_exits_2(self, tmp_path, command, pa, capsys):
        cfg = tmp_path / "pa.json"
        cfg.write_text(json.dumps({"pa": pa}))
        assert run(command, "--config", cfg, "--scheme", "obda") == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "section, key", [("pa", "sat_amplitude"), ("power", "p_ref"), ("power", "noise_power")]
    )
    def test_removed_power_scale_key_exits_2(self, tmp_path, section, key, capsys):
        # powers are relative to PA saturation and to the power-control
        # target, and the noise comes from train.snr_db, so no profile key
        # sets an absolute scale
        cfg = tmp_path / "scale.json"
        cfg.write_text(json.dumps({section: {key: 1.0}}))
        assert run("snr-distance", "--config", cfg) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err

    @pytest.mark.parametrize("command", ["aclr", "coverage"])
    @pytest.mark.parametrize("stream_symbols", [1, 3, 4])
    def test_stream_shorter_than_a_segment_exits_2(
        self, tmp_path, command, stream_symbols, capsys
    ):
        # at the default numerology 3 symbols are 968 samples at 4x, short of
        # one 1024-point PSD segment, and 4 are 1,288
        cfg = tmp_path / "short.json"
        cfg.write_text(json.dumps({"metrics": {"stream_symbols": stream_symbols}}))
        code = run(command, "--config", cfg, "--out", tmp_path / "out")
        captured = capsys.readouterr()
        if stream_symbols >= 4:
            assert code == 0
            return
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:") and "metrics.stream_symbols" in captured.err

    @pytest.mark.parametrize(
        "smoothness, argv",
        [
            # (g^2 max|x|^2)^p overflows at 0 dB past p = ln(float max) over
            # ln(PMEPR): on this 50-symbol stream, about 1,669 for csc_mv_1
            # and 313 for OBDA
            (2000.0, ["aclr"]),
            (2000.0, ["coverage"]),
            (400.0, ["aclr", "--scheme", "obda"]),
            (400.0, ["coverage", "--scheme", "obda"]),
            # the Rapp output's peak power, about 2^(-1/p), underflows
            (5e-4, ["aclr"]),
            (5e-4, ["coverage"]),
        ],
    )
    def test_overflowing_smoothness_exits_2(self, tmp_path, smoothness, argv, capsys):
        cfg = tmp_path / "sharp.json"
        cfg.write_text(
            json.dumps({"pa": {"smoothness": smoothness}, "metrics": {"stream_symbols": 50}})
        )
        assert run(*argv, "--config", cfg) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "pa.smoothness" in captured.err

    @pytest.mark.parametrize(
        "command, artifact", [("aclr", "aclr_vs_obo.csv"), ("coverage", "coverage.csv")]
    )
    def test_sharp_smoothness_within_limit_exits_0(self, tmp_path, command, artifact):
        # the drive's divisor depends on the stream's peak-to-mean ratio, not
        # on its absolute power, so p = 200 stays below every scheme's limit
        cfg = tmp_path / "sharp.json"
        cfg.write_text(json.dumps({"pa": {"smoothness": 200.0}, "metrics": {"stream_symbols": 50}}))
        out = tmp_path / command
        assert run(command, "--config", cfg, "--out", out) == 0
        rows = (out / artifact).read_text().splitlines()[1:]
        assert {row.split(",")[0] for row in rows} == {"csc_mv_1", "csc_mv_2", "csc_mv_4", "obda"}
        for row in rows:
            values = row.split(",")[1:]
            if command == "coverage":
                assert values.pop(0) == "ok"
            assert all(math.isfinite(float(v)) for v in values)

    @pytest.mark.parametrize("command", ["snr-distance", "coverage"])
    @pytest.mark.parametrize(
        "power, message",
        [
            ({"beta": 0.0}, "beta must lie in (0, alpha]"),
            ({"obo_ref": -1.0, "obo_min": -2.0}, "obo_ref must be non-negative"),
            # a back-off below 0 dB drives the PA past saturation
            ({"obo_min": -100.0}, "obo_min must lie in [0, obo_ref]"),
            # r_ref * 10^((obo_ref - obo_min) / (10 * beta)) is beyond the largest float
            ({"alpha": 500.0, "beta": 0.001}, "beta is too small"),
        ],
    )
    def test_bad_power_exits_2(self, tmp_path, command, power, message, capsys):
        cfg = tmp_path / "power.json"
        cfg.write_text(json.dumps({"power": power}))
        assert run(command, "--config", cfg) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    def test_solved_backoff_radius_overflow_exits_2(self, tmp_path, capsys):
        # the profile's radius is r_ref, but the coverage radius of a solved
        # back-off some dB below obo_ref is beyond the largest float
        data = json.loads(write_cfg(tmp_path).read_text())
        data["power"] = {"alpha": 500.0, "beta": 0.001, "obo_min": 30.0}
        cfg = tmp_path / "flat.json"
        cfg.write_text(json.dumps(data))
        out = tmp_path / "coverage"
        assert run("coverage", "--config", cfg, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "beta is too small" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "value, code",
        [("-400", 2), ("-1e-9", 2), ("30.5", 2), ("1e308", 2), ("0", 0), ("30", 0)],
    )
    def test_spot_backoff_outside_the_sweep_exits_2(self, tmp_path, value, code, capsys):
        # below 0 dB the PA is driven past saturation; at 1e308 dB the drive
        # gain underflows and the PA output has no in-band power
        out = tmp_path / "aclr"
        argv = ("aclr", "--config", QUICK, "--scheme", "obda", f"--obo-db={value}", "--out", out)
        if code:
            with pytest.raises(SystemExit) as exc:
                run(*argv)
            assert exc.value.code == 2
            assert "--obo-db" in capsys.readouterr().err
            assert not out.exists()
        else:
            assert run(*argv) == 0
            rows = (out / "aclr_vs_obo.csv").read_text().splitlines()
            assert rows[1].startswith(f"obda,{float(value):.6f},")

    def test_worker_error_keeps_its_exit_code(self, tmp_path, monkeypatch, capsys):
        # the radius overflow of a solved back-off is raised inside a
        # coverage worker thread and must still exit 2
        monkeypatch.setattr(studies, "_cpus", lambda: 3)
        data = json.loads(write_cfg(tmp_path).read_text())
        data["power"] = {"alpha": 500.0, "beta": 0.001, "obo_min": 30.0}
        cfg = tmp_path / "flat.json"
        cfg.write_text(json.dumps(data))
        out = tmp_path / "coverage"
        assert run("coverage", "--config", cfg, "--out", out) == 2
        assert "beta is too small" in capsys.readouterr().err
        assert not out.exists()

    def test_uplink_worker_error_keeps_its_exit_code(self, tmp_path, monkeypatch, capsys):
        # raised in round 1's draw, which runs on the run's worker thread
        draw = learn._receiver_noise

        def failing(setup, round_index, *args):
            if round_index == 1:
                raise InfeasibleError("noise draw failed")
            return draw(setup, round_index, *args)

        monkeypatch.setattr(learn, "_receiver_noise", failing)
        out = tmp_path / "train"
        argv = ("train", "--config", write_cfg(tmp_path), "--scheme", "csc_mv_2", "--out", out)
        assert run(*argv) == 3
        assert "noise draw failed" in capsys.readouterr().err
        assert not out.exists()

    def test_unrepresentable_path_loss_exits_2(self, tmp_path, capsys):
        # 10 * alpha overflows, so the SNR map's path loss is not a float
        cfg = tmp_path / "steepest.json"
        cfg.write_text(json.dumps({"power": {"alpha": 1e308, "beta": 1e308}}))
        assert run("snr-distance", "--config", cfg) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "alpha" in err

    def test_device_without_samples_exits_2(self, tmp_path, capsys):
        # 20 samples dealt by label half over 20 devices leave two outer
        # devices empty, whose losses would be NaN and whose votes all -1
        cfg = tmp_path / "empty.json"
        cfg.write_text(json.dumps({"train": {
            "partition": "heterogeneous", "train_samples": 20, "test_samples": 50,
            "num_eds": 20, "rounds": 2, "seeds": [0],
        }}))
        out = tmp_path / "train"
        assert run("train", "--config", cfg, "--scheme", "obda", "--out", out) == 2
        assert "devices [16, 18] without samples" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", ["pmepr", "cm", "aclr", "coverage", "train", "waveform-dump"]
    )
    def test_negative_seed_flag_exits_2(self, tmp_path, command, capsys):
        # --seed sets seed and train.seeds; the latter's check runs first
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert run(command, "--config", cfg, "--seed", "-1", "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "seeds must be non-negative" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "profile", [{"seed": -3}, {"train": {"seeds": [-1]}}, {"train": {"seeds": ["x"]}}]
    )
    def test_negative_profile_seed_exits_2(self, tmp_path, profile, capsys):
        cfg = tmp_path / "seed.json"
        cfg.write_text(json.dumps(profile))
        assert run("train", "--config", cfg, "--scheme", "ideal") == 2
        assert "non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "profile, field",
        [
            ({"train": {"num_eds": 2.5}}, "num_eds"),
            ({"train": {"num_eds": True}}, "num_eds"),
            ({"seed": 1.5}, "seed"),
            ({"train": {"step_size": float("nan")}}, "step_size"),
            ({"r_max": float("inf")}, "r_max"),
            ({"train": {"snr_db": [20.0, float("-inf")]}}, "snr_db"),
            ({"train": {"seeds": [0, True]}}, "seeds"),
            ({"train": {"snr_db": [10**400]}}, "snr_db"),
        ],
    )
    def test_mistyped_profile_value_exits_2(self, tmp_path, profile, field, capsys):
        # integer fields take integers only, float fields finite numbers only
        cfg = tmp_path / "typed.json"
        cfg.write_text(json.dumps(profile))
        assert run("train", "--config", cfg, "--scheme", "ideal") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{field} must be" in err

    @pytest.mark.parametrize(
        "profile, key",
        [
            ({"num_eds": 1}, "num_eds"),
            ({"pa": {"obo_db": 99.0}}, "obo_db"),
            ({"train": {"votes_per_block": 7}}, "votes_per_block"),
            ({"train": {"dataset": "synthetic"}}, "dataset"),
            ({"out_dir": "results"}, "out_dir"),
            ({"wave": {"bin_low": -27}}, "bin_low"),
            ({"wave": {"bin_high": 26}}, "bin_high"),
            ({"train": {"csc_coverage_m": 46.5}}, "csc_coverage_m"),
            ({"train": {"obda_coverage_m": 30.73}}, "obda_coverage_m"),
            ({"train": {"tci_threshold": 0.1}}, "tci_threshold"),
            ({"metrics": {"oversample": 4}}, "oversample"),
            ({"metrics": {"segment_len": 1024}}, "segment_len"),
        ],
    )
    def test_removed_key_exits_2(self, tmp_path, profile, key, capsys):
        # the scheme token sets the vote count, aclr/coverage set the
        # back-off, synthetic digits are the only profile data, --out sets
        # the output directory, wave.num_bins sets the centred band, and the
        # clamp radii, OBDA's inversion threshold and the ACLR measurement's
        # oversampling and PSD segment each have one source in the code, so
        # these keys would change no output
        cfg = tmp_path / "removed.json"
        cfg.write_text(json.dumps(profile))
        assert run("train", "--config", cfg, "--scheme", "ideal") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
