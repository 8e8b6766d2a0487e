"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from check import REFERENCE_SEED, check_invocation  # noqa: E402
from run import check_run, import_times, load_workload  # noqa: E402
from spans import reduce_spans, tail_value  # noqa: E402

REFERENCE = BENCH / "reference"


def fake_run(tmp_path: Path, workload: str, processes: int = 3):
    """Process directories holding copies of the reference artifacts, with
    reports of clean exits."""
    spec = load_workload(workload)
    dirs, reports = [], []
    for k in range(processes):
        out = tmp_path / f"p{k}"
        for i in range(len(spec["invocations"])):
            shutil.copytree(REFERENCE / workload / f"inv{i}", out / f"inv{i}")
        dirs.append(out)
        reports.append({"invocations": [{"rc": 0, "error": None} for _ in spec["invocations"]]})
    return spec, dirs, reports


def edit(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def test_reference_artifacts_pass(tmp_path):
    for workload in ("train-chirp", "train-obda", "rf-sweep"):
        spec, dirs, reports = fake_run(tmp_path / workload, workload)
        assert check_run(spec, REFERENCE_SEED, dirs, reports, REFERENCE / workload) == []


def _second_value(path: Path) -> tuple[str, str]:
    """The last field of the first data row, and the row."""
    row = path.read_text().splitlines()[1]
    return row.rsplit(",", 1)[1], row


@pytest.mark.parametrize("delta", [1e-4, -3e-6])
def test_corrupted_value_counts_as_failed(tmp_path, delta):
    spec, dirs, reports = fake_run(tmp_path, "train-chirp")
    path = dirs[1] / "inv2" / "train_history.csv"
    value, row = _second_value(path)
    edit(path, row, row.rsplit(",", 1)[0] + f",{float(value) + delta:.6f}")
    failures = check_run(spec, REFERENCE_SEED, dirs, reports, REFERENCE / "train-chirp")
    assert len(failures) == 1
    assert failures[0].startswith("process 1 invocation 2:")


def test_last_digit_shift_passes_reference_but_not_determinism(tmp_path):
    spec, dirs, reports = fake_run(tmp_path, "rf-sweep")
    path = dirs[2] / "inv3" / "aclr_vs_obo.csv"
    value, row = _second_value(path)
    shifted = row.rsplit(",", 1)[0] + f",{float(value) + 1e-6:.6f}"
    edit(path, row, shifted)
    assert check_invocation(dirs[2] / "inv3", REFERENCE / "rf-sweep" / "inv3", REFERENCE_SEED) == []
    failures = check_run(spec, REFERENCE_SEED, dirs, reports, REFERENCE / "rf-sweep")
    assert failures == ["process 2 invocation 3: artifacts differ from the other repeats"]


def test_structural_faults_count_as_failed(tmp_path):
    spec, dirs, reports = fake_run(tmp_path, "train-obda")
    (dirs[0] / "inv0" / "loss_by_distance.csv").unlink()
    edit(dirs[1] / "inv1" / "train_summary.json", '"final_accuracy": ', '"final_accuracy": -')
    reports[2]["invocations"][0]["rc"] = 3
    failures = check_run(spec, REFERENCE_SEED, dirs, reports, REFERENCE / "train-obda")
    assert [f.split(":")[0] for f in failures] == [
        "process 0 invocation 0",
        "process 1 invocation 1",
        "process 2 invocation 0",
    ]


def test_seed_column_must_match_the_workload_seed(tmp_path):
    ref = REFERENCE / "train-chirp" / "inv0"
    problems = check_invocation(ref, ref, REFERENCE_SEED + 1)
    assert problems and all("seed" in p for p in problems)


def test_percentile_curves_must_not_decrease(tmp_path):
    spec, dirs, reports = fake_run(tmp_path, "rf-sweep", processes=1)
    path = dirs[0] / "inv0" / "pmepr_distribution.csv"
    rows = path.read_text().splitlines()
    rows[5] = rows[5].rsplit(",", 1)[0] + ",0.000001"
    path.write_text("\n".join(rows) + "\n")
    problems = check_invocation(dirs[0] / "inv0", REFERENCE / "rf-sweep" / "inv0", REFERENCE_SEED + 1)
    assert any("decreases" in p for p in problems)


def span(sid, name, start, end, parent=None, counts=None):
    return {"id": sid, "name": name, "start": start, "end": end, "parent": parent,
            "invocation": 0, "counts": counts or {}}


def test_reduce_spans_self_time_and_uplink():
    spans = [
        span(0, "cli.main", 0.0, 10.0),
        span(1, "studies.train_sweep", 1.0, 9.0, 0),
        span(2, "learn.run_round", 2.0, 6.0, 1),
        span(3, "learn.local_gradient", 2.0, 3.0, 2, {"loss_samples": 32}),
        span(4, "rng.keyed_rng", 3.0, 3.5, 2),
        span(5, "oac.detect_mv", 4.0, 5.0, 2, {"blocks": 7}),
        span(6, "learn.mean_loss", 5.0, 5.5, 2, {"loss_samples": 96}),
    ]
    m = reduce_spans(spans)
    assert m["learn.uplink.self_s"] == pytest.approx(4.0 - 1.0 - 0.5 - 0.5)
    assert m["learn.local_gradient.self_s"] == pytest.approx(1.0)
    assert m["oac.detect_mv.blocks"] == 7
    assert m["learn.run_round.calls"] == 1
    assert m["learn.loss_and_gradient.samples"] == 128
    assert m["learn.useful_sample_ratio"] == pytest.approx(0.25)
    assert m["cli.self_s"] == pytest.approx(2.0)


def test_tail_needs_ten_samples_beyond_it():
    assert tail_value(list(range(10))) == 0.0
    assert tail_value(list(range(100))) == 89


def test_import_times_parses_cumulative_microseconds():
    stderr = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:      1200 |    1268000 |     scipy.signal\n"
        "import time:       300 |    1400000 | chirpvote\n"
    )
    assert import_times(stderr) == {
        "setup.import.scipy_signal_s": pytest.approx(1.268),
        "setup.import.chirpvote_s": pytest.approx(1.4),
    }


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [*spec["command"], "--workload", "rf-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
