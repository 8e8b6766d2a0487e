"""Repeat benchmark runs over seeds and collect them into one results file.

    python3 perfbench/sweep.py --out .perfbench/sweep.json
    python3 perfbench/sweep.py --workloads rf-sweep --seeds 1-5 --trace-seeds none --out rf.json

By default every workload runs untraced with seeds 1-10 and traced with
seeds 0-1 (0 is the reference seed, whose artifacts are compared with the
stored reference).

Each run is ``perfbench/run.py`` in its own process, started exactly as the
benchmark command is. For every workload the sweep prints each end-to-end
metric's median, quartiles and spread (interquartile range over median,
from ``statistics.quantiles(values, n=4)``) next to the metric's bound. The
output file holds every run's full record; ``compare.py`` reads two of them.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    seeds: list[int] = []
    if text == "none":
        return seeds
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(BENCH / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr[-2000:]}")
    record_line = next(line for line in lines if line.startswith("record: "))
    return json.loads((ROOT / record_line[len("record: "):]).read_text())


def summarize(runs: list[dict], end_to_end: list[dict]) -> None:
    for workload in sorted({r["workload"] for r in runs}):
        plain = [r for r in runs if r["workload"] == workload and not r["trace"]]
        if not plain:
            continue
        failed = sum(r["result"]["failed"] for r in plain)
        attempted = sum(r["result"]["attempted"] for r in plain)
        print(f"{workload}: {len(plain)} runs, {failed}/{attempted} invocations failed")
        for metric in end_to_end:
            name = metric["name"]
            values = [r["result"]["metrics"][name]["value"] for r in plain]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "ok" if spread < metric["bound"] / 3 else ("WIDE" if spread < metric["bound"] else "OVER BOUND")
            print(
                f"  {name:12s} median {med:10.6g} {metric['unit']:16s} q1 {q1:10.6g} q3 {q3:10.6g}"
                f"  spread {spread:7.2%} (bound {metric['bound']:.0%}) {flag}"
            )


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default="1-10", help="untraced runs, e.g. 1-10 or none")
    parser.add_argument("--trace-seeds", type=seed_list, default="0-1", help="traced runs")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    runs = []
    for workload in args.workloads:
        for trace, seeds in ((0, args.seeds), (1, args.trace_seeds)):
            for seed in seeds:
                record = run_once(workload, seed, args.seconds, trace)
                runs.append(record)
                print(f"{workload} seed {seed} trace {trace}: {json.dumps(record['result'])}", flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({"benchmark": spec, "runs": runs}, indent=1))
    summarize(runs, spec["end_to_end"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
