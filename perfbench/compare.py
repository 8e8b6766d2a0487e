"""Compare two results files written by ``sweep.py``.

    python3 perfbench/compare.py BASE.json NEW.json

For each workload it prints every end-to-end metric's median and quartiles
on both sides (untraced runs) with the change against the metric's bound,
and every per-layer metric's ratio NEW/BASE (traced runs) stated with its
base value. A per-layer count that differs between the two sides is flagged
as a behaviour change: the two programs did different work, so the ratio is
not a speed-up.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from sweep import quartiles


def metric_values(runs: list[dict], workload: str, trace: int, name: str) -> list[float]:
    return [
        r["result"]["metrics"][name]["value"]
        for r in runs
        if r["workload"] == workload and r["trace"] == trace and name in r["result"]["metrics"]
    ]


def describe_env(data: dict) -> str:
    envs = [r["manifest"] for r in data["runs"]]
    keys = ("cpu_count", "python", "numpy", "scipy", "git_sha")
    seen = {k: sorted({str(e.get(k)) for e in envs}) for k in keys}
    return "  ".join(f"{k}={'/'.join(v)}" for k, v in seen.items())


def compare(base: dict, new: dict) -> list[str]:
    spec = new["benchmark"]
    lines = [f"base: {describe_env(base)}", f"new:  {describe_env(new)}"]
    workloads = sorted({r["workload"] for r in base["runs"]} | {r["workload"] for r in new["runs"]})
    for workload in workloads:
        lines.append(f"\n== {workload}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            b = metric_values(base["runs"], workload, 0, name)
            n = metric_values(new["runs"], workload, 0, name)
            if not b or not n:
                continue
            bq, nq = quartiles(b), quartiles(n)
            change = nq[1] / bq[1] - 1.0 if bq[1] else float("inf")
            worse = change > bound if metric["better"] == "lower" else -change > bound
            spread = (bq[2] - bq[0]) / bq[1] if bq[1] else float("inf")
            verdict = "WORSE THAN BOUND" if worse else "within bound"
            if spread > bound:
                verdict += ", base spread wider than bound: unresolved"
            lines.append(
                f"  {name:14s} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}] ({len(b)} runs)"
                f"  new {nq[1]:.6g} [{nq[0]:.6g}, {nq[2]:.6g}] ({len(n)} runs)"
                f"  {change:+.1%} {metric['unit']}, bound {bound:.0%}: {verdict}"
            )
        for metric in spec["per_layer"]:
            name, unit = metric["name"], metric["unit"]
            b = metric_values(base["runs"], workload, 1, name)
            n = metric_values(new["runs"], workload, 1, name)
            if not b or not n:
                continue
            bm, nm = statistics.median(b), statistics.median(n)
            if unit == "count" and bm != nm:
                lines.append(f"  {name:40s} BEHAVIOUR CHANGE: count {bm:.6g} -> {nm:.6g}")
            elif bm == 0:
                lines.append(f"  {name:40s} base 0 {unit}, new {nm:.6g} {unit}")
            else:
                lines.append(f"  {name:40s} {nm / bm:6.3f}x of base {bm:.6g} {unit}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    base = json.loads(args.base.read_text())
    new = json.loads(args.new.read_text())
    print("\n".join(compare(base, new)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
