"""chirpvote benchmark: one workload, end-to-end or per-layer metrics.

Run from the root of a chirpvote checkout:

    python3 perfbench/run.py --workload train-chirp --seed 0 --seconds 35 --trace 0

A run starts a fixed number of workload processes one after another
(``perfbench/child.py``: a fresh interpreter each, BLAS/OpenMP threads pinned
to 1). Each process imports ``chirpvote.cli``, loads the workload's profile
and then drives the workload's CLI invocations in-process through
``chirpvote.cli.main(argv)``, passing ``--seed`` through. The number of
processes is ``--seconds`` divided by the workload's nominal process time on
the reference host (2 CPUs), so every run does the same work and every
run's failure ratio has the same denominator.

Every artifact of every invocation is checked (``check.py``), and repeats
must write byte-identical artifacts. An invocation fails if it returns
non-zero, raises, or its artifacts fail the check.

``--trace 0`` reports the end-to-end metrics, medians over the processes:

* ``setup_s``: fresh interpreter until ``chirpvote.cli`` is imported and the
  profile loaded;
* ``wall_s``: one pass over the workload's invocations;
* ``peak_rss_mb``: peak resident memory of the workload process;
* ``fail_ratio``: (failed + 0.5) / (attempted + 1), the Jeffreys estimate of
  the per-invocation failure probability. It stays above zero so that its
  spread is defined; with no failure it is 0.5 / (attempted + 1).

The two times are stated at the reference host speed. On a shared 2-CPU
virtual machine the same code runs up to 1.5 times slower for seconds at a
time, whatever the code, as neighbours come and go. Each workload process
therefore times a fixed probe (``child.host_probe``, about 25 ms of
interpreter and NumPy work that touches no chirpvote code) after set-up and
after every invocation. Set-up time is multiplied by PROBE_REF_S over the
probe that follows it, and each invocation's wall time by PROBE_REF_S over
the mean of the probes around it. PROBE_REF_S is a constant, so it cancels
when two commits are compared. The raw times are kept in the run's record
and reported per layer as ``proc.setup_raw_s`` and ``proc.wall_raw_s``.

``--trace 1`` alternates traced and untraced processes. Traced ones record
layer spans (``spans.py``) and start with ``-X importtime``; the run reports
the per-layer metrics, medians over traced processes, and the tracing
overhead (traced minus untraced ``wall_s``).

The last line of standard output is the result as one JSON object. The full
record (environment manifest, per-process samples, failures) goes to
``.perfbench/results/``. ``--capture-reference`` instead stores the
reference-seed artifacts under ``perfbench/reference/``.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import REFERENCE_SEED, check_invocation
from child import THREAD_VARS
from spans import reduce_spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = BENCH / "workloads"
REFERENCE = BENCH / "reference"
OUT = ROOT / ".perfbench"

MIN_PROCESSES = 3
#: seconds of child.host_probe on the reference host; wall_s is scaled to
#: this host speed (a fixed constant, so it cancels in any comparison)
PROBE_REF_S = 0.025
#: stop starting processes after this long, to exit well within 180 s
BUDGET_S = 160.0
#: per-process values kept in the run's record
SAMPLE_KEYS = ("setup_s", "raw_setup_s", "wall_s", "raw_wall_s", "cpu_s", "peak_rss_mb", "probes", "layers")
#: packages whose cumulative import time ``-X importtime`` reports
IMPORTS = {"setup.import.scipy_signal_s": "scipy.signal", "setup.import.chirpvote_s": "chirpvote"}


def metric_units(kind: str) -> dict[str, str]:
    """Names and units of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def load_workload(name: str) -> dict:
    spec = json.loads((WORKLOADS / f"{name}.json").read_text())
    spec["profile"] = str(WORKLOADS / spec["profile"])
    return spec


def workload_names() -> list[str]:
    return sorted(p.stem for p in WORKLOADS.glob("*.json") if not p.stem.endswith(".profile"))


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def manifest() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "threads_in_parent": {v: os.environ.get(v) for v in THREAD_VARS},
        "threads_in_workload": {v: "1" for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "loadavg_start": os.getloadavg(),
    }


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative import seconds of IMPORTS from ``-X importtime`` output."""
    cumulative = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and line.count("|") == 2:
            _, cum, name = line.split("|")
            if cum.strip().isdigit():
                cumulative[name.strip()] = int(cum) * 1e-6
    return {metric: cumulative.get(pkg, 0.0) for metric, pkg in IMPORTS.items()}


def run_process(workload: dict, seed: int, out: Path, traced: bool, timeout: float) -> dict:
    """One workload process; returns its report, or {"error": ...}."""
    out.mkdir(parents=True)
    spec = {
        "invocations": workload["invocations"],
        "profile": workload["profile"],
        "seed": seed,
        "out": str(out),
        "src": str(SRC),
        "trace": traced,
    }
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    cmd = [sys.executable, *(["-X", "importtime"] if traced else []), str(BENCH / "child.py")]
    spec_path = out / "spec.json"
    with open(out / "stdout.txt", "wb") as so, open(out / "stderr.txt", "wb") as se:
        spec["spawned_at"] = time.monotonic()
        spec_path.write_text(json.dumps(spec))
        try:
            done = subprocess.run([*cmd, str(spec_path)], stdout=so, stderr=se, env=env, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"error": f"killed after {timeout:.0f} s"}
    stderr = (out / "stderr.txt").read_text(errors="replace")
    report_path = out / "report.json"
    if done.returncode != 0 or not report_path.is_file():
        return {"error": f"exit {done.returncode}: {stderr[-2000:]}"}
    report = json.loads(report_path.read_text())
    report["raw_setup_s"] = report["setup_s"]
    report["raw_wall_s"] = sum(inv["wall_s"] for inv in report["invocations"])
    report["setup_s"] *= PROBE_REF_S / report["probes"][0]
    report["wall_s"] = scaled_wall(report)
    if traced:
        spans = json.loads((out / "spans.json").read_text())
        report["layers"] = {**reduce_spans(spans), **import_times(stderr)}
    return report


def scaled_wall(report: dict) -> float:
    """Pass wall time at the reference host speed: each invocation's wall
    time times PROBE_REF_S over the mean of the probes timed just before and
    just after it. (Set-up is scaled by the probe that follows it.)"""
    p = report["probes"]
    return sum(
        inv["wall_s"] * PROBE_REF_S / (0.5 * (p[i] + p[i + 1]))
        for i, inv in enumerate(report["invocations"])
    )


def digest(inv_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(inv_dir.iterdir()) if inv_dir.is_dir() else []:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def check_run(workload: dict, seed: int, dirs: list[Path], reports: list[dict], ref: Path) -> list[str]:
    """One entry per failed (process, invocation)."""
    failures = []
    n_inv = len(workload["invocations"])
    digests = {}
    for k, (out, rep) in enumerate(zip(dirs, reports)):
        for i in range(n_inv):
            if "error" in rep:
                failures.append(f"process {k} invocation {i}: {rep['error']}")
                continue
            rec = rep["invocations"][i]
            if rec["error"] is not None or rec["rc"] != 0:
                failures.append(f"process {k} invocation {i}: rc={rec['rc']} {rec['error'] or ''}")
                continue
            problems = check_invocation(out / f"inv{i}", ref / f"inv{i}", seed)
            if problems:
                failures.append(f"process {k} invocation {i}: " + "; ".join(problems[:5]))
                continue
            digests[(k, i)] = digest(out / f"inv{i}")
    # repeats must agree byte for byte; the most common digest is taken as right
    for i in range(n_inv):
        per_process = [d for (k, j), d in digests.items() if j == i]
        if not per_process:
            continue
        common = max(set(per_process), key=per_process.count)
        failures += [
            f"process {k} invocation {i}: artifacts differ from the other repeats"
            for (k, j), d in sorted(digests.items())
            if j == i and d != common
        ]
    return failures


def median_of(reports: list[dict], key) -> float:
    values = [key(r) for r in reports]
    return statistics.median(values) if values else 0.0


def per_layer(reports: list[dict], traced: list[bool], units: dict[str, str]) -> tuple[dict, list[str]]:
    layered = [r for r, t in zip(reports, traced) if t and "layers" in r]
    plain = [r for r, t in zip(reports, traced) if not t and "error" not in r]
    notes = []
    metrics = {}
    if layered:
        names = layered[0]["layers"]
        for name in names:
            values = [r["layers"][name] for r in layered]
            if units.get(name) == "count":
                # counts repeat exactly; a repeat that differs is a finding
                metrics[name] = values[0]
                if len(set(values)) > 1:
                    notes.append(f"{name} differs between repeats: {values}")
            else:
                metrics[name] = statistics.median(values)
    ok = [r for r in reports if "error" not in r]
    metrics["proc.cpu_s"] = median_of(ok, lambda r: r["cpu_s"])
    metrics["proc.cpu_per_wall"] = median_of(ok, lambda r: r["cpu_s"] / r["raw_wall_s"])
    metrics["proc.setup_raw_s"] = median_of(ok, lambda r: r["raw_setup_s"])
    metrics["proc.wall_raw_s"] = median_of(ok, lambda r: r["raw_wall_s"])
    metrics["proc.probe_ms"] = 1e3 * statistics.median(p for r in ok for p in r["probes"]) if ok else 0.0
    metrics["trace.overhead_s"] = (
        median_of(layered, lambda r: r["wall_s"]) - median_of(plain, lambda r: r["wall_s"])
        if layered and plain
        else 0.0
    )
    missing = sorted({m for r in layered for m in r.get("missing_sites", [])})
    if missing:
        notes.append(f"trace sites not found (their metrics read 0): {missing}")
    return metrics, notes


def capture_reference(name: str, workload: dict) -> int:
    work = OUT / "work" / f"capture-{name}-{os.getpid()}"
    rep = run_process(workload, REFERENCE_SEED, work, False, BUDGET_S)
    bad = [r for r in rep.get("invocations", []) if r["rc"] != 0 or r["error"]]
    if "error" in rep or bad:
        print(f"capture failed: {rep.get('error') or bad}", file=sys.stderr)
        return 1
    dest = REFERENCE / name
    shutil.rmtree(dest, ignore_errors=True)
    for i in range(len(workload["invocations"])):
        shutil.copytree(work / f"inv{i}", dest / f"inv{i}")
    shutil.rmtree(work)
    print(f"reference artifacts for {name} (seed {REFERENCE_SEED}) written to {dest}")
    return 0


def main(argv=None) -> int:
    # on SIGTERM, unwind so that subprocess.run kills and reaps the workload process
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=int, default=None, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--capture-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "chirpvote" / "cli.py").is_file():
        print(f"no chirpvote sources under {SRC}: run from the root of a chirpvote checkout", file=sys.stderr)
        return 2
    if args.workload not in workload_names():
        print(f"unknown workload {args.workload!r}; choose from {workload_names()}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.seconds < 1:
        print("--seconds must be at least 1", file=sys.stderr)
        return 2
    workload = load_workload(args.workload)
    if args.capture_reference:
        return capture_reference(args.workload, workload)

    env = manifest()
    started = time.monotonic()
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    work = OUT / "work" / run_id
    planned = max(MIN_PROCESSES, round(args.seconds / workload["process_s"]))
    traced = [bool(args.trace) and k % 2 == 0 for k in range(planned)]
    dirs, reports = [], []
    longest = 0.0
    for k in range(planned):
        elapsed = time.monotonic() - started
        if elapsed + longest > BUDGET_S:
            reports.append({"error": "not started: time budget exhausted"})
        else:
            reports.append(run_process(workload, args.seed, work / f"p{k}", traced[k], BUDGET_S + 10 - elapsed))
            longest = max(longest, time.monotonic() - started - elapsed)
        dirs.append(work / f"p{k}")

    failures = check_run(workload, args.seed, dirs, reports, REFERENCE / args.workload)
    attempted = planned * len(workload["invocations"])
    ok = [r for r in reports if "error" not in r]
    untraced_ok = [r for r, t in zip(reports, traced) if "error" not in r and not t]
    notes: list[str] = []
    if args.trace:
        units = metric_units("per_layer")
        values, notes = per_layer(reports, traced, units)
        missing = sorted(set(units) - set(values))
        if missing:
            notes.append(f"per-layer metrics not computed: {missing}")
    else:
        values = {
            "setup_s": median_of(untraced_ok, lambda r: r["setup_s"]),
            "wall_s": median_of(untraced_ok, lambda r: r["wall_s"]),
            "peak_rss_mb": median_of(untraced_ok, lambda r: r["peak_rss_mb"]),
            "fail_ratio": (len(failures) + 0.5) / (attempted + 1),
        }
        units = metric_units("end_to_end")
    result = {
        "correct": not failures and bool(ok),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()},
    }

    env["loadavg_end"] = os.getloadavg()
    env["run_s"] = time.monotonic() - started
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "processes": planned,
        "manifest": env,
        "samples": [
            {k: r[k] for k in SAMPLE_KEYS if k in r}
            | {"traced": t, "invocation_wall_s": [inv["wall_s"] for inv in r["invocations"]]}
            for r, t in zip(reports, traced)
            if "error" not in r
        ],
        "failures": failures,
        "notes": notes,
        "result": result,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    record_path = results / f"{run_id}.json"
    record_path.write_text(json.dumps(record, indent=1))
    first_traced = next((d for d, t, r in zip(dirs, traced, reports) if t and "error" not in r), None)
    if first_traced is not None:
        shutil.copy(first_traced / "spans.json", results / f"{run_id}.spans.json")
    shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  processes {planned}  trace {args.trace}")
    print(
        f"cpus {env['cpu_count']}  python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
        f"git {env['git_sha'] or '-'}  load {env['loadavg_start'][0]:.2f} -> {env['loadavg_end'][0]:.2f}"
    )
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    for line in failures[:20] + notes:
        print(f"  ! {line}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
