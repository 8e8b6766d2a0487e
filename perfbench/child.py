"""One workload process: set-up, then one timed pass over the workload's CLI
invocations, each driven in-process through ``chirpvote.cli.main(argv)``.
The host probe is timed before the first invocation and after each one.

``run.py`` starts a fresh interpreter for every repeat, because every real
``chirpvote`` command is a fresh process: lazy first-call costs inside the
package stay in the timed pass instead of being discarded as a warm-up.

Usage: python3 perfbench/child.py SPEC.json

SPEC.json holds ``invocations`` (CLI argv lists), ``profile``, ``seed``,
``out`` (this process's directory), ``trace`` and ``spawned_at`` (the
parent's ``time.monotonic()`` just before it started this process; on Linux
the monotonic clock is shared by all processes). The process writes
``report.json`` (set-up time, per-invocation wall time, probe times) and,
when traced, ``spans.json`` into ``out``.
"""
import json
import os
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def host_probe() -> float:
    """Seconds of a fixed mix of interpreter and NumPy work (about 25 ms on
    the reference host): a gauge of how fast the host runs this process right
    now, independent of the code under test."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 20000)
    m = np.full((40, 40), 1.0 / 40.0)
    t0 = time.perf_counter()
    acc = 0
    for k in range(150_000):
        acc += k % 7
    for _ in range(40):
        np.tanh(np.sin(x) * 3.0).sum()
        m = np.tanh(m @ m + 0.1)
    return time.perf_counter() - t0


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    out = Path(spec["out"])

    import chirpvote.cli as cli
    from chirpvote.config import load_config

    load_config(spec["profile"])
    setup_s = time.monotonic() - spec["spawned_at"]

    src = Path(spec["src"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"chirpvote imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    records = []
    probes = [host_probe()]
    cpu_s = 0.0
    for i, argv in enumerate(spec["invocations"]):
        full = [
            *argv,
            "--config", spec["profile"],
            "--seed", str(spec["seed"]),
            "--out", str(out / f"inv{i}"),
        ]
        rec = {"argv": full, "rc": None, "error": None}
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        with tracer.invocation(i) if tracer else nullcontext():
            try:
                rec["rc"] = cli.main(full)
            except SystemExit as exc:  # argparse rejects the argv
                rec["error"] = f"SystemExit({exc.code})"
            except Exception:  # the pass goes on; the failure is counted
                rec["error"] = traceback.format_exc()
        rec["wall_s"] = time.perf_counter() - t0
        cpu_s += time.process_time() - cpu0
        records.append(rec)
        probes.append(host_probe())

    report = {
        "setup_s": setup_s,
        "cpu_s": cpu_s,
        "probes": probes,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "invocations": records,
    }
    if tracer is not None:
        report["missing_sites"] = tracer.missing
        (out / "spans.json").write_text(json.dumps(tracer.records()))
    (out / "report.json").write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    # BLAS/OpenMP pools are sized when NumPy loads, so pin them first.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main(sys.argv[1]))
