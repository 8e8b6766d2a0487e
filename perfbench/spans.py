"""Layer spans for the traced benchmark run, recorded from outside the package.

``Tracer.install`` replaces each probed function at the name its caller looks
it up under (``chirpvote.rf.power_spectrum``, ``chirpvote.learn.local_gradient``,
``chirpvote.studies.run_training``, ...) with a wrapper that records a span:
name, start, end, parent span and CLI invocation id. Spans stay in memory until
the workload process writes them out at the end of its pass. ``reduce_spans``
turns one process's spans into the per-layer metrics.

A span is named after the module that defines the function, whatever module
the wrapper is installed in. A layer's self time is its span's duration minus
the durations of its direct child spans.
"""
from __future__ import annotations

import importlib
import math
import statistics
import time
from contextlib import contextmanager


def _n_rows(w, x, y) -> int:
    # learn.loss_and_gradient: one sample per row of x
    return int(x.shape[0]) if x.ndim > 1 else 1


def _welch_segments(samples, sample_rate, segment_len) -> int:
    # numerics.power_spectrum: Hann segments with 50% overlap
    n, seg = samples.size, int(segment_len)
    step = seg - seg // 2
    return 1 + (n - seg) // step if n >= seg > 0 else 0


#: (span name, install sites as (module, attribute), counter name, counter)
#: A counter maps the call's arguments to a count stored on the span.
PROBES = (
    ("studies.pmepr_report", [("chirpvote.studies", "pmepr_report")], None, None),
    ("studies.cm_report", [("chirpvote.studies", "cm_report")], None, None),
    ("studies.aclr_study", [("chirpvote.studies", "aclr_study")], None, None),
    ("studies.coverage_study", [("chirpvote.studies", "coverage_study")], None, None),
    ("studies.train_sweep", [("chirpvote.studies", "train_sweep")], None, None),
    ("studies.training_setup", [("chirpvote.studies", "training_setup")], None, None),
    ("learn.run_training", [("chirpvote.studies", "run_training")], None, None),
    ("learn.loss_by_distance", [("chirpvote.studies", "loss_by_distance")], None, None),
    ("learn.run_round", [("chirpvote.learn", "run_round")], None, None),
    ("learn.local_gradient", [("chirpvote.learn", "local_gradient")], None, None),
    ("learn.mean_loss", [("chirpvote.learn", "mean_loss")], None, None),
    ("learn.evaluate", [("chirpvote.learn", "evaluate")], None, None),
    (
        "oac.detect_mv",
        [("chirpvote.learn", "detect_mv")],
        "blocks",
        lambda plan, blocks: int(blocks.shape[0]),
    ),
    ("oac.encode_obda", [("chirpvote.learn", "encode_obda")], None, None),
    ("channel.draw_epa", [("chirpvote.learn", "draw_epa")], None, None),
    (
        "channel.frequency_response",
        [("chirpvote.channel", "ChannelRealization.frequency_response")],
        None,
        None,
    ),
    (
        "rng.keyed_rng",
        [
            ("chirpvote.learn", "keyed_rng"),
            ("chirpvote.studies", "keyed_rng"),
            ("chirpvote.datasets", "keyed_rng"),
            ("chirpvote.deployment", "keyed_rng"),
            ("chirpvote.cli", "keyed_rng"),
        ],
        None,
        None,
    ),
    (
        "waveform.build_fdss",
        [
            ("chirpvote.learn", "build_fdss"),
            ("chirpvote.studies", "build_fdss"),
            ("chirpvote.cli", "build_fdss"),
        ],
        None,
        None,
    ),
    ("numerics.fresnel_array", [("chirpvote.waveform", "fresnel_array")], None, None),
    (
        "numerics.power_spectrum",
        [("chirpvote.rf", "power_spectrum")],
        "segments",
        _welch_segments,
    ),
    (
        "rf.apply_pa",
        [("chirpvote.rf", "apply_pa")],
        "samples",
        lambda pa, sig: int(sig.samples.size),
    ),
    ("rf.scale_to_obo", [("chirpvote.rf", "scale_to_obo")], None, None),
    ("rf.aclr", [("chirpvote.rf", "aclr")], None, None),
    (
        "rf.aclr_at_obo",
        [("chirpvote.rf", "aclr_at_obo"), ("chirpvote.studies", "aclr_at_obo")],
        None,
        None,
    ),
    ("rf.obo_for_aclr", [("chirpvote.studies", "obo_for_aclr")], None, None),
    ("rf.pmepr_batch", [("chirpvote.studies", "pmepr_batch")], None, None),
    ("rf.cubic_metric_batch", [("chirpvote.studies", "cubic_metric_batch")], None, None),
    (
        "waveform.analog_body",
        [("chirpvote.studies", "analog_body"), ("chirpvote.waveform", "analog_body")],
        "symbols",
        lambda cfg, grid, oversample=4: math.prod(grid.shape[:-1]),
    ),
    ("waveform.assemble_stream", [("chirpvote.studies", "assemble_stream")], None, None),
)

#: called far too often for a span each: counted on the enclosing span instead
SAMPLE_COUNTER = ("chirpvote.learn", "loss_and_gradient")


class Tracer:
    """In-memory span recorder for one workload process."""

    def __init__(self) -> None:
        # one row per span: [name, start, end, parent id, invocation, counts]
        self._spans: list[list] = []
        self._stack: list[int] = []
        self._invocation: int | None = None
        self.missing: list[str] = []

    def _open(self, name: str) -> int:
        sid = len(self._spans)
        parent = self._stack[-1] if self._stack else None
        self._spans.append([name, time.perf_counter(), None, parent, self._invocation, {}])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self._spans[sid][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def invocation(self, index: int):
        """Span ``cli.main`` around one CLI invocation."""
        self._invocation = index
        sid = self._open("cli.main")
        try:
            yield
        finally:
            self._close(sid)
            self._invocation = None

    def _count(self, label: str, counter, args, kwargs):
        """A counter's value, or None (and a note) when the probed function's
        arguments no longer fit it."""
        try:
            return counter(*args, **kwargs)
        except (AttributeError, TypeError, IndexError):
            if label not in self.missing:
                self.missing.append(label)
            return None

    def _wrap(self, name, fn, counter_name, counter):
        def traced(*args, **kwargs):
            sid = self._open(name)
            if counter is not None:
                value = self._count(f"{name}.{counter_name}", counter, args, kwargs)
                if value is not None:
                    self._spans[sid][5][counter_name] = value
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)

        traced.__wrapped__ = fn
        return traced

    def _count_samples(self, fn):
        def counted(*args, **kwargs):
            rows = self._count("learn.loss_and_gradient.samples", _n_rows, args, kwargs)
            if self._stack and rows is not None:
                counts = self._spans[self._stack[-1]][5]
                counts["loss_samples"] = counts.get("loss_samples", 0) + rows
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self) -> None:
        """Wrap every probe site. A site that no longer exists, or a counter
        whose arguments no longer fit, is listed in ``missing`` and its
        metrics read zero."""
        for name, sites, counter_name, counter in PROBES:
            for module_name, attr in sites:
                owner, leaf = _resolve(module_name, attr)
                if owner is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                setattr(owner, leaf, self._wrap(name, getattr(owner, leaf), counter_name, counter))
        owner, leaf = _resolve(*SAMPLE_COUNTER)
        if owner is None:
            self.missing.append(".".join(SAMPLE_COUNTER))
        else:
            setattr(owner, leaf, self._count_samples(getattr(owner, leaf)))

    def records(self) -> list[dict]:
        return [
            {"id": i, "name": n, "start": s, "end": e, "parent": p, "invocation": inv, "counts": c}
            for i, (n, s, e, p, inv, c) in enumerate(self._spans)
        ]


def _resolve(module_name: str, attr: str):
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    return (owner, leaf) if hasattr(owner, leaf) else (None, None)


def tail_value(values: list[float], beyond: int = 10) -> float:
    """Highest order statistic with at least ``beyond`` samples above it
    (0.0 when there are too few samples)."""
    if len(values) <= beyond:
        return 0.0
    return sorted(values)[len(values) - beyond - 1]


#: spans subtracted from run_round to leave the aggregation (uplink) time
_NOT_UPLINK = ("learn.local_gradient", "learn.mean_loss", "learn.evaluate", "rng.keyed_rng")

_SELF_S = (
    "learn.local_gradient",
    "learn.mean_loss",
    "learn.evaluate",
    "learn.loss_by_distance",
    "oac.detect_mv",
    "oac.encode_obda",
    "channel.draw_epa",
    "channel.frequency_response",
    "rng.keyed_rng",
    "numerics.fresnel_array",
    "studies.training_setup",
    "numerics.power_spectrum",
    "rf.apply_pa",
    "rf.scale_to_obo",
    "rf.aclr",
    "waveform.analog_body",
    "waveform.assemble_stream",
    "rf.pmepr_batch",
    "rf.cubic_metric_batch",
)
_CALLS = (
    "learn.run_round",
    "channel.frequency_response",
    "rng.keyed_rng",
    "waveform.build_fdss",
    "studies.training_setup",
    "numerics.power_spectrum",
)
_COUNTS = (
    ("oac.detect_mv", "blocks"),
    ("numerics.power_spectrum", "segments"),
    ("rf.apply_pa", "samples"),
    ("waveform.analog_body", "symbols"),
)


def reduce_spans(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (times in seconds unless named _ms)."""
    dur = [s["end"] - s["start"] for s in spans]
    child_s = [0.0] * len(spans)
    studies_child_s = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_s[s["parent"]] += dur[s["id"]]
            if s["name"].startswith("studies."):
                studies_child_s[s["parent"]] += dur[s["id"]]
    by_name: dict[str, list[int]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s["id"])

    def ids(name):
        return by_name.get(name, [])

    def nearest(sid, names):
        """Closest proper ancestor whose name is in ``names``."""
        p = spans[sid]["parent"]
        while p is not None and spans[p]["name"] not in names:
            p = spans[p]["parent"]
        return p

    m: dict[str, float] = {}
    for name in _SELF_S:
        m[f"{name}.self_s"] = sum(dur[i] - child_s[i] for i in ids(name))
    for name in _CALLS:
        m[f"{name}.calls"] = len(ids(name))
    for name, key in _COUNTS:
        m[f"{name}.{key}"] = sum(spans[i]["counts"].get(key, 0) for i in ids(name))

    rounds_ms = [1e3 * dur[i] for i in ids("learn.run_round")]
    m["learn.run_round.p50_ms"] = statistics.median(rounds_ms) if rounds_ms else 0.0
    m["learn.run_round.tail_ms"] = tail_value(rounds_ms)

    uplink = sum(dur[i] for i in ids("learn.run_round"))
    for name in _NOT_UPLINK:
        for i in ids(name):
            p = nearest(i, _NOT_UPLINK + ("learn.run_round",))
            if p is not None and spans[p]["name"] == "learn.run_round":
                uplink -= dur[i]
    m["learn.uplink.self_s"] = uplink

    samples = sum(s["counts"].get("loss_samples", 0) for s in spans)
    useful = sum(spans[i]["counts"].get("loss_samples", 0) for i in ids("learn.local_gradient"))
    m["learn.loss_and_gradient.samples"] = samples
    m["learn.useful_sample_ratio"] = useful / samples if samples else 0.0

    solves = set(ids("rf.obo_for_aclr"))
    evals = sum(1 for i in ids("rf.aclr_at_obo") if spans[i]["parent"] in solves)
    m["rf.obo_for_aclr.evals_per_solve"] = evals / len(solves) if solves else 0.0

    # cli.main minus the studies pipelines it calls
    m["cli.self_s"] = sum(dur[i] - studies_child_s[i] for i in ids("cli.main"))
    return m
