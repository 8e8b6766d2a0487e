"""Scheme-level experiment pipelines shared by the CLI and the test suite.

Each study reads only its ExperimentConfig (seed, schemes and training grid
included) and returns plain Python rows whose keys are the columns of its
artifact, so the CLI only has to format them and the tests only have to
assert on them. The RF studies take each scheme's traffic as its (n, M)
transmitted subcarrier symbols (``scheme_subcarriers``); a training run is
``learn.run_training(training_setup(cfg, seed), scheme, snr_db)``.

The ACLR evaluations of ``aclr_study`` (each scheme's back-offs), the
bisections of ``coverage_study`` (one per scheme) and the symbol blocks of
``pmepr_report`` and ``cm_report`` (each scheme's ``_SYMBOL_BLOCK``-row
blocks) run on one worker per CPU the process may use: the calling thread
plus one pool thread for each further CPU, so the process keeps one
thread's malloc arena fewer. Each task only reads shared state (its
stream's ``rf.PaDriver``, or its scheme's drawn traffic), and the results
are collected in the serial order, so they do not depend on the worker
count. The other studies run serially, except that each training run has
one worker thread of its own (``learn.run_training``): a chirp run's draws
each round's phases and receiver noise one round ahead, and where the
placement below pins it, an OBDA or ``ideal`` run's computes each round's
record (losses and test accuracy) while the next round runs, one record in
flight at most. Every draw is keyed and a record only reads its round's
weights and activations, so no artifact depends on that thread either.

Both pools run under one placement rule, ``_placement.cpu_placement``:
while a pool thread exists, the calling thread is pinned to the first CPU
of its affinity mask and each pool thread to another CPU of that mask, and
the caller's mask is restored when the pool closes or raises. A thread that
sleeps between hand-offs is otherwise woken on its waker's CPU, so the two
would share one CPU. With one CPU in the mask nothing is pinned, and
neither is anything beside a thread pool the interpreter did not start,
such as OpenBLAS's at its default thread count.
"""
from __future__ import annotations

import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import partial

import numpy as np

from ._placement import cpu_placement
from ._rng import keyed_rng
from .config import ExperimentConfig, Scheme, scheme as scheme_record
from .datasets import synthetic_digits
from .deployment import Deployment, coverage_radius
from .errors import ConfigError, InfeasibleError
from .learn import (
    TrainSetup,
    loss_by_distance,
    partition_dataset,
    run_training,
)
from .oac import random_csc_traffic, random_qpsk
from .rf import (
    OBO_SPAN_DB,
    OVERSAMPLE,
    SEGMENT_LEN,
    PaDriver,
    aclr,
    cubic_metric_batch,
    obo_for_aclr,
    occupied_band,
    pmepr_batch,
)
from .waveform import analog_body, assemble_stream, build_fdss, precode

#: CCDF grid for the per-symbol metric curves (dense body plus the far tail)
PERCENTILES = np.append(np.arange(0.5, 100.0, 0.5), 99.9)
#: the summary's points, all on the PERCENTILES grid
_SUMMARY_POINTS = {"median_db": 50.0, "p99_db": 99.0, "p99_9_db": 99.9}
#: distance points of the SNR map, r_min to r_max
SNR_DISTANCE_POINTS = 81
_SYMBOL_BLOCK = 128  # symbols mapped, oversampled and measured per task


def _radio_record(scheme: str) -> Scheme:
    """The scheme's record; ConfigError if it has no transmit chain to measure."""
    record = scheme_record(scheme)
    if not record.transmits:
        raise ConfigError(f"scheme {scheme!r} has no transmit chain to measure")
    return record


def _radio_schemes(cfg: ExperimentConfig) -> tuple[str, ...]:
    """``cfg.schemes``, once every one has a transmit chain, so an RF study
    fails before it measures any scheme."""
    for scheme in cfg.schemes:
        _radio_record(scheme)
    return cfg.schemes


def _scheme_traffic(
    cfg: ExperimentConfig, scheme: str, n_symbols: int, rng: np.random.Generator
) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """Random traffic, (n_symbols, M), and the map of its rows onto the
    scheme's transmitted subcarrier symbols, (..., M) -> (..., M): the DFT
    spread and shaping of the chirps' CSC vote bins, or the identity for
    OBDA's QPSK symbols."""
    record = _radio_record(scheme)
    if record.spread:
        traffic = random_csc_traffic(cfg.wave.num_bins, record.votes_per_block, n_symbols, rng)
        return traffic, partial(precode, cfg.wave, build_fdss(cfg.wave))
    return random_qpsk(cfg.wave.num_bins, n_symbols, rng), np.asarray


def scheme_subcarriers(
    cfg: ExperimentConfig, scheme: str, n_symbols: int, rng: np.random.Generator
) -> np.ndarray:
    """Random traffic as the scheme's transmitted subcarrier symbols, (n_symbols, M)."""
    traffic, to_symbols = _scheme_traffic(cfg, scheme, n_symbols, rng)
    return to_symbols(traffic)


def _per_symbol_blocks(cfg: ExperimentConfig, scheme: str, seed: int, fn) -> list:
    """``fn`` of the scheme's ``metrics.num_symbols`` oversampled symbol
    bodies, ``_SYMBOL_BLOCK`` rows at a time, so each worker holds no more
    than one block of bodies at once.

    The traffic is drawn once on the calling thread, by the same calls in
    the same order as ``scheme_subcarriers``, and that draw fills the
    ``build_fdss`` cache before any worker starts. The blocks are then
    mapped over ``_map``, each task mapping its rows onto their subcarriers,
    oversampling and measuring them; the tasks only read the traffic and the
    shaping vector. Every step after the draw works row by row: the DFT
    spread along the last axis, the shaping, the scatter onto the IDFT bins,
    the zero-padded IDFT and any ``fn`` that reduces along axis -1. So no
    row's value depends on how the rows are blocked or which thread measures
    them, and the blocks, returned in input order, concatenate to the
    one-shot ``fn(analog_body(cfg.wave, scheme_subcarriers(...), OVERSAMPLE))``.
    """
    traffic, to_symbols = _scheme_traffic(
        cfg, scheme, cfg.metrics.num_symbols, keyed_rng(seed, "traffic", scheme)
    )
    blocks = [
        traffic[start : start + _SYMBOL_BLOCK] for start in range(0, len(traffic), _SYMBOL_BLOCK)
    ]
    return _map(lambda block: fn(analog_body(cfg.wave, to_symbols(block), OVERSAMPLE)), blocks)


def scheme_symbol_bodies(cfg: ExperimentConfig, scheme: str, seed: int) -> np.ndarray:
    """Oversampled per-symbol bodies for distribution metrics."""
    return np.concatenate(_per_symbol_blocks(cfg, scheme, seed, np.asarray))


def scheme_stream(cfg: ExperimentConfig, scheme: str, seed: int) -> np.ndarray:
    """Windowed overlap-add symbol stream for spectral metrics, at
    ``OVERSAMPLE`` times the numerology's rate (the rate of the PSD bins
    ``occupied_band`` marks) and at least one ``SEGMENT_LEN``-sample PSD
    segment long."""
    rng = keyed_rng(seed, "stream", scheme)
    symbols = scheme_subcarriers(cfg, scheme, cfg.metrics.stream_symbols, rng)
    samples = assemble_stream(cfg.wave, symbols, OVERSAMPLE)
    if samples.size < SEGMENT_LEN:
        raise ConfigError(
            f"metrics.stream_symbols {cfg.metrics.stream_symbols} gives a {samples.size}-sample "
            f"stream, shorter than one {SEGMENT_LEN}-sample PSD segment: raise it"
        )
    return samples


def _cpus() -> int:
    """CPUs this process may run on: its affinity mask, where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map(fn, items: list) -> list:
    """``[fn(item) for item in items]``, on one worker per CPU the process may
    use. NumPy's FFTs and ufuncs release the GIL, so threads share the work
    without a copy of the inputs. ``fn`` must only read shared state.

    The calling thread is the last worker: it computes every ``workers``-th
    item (0, w, 2w, ...) when the in-order collection reaches it, and pool
    threads compute the rest. A pool thread's malloc arena keeps its working
    set after the work ends, so one pool thread fewer is one retained arena
    fewer. The pool's threads are placed by ``cpu_placement``. As with
    ``Executor.map``, the first exception in input order is raised and the
    items not yet started are cancelled.
    """
    workers = min(len(items), _cpus())
    if workers <= 1:
        return [fn(item) for item in items]
    with cpu_placement() as pin:
        pool = ThreadPoolExecutor(workers - 1, initializer=pin)
        try:
            futures = {i: pool.submit(fn, item) for i, item in enumerate(items) if i % workers}
            return [
                futures[i].result() if i in futures else fn(item) for i, item in enumerate(items)
            ]
        finally:
            pool.shutdown(cancel_futures=True)


def _quantiles(samples: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``np.quantile(samples, q)`` of 1-D finite samples at q in [0, 1], the
    default linear method bit for bit (its ``_lerp``, which takes the nearer
    neighbour as the base). ``np.quantile`` and ``np.percentile`` partition
    at ``np.unique`` indices, and ``np.unique`` imports ``numpy.ma``, whose
    import costs more time and memory than this sort."""
    ordered = np.sort(samples)
    virtual = (len(ordered) - 1) * q
    below = np.floor(virtual).astype(np.intp)
    above = np.minimum(below + 1, len(ordered) - 1)
    t = virtual - below
    lo, hi = ordered[below], ordered[above]
    step = hi - lo
    return np.where(t >= 0.5, hi - step * (1 - t), lo + step * t)


def _distribution_report(cfg: ExperimentConfig, metric) -> tuple[list[dict], dict]:
    """Percentile-grid rows plus a per-scheme summary for one per-row symbol
    metric, measured block by block (``_per_symbol_blocks``)."""
    rows: list[dict] = []
    summary: dict[str, dict[str, float]] = {}
    for scheme in _radio_schemes(cfg):
        samples = np.concatenate(_per_symbol_blocks(cfg, scheme, cfg.seed, metric))
        values = _quantiles(samples, PERCENTILES / 100.0)
        rows += [
            {"scheme": scheme, "percentile": float(q), "value_db": float(v)}
            for q, v in zip(PERCENTILES, values)
        ]
        summary[scheme] = {
            key: float(values[PERCENTILES == q][0]) for key, q in _SUMMARY_POINTS.items()
        }
    return rows, summary


def pmepr_report(cfg: ExperimentConfig) -> tuple[list[dict], dict]:
    return _distribution_report(cfg, pmepr_batch)


def cm_report(cfg: ExperimentConfig) -> tuple[list[dict], dict]:
    return _distribution_report(cfg, cubic_metric_batch)


def aclr_study(cfg: ExperimentConfig, obo_db: float | None = None) -> list[dict]:
    """Leakage against back-off: the full ``OBO_SPAN_DB`` sweep, or one spot
    value inside that span. Below it the PA is driven past saturation; far
    above it the drive gain underflows to an all-zero output, so a spot
    value outside it (NaN included) raises ConfigError before any stream is
    built."""
    lo, hi = OBO_SPAN_DB
    if obo_db is None:
        step = cfg.metrics.obo_step_db
        obos = np.arange(lo, hi + step / 2.0, step).tolist()
    elif lo <= obo_db <= hi:
        obos = [float(obo_db)]
    else:
        raise ConfigError(f"obo_db must lie in [{lo:g}, {hi:g}] dB, got {obo_db!r}")
    inband = occupied_band(cfg.wave)
    rows = []
    for scheme in _radio_schemes(cfg):
        drive = PaDriver(cfg.pa, scheme_stream(cfg, scheme, cfg.seed))
        values = _map(lambda obo: aclr(drive(obo), inband), obos)
        rows += [
            {"scheme": scheme, "obo_db": obo, "aclr_db": value}
            for obo, value in zip(obos, values)
        ]
    return rows


def coverage_study(cfg: ExperimentConfig) -> list[dict]:
    """Per scheme: smallest compliant back-off and the coverage radius it buys.

    Each back-off is sought within ``OBO_SPAN_DB`` and no higher than
    ``power.obo_ref`` (the back-off available at the reference point).
    Schemes whose spectrum cannot meet the ACLR target at any back-off in
    that range are reported as infeasible rather than raising, so one bad
    scheme does not hide the others' results.
    """
    inband = occupied_band(cfg.wave)
    lo, hi = OBO_SPAN_DB
    obo_range = (lo, min(cfg.power.obo_ref, hi))

    def solve(scheme: str) -> dict:
        try:
            obo_min = obo_for_aclr(
                cfg.pa,
                scheme_stream(cfg, scheme, cfg.seed),
                inband,
                cfg.aclr_target_db,
                obo_range=obo_range,
                tol_db=cfg.metrics.obo_step_db,
            )
        except InfeasibleError:
            return {
                "scheme": scheme, "status": "infeasible", "obo_min_db": None, "coverage_m": None
            }
        radius = coverage_radius(replace(cfg.power, obo_min=obo_min))
        return {"scheme": scheme, "status": "ok", "obo_min_db": obo_min, "coverage_m": radius}

    build_fdss(cfg.wave)  # fill the shaping cache here, so the workers only read it
    return _map(solve, list(_radio_schemes(cfg)))


def snr_distance_study(cfg: ExperimentConfig) -> list[dict]:
    """Uplink SNR against distance, one curve per training SNR target: the
    target inside the coverage radius, then 10*alpha dB per decade lower."""
    grid = np.linspace(cfg.r_min, cfg.r_max, SNR_DISTANCE_POINTS)
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = np.minimum(1.0, coverage_radius(cfg.power) / grid)
        # the gain in dB, in the log domain so a steep path loss cannot underflow
        snr_db = np.add.outer(cfg.train.snr_db, 10.0 * cfg.power.alpha * np.log10(ratio))
    if not np.isfinite(snr_db).all():
        raise ConfigError("alpha is too large: the SNR map's path loss is not a finite float")
    return [
        {"target_snr_db": target, "distance_m": float(d), "snr_db": float(snr)}
        for target, row in zip(cfg.train.snr_db, snr_db)
        for d, snr in zip(grid, row)
    ]


def training_setup(cfg: ExperimentConfig, seed: int) -> TrainSetup:
    """Assemble deployment, partitioned data and radio parameters for one run."""
    t = cfg.train
    deployment = Deployment.sample(t.num_eds, cfg.r_min, cfg.r_max, seed)
    train_set, bounds = partition_dataset(
        synthetic_digits(t.train_samples, seed), deployment, t.partition
    )
    return TrainSetup(
        wave=cfg.wave,
        power=cfg.power,
        train=t,
        deployment=deployment,
        train_set=train_set,
        bounds=bounds,
        test_set=synthetic_digits(t.test_samples, seed + 10_000),
        seed=seed,
    )


def train_sweep(cfg: ExperimentConfig) -> tuple[list[dict], list[dict], list[dict]]:
    """Full ``schemes`` x ``train.snr_db`` x ``train.seeds`` grid.

    Returns per-round history rows, one summary row per run, and the
    final-round loss-by-distance snapshot, all in fixed loop order so the
    emitted files are canonical. Each distinct seed's set-up is built once
    and shared by all its runs: a run reads its set-up and never changes it.
    """
    setups = {seed: training_setup(cfg, seed) for seed in dict.fromkeys(cfg.train.seeds)}
    history: list[dict] = []
    summary: list[dict] = []
    loss_rows: list[dict] = []
    for scheme in cfg.schemes:
        for snr_db in cfg.train.snr_db:
            for seed in cfg.train.seeds:
                setup = setups[seed]
                state = run_training(setup, scheme, float(snr_db))
                key = {"scheme": scheme, "snr_db": float(snr_db), "seed": seed}
                history += [
                    {
                        **key,
                        "round": rec.round_index,
                        "train_loss": rec.train_loss,
                        "test_accuracy": rec.test_accuracy,
                    }
                    for rec in state.history
                ]
                last = state.history[-1]
                summary.append(
                    {
                        **key,
                        "final_accuracy": last.test_accuracy,
                        "final_train_loss": last.train_loss,
                    }
                )
                distances, losses = loss_by_distance(state, setup)
                loss_rows += [
                    {
                        **key,
                        "ed_index": i,
                        "distance_m": float(d),
                        "loss": float(l),
                    }
                    for i, (d, l) in enumerate(zip(distances, losses))
                ]
    return history, summary, loss_rows
