"""Scheme-level experiment pipelines shared by the CLI and the test suite.

Each study takes an ExperimentConfig and a seed and returns plain Python
rows, so the CLI only has to format them and the tests only have to assert
on them.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from ._rng import keyed_rng
from .config import ExperimentConfig, scheme_votes
from .datasets import Dataset, synthetic_digits
from .deployment import Deployment, coverage_radius, snr_vs_distance
from .errors import ConfigError, InfeasibleError
from .learn import (
    TrainSetup,
    TrainState,
    loss_by_distance,
    partition_dataset,
    run_training,
)
from .oac import random_csc_traffic, random_qpsk
from .rf import (
    aclr_at_obo,
    cubic_metric_batch,
    obo_for_aclr,
    occupied_band,
    pmepr_batch,
)

#: CCDF grid for the per-symbol metric curves (dense body plus the far tail)
PERCENTILES = np.append(np.arange(0.5, 100.0, 0.5), 99.9)
from .waveform import (
    ComplexSignal,
    analog_body,
    assemble_stream,
    build_fdss,
    ofdm_grid,
    precode,
)


def scheme_bin_symbols(
    cfg: ExperimentConfig, scheme: str, n_symbols: int, rng: np.random.Generator
) -> np.ndarray:
    """Random traffic in the bin domain for one scheme. (n_symbols, M)."""
    votes = scheme_votes(scheme)
    if votes is None:
        return random_qpsk(cfg.wave.num_bins, n_symbols, rng)
    return random_csc_traffic(cfg.wave.num_bins, votes, n_symbols, rng)


def scheme_grids(cfg: ExperimentConfig, scheme: str, bins: np.ndarray) -> np.ndarray:
    """Subcarrier grids for the scheme's transmit chain. (..., N)."""
    if scheme_votes(scheme) is None:
        return ofdm_grid(cfg.wave, bins)
    return precode(cfg.wave, build_fdss(cfg.wave), bins)


def scheme_symbol_bodies(cfg: ExperimentConfig, scheme: str, seed: int) -> np.ndarray:
    """Oversampled per-symbol bodies for distribution metrics."""
    rng = keyed_rng(seed, "traffic", scheme)
    bins = scheme_bin_symbols(cfg, scheme, cfg.metrics.num_symbols, rng)
    return analog_body(cfg.wave, scheme_grids(cfg, scheme, bins), cfg.metrics.oversample)


def scheme_stream(cfg: ExperimentConfig, scheme: str, seed: int) -> ComplexSignal:
    """Windowed overlap-add symbol stream for spectral metrics."""
    rng = keyed_rng(seed, "stream", scheme)
    bins = scheme_bin_symbols(cfg, scheme, cfg.metrics.stream_symbols, rng)
    return assemble_stream(cfg.wave, scheme_grids(cfg, scheme, bins), cfg.metrics.oversample)


def _distribution_report(
    cfg: ExperimentConfig, seed: int, metric
) -> tuple[list[dict], dict]:
    """Percentile-grid rows plus a per-scheme summary for one symbol metric."""
    rows: list[dict] = []
    summary: dict[str, dict[str, float]] = {}
    for scheme in cfg.schemes:
        samples = metric(scheme_symbol_bodies(cfg, scheme, seed))
        values = np.percentile(samples, PERCENTILES)
        rows += [
            {"scheme": scheme, "percentile": float(q), "value_db": float(v)}
            for q, v in zip(PERCENTILES, values)
        ]
        summary[scheme] = {
            "median_db": float(np.percentile(samples, 50.0)),
            "p99_db": float(np.percentile(samples, 99.0)),
            "p99_9_db": float(np.percentile(samples, 99.9)),
        }
    return rows, summary


def pmepr_report(cfg: ExperimentConfig, seed: int) -> tuple[list[dict], dict]:
    return _distribution_report(cfg, seed, pmepr_batch)


def cm_report(cfg: ExperimentConfig, seed: int) -> tuple[list[dict], dict]:
    return _distribution_report(cfg, seed, cubic_metric_batch)


def aclr_study(cfg: ExperimentConfig, seed: int, obo_db: float | None = None) -> list[dict]:
    """Leakage against back-off: the full 0-30 dB sweep, or one spot value."""
    inband = occupied_band(cfg.wave)
    if obo_db is None:
        step = cfg.metrics.obo_step_db
        obos = np.arange(0.0, 30.0 + step / 2.0, step)
    else:
        obos = np.array([float(obo_db)])
    rows = []
    for scheme in cfg.schemes:
        stream = scheme_stream(cfg, scheme, seed)
        rows += [
            {
                "scheme": scheme,
                "obo_db": float(obo),
                "aclr_db": aclr_at_obo(
                    cfg.pa, stream, inband, float(obo), cfg.metrics.segment_len
                ),
            }
            for obo in obos
        ]
    return rows


def coverage_study(cfg: ExperimentConfig, seed: int) -> list[dict]:
    """Per scheme: smallest compliant back-off and the coverage radius it buys.

    Schemes whose spectrum cannot meet the ACLR target at any back-off are
    reported as infeasible rather than raising, so one bad scheme does not
    hide the others' results.
    """
    inband = occupied_band(cfg.wave)
    rows = []
    for scheme in cfg.schemes:
        stream = scheme_stream(cfg, scheme, seed)
        try:
            obo_min = obo_for_aclr(
                cfg.pa,
                stream,
                inband,
                cfg.aclr_target_db,
                tol_db=cfg.metrics.obo_step_db,
                segment_len=cfg.metrics.segment_len,
            )
        except InfeasibleError:
            rows.append(
                {"scheme": scheme, "status": "infeasible", "obo_min_db": None, "coverage_m": None}
            )
            continue
        radius = coverage_radius(replace(cfg.power, obo_min=obo_min))
        rows.append(
            {"scheme": scheme, "status": "ok", "obo_min_db": obo_min, "coverage_m": radius}
        )
    return rows


def snr_distance_study(cfg: ExperimentConfig, n_points: int = 81) -> list[dict]:
    """Uplink SNR against distance for the configured power profile."""
    radius = coverage_radius(cfg.power)
    grid = np.linspace(cfg.r_min, cfg.r_max, n_points)
    distances, snrs = snr_vs_distance(cfg.power, radius, grid)
    return [
        {"distance_m": float(d), "snr_db": float(s)} for d, s in zip(distances, snrs)
    ]


def load_training_data(cfg: ExperimentConfig, seed: int) -> tuple[Dataset, Dataset]:
    t = cfg.train
    if t.dataset == "synthetic":
        train = synthetic_digits(t.train_samples, seed)
        test = synthetic_digits(t.test_samples, seed + 10_000)
        return train, test
    raise ConfigError(
        "dataset 'idx' needs explicit file paths; use chirpvote.datasets.idx_digits"
    )


def training_setup(cfg: ExperimentConfig, seed: int) -> TrainSetup:
    """Assemble deployment, partitioned data and radio parameters for one run."""
    t = cfg.train
    deployment = Deployment.sample(t.num_eds, cfg.r_min, cfg.r_max, seed)
    train, test = load_training_data(cfg, seed)
    parts = partition_dataset(train, deployment, t.partition)
    return TrainSetup(
        wave=cfg.wave,
        deployment=deployment,
        datasets=tuple(parts),
        test_set=test,
        power=cfg.power,
        coverage_csc_m=t.csc_coverage_m,
        coverage_obda_m=t.obda_coverage_m,
        seed=seed,
        batch_size=t.batch_size,
        votes_per_block=t.votes_per_block,
        max_sync_offset=t.max_sync_offset,
        tci_threshold=t.tci_threshold,
    )


def scheme_phy(scheme: str) -> tuple[str, int | None]:
    """Map a scheme token to (phy mode, votes per block)."""
    if scheme == "ideal":
        return "ideal", None
    votes = scheme_votes(scheme)
    if votes is None:
        return "obda", None
    return "csc_mv", votes


def run_scheme_training(
    cfg: ExperimentConfig, scheme: str, snr_db: float, seed: int
) -> TrainState:
    return _train_scheme(cfg, scheme, snr_db, training_setup(cfg, seed))


def _train_scheme(
    cfg: ExperimentConfig, scheme: str, snr_db: float, setup: TrainSetup
) -> TrainState:
    phy, votes = scheme_phy(scheme)
    if votes is not None:
        setup = replace(setup, votes_per_block=votes)
    return run_training(setup, phy, cfg.train.rounds, snr_db, cfg.train.step_size)


def train_sweep(
    cfg: ExperimentConfig,
    schemes: tuple[str, ...],
    snr_points: tuple[float, ...],
    seeds: tuple[int, ...],
) -> tuple[list[dict], list[dict], list[dict]]:
    """Full scheme x SNR x seed grid.

    Returns per-round history rows, one summary row per run, and the
    final-round loss-by-distance snapshot, all in fixed loop order so the
    emitted files are canonical.
    """
    history: list[dict] = []
    summary: list[dict] = []
    loss_rows: list[dict] = []
    for scheme in schemes:
        for snr_db in snr_points:
            for seed in seeds:
                setup = training_setup(cfg, seed)
                state = _train_scheme(cfg, scheme, float(snr_db), setup)
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
