"""Command-line front end.

Subcommands cover the study pipelines (pmepr, cm, aclr, coverage,
snr-distance, train), a raw symbol dump (waveform-dump) and the analytic
convergence guarantee (bound).  Each command produces one or more named
artifacts (CSV tables, JSON summaries); ``--out DIR`` writes them as files,
otherwise they go to stdout (multiple artifacts are separated by ``# file:``
header lines).  All outputs are deterministic for a given config and seed:
fixed float formats, sorted JSON keys, no timestamps.

Exit codes: 0 success, 2 configuration/usage error (including a NaN or
infinite number flag), 3 infeasible request.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import studies
from ._rng import keyed_rng
from .config import (
    SCHEME_NAMES,
    ExperimentConfig,
    default_config,
    load_config,
    scheme_votes,
)
from .errors import ConfigError, InfeasibleError
from .learn import PARAM_DIM, BoundParams, convergence_bound
from .waveform import build_fdss, modulate_ofdm, spread


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _finite_float(text: str) -> float:
    """argparse type for float flags: NaN and infinities are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _csv(header: list[str], rows: list[dict]) -> str:
    lines = [",".join(header)]
    lines += [",".join(_fmt(row[h]) for h in header) for row in rows]
    return "\n".join(lines) + "\n"


def _json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit(out_dir: Path | None, artifacts: list[tuple[str, str]]) -> None:
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in artifacts:
            (out_dir / name).write_text(text)
        return
    if len(artifacts) == 1:
        sys.stdout.write(artifacts[0][1])
        return
    for name, text in artifacts:
        sys.stdout.write(f"# file: {name}\n{text}")


def _load_cfg(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else default_config()
    schemes = getattr(args, "scheme", None)
    if isinstance(schemes, list) and schemes:
        cfg = replace(cfg, schemes=tuple(schemes))
    return cfg


def _seed(args, cfg: ExperimentConfig) -> int:
    return cfg.seed if args.seed is None else args.seed


def _out_dir(args, cfg: ExperimentConfig) -> Path | None:
    if args.out is not None:
        return args.out
    return Path(cfg.out_dir) if cfg.out_dir else None


def cmd_pmepr(args) -> int:
    cfg = _load_cfg(args)
    rows, summary = studies.pmepr_report(cfg, _seed(args, cfg))
    _emit(
        _out_dir(args, cfg),
        [
            ("pmepr_distribution.csv", _csv(["scheme", "percentile", "value_db"], rows)),
            ("pmepr_summary.json", _json(summary)),
        ],
    )
    return 0


def cmd_cm(args) -> int:
    cfg = _load_cfg(args)
    rows, summary = studies.cm_report(cfg, _seed(args, cfg))
    _emit(
        _out_dir(args, cfg),
        [
            ("cm_distribution.csv", _csv(["scheme", "percentile", "value_db"], rows)),
            ("cm_summary.json", _json(summary)),
        ],
    )
    return 0


def cmd_aclr(args) -> int:
    cfg = _load_cfg(args)
    rows = studies.aclr_study(cfg, _seed(args, cfg), args.obo_db)
    _emit(
        _out_dir(args, cfg),
        [("aclr_vs_obo.csv", _csv(["scheme", "obo_db", "aclr_db"], rows))],
    )
    return 0


def cmd_coverage(args) -> int:
    cfg = _load_cfg(args)
    rows = studies.coverage_study(cfg, _seed(args, cfg))
    _emit(
        _out_dir(args, cfg),
        [("coverage.csv", _csv(["scheme", "status", "obo_min_db", "coverage_m"], rows))],
    )
    return 0


def cmd_snr_distance(args) -> int:
    cfg = _load_cfg(args)
    rows = studies.snr_distance_study(cfg)
    _emit(
        _out_dir(args, cfg),
        [("snr_vs_distance.csv", _csv(["distance_m", "snr_db"], rows))],
    )
    return 0


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    schemes = (args.scheme,) if args.scheme else cfg.schemes
    snr_points = tuple(args.snr_db) if args.snr_db else cfg.train.snr_db
    seeds = (args.seed,) if args.seed is not None else cfg.train.seeds
    history, summary, loss_rows = studies.train_sweep(cfg, schemes, snr_points, seeds)
    _emit(
        _out_dir(args, cfg),
        [
            (
                "train_history.csv",
                _csv(
                    ["scheme", "snr_db", "seed", "round", "train_loss", "test_accuracy"],
                    history,
                ),
            ),
            ("train_summary.json", _json(summary)),
            (
                "loss_by_distance.csv",
                _csv(
                    ["scheme", "snr_db", "seed", "ed_index", "distance_m", "loss"],
                    loss_rows,
                ),
            ),
        ],
    )
    return 0


def cmd_waveform_dump(args) -> int:
    cfg = _load_cfg(args)
    scheme = args.scheme[0] if args.scheme else cfg.schemes[0]
    rng = keyed_rng(_seed(args, cfg), "waveform-dump", scheme)
    bins = studies.scheme_bin_symbols(cfg, scheme, 1, rng)[0]
    if scheme_votes(scheme) is None:
        sig = modulate_ofdm(cfg.wave, bins)
    else:
        sig = spread(cfg.wave, build_fdss(cfg.wave), bins)
    lines = ["index,real,imag"]
    lines += [
        f"{i},{v.real:.12e},{v.imag:.12e}" for i, v in enumerate(sig.samples)
    ]
    _emit(_out_dir(args, cfg), [("waveform_symbol.csv", "\n".join(lines) + "\n")])
    return 0


def cmd_bound(args) -> int:
    cfg = load_config(args.config) if args.config else default_config()
    params = BoundParams(
        smoothness=np.array([args.smoothness_l1]),
        grad_noise_scale=np.array([args.noise_l1]),
        initial_gap=args.initial_gap,
        step_scale=args.step_scale,
        num_workers=args.workers,
        detection_snr=args.detection_snr,
        num_rounds=args.rounds,
    )
    try:
        value = convergence_bound(params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    payload = {
        "bound": value,
        "detection_snr": args.detection_snr,
        "initial_gap": args.initial_gap,
        "noise_l1": args.noise_l1,
        "num_rounds": args.rounds,
        "num_workers": args.workers,
        "smoothness_l1": args.smoothness_l1,
        "step_scale": args.step_scale,
    }
    if cfg.train.partition == "heterogeneous":
        # the guarantee assumes statistically identical workers
        payload["advisory"] = True
    _emit(_out_dir(args, cfg), [("bound.json", _json(payload))])
    return 0


def _add_common(sp: argparse.ArgumentParser, scheme_choices=None) -> None:
    sp.add_argument("--config", type=Path, default=None, help="JSON experiment profile")
    sp.add_argument("--seed", type=int, default=None, help="override the profile seed")
    sp.add_argument(
        "--out", type=Path, default=None, help="output directory (default: stdout)"
    )
    if scheme_choices is not None:
        sp.add_argument(
            "--scheme",
            action="append",
            choices=scheme_choices,
            default=None,
            help="restrict to a scheme (repeatable)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chirpvote",
        description="Chirp-based over-the-air majority-vote simulation studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("pmepr", help="per-symbol PMEPR distribution per scheme")
    _add_common(sp, SCHEME_NAMES)
    sp.set_defaults(func=cmd_pmepr)

    sp = sub.add_parser("cm", help="per-symbol cubic-metric distribution per scheme")
    _add_common(sp, SCHEME_NAMES)
    sp.set_defaults(func=cmd_cm)

    sp = sub.add_parser("aclr", help="adjacent-channel leakage against PA back-off")
    _add_common(sp, SCHEME_NAMES)
    sp.add_argument(
        "--obo-db",
        type=_finite_float,
        default=None,
        help="evaluate one back-off instead of the 0-30 dB sweep",
    )
    sp.set_defaults(func=cmd_aclr)

    sp = sub.add_parser("coverage", help="minimum compliant back-off and coverage radius")
    _add_common(sp, SCHEME_NAMES)
    sp.set_defaults(func=cmd_coverage)

    sp = sub.add_parser("snr-distance", help="uplink SNR versus distance")
    _add_common(sp)
    sp.set_defaults(func=cmd_snr_distance)

    sp = sub.add_parser("train", help="federated sign-vote training sweep")
    _add_common(sp)
    sp.add_argument(
        "--scheme",
        choices=SCHEME_NAMES + ("ideal",),
        default=None,
        help="run one scheme instead of the configured selection",
    )
    sp.add_argument(
        "--snr-db",
        type=_finite_float,
        action="append",
        default=None,
        help="uplink SNR point in dB (repeatable; default: profile list)",
    )
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("waveform-dump", help="dump one transmit symbol as CSV")
    _add_common(sp, SCHEME_NAMES)
    sp.set_defaults(func=cmd_waveform_dump)

    sp = sub.add_parser("bound", help="analytic convergence guarantee")
    sp.add_argument("--config", type=Path, default=None)
    sp.add_argument("--out", type=Path, default=None)
    sp.add_argument("--rounds", type=int, default=200)
    sp.add_argument("--workers", type=int, default=20)
    sp.add_argument("--detection-snr", type=_finite_float, default=1.0)
    sp.add_argument("--step-scale", type=_finite_float, default=1.0)
    sp.add_argument("--initial-gap", type=_finite_float, default=10.0)
    sp.add_argument("--smoothness-l1", type=_finite_float, default=float(PARAM_DIM))
    sp.add_argument("--noise-l1", type=_finite_float, default=float(PARAM_DIM))
    sp.set_defaults(func=cmd_bound)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
