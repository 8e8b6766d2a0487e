"""Command-line front end.

Subcommands cover the study pipelines (pmepr, cm, aclr, coverage,
snr-distance, train), a raw symbol dump (waveform-dump) and the analytic
convergence guarantee (bound).  Each command produces one or more named
artifacts (CSV tables, JSON summaries); ``--out DIR`` writes them as files,
otherwise they go to stdout (multiple artifacts are separated by ``# file:``
header lines).  All outputs are deterministic for a given config and seed:
fixed float formats, sorted JSON keys, no timestamps.

A flag that names a profile value (``--seed``: ``seed`` and ``train.seeds``;
a repeated ``--scheme``; ``--snr-db``; ``bound --rounds``/``--workers``)
overrides it in ``_load_cfg`` alone.  The studies read only the profile, and
each CSV's columns are the keys of the rows its study builds.

argparse only parses a number flag: its value passes only the check of the
profile value or ``BoundParams`` field it sets, whose message names that key
or field (``--snr-db nan``: ``snr_db``; ``--seed -1``: ``seeds``;
``bound --noise-l1 nan``: ``grad_noise_scale``), before any study runs.

Exit codes: 0 success, 2 configuration/usage error (including a value that
fails the check of the key or field it sets, an ``aclr --obo-db`` outside
the sweep's 0-30 dB span, and an ``--out`` that is not a directory or cannot
be written), 3 infeasible request.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import studies
from ._rng import keyed_rng
from .config import (
    RADIO_SCHEMES,
    SCHEMES,
    ExperimentConfig,
    default_config,
    load_config,
)
from .errors import ConfigError, InfeasibleError
from .learn import PARAM_DIM, BoundParams, convergence_bound
from .rf import OBO_SPAN_DB
from .waveform import modulate_ofdm


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _backoff_db(text: str) -> float:
    """argparse type for ``aclr --obo-db``: a back-off inside the sweep's span.
    Below it the PA is driven past saturation; far above it the drive gain
    underflows to an all-zero output. The span check rejects NaN and the
    infinities too."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    lo, hi = OBO_SPAN_DB
    if not lo <= value <= hi:
        raise argparse.ArgumentTypeError(f"back-off must lie in [{lo:g}, {hi:g}] dB: {text!r}")
    return value


def _out_dir(text: str) -> Path:
    """argparse type for --out: a directory, or a path to create whose nearest
    existing ancestor is one, so a bad path fails before the study runs."""
    path = Path(text)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise argparse.ArgumentTypeError(f"not a directory: {existing}")
    return path


def _csv(rows: list[dict]) -> str:
    """A CSV table with the first row's keys as the header."""
    header = list(rows[0])
    lines = [",".join(header)]
    lines += [",".join(_fmt(row[h]) for h in header) for row in rows]
    return "\n".join(lines) + "\n"


def _json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit(out_dir: Path | None, artifacts: list[tuple[str, str]]) -> None:
    if out_dir is not None:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            for name, text in artifacts:
                (out_dir / name).write_text(text)
        except OSError as exc:
            raise ConfigError(f"cannot write the artifacts to --out {out_dir}: {exc}") from None
        return
    if len(artifacts) == 1:
        sys.stdout.write(artifacts[0][1])
        return
    for name, text in artifacts:
        sys.stdout.write(f"# file: {name}\n{text}")


def _load_cfg(args) -> ExperimentConfig:
    """The profile with every overriding flag applied; ``replace`` reruns the
    profile's checks, so a flag value passes the check of the value it
    replaces."""
    cfg = load_config(args.config) if args.config else default_config()
    top, train = {}, {}
    if getattr(args, "seed", None) is not None:
        top["seed"] = args.seed
        train["seeds"] = (args.seed,)
    if getattr(args, "schemes", None):
        top["schemes"] = tuple(args.schemes)
    if getattr(args, "snr_db", None):
        train["snr_db"] = tuple(args.snr_db)
    if getattr(args, "rounds", None) is not None:
        train["rounds"] = args.rounds
    if getattr(args, "workers", None) is not None:
        train["num_eds"] = args.workers
    return replace(cfg, train=replace(cfg.train, **train), **top)


def cmd_distribution(args) -> int:
    """pmepr and cm: one per-symbol metric's percentile rows and summary."""
    cfg = _load_cfg(args)
    rows, summary = getattr(studies, f"{args.command}_report")(cfg)
    _emit(
        args.out,
        [
            (f"{args.command}_distribution.csv", _csv(rows)),
            (f"{args.command}_summary.json", _json(summary)),
        ],
    )
    return 0


def cmd_aclr(args) -> int:
    rows = studies.aclr_study(_load_cfg(args), args.obo_db)
    _emit(args.out, [("aclr_vs_obo.csv", _csv(rows))])
    return 0


def cmd_coverage(args) -> int:
    rows = studies.coverage_study(_load_cfg(args))
    _emit(args.out, [("coverage.csv", _csv(rows))])
    return 0


def cmd_snr_distance(args) -> int:
    rows = studies.snr_distance_study(_load_cfg(args))
    _emit(args.out, [("snr_vs_distance.csv", _csv(rows))])
    return 0


def cmd_train(args) -> int:
    history, summary, loss_rows = studies.train_sweep(_load_cfg(args))
    _emit(
        args.out,
        [
            ("train_history.csv", _csv(history)),
            ("train_summary.json", _json(summary)),
            ("loss_by_distance.csv", _csv(loss_rows)),
        ],
    )
    return 0


def cmd_waveform_dump(args) -> int:
    cfg = _load_cfg(args)
    scheme = args.scheme or cfg.schemes[0]
    rng = keyed_rng(cfg.seed, "waveform-dump", scheme)
    samples = modulate_ofdm(cfg.wave, studies.scheme_subcarriers(cfg, scheme, 1, rng)[0])
    lines = ["index,real,imag"]
    lines += [f"{i},{v.real:.12e},{v.imag:.12e}" for i, v in enumerate(samples)]
    _emit(args.out, [("waveform_symbol.csv", "\n".join(lines) + "\n")])
    return 0


def cmd_bound(args) -> int:
    cfg = _load_cfg(args)
    params = BoundParams(
        smoothness=np.array([args.smoothness_l1]),
        grad_noise_scale=np.array([args.noise_l1]),
        initial_gap=args.initial_gap,
        step_scale=args.step_scale,
        num_workers=cfg.train.num_eds,
        detection_snr=args.detection_snr,
        num_rounds=cfg.train.rounds,
    )
    payload = {
        "bound": convergence_bound(params),
        "detection_snr": args.detection_snr,
        "initial_gap": args.initial_gap,
        "noise_l1": args.noise_l1,
        "num_rounds": cfg.train.rounds,
        "num_workers": cfg.train.num_eds,
        "smoothness_l1": args.smoothness_l1,
        "step_scale": args.step_scale,
    }
    if cfg.train.partition == "heterogeneous":
        # the guarantee assumes statistically identical workers
        payload["advisory"] = True
    _emit(args.out, [("bound.json", _json(payload))])
    return 0


def _add_common(sp: argparse.ArgumentParser, scheme_choices=None, seed=True) -> None:
    sp.add_argument("--config", type=Path, default=None, help="JSON experiment profile")
    if seed:
        sp.add_argument(
            "--seed", type=int, default=None, help="set the profile's seed and train.seeds"
        )
    sp.add_argument(
        "--out", type=_out_dir, default=None, help="output directory (default: stdout)"
    )
    if scheme_choices is not None:
        sp.add_argument(
            "--scheme",
            dest="schemes",
            action="append",
            choices=scheme_choices,
            help="run this scheme (repeatable; default: the profile's schemes)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chirpvote",
        description="Chirp-based over-the-air majority-vote simulation studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("pmepr", help="per-symbol PMEPR distribution per scheme")
    _add_common(sp, RADIO_SCHEMES)
    sp.set_defaults(func=cmd_distribution)

    sp = sub.add_parser("cm", help="per-symbol cubic-metric distribution per scheme")
    _add_common(sp, RADIO_SCHEMES)
    sp.set_defaults(func=cmd_distribution)

    sp = sub.add_parser("aclr", help="adjacent-channel leakage against PA back-off")
    _add_common(sp, RADIO_SCHEMES)
    sp.add_argument(
        "--obo-db",
        type=_backoff_db,
        default=None,
        help="evaluate one back-off instead of the {:g}-{:g} dB sweep".format(*OBO_SPAN_DB),
    )
    sp.set_defaults(func=cmd_aclr)

    sp = sub.add_parser("coverage", help="minimum compliant back-off and coverage radius")
    _add_common(sp, RADIO_SCHEMES)
    sp.set_defaults(func=cmd_coverage)

    sp = sub.add_parser("snr-distance", help="uplink SNR versus distance per training SNR")
    _add_common(sp, seed=False)
    sp.set_defaults(func=cmd_snr_distance)

    sp = sub.add_parser("train", help="federated sign-vote training sweep")
    _add_common(sp, SCHEMES)
    sp.add_argument(
        "--snr-db",
        type=float,
        action="append",
        default=None,
        help="uplink SNR point in dB (repeatable; default: profile list)",
    )
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("waveform-dump", help="dump one transmit symbol as CSV")
    _add_common(sp)
    sp.add_argument(
        "--scheme",
        choices=RADIO_SCHEMES,
        help="the scheme to dump (default: the profile's first)",
    )
    sp.set_defaults(func=cmd_waveform_dump)

    sp = sub.add_parser("bound", help="analytic convergence guarantee")
    _add_common(sp, seed=False)
    sp.add_argument("--rounds", type=int, default=None, help="set train.rounds")
    sp.add_argument("--workers", type=int, default=None, help="set train.num_eds")
    sp.add_argument("--detection-snr", type=float, default=1.0)
    sp.add_argument("--step-scale", type=float, default=1.0)
    sp.add_argument("--initial-gap", type=float, default=10.0)
    sp.add_argument("--smoothness-l1", type=float, default=float(PARAM_DIM))
    sp.add_argument("--noise-l1", type=float, default=float(PARAM_DIM))
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
