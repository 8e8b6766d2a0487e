"""Output check for the benchmark's CLI artifacts.

Every artifact is checked on three counts:

* shape, for any seed: same artifact names, CSV header, row count and key
  columns as the stored reference; seed columns equal the workload seed;
  every number finite and inside its column's range; percentile curves
  non-decreasing;
* values, for the reference seed only: every number within its column's
  tolerance of the reference captured at the seed commit;
* determinism, for any seed: repeats of one invocation in one run produce
  byte-identical artifacts (``run.py`` compares their digests).

CSV numbers are printed with six decimals, so a CSV tolerance of 1.5e-6
passes a shift of one unit in the last digit (a rounding change) and fails
anything larger. JSON numbers carry every digit and get a relative tolerance
of 1e-9, far below what one flipped vote or one changed sample moves.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

#: the seed whose artifacts are stored under reference/
REFERENCE_SEED = 0

CSV_TOL = 1.5e-6
JSON_REL_TOL = 1e-9


@dataclass(frozen=True)
class Num:
    """A numeric column: range for any seed, tolerance against the reference."""

    lo: float = -math.inf
    hi: float = math.inf
    blank_ok: bool = False


KEY = "key"  # equal to the reference for any seed
SEED = "seed"  # equal to the workload seed
LABEL = "label"  # equal to the reference at the reference seed

LABELS = {"status": ("ok", "infeasible")}

CSV_COLUMNS: dict[str, dict[str, object]] = {
    "train_history.csv": {
        "scheme": KEY,
        "snr_db": KEY,
        "seed": SEED,
        "round": KEY,
        "train_loss": Num(lo=0.0),
        "test_accuracy": Num(lo=0.0, hi=1.0),
    },
    "loss_by_distance.csv": {
        "scheme": KEY,
        "snr_db": KEY,
        "seed": SEED,
        "ed_index": KEY,
        "distance_m": Num(lo=0.0),
        "loss": Num(lo=0.0),
    },
    "pmepr_distribution.csv": {"scheme": KEY, "percentile": KEY, "value_db": Num(lo=0.0)},
    "cm_distribution.csv": {"scheme": KEY, "percentile": KEY, "value_db": Num()},
    "aclr_vs_obo.csv": {"scheme": KEY, "obo_db": KEY, "aclr_db": Num(hi=0.0)},
    "coverage.csv": {
        "scheme": KEY,
        "status": LABEL,
        "obo_min_db": Num(lo=0.0, hi=30.0, blank_ok=True),
        "coverage_m": Num(lo=0.0, blank_ok=True),
    },
}

#: columns that must not decrease down the file within one scheme
MONOTONE = {"pmepr_distribution.csv": "value_db", "cm_distribution.csv": "value_db"}

#: ranges of named JSON fields; other JSON numbers need only be finite
JSON_FIELDS = {
    "final_accuracy": Num(lo=0.0, hi=1.0),
    "final_train_loss": Num(lo=0.0),
}


def _number(raw, spec: Num, where: str, problems: list[str]) -> float | None:
    if raw == "" and spec.blank_ok:
        return None
    try:
        value = float(raw)
    except ValueError:
        problems.append(f"{where}: {raw!r} is not a number")
        return None
    if not math.isfinite(value) or not spec.lo <= value <= spec.hi:
        problems.append(f"{where}: {value} outside [{spec.lo}, {spec.hi}]")
        return None
    return value


def check_csv(name: str, text: str, ref_text: str, seed: int, exact: bool) -> list[str]:
    columns = CSV_COLUMNS[name]
    rows = list(csv.reader(io.StringIO(text)))
    ref = list(csv.reader(io.StringIO(ref_text)))
    if not rows or rows[0] != list(columns):
        return [f"{name}: header {rows[:1]} != {list(columns)}"]
    if len(rows) != len(ref):
        return [f"{name}: {len(rows) - 1} rows, reference has {len(ref) - 1}"]
    problems: list[str] = []
    header = rows[0]
    last: dict[str, float] = {}
    for r, (row, ref_row) in enumerate(zip(rows[1:], ref[1:]), start=2):
        if len(row) != len(header):
            problems.append(f"{name}:{r}: {len(row)} fields")
            continue
        for col, value, ref_value in zip(header, row, ref_row):
            spec = columns[col]
            where = f"{name}:{r}:{col}"
            if spec == KEY and value != ref_value:
                problems.append(f"{where}: {value!r} != reference {ref_value!r}")
            elif spec == SEED and value != str(seed):
                problems.append(f"{where}: {value!r} != seed {seed}")
            elif spec == LABEL:
                if value not in LABELS[col] or (exact and value != ref_value):
                    problems.append(f"{where}: {value!r} (reference {ref_value!r})")
            elif isinstance(spec, Num):
                number = _number(value, spec, where, problems)
                if exact and (value == "") != (ref_value == ""):
                    problems.append(f"{where}: {value!r} != reference {ref_value!r}")
                elif exact and number is not None and abs(number - float(ref_value)) > CSV_TOL:
                    problems.append(f"{where}: {value} != reference {ref_value}")
                mono = MONOTONE.get(name)
                if col == mono and number is not None:
                    scheme = row[0]
                    if scheme in last and number < last[scheme]:
                        problems.append(f"{where}: decreases ({last[scheme]} -> {number})")
                    last[scheme] = number
    return problems


def _leaves(node, path=""):
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _leaves(node[key], f"{path}.{key}")
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, node


def check_json(name: str, text: str, ref_text: str, seed: int, exact: bool) -> list[str]:
    try:
        leaves = dict(_leaves(json.loads(text)))
    except json.JSONDecodeError as exc:
        return [f"{name}: not valid JSON ({exc})"]
    ref = dict(_leaves(json.loads(ref_text)))
    if list(leaves) != list(ref):
        return [f"{name}: fields {sorted(set(leaves) ^ set(ref))[:5]} differ from reference"]
    problems: list[str] = []
    for path, value in leaves.items():
        field = path.rsplit(".", 1)[-1]
        ref_value = ref[path]
        where = f"{name}:{path}"
        if field == "seed":
            if value != seed:
                problems.append(f"{where}: {value!r} != seed {seed}")
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            if exact and value != ref_value:
                problems.append(f"{where}: {value!r} != reference {ref_value!r}")
        else:
            number = _number(value, JSON_FIELDS.get(field, Num()), where, problems)
            if exact and number is not None and not math.isclose(
                number, ref_value, rel_tol=JSON_REL_TOL, abs_tol=1e-12
            ):
                problems.append(f"{where}: {value!r} != reference {ref_value!r}")
    return problems


def check_invocation(out_dir: Path, ref_dir: Path, seed: int) -> list[str]:
    """Problems with one invocation's artifacts (empty when they pass)."""
    expected = sorted(p.name for p in ref_dir.iterdir())
    found = sorted(p.name for p in out_dir.iterdir()) if out_dir.is_dir() else []
    if found != expected:
        return [f"artifacts {found} != {expected}"]
    exact = seed == REFERENCE_SEED
    problems: list[str] = []
    for name in expected:
        text = (out_dir / name).read_text()
        ref_text = (ref_dir / name).read_text()
        if name in CSV_COLUMNS:
            problems += check_csv(name, text, ref_text, seed, exact)
        elif name.endswith(".json"):
            problems += check_json(name, text, ref_text, seed, exact)
        else:
            problems.append(f"{name}: no check defined for this artifact")
    return problems
