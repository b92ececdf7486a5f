"""Benchmark workloads: the CLI calls each one makes and the check of their outputs.

One iteration of a workload is a fixed list of ``shellrig.cli.main`` argv
lists.  An operation is one output row: one h of a sweep, or one trace.  An
operation fails when its call raises, when a verdict is not PASS, or when a
number drifts from the reference stored in ``reference.json`` by more than
``RTOL`` relative.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"
RTOL = 1e-12

# The audit's field seed is the benchmark seed modulo this; reference.json
# holds the trace aggregates of field seeds 0 .. AUDIT_SEEDS - 1.
AUDIT_SEEDS = 32
AUDIT_H = ("3e-2", "1e-2", "3e-3")

BATTERY = [
    "sweep", "--surface", "sphere", "--field", "random", "--seeds", "20",
    "--h-min", "1e-3", "--h-max", "1e-1", "--num-h", "4",
    "--nt", "4", "--ntheta", "8", "--nz", "8",
]
SHARPNESS = [
    "sweep", "--surface", "sphere", "--field", "ansatz", "--p", "2",
    "--h-min", "1e-3", "--h-max", "1e-1", "--num-h", "4",
    "--nt", "4", "--ntheta", "32", "--nz", "16",
]


def audit_trace(field_seed: int, h: str) -> list[str]:
    return [
        "trace", "--surface", "sphere", "--profile", "bump", "--field", f"random:{field_seed}",
        "--amplitude", "1e-3", "--gamma", "0.5", "--h", h,
        "--nt", "2", "--ntheta", "16", "--nz", "16",
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple  # argv lists, one per cli.main call of an iteration
    ref_key: str  # key of this workload's entry in reference.json


def make_workload(name: str, seed: int) -> Workload:
    """The workload's CLI calls for a benchmark seed.

    battery always runs field seeds 0..19 (the CLI has no seed offset) and
    sharpness has no random input, so only audit depends on the seed.
    """
    if name == "battery":
        return Workload(name, (BATTERY,), "battery")
    if name == "sharpness":
        return Workload(name, (SHARPNESS,), "sharpness")
    if name == "audit":
        field_seed = seed % AUDIT_SEEDS
        return Workload(name, tuple(audit_trace(field_seed, h) for h in AUDIT_H), f"audit:{field_seed}")
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("battery", "sharpness", "audit")


# -- what a call leaves behind ----------------------------------------------------------


def sweep_rows(out: Path) -> list[list[float]]:
    """(h, ratio) per row of sweep.csv."""
    with open(out / "sweep.csv", newline="") as fh:
        return [[float(row["h"]), float(row["ratio"])] for row in csv.DictReader(fh)]


def trace_scalars(out: Path) -> dict:
    """Scalar leaves of trace.json, nested keys joined by dots (lists skipped)."""
    flat = {}

    def walk(prefix, node):
        for key, val in node.items():
            if isinstance(val, dict):
                walk(f"{prefix}{key}.", val)
            elif not isinstance(val, list):
                flat[prefix + key] = val

    walk("", json.loads((out / "trace.json").read_text()))
    return flat


def outputs(argv: list[str], out: Path):
    """The numbers of one call that the reference pins down."""
    return sweep_rows(out) if argv[0] == "sweep" else trace_scalars(out)


def rows_of(argv: list[str], reference) -> int:
    """Operations one call makes: rows of a sweep, 1 for a trace."""
    return len(reference) if argv[0] == "sweep" else 1


# -- the check -------------------------------------------------------------------------


def _close(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, str) or isinstance(b, str):
        return a == b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= RTOL * max(abs(a), abs(b))


def verdicts_pass(out: Path) -> bool:
    path = out / "verdict.txt"
    if not path.is_file():
        return False
    lines = path.read_text().splitlines()
    return bool(lines) and all(": PASS" in line for line in lines)


def failed_ops(argv: list[str], out: Path, expected) -> int:
    """Operations of one finished call that fail the output check."""
    if argv[0] == "sweep":
        if not verdicts_pass(out):
            return len(expected)
        try:
            rows = sweep_rows(out)
        except (OSError, KeyError, ValueError):
            return len(expected)
        bad = abs(len(rows) - len(expected))
        for (h, ratio), (h_ref, ratio_ref) in zip(rows, expected):
            bad += not (h == h_ref and _close(ratio, ratio_ref))
        return bad
    try:
        got = trace_scalars(out)
    except (OSError, ValueError):
        return 1
    ok = verdicts_pass(out) and got.keys() == expected.keys()
    return int(not (ok and all(_close(got[k], expected[k]) for k in expected)))


def load_reference() -> dict:
    """Reference outputs by ``Workload.ref_key``: one entry per call of an iteration."""
    return json.loads(REFERENCE.read_text())
