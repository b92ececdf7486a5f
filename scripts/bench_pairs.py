"""Alternating parent/change pairs of perfbench runs, summarized as a BENCH_<n>.json file.

    python scripts/bench_pairs.py --parent ../parent-checkout --change . \\
        --pairs 10 --seconds 30 --heldout-seed 23 --claim sharpness:wall_s \\
        --note "what the change does" --out BENCH_12.json

Each checkout is a source tree with ``perfbench/`` and ``src/``.  Both are
compiled first (``python -m compileall -q src perfbench`` in each), so that a
module edited since its last compile is not compiled again inside the timed
runs and setup probes when ``PYTHONDONTWRITEBYTECODE`` is set.  For every
workload, pair i runs ``python3 perfbench/run.py --workload W --seed i
--seconds S --trace 0`` in both checkouts, one run at a time, the parent
first when i is even and the change first when it is odd, so a drift of
machine speed hits both sides alike.  Per end-to-end metric the output holds
each side's median and quartiles (``statistics.quantiles(method="inclusive")``)
and their distance, the number of pairs in which the change was better, and
the relative change of the medians; ``ops_failed`` and ``ops_attempted`` are
summed over each side's runs.  ``--heldout-seed`` adds one more pair per
workload at a benchmark seed kept out of the pairs, reported apart.  The
flags are checked before anything runs: a ``--claim`` that is not
``WORKLOAD:METRIC`` for a listed workload, or a held-out seed that one of the
pairs uses, is a usage error.  ``src_lines`` records the lines of each
checkout's ``src/**/*.py`` files, as ``wc -l`` counts them.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("wall_s", "wall_p75_s", "setup_s", "peak_rss_mb")  # all lower-is-better
WORKLOADS = ("battery", "sharpness", "audit")


def compile_checkout(checkout: Path) -> None:
    """Byte-compile the checkout's ``src`` and ``perfbench`` trees."""
    proc = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
        cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: compileall: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")


def src_lines(checkout: Path) -> int:
    """Lines of the checkout's ``src/**/*.py`` files (newlines, as ``wc -l`` counts)."""
    return sum(p.read_bytes().count(b"\n") for p in (checkout / "src").rglob("*.py"))


def parse_claim(claim: str, workloads: list[str]) -> tuple[str, str]:
    """(workload, metric) of a ``WORKLOAD:METRIC`` claim; ValueError names what is wrong."""
    w, sep, m = claim.partition(":")
    if not sep:
        raise ValueError(f"--claim {claim!r} is not WORKLOAD:METRIC")
    if w not in workloads:
        raise ValueError(f"--claim workload {w!r} is not among --workloads {' '.join(workloads)}")
    if m not in METRICS:
        raise ValueError(f"--claim metric {m!r} is not one of {', '.join(METRICS)}")
    return w, m


def one_run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result (last output line) of one untraced run.py call in ``checkout``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=max(600.0, 20 * seconds),
    )
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["provenance"] = next(json.loads(x)["provenance"] for x in lines if x.startswith('{"provenance"'))
    return result


def pair(checkouts: dict, workload: str, seed: int, seconds: float, parent_first: bool) -> dict:
    order = ("parent", "change") if parent_first else ("change", "parent")
    runs = {side: one_run(checkouts[side], workload, seed, seconds) for side in order}
    for side in order:
        values = {m: runs[side]["metrics"][m]["value"] for m in METRICS}
        print(f"{workload} seed {seed} {side}: " + " ".join(f"{m}={v:.6g}" for m, v in values.items()),
              file=sys.stderr, flush=True)
    return runs


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6), "iqr": round(q3 - q1, 6)}


def summarize(runs: list[dict]) -> dict:
    """Per-workload summary of a list of pairs ({"parent": result, "change": result})."""
    out = {
        "pairs": len(runs),
        "ops_failed": {side: sum(r[side]["failed"] for r in runs) for side in ("parent", "change")},
        "ops_attempted": {side: sum(r[side]["attempted"] for r in runs) for side in ("parent", "change")},
    }
    for m in METRICS:
        vals = {side: [r[side]["metrics"][m]["value"] for r in runs] for side in ("parent", "change")}
        parent, change = quartiles(vals["parent"]), quartiles(vals["change"])
        out[m] = {
            "parent": parent,
            "change": change,
            "change_better_in_pairs": sum(c < p for p, c in zip(vals["parent"], vals["change"])),
            "relative_change": round(change["median"] / parent["median"] - 1.0, 4),
            "runs": [[p, c] for p, c in zip(vals["parent"], vals["change"])],
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--heldout-seed", type=int, help="one more pair per workload at this benchmark seed")
    ap.add_argument("--claim", help="WORKLOAD:METRIC that the change claims to improve")
    ap.add_argument("--note", default="", help="what the change does (the file's 'change' entry)")
    ap.add_argument("--parent-rev", default="", help="the parent's commit, as recorded in the file")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 (quartiles need two runs a side)")
    if args.heldout_seed is not None and 0 <= args.heldout_seed < args.pairs:
        ap.error(f"--heldout-seed {args.heldout_seed} is a seed of the pairs (0..{args.pairs - 1})")
    claim = None
    if args.claim:
        try:
            claim = parse_claim(args.claim, args.workloads)
        except ValueError as exc:
            ap.error(str(exc))
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for checkout in checkouts.values():
        compile_checkout(checkout)

    runs = {w: [pair(checkouts, w, i, args.seconds, i % 2 == 0) for i in range(args.pairs)] for w in args.workloads}
    host = runs[args.workloads[0]][0]["parent"]["provenance"]
    doc = {
        "change": args.note,
        "parent": args.parent_rev,
        "method": (
            f"{args.pairs} pairs per workload of `python3 perfbench/run.py --workload W --seed i "
            f"--seconds {args.seconds:g} --trace 0`, i = 0..{args.pairs - 1}, parent and change alternating "
            "first within a pair (parent first on even i), each from its own checkout, run one at a time "
            "(scripts/bench_pairs.py), after `python -m compileall -q src perfbench` in each checkout so "
            "that no run or setup probe compiles a stale module. Times are at reference speed (perfbench's "
            "speed gauge). Medians and quartiles (inclusive method) are over the runs of each side; `runs` "
            "lists each pair as [parent, change]. ops_failed and ops_attempted are summed over the runs of "
            "each side."
        ),
        "host": {k: host[k] for k in ("python", "numpy", "scipy", "nproc", "cpus_usable", "cpu")}
        | {"platform": platform.platform()},
        "src_lines": {side: src_lines(checkout) for side, checkout in checkouts.items()},
    }
    summaries = {w: summarize(r) for w, r in runs.items()}
    if claim:
        w, m = claim
        s = summaries[w][m]
        doc["claim"] = {
            "workload": w,
            "metric": m,
            "parent_median": s["parent"]["median"],
            "change_median": s["change"]["median"],
            "relative_change": s["relative_change"],
            "parent_iqr": s["parent"]["iqr"],
            "change_better_in_pairs": s["change_better_in_pairs"],
        }
    doc["workloads"] = summaries
    if args.heldout_seed is not None:
        held = {}
        for w in args.workloads:
            r = pair(checkouts, w, args.heldout_seed, args.seconds, True)
            held[w] = {side: {m: r[side]["metrics"][m]["value"] for m in METRICS} for side in ("parent", "change")}
            held[w]["ops_failed"] = {side: r[side]["failed"] for side in ("parent", "change")}
        doc["heldout"] = {"seed": args.heldout_seed, "workloads": held}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
