"""Repeat benchmark runs and report the run-to-run spread of each metric.

    python3 perfbench/spread.py --seeds 10 --seconds 30 [--out perfbench/baseline.json]

Run it from the root of a source checkout.  For each workload it runs
``run.py`` once per seed (0 .. seeds-1, untraced) and, with ``--traced``,
once more traced.  Per end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance between
the quartiles as a share of the median; the same for the unscaled times and
the speed gauge that run.py prints beside them.  ``--out`` writes all of it,
with the runs' provenance, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads as wl

RUN = Path(__file__).resolve().parent / "run.py"
UNSCALED = ("wall_raw_s", "wall_raw_p75_s", "setup_raw_s", "gauge_s")


def one_run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    provenance = next(json.loads(line)["provenance"] for line in lines if line.startswith('{"provenance"'))
    printed = {}  # the "name: value unit" lines of UNSCALED
    for line in lines:
        name, _, rest = line.partition(": ")
        if name in UNSCALED:
            printed[name] = float(rest.split()[0])
    return json.loads(lines[-1]), provenance, printed


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=list(wl.NAMES), choices=wl.NAMES)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--traced", action="store_true", help="add one traced run per workload")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    report = {"runs_per_workload": args.seeds, "seconds": args.seconds, "workloads": {}}
    for name in args.workloads:
        results, unscaled, provenance = [], [], None
        for seed in range(args.seeds):
            result, provenance, printed = one_run(name, seed, args.seconds, trace=0)
            unscaled.append(printed)
            if not result["correct"]:
                raise SystemExit(f"{name} seed {seed}: {result['failed']} of {result['attempted']} operations failed")
            results.append(result)
        entry = {
            "provenance": {k: v for k, v in provenance.items() if k != "seed"},
            "ops_attempted": sum(r["attempted"] for r in results),
            "ops_failed": sum(r["failed"] for r in results),
            "end_to_end": {},
        }
        for metric, first in results[0]["metrics"].items():
            stats = summarize([r["metrics"][metric]["value"] for r in results])
            entry["end_to_end"][metric] = {"unit": first["unit"], **stats}
            print(f"{name:10s} {metric:12s} median {stats['median']:.6g} {first['unit']:3s} "
                  f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} spread {stats['spread']:.4f}", flush=True)
        entry["unscaled"] = {}
        for metric in UNSCALED:
            stats = summarize([u[metric] for u in unscaled])
            entry["unscaled"][metric] = {"unit": "s", **stats}
            print(f"{name:10s} {metric:14s} median {stats['median']:.6g} s   spread {stats['spread']:.4f}", flush=True)
        if args.traced:
            traced, _, _ = one_run(name, 0, args.seconds, trace=1)
            entry["per_layer_seed0"] = {k: v["value"] for k, v in traced["metrics"].items()}
        report["workloads"][name] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
