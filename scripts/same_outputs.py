"""Run a fixed set of CLI calls in two checkouts and compare their outputs byte for byte.

    python scripts/same_outputs.py --parent ../parent-checkout --change . --out same.json

Each checkout is a source tree with ``src/shellrig``.  For every argv of
``ARGVS`` the script runs ``python -m shellrig.cli ARGV --out DIR`` in the
parent and then in the change, one run at a time, with ``PYTHONPATH=src``
and ``OPENBLAS_NUM_THREADS=1``.  Both runs write into the same (emptied)
directory, so a path echoed on stdout does not differ.  It compares the exit
codes, stdout and every file under DIR byte for byte, and prints one line
per argv: ``same`` or the first difference.  The exit status is 0 when every
argv agrees, 1 on any difference, and 2 on a usage error (a checkout without
``src/shellrig``).  ``--out`` writes the record as JSON: the argvs, and per
argv the exit code, the files compared and the first difference (null when
there is none).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

# the battery, the sharpness sweeps, the three audit traces, best-fit and zero-offset
# sweeps, the Korn sweeps, p = 3, a rigid field, a run that fails (exit 1), and the
# gradient check and doubling runs, which build thin domains and surfaces outside a sweep,
# the identity field, whose R = I comes from its motion and whose reports are degenerate-exact,
# a trace on a uniform shell, whose fields are evaluated on an (nt, 1, 1) t axis, and a
# best-fit rigid sweep on a bump, whose frame is curved, t varies per column and grids split into slabs
ARGVS = (
    "sweep --surface sphere --field random --seeds 20 --h-min 1e-3 --h-max 1e-1 --num-h 4 --nt 4 --ntheta 8 --nz 8",
    "sweep --surface sphere --field ansatz --p 2 --h-min 1e-3 --h-max 1e-1 --num-h 4 --nt 4 --ntheta 32 --nz 16",
    "trace --surface sphere --profile bump --field random:5 --amplitude 1e-3 --gamma 0.5 --h 3e-2 --nt 2 --ntheta 16 "
    "--nz 16",
    "trace --surface sphere --profile bump --field random:5 --amplitude 1e-3 --gamma 0.5 --h 1e-2 --nt 2 --ntheta 16 "
    "--nz 16",
    "trace --surface sphere --profile bump --field random:5 --amplitude 1e-3 --gamma 0.5 --h 3e-3 --nt 2 --ntheta 16 "
    "--nz 16",
    "sweep --num-h 9 --nt 16 --ntheta 128 --nz 128",
    "sweep --field random --seeds 20 --num-h 9 --nt 6 --ntheta 48 --nz 48",
    "sweep --field ansatz --rotation-mode best-fit --num-h 6 --nt 6 --ntheta 64 --nz 48",
    "sweep --field random --rotation-mode best-fit --seeds 6 --num-h 5 --nt 6 --ntheta 48 --nz 48",
    "sweep --surface pseudosphere --profile bump --field random:2 --rotation-mode best-fit --offset-mode zero "
    "--num-h 5 --nt 4 --ntheta 64 --nz 40",
    "korn-sweep --field ansatz --num-h 6 --nt 8 --ntheta 64 --nz 64",
    "korn-sweep --field random --seeds 5 --num-h 5 --nt 6 --ntheta 48 --nz 48",
    "sweep --surface cylinder --field ansatz --p 3 --eps-rule h2 --num-h 5 --nt 6 --ntheta 64 --nz 32",
    "sweep --surface plate --field rigid:2 --num-h 4 --nt 6 --ntheta 48 --nz 48",
    "sweep --field random:1 --amplitude 1e300 --num-h 4 --nt 6 --ntheta 48 --nz 48",
    "check-gradient --points 40 --seed 3",
    "doubling --surface pseudosphere --centers 4 --num-r 3 --budget 40000 --seed 2",
    "sweep --surface sphere --field identity --num-h 4 --nt 4 --ntheta 8 --nz 8",
    "trace --surface cylinder --profile shell --field random:7 --amplitude 1e-3 --gamma 0.5 --h 1e-2 --nt 2 "
    "--ntheta 16 --nz 16",
    "sweep --surface sphere --profile bump --field rigid:5 --rotation-mode best-fit --num-h 4 --nt 6 --ntheta 48 "
    "--nz 48",
)


def run_cli(checkout: Path, argv: list[str], out: Path) -> dict:
    """Exit code, stdout and the bytes of every file under ``out`` of one CLI run in ``checkout``."""
    env = os.environ | {"PYTHONPATH": "src", "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "shellrig.cli", *argv, "--out", str(out)],
        cwd=checkout, env=env, capture_output=True, timeout=1800,
    )
    files = {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    return {"exit": proc.returncode, "stdout": proc.stdout, "files": files}


def first_difference(parent: dict, change: dict) -> str | None:
    """The first of exit code, stdout and files (by name) in which two runs differ, or None."""
    if parent["exit"] != change["exit"]:
        return f"exit code {parent['exit']} (parent) vs {change['exit']} (change)"
    if parent["stdout"] != change["stdout"]:
        return "stdout"
    for name in sorted(parent["files"].keys() | change["files"].keys()):
        if name not in change["files"]:
            return f"{name} written by the parent only"
        if name not in parent["files"]:
            return f"{name} written by the change only"
        if parent["files"][name] != change["files"][name]:
            return name
    return None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--out", type=Path, help="write the record here as JSON")
    args = ap.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, checkout in checkouts.items():
        if not (checkout / "src" / "shellrig").is_dir():
            ap.error(f"--{side} {checkout} is not a checkout (no src/shellrig)")

    results = []
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        for line in ARGVS:
            runs = {}
            for side, checkout in checkouts.items():
                runs[side] = run_cli(checkout, line.split(), out)
                shutil.rmtree(out, ignore_errors=True)
            diff = first_difference(runs["parent"], runs["change"])
            print(f"{'same' if diff is None else 'DIFFERS in ' + diff}: {line}", flush=True)
            results.append({"argv": line, "exit": runs["parent"]["exit"],
                            "files": sorted(runs["parent"]["files"]), "difference": diff})
    same = all(r["difference"] is None for r in results)
    if args.out:
        doc = {
            "note": (
                "each argv run at the parent and at the change (`python -m shellrig.cli ARGV --out DIR`, "
                "PYTHONPATH=src, OPENBLAS_NUM_THREADS=1, one run at a time, scripts/same_outputs.py); exit "
                "codes, stdout and every file under DIR compared byte for byte"
            ),
            "same": same,
            "argv": list(ARGVS),
            "runs": results,
        }
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if same else 1


if __name__ == "__main__":
    raise SystemExit(main())
