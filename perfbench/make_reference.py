"""Write reference.json: the outputs the benchmark checks every call against.

    python3 perfbench/make_reference.py

Run it from the root of a source checkout.  It runs each workload's calls
once (every audit field seed) and stores the sweep (h, ratio) rows and the
trace.json scalars.  Regenerate it only when a change of the numbers is
intended, and say so in the change.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import workloads as wl


def reference_outputs(cli, workload: wl.Workload, scratch: Path) -> list:
    outputs = []
    for j, argv in enumerate(workload.calls):
        out = scratch / f"{workload.ref_key}-{j}"
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main([*argv, "--out", str(out)])
        if status != 0 or not wl.verdicts_pass(out):
            raise SystemExit(f"{' '.join(argv)}: exit {status}, verdicts not all PASS")
        outputs.append(wl.outputs(argv, out))
    return outputs


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    from shellrig import cli

    runs = [wl.make_workload("battery", 0), wl.make_workload("sharpness", 0)]
    runs += [wl.make_workload("audit", seed) for seed in range(wl.AUDIT_SEEDS)]
    reference = {}
    with tempfile.TemporaryDirectory() as scratch:
        for workload in runs:
            reference[workload.ref_key] = reference_outputs(cli, workload, Path(scratch))
    wl.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {wl.REFERENCE} ({len(reference)} entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
