"""Per-patch localization numbers reproduce the recorded values bit for bit.

``data/patch_reference.json`` holds, as ``repr`` strings, every field of
every ``PatchTrace`` (one list per patch, in the order of ``PatchTrace
fields``) and the ``per_patch`` records of
``shell_to_domain_trace`` on four surfaces, two thicknesses and two norm
exponents, plus the ``trace.csv`` rows of small bump-profile traces.
``trace_reference.json`` pins only the aggregate ``trace.json``; this file
pins the per-patch path behind it.

Regenerate (only when a change of the numbers is intended and documented)
with ``PYTHONPATH=src python tests/test_patch_reference.py``.
"""

import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from shellrig import cli
from shellrig import fields as fl
from shellrig import geometry as geo
from shellrig import localization as loc
from shellrig import norms as nm

PATH = Path(__file__).parent / "data" / "patch_reference.json"
SURFACES = ("plate", "cylinder", "sphere", "pseudosphere")
H_VALUES = (1e-1, 5e-2)
P_VALUES = (2.0, 3.0)
FIELDS = [f.name for f in dataclasses.fields(loc.PatchTrace)]
TRACE = ["trace", "--surface", "sphere", "--h", "3e-2", "--profile", "bump", "--amplitude", "1e-3",
         "--nt", "2", "--ntheta", "16", "--nz", "16"]
CSV_TRACES = {
    "trace.csv bump random:2": ["--field", "random:2"],
    "trace.csv bump ansatz": ["--field", "ansatz"],
    "trace.csv bump random:4 p=3": ["--field", "random:4", "--p", "3"],
}


def _reprs(obj):
    if isinstance(obj, dict):
        return {k: _reprs(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_reprs(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    return repr(obj)


def _case_key(kind, name, h, p):
    return f"{kind} {name} h={h!r} p={p!r}"


def _cases():
    for name in SURFACES:
        s = geo.make_surface(name)
        for h in H_VALUES:
            domain = geo.ThinDomain(s, geo.make_profile("bump", h, s))
            dec = loc.partition(domain, 0.5)
            grid = nm.build_grid(domain, (2, max(12, 4 * dec.m_theta), max(12, 4 * dec.m_z)))
            v = fl.random_smooth_field(7, 0.2, 4, s)
            for p in P_VALUES:
                yield name, h, p, v, dec, grid, domain


def _patch_values(name, h, p, v, dec, grid, domain):
    traces, _ = loc.patch_trace(v, dec, grid, p)
    return [_reprs([getattr(tr, f) for f in FIELDS]) for tr in traces]


def _passage_values(name, h, p, v, dec, grid, domain):
    return _reprs(loc.shell_to_domain_trace(v, grid, p).per_patch)


def _csv_rows(out_dir, argv):
    assert cli.main([*TRACE, *argv, "--out", str(out_dir)]) == 0
    with open(out_dir / "trace.csv", newline="") as fh:
        return list(csv.reader(fh))


def _record(tmp_dir: Path) -> dict:
    ref = {"PatchTrace fields": FIELDS}
    for case in _cases():
        name, h, p = case[:3]
        ref[_case_key("patch_trace", name, h, p)] = _patch_values(*case)
        ref[_case_key("shell_to_domain_trace", name, h, p)] = _passage_values(*case)
    for key, argv in CSV_TRACES.items():
        ref[key] = _csv_rows(tmp_dir / key.replace(" ", "_").replace(":", "_"), argv)
    return ref


@pytest.fixture(scope="module")
def reference():
    return json.loads(PATH.read_text())


@pytest.fixture(scope="module")
def cases():
    return list(_cases())


def test_reference_covers_the_matrix(reference):
    assert reference["PatchTrace fields"] == FIELDS
    keys = {"PatchTrace fields", *CSV_TRACES}
    for name in SURFACES:
        for h in H_VALUES:
            for p in P_VALUES:
                keys |= {_case_key("patch_trace", name, h, p), _case_key("shell_to_domain_trace", name, h, p)}
    assert set(reference) == keys


def test_patch_traces_are_bit_identical(reference, cases):
    for case in cases:
        assert _patch_values(*case) == reference[_case_key("patch_trace", *case[:3])]


def test_passage_per_patch_is_bit_identical(reference, cases):
    for case in cases:
        assert _passage_values(*case) == reference[_case_key("shell_to_domain_trace", *case[:3])]


@pytest.mark.parametrize("key", sorted(CSV_TRACES))
def test_trace_csv_rows_are_bit_identical(reference, tmp_path, key):
    assert _csv_rows(tmp_path, CSV_TRACES[key]) == reference[key]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        ref = _record(Path(tmp))
    # one key per line keeps the file small and its diffs readable
    lines = [f"{json.dumps(k)}: {json.dumps(ref[k])}" for k in sorted(ref)]
    PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {PATH}", file=sys.stderr)
