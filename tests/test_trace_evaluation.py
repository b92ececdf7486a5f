"""Localization traces read the grid's cache and reproduce the recorded numbers bit for bit.

``data/trace_reference.json`` holds, as ``repr`` strings, the ``trace.json``
of three small traces and the values of ``balance_form`` and
``rotation_lower_bound_check`` on four surfaces and both profiles, recorded
with the code that evaluated these on the full 3-d mesh (frame on every
node, field components twice per patch trace).  Evaluating them on the
(theta, z) nodes of the grid's cache must not move a single bit.

Regenerate (only when a change of the numbers is intended and documented)
with ``PYTHONPATH=src python tests/test_trace_evaluation.py``.
"""

import dataclasses
import gc
import json
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from shellrig import cli
from shellrig import fields as fl
from shellrig import geometry as geo
from shellrig import inequality as ineq
from shellrig import localization as loc
from shellrig import matrixops as mo
from shellrig import norms as nm

PATH = Path(__file__).parent / "data" / "trace_reference.json"
REFERENCE = json.loads(PATH.read_text())
TRACE = ["trace", "--surface", "sphere", "--h", "3e-2", "--amplitude", "1e-3", "--nt", "2", "--ntheta", "16", "--nz", "16"]
TRACES = {
    "trace shell random:1": ["--profile", "shell", "--field", "random:1"],
    "trace bump random:2": ["--profile", "bump", "--field", "random:2"],
    "trace bump ansatz": ["--profile", "bump", "--field", "ansatz"],
}
SURFACES = ("plate", "cylinder", "sphere", "pseudosphere")
PROFILES = ("shell", "bump")


def _reprs(obj):
    if isinstance(obj, dict):
        return {k: _reprs(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_reprs(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    return repr(obj)


def test_reference_covers_the_matrix():
    keys = set(TRACES)
    for name in SURFACES:
        for prof in PROFILES:
            keys |= {f"balance_form {name} {prof}", f"rotation_lower_bound_check {name} {prof}",
                     f"rotation_lower_bound_check {name} {prof} fixed offset"}
    assert set(REFERENCE) == keys


def _trace_values(key: str, out: Path) -> dict:
    """trace.json of one of TRACES, written into the empty directory ``out``."""
    assert cli.main([*TRACE, *TRACES[key], "--out", str(out)]) == 0
    return _reprs(json.loads((out / "trace.json").read_text()))


def _bound_values(name: str, prof: str) -> dict:
    """The reference entries of ``balance_form`` and ``rotation_lower_bound_check`` on one surface and profile."""
    s = geo.make_surface(name)
    h = 2e-2
    grid = nm.build_grid(geo.ThinDomain(s, geo.make_profile(prof, h, s)), (3, 12, 10))
    bal = ineq.balance_form(fl.random_smooth_field(6, 0.2, 4, s), grid, 2.0, 0.7)
    q = mo.random_rotation(np.random.default_rng(3))
    t0, t1, z0, z1 = s.domain
    rect = (t0, 0.5 * (t0 + t1), z0, z1)
    worst = loc.rotation_lower_bound_check(q, None, rect, grid, 2.0, h**0.5)
    fixed = loc.rotation_lower_bound_check(q, np.array([0.1, -0.2, 0.3]), rect, grid, 3.0, 1.0)
    return {
        f"balance_form {name} {prof}": _reprs(
            {k: getattr(bal, k) for k in ("field_norm", "dist_norm", "term_field", "term_dist")}
        ),
        f"rotation_lower_bound_check {name} {prof}": _reprs(
            {k: worst[k] for k in ("lhs", "rhs", "constant", "offset", "volume")}
        ),
        f"rotation_lower_bound_check {name} {prof} fixed offset": _reprs(
            {k: fixed[k] for k in ("lhs", "rhs", "constant", "volume")}
        ),
    }


@pytest.mark.parametrize("key", sorted(TRACES))
def test_trace_json_is_bit_identical(tmp_path, key):
    assert _trace_values(key, tmp_path) == REFERENCE[key]


@pytest.mark.parametrize("name", SURFACES)
@pytest.mark.parametrize("prof", PROFILES)
def test_balance_and_rotation_bound_are_bit_identical(name, prof):
    for key, values in _bound_values(name, prof).items():
        assert values == REFERENCE[key], key


def test_bump_trace_evaluates_each_grid_once(monkeypatch, tmp_path):
    calls = Counter()  # (traced function, field callable, grid's t) -> calls
    frames = []
    phase = ["cli"]

    def in_phase(name, fn):
        def wrapper(*args, **kwargs):
            phase[0] = name
            try:
                return fn(*args, **kwargs)
            finally:
                phase[0] = "cli"

        return wrapper

    def counted(name, fn):
        def wrapper(t, theta, z):
            calls[phase[0], name, id(t)] += 1
            return fn(t, theta, z)

        return wrapper

    random_field = fl.random_smooth_field

    def counted_field(*args, **kwargs):
        f = random_field(*args, **kwargs)
        return dataclasses.replace(
            f, components=counted("components", f.components), partials=counted("partials", f.partials)
        )

    frame = geo.ParamSurface.frame

    def recorded_frame(self, theta, z):
        frames.append(np.broadcast(theta, z).shape)
        return frame(self, theta, z)

    monkeypatch.setattr(fl, "random_smooth_field", counted_field)
    monkeypatch.setattr(geo.ParamSurface, "frame", recorded_frame)
    for name in ("patch_trace", "shell_to_domain_trace"):
        monkeypatch.setattr(loc, name, in_phase(name, getattr(loc, name)))

    assert cli.main([*TRACE, *TRACES["trace bump random:2"], "--out", str(tmp_path)]) == 0
    nt, nth, nz = json.loads((tmp_path / "config.json").read_text())["grid"]
    # the field is evaluated once per distinct grid: patch_trace evaluates the
    # domain grid, and the passage reuses that evaluation and evaluates only
    # its core-shell grid; the frame is evaluated once per trace, on the
    # (theta, z) nodes only, since the core-shell grid shares the domain
    # grid's plane geometry
    assert set(calls.values()) == {1}
    assert Counter((ph, name) for ph, name, _ in calls) == {
        ("patch_trace", "components"): 1,
        ("patch_trace", "partials"): 1,
        ("shell_to_domain_trace", "components"): 1,
        ("shell_to_domain_trace", "partials"): 1,
    }
    assert frames == [(nth, nz)]


def _trace_reprs(traced):
    if isinstance(traced, tuple):  # patch_trace: (per-patch traces, aggregate)
        return _reprs([[dataclasses.asdict(tr) for tr in traced[0]], dataclasses.asdict(traced[1])])
    return _reprs(dataclasses.asdict(traced))


def test_nodal_cache_follows_the_field():
    s = geo.make_surface("sphere")
    domain = geo.ThinDomain(s, geo.make_profile("bump", 3e-2, s))
    dec = loc.partition(domain, 0.5)
    resolution = (2, max(16, 4 * dec.m_theta), max(16, 4 * dec.m_z))
    grid = nm.build_grid(domain, resolution)
    a = fl.random_smooth_field(1, 1e-3, 4, s)
    b = fl.random_smooth_field(2, 1e-3, 4, s)
    calls = {
        "patch": lambda v, g: loc.patch_trace(v, dec, g, 2.0),
        "shell": lambda v, g: loc.shell_to_domain_trace(v, g, 2.0),
    }
    # A, then B, then A on one grid, each call checked against a fresh grid
    for kind, v in (("patch", a), ("shell", a), ("patch", b), ("shell", a), ("shell", b), ("patch", a)):
        got = _trace_reprs(calls[kind](v, grid))
        assert got == _trace_reprs(calls[kind](v, nm.build_grid(domain, resolution))), (kind, v.description)
        assert grid.memo["nodal"][0] is v


def test_nodal_cache_dies_with_the_trace(monkeypatch, tmp_path):
    held = []  # weak references to every grid, field and array the nodal cache saw
    nodal = loc._nodal

    def recorded(v, grid):
        out = nodal(v, grid)
        held.extend(weakref.ref(o) for o in (v, grid, *out))
        return out

    monkeypatch.setattr(loc, "_nodal", recorded)
    assert cli.main([*TRACE, *TRACES["trace bump random:2"], "--out", str(tmp_path)]) == 0
    gc.collect()
    assert len(held) == 3 * 5  # patch_trace, then the passage's domain and core grids
    assert [r() for r in held] == [None] * len(held)


if __name__ == "__main__":
    import tempfile

    ref = {}
    for key in TRACES:
        with tempfile.TemporaryDirectory() as tmp:
            ref[key] = _trace_values(key, Path(tmp))
    for name in SURFACES:
        for prof in PROFILES:
            ref.update(_bound_values(name, prof))
    PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
