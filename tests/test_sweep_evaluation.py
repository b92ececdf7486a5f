"""Sweeps evaluate each report once and reproduce the recorded rows bit for bit.

``data/sweep_rows_reference.json`` holds the rows of a small config matrix
as ``repr`` strings, recorded with the sweep code that built one grid per
battery seed and evaluated every field three times per report.  Sharing the
grid and its cached geometry must not move a single bit.

Regenerate (only when a change of the numbers is intended and documented)
with ``PYTHONPATH=src python tests/test_sweep_evaluation.py``.
"""

import dataclasses
import json
import weakref
from collections import Counter
from pathlib import Path

import pytest

from shellrig import experiments as ex
from shellrig import fields as fl
from shellrig import geometry as geo
from shellrig import inequality as ineq
from shellrig import norms as nm

PATH = Path(__file__).parent / "data" / "sweep_rows_reference.json"
REFERENCE = json.loads(PATH.read_text())
BASE = dict(num_h=4, h_min=1e-2, h_max=1e-1, nt=3, ntheta=12, nz=10, adaptive_theta=False, seeds=3)
FIELDS = ("identity", "rigid:1", "random:3", "ansatz", "random")
KEYS = {f"sweep {f} {r} {o}" for f in FIELDS for r in ("identity", "best-fit") for o in ("mean", "zero")}
KEYS |= {"korn ansatz", "korn random"}


def _config_of(key: str):
    kind, field, *modes = key.split()
    if kind == "korn":
        return ex.korn_sweep, ex.SweepConfig(field=field, **BASE)
    rotation, offset = modes
    return ex.run_sweep, ex.SweepConfig(field=field, rotation_mode=rotation, offset_mode=offset, **BASE)


def _rows(key: str) -> list:
    sweep, config = _config_of(key)
    return [{k: repr(v) for k, v in row.items()} for row in sweep(config).rows]


def test_reference_covers_the_matrix():
    assert set(REFERENCE) == KEYS


@pytest.mark.parametrize("key", sorted(REFERENCE))
def test_rows_are_bit_identical(key):
    assert _rows(key) == REFERENCE[key]


@pytest.mark.parametrize(
    "sweep, report", [(ex.run_sweep, "interpolation_sides"), (ex.korn_sweep, "korn_linear_sides")]
)
def test_each_report_evaluates_its_field_once(monkeypatch, sweep, report):
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    random_field = fl.random_smooth_field

    def counted_field(*args, **kwargs):
        counts["draws"] += 1
        f = random_field(*args, **kwargs)
        return dataclasses.replace(
            f, components=counted("components", f.components), partials=counted("partials", f.partials)
        )

    monkeypatch.setattr(fl, "random_smooth_field", counted_field)
    monkeypatch.setattr(nm, "build_grid", counted("build_grid", nm.build_grid))
    monkeypatch.setattr(geo.ParamSurface, "frame", counted("frame", geo.ParamSurface.frame))
    monkeypatch.setattr(ineq, report, counted("reports", getattr(ineq, report)))

    res = sweep(ex.SweepConfig(field="random", num_h=4, seeds=3, h_min=1e-2, h_max=1e-1,
                               nt=4, ntheta=8, nz=8))
    assert len(res.rows) == 4
    # 3 seeds x 4 h: the seeds are drawn once per sweep as one stacked field,
    # and each h makes one report call, one field evaluation and one grid for
    # all three seeds; the resolution does not follow h, so the frame on the
    # (theta, z) nodes is evaluated once per sweep and every grid shares it
    assert counts == {"draws": 1, "reports": 4, "components": 4, "partials": 4, "build_grid": 4, "frame": 1}


def _counted_planes(monkeypatch):
    """Record, at each ``ParamSurface.nodes`` call, how many planes it has built are alive with the new one."""
    planes, alive_at_build = [], []
    nodes = geo.ParamSurface.nodes

    def counted(self, theta, z):
        out = nodes(self, theta, z)
        planes.append(weakref.ref(out))
        alive_at_build.append(sum(ref() is not None for ref in planes))
        return out

    monkeypatch.setattr(geo.ParamSurface, "nodes", counted)
    return alive_at_build


def test_threaded_battery_shares_one_plane_and_keeps_the_serial_bits(monkeypatch):
    cfg = dict(field="random", seeds=20, num_h=4, h_min=1e-3, h_max=1e-1, nt=4, ntheta=8, nz=8)
    serial = ex.run_sweep(ex.SweepConfig(threads=1, **cfg))
    alive_at_build = _counted_planes(monkeypatch)
    threaded = ex.run_sweep(ex.SweepConfig(threads=4, **cfg))
    assert [{k: repr(v) for k, v in row.items()} for row in threaded.rows] == [
        {k: repr(v) for k, v in row.items()} for row in serial.rows
    ]
    assert alive_at_build == [1]  # one plane, built before any h ran


def test_adaptive_ansatz_sweep_builds_one_plane_per_h_and_keeps_one_alive(monkeypatch):
    alive_at_build = _counted_planes(monkeypatch)
    res = ex.run_sweep(ex.SweepConfig(field="ansatz", num_h=4, h_min=1e-3, h_max=1e-1, nt=4, ntheta=32, nz=16))
    # ntheta follows h, so each h's grid evaluates its own plane, and the grid
    # of the h before is gone by then
    assert len({row["grid_ntheta"] for row in res.rows}) == 4
    assert alive_at_build == [1, 1, 1, 1]


def test_threaded_adaptive_sweep_keeps_the_serial_bits():
    # ntheta follows h, so the threads' grids replace the plane their surface keeps
    cfg = dict(field="ansatz", num_h=4, h_min=1e-3, h_max=1e-1, nt=4, ntheta=32, nz=16)
    serial, threaded = (ex.run_sweep(ex.SweepConfig(threads=n, **cfg)) for n in (1, 4))
    assert len({row["grid_ntheta"] for row in serial.rows}) == 4
    assert [{k: repr(v) for k, v in row.items()} for row in threaded.rows] == [
        {k: repr(v) for k, v in row.items()} for row in serial.rows
    ]


if __name__ == "__main__":
    PATH.write_text(json.dumps({key: _rows(key) for key in KEYS}, indent=1, sort_keys=True))
