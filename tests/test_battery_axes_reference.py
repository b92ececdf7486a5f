"""Battery sweeps reproduce the recorded rows bit for bit.

``data/battery_axes_reference.json`` holds, as ``repr`` strings, every row
of four small validity batteries, recorded with the sweep code that
evaluated the random field on every node and took each L^p norm with its
own ``lp_norm`` call.  The cases sit on the boundaries of the paths a
battery can take:

- ``p3 cylinder``: p = 3 on the cylinder, where one sum over a seed stack
  instead of one per seed moves a last bit;
- ``bump best-fit``: a bump profile, whose columns hold different t nodes,
  with the best-fit rotation;
- ``korn pseudosphere``: the linearized sides on the pseudosphere;
- ``modes 9``: 9 modes, which ``fields._mode_sum`` adds pairwise.

Regenerate (only when a change of the numbers is intended and documented)
with ``PYTHONPATH=src python tests/test_battery_axes_reference.py``.
"""

import json
import sys
from pathlib import Path

import pytest

from shellrig import experiments as ex

PATH = Path(__file__).parent / "data" / "battery_axes_reference.json"
BASE = dict(field="random", seeds=20, num_h=4, nt=4, ntheta=8, nz=8)
CASES = {
    "p3 cylinder": (ex.run_sweep, dict(surface="cylinder", p=3.0)),
    "bump best-fit": (ex.run_sweep, dict(profile="bump", rotation_mode="best-fit")),
    "korn pseudosphere": (ex.korn_sweep, dict(surface="pseudosphere")),
    "modes 9": (ex.run_sweep, dict(modes=9)),
}


def _rows(key: str) -> list[dict]:
    sweep, cfg = CASES[key]
    rows = sweep(ex.SweepConfig(**{**BASE, **cfg})).rows
    return [{k: repr(v) for k, v in row.items()} for row in rows]


def test_reference_covers_the_cases():
    assert set(json.loads(PATH.read_text())) == set(CASES)


@pytest.mark.parametrize("key", sorted(CASES))
def test_battery_rows_are_bit_identical(key):
    assert _rows(key) == json.loads(PATH.read_text())[key]


if __name__ == "__main__":
    PATH.write_text(json.dumps({key: _rows(key) for key in CASES}, indent=0, sort_keys=True) + "\n")
    sys.exit(0)
