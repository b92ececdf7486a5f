"""The 3x3 spectral kernels reproduce the recorded values bit for bit.

``data/dist_so3_reference.json`` holds, as ``repr`` strings, the output of
``dist_SO3``, the singular values inside it (``_singular_values``, stored
under the key ``singular_values_3x3``) and ``sym_eigvals_3x3`` on one fixed
batch that spans more than two evaluation blocks of ``dist_SO3``. The batch
covers I + A for general and near-skew A at |A| = 1e-2 .. 1e-8, reflections,
the zero matrix, rank-deficient matrices, repeated singular values and
random general matrices.

Regenerate (only when a change of the numbers is intended and documented)
with ``PYTHONPATH=src python tests/test_dist_so3_reference.py``.
"""

import json
import sys
from pathlib import Path

import numpy as np

from shellrig import matrixops as mo

PATH = Path(__file__).parent / "data" / "dist_so3_reference.json"
BATCH = 8500


def batch() -> np.ndarray:
    rng = np.random.default_rng(6)
    parts = []
    for size in (1e-2, 1e-4, 1e-6, 1e-8):
        a = rng.normal(size=(500, 3, 3))
        parts.append(np.eye(3) + size * a / np.linalg.norm(a, axis=(1, 2))[:, None, None])
        skew = a - np.swapaxes(a, 1, 2)
        near = skew + 1e-3 * rng.normal(size=(500, 3, 3))
        parts.append(np.eye(3) + size * near / np.linalg.norm(near, axis=(1, 2))[:, None, None])
    q = mo.random_rotation(rng, 1000)
    parts.append(q * np.array([1.0, 1.0, -1.0]))  # reflections
    parts.append(rng.normal(size=(400, 3, 3)) * np.array([1.0, 1.0, -1.0]))
    parts.append(np.zeros((10, 3, 3)))
    u = rng.normal(size=(400, 3, 1))
    v = rng.normal(size=(400, 1, 3))
    parts.append(u @ v)  # rank 1
    w = rng.normal(size=(400, 3, 2))
    parts.append(w @ rng.normal(size=(400, 2, 3)))  # rank 2
    r1, r2 = mo.random_rotation(rng, 800), mo.random_rotation(rng, 800)
    sv = np.array([[2.0, 2.0, 0.5], [1.5, 0.3, 0.3], [0.7, 0.7, 0.7], [1.0, 1.0, 1e-9]])
    s = np.repeat(sv, 200, axis=0)
    sign = np.where(np.arange(800) % 2 == 0, 1.0, -1.0)
    parts.append((r1 * s[:, None, :]) @ r2 * sign[:, None, None])  # repeated singular values
    f = np.concatenate(parts)
    rest = BATCH - f.shape[0]
    return np.concatenate([f, rng.normal(size=(rest, 3, 3)) * rng.uniform(0.01, 100.0, size=(rest, 1, 1))])


def _values() -> dict:
    f = batch()
    b = np.swapaxes(f, -1, -2) @ f
    return {
        "dist_SO3": [repr(x) for x in mo.dist_SO3(f).tolist()],
        "singular_values_3x3": [repr(x) for x in np.stack(mo._singular_values(f), -1).ravel().tolist()],
        "sym_eigvals_3x3": [repr(x) for x in mo.sym_eigvals_3x3(b).ravel().tolist()],
    }


def test_batch_spans_more_than_two_blocks():
    assert batch().shape == (BATCH, 3, 3)
    assert BATCH > 2 * mo._DIST_BLOCK


def test_kernels_reproduce_reference_bits():
    ref = json.loads(PATH.read_text())
    got = _values()
    for name in ("dist_SO3", "singular_values_3x3", "sym_eigvals_3x3"):
        assert got[name] == ref[name], name


if __name__ == "__main__":
    PATH.write_text(json.dumps(_values(), indent=0) + "\n")
    sys.exit(0)
