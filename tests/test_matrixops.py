import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shellrig import matrixops as mo

RNG = np.random.default_rng(2024)


def test_dist_exact_values():
    assert mo.dist_SO3(np.eye(3)) == pytest.approx(0.0, abs=1e-14)
    assert mo.dist_SO3(np.diag([2.0, 1.0, 1.0])) == pytest.approx(1.0, abs=1e-12)
    assert mo.dist_SO3(np.diag([1.0, 1.0, -1.0])) == pytest.approx(2.0, abs=1e-12)


def test_dist_vanishes_on_rotations():
    q = mo.random_rotation(RNG, 50)
    assert mo.dist_SO3(q).max() < 1e-13


def test_dist_rejects_nonfinite():
    bad = np.eye(3).copy()
    bad[0, 0] = np.nan
    with pytest.raises(mo.NonFiniteMatrixError):
        mo.dist_SO3(bad)


def test_singular_values_match_numpy():
    f = RNG.normal(size=(300, 3, 3))
    mine = mo.singular_values_3x3(f)
    ref = np.linalg.svd(f, compute_uv=False)
    assert np.abs(mine - ref).max() < 1e-10


def test_jacobi_matches_numpy_eigh():
    f = RNG.normal(size=(200, 3, 3))
    b = np.swapaxes(f, 1, 2) @ f
    vals, vecs = mo.jacobi_eigh_3x3(b)
    ref = np.linalg.eigvalsh(b)[:, ::-1]
    assert np.abs(vals - ref).max() < 1e-10 * np.abs(ref).max()
    recon = np.einsum("nik,nk,njk->nij", vecs, vals, vecs)
    assert np.abs(recon - b).max() < 1e-10 * np.abs(b).max()


def test_brute_force_agreement_against_sampled_rotations():
    f = RNG.normal(size=(40, 3, 3))
    # force some negative determinants
    flip = np.linalg.det(f[:20]) > 0
    f[:20][flip] = -f[:20][flip]
    rots = mo.quasi_uniform_rotations(100_000)
    gap = np.abs(mo.brute_force_dist_SO3(f, rots) - mo.dist_SO3(f))
    assert gap.max() < 1e-2


def test_nearest_rotation_of_scaled_rotation():
    q = mo.random_rotation(RNG, 10)
    r = mo.nearest_rotation(3.0 * q)
    assert np.abs(r - q).max() < 1e-12


def test_nearest_rotation_small_skew_residual_symmetric():
    # residual of the polar factor is symmetric up to O(|skew|^3)
    w = RNG.normal(size=(3, 3)) * 1e-3
    f = np.eye(3) + 0.5 * (w - w.T)
    r = mo.nearest_rotation(f)
    resid = f - r
    assert np.abs(resid - resid.T).max() < 1e-8


def test_nearest_rotation_diagonal_case():
    assert np.abs(mo.nearest_rotation(np.diag([2.0, 1.0, 1.0])) - np.eye(3)).max() < 1e-12


def test_minimizer_consistency():
    f = RNG.normal(size=(200, 3, 3))
    pos = np.linalg.det(f) > 0
    r = mo.nearest_rotation(f[pos])
    gap = np.abs(np.linalg.norm(f[pos] - r, axis=(1, 2)) - mo.dist_SO3(f[pos]))
    assert gap.max() < 1e-10


def test_nearest_rotation_degenerate_flagged():
    with pytest.warns(RuntimeWarning):
        mo.nearest_rotation(np.diag([1.0, 1.0, -1.0]))


def test_left_right_rotation_invariance():
    f = RNG.normal(size=(100, 3, 3))
    q1 = mo.random_rotation(RNG, 100)
    q2 = mo.random_rotation(RNG, 100)
    d0 = mo.dist_SO3(f)
    d1 = mo.dist_SO3(np.einsum("nij,njk,nkl->nil", q1, f, q2))
    assert np.abs(d0 - d1).max() < 1e-10


def test_lipschitz_property():
    f = RNG.normal(size=(500, 3, 3))
    g = f + RNG.normal(size=(500, 3, 3)) * RNG.uniform(0, 2, (500, 1, 1))
    lhs = np.abs(mo.dist_SO3(f) - mo.dist_SO3(g))
    rhs = np.linalg.norm(f - g, axis=(1, 2))
    assert np.all(lhs <= rhs + 1e-10)


@settings(max_examples=100, deadline=None)
@given(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))
def test_dist_scale_bound(a, b, c):
    # distance never exceeds the rotation-free bound ||F|| + sqrt(3)
    f = np.diag([a, b, c])
    d = float(mo.dist_SO3(f))
    assert d <= np.linalg.norm(f) + np.sqrt(3.0) + 1e-9


def test_planar_identity_frobenius_convention():
    # rotations about a fixed axis act conformally in the orthogonal plane:
    # |(I - R)x| = |I - R|_F |x| / sqrt(2) for in-plane x
    rng = np.random.default_rng(7)
    for _ in range(1000):
        alpha = rng.uniform(-np.pi, np.pi)
        ca, sa = np.cos(alpha), np.sin(alpha)
        r = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
        x = np.array([rng.normal(), rng.normal(), 0.0])
        lhs = np.linalg.norm((np.eye(3) - r) @ x)
        rhs = np.linalg.norm(np.eye(3) - r) * np.linalg.norm(x) / np.sqrt(2.0)
        assert lhs == pytest.approx(rhs, abs=1e-12 * (1 + rhs))


def test_planar_factor_independent_of_x():
    rng = np.random.default_rng(8)
    alpha = rng.uniform(0.1, np.pi)
    ca, sa = np.cos(alpha), np.sin(alpha)
    r = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
    xs = rng.normal(size=(200, 2))
    factors = []
    for xy in xs:
        x = np.array([xy[0], xy[1], 0.0])
        factors.append(np.linalg.norm((np.eye(3) - r) @ x) / np.linalg.norm(x))
    assert np.std(factors) < 1e-12


def test_best_fit_all_equal():
    q = mo.random_rotation(RNG)
    samples = np.repeat(q[None], 7, axis=0)
    assert np.abs(mo.best_fit_rotation_L2(samples) - q).max() < 1e-12


def test_best_fit_of_rotation_and_transpose_is_identity():
    rng = np.random.default_rng(3)
    w = rng.normal(size=(3, 3)) * 0.2
    q = mo.nearest_rotation(np.eye(3) + 0.5 * (w - w.T))
    samples = np.stack([q, q.T])
    r = mo.best_fit_rotation_L2(samples)
    assert np.abs(r - np.eye(3)).max() < 1e-12
    resid = 0.5 * (q + q.T) - r
    assert np.abs(resid - resid.T).max() < 1e-12


def test_best_fit_sampled_global_optimality():
    rng = np.random.default_rng(4)
    q = mo.random_rotation(rng)
    samples = q[None] + rng.normal(size=(30, 3, 3)) * 0.1
    w = rng.uniform(0.5, 2.0, 30)
    r = mo.best_fit_rotation_L2(samples, w)

    def objective(rot):
        return np.sum(w * np.linalg.norm(samples - rot, axis=(1, 2)) ** 2)

    base = objective(r)
    trials = mo.random_rotation(rng, 10_000)
    best_trial = min(objective(t) for t in trials)
    assert base <= best_trial + 1e-12


def test_best_fit_requires_positive_weight():
    with pytest.raises(ValueError):
        mo.best_fit_rotation_L2(np.stack([np.eye(3)]), np.array([0.0]))


def test_quasi_uniform_rotations_deterministic_and_valid():
    a = mo.quasi_uniform_rotations(512, seed=5)
    b = mo.quasi_uniform_rotations(512, seed=5)
    assert np.array_equal(a, b)
    c = mo.quasi_uniform_rotations(512, seed=6)
    assert not np.array_equal(a, c)
    eye = np.einsum("nij,nkj->nik", a, a)
    assert np.abs(eye - np.eye(3)).max() < 1e-12
    assert np.abs(mo.det3(a) - 1.0).max() < 1e-12


def test_dist_memory_is_bounded_and_blocking_is_invisible():
    # the temporaries of dist_SO3 must not grow with the batch: at 200k
    # matrices the traced peak stays within the output plus a fixed 8 MB
    f = np.eye(3) + 1e-2 * np.random.default_rng(7).normal(size=(200_000, 3, 3))
    tracemalloc.start()
    try:
        d = mo.dist_SO3(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < d.nbytes + 8 * 2**20
    # blocks do not change a bit: any slicing of the batch gives the same values
    parts = [mo.dist_SO3(f[lo : lo + 3001]) for lo in range(0, f.shape[0], 3001)]
    assert np.array_equal(d, np.concatenate(parts))
    assert np.array_equal(mo.dist_SO3(f.reshape(400, 500, 3, 3)), d.reshape(400, 500))
