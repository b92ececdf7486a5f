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
    mine = np.stack(mo._singular_values(f), -1)
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


@pytest.mark.parametrize("p,q", [(0, 1), (0, 2), (1, 2)])
def test_jacobi_rotates_entries_between_equal_diagonal_entries(p, q):
    # a_pp == a_qq makes theta 0, where np.sign gives 0; the entry a_pq must
    # still be turned away (by 45 degrees), not dropped
    b = np.diag([1.0, 1.0, 1.0])
    b[p, q] = b[q, p] = 0.5
    vals, vecs = mo.jacobi_eigh_3x3(b)
    assert np.abs(vals - np.linalg.eigvalsh(b)[::-1]).max() < 1e-14
    assert np.abs(np.einsum("ik,k,jk->ij", vecs, vals, vecs) - b).max() < 1e-14
    # a symmetric positive-definite matrix is its own polar stretch: its
    # nearest rotation is I, at the distance dist_SO3 gives
    f = np.stack([b, 3.0 * b, np.eye(3) - 1.8 * (b - np.eye(3)), np.diag([2.0, 2.0, 2.0]) + 0.7 * (b - np.eye(3))])
    r = mo.nearest_rotation(f)
    assert np.abs(r - np.eye(3)).max() < 1e-14
    assert np.abs(np.linalg.norm(f - r, axis=(-2, -1)) - mo.dist_SO3(f)).max() < 1e-14


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


# the best-fit rotation of a sample is the nearest rotation to its (weighted) mean


def test_best_fit_all_equal():
    q = mo.random_rotation(RNG)
    samples = np.repeat(q[None], 7, axis=0)
    assert np.abs(mo.nearest_rotation(samples.mean(axis=0)) - q).max() < 1e-12


def test_best_fit_of_rotation_and_transpose_is_identity():
    rng = np.random.default_rng(3)
    w = rng.normal(size=(3, 3)) * 0.2
    q = mo.nearest_rotation(np.eye(3) + 0.5 * (w - w.T))
    samples = np.stack([q, q.T])
    r = mo.nearest_rotation(samples.mean(axis=0))
    assert np.abs(r - np.eye(3)).max() < 1e-12
    resid = 0.5 * (q + q.T) - r
    assert np.abs(resid - resid.T).max() < 1e-12


def test_best_fit_sampled_global_optimality():
    rng = np.random.default_rng(4)
    q = mo.random_rotation(rng)
    samples = q[None] + rng.normal(size=(30, 3, 3)) * 0.1
    w = rng.uniform(0.5, 2.0, 30)
    r = mo.nearest_rotation(np.einsum("n,nij->ij", w, samples) / w.sum())

    def objective(rot):
        return np.sum(w * np.linalg.norm(samples - rot, axis=(1, 2)) ** 2)

    base = objective(r)
    trials = mo.random_rotation(rng, 10_000)
    best_trial = min(objective(t) for t in trials)
    assert base <= best_trial + 1e-12


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
    # matrices the traced peak stays within the output plus a fixed 8 MB,
    # so neither storage is copied whole (a copy takes 14.4 MB)
    f = np.eye(3) + 1e-2 * np.random.default_rng(7).normal(size=(200_000, 3, 3))
    for g in (f, _component_major(f)):
        tracemalloc.start()
        try:
            d = mo.dist_SO3(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < d.nbytes + 8 * 2**20
    # blocks do not change a bit: any slicing of the batch gives the same values
    parts = [mo.dist_SO3(f[lo : lo + 3001]) for lo in range(0, f.shape[0], 3001)]
    assert np.array_equal(d, np.concatenate(parts))
    assert np.array_equal(mo.dist_SO3(f.reshape(400, 500, 3, 3)), d.reshape(400, 500))


def _gram_families(n: int, rng: np.random.Generator):
    """Stacks of n 3x3 matrices of the kinds whose f^T f the kernels form."""
    eye = np.eye(3)
    for scale in (1e-2, 1e-4, 1e-6, 1e-8):
        yield f"near-identity {scale:g}", eye + scale * rng.normal(size=(n, 3, 3))
    yield "gaussian", rng.normal(size=(n, 3, 3))
    yield "log-uniform 1e-30..1e30", rng.normal(size=(n, 3, 3)) * 10.0 ** rng.uniform(-30, 30, size=(n, 3, 3))
    w = rng.normal(size=(n, 3))
    skew = np.zeros((n, 3, 3))
    skew[:, 0, 1], skew[:, 0, 2], skew[:, 1, 2] = -w[:, 2], w[:, 1], -w[:, 0]
    yield "identity + skew", eye + skew - np.swapaxes(skew, 1, 2)
    u, v = rng.normal(size=(2, n, 3, 2))
    yield "rank 1", u[..., :1] * v[:, None, :, 0]
    yield "rank 2", u @ np.swapaxes(v, 1, 2)
    g = rng.normal(size=(n, 3, 3))
    g[np.linalg.det(g) > 0, 2] *= -1.0
    yield "negative determinant", g


def _entry_families(n: int, rng: np.random.Generator):
    """``_gram_families``, then mixed magnitudes, exact zeros and -0.0."""
    yield from _gram_families(n, rng)
    f = rng.normal(size=(n, 3, 3)) * 10.0 ** rng.uniform(-8, 3, size=(n, 3, 3))
    yield "log-uniform 1e-8..1e3", f
    mask = rng.uniform(size=(n, 3, 3))
    f = f.copy()
    f[mask < 0.3], f[mask > 0.7] = 0.0, -0.0
    yield "exact zeros and -0.0", f
    perm = np.zeros((n, 3, 3))
    cols = rng.permuted(np.tile([0, 1, 2], (n, 1)), axis=1)
    perm[np.arange(n)[:, None], [0, 1, 2], cols] = rng.choice([-1.0, 1.0], size=(n, 3))
    yield "signed permutations", perm
    yield "signed permutations with -0.0", np.where(perm == 0.0, -0.0, perm)
    yield "all -0.0", np.full((n, 3, 3), -0.0)


def _component_major(f: np.ndarray) -> np.ndarray:
    """f stored component-major: the (..., 3, 3) view of a C-contiguous (3, 3, ...) copy."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(f, (-2, -1), (0, 1))), (0, 1), (-2, -1))


@pytest.mark.parametrize("n", [1, 9, 552, 4096])
def test_gram_entries_have_the_bits_of_the_product_on_either_storage(n):
    # dist_SO3 and svd3 form f^T f from np.vecdot of column views; it must round
    # as the matmul of C-contiguous matrices does, on every storage, zero signs included
    rng = np.random.default_rng(n + 1)
    for name, f in _entry_families(n, rng):
        storages = {
            "node-major": f,
            "component-major": _component_major(f),
            "unit-stride columns": np.swapaxes(np.ascontiguousarray(np.swapaxes(f, -1, -2)), -1, -2),
            "rows reversed": f[:, ::-1],
            "one row broadcast": np.broadcast_to(f[:, :1], f.shape),
            "unbatched": f[0],
        }
        for storage, g in storages.items():
            c = np.ascontiguousarray(g)
            ref = np.swapaxes(c, -1, -2) @ c
            b = mo._gram_entries(np.moveaxis(g, (-2, -1), (0, 1)))
            for i in range(3):
                for j in range(3):
                    assert b[j][i] is b[i][j]
                    assert np.array_equal(b[i][j].view(np.int64), ref[..., i, j].view(np.int64)), (name, storage, i, j)


@pytest.mark.parametrize("shape", [(1,), (552,), (2 * 4096 + 5,), (4, 9, 17)])
def test_dist_of_component_major_storage_is_dist_of_its_copy(shape):
    # the reports' gradients are component-major; blocks slice that storage in place
    rng = np.random.default_rng(len(shape) + shape[0])
    n = int(np.prod(shape))
    for name, f in _entry_families(n, rng):
        g = _component_major(f.reshape(shape + (3, 3)))
        d = mo.dist_SO3(g)
        assert d.shape == shape
        assert np.array_equal(d, mo.dist_SO3(np.ascontiguousarray(g))), name

