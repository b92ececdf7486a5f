"""The frame contractions equal the einsum formulas they replaced, bit for bit.

The references below are the einsum expressions that the x -> x map
(``SurfaceNodes.identity``: its frame components and partials), the M v
products of ``inequality._residual`` and ``localization`` (``geometry.matvec``),
the E^T R E term of ``interpolation_sides`` and the E g E^T of
``localization._nodal`` and ``inequality._best_fit_rotation``
(``matrixops.conjugate_3x3``) used before they were written as explicit sums.
"""

import itertools

import numpy as np
import pytest

from shellrig import geometry as geo
from shellrig import matrixops as mo
from shellrig import norms as nm

SURFACES = ("plate", "cylinder", "sphere", "pseudosphere")


def _in_frame_einsum(nodes, v):
    return np.einsum("...ik,...i->...k", nodes.frame, v)


def _identity_partials_einsum(nodes, t, x):
    t = np.asarray(t, dtype=float)
    e = nodes.frame
    c = nodes.coeffs
    dp_th = (c.a_theta * (1.0 + t * c.kappa_theta))[..., None] * e[..., 1]
    dp_z = (c.a_z * (1.0 + t * c.kappa_z))[..., None] * e[..., 2]
    out = np.empty(x.shape + (3,))
    out[..., 0] = _in_frame_einsum(nodes, e[..., 0])
    out[..., 1] = _in_frame_einsum(nodes, dp_th) + np.einsum("...ik,...i->...k", nodes.d_theta, x)
    out[..., 2] = _in_frame_einsum(nodes, dp_z) + np.einsum("...ik,...i->...k", nodes.d_z, x)
    return out


@pytest.fixture(params=[(s, p) for s in SURFACES for p in geo.PROFILES], ids=lambda sp: "-".join(sp))
def grid(request):
    name, profile = request.param
    s = geo.make_surface(name)
    domain = geo.ThinDomain(s, geo.make_profile(profile, 5e-2, s))
    return nm.build_grid(domain, (3, 17, 11))


def _same(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a, b)


def _matvec_einsum(m, v):
    return np.einsum("...ij,...j->...i", m, v)


def _mixed(rng, shape):
    """Gaussian entries scaled by 10^u, u uniform in [-8, 3] per entry."""
    return rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 3, size=shape)


def test_identity_map_matches_einsum(grid):
    nodes = grid.nodes
    for t in (grid.t, grid.t_axis, grid.t[0], np.zeros(grid.resolution[1:]), 0.0):
        x = nodes.point(t)
        ident = nodes.identity(t)
        _same(ident.points, x)
        _same(ident.components, _in_frame_einsum(nodes, x))
        _same(ident.partials, _identity_partials_einsum(nodes, np.asarray(t, dtype=float), x))
        assert all(a.flags.c_contiguous for a in ident)


def test_grid_identity_is_the_fused_map(grid):
    ident = grid.identity
    _same(ident.points, grid.nodes.point(grid.t))
    _same(ident.components, _in_frame_einsum(grid.nodes, ident.points))
    _same(ident.partials, _identity_partials_einsum(grid.nodes, grid.t, ident.points))


def test_matvec_matches_einsum_on_every_layout_it_replaces(grid):
    # the layouts of inequality._residual and localization.patch_trace /
    # rotation_lower_bound_check: the frame against nodal and seed-stacked
    # vectors, gathered per-node rotations and a lone R against x
    rng = np.random.default_rng(11)
    frame = grid.nodes.frame
    x = grid.identity.points
    comp = _mixed(rng, grid.resolution + (3,))
    stacked = _mixed(rng, (5,) + grid.resolution + (3,))
    rot = mo.random_rotation(rng, 6)
    ids = rng.integers(0, 6, size=grid.resolution)
    cases = [(frame, comp), (frame, stacked), (frame, x), (rot[ids], x), (rot[ids], comp)]
    cases += [(r, x) for r in rot] + [(np.eye(3), x), (_mixed(rng, (3, 3)), stacked)]
    for m, v in cases:
        out = geo.matvec(m, v)
        assert out.flags.c_contiguous
        _same(out, _matvec_einsum(m, v))


@pytest.mark.parametrize("batch", [(), (1,), (7,), (4, 9), (2, 6, 6)])
def test_matvec_matches_einsum_on_mixed_magnitudes(batch):
    rng = np.random.default_rng(13)
    for _ in range(20):
        m, v = _mixed(rng, batch + (3, 3)), _mixed(rng, batch + (3,))
        for mm in [m, m[..., :1, :, :]] if batch else [m]:  # per-node and broadcast matrices
            _same(geo.matvec(mm, v), _matvec_einsum(mm, v))


def test_einsum_order_follows_the_vector_layout():
    # numpy's einsum sums (m_i0 v_0 + m_i2 v_2) + m_i1 v_1 when the j axis of v
    # is contiguous (what matvec reproduces), and (m_i0 v_0 + m_i1 v_1) + m_i2 v_2
    # when it is strided, as for the columns v[..., :, k] that matrixops.svd3
    # multiplies by; that is why svd3 keeps its einsums.
    rng = np.random.default_rng(17)
    f, v = _mixed(rng, (5000, 3, 3)), _mixed(rng, (5000, 3, 3))
    terms = [f[..., :, j] * v[..., None, j, 0] for j in range(3)]
    strided = _matvec_einsum(f, v[..., :, 0])
    _same(strided, (terms[0] + terms[1]) + terms[2])
    assert not np.array_equal(strided, (terms[0] + terms[2]) + terms[1])
    contiguous = _matvec_einsum(f, np.ascontiguousarray(v[..., :, 0]))
    _same(contiguous, (terms[0] + terms[2]) + terms[1])
    _same(contiguous, geo.matvec(f, v[..., :, 0]))


def test_frame_conjugate_matches_einsum(grid):
    e = grid.nodes.frame
    for r in mo.random_rotation(np.random.default_rng(3), 4):
        _same(mo.conjugate_3x3(np.swapaxes(e, -1, -2), r), np.einsum("...ki,kl,...lj->...ij", e, r, e))


def _conjugate_einsum(e, g):
    return np.einsum("...ik,...kl,...jl->...ij", e, g, e)


def test_gradient_conjugate_matches_einsum(grid):
    # 2-d frames against 3-d gradients, as in _nodal and _best_fit_rotation
    rng = np.random.default_rng(5)
    e = grid.nodes.frame
    scale = 10.0 ** rng.uniform(-8, 3, size=grid.resolution + (1, 1))
    for g in (rng.normal(size=grid.resolution + (3, 3)) * scale, np.eye(3) + 1e-3 * scale):
        out = mo.conjugate_3x3(e, g)
        assert out.flags.c_contiguous
        _same(out, _conjugate_einsum(e, g))


@pytest.mark.parametrize("batch", [(), (1,), (7,), (4, 9), (2, 6, 6)])
def test_gradient_conjugate_matches_einsum_on_patch_batches(batch):
    rng = np.random.default_rng(9)
    e = mo.random_rotation(rng, max(1, int(np.prod(batch)))).reshape(batch + (3, 3))
    g = rng.normal(size=batch + (3, 3))
    _same(mo.conjugate_3x3(e, g), _conjugate_einsum(e, g))


def _bits(a, b):
    """a has the bits of b, the signs of zeros included; a NaN matches either NaN (its sign is the compiled loop's choice)."""
    assert a.shape == b.shape
    nan = np.isnan(a)
    assert np.array_equal(nan, np.isnan(b))
    assert a[~nan].tobytes() == b[~nan].tobytes()


def _signed_permutations():
    """The 24 signed permutation matrices of SO(3): the identity, diag(1, -1, -1), the cyclic permutations, ..."""
    out = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            m = np.zeros((3, 3))
            m[range(3), perm] = signs
            if np.linalg.det(m) > 0:
                out.append(m)
    return out


def _fixed_rotations_with_zeros():
    c, s = np.cos(0.7), np.sin(0.7)
    rx = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    one_zero = rx @ np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])  # zero at (0, 2) alone
    assert np.count_nonzero(one_zero == 0.0) == 1
    perms = _signed_permutations()
    assert len(perms) == 24
    negative_zeros = [np.where(r == 0.0, -0.0, r) for r in perms[:4]]
    return perms + [one_zero, rx] + negative_zeros


def _fixed_conjugate_einsum(a, r):
    return np.einsum("...ik,kl,...jl->...ij", a, r, a)


def _signed_zero_batch(rng, shape):
    """Mixed magnitudes with -0.0 entries, entries whose products underflow to +-0.0, and all-(-0.0) matrices."""
    a = _mixed(rng, shape + (3, 3))
    pick = rng.uniform(size=a.shape)
    a[pick < 0.15] = -0.0
    tiny = (pick >= 0.15) & (pick < 0.3)
    a[tiny] = rng.choice([-1e-170, 1e-170, -3e-200, 2e-190], size=np.count_nonzero(tiny))
    flat = a.reshape(-1, 3, 3)
    flat[::7] = -0.0
    flat[3::11] = rng.choice([-1e-170, 1e-170], size=flat[3::11].shape)
    return a


def test_fixed_rotation_with_exact_zeros_keeps_einsums_bits_on_frames(grid):
    # the zero terms of a fixed R are skipped, as for E^T R E in interpolation_sides
    e = grid.nodes.frame
    for a in (e, np.swapaxes(e, -1, -2)):
        for r in _fixed_rotations_with_zeros():
            out = mo.conjugate_3x3(a, r)
            assert out.flags.c_contiguous
            _bits(out, _fixed_conjugate_einsum(a, r))


@pytest.mark.parametrize("batch", [(), (5,), (17, 11), (3, 17, 11)])
def test_fixed_rotation_with_exact_zeros_keeps_einsums_bits_on_signed_zeros(batch):
    a = _signed_zero_batch(np.random.default_rng(19), batch)
    for r in _fixed_rotations_with_zeros():
        _bits(mo.conjugate_3x3(a, r), _fixed_conjugate_einsum(a, r))


def test_signed_zero_sums_stay_positive_zero():
    # every term of these entries is +-0.0, so the sum is +0.0 with or without the skip
    a = np.full((4, 3, 3), -0.0)
    a[1] = np.diag([-1e-170, 1e-170, -1e-170])
    a[2, :, 0] = -1e-200
    a[3] = np.eye(3) * -1e-170
    for r in _fixed_rotations_with_zeros():
        out = mo.conjugate_3x3(a, r)
        _bits(out, _fixed_conjugate_einsum(a, r))
        assert not np.signbit(out).any()


def test_nonfinite_batch_keeps_every_term():
    # inf * 0 is NaN, so with an inf or NaN in ``a`` no zero term of R may be skipped
    rng = np.random.default_rng(23)
    a = _mixed(rng, (40, 3, 3))
    a[3, 0, 1] = np.inf
    a[8, 2, 2] = -np.inf
    a[12, 1, 0] = np.nan
    a[20] = np.inf
    a[30, :, 2] = -np.inf
    finite = np.isfinite(a).all(axis=(-2, -1))
    with np.errstate(invalid="ignore"):
        for r in _fixed_rotations_with_zeros():
            out = mo.conjugate_3x3(a, r)
            want = _fixed_conjugate_einsum(a, r)
            _bits(out, want)
            assert np.isnan(want[3]).any() and np.isfinite(out[0]).all()
            # the finite matrices keep the bits they have alone, where the zero terms are skipped
            _bits(out[finite], mo.conjugate_3x3(a[finite], r))
