"""The frame contractions equal the einsum formulas they replaced, bit for bit.

The references below are the einsum expressions ``SurfaceNodes.in_frame``,
``SurfaceNodes.identity_partials`` and the E^T R E term of
``interpolation_sides`` used before they were written as explicit sums.
"""

import numpy as np
import pytest

from shellrig import geometry as geo
from shellrig import inequality as ineq
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


def test_in_frame_matches_einsum(grid):
    rng = np.random.default_rng(11)
    nodes = grid.nodes
    v2 = rng.normal(size=grid.resolution[1:] + (3,)) * 10.0 ** rng.uniform(-8, 3, size=(1, 1, 3))
    v3 = rng.normal(size=grid.resolution + (3,))
    for v in (v2, v3, nodes.frame[..., 0], nodes.point(grid.t)):
        _same(nodes.in_frame(v), _in_frame_einsum(nodes, v))


def test_identity_partials_match_einsum(grid):
    nodes = grid.nodes
    for t in (grid.t, grid.t[0], np.zeros(grid.resolution[1:])):
        x = nodes.point(t)
        _same(nodes.identity_partials(t, x), _identity_partials_einsum(nodes, t, x))


def test_frame_conjugate_matches_einsum(grid):
    e = grid.nodes.frame
    for r in mo.random_rotation(np.random.default_rng(3), 4):
        _same(ineq._frame_conjugate(e, r), np.einsum("...ki,kl,...lj->...ij", e, r, e))
