"""The mode-major random field equals the broadcast formula it replaced, bit for bit.

``_broadcast_field`` below is ``fields.random_smooth_field`` as it was
written before evaluation became mode-major: the (3, modes) axes trail, the
factors multiply in the same order, and ``np.sum`` adds the modes along a
contiguous last axis.
"""

import tracemalloc

import numpy as np
import pytest

from shellrig import fields as fl
from shellrig import geometry as geo
from shellrig import norms as nm

SURFACES = ("plate", "cylinder", "sphere", "pseudosphere")
BROADCAST_SHAPES = [((), (), ()), ((5,), (5,), (5,)), ((), (4,), ()), ((2, 1, 1), (3, 1), (4,)), ((3, 1), (1, 4), ())]


def _broadcast_field(seed, amplitude, mode_count, surface):
    rng = np.random.default_rng(seed)
    t0, t1, z0, z1 = surface.domain
    coef = rng.uniform(-1.0, 1.0, (3, mode_count)) * (amplitude / mode_count)
    w_t = np.pi * rng.integers(0, 3, (3, mode_count))
    w_th = (np.pi / (t1 - t0)) * rng.integers(0, 3, (3, mode_count))
    w_z = (np.pi / (z1 - z0)) * rng.integers(0, 3, (3, mode_count))
    phase = rng.uniform(0.0, 2.0 * np.pi, (3, mode_count, 3))

    def angles(t, theta, z):
        at = np.asarray(t, dtype=float)[..., None, None] * w_t + phase[..., 0]
        ath = (np.asarray(theta, dtype=float)[..., None, None] - t0) * w_th + phase[..., 1]
        az = (np.asarray(z, dtype=float)[..., None, None] - z0) * w_z + phase[..., 2]
        return at, ath, az

    def comp(t, theta, z):
        at, ath, az = angles(t, theta, z)
        return np.sum(coef * np.cos(at) * np.cos(ath) * np.cos(az), axis=-1)

    def par(t, theta, z):
        at, ath, az = angles(t, theta, z)
        ct, cth, cz = np.cos(at), np.cos(ath), np.cos(az)
        st, sth, sz = np.sin(at), np.sin(ath), np.sin(az)
        out = np.empty(np.broadcast_shapes(np.shape(t), np.shape(theta), np.shape(z)) + (3, 3))
        out[..., 0] = np.sum(-coef * w_t * st * cth * cz, axis=-1)
        out[..., 1] = np.sum(-coef * w_th * ct * sth * cz, axis=-1)
        out[..., 2] = np.sum(-coef * w_z * ct * cth * sz, axis=-1)
        return out

    return comp, par


def _same_as_reference(field, reference, args):
    comp, par = field.components(*args), field.partials(*args)
    ref_comp, ref_par = reference[0](*args), reference[1](*args)
    assert comp.flags.c_contiguous
    assert comp.shape == ref_comp.shape and par.shape == ref_par.shape
    assert comp.tobytes() == ref_comp.tobytes()
    assert par.tobytes() == ref_par.tobytes()


@pytest.fixture(scope="module", params=SURFACES)
def grid(request):
    s = geo.make_surface(request.param)
    return nm.build_grid(geo.ThinDomain(s, geo.make_profile("bump", 5e-2, s)), (3, 17, 11))


# 8 and 9 modes take numpy's pairwise order
@pytest.mark.parametrize("modes", [1, 4, 7, 8, 9])
@pytest.mark.parametrize("seed", [0, 3, 7, 11])
def test_random_field_matches_broadcast_formula_on_grids(grid, seed, modes):
    s = grid.domain.surface
    field = fl.random_smooth_field(seed, 0.3, modes, s)
    reference = _broadcast_field(seed, 0.3, modes, s)
    _same_as_reference(field, reference, (grid.t, *grid.plane))
    _same_as_reference(field, reference, grid.mesh())


@pytest.mark.parametrize("shapes", BROADCAST_SHAPES)
@pytest.mark.parametrize("modes", [1, 4, 7])
def test_random_field_matches_broadcast_formula_on_any_shape(shapes, modes):
    s = geo.make_surface("sphere")
    rng = np.random.default_rng(12)
    t0, t1, z0, z1 = s.domain
    args = (rng.uniform(-0.01, 0.01, shapes[0]), rng.uniform(t0, t1, shapes[1]), rng.uniform(z0, z1, shapes[2]))
    _same_as_reference(fl.random_smooth_field(8, 0.3, modes, s), _broadcast_field(8, 0.3, modes, s), args)


def test_bump_chunk_partials_peak_and_bits():
    # A battery chunk of 8 seeds on a 4x8x8 bump grid (2048 node values, one
    # slab of ineq.SLAB_NODES), where the t angles cover every node.  The t sine goes into the term buffer, so the
    # partials peak below the 876 KB that a separate sine array made them take.
    s = geo.make_surface("sphere")
    grid = nm.build_grid(geo.ThinDomain(s, geo.make_profile("bump", 1e-2, s)), (4, 8, 8))
    seeds = list(range(8))
    field = fl.random_smooth_field(seeds, 1.0, 4, s)
    args = (grid.t_axis, *grid.plane)
    assert grid.t_axis.shape == grid.resolution
    field.partials(*args)
    tracemalloc.start()
    try:
        par = field.partials(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 780_000, peak
    for seed, par_s in zip(seeds, par):
        assert par_s.tobytes() == _broadcast_field(seed, 1.0, 4, s)[1](*args).tobytes()
