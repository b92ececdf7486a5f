"""A battery evaluated as stacked seeds gives each seed the bits it has alone.

``fields.random_smooth_field`` of a seed sequence stacks the fields on a
leading axis, and ``interpolation_sides`` / ``korn_linear_sides`` evaluate
such a stack in one pass over the nodes with every reduction per seed.  The
reference is always the same function on the lone seed.
"""

import tracemalloc
from collections import Counter

import numpy as np
import pytest

from shellrig import experiments as ex
from shellrig import fields as fl
from shellrig import geometry as geo
from shellrig import inequality as ineq
from shellrig import matrixops as mo
from shellrig import norms as nm

SURFACES = ("plate", "cylinder", "sphere", "pseudosphere")
SEEDS = [3, 0, 11]
H = 5e-2


@pytest.fixture(scope="module", params=[(s, prof) for s in SURFACES for prof in ("shell", "bump")],
                ids=lambda sp: "-".join(sp))
def grid(request):
    name, profile = request.param
    s = geo.make_surface(name)
    return nm.build_grid(geo.ThinDomain(s, geo.make_profile(profile, H, s)), (3, 10, 8))


def _bits(rep) -> str:
    return repr(rep.to_dict())


def _lp_alone(values, grid, p):
    """The L^p norm of one field's nodal values as one ``np.sum`` over its nodes, the sum before stacking."""
    return float(np.sum(grid.weights * nm.magnitudes(np.asarray(values)[None], grid)[0] ** p) ** (1.0 / p))


def _mean_alone(values, grid):
    """The volume-weighted mean of one field's nodal values, as one einsum over that field alone."""
    return np.einsum("tij,tij...->...", grid.weights, values) / grid.volume


def _lone_sides(y, rotation, offset, grid, p):
    """The sides of one unstacked deformation, as ``interpolation_sides`` computed them before stacking."""
    comp, par = fl.on_grid(y, grid)
    g = fl.gradient_from_partials(comp, par, grid.t, grid.nodes.coeffs)
    frame = grid.nodes.frame
    r = rotation
    if isinstance(rotation, str):
        r = mo.nearest_rotation(_mean_alone(mo.conjugate_3x3(frame, g), grid), warn_degenerate=False)
    # einsum's summation order follows the layout of its inputs (geometry's nodal storage note)
    comp, x = geo.summable(comp), geo.summable(grid.identity.points)
    resid = np.einsum("...ij,...j->...i", frame, comp) - np.einsum("ij,...j->...i", r, x)
    b = _mean_alone(resid, grid) if offset == "mean" else np.zeros(3)
    field_norm = _lp_alone(resid - b, grid, p)
    dist_norm = _lp_alone(mo.dist_SO3(g), grid, p)
    lhs = _lp_alone(g - mo.conjugate_3x3(np.swapaxes(frame, -1, -2), r), grid, p) ** 2
    h = grid.domain.h
    return lhs, field_norm * dist_norm / h, field_norm**2, dist_norm**2, tuple(map(tuple, r)), tuple(b)


def _sides_of(rep):
    return rep.lhs, rep.rhs_product, rep.rhs_field_sq, rep.rhs_dist_sq, rep.rotation, rep.offset


def _check_stack(grid, seeds, rotation, offset, p, modes):
    """Each report of a stacked call equals the lone seed's call, and that the reference."""
    s, domain = grid.domain.surface, grid.domain
    rot = np.eye(3) if rotation == "identity" else rotation
    off = np.zeros(3) if offset == "zero" else offset

    def deformation(seed):
        return fl.displacement_to_deformation(s, fl.random_smooth_field(seed, 0.1, modes, s), domain.h)

    stacked = ineq.interpolation_sides(
        deformation(seeds), rot, off, grid, p, meta=[{"field": f"random:{seed}"} for seed in seeds]
    )
    assert len(stacked) == len(seeds)
    for seed, rep in zip(seeds, stacked):
        lone = ineq.interpolation_sides(deformation(seed), rot, off, grid, p, meta={"field": f"random:{seed}"})
        assert _bits(rep) == _bits(lone)
        assert repr(_sides_of(rep)) == repr(_lone_sides(deformation(seed), rot, offset, grid, p))


@pytest.mark.parametrize("modes", [4, 9])
def test_stacked_field_slices_are_the_single_fields(grid, modes):
    s = grid.domain.surface
    stacked = fl.random_smooth_field(SEEDS, 0.1, modes, s)
    for args in ((grid.t, *grid.plane), grid.mesh()):
        comp, par = stacked.components(*args), stacked.partials(*args)
        assert comp.shape == (len(SEEDS), *grid.resolution, 3)
        assert par.shape == (len(SEEDS), *grid.resolution, 3, 3)
        assert np.moveaxis(comp, -1, 0).flags.c_contiguous
        assert np.moveaxis(par, (-2, -1), (0, 1)).flags.c_contiguous
        for k, seed in enumerate(SEEDS):
            single = fl.random_smooth_field(seed, 0.1, modes, s)
            # component-major: each entry of a seed's slice is one contiguous block
            assert all(comp[k][..., i].flags.c_contiguous for i in range(3))
            assert all(par[k][..., i, j].flags.c_contiguous for i in range(3) for j in range(3))
            assert comp[k].tobytes() == single.components(*args).tobytes()
            assert par[k].tobytes() == single.partials(*args).tobytes()


@pytest.mark.parametrize("modes", [4, 9])
@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("offset", ["mean", "zero"])
@pytest.mark.parametrize("rotation", ["identity", "best-fit"])
def test_stacked_interpolation_sides_equal_each_single_seed(grid, rotation, offset, p, modes):
    _check_stack(grid, SEEDS, rotation, offset, p, modes)


def test_benchmark_battery_shape_keeps_every_bit():
    # 20 seeds on the benchmark's 4x8x8 grid at h = 1e-3: on the cylinder at
    # p = 3, one np.sum over a chunk instead of one per seed moves a last bit
    for surface, p in (("sphere", 2.0), ("cylinder", 3.0)):
        s = geo.make_surface(surface)
        grid = nm.build_grid(geo.ThinDomain(s, geo.make_profile("shell", 1e-3, s)), (4, 8, 8))
        _check_stack(grid, list(range(20)), "identity", "mean", p, 4)


@pytest.mark.parametrize("modes", [4, 9])
@pytest.mark.parametrize("p", [2.0, 3.0])
def test_stacked_korn_sides_equal_each_single_seed(grid, p, modes):
    s = grid.domain.surface
    stacked = ineq.korn_linear_sides(fl.random_smooth_field(SEEDS, 0.1, modes, s), grid, p)
    assert len(stacked) == len(SEEDS)
    for seed, rep in zip(SEEDS, stacked):
        u = fl.random_smooth_field(seed, 0.1, modes, s)
        assert _bits(rep) == _bits(ineq.korn_linear_sides(u, grid, p))
        # the reference: the three norms of the lone seed's own arrays
        comp, par = fl.on_grid(u, grid)
        g = fl.gradient_from_partials(comp, par, grid.t, grid.nodes.coeffs)
        strain = _lp_alone(0.5 * (g + np.swapaxes(g, -1, -2)), grid, p)
        field = _lp_alone(comp, grid, p)
        assert repr(_sides_of(rep)) == repr((_lp_alone(g, grid, p) ** 2, field * strain / H, field**2, strain**2, None, None))


def _stacked_arrays(field, grid, eps):
    """E y and the Euclidean gradient E g E^T of x + eps u on ``grid``, with a leading seed axis."""
    y = fl.displacement_to_deformation(grid.domain.surface, field, eps)
    comp, par = fl.on_grid(y, grid)
    if comp.ndim == 4:
        comp, par = comp[None], par[None]
    g = fl.gradient_from_partials(comp, par, grid.t, grid.nodes.coeffs)
    return geo.matvec(grid.nodes.frame, comp), mo.conjugate_3x3(grid.nodes.frame, g)


@pytest.mark.parametrize("case", ["battery 4x8x8", "bump", "ansatz 4x506x16"])
def test_stacked_means_keep_each_fields_bits(case):
    # the "mean" offsets and best-fit means of a stack are one einsum over it;
    # each must have the bits of that field's own einsum
    s = geo.make_surface("sphere")
    if case == "ansatz 4x506x16":
        domain = geo.ThinDomain(s, geo.make_profile("shell", 1e-3, s))
        resolution = (4, nm.adaptive_theta_resolution(domain, 32), 16)
        assert resolution == (4, 506, 16)  # the benchmark's sharpness grid at h = 1e-3
        field = fl.ansatz_displacement(fl.default_ansatz_profile(s), s, 1e-3)
    else:
        profile, h, resolution = ("shell", 1e-3, (4, 8, 8)) if case == "battery 4x8x8" else ("bump", 1e-2, (4, 12, 10))
        domain = geo.ThinDomain(s, geo.make_profile(profile, h, s))
        field = fl.random_smooth_field(list(range(20)), 0.1, 4, s)
    grid = nm.build_grid(domain, resolution)
    for stack in _stacked_arrays(field, grid, domain.h):
        means = nm.weighted_means(stack, grid)
        assert len(means) == len(stack) == (1 if case.startswith("ansatz") else 20)
        for mean, values in zip(means, stack):
            assert mean.tobytes() == _mean_alone(values, grid).tobytes()
            assert mean.tobytes() == nm.weighted_mean(values, grid).tobytes()


def test_a_stack_needs_one_meta_per_seed(grid):
    u = fl.random_smooth_field(SEEDS, 0.1, 4, grid.domain.surface)
    with pytest.raises(ValueError, match="meta lists 2 dicts for 3 fields"):
        ineq.korn_linear_sides(u, grid, 2.0, meta=[{}, {}])
    with pytest.raises(ValueError, match="at least one seed"):
        fl.random_smooth_field([], 0.1, 4, grid.domain.surface)


def _evaluations(monkeypatch, **cfg):
    """Seeds per stacked field drawn, and field evaluations in all, of one 4-h battery sweep."""
    draws, evals = [], Counter()
    random_field = fl.random_smooth_field

    def counted_field(seeds, *args, **kwargs):
        draws.append(len(seeds))
        f = random_field(seeds, *args, **kwargs)

        def components(*xi):
            evals["components"] += 1
            return f.components(*xi)

        return fl.FrameField(components, f.partials, kind=f.kind)

    monkeypatch.setattr(fl, "random_smooth_field", counted_field)
    res = ex.run_sweep(ex.SweepConfig(field="random", num_h=4, h_min=1e-2, h_max=1e-1, **cfg))
    assert len(res.rows) == 4
    return draws, evals["components"]


def test_battery_chunks_follow_the_node_budget(monkeypatch):
    # a chunk is one report slab of at most ineq.SLAB_NODES = 8192 node values:
    # 4x8x8 = 256 nodes hold 32 seeds, so 20 seeds are drawn once as one
    # stack and evaluated in one pass per h
    assert _evaluations(monkeypatch, seeds=20, nt=4, ntheta=8, nz=8) == ([20], 1 * 4)
    # 4x24x24 = 2304 nodes hold 3 seeds: 5 seeds are drawn as 3 + 2
    base = dict(nt=4, ntheta=24, nz=24, adaptive_theta=False)
    assert _evaluations(monkeypatch, seeds=5, **base) == ([3, 2], 2 * 4)
    # 4x48x48 = 9216 nodes is above the budget: one seed per chunk, and each
    # report takes two slabs of 24 theta rows
    base = dict(nt=4, ntheta=48, nz=48, adaptive_theta=False)
    assert _evaluations(monkeypatch, seeds=3, **base) == ([1, 1, 1], 3 * 4 * 2)
    # the budget is read when the sweep runs
    monkeypatch.setattr(ineq, "SLAB_NODES", 1024)
    assert _evaluations(monkeypatch, seeds=5, nt=4, ntheta=8, nz=8) == ([4, 1], 2 * 4)


def _traced_peak(config) -> int:
    tracemalloc.start()
    try:
        ex.run_sweep(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_battery_above_the_budget_needs_no_more_memory_than_one_seed():
    # the desk battery's 6x48x48 = 13824 nodes is above ineq.SLAB_NODES: one
    # seed per chunk.  The battery builds its grid's x -> x map whole, which
    # every chunk's slabs view (norms.QuadratureGrid.slab), where a lone seed
    # builds one slab's map at a time; here that adds about 5%.
    base = dict(num_h=4, h_min=1e-2, h_max=1e-1, nt=6, ntheta=48, nz=48, adaptive_theta=False)
    ex.run_sweep(ex.SweepConfig(field="random:0", **base))  # fill the quadrature-rule cache first
    single = _traced_peak(ex.SweepConfig(field="random:0", **base))
    battery = _traced_peak(ex.SweepConfig(field="random", seeds=5, **base))
    assert battery <= 1.1 * single
