"""Reports evaluated in theta slabs keep every bit and bound their memory.

Every nodal path (``interpolation_sides``, ``korn_linear_sides``,
``balance_form`` and the localization audit's ``_nodal``) runs slab by slab
(``inequality._slabs``, ``QuadratureGrid.slab``) and reduces whole-grid
arrays afterwards.  Shrinking ``inequality.SLAB_NODES`` splits the small
grids of the ``data/*_reference.json`` files into many slabs; the rows,
traces and per-patch records must still match the recorded ``repr`` strings.
"""

import json
import tracemalloc

import numpy as np
import pytest

from shellrig import cli
from shellrig import experiments as ex
from shellrig import fields as fl
from shellrig import geometry as geo
from shellrig import inequality as ineq
from shellrig import norms as nm
from test_sweep_evaluation import REFERENCE, _config_of
import test_patch_reference as patch_ref
import test_trace_evaluation as trace_ref


def _rows_seen(monkeypatch):
    """Patch ``inequality.on_grid`` to record the theta rows of every slab it evaluates."""
    seen = []
    on_grid = ineq.on_grid

    def recorded(field, grid):
        seen.append(grid.resolution[1])
        return on_grid(field, grid)

    monkeypatch.setattr(ineq, "on_grid", recorded)
    return seen


# the reference grids are 3x12x10: 30 nodes per theta row, so these budgets give
# slabs of 1 row (12 slabs), 3 rows (4 slabs) and 6 rows (2 slabs) for one field
@pytest.mark.parametrize("budget", [30, 100, 250])
@pytest.mark.parametrize("key", sorted(REFERENCE))
def test_rows_in_slabs_are_bit_identical(monkeypatch, key, budget):
    monkeypatch.setattr(ineq, "SLAB_NODES", budget)
    seen = _rows_seen(monkeypatch)
    sweep, config = _config_of(key)
    rows = sweep(config).rows
    assert [{k: repr(v) for k, v in row.items()} for row in rows] == REFERENCE[key]
    assert seen and max(seen) <= budget // 30 < 12  # no slab held the whole grid


def _most_rows(budget, resolution):
    """Theta rows a slab of one field may hold on a grid of ``resolution``; fewer than the grid's."""
    nt, nth, nz = resolution
    most = max(1, budget // (nt * nz))
    assert most < nth
    return most


@pytest.mark.parametrize("budget", [30, 100, 250])
def test_balance_form_in_slabs_is_bit_identical(monkeypatch, budget):
    monkeypatch.setattr(ineq, "SLAB_NODES", budget)
    seen = _rows_seen(monkeypatch)
    for name in trace_ref.SURFACES:
        s = geo.make_surface(name)
        for prof in trace_ref.PROFILES:
            grid = nm.build_grid(geo.ThinDomain(s, geo.make_profile(prof, 2e-2, s)), (3, 12, 10))
            bal = ineq.balance_form(fl.random_smooth_field(6, 0.2, 4, s), grid, 2.0, 0.7)
            values = {k: getattr(bal, k) for k in ("field_norm", "dist_norm", "term_field", "term_dist")}
            assert trace_ref._reprs(values) == trace_ref.REFERENCE[f"balance_form {name} {prof}"]
    assert seen and max(seen) <= _most_rows(budget, (3, 12, 10))


@pytest.mark.parametrize("budget", [30, 100, 250])
@pytest.mark.parametrize("key", sorted(trace_ref.TRACES))
def test_cli_traces_in_slabs_are_bit_identical(monkeypatch, tmp_path, key, budget):
    monkeypatch.setattr(ineq, "SLAB_NODES", budget)
    seen = _rows_seen(monkeypatch)
    assert cli.main([*trace_ref.TRACE, *trace_ref.TRACES[key], "--out", str(tmp_path)]) == 0
    assert trace_ref._reprs(json.loads((tmp_path / "trace.json").read_text())) == trace_ref.REFERENCE[key]
    resolution = json.loads((tmp_path / "config.json").read_text())["grid"]
    assert seen and max(seen) <= _most_rows(budget, resolution)


@pytest.mark.parametrize("budget", [30, 100, 250])
def test_patch_records_in_slabs_are_bit_identical(monkeypatch, budget):
    monkeypatch.setattr(ineq, "SLAB_NODES", budget)
    seen = _rows_seen(monkeypatch)
    reference = json.loads(patch_ref.PATH.read_text())
    for case in patch_ref._cases():  # a fresh grid per surface and h, shared by both p
        seen.clear()
        name, h, p, grid = case[0], case[1], case[2], case[5]
        assert patch_ref._patch_values(*case) == reference[patch_ref._case_key("patch_trace", name, h, p)]
        passage = reference[patch_ref._case_key("shell_to_domain_trace", name, h, p)]
        assert patch_ref._passage_values(*case) == passage
        assert seen and max(seen) <= _most_rows(budget, grid.resolution)  # at least the core grid's slabs


def test_slab_views_the_grid_and_shares_its_plane_geometry():
    s = geo.make_surface("sphere")
    for profile, t_axis_rows in (("shell", 1), ("bump", 3)):
        grid = nm.build_grid(geo.ThinDomain(s, geo.make_profile(profile, 1e-2, s)), (3, 12, 10))
        assert grid.slab(slice(0, 12)) is grid
        sub = grid.slab(slice(4, 7))
        assert sub.resolution == (3, 3, 10)
        for a, whole in ((sub.t, grid.t), (sub.weights, grid.weights), (sub.theta, grid.theta),
                         (sub.nodes.frame, grid.nodes.frame), (sub.nodes.coeffs.a_theta, grid.nodes.coeffs.a_theta)):
            assert np.shares_memory(a, whole)
        assert np.array_equal(sub.t, grid.t[:, 4:7])
        assert np.array_equal(sub.nodes.position, grid.nodes.position[4:7])
        assert sub.t_axis.shape[1] == t_axis_rows
        assert np.array_equal(np.broadcast_to(sub.t_axis, sub.t.shape), sub.t)
        # x -> x on a slab is the whole grid's map on its rows
        for a, whole in zip(sub.identity, grid.identity):
            assert a.tobytes() == np.ascontiguousarray(whole[:, 4:7]).tobytes()
        assert sub.nodes.point(sub.t).tobytes() == sub.identity.points.tobytes()


def test_rows_asked_for_again_keep_their_slab():
    s = geo.make_surface("sphere")
    grid = nm.build_grid(geo.ThinDomain(s, geo.make_profile("shell", 1e-2, s)), (3, 12, 10))
    first, second, third = (grid.slab(slice(0, 6)) for _ in range(3))
    assert first is not second and second is third


def test_a_battery_builds_each_slab_map_at_most_twice(monkeypatch):
    # 4x24x24 = 2304 nodes is above the node budget, so 4 seeds make 4 chunks per h;
    # 96 nodes per theta row and 1000 node values per slab make 3 slabs of 8 rows
    monkeypatch.setattr(ineq, "SLAB_NODES", 1000)
    seen = _rows_seen(monkeypatch)
    builds = []
    identity = geo.SurfaceNodes.identity

    def counted(nodes, t):
        builds.append(np.shape(t)[1])
        return identity(nodes, t)

    monkeypatch.setattr(geo.SurfaceNodes, "identity", counted)
    res = ex.run_sweep(ex.SweepConfig(field="random", seeds=4, num_h=4, h_min=1e-2, h_max=1e-1,
                                      nt=4, ntheta=24, nz=24, adaptive_theta=False))
    assert len(res.rows) == 4
    assert seen == [8, 8, 8] * 4 * 4
    # per h: the first chunk's slabs die with it, the second's are kept for the rest
    assert builds == [8, 8, 8] * 2 * 4


@pytest.mark.parametrize("rotation", ["motion", "best-fit"])
@pytest.mark.parametrize("spec", ["rigid:3", "identity"])
def test_a_rigid_report_builds_x_once_per_slab(monkeypatch, spec, rotation):
    # 4x24x16 nodes and 384 node values per slab make 4 slabs of 6 rows; the field and
    # the fixed-R residual read each slab's cached x -> x map, and nothing reads the surface
    monkeypatch.setattr(ineq, "SLAB_NODES", 384)
    seen = _rows_seen(monkeypatch)
    s = geo.make_surface("sphere")
    domain = geo.ThinDomain(s, geo.make_profile("shell", 1e-2, s))
    grid = nm.build_grid(domain, (4, 24, 16))
    grid.nodes  # the grid's plane geometry, built once per grid
    y = fl.make_field(spec, domain)
    builds, nodes_calls = [], []
    identity, nodes = geo.SurfaceNodes.identity, geo.ParamSurface.nodes

    def counted(self, t):
        builds.append(np.shape(t)[1])
        return identity(self, t)

    def counted_nodes(self, theta, z):
        nodes_calls.append(np.shape(theta))
        return nodes(self, theta, z)

    monkeypatch.setattr(geo.SurfaceNodes, "identity", counted)
    monkeypatch.setattr(geo.ParamSurface, "nodes", counted_nodes)
    q, c = y.motion
    rep = ineq.interpolation_sides(y, q if rotation == "motion" else "best-fit", c, grid, 2.0)
    assert seen == [6, 6, 6, 6]
    assert builds == [6, 6, 6, 6]
    assert nodes_calls == []
    assert rep.lhs < 1e-12


def _poisoned(h, first_rows_par: bool, last_rows_comp: bool) -> tuple:
    """x + h u for a random u with an infinite partial on the first theta rows and/or an
    infinite component on the last ones, and a 3x12x10 sphere grid."""
    s = geo.make_surface("sphere")
    grid = nm.build_grid(geo.ThinDomain(s, geo.make_profile("shell", h, s)), (3, 12, 10))
    lo, hi = grid.theta[2], grid.theta[-3]
    u = fl.random_smooth_field(3, 0.1, 4, s)

    def comp(t, theta, z):
        out = u.components(t, theta, z)
        if last_rows_comp:
            out[..., 0] = np.where(np.asarray(theta) > hi, np.inf, out[..., 0])
        return out

    def par(t, theta, z):
        out = u.partials(t, theta, z)
        if first_rows_par:
            out[..., 0, 1] = np.where(np.asarray(theta) < lo, np.inf, out[..., 0, 1])
        return out

    field = fl.FrameField(comp, par, kind="displacement")
    return fl.displacement_to_deformation(s, field, h), grid


@pytest.mark.parametrize(
    "first_rows_par, last_rows_comp, message",
    [
        (True, True, "values must be finite on all grid nodes"),  # the residual's norm comes first
        (True, False, "matrix entries must be finite"),  # then the distance to SO(3)
        (False, True, "values must be finite on all grid nodes"),
    ],
)
@pytest.mark.parametrize("rotation", ["identity", "best-fit"])
def test_a_failure_in_slabs_is_the_failure_of_one_pass(monkeypatch, first_rows_par, last_rows_comp, message, rotation):
    rot = np.eye(3) if rotation == "identity" else "best-fit"
    errors = []
    for budget in (ineq.SLAB_NODES, 30):
        monkeypatch.setattr(ineq, "SLAB_NODES", budget)
        y, grid = _poisoned(1e-2, first_rows_par, last_rows_comp)
        with np.errstate(all="ignore"), pytest.raises(ValueError) as err:
            ineq.interpolation_sides(y, rot, "mean", grid, 2.0)
        errors.append((type(err.value), str(err.value)))
    assert errors[0] == errors[1]
    if rotation == "identity":
        assert errors[0][1] == message


def test_one_report_on_the_doubled_grid_stays_under_128_bytes_per_node():
    # the ansatz at h = 1e-3 on the doubled sharpness grid: 16x506x128, 1,036,288 nodes;
    # evaluated whole, the report peaked at 354.5 B/node in its gradient
    s = geo.make_surface("sphere")
    h = 1e-3
    domain = geo.ThinDomain(s, geo.make_profile("shell", h, s))
    grid = nm.build_grid(domain, (16, nm.adaptive_theta_resolution(domain, base=128), 128))
    assert grid.resolution == (16, 506, 128)
    y = fl.displacement_to_deformation(s, fl.make_field("ansatz", domain), h)
    tracemalloc.start()
    try:
        rep = ineq.interpolation_sides(y, np.eye(3), "mean", grid, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(rep.ratio)
    assert peak / grid.t.size < 128
