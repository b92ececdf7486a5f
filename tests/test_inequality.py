import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shellrig import fields as fl
from shellrig import geometry as geo
from shellrig import inequality as ineq
from shellrig import matrixops as mo
from shellrig import norms as nm

H = 1e-2


@pytest.fixture(scope="module")
def sphere_setup():
    s = geo.make_surface("sphere")
    dom = geo.ThinDomain(s, geo.shell_profile(H))
    grid = nm.build_grid(dom, (6, 96, 48))
    return s, dom, grid


# -- interpolation sides ----------------------------------------------------------


def test_rigid_motion_is_degenerate_exact(sphere_setup):
    s, dom, grid = sphere_setup
    rng = np.random.default_rng(0)
    q = mo.random_rotation(rng)
    c = rng.normal(size=3)
    rep = ineq.interpolation_sides(fl.rigid_deformation(s, q, c), q, c, grid, 2.0)
    assert rep.flag == "degenerate-exact"
    scale = grid.volume
    assert rep.lhs <= 1e-10 * scale
    assert rep.rhs_total <= 1e-10 * scale


def test_ansatz_datum_finite_ratio(sphere_setup):
    s, dom, grid = sphere_setup
    u = fl.ansatz_displacement(fl.default_ansatz_profile(s), s, H)
    y = fl.displacement_to_deformation(s, u, H)
    rep = ineq.interpolation_sides(y, np.eye(3), np.zeros(3), grid, 2.0)
    assert rep.flag == ""
    assert math.isfinite(rep.ratio) and rep.ratio > 0
    assert rep.rhs_product > 0 and rep.rhs_field_sq > 0 and rep.rhs_dist_sq > 0


def test_rotation_must_be_proper(sphere_setup):
    s, dom, grid = sphere_setup
    y = fl.identity_deformation(s)
    with pytest.raises(ValueError, match="SO\\(3\\)"):
        ineq.interpolation_sides(y, np.diag([1.0, 1.0, -1.0]), np.zeros(3), grid, 2.0)


def test_interpolation_requires_deformation(sphere_setup):
    s, dom, grid = sphere_setup
    u = fl.random_smooth_field(1, 0.1, 3, s)
    with pytest.raises(ValueError, match="deformation"):
        ineq.interpolation_sides(u, np.eye(3), np.zeros(3), grid, 2.0)


def test_report_rigid_transform_invariance(sphere_setup):
    # replacing (y, R, b) by (Qy + c, QR, Qb + c) leaves every entry unchanged
    s, dom, grid = sphere_setup
    rng = np.random.default_rng(1)
    u = fl.random_smooth_field(2, 0.2, 4, s)
    y = fl.displacement_to_deformation(s, u, 0.05)
    r0 = np.eye(3)
    rep0 = ineq.interpolation_sides(y, r0, "mean", grid, 2.0)
    b0 = np.asarray(rep0.offset)

    q = mo.random_rotation(rng)
    c = rng.normal(size=3)
    y2 = fl.transform_rigid(y, s, q, c)
    rep1 = ineq.interpolation_sides(y2, q @ r0, q @ b0 + c, grid, 2.0)
    for attr in ("lhs", "rhs_product", "rhs_field_sq", "rhs_dist_sq", "ratio"):
        a, b = getattr(rep0, attr), getattr(rep1, attr)
        assert a == pytest.approx(b, rel=1e-9, abs=1e-12)


def test_mean_offset_never_increases_field_term(sphere_setup):
    s, dom, grid = sphere_setup
    rng = np.random.default_rng(2)
    u = fl.random_smooth_field(3, 0.3, 4, s)
    y = fl.displacement_to_deformation(s, u, 0.1)
    rep_mean = ineq.interpolation_sides(y, np.eye(3), "mean", grid, 2.0)
    b_mean = np.asarray(rep_mean.offset)
    for _ in range(5):
        b = b_mean + rng.normal(size=3) * 0.05
        rep = ineq.interpolation_sides(y, np.eye(3), b, grid, 2.0)
        assert rep_mean.rhs_field_sq <= rep.rhs_field_sq + 1e-12
        # only the field-dependent entries move with b
        assert rep.lhs == pytest.approx(rep_mean.lhs, rel=1e-12)
        assert rep.rhs_dist_sq == pytest.approx(rep_mean.rhs_dist_sq, rel=1e-12)


def test_best_fit_rotation_not_worse_than_identity(sphere_setup):
    s, dom, grid = sphere_setup
    u = fl.random_smooth_field(7, 0.2, 4, s)
    y = fl.displacement_to_deformation(s, u, 0.05)
    t, th, zz = grid.mesh()
    g = fl.frame_gradient(y, s, t, th, zz)
    e = np.broadcast_to(s.frame(th, zz), g.shape)
    ge = np.einsum("...ik,...kl,...jl->...ij", e, g, e)
    mean = np.einsum("tij,tijkl->kl", grid.weights, ge) / grid.volume
    r_fit = mo.nearest_rotation(mean)
    rep_fit = ineq.interpolation_sides(y, r_fit, "mean", grid, 2.0)
    rep_id = ineq.interpolation_sides(y, np.eye(3), "mean", grid, 2.0)
    assert rep_fit.ratio <= rep_id.ratio + 1e-9


def test_dist_linearizes_to_strain(sphere_setup):
    # dist(grad(x + eps u), SO(3)) / eps converges to |strain| at first order
    s, dom, grid = sphere_setup
    u = fl.random_smooth_field(4, 0.5, 4, s)
    rng = np.random.default_rng(3)
    t0, t1, z0, z1 = s.domain
    th = rng.uniform(t0 + 0.1, t1 - 0.1, 100)
    zz = rng.uniform(z0 + 0.1, z1 - 0.1, 100)
    tt = rng.uniform(-H / 4, H / 4, 100)
    g = fl.frame_gradient(u, s, tt, th, zz)
    e_norm = np.linalg.norm(0.5 * (g + np.swapaxes(g, -1, -2)), axis=(-2, -1))  # the linear strain
    errs = []
    for eps in (1e-2, 1e-3, 1e-4):
        y = fl.displacement_to_deformation(s, u, eps)
        d = mo.dist_SO3(fl.frame_gradient(y, s, tt, th, zz))
        errs.append(np.abs(d / eps - e_norm).max())
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] / errs[0] < 0.05  # first-order convergence over two decades


# -- linearized sides ----------------------------------------------------------------


def test_korn_sides_skew_displacement(sphere_setup):
    s, dom, grid = sphere_setup
    rng = np.random.default_rng(5)
    w = rng.normal(size=(3, 3))
    w = 0.5 * (w - w.T)
    skew = fl.transform_rigid(fl.identity_deformation(s), s, w, np.zeros(3))
    u = fl.FrameField(skew.components, skew.partials, kind="displacement")
    rep = ineq.korn_linear_sides(u, grid, 2.0)
    assert rep.rhs_dist_sq <= 1e-20 * rep.lhs
    assert rep.ratio == pytest.approx(rep.lhs / rep.rhs_field_sq, rel=1e-9)


def test_korn_sides_zero_field(sphere_setup):
    s, dom, grid = sphere_setup
    u = fl.random_smooth_field(1, 0.0, 2, s)
    rep = ineq.korn_linear_sides(u, grid, 2.0)
    assert rep.flag == "degenerate-exact"


def test_korn_requires_displacement(sphere_setup):
    s, dom, grid = sphere_setup
    with pytest.raises(ValueError, match="displacement"):
        ineq.korn_linear_sides(fl.identity_deformation(s), grid, 2.0)


# -- balance form -----------------------------------------------------------------


def test_balance_endpoints(sphere_setup):
    s, dom, grid = sphere_setup
    u = fl.random_smooth_field(6, 0.2, 4, s)
    b0 = ineq.balance_form(u, grid, 2.0, 0.0)
    b2 = ineq.balance_form(u, grid, 2.0, 2.0)
    assert b0.term_field == pytest.approx(b0.field_norm**2)
    assert b0.term_dist == pytest.approx(b0.dist_norm**2 / H**2)
    assert b2.term_field == pytest.approx(b2.field_norm**2 / H**2)
    assert b2.term_dist == pytest.approx(b2.dist_norm**2)


def test_balance_exponent_equalizes_terms(sphere_setup):
    s, dom, grid = sphere_setup
    u = fl.random_smooth_field(6, 0.2, 4, s)
    probe = ineq.balance_form(u, grid, 2.0, 1.0)
    s0 = ineq.balance_exponent(probe.field_norm, probe.dist_norm, H)
    if 0.0 < s0 < 2.0:
        bal = ineq.balance_form(u, grid, 2.0, s0)
        assert bal.term_field == pytest.approx(bal.term_dist, rel=1e-9)


def test_balance_rejects_bad_exponent(sphere_setup):
    s, dom, grid = sphere_setup
    u = fl.random_smooth_field(6, 0.2, 4, s)
    with pytest.raises(ValueError):
        ineq.balance_form(u, grid, 2.0, 2.5)


# -- expression-level equivalence ----------------------------------------------------


def test_equivalence_balanced_case():
    rec = ineq.equivalence_check(1.0, 1.0, 0.1)
    assert rec.s_star == pytest.approx(1.0)
    assert rec.e2_star == pytest.approx(2.0 / 0.1)
    assert rec.all_ok


def test_equivalence_clamped_cases():
    h = 0.01
    # tiny field term: the minimum sits at the s = 2 endpoint
    rec = ineq.equivalence_check(h**2, 1.0, h)
    assert rec.s_star == 2.0
    assert rec.e2_star == pytest.approx(h**4 / h**2 + 1.0)
    assert rec.all_ok
    # tiny distance term: the minimum sits at the s = 0 endpoint
    rec = ineq.equivalence_check(1.0, h**2, h)
    assert rec.s_star == 0.0
    assert rec.e2_star == pytest.approx(1.0 + h**4 / h**2)
    assert rec.all_ok


def test_equivalence_random_sweep():
    rng = np.random.default_rng(11)
    for _ in range(10_000):
        a = 10.0 ** rng.uniform(-8, 8)
        b = 10.0 ** rng.uniform(-8, 8)
        h = 10.0 ** rng.uniform(-4, np.log10(0.5))
        rec = ineq.equivalence_check(a, b, h)
        assert rec.all_ok
        assert rec.e2_star >= 2.0 * a * b / h * (1 - 1e-12)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(1e-8, 1e8),
    st.floats(1e-8, 1e8),
    st.floats(1e-4, 0.499),
)
def test_equivalence_property(a, b, h):
    rec = ineq.equivalence_check(a, b, h)
    assert rec.upper_ok and rec.lower_ok and rec.amgm_ok


@settings(max_examples=200, deadline=None)
@given(
    st.floats(1e-6, 1e6),
    st.floats(1e-6, 1e6),
    st.floats(1e-4, 0.499),
    st.floats(0.0, 2.0),
)
def test_amgm_lower_bound_all_s(a, b, h, s):
    assert a * a / h**s + b * b / h ** (2.0 - s) >= 2.0 * a * b / h * (1 - 1e-12)


def test_equivalence_rejects_bad_input():
    with pytest.raises(ValueError):
        ineq.equivalence_check(0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        ineq.equivalence_check(1.0, 1.0, 1.5)


def test_report_serialization(sphere_setup):
    s, dom, grid = sphere_setup
    u = fl.ansatz_displacement(fl.default_ansatz_profile(s), s, H)
    y = fl.displacement_to_deformation(s, u, H)
    rep = ineq.interpolation_sides(y, np.eye(3), np.zeros(3), grid, 2.0, meta={"note": 1})
    d = rep.to_dict()
    assert d["variant"] == "interpolation"
    assert d["note"] == 1
    assert len(d["rotation"]) == 3
    import json

    json.dumps(d)  # JSON-safe
