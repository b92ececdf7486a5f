import dataclasses
import math

import numpy as np
import pytest

from shellrig import geometry as geo

ALL_SURFACES = ["plate", "cylinder", "sphere", "pseudosphere"]


@pytest.fixture(scope="module", params=ALL_SURFACES)
def surface(request):
    return geo.make_surface(request.param)


def _random_interior(surface, n, rng, margin=0.02):
    t0, t1, z0, z1 = surface.domain
    th = rng.uniform(t0 + margin * (t1 - t0), t1 - margin * (t1 - t0), n)
    zz = rng.uniform(z0 + margin * (z1 - z0), z1 - margin * (z1 - z0), n)
    return th, zz


# -- embed -------------------------------------------------------------------


def test_embed_sphere_midsurface_and_offset():
    s = geo.sphere(radius=1.0)
    dom = geo.ThinDomain(s, geo.shell_profile(0.1))
    p0 = geo.embed(dom, 0.0, 0.3, 1.2)
    assert np.linalg.norm(p0) == pytest.approx(1.0, abs=1e-14)
    p1 = geo.embed(dom, 0.01, 0.3, 1.2)
    assert np.linalg.norm(p1) == pytest.approx(1.01, abs=1e-14)


def test_embed_plate_cartesian_layout():
    s = geo.plate()
    dom = geo.ThinDomain(s, geo.shell_profile(0.2))
    p = geo.embed(dom, 0.07, 0.25, 0.5)
    assert p == pytest.approx([0.25, 0.5, 0.07])


def test_embed_domain_error_names_coordinate():
    s = geo.plate()
    dom = geo.ThinDomain(s, geo.shell_profile(0.1))
    with pytest.raises(geo.DomainError, match="theta"):
        geo.embed(dom, 0.0, 2.0, 0.5)
    with pytest.raises(geo.DomainError, match="z="):
        geo.embed(dom, 0.0, 0.5, -3.0)
    with pytest.raises(geo.DomainError, match="t="):
        geo.embed(dom, 0.2, 0.5, 0.5)


# -- frames ------------------------------------------------------------------


def test_frame_orthonormal_on_random_points(surface):
    rng = np.random.default_rng(1)
    th, zz = _random_interior(surface, 1000, rng)
    e = surface.frame(th, zz)
    gram = np.einsum("...ij,...ik->...jk", e, e)
    assert np.abs(gram - np.eye(3)).max() < 1e-10


def test_plate_frame_is_constant_axes():
    s = geo.plate()
    e = s.frame(0.3, 0.7)
    assert e[:, 0] == pytest.approx([0, 0, 1])  # e_t
    assert e[:, 1] == pytest.approx([1, 0, 0])  # e_theta
    assert e[:, 2] == pytest.approx([0, 1, 0])  # e_z


def test_sphere_equator_frame():
    s = geo.sphere()
    e = s.frame(0.0, np.pi / 2)
    assert e[:, 0] == pytest.approx([1, 0, 0], abs=1e-14)  # radial
    assert e[:, 1] == pytest.approx([0, 1, 0], abs=1e-14)  # azimuthal
    assert e[:, 2] == pytest.approx([0, 0, -1], abs=1e-14)  # meridional


def test_tangent_orthogonality(surface):
    rng = np.random.default_rng(2)
    th, zz = _random_interior(surface, 1000, rng)
    dot = np.abs(np.sum(surface.tangent_theta(th, zz) * surface.tangent_z(th, zz), axis=-1))
    bound = 1e-10 * np.asarray(surface.a_theta(th, zz)) * np.asarray(surface.a_z(th, zz))
    assert np.all(dot <= bound)


def test_normal_unit_length(surface):
    rng = np.random.default_rng(3)
    th, zz = _random_interior(surface, 1000, rng)
    n = np.linalg.norm(surface.normal(th, zz), axis=-1)
    assert np.abs(n - 1.0).max() < 1e-12


def test_normal_derivative_follows_curvature_convention(surface):
    # dn = +kappa dr along both coordinate lines (positive-sphere convention,
    # consistent with the (1 + t*kappa) offset factors)
    rng = np.random.default_rng(4)
    th, zz = _random_interior(surface, 200, rng, margin=0.05)
    eps = 1e-6
    dn_th = (surface.normal(th + eps, zz) - surface.normal(th - eps, zz)) / (2 * eps)
    want = np.asarray(surface.kappa_theta(th, zz))[..., None] * surface.tangent_theta(th, zz)
    assert np.abs(dn_th - want).max() < 1e-6
    dn_z = (surface.normal(th, zz + eps) - surface.normal(th, zz - eps)) / (2 * eps)
    want = np.asarray(surface.kappa_z(th, zz))[..., None] * surface.tangent_z(th, zz)
    assert np.abs(dn_z - want).max() < 1e-6


def test_frame_derivatives_match_finite_differences(surface):
    rng = np.random.default_rng(5)
    th, zz = _random_interior(surface, 100, rng, margin=0.05)
    eps = 1e-6
    nodes = surface.nodes(th, zz)
    de_th, de_z = nodes.d_theta, nodes.d_z
    fd_th = (surface.frame(th + eps, zz) - surface.frame(th - eps, zz)) / (2 * eps)
    fd_z = (surface.frame(th, zz + eps) - surface.frame(th, zz - eps)) / (2 * eps)
    assert np.abs(de_th - fd_th).max() < 1e-6
    assert np.abs(de_z - fd_z).max() < 1e-6


def test_metric_partials_match_finite_differences(surface):
    rng = np.random.default_rng(6)
    th, zz = _random_interior(surface, 100, rng, margin=0.05)
    eps = 1e-6
    pairs = [
        (surface.da_theta_dtheta, lambda a, b: (surface.a_theta(a + eps, b) - surface.a_theta(a - eps, b)) / (2 * eps)),
        (surface.da_theta_dz, lambda a, b: (surface.a_theta(a, b + eps) - surface.a_theta(a, b - eps)) / (2 * eps)),
        (surface.da_z_dtheta, lambda a, b: (surface.a_z(a + eps, b) - surface.a_z(a - eps, b)) / (2 * eps)),
        (surface.da_z_dz, lambda a, b: (surface.a_z(a, b + eps) - surface.a_z(a, b - eps)) / (2 * eps)),
    ]
    for analytic, fd in pairs:
        assert np.abs(np.asarray(analytic(th, zz)) - fd(th, zz)).max() < 1e-6


# -- curvature ----------------------------------------------------------------


def test_curvature_signs_per_surface():
    th, zz = geo.sphere(radius=2.0).interior_samples(9)
    s = geo.sphere(radius=2.0)
    assert np.allclose(s.kappa_theta(th, zz), 0.5)
    assert np.allclose(s.kappa_z(th, zz), 0.5)

    p = geo.plate()
    th, zz = p.interior_samples(9)
    assert np.allclose(p.kappa_theta(th, zz), 0.0)
    assert np.allclose(p.kappa_z(th, zz), 0.0)

    c = geo.cylinder(radius=2.0)
    th, zz = c.interior_samples(9)
    assert np.allclose(c.kappa_theta(th, zz), 0.5)
    assert np.allclose(c.kappa_z(th, zz), 0.0)

    ps = geo.pseudosphere()
    th, zz = ps.interior_samples(9)
    assert np.all(np.asarray(ps.kappa_theta(th, zz)) * np.asarray(ps.kappa_z(th, zz)) < 0)


def test_gaussian_curvature_values():
    s = geo.sphere(radius=2.0)
    th, zz = s.interior_samples(5)
    assert np.allclose(geo.gaussian_curvature(s, th, zz), 0.25)
    p = geo.plate()
    th, zz = p.interior_samples(5)
    assert np.allclose(geo.gaussian_curvature(p, th, zz), 0.0)


def test_pseudosphere_curvature_closed_form_and_range():
    ps = geo.pseudosphere(waist=1.0)
    th, zz = ps.interior_samples(21)
    k = geo.gaussian_curvature(ps, th, zz)
    want = -1.0 / np.cosh(zz) ** 4
    assert np.abs(k - want).max() < 1e-12
    assert np.all((np.abs(k) >= 0.5) & (np.abs(k) <= 2.0))


def test_h0_values():
    assert geo.sphere().h0() == pytest.approx(0.5)
    assert geo.cylinder().h0() == pytest.approx(0.5)
    assert math.isinf(geo.plate().h0())
    # curvature peak sits at the waist, sampled on interior midpoints
    assert geo.pseudosphere().h0() == pytest.approx(0.5, rel=1e-3)


@pytest.mark.parametrize("name", ALL_SURFACES)
def test_thin_domains_on_one_surface_evaluate_its_maps_once(name):
    # h0, the metric extents, the interior samples with their chart coefficients and the profile
    # check's stencil depend on the surface alone, so later domains and calls evaluate no surface map
    calls = []

    def counted(key, fn):
        def call(theta, z):
            calls.append(key)
            return fn(theta, z)
        return call

    fresh = geo.make_surface(name)
    keys = ("a_theta", "a_z", "kappa_theta", "kappa_z")
    s = dataclasses.replace(fresh, **{key: counted(key, getattr(fresh, key)) for key in keys})
    geo.ThinDomain(s, geo.bump_profile(1e-2, s))
    assert (s.h0(), s.metric_extents()) == (fresh.h0(), fresh.metric_extents())
    first = len(calls)
    for h in (3e-3, 1e-3):
        geo.ThinDomain(s, geo.shell_profile(h))
        geo.ThinDomain(s, geo.bump_profile(h, s))
    assert (s.h0(), s.metric_extents()) == (fresh.h0(), fresh.metric_extents())
    assert len(calls) == first
    th, zz = s.interior_samples(21)
    want = np.meshgrid(th[:, 0], zz[0], indexing="ij")
    assert th.tobytes() == want[0].tobytes() and zz.tobytes() == want[1].tobytes()
    for a in (th, zz, s.on_samples("kappa_z", 21), s.on_samples("a_theta", 33)):
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 0.0
    # replace builds a surface with maps of its own, so it starts a memo of its own
    assert geo._validate_surface(dataclasses.replace(s)).memo is not s.memo


# -- volume element --------------------------------------------------------------


def test_volume_jacobian_plate_is_one():
    dom = geo.ThinDomain(geo.plate(), geo.shell_profile(0.1))
    assert geo.volume_jacobian(dom, 0.03, 0.5, 0.5) == pytest.approx(1.0)


def test_volume_jacobian_sphere_colatitude():
    s = geo.sphere(radius=1.0, theta_span=(0.0, 2 * np.pi), z_span=(0.0, np.pi))
    dom = geo.ThinDomain(s, geo.shell_profile(0.05))
    zz = np.array([0.4, 1.0, 2.0])
    jac = geo.volume_jacobian(dom, np.zeros(3), np.full(3, 0.3), zz)
    assert np.allclose(jac, np.sin(zz))


def test_volume_jacobian_sphere_offset_equator():
    dom = geo.ThinDomain(geo.sphere(), geo.shell_profile(0.25))
    assert geo.volume_jacobian(dom, 0.1, 0.5, np.pi / 2) == pytest.approx(1.21)


def test_volume_jacobian_degeneracy_error():
    dom = geo.ThinDomain(geo.sphere(), geo.shell_profile(0.25))
    with pytest.raises(geo.ChartDegeneracyError):
        geo.volume_jacobian(dom, -1.5, 0.5, np.pi / 2)


# -- thickness profiles ------------------------------------------------------------


def test_shell_profile_admits_half_h():
    prof = geo.shell_profile(0.01)
    prof.validate_on(geo.sphere())
    assert prof.g1(0.5, np.pi / 2) == pytest.approx(0.005)


def test_bump_profile_satisfies_uniform_bounds():
    s = geo.sphere()
    prof = geo.bump_profile(0.01, s)
    th, zz = s.interior_samples(41)
    g1 = np.asarray(prof.g1(th, zz))
    g2 = np.asarray(prof.g2(th, zz))
    assert g1.min() >= 0.01 - 1e-15 and g2.min() >= 0.01 - 1e-15
    assert g1.max() <= 1.5 * 0.01 and g2.max() <= 1.5 * 0.01
    prof.validate_on(s)


@pytest.mark.parametrize(
    "g1_scale,g2_scale,message",
    [(0.3, 1.0, r"g1 dips below 1.0\*h"), (1.0, 0.3, r"g2 dips below 1.0\*h"),
     (2.0, 1.0, r"g1 exceeds c1\*h \(max 2.000e-02"), (1.0, 2.0, r"g2 exceeds c1\*h \(max 2.000e-02")],
    ids=["0.3-1.0", "1.0-0.3", "2.0-1.0", "1.0-2.0"],
)
def test_profile_rejects_bound_violations(g1_scale, g2_scale, message):
    h = 0.01

    def mk(scale):
        return lambda th, z: scale * h * np.ones(np.broadcast(np.asarray(th), np.asarray(z)).shape)

    prof = geo.ThicknessProfile(h=h, g1=mk(g1_scale), g2=mk(g2_scale), c1=1.5, c2=1.0)
    with pytest.raises(geo.ProfileError, match=message):
        prof.validate_on(geo.plate())


def test_profile_rejects_steep_gradient():
    h = 0.01

    def g(th, z):
        return h * (1.0 + 0.4 * np.sin(200.0 * np.asarray(th)) ** 2)

    prof = geo.ThicknessProfile(h=h, g1=g, g2=g, c1=1.5, c2=2.0)
    with pytest.raises(geo.ProfileError, match="grad"):
        prof.validate_on(geo.plate())


def test_profile_gradient_sums_both_sides_in_surface_units():
    # on a cylinder of radius 4, |grad g| = |dg/dtheta| / 4 + ...: g1's theta
    # slope 0.4 h gives 0.1 h and g2's z slope 0.3 h gives 0.3 h, 0.4 h in all
    h, s = 0.01, geo.cylinder(radius=4.0)

    def g1(th, z):
        return h * (1.0 + 0.4 * np.asarray(th)) + 0.0 * np.asarray(z)

    def g2(th, z):
        return h * (1.0 + 0.3 * np.asarray(z)) + 0.0 * np.asarray(th)

    geo.ThicknessProfile(h=h, g1=g1, g2=g2, c1=1.5, c2=0.41).validate_on(s)
    with pytest.raises(geo.ProfileError, match=r"exceeds c2\*h \(max 4.000e-03"):
        geo.ThicknessProfile(h=h, g1=g1, g2=g2, c1=1.5, c2=0.39).validate_on(s)
    # the bounds on the values are checked before the gradient
    with pytest.raises(geo.ProfileError, match=r"g1 exceeds c1\*h"):
        geo.ThicknessProfile(h=h, g1=g1, g2=g2, c1=1.35, c2=0.39).validate_on(s)


def test_thin_domain_rejects_huge_h():
    with pytest.raises((geo.ChartDegeneracyError, geo.ProfileError)):
        geo.ThinDomain(geo.sphere(), geo.shell_profile(3.0))


# -- doubling ----------------------------------------------------------------------


def test_doubling_plate_quarter():
    est = geo.doubling_ratio(geo.plate(), (0.5, 0.5), 0.02, budget=100_000)
    assert est.ratio == pytest.approx(0.25, abs=0.01)


def test_doubling_sphere_closed_form_quarter():
    # Euclidean-ball caps on the unit sphere have area pi * chord^2, so the
    # two-ball ratio is exactly 1/4 at every admissible radius
    est = geo.doubling_ratio(geo.sphere(), (0.5, np.pi / 2), 0.05, budget=150_000)
    assert est.ratio == pytest.approx(0.25, abs=0.02)
    assert est.stderr < 0.02


def test_doubling_sigma_below_one_on_all_surfaces():
    rng = np.random.default_rng(9)
    for name in ALL_SURFACES:
        s = geo.make_surface(name)
        t0, t1, z0, z1 = s.domain
        ratios = []
        for r in (0.02, 0.05):
            thc = 0.5 * (t0 + t1) + 0.05 * rng.standard_normal()
            zc = 0.5 * (z0 + z1) + 0.05 * rng.standard_normal()
            ratios.append(geo.doubling_ratio(s, (thc, zc), r, budget=60_000).ratio)
        assert max(ratios) < 1.0  # empirical sigma for this patch


def test_doubling_budget_warning():
    est = geo.doubling_ratio(geo.plate(), (0.5, 0.5), 0.05, budget=1000)
    assert any("budget" in w for w in est.warnings)


def test_make_surface_unknown_name():
    with pytest.raises(ValueError, match="unknown surface"):
        geo.make_surface("torus")


@pytest.mark.parametrize("name, key", [("cylinder", "radius"), ("sphere", "radius"), ("pseudosphere", "waist")])
@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
def test_builders_refuse_a_length_that_is_not_positive_and_finite(name, key, value):
    with pytest.raises(ValueError, match=f"{key} must be positive and finite"):
        geo.make_surface(name, **{key: value})


@pytest.mark.parametrize("member", ["a_theta", "normal", "tangent_z"])
def test_surface_checks_fail_on_nan(member):
    s = geo.sphere()
    good = getattr(s, member)
    broken = dataclasses.replace(s, **{member: lambda theta, z: good(theta, z) * math.nan})
    with pytest.raises(ValueError, match="sphere: "):
        geo._validate_surface(broken)


def test_doubling_rejects_radius_beyond_patch():
    with pytest.raises(ValueError, match="diameter"):
        geo.doubling_ratio(geo.plate(), (0.5, 0.5), 5.0)
