import numpy as np
import pytest

from shellrig import fields as fl
from shellrig import geometry as geo
from shellrig import matrixops as mo

ALL_SURFACES = ["plate", "cylinder", "sphere", "pseudosphere"]
RNG = np.random.default_rng(100)


def _interior_points(surface, n, rng, h):
    t0, t1, z0, z1 = surface.domain
    th = rng.uniform(t0 + 0.1 * (t1 - t0), t1 - 0.1 * (t1 - t0), n)
    zz = rng.uniform(z0 + 0.1 * (z1 - z0), z1 - 0.1 * (z1 - z0), n)
    tt = rng.uniform(-h / 4, h / 4, n)
    return tt, th, zz


@pytest.fixture(scope="module", params=ALL_SURFACES)
def surface(request):
    return geo.make_surface(request.param)


@pytest.fixture(scope="module")
def domain(surface):
    return geo.ThinDomain(surface, geo.shell_profile(0.05))


# -- basic gradient identities -------------------------------------------------


def test_identity_deformation_gradient_is_identity(surface):
    rng = np.random.default_rng(0)
    tt, th, zz = _interior_points(surface, 200, rng, 0.05)
    g = fl.frame_gradient(fl.identity_deformation(surface), surface, tt, th, zz)
    assert np.abs(g - np.eye(3)).max() < 1e-12


def test_rigid_motion_annihilation(surface):
    rng = np.random.default_rng(1)
    tt, th, zz = _interior_points(surface, 100, rng, 0.05)
    for _ in range(20):
        q = mo.random_rotation(rng)
        c = rng.normal(size=3)
        y = fl.rigid_deformation(surface, q, c)
        g = fl.frame_gradient(y, surface, tt, th, zz)
        assert mo.dist_SO3(g).max() < 1e-10
        # gradient is the frame representation of q, singular values all 1
        s = np.linalg.svd(g, compute_uv=False)
        assert np.abs(s - 1.0).max() < 1e-12


def test_component_partial_consistency(surface):
    # analytic partials match finite differences of the components
    rng = np.random.default_rng(2)
    tt, th, zz = _interior_points(surface, 100, rng, 0.05)
    step = 1e-4
    for f in (
        fl.identity_deformation(surface),
        fl.random_smooth_field(5, 0.3, 4, surface),
    ):
        p = f.partials(tt, th, zz)
        fd = np.empty_like(p)
        for j, d in enumerate([(step, 0, 0), (0, step, 0), (0, 0, step)]):
            fd[..., :, j] = (
                f.components(tt + d[0], th + d[1], zz + d[2])
                - f.components(tt - d[0], th - d[1], zz - d[2])
            ) / (2 * step)
        assert np.abs(p - fd).max() < 1e-6


# -- oracle agreement -----------------------------------------------------------


def test_oracle_agreement_and_convergence_order(surface, domain):
    rng = np.random.default_rng(3)
    tt, th, zz = _interior_points(surface, 100, rng, domain.h)
    for seed in (11, 12, 13):
        f = fl.random_smooth_field(seed, 0.5, 4, surface)
        g = fl.frame_gradient(f, surface, tt, th, zz)
        e1 = np.linalg.norm(
            g - fl.euclidean_gradient_oracle(f, domain, tt, th, zz, step=1e-4),
            axis=(-2, -1),
        )
        e2 = np.linalg.norm(
            g - fl.euclidean_gradient_oracle(f, domain, tt, th, zz, step=2e-4),
            axis=(-2, -1),
        )
        assert e1.max() < 1e-5
        ratio = e2.sum() / e1.sum()
        assert 3.5 < ratio < 4.5


def test_oracle_on_rigid_motion(surface, domain):
    rng = np.random.default_rng(4)
    tt, th, zz = _interior_points(surface, 50, rng, domain.h)
    q = mo.random_rotation(rng)
    y = fl.rigid_deformation(surface, q, rng.normal(size=3))
    g_o = fl.euclidean_gradient_oracle(y, domain, tt, th, zz, step=1e-4)
    s = np.linalg.svd(g_o, compute_uv=False)
    assert np.abs(s - 1.0).max() < 1e-7


def test_oracle_step_exits_chart(domain):
    with pytest.raises(geo.DomainError, match="step"):
        fl.euclidean_gradient_oracle(
            fl.identity_deformation(domain.surface),
            domain,
            np.array([0.0249]),
            np.array([0.5]),
            np.array([domain.surface.domain[2] + 0.5]),
            step=1e-3,
        )


def test_frame_gradient_requires_nondegenerate_chart():
    s = geo.make_surface("sphere")
    f = fl.identity_deformation(s)
    with pytest.raises(geo.ChartDegeneracyError):
        fl.frame_gradient(f, s, np.array([-2.0]), np.array([0.5]), np.array([np.pi / 2]))


# -- frame-change consistency -----------------------------------------------------


def _swap_chart(surface: geo.ParamSurface) -> geo.ParamSurface:
    """The same geometric patch with the roles of theta and z exchanged; the normal is unchanged."""
    t0, t1, z0, z1 = surface.domain

    def swap2(f):
        return lambda theta, z: f(z, theta)

    return geo.ParamSurface(
        name=surface.name + "-swapped",
        domain=(z0, z1, t0, t1),
        position=swap2(surface.position),
        tangent_theta=swap2(surface.tangent_z),
        tangent_z=swap2(surface.tangent_theta),
        normal=swap2(surface.normal),
        a_theta=swap2(surface.a_z),
        a_z=swap2(surface.a_theta),
        kappa_theta=swap2(surface.kappa_z),
        kappa_z=swap2(surface.kappa_theta),
        da_theta_dtheta=swap2(surface.da_z_dz),
        da_theta_dz=swap2(surface.da_z_dtheta),
        da_z_dtheta=swap2(surface.da_theta_dz),
        da_z_dz=swap2(surface.da_theta_dtheta),
    )


def test_swap_chart_preserves_geometry():
    s = geo.sphere()
    sw = _swap_chart(s)
    rng = np.random.default_rng(11)
    _, th, zz = _interior_points(s, 50, rng, 0.05)
    assert np.allclose(sw.position(zz, th), s.position(th, zz))
    assert np.allclose(sw.normal(zz, th), s.normal(th, zz))
    assert np.allclose(np.asarray(sw.a_theta(zz, th)), np.asarray(s.a_z(th, zz)))
    assert np.allclose(np.asarray(sw.kappa_z(zz, th)), np.asarray(s.kappa_theta(th, zz)))


def test_frobenius_invariant_under_chart_relabelling():
    s = geo.make_surface("sphere")
    sw = _swap_chart(s)
    f = fl.random_smooth_field(6, 0.4, 4, s)

    # the same field written in the swapped chart: components and partials
    # permute with the coordinates (t, theta, z) -> (t, z, theta)
    perm = np.array([0, 2, 1])

    def comp_sw(t, th, zz):
        return f.components(t, zz, th)[..., perm]

    def par_sw(t, th, zz):
        p = f.partials(t, zz, th)
        return p[..., perm, :][..., :, perm]

    f_sw = fl.FrameField(comp_sw, par_sw, kind=f.kind)
    rng = np.random.default_rng(7)
    tt, th, zz = _interior_points(s, 100, rng, 0.05)
    g = fl.frame_gradient(f, s, tt, th, zz)
    g_sw = fl.frame_gradient(f_sw, sw, tt, zz, th)
    assert np.abs(
        np.linalg.norm(g, axis=(-2, -1)) - np.linalg.norm(g_sw, axis=(-2, -1))
    ).max() < 1e-10


# -- linear strain: the symmetric part of the frame gradient -----------------------


def _strain(u, surface, t, theta, z):
    g = fl.frame_gradient(u, surface, t, theta, z)
    return 0.5 * (g + np.swapaxes(g, -1, -2))


def test_linear_strain_annihilates_skew_maps(surface):
    rng = np.random.default_rng(8)
    w = rng.normal(size=(3, 3))
    w = 0.5 * (w - w.T)
    ident = fl.identity_deformation(surface)
    skew = fl.transform_rigid(ident, surface, w, np.zeros(3))
    u = fl.FrameField(skew.components, skew.partials, kind="displacement")
    tt, th, zz = _interior_points(surface, 100, rng, 0.05)
    e = _strain(u, surface, tt, th, zz)
    assert np.abs(e).max() < 1e-10


def test_linear_strain_of_identity_displacement(surface):
    ident = fl.identity_deformation(surface)
    u = fl.FrameField(ident.components, ident.partials, kind="displacement")
    rng = np.random.default_rng(9)
    tt, th, zz = _interior_points(surface, 50, rng, 0.05)
    e = _strain(u, surface, tt, th, zz)
    assert np.abs(e - np.eye(3)).max() < 1e-12


# -- random fields -----------------------------------------------------------------


def test_random_field_deterministic(surface):
    a = fl.random_smooth_field(42, 0.2, 4, surface)
    b = fl.random_smooth_field(42, 0.2, 4, surface)
    rng = np.random.default_rng(10)
    tt, th, zz = _interior_points(surface, 50, rng, 0.05)
    assert np.array_equal(a.components(tt, th, zz), b.components(tt, th, zz))
    assert np.array_equal(a.partials(tt, th, zz), b.partials(tt, th, zz))


def test_random_field_zero_amplitude(surface):
    f = fl.random_smooth_field(1, 0.0, 4, surface)
    rng = np.random.default_rng(11)
    tt, th, zz = _interior_points(surface, 20, rng, 0.05)
    assert np.all(f.components(tt, th, zz) == 0.0)


def test_random_field_finite_on_grids(surface):
    from shellrig import norms as nm

    dom = geo.ThinDomain(surface, geo.shell_profile(0.02))
    grid = nm.build_grid(dom, (4, 16, 16))
    f = fl.random_smooth_field(1, 0.1, 4, surface)
    t, th, zz = grid.mesh()
    assert np.all(np.isfinite(f.components(t, th, zz)))
    assert np.all(np.isfinite(f.partials(t, th, zz)))
    for p in (1.5, 2.0, 4.0):
        assert np.isfinite(nm.lp_norm(f.components(t, th, zz), grid, p))


def test_random_field_on_grid_axes_is_bit_identical_to_the_mesh(surface):
    from shellrig import norms as nm

    grid = nm.build_grid(geo.ThinDomain(surface, geo.shell_profile(0.02)), (3, 9, 7))
    f = fl.random_smooth_field(3, 0.2, 4, surface)
    axes, mesh = (grid.t, *grid.plane), grid.mesh()
    assert f.components(*axes).tobytes() == f.components(*mesh).tobytes()
    assert f.partials(*axes).tobytes() == f.partials(*mesh).tobytes()
    assert f.components(*axes).shape == grid.resolution + (3,)
    assert f.partials(*axes).shape == grid.resolution + (3, 3)


@pytest.mark.parametrize(
    "shapes", [((), (), ()), ((5,), (5,), (5,)), ((), (4,), ()), ((2, 1, 1), (3, 1), (4,)), ((3, 1), (1, 4), ())]
)
def test_random_field_output_has_the_broadcast_shape(shapes):
    s = geo.make_surface("sphere")
    f = fl.random_smooth_field(8, 0.3, 3, s)
    rng = np.random.default_rng(12)
    t0, t1, z0, z1 = s.domain
    t = rng.uniform(-0.01, 0.01, shapes[0])
    th = rng.uniform(t0, t1, shapes[1])
    zz = rng.uniform(z0, z1, shapes[2])
    full = np.broadcast_shapes(*shapes)
    comp, par = f.components(t, th, zz), f.partials(t, th, zz)
    assert comp.shape == full + (3,)
    assert par.shape == full + (3, 3)
    mesh = np.broadcast_arrays(t, th, zz)
    assert comp.tobytes() == f.components(*mesh).tobytes()
    assert par.tobytes() == f.partials(*mesh).tobytes()


# -- bending-type displacement ------------------------------------------------------


@pytest.fixture(scope="module")
def sphere_profile():
    return fl.default_ansatz_profile(geo.make_surface("sphere"))


def test_ansatz_zero_profile_gives_zero_field():
    s = geo.make_surface("sphere")
    zero = lambda xi, z: np.zeros(np.broadcast(np.asarray(xi), np.asarray(z)).shape)
    prof = fl.AnsatzProfile(
        w=zero, w_xi=zero, w_z=zero, w_xixi=zero, w_xiz=zero, w_zz=zero,
        xi_halfwidth=1.0, z_center=np.pi / 2, z_halfwidth=0.4,
    )
    with pytest.raises(ValueError, match="identically zero"):
        prof.support_check()


def test_ansatz_component_scaling(sphere_profile):
    s = geo.make_surface("sphere")
    rng = np.random.default_rng(12)
    for h in (1e-1, 1e-2, 1e-3):
        u = fl.ansatz_displacement(sphere_profile, s, h)
        thc = 0.5 * (s.domain[0] + s.domain[1])
        th = thc + np.sqrt(h) * rng.uniform(-0.95, 0.95, 400)
        zz = sphere_profile.z_center + sphere_profile.z_halfwidth * rng.uniform(-0.95, 0.95, 400)
        c = u.components(np.full(400, h / 2), th, zz)
        ratio = np.abs(c[:, 1]).max() / np.abs(c[:, 0]).max()
        assert 0.2 * np.sqrt(h) < ratio < 5.0 * np.sqrt(h)


def test_ansatz_partials_consistent(sphere_profile):
    s = geo.make_surface("sphere")
    h = 1e-2
    u = fl.ansatz_displacement(sphere_profile, s, h)
    rng = np.random.default_rng(13)
    thc = 0.5 * (s.domain[0] + s.domain[1])
    th = thc + np.sqrt(h) * rng.uniform(-0.9, 0.9, 100)
    zz = sphere_profile.z_center + sphere_profile.z_halfwidth * rng.uniform(-0.9, 0.9, 100)
    tt = rng.uniform(-h / 4, h / 4, 100)
    p = u.partials(tt, th, zz)
    step = 1e-6
    fd = np.empty_like(p)
    for j, d in enumerate([(step, 0, 0), (0, step, 0), (0, 0, step)]):
        fd[..., :, j] = (
            u.components(tt + d[0], th + d[1], zz + d[2])
            - u.components(tt - d[0], th - d[1], zz - d[2])
        ) / (2 * step)
    assert np.abs(p - fd).max() < 1e-5


def test_ansatz_vanishes_outside_scaled_support(sphere_profile):
    s = geo.make_surface("sphere")
    for h in (1e-1, 1e-2, 1e-3):
        u = fl.ansatz_displacement(sphere_profile, s, h)
        thc = 0.5 * (s.domain[0] + s.domain[1])
        outside_th = np.array([thc + 1.05 * np.sqrt(h), thc - 1.05 * np.sqrt(h), s.domain[0] + 1e-3])
        tt = np.full(3, h / 4)
        zz = np.full(3, sphere_profile.z_center)
        assert np.all(u.components(tt, outside_th, zz) == 0.0)
        assert np.all(u.partials(tt, outside_th, zz) == 0.0)
        outside_z = np.array([sphere_profile.z_center + 1.01 * sphere_profile.z_halfwidth])
        assert np.all(u.components(np.array([h / 4]), np.array([thc]), outside_z) == 0.0)


def test_ansatz_strain_smaller_than_gradient(sphere_profile):
    s = geo.make_surface("sphere")
    rng = np.random.default_rng(14)
    factors = []
    for h in (1e-2, 1e-3):
        u = fl.ansatz_displacement(sphere_profile, s, h)
        thc = 0.5 * (s.domain[0] + s.domain[1])
        th = thc + np.sqrt(h) * rng.uniform(-0.9, 0.9, 400)
        zz = sphere_profile.z_center + sphere_profile.z_halfwidth * rng.uniform(-0.9, 0.9, 400)
        tt = rng.uniform(-h / 2, h / 2, 400)
        g = fl.frame_gradient(u, s, tt, th, zz)
        e = 0.5 * (g + np.swapaxes(g, -1, -2))
        gmax = np.linalg.norm(g, axis=(-2, -1)).max()
        emax = np.linalg.norm(e, axis=(-2, -1)).max()
        factors.append(gmax / emax)
    assert factors[0] > 1.0
    assert factors[1] > factors[0]  # separation grows as h decreases


def test_ansatz_deformation_gradient_tends_to_rotations(sphere_profile):
    s = geo.make_surface("sphere")
    h = 1e-2
    u = fl.ansatz_displacement(sphere_profile, s, h)
    rng = np.random.default_rng(15)
    thc = 0.5 * (s.domain[0] + s.domain[1])
    th = thc + np.sqrt(h) * rng.uniform(-0.9, 0.9, 200)
    zz = sphere_profile.z_center + sphere_profile.z_halfwidth * rng.uniform(-0.9, 0.9, 200)
    tt = rng.uniform(-h / 2, h / 2, 200)
    prev = np.inf
    for eps in (1e-2, 1e-3, 1e-4):
        y = fl.displacement_to_deformation(s, u, eps)
        d = mo.dist_SO3(fl.frame_gradient(y, s, tt, th, zz)).max()
        assert d < prev
        prev = d
    assert prev < 1e-3


def test_ansatz_support_errors():
    s = geo.sphere(theta_span=(0.0, 0.05))
    prof = fl.default_ansatz_profile(s)
    with pytest.raises(ValueError, match="smaller xi_halfwidth or a larger patch"):
        fl.ansatz_displacement(prof, s, 1e-2)
    s2 = geo.make_surface("sphere")
    prof2 = fl.default_ansatz_profile(s2)
    with pytest.raises(ValueError, match="below the chart bound"):
        fl.ansatz_displacement(prof2, s2, 0.6)


def test_make_field_registry():
    dom = geo.ThinDomain(geo.make_surface("sphere"), geo.shell_profile(0.01))
    assert fl.make_field("identity", dom).kind == "deformation"
    assert fl.make_field("rigid:3", dom).kind == "deformation"
    assert fl.make_field("ansatz", dom).kind == "displacement"
    assert fl.make_field("random:2", dom).kind == "displacement"
    with pytest.raises(ValueError, match="unknown field"):
        fl.make_field("vortex", dom)


# -- sampled user fields ---------------------------------------------------------


def test_sampled_displacement_roundtrip(tmp_path):
    from shellrig import norms as nm

    s = geo.make_surface("sphere")
    h = 2e-2
    dom = geo.ThinDomain(s, geo.shell_profile(h))
    grid = nm.build_grid(dom, (6, 48, 48))
    f = fl.random_smooth_field(9, 0.2, 3, s)
    t, th, zz = grid.mesh()
    vals = f.components(t, th, zz)
    path = tmp_path / "field.csv"
    nm.write_samples_csv(path, grid, vals)

    u = fl.sampled_displacement(path, dom)
    assert np.abs(u.components(t, th, zz) - vals).max() < 1e-14
    rng = np.random.default_rng(0)
    tt = rng.uniform(-h / 4, h / 4, 50)
    thq = rng.uniform(0.1, 0.9, 50)
    zq = rng.uniform(np.pi / 2 - 0.4, np.pi / 2 + 0.4, 50)
    assert np.abs(u.components(tt, thq, zq) - f.components(tt, thq, zq)).max() < 5e-3
    assert np.abs(u.partials(tt, thq, zq) - f.partials(tt, thq, zq)).max() < 0.1
    assert nm.lp_norm(u.components(t, th, zz), grid, 2.0) == pytest.approx(
        nm.lp_norm(vals, grid, 2.0), rel=1e-12
    )


def test_sampled_displacement_rejects_ragged_samples(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("t,theta,z,v1,v2,v3\n0,0.5,1.5,1,0,0\n0,0.6,1.5,1,0,0\n0.1,0.5,1.5,1,0,0\n")
    dom = geo.ThinDomain(geo.make_surface("sphere"), geo.shell_profile(0.02))
    with pytest.raises(ValueError):
        fl.sampled_displacement(path, dom)

