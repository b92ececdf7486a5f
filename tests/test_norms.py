import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from shellrig import fields as fl
from shellrig import geometry as geo
from shellrig import norms as nm


@pytest.fixture(scope="module")
def plate_grid():
    dom = geo.ThinDomain(geo.plate(), geo.shell_profile(0.02))
    return nm.build_grid(dom, (4, 8, 8))


# -- weight sums / volumes ---------------------------------------------------


def test_plate_volume_exact_at_minimal_resolution():
    dom = geo.ThinDomain(geo.plate(), geo.shell_profile(0.01))
    grid = nm.build_grid(dom, (2, 2, 2))
    assert abs(grid.volume - 0.01) < 1e-12


def test_full_sphere_shell_volume_converges():
    s = geo.sphere(radius=1.0, theta_span=(0.0, 2 * np.pi), z_span=(0.0, np.pi))
    h = 0.05
    dom = geo.ThinDomain(s, geo.shell_profile(h))
    exact = 4 * np.pi * h * (1 + h**2 / 12)
    errs = [abs(nm.build_grid(dom, r).volume - exact) for r in [(2, 4, 4), (4, 16, 16), (8, 64, 64)]]
    assert errs[-1] < 1e-10
    assert errs[-1] <= errs[0]


def test_sphere_patch_volume_matches_closed_form():
    s = geo.make_surface("sphere")
    h = 0.03
    dom = geo.ThinDomain(s, geo.shell_profile(h))
    t0, t1, z0, z1 = s.domain
    exact = (t1 - t0) * (np.cos(z0) - np.cos(z1)) * (h + h**3 / 12)
    grid = nm.build_grid(dom, (8, 64, 64))
    assert abs(grid.volume - exact) < 1e-10


def test_bump_profile_volume_within_uniform_bounds():
    s = geo.make_surface("sphere")
    h = 0.01
    dom = geo.ThinDomain(s, geo.bump_profile(h, s))
    grid = nm.build_grid(dom, (6, 32, 32))
    th, zz = s.interior_samples(64)
    dens = np.asarray(s.a_theta(th, zz)) * np.asarray(s.a_z(th, zz))
    t0, t1, z0, z1 = s.domain
    area = dens.mean() * (t1 - t0) * (z1 - z0)
    jac_slack = 1.05  # offset factors 1 + t*kappa stay within 5% at this h
    assert area * 2 * h / jac_slack <= grid.volume <= area * 2 * 1.3 * h * jac_slack


def test_grid_rejects_tiny_resolution():
    dom = geo.ThinDomain(geo.plate(), geo.shell_profile(0.01))
    with pytest.raises(ValueError):
        nm.build_grid(dom, (1, 8, 8))


def test_gauss_legendre_rule_is_computed_once_per_node_count(monkeypatch):
    calls = []
    roots = nm.roots_legendre
    monkeypatch.setattr(nm, "roots_legendre", lambda n: calls.append(n) or roots(n))
    nm._gauss_legendre.cache_clear()
    s = geo.make_surface("sphere")
    domain = geo.ThinDomain(s, geo.make_profile("bump", 0.05, s))
    a = nm.build_grid(domain, (3, 21, 21))
    b = nm.build_grid(domain, (3, 21, 21))
    assert sorted(calls) == [3, 21]
    assert a.t.tobytes() == b.t.tobytes() and a.weights.tobytes() == b.weights.tobytes()
    for n in (3, 21):
        nodes, weights = nm._gauss_legendre(n)
        assert not nodes.flags.writeable and not weights.flags.writeable
        fresh = roots(n)
        assert nodes.tobytes() == fresh[0].tobytes() and weights.tobytes() == fresh[1].tobytes()
    assert sorted(calls) == [3, 21]


def test_domain_construction_catches_degeneracy():
    s = geo.make_surface("sphere")
    prof = geo.ThicknessProfile(
        h=0.4,
        g1=lambda th, z: 1.4 * np.ones(np.broadcast(np.asarray(th), np.asarray(z)).shape),
        g2=lambda th, z: 0.4 * np.ones(np.broadcast(np.asarray(th), np.asarray(z)).shape),
        c1=3.6,
        c2=1.0,
    )
    with pytest.raises(geo.ChartDegeneracyError):
        geo.ThinDomain(s, prof)


def test_grid_degeneracy_error_reports_node():
    # a thickness spike close to the chart edge slips past the coarse
    # construction-time sampling but hits a Gauss node
    s = geo.make_surface("sphere")
    h = 0.4

    def g1(th, z):
        th = np.asarray(th)
        base = np.broadcast(th, np.asarray(z)).shape
        return np.where(th < 2e-3, 1.4, 0.4) * np.ones(base)

    def g2(th, z):
        return 0.4 * np.ones(np.broadcast(np.asarray(th), np.asarray(z)).shape)

    prof = geo.ThicknessProfile(h=h, g1=g1, g2=g2, c1=4.0, c2=1.0)
    dom = geo.ThinDomain(s, prof)
    with pytest.raises(geo.ChartDegeneracyError):
        nm.build_grid(dom, (4, 64, 16))


# -- lp norms ------------------------------------------------------------------


def test_constant_function_norm(plate_grid):
    ones = np.ones(plate_grid.resolution)
    for p in (1.5, 2.0, 3.0):
        assert nm.lp_norm(ones, plate_grid, p) == pytest.approx(plate_grid.volume ** (1 / p))


def test_lp_monotonicity_for_small_values(plate_grid):
    # for |values| <= 1 the p-th power mass decreases in p, while on a
    # volume <= 1 domain the rooted norm itself is nondecreasing in p
    rng = np.random.default_rng(0)
    v = rng.uniform(0.0, 1.0, plate_grid.resolution)
    ps = (1.5, 2.0, 3.0, 6.0)
    masses = [float(np.sum(plate_grid.weights * v**p)) for p in ps]
    assert all(a >= b for a, b in zip(masses, masses[1:]))
    norms = [nm.lp_norm(v, plate_grid, p) for p in ps]
    assert all(a <= b + 1e-15 for a, b in zip(norms, norms[1:]))
    assert plate_grid.volume <= 1.0


def test_polynomial_closed_form(plate_grid):
    t, th, zz = plate_grid.mesh()
    # integral of (theta * z^2)^2 over [0,1]^2 x (-h/2, h/2) is h/15
    v = th * zz**2
    h = plate_grid.domain.h
    assert nm.lp_norm(v, plate_grid, 2.0) == pytest.approx(np.sqrt(h / 15.0), abs=1e-14)


def test_unsupported_p(plate_grid):
    ones = np.ones(plate_grid.resolution)
    for p in (1.0, 0.5, np.inf):
        with pytest.raises(ValueError):
            nm.lp_norm(ones, plate_grid, p)


def test_matrix_and_vector_magnitudes(plate_grid):
    vec = np.ones(plate_grid.resolution + (3,))
    mat = np.zeros(plate_grid.resolution + (3, 3))
    mat[..., 0, 0] = 3.0
    v = nm.lp_norm(vec, plate_grid, 2.0)
    assert v == pytest.approx(np.sqrt(3.0) * plate_grid.volume**0.5)
    m = nm.lp_norm(mat, plate_grid, 2.0)
    assert m == pytest.approx(3.0 * plate_grid.volume**0.5)


def test_norm_rejects_nonfinite(plate_grid):
    v = np.ones(plate_grid.resolution)
    v[0, 0, 0] = np.inf
    with pytest.raises(ValueError):
        nm.lp_norm(v, plate_grid, 2.0)


@settings(max_examples=50, deadline=None)
@given(
    arrays(np.float64, (4, 8, 8), elements=st.floats(-10, 10)),
    arrays(np.float64, (4, 8, 8), elements=st.floats(-10, 10)),
    st.floats(1.2, 8.0),
)
def test_triangle_inequality_and_homogeneity(a, b, p):
    dom = geo.ThinDomain(geo.plate(), geo.shell_profile(0.02))
    grid = nm.build_grid(dom, (4, 8, 8))
    na = nm.lp_norm(a, grid, p)
    nb = nm.lp_norm(b, grid, p)
    nab = nm.lp_norm(a + b, grid, p)
    assert nab <= na + nb + 1e-12 * (1 + na + nb)
    assert nm.lp_norm(2.5 * a, grid, p) == pytest.approx(2.5 * na, rel=1e-12, abs=1e-12)


def test_refinement_convergence_order():
    s = geo.make_surface("sphere")
    dom = geo.ThinDomain(s, geo.shell_profile(0.05))

    def norm_at(res):
        grid = nm.build_grid(dom, res)
        t, th, zz = grid.mesh()
        v = np.sin(3.0 * th) * np.cos(2.0 * zz) + t
        return nm.lp_norm(v, grid, 2.0)

    ref = norm_at((12, 48, 48))
    e1 = abs(norm_at((3, 6, 6)) - ref)
    e2 = abs(norm_at((6, 12, 12)) - ref)
    order = np.log2(e1 / e2)
    assert order >= 3.0


def test_weighted_mean_of_vector(plate_grid):
    t, th, zz = plate_grid.mesh()
    v = np.stack([th, zz, np.ones_like(th)], axis=-1)
    m = nm.weighted_mean(v, plate_grid)
    assert m == pytest.approx([0.5, 0.5, 1.0], abs=1e-12)


# -- sampled-field CSV schema ---------------------------------------------------


def test_samples_csv_roundtrip(tmp_path, plate_grid):
    f = fl.random_smooth_field(3, 0.2, 3, plate_grid.domain.surface)
    t, th, zz = plate_grid.mesh()
    vals = f.components(t, th, zz)
    path = tmp_path / "field.csv"
    nm.write_samples_csv(path, plate_grid, vals)
    t_r, th_r, zz_r, v_r = nm.read_samples_csv(path)
    assert np.allclose(t_r, t.reshape(-1))
    assert np.allclose(v_r, vals.reshape(-1, 3))
    header = path.read_text().splitlines()[0]
    assert header == "t,theta,z,v1,v2,v3"


def test_samples_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        nm.read_samples_csv(path)


@pytest.mark.parametrize("name", ["cylinder", "pseudosphere"])
def test_grid_on_another_profile_shares_the_plane_geometry(name):
    s = geo.make_surface(name)
    resolution = (3, 12, 10)
    bump = nm.build_grid(geo.ThinDomain(s, geo.make_profile("bump", 2e-2, s)), resolution)
    shell = geo.ThinDomain(s, geo.shell_profile(2e-2))
    shared = bump.on_domain(shell)
    fresh = nm.build_grid(shell, resolution)
    assert shared.nodes is bump.nodes and shared.domain is shell

    def arrays(g):
        n = g.nodes
        return (n.position, n.frame, n.d_theta, n.d_z, *n.coeffs, g.t, g.theta, g.z, g.weights)

    for got, want in zip(arrays(shared), arrays(fresh)):
        assert got.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="only with a domain on its surface"):
        bump.on_domain(geo.ThinDomain(geo.make_surface(name), geo.shell_profile(2e-2)))
