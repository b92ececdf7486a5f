import importlib.util
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

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


# every count up to 128 (the sharpness sweep's adaptive theta counts 51 and 110 among
# them), its counts 235 and 506, and larger odd counts: 339-345 take the centre
# series' beta coefficients from either side of the recorded table's end (a = 170)
RULE_COUNTS = (*range(2, 129), 235, 339, 341, 343, 345, 506, 613, 1001, 1599)

RULE_CHECK = """
import sys
from scipy.special import roots_legendre as reference
from shellrig.norms import roots_legendre
for n in map(int, sys.argv[1:]):
    ours, theirs = roots_legendre(n), reference(n)
    if any(a.tobytes() != b.tobytes() for a, b in zip(ours, theirs)):
        print(n)
"""


@pytest.mark.parametrize("blas_threads", [None, "1"], ids=["default-blas-threads", "one-blas-thread"])
def test_numpy_rule_has_the_bytes_of_scipys_rule(blas_threads):
    pytest.importorskip("scipy.special")
    src = str(Path(nm.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if blas_threads:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    proc = subprocess.run([sys.executable, "-c", RULE_CHECK, *map(str, RULE_COUNTS)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "", f"rules that differ: {proc.stdout.split()}"


CENTRE_DEGREES = (*range(2, 801), *range(811, 3001, 37), 3000)


def test_centre_series_has_the_bits_of_scipys_eval_legendre():
    eval_legendre = pytest.importorskip("scipy.special").eval_legendre
    x = np.concatenate([[0.0, -0.0, 1e-16, -1e-16, 1e-9, -1e-9, 9.99e-6, -9.99e-6],
                        np.random.default_rng(18).uniform(-1e-5, 1e-5, 8)])
    for n in CENTRE_DEGREES:
        ours = np.array([nm._centre_legendre(n, v) for v in x.tolist()])
        assert ours.tobytes() == eval_legendre(n, x).tobytes(), n


def test_beta_coefficients_have_the_bits_of_scipys_beta():
    beta = pytest.importorskip("scipy.special").beta
    a = np.arange(1, 5001)
    for b in (-0.5, 0.5):
        ours = np.array([nm._beta_half(int(k), b) for k in a])
        assert ours.tobytes() == beta(a + 1, b).tobytes(), b


def test_recorded_beta_table_is_what_its_script_writes():
    pytest.importorskip("scipy.special")
    script = Path(__file__).resolve().parents[1] / "scripts" / "record_legendre_beta.py"
    spec = importlib.util.spec_from_file_location("record_legendre_beta", script)
    record = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(record)
    table = Path(nm.__file__).resolve().with_name("legendre_beta.json")
    assert record.TABLE == table
    assert record.table_text() == table.read_text()


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


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("n", [7, 8, 9, 127, 128, 129, 8191, 8192, 8193, 32768])
def test_stacked_lp_sums_keep_each_fields_bits(n, p):
    # lp_norms sums a C-contiguous (fields, nodes) stack along its last axis in
    # one pass; each field must keep the bits of np.sum over its nodes alone, at
    # node counts around numpy's pairwise block (128) and buffer (8192) sizes
    rng = np.random.default_rng(n)
    grid = SimpleNamespace(resolution=(1, 1, n), weights=rng.uniform(0.0, 1e-3, (1, 1, n)))
    stack = rng.standard_normal((5, 1, 1, n, 3)) * rng.uniform(0.0, 10.0, (5, 1, 1, 1, 1))
    norms = nm.lp_norms(stack, grid, p)
    assert len(norms) == len(stack)
    for norm, values in zip(norms, stack):
        assert repr(norm) == repr(nm.lp_norm(values, grid, p))
        alone = float(np.sum(grid.weights * np.linalg.norm(values, axis=-1) ** p) ** (1.0 / p))
        assert repr(norm) == repr(alone)


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


def _norm_cases(shape, trailing, rng):
    """C-contiguous values of ``shape + trailing``: entries from 1e-150 to 1e150 of both signs, with
    exact zeros, -0.0, infs and NaNs placed at random, and a node each of zeros, -0.0, 1e-150 and -NaN.

    The NaNs of a node share one sign: which of two NaNs of opposite sign a sum returns depends on
    the operand order the compiler gave numpy's loop, so no explicit sum can promise its sign.
    """
    values = rng.choice([-1.0, 1.0], size=shape + trailing) * 10.0 ** rng.uniform(-150, 150, size=shape + trailing)
    for special in (0.0, -0.0, np.inf, -np.inf, np.nan):
        values[rng.random(values.shape) < 0.03] = special
    nodes = values.reshape((-1,) + trailing)
    nodes[0], nodes[1], nodes[2], nodes[3] = 0.0, -0.0, 1e-150, -np.nan
    return values


@pytest.mark.parametrize("lead", [(20,), ()], ids=["seed-axis", "no-seed-axis"])
@pytest.mark.parametrize("matrix", [False, True], ids=["vectors", "matrices"])
def test_frobenius_has_the_bits_of_numpys_norm(lead, matrix):
    # explicit sums in the order of numpy's reduction, on C-contiguous stacks of nodal values
    rng = np.random.default_rng(7)
    trailing = (3, 3) if matrix else (3,)
    values = _norm_cases(lead + (4, 8, 8), trailing, rng)
    expected = np.linalg.norm(values, axis=(-2, -1) if matrix else -1)
    got = nm.frobenius(values, matrix=matrix)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
    assert np.isnan(got).any() and np.isinf(got).any() and (got == 0.0).any()
    grid = SimpleNamespace(resolution=(4, 8, 8))
    stack = values if lead else values[None]
    assert nm.magnitudes(stack, grid).tobytes() == expected.reshape((-1, 4, 8, 8)).tobytes()


def test_frobenius_order_does_not_follow_the_layout():
    # a transposed view is summed in the same index order as its contiguous copy
    m = np.random.default_rng(3).normal(size=(50, 3, 3)) * 1e3
    view = np.swapaxes(m, -1, -2)
    assert nm.frobenius(view, matrix=True).tobytes() == nm.frobenius(view.copy(), matrix=True).tobytes()


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


@pytest.mark.parametrize("name", ["plate", "cylinder", "sphere", "pseudosphere"])
def test_every_grid_on_a_surface_takes_its_one_plane_geometry(name):
    # the (theta, z) geometry depends on the surface and (ntheta, nz) alone, so
    # grids of every profile, h and nt take the plane the surface keeps
    s = geo.make_surface(name)
    plane = nm.plane_nodes(s, (3, 12, 10))
    for profile, h, nt in (("shell", 1e-3, 3), ("shell", 2e-2, 4), ("bump", 2e-2, 3), ("bump", 1e-2, 5)):
        grid = nm.build_grid(geo.ThinDomain(s, geo.make_profile(profile, h, s)), (nt, 12, 10))
        assert grid.nodes is plane

    def arrays(n):
        return (n.position, n.frame, n.d_theta, n.d_z, *n.coeffs)

    fresh = s.nodes(grid.theta[:, None], grid.z[None, :])
    for got, want in zip(arrays(plane), arrays(fresh)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # a grid on another surface object evaluates a plane of its own, with the same bits
    elsewhere = nm.build_grid(geo.ThinDomain(geo.make_surface(name), geo.shell_profile(2e-2)), (3, 12, 10))
    assert elsewhere.nodes is not plane
    for got, want in zip(arrays(elsewhere.nodes), arrays(plane)):
        assert got.tobytes() == want.tobytes()
    # other node counts replace the kept plane; a grid keeps the plane it took
    other = nm.build_grid(grid.domain, (3, 14, 10))
    assert other.nodes is not plane and nm.plane_nodes(s, (3, 14, 10)) is other.nodes
    assert nm.plane_nodes(s, (3, 12, 10)) is not plane and grid.nodes is plane


@pytest.mark.parametrize("resolution", [(3, 17, 11), (4, 16, 12), (4, 506, 16)], ids=lambda r: "x".join(map(str, r)))
@pytest.mark.parametrize("profile", geo.PROFILES)
@pytest.mark.parametrize("name", ["plate", "cylinder", "sphere", "pseudosphere"])
def test_volume_element_on_the_plane_has_the_bits_of_the_grid_evaluation(name, profile, resolution, monkeypatch):
    # build_grid evaluates the chart maps on the (theta, z) nodes; on broadcast
    # (nt, ntheta, nz) copies, as it did before, the weights have the same bits
    s = geo.make_surface(name)
    domain = geo.ThinDomain(s, geo.make_profile(profile, 1e-2, s))
    grid = nm.build_grid(domain, resolution)
    jacobian = geo.volume_jacobian

    def on_the_grid(domain, t, theta, z):
        assert theta.shape == (resolution[1], 1) and z.shape == (1, resolution[2])
        return jacobian(domain, t, np.broadcast_to(theta, t.shape), np.broadcast_to(z, t.shape))

    monkeypatch.setattr(nm, "volume_jacobian", on_the_grid)
    want = nm.build_grid(domain, resolution)
    assert grid.weights.shape == resolution
    assert grid.weights.tobytes() == want.weights.tobytes()
