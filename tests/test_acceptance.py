"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Shared heavy artifacts (the default-resolution and
double-resolution sharpness sweeps) are computed once per session.
"""

import math
import time

import numpy as np
import pytest

from shellrig import experiments as ex
from shellrig import fields as fl
from shellrig import geometry as geo
from shellrig import inequality as ineq
from shellrig import localization as loc
from shellrig import matrixops as mo
from shellrig import norms as nm


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


SHARPNESS_CONFIG = dict(
    surface="sphere",
    p=2.0,
    h_min=1e-3,
    h_max=1e-1,
    num_h=9,
    field="ansatz",
    eps_rule="h",
)


@pytest.fixture(scope="session")
def sharpness_sweep():
    cfg = ex.SweepConfig(nt=8, ntheta=64, nz=64, **SHARPNESS_CONFIG)
    start = time.perf_counter()
    res = ex.run_sweep(cfg)
    korn = ex.korn_sweep(cfg)
    return res, korn, time.perf_counter() - start


@pytest.fixture(scope="session")
def sharpness_sweep_doubled():
    cfg = ex.SweepConfig(nt=16, ntheta=128, nz=128, **SHARPNESS_CONFIG)
    return ex.run_sweep(cfg)


def test_criterion_1_frame_gradient_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(314)
    worst_err = 0.0
    orders = []
    for name in ("sphere", "cylinder", "plate", "pseudosphere"):
        surface = geo.make_surface(name)
        domain = geo.ThinDomain(surface, geo.shell_profile(0.05))
        t0, t1, z0, z1 = surface.domain
        th = rng.uniform(t0 + 0.1 * (t1 - t0), t1 - 0.1 * (t1 - t0), 100)
        zz = rng.uniform(z0 + 0.1 * (z1 - z0), z1 - 0.1 * (z1 - z0), 100)
        tt = rng.uniform(-0.0125, 0.0125, 100)
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
            worst_err = max(worst_err, float(e1.max()))
            orders.append(math.log2(e2.sum() / e1.sum()))
    elapsed = time.perf_counter() - start
    ok = worst_err <= 1e-5 and all(1.8 <= o <= 2.2 for o in orders) and elapsed < 10.0
    _report(
        "criterion-1 frame-gradient",
        ok,
        f"max err {worst_err:.2e} (tol 1e-5), order in "
        f"[{min(orders):.3f}, {max(orders):.3f}], {elapsed:.1f}s",
    )


def test_criterion_2_dist_so3_brute_force():
    start = time.perf_counter()
    exact_1 = float(mo.dist_SO3(np.diag([2.0, 1.0, 1.0])))
    exact_2 = float(mo.dist_SO3(np.diag([1.0, 1.0, -1.0])))
    rng = np.random.default_rng(271)
    f = rng.normal(size=(200, 3, 3))
    neg = np.linalg.det(f[:100]) > 0
    f[:100][neg] = -f[:100][neg]  # half the batch has negative determinant
    rots = mo.quasi_uniform_rotations(300_000)
    gap = np.abs(mo.brute_force_dist_SO3(f, rots) - mo.dist_SO3(f))
    elapsed = time.perf_counter() - start
    ok = (
        abs(exact_1 - 1.0) < 1e-12
        and abs(exact_2 - 2.0) < 1e-12
        and gap.max() <= 1e-2
        and elapsed < 30.0
    )
    _report(
        "criterion-2 dist-SO3",
        ok,
        f"diag values ({exact_1:.12f}, {exact_2:.12f}), brute-force gap "
        f"{gap.max():.2e} over 200 matrices x 3e5 rotations, {elapsed:.1f}s",
    )


def test_criterion_3_rigid_motion_annihilation():
    surface = geo.make_surface("sphere")
    domain = geo.ThinDomain(surface, geo.shell_profile(0.02))
    grid = nm.build_grid(domain, (4, 48, 48))
    p = 2.0
    bound = 1e-10 * grid.volume ** (2.0 / p)
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(20):
        q = mo.random_rotation(rng)
        c = rng.normal(size=3)
        rep = ineq.interpolation_sides(
            fl.rigid_deformation(surface, q, c), q, c, grid, p
        )
        worst = max(worst, rep.lhs, rep.rhs_product, rep.rhs_field_sq, rep.rhs_dist_sq)
        assert rep.flag == "degenerate-exact"
    _report(
        "criterion-3 rigid-annihilation",
        worst <= bound,
        f"worst term {worst:.2e} <= {bound:.2e} over 20 rigid motions",
    )


def test_criterion_4_expression_equivalence():
    rng = np.random.default_rng(4242)
    violations = 0
    for _ in range(10_000):
        a = 10.0 ** rng.uniform(-6, 6)
        b = 10.0 ** rng.uniform(-6, 6)
        h = 10.0 ** rng.uniform(-4, math.log10(0.5))
        rec = ineq.equivalence_check(a, b, h)
        if not (rec.upper_ok and rec.lower_ok and rec.amgm_ok):
            violations += 1
    _report(
        "criterion-4 equivalence",
        violations == 0,
        f"{violations} violations in 10000 random (a, b, h) triples",
    )


def test_criterion_5_sharpness(sharpness_sweep):
    res, korn, elapsed = sharpness_sweep
    a1 = res.fit.alpha_hat
    a2 = korn.fit.alpha_hat
    ok = abs(a1) <= 0.2 and abs(a2) <= 0.2 and elapsed < 300.0
    _report(
        "criterion-5 sharpness",
        ok,
        f"ratio slope {a1:+.4f} (r2 {res.fit.r2:.3f}), strain-form slope "
        f"{a2:+.4f} (r2 {korn.fit.r2:.3f}), tol 0.2, {elapsed:.1f}s",
    )


def test_criterion_6_validity_random_battery():
    start = time.perf_counter()
    slopes = {}
    for name in ("sphere", "pseudosphere"):
        cfg = ex.SweepConfig(
            surface=name,
            field="random",
            seeds=20,
            p=2.0,
            h_min=1e-3,
            h_max=1e-1,
            num_h=9,
            nt=6,
            ntheta=48,
            nz=48,
            adaptive_theta=False,
        )
        res = ex.run_sweep(cfg)
        slopes[name] = res.fit.alpha_hat
    elapsed = time.perf_counter() - start
    ok = all(s >= -0.2 for s in slopes.values()) and elapsed < 600.0
    _report(
        "criterion-6 validity",
        ok,
        f"max-ratio slopes {slopes} all >= -0.2, 20-seed battery, {elapsed:.1f}s",
    )


def test_criterion_7_localization_constants():
    surface = geo.make_surface("sphere")
    h_set = (1e-1, 3e-2, 1e-2, 3e-3)
    poincare, rot_lb, passage = [], [], []
    for h in h_set:
        dom = geo.ThinDomain(surface, geo.shell_profile(h))
        dec = loc.partition(dom, 0.5)
        grid = nm.build_grid(
            dom, (4, max(48, 4 * dec.m_theta + 8), max(48, 4 * dec.m_z + 8))
        )
        worst_p, worst_r = 0.0, math.inf
        for seed in range(3):
            u = fl.random_smooth_field(seed, 0.1 * h, 4, surface)
            _, agg = loc.patch_trace(u, dec, grid, 2.0)
            worst_p = max(worst_p, agg.c_poincare_max)
            worst_r = min(worst_r, agg.c_rot_lb_min)
        poincare.append(worst_p)
        rot_lb.append(worst_r)

        domb = geo.ThinDomain(surface, geo.bump_profile(h, surface))
        gridb = nm.build_grid(domb, (4, 64, 64))
        u = fl.random_smooth_field(1, 0.1 * h, 4, surface)
        passage.append(loc.shell_to_domain_trace(u, gridb, 2.0).ratio)

    rat_p = max(poincare) / min(poincare)
    rat_r = max(rot_lb) / min(rot_lb)
    rat_s = max(passage) / min(passage)
    ok = rat_p <= 5.0 and rat_r <= 5.0 and rat_s <= 5.0
    _report(
        "criterion-7 localization",
        ok,
        f"max/min over h: poincare {rat_p:.2f}, rotation-lower-bound {rat_r:.2f}, "
        f"shell-to-domain {rat_s:.2f} (all <= 5)",
    )


def test_criterion_8_doubling_condition():
    rng = np.random.default_rng(88)
    flat_limits = []
    worst = 0.0
    for name in ("sphere", "plate"):
        surface = geo.make_surface(name)
        t0, t1, z0, z1 = surface.domain
        a_th = float(surface.a_theta(0.5 * (t0 + t1), 0.5 * (z0 + z1)))
        a_z = float(surface.a_z(0.5 * (t0 + t1), 0.5 * (z0 + z1)))
        m_th = 2.3 * 0.1 / a_th
        m_z = 2.3 * 0.1 / a_z
        for _ in range(20):
            center = (
                rng.uniform(t0 + m_th, t1 - m_th),
                rng.uniform(z0 + m_z, z1 - m_z),
            )
            for r in (0.01, 0.03, 0.1):
                est = geo.doubling_ratio(surface, center, r, budget=120_000)
                worst = max(worst, est.ratio)
                if r == 0.01:
                    flat_limits.append(est.ratio)
    flat_err = max(abs(v - 0.25) for v in flat_limits)
    ok = worst <= 0.3 and flat_err <= 0.02
    _report(
        "criterion-8 doubling",
        ok,
        f"max ratio {worst:.4f} <= 0.3 over r in [0.01, 0.1] x 20 centers x 2 "
        f"surfaces; flat-limit deviation {flat_err:.4f} <= 0.02",
    )


def test_criterion_9_quadrature_gate(sharpness_sweep, sharpness_sweep_doubled):
    res, _, _ = sharpness_sweep
    doubled = sharpness_sweep_doubled
    base = {row["h"]: row["ratio"] for row in res.rows}
    fine = {row["h"]: row["ratio"] for row in doubled.rows}
    drift = max(abs(fine[h] - base[h]) / base[h] for h in base)

    dom_p = geo.ThinDomain(geo.plate(), geo.shell_profile(0.01))
    err_plate = abs(nm.build_grid(dom_p, (8, 64, 64)).volume - 0.01)
    s = geo.make_surface("sphere")
    dom_s = geo.ThinDomain(s, geo.shell_profile(0.01))
    t0, t1, z0, z1 = s.domain
    exact = (t1 - t0) * (np.cos(z0) - np.cos(z1)) * (0.01 + 0.01**3 / 12)
    err_sphere = abs(nm.build_grid(dom_s, (8, 64, 64)).volume - exact)

    ok = drift < 0.01 and err_plate < 1e-10 and err_sphere < 1e-8
    _report(
        "criterion-9 quadrature-gate",
        ok,
        f"ratio drift {drift:.2e} < 1e-2 under doubled resolution; volume errors "
        f"plate {err_plate:.1e} < 1e-10, sphere {err_sphere:.1e} < 1e-8",
    )
