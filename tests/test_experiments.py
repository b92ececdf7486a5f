import dataclasses
import math

import numpy as np
import pytest

from shellrig import experiments as ex

FAST = dict(num_h=4, h_min=1e-2, h_max=1e-1, nt=4, ntheta=24, nz=24, adaptive_theta=False)


# -- exponent fitting ---------------------------------------------------------


def test_fit_exact_quadratic():
    fit = ex.fit_exponent([(h, h**2) for h in (1e-3, 1e-2, 1e-1, 1.0)])
    assert fit.alpha_hat == pytest.approx(2.0, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0)
    assert fit.max_residual < 1e-12


def test_fit_exact_negative_power_with_prefactor():
    pairs = [(h, 5.0 * h ** (-4.0 / 3.0)) for h in np.geomspace(1e-3, 1e-1, 6)]
    fit = ex.fit_exponent(pairs)
    assert fit.alpha_hat == pytest.approx(-4.0 / 3.0, abs=1e-12)
    assert math.exp(fit.intercept) == pytest.approx(5.0, rel=1e-10)


def test_fit_noise_calibration():
    # 5% multiplicative noise: the fitted slope stays within +-0.05 of truth
    rng = np.random.default_rng(0)
    hs = np.geomspace(1e-3, 1e-1, 9)
    worst = 0.0
    for _ in range(100):
        vals = 2.0 * hs**-1.25 * (1.0 + 0.05 * rng.uniform(-1, 1, hs.size))
        fit = ex.fit_exponent(list(zip(hs, vals)))
        worst = max(worst, abs(fit.alpha_hat + 1.25))
    assert worst <= 0.05


def test_fit_rejects_nonpositive_value():
    with pytest.raises(ValueError, match="value=0.0"):
        ex.fit_exponent([(0.1, 1.0), (0.2, 0.0)])
    with pytest.raises(ValueError, match="h=-0.1"):
        ex.fit_exponent([(-0.1, 1.0), (0.2, 1.0)])


# -- config validation ----------------------------------------------------------


def test_config_rejects_bad_p():
    with pytest.raises(ValueError, match="p must"):
        ex.SweepConfig(p=1.0).validate()


def test_config_rejects_small_count():
    with pytest.raises(ValueError, match="at least 4"):
        ex.SweepConfig(num_h=3).validate()


def test_config_rejects_h_above_chart_bound():
    with pytest.raises(ValueError, match="h0"):
        ex.SweepConfig(surface="sphere", h_max=0.6).validate()


def test_config_h_values_geometric_distinct():
    cfg = ex.SweepConfig(**FAST)
    hs = cfg.h_values()
    assert len(set(hs)) == cfg.num_h
    ratios = hs[1:] / hs[:-1]
    assert np.allclose(ratios, ratios[0])


def test_epsilon_rules():
    assert ex.SweepConfig(eps_rule="h").epsilon(0.01) == 0.01
    assert ex.SweepConfig(eps_rule="h2").epsilon(0.01) == pytest.approx(1e-4)
    assert ex.SweepConfig(eps_rule="fixed", eps_value=3e-3).epsilon(0.01) == 3e-3


# -- sweeps ----------------------------------------------------------------------


def test_ansatz_sweep_flat_ratio():
    res = ex.run_sweep(ex.SweepConfig(ntheta=48, nz=32, nt=6, num_h=5, h_min=3e-3, h_max=1e-1))
    assert res.passed
    assert "sharpness" in res.verdicts
    assert abs(res.fit.alpha_hat) <= 0.2
    assert len(res.rows) == 5
    assert all(set(ex.CSV_HEADER) <= set(row) for row in res.rows)


def test_rigid_sweep_degenerate_skips_fit():
    res = ex.run_sweep(ex.SweepConfig(field="rigid:3", **FAST))
    assert res.fit is None
    assert "degenerate-exact" in res.verdicts
    assert res.passed


def test_random_battery_validity():
    res = ex.run_sweep(ex.SweepConfig(field="random", seeds=3, **FAST))
    assert "validity" in res.verdicts
    assert res.passed
    assert res.fit.alpha_hat >= -0.2


def test_single_random_seed_sweep():
    res = ex.run_sweep(ex.SweepConfig(field="random:5", **FAST))
    assert "validity" in res.verdicts


def test_korn_sweep_ansatz():
    res = ex.korn_sweep(ex.SweepConfig(ntheta=48, nz=32, nt=6, num_h=5, h_min=3e-3, h_max=1e-1))
    assert "korn-sharpness" in res.verdicts
    assert res.passed


def test_korn_sweep_rejects_deformation_fields():
    with pytest.raises(ValueError, match="displacement"):
        ex.korn_sweep(ex.SweepConfig(field="rigid:1", **FAST))


def test_sweep_determinism():
    cfg = dict(field="random", seeds=2, **FAST)
    a = ex.run_sweep(ex.SweepConfig(**cfg))
    b = ex.run_sweep(ex.SweepConfig(**cfg))
    assert a.rows == b.rows
    assert a.fit.alpha_hat == b.fit.alpha_hat


def test_threading_matches_serial(monkeypatch):
    cfg = dict(ntheta=32, nz=24, nt=4, num_h=4, h_min=1e-2, h_max=1e-1)
    serial = ex.run_sweep(ex.SweepConfig(threads=1, **cfg))
    threaded = ex.run_sweep(ex.SweepConfig(threads=4, **cfg))
    assert serial.rows == threaded.rows

    # a failure at the third h names that h and keeps the two rows before it,
    # whatever the thread count
    failing = float(ex.SweepConfig(**cfg).h_values()[2])
    orig = ex._single_report

    def boom(config, grid, eps, spec, cache):
        if grid.domain.h == failing:
            raise RuntimeError("synthetic failure")
        return orig(config, grid, eps, spec, cache)

    monkeypatch.setattr(ex, "_single_report", boom)
    errors = {}
    for threads in (1, 4):
        with pytest.raises(ex.SweepError) as err:
            ex.run_sweep(ex.SweepConfig(threads=threads, **cfg))
        errors[threads] = err.value
    assert str(errors[1]) == str(errors[4])
    assert f"sweep failed at h={failing}: synthetic failure" == str(errors[4])
    assert errors[1].partial_rows == errors[4].partial_rows == serial.rows[:2]


def _nan_for(seeds, orig):
    """A report function that records every ratio and makes the given seeds NaN."""
    seen = {}

    def report(config, grid, eps, specs, field):
        reps = orig(config, grid, eps, specs, field)
        reps = [dataclasses.replace(rep, ratio=math.nan) if spec in seeds else rep for spec, rep in zip(specs, reps)]
        seen.setdefault(grid.domain.h, []).extend(rep.ratio for rep in reps)
        return reps

    return report, seen


@pytest.mark.parametrize("sweep, report", [(ex.run_sweep, "_single_report"), (ex.korn_sweep, "_korn_report")])
def test_battery_maximum_skips_nan_ratio(monkeypatch, sweep, report):
    patched, seen = _nan_for({"random:0"}, getattr(ex, report))
    monkeypatch.setattr(ex, report, patched)
    res = sweep(ex.SweepConfig(field="random", seeds=3, **FAST))
    assert len(res.rows) == FAST["num_h"]
    for row in res.rows:
        ratios = seen[row["h"]]
        assert len(ratios) == 3 and math.isnan(ratios[0])
        assert row["ratio"] == max(ratios[1:])


@pytest.mark.parametrize("sweep, report", [(ex.run_sweep, "_single_report"), (ex.korn_sweep, "_korn_report")])
def test_battery_fails_when_every_seed_is_nan(monkeypatch, sweep, report):
    patched, _ = _nan_for({"random:0", "random:1"}, getattr(ex, report))
    monkeypatch.setattr(ex, report, patched)
    h0 = float(ex.SweepConfig(**FAST).h_values()[0])
    with pytest.raises(ex.SweepError, match=f"h={h0}: .*seeds random:0, random:1") as err:
        sweep(ex.SweepConfig(field="random", seeds=2, **FAST))
    assert err.value.partial_rows == []


@pytest.mark.parametrize("flags, kept", [(("degenerate-exact",) * 3, True), (("degenerate-exact", "", "degenerate-exact"), False)])
def test_battery_of_nan_ratios_keeps_seed_0_only_when_all_are_degenerate_exact(flags, kept):
    # an exact zero field is 0/0 for every seed, which is no failure; any other NaN seed still fails its h
    orig = ex._korn_report

    def report(config, grid, eps, specs, field):
        reps = orig(config, grid, eps, specs, field)
        return [dataclasses.replace(rep, ratio=math.nan, flag=flags[int(spec.split(":")[1])])
                for spec, rep in zip(specs, reps)]

    config = ex.SweepConfig(field="random", seeds=3, **FAST)
    if not kept:
        with pytest.raises(ex.SweepError, match="no battery seed gave a finite ratio"):
            ex._sweep(config, config.validate(), report, lambda h: 0.0)
        return
    rows, reports = ex._sweep(config, config.validate(), report, lambda h: 0.0)
    assert all(math.isnan(row["ratio"]) for row in rows)
    assert [rep.meta["field"] for rep in reports] == ["random:0"] * FAST["num_h"]


def test_best_fit_rotation_mode_runs():
    res = ex.run_sweep(ex.SweepConfig(field="random:1", rotation_mode="best-fit", **FAST))
    assert all(math.isfinite(row["ratio"]) for row in res.rows)


def test_sweep_error_carries_partial_rows(monkeypatch):
    cfg = ex.SweepConfig(**FAST)
    calls = {"n": 0}
    orig = ex._single_report

    def boom(config, grid, eps, spec, cache):
        calls["n"] += 1
        if calls["n"] >= 3:
            raise RuntimeError("synthetic failure")
        return orig(config, grid, eps, spec, cache)

    monkeypatch.setattr(ex, "_single_report", boom)
    with pytest.raises(ex.SweepError, match="sweep failed at h=") as err:
        ex.run_sweep(cfg)
    assert len(err.value.partial_rows) == 2


def test_csv_writer_roundtrip(tmp_path):
    res = ex.run_sweep(ex.SweepConfig(field="random:1", **FAST))
    path = tmp_path / "rows.csv"
    ex.write_rows_csv(path, res.rows)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(ex.CSV_HEADER)
    assert len(lines) == 1 + len(res.rows)
    # full precision survives the round trip
    first = dict(zip(ex.CSV_HEADER, lines[1].split(",")))
    assert float(first["ratio"]) == res.rows[0]["ratio"]


def test_eps_h2_variant_also_flat():
    res = ex.run_sweep(
        ex.SweepConfig(eps_rule="h2", ntheta=48, nz=32, nt=6, num_h=5, h_min=3e-3, h_max=1e-1)
    )
    assert abs(res.fit.alpha_hat) <= 0.2


def test_epsilon_linearization_stability():
    # for fixed h and eps <= h, shrinking eps tenfold moves the ratio < 5%
    import numpy as np

    from shellrig import fields as fl
    from shellrig import geometry as geo
    from shellrig import inequality as ineq
    from shellrig import norms as nm

    s = geo.make_surface("sphere")
    h = 1e-2
    dom = geo.ThinDomain(s, geo.shell_profile(h))
    grid = nm.build_grid(dom, (6, nm.adaptive_theta_resolution(dom), 48))
    u = fl.ansatz_displacement(fl.default_ansatz_profile(s), s, h)
    ratios = {}
    for eps in (h / 10, h / 100):
        y = fl.displacement_to_deformation(s, u, eps)
        ratios[eps] = ineq.interpolation_sides(y, np.eye(3), "mean", grid, 2.0).ratio
    drift = abs(ratios[h / 10] - ratios[h / 100]) / ratios[h / 100]
    assert drift < 0.05


def test_user_field_sweep(tmp_path):
    import numpy as np

    from shellrig import fields as fl
    from shellrig import geometry as geo
    from shellrig import norms as nm

    s = geo.make_surface("sphere")
    dom = geo.ThinDomain(s, geo.shell_profile(2e-2))
    grid = nm.build_grid(dom, (4, 24, 24))
    f = fl.random_smooth_field(9, 0.2, 3, s)
    t, th, zz = grid.mesh()
    path = tmp_path / "user.csv"
    nm.write_samples_csv(path, grid, f.components(t, th, zz))
    res = ex.run_sweep(
        ex.SweepConfig(
            field=f"user:{path}", num_h=4, h_min=1e-2, h_max=5e-2,
            nt=4, ntheta=24, nz=24, adaptive_theta=False,
        )
    )
    assert all(math.isfinite(r["ratio"]) for r in res.rows)
