"""Command-line front door.

Subcommands: sweep, korn-sweep, trace, check-gradient, dist-so3, doubling,
show-config.  Every run that writes artifacts produces exactly four files in
its output directory: config.json (echo of the effective configuration),
a CSV of rows, a JSON summary, and verdict.txt.  Outputs contain no
timestamps, so re-running with --force reproduces them bit for bit.

Exit codes: 0 all verdicts pass, 1 a verdict failed, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import experiments as ex
from . import fields as fl
from . import geometry as geo
from . import localization as loc
from . import matrixops as mo
from . import norms as nm

ENV_OUTDIR = "SHELLRIG_OUT"


class UsageError(Exception):
    pass


def _default_outdir(sub: str) -> Path:
    base = os.environ.get(ENV_OUTDIR, "runs")
    return Path(base) / sub


def _surface_params(args) -> dict:
    params = {}
    if args.radius is not None:
        params["radius"] = args.radius
    if args.waist is not None:
        params["waist"] = args.waist
    return params


def _prepare_outdir(out: Path, force: bool) -> Path:
    """Refuse a non-empty ``out`` without ``force``; ``_finish`` creates the directory."""
    out = Path(out)
    if out.exists() and any(out.iterdir()) and not force:
        raise UsageError(f"output directory {out} is not empty; pass --force to overwrite")
    return out


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _finish(out: Path | None, verdicts: dict, echo: dict, table: tuple, summary: tuple) -> int:
    """Write the four artifacts into the directory ``out`` and print the verdicts.

    ``table`` is (CSV name, rows, header) and ``summary`` (JSON name, dict).
    With ``out`` None only the verdicts are printed.  Returns the exit
    status: 1 if a verdict failed, else 0.
    """
    lines = [f"{name}: {'PASS' if ok else 'FAIL'} ({detail})" for name, (ok, detail) in verdicts.items()]
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "config.json", echo)
        csv_name, rows, header = table
        ex.write_rows_csv(out / csv_name, rows, header=header)
        _write_json(out / summary[0], summary[1])
        (out / "verdict.txt").write_text("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return 0 if all(ok for ok, _ in verdicts.values()) else 1


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}")
    except json.JSONDecodeError as err:
        raise UsageError(f"malformed config file {path}: {err}")
    if not isinstance(data, dict):
        raise UsageError(f"config file {path} must hold a flat JSON object")
    return data


def _merge_config(defaults: dict, file_vals: dict, explicit: dict, known: set) -> dict:
    for key in file_vals:
        if key not in known:
            raise UsageError(f"unknown config key {key!r} (known: {sorted(known)})")
    merged = dict(defaults)
    merged.update(file_vals)
    merged.update(explicit)
    return merged


# -- sweep family -----------------------------------------------------------------


_SWEEP_DEFAULTS = {
    f.name: f.default for f in dataclasses.fields(ex.SweepConfig) if f.name != "surface_params"
}


def _add_sweep_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="JSON config file; explicit flags override it")
    sp.add_argument("--surface", choices=geo.SURFACES)
    sp.add_argument("--radius", type=float, help="sphere/cylinder radius")
    sp.add_argument("--waist", type=float, help="pseudosphere waist radius")
    sp.add_argument("--profile", choices=geo.PROFILES)
    sp.add_argument("--p", type=float, help="norm exponent, 1 < p < inf")
    sp.add_argument("--h-min", dest="h_min", type=float)
    sp.add_argument("--h-max", dest="h_max", type=float)
    sp.add_argument("--num-h", dest="num_h", type=int)
    sp.add_argument("--field", help="identity | rigid:<seed> | ansatz | random:<seed> | random")
    sp.add_argument("--seeds", type=int, help="battery size for --field random")
    sp.add_argument("--eps-rule", dest="eps_rule", choices=ex.EPS_RULES)
    sp.add_argument("--eps-value", dest="eps_value", type=float)
    sp.add_argument("--amplitude", type=float)
    sp.add_argument("--modes", type=int)
    sp.add_argument("--rotation-mode", dest="rotation_mode", choices=ex.ROTATION_MODES)
    sp.add_argument("--offset-mode", dest="offset_mode", choices=ex.OFFSET_MODES)
    sp.add_argument("--nt", type=int)
    sp.add_argument("--ntheta", type=int)
    sp.add_argument("--nz", type=int)
    sp.add_argument("--no-adaptive-theta", dest="adaptive_theta", action="store_false", default=None)
    sp.add_argument("--slope-tol", dest="slope_tol", type=float)
    sp.add_argument("--threads", type=int)
    sp.add_argument("--out", help="output directory (default from $SHELLRIG_OUT)")
    sp.add_argument("--force", action="store_true")


def _sweep_config_from(args) -> tuple[ex.SweepConfig, dict]:
    explicit = {
        k: v
        for k, v in vars(args).items()
        if k in _SWEEP_DEFAULTS and v is not None
    }
    file_vals = _load_config_file(args.config)
    merged = _merge_config(_SWEEP_DEFAULTS, file_vals, explicit, set(_SWEEP_DEFAULTS))
    cfg = ex.SweepConfig(surface_params=_surface_params(args), **merged)
    try:
        cfg.validate()
    except ValueError as err:
        raise UsageError(str(err))
    return cfg, merged


def _cmd_sweep(args, linearized: bool) -> int:
    cfg, merged = _sweep_config_from(args)
    out = _prepare_outdir(args.out or _default_outdir("korn-sweep" if linearized else "sweep"), args.force)
    echo = {**merged, "surface_params": cfg.surface_params, "subcommand": "korn-sweep" if linearized else "sweep"}
    try:
        result = ex.korn_sweep(cfg) if linearized else ex.run_sweep(cfg)
    except ex.SweepError as err:
        return _finish(
            out, {"sweep": (False, str(err))}, echo, ("sweep.csv", err.partial_rows, ex.CSV_HEADER),
            ("fit.json", ex.fit_summary(None, {**echo, "failure": str(err)})),
        )
    return _finish(
        out, result.verdicts, echo, ("sweep.csv", result.rows, ex.CSV_HEADER),
        ("fit.json", ex.fit_summary(result.fit, echo)),
    )


# -- trace ------------------------------------------------------------------------


def _cmd_trace(args) -> int:
    if not (1.0 < args.p < math.inf):
        raise UsageError("p must satisfy 1 < p < infinity")
    surface = geo.make_surface(args.surface, **_surface_params(args))
    if args.h >= surface.h0():
        raise UsageError(f"h={args.h:g} must stay below h0={surface.h0():g}")
    domain = geo.ThinDomain(surface, geo.make_profile(args.profile, args.h, surface))
    dec = loc.partition(domain, args.gamma)
    nth = max(args.ntheta, 4 * dec.m_theta)
    nz = max(args.nz, 4 * dec.m_z)
    grid = nm.build_grid(domain, (args.nt, nth, nz))
    u = fl.make_field(
        args.field, surface, args.h, amplitude=args.amplitude, modes=args.modes, domain=domain
    )
    if u.kind != "displacement":
        raise UsageError("trace needs a displacement field (ansatz or random:<seed>)")
    traces, agg = loc.patch_trace(u, dec, grid, args.p)

    rows = [
        {
            "patch": tr.index,
            "theta0": tr.rect[0],
            "theta1": tr.rect[1],
            "z0": tr.rect[2],
            "z1": tr.rect[3],
            "volume": tr.volume,
            "resid": tr.resid,
            "dist": tr.dist,
            "grad": tr.grad,
            "field": tr.field,
            "c_local": tr.c_local,
            "c_poincare": tr.c_poincare,
            "c_rot_lb": tr.c_rot_lb,
            "vacuous": int(tr.vacuous),
        }
        for tr in traces
    ]
    summary = dataclasses.asdict(agg)
    summary["partition"] = {
        "m_theta": dec.m_theta,
        "m_z": dec.m_z,
        "count": dec.count,
        "scale_constant": dec.scale_constant,
        "degenerate": dec.degenerate,
    }
    if args.profile == "bump":
        sdt = loc.shell_to_domain_trace(u, domain, grid, args.p)
        # not asdict: it would deep-copy the per_patch list, which trace.json leaves out
        summary["shell_to_domain"] = {
            f.name: getattr(sdt, f.name) for f in dataclasses.fields(sdt) if f.name != "per_patch"
        }

    out = _prepare_outdir(args.out or _default_outdir("trace"), args.force)
    echo = {
        "subcommand": "trace",
        "surface": args.surface,
        "surface_params": _surface_params(args),
        "profile": args.profile,
        "h": args.h,
        "gamma": args.gamma,
        "p": args.p,
        "field": args.field,
        "amplitude": args.amplitude,
        "modes": args.modes,
        "grid": [args.nt, nth, nz],
    }
    verdicts = {
        "trace": (
            math.isfinite(agg.c_balance),
            f"c_balance={agg.c_balance:.4f}, c_poincare_max={agg.c_poincare_max:.4f}, "
            f"c_rot_lb_min={agg.c_rot_lb_min:.4f} over {dec.count} patches",
        )
    }
    return _finish(out, verdicts, echo, ("trace.csv", rows, list(rows[0])), ("trace.json", summary))


# -- gradient check ----------------------------------------------------------------


def _cmd_check_gradient(args) -> int:
    rng = np.random.default_rng(args.seed)
    rows = []
    worst = 0.0
    orders = []
    for name in geo.SURFACES:
        surface = geo.make_surface(name)
        domain = geo.ThinDomain(surface, geo.shell_profile(args.h))
        t0, t1, z0, z1 = surface.domain
        n = args.points
        th = rng.uniform(t0 + 0.1 * (t1 - t0), t1 - 0.1 * (t1 - t0), n)
        zz = rng.uniform(z0 + 0.1 * (z1 - z0), z1 - 0.1 * (z1 - z0), n)
        tt = rng.uniform(-args.h / 4, args.h / 4, n)
        for fseed in (11, 12, 13):
            f = fl.random_smooth_field(fseed, 0.5, args.modes, surface)
            g = fl.frame_gradient(f, surface, tt, th, zz)
            e1 = np.linalg.norm(
                g - fl.euclidean_gradient_oracle(f, domain, tt, th, zz, step=args.step),
                axis=(-2, -1),
            )
            e2 = np.linalg.norm(
                g - fl.euclidean_gradient_oracle(f, domain, tt, th, zz, step=2 * args.step),
                axis=(-2, -1),
            )
            order = math.log2(e2.sum() / max(e1.sum(), 1e-300))
            rows.append(
                {
                    "surface": name,
                    "field_seed": fseed,
                    "max_err": float(e1.max()),
                    "order": order,
                }
            )
            worst = max(worst, float(e1.max()))
            orders.append(order)
    ok = worst <= args.tol and all(1.8 <= o <= 2.2 for o in orders)
    verdict = {
        "frame-gradient": (
            ok,
            f"max error {worst:.3e} (tol {args.tol:g}), order range "
            f"[{min(orders):.3f}, {max(orders):.3f}]",
        )
    }
    echo = {
        "subcommand": "check-gradient",
        "step": args.step,
        "points": args.points,
        "tol": args.tol,
        "h": args.h,
        "seed": args.seed,
        "modes": args.modes,
    }
    return _finish(
        _prepare_outdir(args.out, args.force) if args.out else None, verdict, echo,
        ("checks.csv", rows, list(rows[0])), ("gradient_check.json", {"max_err": worst, "orders": orders}),
    )


# -- rotation-distance selftest -------------------------------------------------------


def _cmd_dist_so3(args) -> int:
    if not args.selftest:
        raise UsageError("dist-so3 currently only supports --selftest")
    rng = np.random.default_rng(args.seed)
    checks = {}

    exact = (
        abs(float(mo.dist_SO3(np.diag([2.0, 1.0, 1.0]))) - 1.0) < 1e-12
        and abs(float(mo.dist_SO3(np.diag([1.0, 1.0, -1.0]))) - 2.0) < 1e-12
    )
    checks["exact-values"] = (exact, "diag(2,1,1) -> 1 and diag(1,1,-1) -> 2")

    f = rng.normal(size=(args.matrices, 3, 3))
    half = args.matrices // 2
    f[:half] *= np.where(np.linalg.det(f[:half]) < 0, 1.0, -1.0)[:, None, None]
    rots = mo.quasi_uniform_rotations(args.rotations)
    gap = np.abs(mo.brute_force_dist_SO3(f, rots) - mo.dist_SO3(f))
    checks["brute-force"] = (
        bool(gap.max() <= 1e-2),
        f"max |brute - formula| = {gap.max():.2e} over {args.matrices} matrices, "
        f"{args.rotations} rotations",
    )

    r = mo.nearest_rotation(f)
    gap2 = np.abs(np.linalg.norm(f - r, axis=(1, 2)) - mo.dist_SO3(f))
    pos = np.linalg.det(f) > 0
    checks["polar-consistency"] = (
        bool(gap2[pos].max() <= 1e-10),
        f"max |(F - R) - dist| = {gap2[pos].max():.2e} on det>0 matrices",
    )

    echo = {
        "subcommand": "dist-so3",
        "matrices": args.matrices,
        "rotations": args.rotations,
        "seed": args.seed,
    }
    rows = [{"check": name, "passed": int(ok), "detail": detail} for name, (ok, detail) in checks.items()]
    summary = {k: {"passed": ok, "detail": d} for k, (ok, d) in checks.items()}
    return _finish(
        _prepare_outdir(args.out, args.force) if args.out else None, checks, echo,
        ("selftest.csv", rows, ["check", "passed", "detail"]), ("selftest.json", summary),
    )


# -- doubling ---------------------------------------------------------------------


def _cmd_doubling(args) -> int:
    surface = geo.make_surface(args.surface, **_surface_params(args))
    rng = np.random.default_rng(args.seed)
    t0, t1, z0, z1 = surface.domain
    radii = np.geomspace(args.r_min, args.r_max, args.num_r)
    margin_th = 2.5 * args.r_max / float(surface.a_theta(0.5 * (t0 + t1), 0.5 * (z0 + z1)))
    margin_z = 2.5 * args.r_max / float(surface.a_z(0.5 * (t0 + t1), 0.5 * (z0 + z1)))
    if t0 + margin_th >= t1 - margin_th or z0 + margin_z >= z1 - margin_z:
        raise UsageError("patch too small for the requested radius range")
    rows = []
    for _ in range(args.centers):
        thc = rng.uniform(t0 + margin_th, t1 - margin_th)
        zc = rng.uniform(z0 + margin_z, z1 - margin_z)
        for r in radii:
            est = geo.doubling_ratio(surface, (thc, zc), float(r), budget=args.budget)
            rows.append(
                {
                    "theta": thc,
                    "z": zc,
                    "r": float(r),
                    "ratio": est.ratio,
                    "stderr": est.stderr,
                    "warnings": ";".join(est.warnings),
                }
            )
    sigma_hat = max(row["ratio"] for row in rows)
    summary = {
        "sigma_hat": sigma_hat,
        "delta": args.r_max,
        "centers": args.centers,
        "budget": args.budget,
    }
    verdicts = {
        "doubling": (
            sigma_hat <= args.sigma_tol,
            f"sigma_hat={sigma_hat:.4f} <= {args.sigma_tol} over r in "
            f"[{args.r_min:g}, {args.r_max:g}]",
        )
    }
    echo = {
        "subcommand": "doubling",
        "surface": args.surface,
        "surface_params": _surface_params(args),
        "r_min": args.r_min,
        "r_max": args.r_max,
        "num_r": args.num_r,
        "centers": args.centers,
        "budget": args.budget,
        "seed": args.seed,
        "sigma_tol": args.sigma_tol,
    }
    return _finish(
        _prepare_outdir(args.out, args.force) if args.out else None, verdicts, echo,
        ("doubling.csv", rows, list(rows[0])), ("doubling.json", summary),
    )


# -- show-config -------------------------------------------------------------------


def _cmd_show_config(_args) -> int:
    print(json.dumps({"sweep": _SWEEP_DEFAULTS, "korn-sweep": _SWEEP_DEFAULTS}, indent=2, sort_keys=True))
    return 0


# -- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shellrig",
        description="Thin-shell rigidity interpolation inequality: numerical verification",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("sweep", help="inequality ratio sweep over h with a scaling fit")
    _add_sweep_flags(sp)
    sp.set_defaults(func=lambda a: _cmd_sweep(a, linearized=False))

    sp = sub.add_parser("korn-sweep", help="linearized (strain) ratio sweep over h")
    _add_sweep_flags(sp)
    sp.set_defaults(func=lambda a: _cmd_sweep(a, linearized=True))

    sp = sub.add_parser("trace", help="patchwise localization audit at one h")
    sp.add_argument("--surface", default="sphere", choices=geo.SURFACES)
    sp.add_argument("--radius", type=float)
    sp.add_argument("--waist", type=float)
    sp.add_argument("--profile", default="shell", choices=geo.PROFILES)
    sp.add_argument("--h", type=float, default=1e-2)
    sp.add_argument("--gamma", type=float, default=0.5)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--field", default="random:0")
    sp.add_argument("--amplitude", type=float, default=1e-3)
    sp.add_argument("--modes", type=int, default=4)
    sp.add_argument("--nt", type=int, default=4)
    sp.add_argument("--ntheta", type=int, default=48)
    sp.add_argument("--nz", type=int, default=48)
    sp.add_argument("--out")
    sp.add_argument("--force", action="store_true")
    sp.set_defaults(func=_cmd_trace)

    sp = sub.add_parser("check-gradient", help="frame gradient vs finite-difference oracle")
    sp.add_argument("--step", type=float, default=1e-4)
    sp.add_argument("--points", type=int, default=100)
    sp.add_argument("--tol", type=float, default=1e-5)
    sp.add_argument("--h", type=float, default=0.05)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--modes", type=int, default=4)
    sp.add_argument("--out")
    sp.add_argument("--force", action="store_true")
    sp.set_defaults(func=_cmd_check_gradient)

    sp = sub.add_parser("dist-so3", help="rotation-distance kernel selftest")
    sp.add_argument("--selftest", action="store_true")
    sp.add_argument("--matrices", type=int, default=200)
    sp.add_argument("--rotations", type=int, default=300_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")
    sp.add_argument("--force", action="store_true")
    sp.set_defaults(func=_cmd_dist_so3)

    sp = sub.add_parser("doubling", help="two-ball surface measure ratios")
    sp.add_argument("--surface", default="sphere", choices=geo.SURFACES)
    sp.add_argument("--radius", type=float)
    sp.add_argument("--waist", type=float)
    sp.add_argument("--r-min", dest="r_min", type=float, default=0.01)
    sp.add_argument("--r-max", dest="r_max", type=float, default=0.1)
    sp.add_argument("--num-r", dest="num_r", type=int, default=5)
    sp.add_argument("--centers", type=int, default=20)
    sp.add_argument("--budget", type=int, default=150_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--sigma-tol", dest="sigma_tol", type=float, default=0.35)
    sp.add_argument("--out")
    sp.add_argument("--force", action="store_true")
    sp.set_defaults(func=_cmd_doubling)

    sp = sub.add_parser("show-config", help="print all sweep defaults as JSON")
    sp.set_defaults(func=_cmd_show_config)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on usage errors already; normalize
        return int(err.code) if err.code else 0
    try:
        return args.func(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (geo.ProfileError, geo.ChartDegeneracyError, geo.DomainError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
