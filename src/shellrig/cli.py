"""Command-line front door.

Subcommands: sweep, korn-sweep, trace, check-gradient, dist-so3, doubling,
show-config.  Every run that writes artifacts produces exactly four files in
its output directory: config.json (echo of the effective configuration),
a CSV of rows, a JSON summary, and verdict.txt.  Outputs contain no
timestamps, so re-running with --force reproduces them bit for bit.

Exit codes: 0 all verdicts pass, 1 a verdict failed, 2 usage/config error.
Flags are checked before a run starts, and a usage error writes nothing.  A
numerical failure inside a run is a failed verdict: the four files are
written, with the rows done so far and the failure in the JSON summary.

``main`` may be called many times in one process, as the benchmark and the
localization audit script do.  It builds its parser once per process: parsing
leaves the parser as it was, so every call parses as a fresh parser would.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
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
_WRITE_BY_DEFAULT = ("sweep", "korn-sweep", "trace")  # the others write only with --out
# parsed flags that config.json leaves out (--radius and --waist enter it as surface_params)
_NOT_ECHOED = ("func", "out", "force", "radius", "waist", "selftest")


class UsageError(Exception):
    pass


def _finite(text: str) -> float:
    """The type of every float flag, so that argparse names a flag that is not a finite number."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, not {text!r}")
    return value


def _add_shared_flags(sp: argparse.ArgumentParser, surface=False, seed: bool = False) -> None:
    """The flags several subcommands share: --surface/--radius/--waist unless ``surface``
    is False (it is then the default of --surface), --seed if ``seed``, and --out/--force."""
    if surface is not False:
        sp.add_argument("--surface", default=surface, choices=geo.SURFACES)
        sp.add_argument("--radius", type=_finite, help="sphere/cylinder radius")
        sp.add_argument("--waist", type=_finite, help="pseudosphere waist radius")
    if seed:
        sp.add_argument("--seed", type=int, default=0)
    sp.add_argument(
        "--out", help="output directory; sweep, korn-sweep and trace default to $SHELLRIG_OUT/<subcommand>"
    )
    sp.add_argument("--force", action="store_true")


def _outdir(args) -> Path | None:
    """Where a run writes: --out, else $SHELLRIG_OUT/<subcommand> for sweep, korn-sweep and
    trace, else nowhere (the verdicts are only printed).

    A non-empty directory needs --force; ``_finish`` creates the directory.
    """
    if args.out:
        out = Path(args.out)
    elif args.subcommand in _WRITE_BY_DEFAULT:
        out = Path(os.environ.get(ENV_OUTDIR, "runs")) / args.subcommand
    else:
        return None
    if out.exists() and any(out.iterdir()) and not args.force:
        raise UsageError(f"output directory {out} is not empty; pass --force to overwrite")
    return out


def _surface_params(args) -> dict:
    return {key: getattr(args, key) for key in ("radius", "waist") if getattr(args, key) is not None}


def _echo(args, *drop, **extra) -> dict:
    """config.json of a one-shot run: its parsed flags less ``drop`` and ``_NOT_ECHOED``,
    surface_params where it takes a surface, and ``extra``."""
    echo = {key: value for key, value in vars(args).items() if key not in _NOT_ECHOED + drop}
    if "surface" in echo:
        echo["surface_params"] = _surface_params(args)
    return {**echo, **extra}


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


# numerical failures inside a run (the kernels raise ValueError subclasses)
_RUN_ERRORS = (ValueError, ArithmeticError)


def _run_failure(name: str, err: Exception) -> tuple[dict, dict]:
    """The verdicts and the JSON summary of a run stopped by ``err``."""
    return {name: (False, f"{name} failed: {err}")}, {"failure": str(err)}


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


# -- sweep family -----------------------------------------------------------------


_SWEEP_DEFAULTS = {
    f.name: f.default for f in dataclasses.fields(ex.SweepConfig) if f.name != "surface_params"
}
_SWEEP_HELP = {
    "p": "norm exponent, 1 < p < inf",
    "field": "identity | rigid:<seed> | ansatz | random:<seed> | random | user:<csv>",
    "seeds": "battery size for --field random",
}


def _add_sweep_flags(sp: argparse.ArgumentParser) -> None:
    """--config, and one flag per SweepConfig key, typed by its default; a flag not given parses as None."""
    sp.add_argument("--config", help="JSON config file; explicit flags override it")
    for key, default in _SWEEP_DEFAULTS.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(default, bool):
            sp.add_argument(flag.replace("--", "--no-"), dest=key, action="store_false", default=None)
        elif key != "surface":  # --surface is one of the shared flags
            kind = {float: _finite, int: int}.get(type(default))  # a str flag needs no type
            sp.add_argument(flag, type=kind, choices=ex.CHOICES.get(key), help=_SWEEP_HELP.get(key))
    _add_shared_flags(sp, surface=None)


def _sweep_config_from(args) -> tuple[ex.SweepConfig, dict]:
    """The sweep's defaults, overridden by the --config file, overridden by the flags given."""
    file_vals = _load_config_file(args.config)
    for key in file_vals:
        if key not in _SWEEP_DEFAULTS:
            raise UsageError(f"unknown config key {key!r} (known: {sorted(_SWEEP_DEFAULTS)})")
    explicit = {key: val for key, val in vars(args).items() if key in _SWEEP_DEFAULTS and val is not None}
    merged = {**_SWEEP_DEFAULTS, **file_vals, **explicit}
    return ex.SweepConfig(surface_params=_surface_params(args), **merged), merged


def _cmd_sweep(args) -> int:
    cfg, merged = _sweep_config_from(args)
    out = _outdir(args)
    echo = {**merged, "surface_params": cfg.surface_params, "subcommand": args.subcommand}
    try:
        result = ex.korn_sweep(cfg) if args.subcommand == "korn-sweep" else ex.run_sweep(cfg)
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


_TRACE_HEADER = [
    "patch", "theta0", "theta1", "z0", "z1", "volume", "resid", "dist", "grad", "field",
    "c_local", "c_poincare", "c_rot_lb", "vacuous",
]


def _trace_rows(traces) -> list[dict]:
    return [
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


def _cmd_trace(args) -> int:
    if args.p <= 1.0:  # --p is finite
        raise UsageError("p must satisfy 1 < p < infinity")
    surface = geo.make_surface(args.surface, **_surface_params(args))
    if args.h >= surface.h0():
        raise UsageError(f"h={args.h:g} must stay below h0={surface.h0():g}")
    domain = geo.ThinDomain(surface, geo.make_profile(args.profile, args.h, surface))
    dec = loc.partition(domain, args.gamma)
    nth = max(args.ntheta, 4 * dec.m_theta)
    nz = max(args.nz, 4 * dec.m_z)
    grid = nm.build_grid(domain, (args.nt, nth, nz))
    u = fl.make_field(args.field, domain, amplitude=args.amplitude, modes=args.modes)
    if u.kind != "displacement":
        raise UsageError("trace needs a displacement field (ansatz or random:<seed>)")
    out = _outdir(args)
    echo = _echo(args, "nt", "ntheta", "nz", grid=[args.nt, nth, nz])
    rows = []
    try:
        traces, agg = loc.patch_trace(u, dec, grid, args.p)
        rows = _trace_rows(traces)
        summary = dataclasses.asdict(agg)
        summary["partition"] = {
            "m_theta": dec.m_theta,
            "m_z": dec.m_z,
            "count": dec.count,
            "scale_constant": dec.scale_constant,
            "degenerate": dec.degenerate,
        }
        if args.profile == "bump":
            sdt = loc.shell_to_domain_trace(u, grid, args.p)
            # not asdict: it would deep-copy the per_patch list, which trace.json leaves out
            summary["shell_to_domain"] = {
                f.name: getattr(sdt, f.name) for f in dataclasses.fields(sdt) if f.name != "per_patch"
            }
    except _RUN_ERRORS as err:
        verdicts, summary = _run_failure("trace", err)
    else:
        verdicts = {
            "trace": (
                math.isfinite(agg.c_balance),
                f"c_balance={agg.c_balance:.4f}, c_poincare_max={agg.c_poincare_max:.4f}, "
                f"c_rot_lb_min={agg.c_rot_lb_min:.4f} over {dec.count} patches",
            )
        }
    return _finish(out, verdicts, echo, ("trace.csv", rows, _TRACE_HEADER), ("trace.json", summary))


# -- gradient check ----------------------------------------------------------------


def _cmd_check_gradient(args) -> int:
    if args.points < 1 or args.modes < 1:
        raise UsageError("--points and --modes must be at least 1")
    # the oracle's stencil reaches t +- 2*step from sample points with |t| <= h/4
    if not 0.0 < 8.0 * args.step < args.h:
        raise UsageError("--step must lie in (0, h/8) so the oracle stays inside the shell")
    rng = np.random.default_rng(args.seed)
    out = _outdir(args)
    echo = _echo(args)
    domains = [geo.ThinDomain(geo.make_surface(name), geo.shell_profile(args.h)) for name in geo.SURFACES]
    rows = []
    worst = 0.0
    orders = []
    try:
        for domain in domains:
            t0, t1, z0, z1 = domain.surface.domain
            n = args.points
            th = rng.uniform(t0 + 0.1 * (t1 - t0), t1 - 0.1 * (t1 - t0), n)
            zz = rng.uniform(z0 + 0.1 * (z1 - z0), z1 - 0.1 * (z1 - z0), n)
            tt = rng.uniform(-args.h / 4, args.h / 4, n)
            for fseed in (11, 12, 13):
                f = fl.random_smooth_field(fseed, 0.5, args.modes, domain.surface)
                g = fl.frame_gradient(f, domain.surface, tt, th, zz)
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
                        "surface": domain.surface.name,
                        "field_seed": fseed,
                        "max_err": float(e1.max()),
                        "order": order,
                    }
                )
                worst = max(worst, float(e1.max()))
                orders.append(order)
    except _RUN_ERRORS as err:
        verdicts, summary = _run_failure("frame-gradient", err)
    else:
        ok = worst <= args.tol and all(1.8 <= o <= 2.2 for o in orders)
        verdicts = {
            "frame-gradient": (
                ok,
                f"max error {worst:.3e} (tol {args.tol:g}), order range "
                f"[{min(orders):.3f}, {max(orders):.3f}]",
            )
        }
        summary = {"max_err": worst, "orders": orders}
    return _finish(
        out, verdicts, echo, ("checks.csv", rows, ["surface", "field_seed", "max_err", "order"]),
        ("gradient_check.json", summary),
    )


# -- rotation-distance selftest -------------------------------------------------------


def _cmd_dist_so3(args) -> int:
    if not args.selftest:
        raise UsageError("dist-so3 currently only supports --selftest")
    if min(args.matrices, args.rotations) < 1:
        raise UsageError("--matrices and --rotations must be at least 1")
    out = _outdir(args)
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
        bool(gap2[pos].max(initial=0.0) <= 1e-10),
        f"max |(F - R) - dist| = {gap2[pos].max(initial=0.0):.2e} on det>0 matrices",
    )

    rows = [{"check": name, "passed": int(ok), "detail": detail} for name, (ok, detail) in checks.items()]
    summary = {k: {"passed": ok, "detail": d} for k, (ok, d) in checks.items()}
    return _finish(
        out, checks, _echo(args), ("selftest.csv", rows, ["check", "passed", "detail"]),
        ("selftest.json", summary),
    )


# -- doubling ---------------------------------------------------------------------


def _cmd_doubling(args) -> int:
    if min(args.num_r, args.centers) < 1 or args.budget < 0:
        raise UsageError("--num-r and --centers must be at least 1 and --budget nonnegative")
    if min(args.r_min, args.r_max) <= 0:
        raise UsageError("--r-min and --r-max must be positive")
    if args.r_min > args.r_max:
        raise UsageError("--r-min must not exceed --r-max")
    if args.num_r == 1 and args.r_min != args.r_max:
        raise UsageError("--num-r 1 evaluates --r-min alone: give --r-max equal to --r-min, or --num-r of 2 or more")
    if args.sigma_tol < 0:
        raise UsageError("--sigma-tol must be nonnegative")
    surface = geo.make_surface(args.surface, **_surface_params(args))
    rng = np.random.default_rng(args.seed)
    t0, t1, z0, z1 = surface.domain
    radii = np.geomspace(args.r_min, args.r_max, args.num_r)
    margin_th = 2.5 * args.r_max / float(surface.a_theta(0.5 * (t0 + t1), 0.5 * (z0 + z1)))
    margin_z = 2.5 * args.r_max / float(surface.a_z(0.5 * (t0 + t1), 0.5 * (z0 + z1)))
    if t0 + margin_th >= t1 - margin_th or z0 + margin_z >= z1 - margin_z:
        raise UsageError("patch too small for the requested radius range")
    out = _outdir(args)
    echo = _echo(args)
    rows = []
    try:
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
    except _RUN_ERRORS as err:
        verdicts, summary = _run_failure("doubling", err)
    else:
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
    return _finish(
        out, verdicts, echo, ("doubling.csv", rows, ["theta", "z", "r", "ratio", "stderr", "warnings"]),
        ("doubling.json", summary),
    )


# -- show-config -------------------------------------------------------------------


def _cmd_show_config(_args) -> int:
    print(json.dumps({"sweep": _SWEEP_DEFAULTS, "korn-sweep": _SWEEP_DEFAULTS}, indent=2, sort_keys=True))
    return 0


# -- parser -----------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process (``build_parser.__wrapped__()`` builds a fresh one)."""
    parser = argparse.ArgumentParser(
        prog="shellrig",
        description="Thin-shell rigidity interpolation inequality: numerical verification",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    for name, text in (("sweep", "inequality ratio sweep over h with a scaling fit"),
                       ("korn-sweep", "linearized (strain) ratio sweep over h")):
        sp = sub.add_parser(name, help=text)
        _add_sweep_flags(sp)
        sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("trace", help="patchwise localization audit at one h")
    sp.add_argument("--profile", default="shell", choices=geo.PROFILES)
    sp.add_argument("--h", type=_finite, default=1e-2)
    sp.add_argument("--gamma", type=_finite, default=0.5)
    sp.add_argument("--p", type=_finite, default=2.0)
    sp.add_argument("--field", default="random:0")
    sp.add_argument("--amplitude", type=_finite, default=1e-3)
    sp.add_argument("--modes", type=int, default=4)
    sp.add_argument("--nt", type=int, default=4)
    sp.add_argument("--ntheta", type=int, default=48)
    sp.add_argument("--nz", type=int, default=48)
    _add_shared_flags(sp, surface="sphere")
    sp.set_defaults(func=_cmd_trace)

    sp = sub.add_parser("check-gradient", help="frame gradient vs finite-difference oracle")
    sp.add_argument("--step", type=_finite, default=1e-4)
    sp.add_argument("--points", type=int, default=100)
    sp.add_argument("--tol", type=_finite, default=1e-5)
    sp.add_argument("--h", type=_finite, default=0.05)
    sp.add_argument("--modes", type=int, default=4)
    _add_shared_flags(sp, seed=True)
    sp.set_defaults(func=_cmd_check_gradient)

    sp = sub.add_parser("dist-so3", help="rotation-distance kernel selftest")
    sp.add_argument("--selftest", action="store_true")
    sp.add_argument("--matrices", type=int, default=200)
    sp.add_argument("--rotations", type=int, default=300_000)
    _add_shared_flags(sp, seed=True)
    sp.set_defaults(func=_cmd_dist_so3)

    sp = sub.add_parser("doubling", help="two-ball surface measure ratios")
    sp.add_argument("--r-min", type=_finite, default=0.01)
    sp.add_argument("--r-max", type=_finite, default=0.1)
    sp.add_argument("--num-r", type=int, default=5)
    sp.add_argument("--centers", type=int, default=20)
    sp.add_argument("--budget", type=int, default=150_000)
    sp.add_argument("--sigma-tol", type=_finite, default=0.35)
    _add_shared_flags(sp, surface="sphere", seed=True)
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
    except (UsageError, ValueError) as err:  # ValueError covers the geometry errors
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
