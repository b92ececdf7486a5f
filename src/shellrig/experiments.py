"""h-sweeps, scaling-exponent fits, and pass/fail verdicts.

A sweep builds one thin domain and one quadrature grid per thickness value,
evaluates the inequality report of each field on that grid (the seeds of a
random battery share it and its cached geometry), keeps the battery
maximum, and fits log(ratio) against log(h).  The headline checks are
sharpness (the ratio of the bending-type field stays flat in h) and
validity (no random field makes the constant blow up as h -> 0).  Verdict
thresholds are artifact policy, stored in the config and echoed into every
output.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field as dc_field, fields
from pathlib import Path

import numpy as np

from . import fields as fl
from . import geometry as geo
from . import inequality as ineq
from . import norms as nm

CSV_HEADER = [
    "h",
    "p",
    "epsilon",
    "lhs",
    "rhs_product",
    "rhs_field_sq",
    "rhs_dist_sq",
    "ratio",
    "grid_nt",
    "grid_ntheta",
    "grid_nz",
]


class SweepError(RuntimeError):
    """A sweep failed at a specific thickness value.

    ``partial_rows`` carries the rows computed before the failure so callers
    can persist them with a failure marker.
    """

    def __init__(self, message: str, partial_rows=None):
        super().__init__(message)
        self.partial_rows = partial_rows or []


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares slope of log(value) against log(h)."""

    pairs: tuple
    alpha_hat: float
    intercept: float
    r2: float
    max_residual: float


def fit_exponent(pairs) -> ScalingFit:
    """Ordinary least squares of log(value) on log(h).

    Raises on nonpositive values, naming the offending pair.
    """
    pairs = [(float(h), float(v)) for h, v in pairs]
    if len(pairs) < 2:
        raise ValueError("need at least two (h, value) pairs")
    for h, v in pairs:
        if not (h > 0 and v > 0) or not (math.isfinite(h) and math.isfinite(v)):
            raise ValueError(f"cannot fit a log-log slope through the pair (h={h!r}, value={v!r})")
    x = np.log([h for h, _ in pairs])
    y = np.log([v for _, v in pairs])
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return ScalingFit(
        pairs=tuple(pairs),
        alpha_hat=float(slope),
        intercept=float(intercept),
        r2=float(r2),
        max_residual=float(np.max(np.abs(y - pred))),
    )


CHUNK_NODES = 2048  # grid nodes times seeds of one battery chunk (see _sweep)
CHOICES = {  # key -> its allowed values, for SweepConfig.validate and the sweep flags
    "surface": geo.SURFACES,
    "profile": geo.PROFILES,
    "eps_rule": ("h", "h2", "fixed"),  # read by SweepConfig.epsilon
    "rotation_mode": ("identity", "best-fit"),  # read by _single_report
    "offset_mode": ("mean", "zero"),  # read by _single_report
}


@dataclass
class SweepConfig:
    """Everything needed to reproduce one sweep bit for bit."""

    surface: str = "sphere"
    surface_params: dict = dc_field(default_factory=dict)
    profile: str = "shell"
    p: float = 2.0
    h_min: float = 1e-3
    h_max: float = 1e-1
    num_h: int = 9
    field: str = "ansatz"  # a spec of fields.FIELD_SPEC; bare "random" is the battery
    seeds: int = 20  # battery size when field == "random"
    eps_rule: str = "h"
    eps_value: float = 1e-3  # used when eps_rule == "fixed"
    amplitude: float = 0.1
    modes: int = 4
    rotation_mode: str = "identity"
    offset_mode: str = "mean"
    nt: int = 8
    ntheta: int = 64
    nz: int = 64
    adaptive_theta: bool = True
    slope_tol: float = 0.2
    threads: int = 1

    def validate(self) -> None:
        """Refuse a config no sweep can run, before anything is computed or written.

        Every key must have its default's type (an int passes for a float,
        a bool only for a bool), a float must be finite, and a key of
        CHOICES must take one of its choices.
        """
        for f in fields(self):
            if f.default is MISSING:  # surface_params, set from flags only
                continue
            value, kind = getattr(self, f.name), type(f.default)
            allowed = (int, float) if kind is float else kind
            if isinstance(value, bool) != (kind is bool) or not isinstance(value, allowed):
                raise ValueError(f"{f.name} must be of type {kind.__name__}, not {value!r}")
            if kind is float and not -math.inf < value < math.inf:  # exact for an int of any size
                raise ValueError(f"{f.name} must be finite, not {value!r}")
            if f.name in CHOICES and value not in CHOICES[f.name]:
                raise ValueError(f"{f.name} must be one of {', '.join(CHOICES[f.name])}, not {value!r}")
        if not (1.0 < self.p < math.inf):
            raise ValueError("p must satisfy 1 < p < infinity")
        if not (0 < self.h_min < self.h_max):
            raise ValueError("need 0 < h_min < h_max")
        if self.num_h < 4:
            raise ValueError("a sweep needs at least 4 thickness values to fit a slope")
        fl.field_kind(self.field)
        if self.field.startswith("user:") and not Path(self.field[5:]).is_file():
            raise ValueError(f"no such file for the field {self.field!r}")
        if self.seeds < 1:
            raise ValueError("seeds must be >= 1")
        if self.amplitude < 0:
            raise ValueError("amplitude must be >= 0")
        if self.modes < 1:
            raise ValueError("modes must be >= 1")
        surf = geo.make_surface(self.surface, **self.surface_params)
        h0 = surf.h0()
        if self.h_max >= h0:
            raise ValueError(f"h_max={self.h_max:g} must stay below the chart bound h0={h0:g}")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")

    def h_values(self) -> np.ndarray:
        return np.geomspace(self.h_min, self.h_max, self.num_h)

    def epsilon(self, h: float) -> float:
        if self.eps_rule == "h":
            return float(h)
        if self.eps_rule == "h2":
            return float(h * h)
        return float(self.eps_value)


@dataclass(frozen=True)
class SweepResult:
    config: SweepConfig
    rows: list  # one dict per h, CSV_HEADER keys plus extras
    reports: list
    fit: ScalingFit | None
    verdicts: dict  # name -> (bool passed, detail string)

    @property
    def passed(self) -> bool:
        return all(ok for ok, _ in self.verdicts.values())


def _resolution_for(config: SweepConfig, domain: geo.ThinDomain) -> tuple[int, int, int]:
    nth = config.ntheta
    if config.adaptive_theta and config.field.startswith("ansatz"):
        nth = nm.adaptive_theta_resolution(domain, base=config.ntheta)
    return (config.nt, nth, config.nz)


def _field(config: SweepConfig, grid: nm.QuadratureGrid, spec: str, profile: fl.AnsatzProfile):
    domain = grid.domain
    return fl.make_field(
        spec, domain.surface, domain.h, amplitude=config.amplitude, modes=config.modes,
        profile=profile, domain=domain,
    )


def _metas(eps: float, specs: list, grid: nm.QuadratureGrid) -> list:
    return [{"epsilon": eps, "field": spec, "grid": grid.resolution} for spec in specs]


def _single_report(config: SweepConfig, grid: nm.QuadratureGrid, eps: float, specs: list, y: fl.FrameField):
    """Interpolation report of a field on a grid shared by the battery.

    ``y`` is the field of the one spec in ``specs``, or the battery seeds of
    ``specs`` stacked (``random_smooth_field`` of their seeds), which give a
    list of reports, one per seed.  A rigid motion (identity included) is
    compared against itself; a displacement u enters as x + eps*u.
    """
    if y.kind == "displacement":
        y = fl.displacement_to_deformation(grid.domain.surface, y, eps)
        rot, off = np.eye(3), ("mean" if config.offset_mode == "mean" else np.zeros(3))
    else:
        rot, off = y.motion
    if config.rotation_mode == "best-fit":
        rot = "best-fit"
    return ineq.interpolation_sides(y, rot, off, grid.domain, grid, config.p, meta=_metas(eps, specs, grid))


def _korn_report(config: SweepConfig, grid: nm.QuadratureGrid, eps: float, specs: list, u: fl.FrameField):
    """Linearized report of a displacement, or the list of reports of stacked seeds (see _single_report)."""
    return ineq.korn_linear_sides(u, grid.domain, grid, config.p, meta=_metas(eps, specs, grid))


def _row_from(rep, resolution, h, eps) -> dict:
    return {
        "h": h,
        "p": rep.p,
        "epsilon": eps,
        "lhs": rep.lhs,
        "rhs_product": rep.rhs_product,
        "rhs_field_sq": rep.rhs_field_sq,
        "rhs_dist_sq": rep.rhs_dist_sq,
        "ratio": rep.ratio,
        "grid_nt": resolution[0],
        "grid_ntheta": resolution[1],
        "grid_nz": resolution[2],
    }


def _map_h(config: SweepConfig, work, h_values):
    """Evaluate work(h) for each h, in h order; stop at the first failure.

    The failure is raised as a SweepError naming that h and carrying the
    rows of the h values before it.  With threads > 1 the h values run
    concurrently but results are read in h order, so the failing h and the
    partial rows are those of the serial run; h values not yet started are
    cancelled, and errors of later h values are not reported.
    """
    results = []
    try:
        if config.threads > 1:
            with ThreadPoolExecutor(max_workers=config.threads) as pool:
                futures = [pool.submit(work, h) for h in h_values]
                try:
                    for fut in futures:
                        results.append(fut.result())
                finally:
                    for fut in futures:
                        fut.cancel()
        else:
            for h in h_values:
                results.append(work(h))
    except Exception as err:
        partial = [_row_from(rep, res, h, eps) for h, eps, rep, res in results]
        raise SweepError(f"sweep failed at h={h_values[len(results)]}: {err}", partial) from err
    return results


def _sweep(config: SweepConfig, report, epsilon) -> tuple[list, list]:
    """Rows and reports of a sweep, one per h.

    For each h one thin domain and one grid are built and shared by every
    seed of a battery; the grid, with its cache, is dropped when its h is
    done.  A battery keeps the largest finite ratio; non-finite reports are
    skipped, and an h where every seed is non-finite fails.

    A battery's fields do not depend on h: they are drawn once per sweep as
    stacked fields of ``max(1, CHUNK_NODES // nodes per grid)`` seeds each,
    and one report call evaluates a chunk in one pass over its nodes.  The
    reductions stay per seed, so each report keeps the bits of its seed
    alone (one ``np.sum`` over a stack adds in another order and moves last
    bits), and a grid above the budget gets one seed per chunk, so a fine
    battery needs no more memory than one report.
    """
    config.validate()
    surface = geo.make_surface(config.surface, **config.surface_params)
    battery = config.field == "random"
    profile = fl.default_ansatz_profile(surface)
    if battery:
        # a battery's grid does not adapt to h (see _resolution_for)
        size = max(1, CHUNK_NODES // (config.nt * config.ntheta * config.nz))
        parts = [range(lo, min(lo + size, config.seeds)) for lo in range(0, config.seeds, size)]
        chunks = [
            ([f"random:{seed}" for seed in part],
             fl.random_smooth_field(part, config.amplitude, config.modes, surface))
            for part in parts
        ]

    def work(h: float):
        domain = geo.ThinDomain(surface, geo.make_profile(config.profile, h, surface))
        grid = nm.build_grid(domain, _resolution_for(config, domain))
        eps = epsilon(h)
        # an overflow fails on the finiteness checks of the norms and of
        # dist_SO3, so numpy's floating-point warnings would only add noise
        with np.errstate(all="ignore"):
            if not battery:
                rep = report(config, grid, eps, [config.field], _field(config, grid, config.field, profile))
                return h, eps, rep, grid.resolution
            reps = [rep for specs, field in chunks for rep in report(config, grid, eps, specs, field)]
        finite = [rep for rep in reps if math.isfinite(rep.ratio)]
        if not finite:
            seeds = ", ".join(f"random:{seed}" for seed in range(config.seeds))
            raise SweepError(f"no battery seed gave a finite ratio (seeds {seeds})")
        # max keeps the first of equal ratios, i.e. the lowest seed
        return h, eps, max(finite, key=lambda rep: rep.ratio), grid.resolution

    h_values = [float(h) for h in config.h_values()]
    results = _map_h(config, work, h_values)
    rows = [_row_from(rep, res, h, eps) for h, eps, rep, res in results]
    return rows, [rep for _, _, rep, _ in results]


def _fit_ratio(rows) -> ScalingFit:
    """The log-log slope of a sweep's ratios; a ratio it cannot pass through fails the sweep with all rows."""
    try:
        return fit_exponent([(row["h"], row["ratio"]) for row in rows])
    except ValueError as err:
        raise SweepError(f"sweep fit failed: {err}", rows) from err


def run_sweep(config: SweepConfig) -> SweepResult:
    """Interpolation-inequality sweep over the configured thickness values.

    Any per-h failure aborts the sweep with the failing h identified; rows
    computed before the failure are attached to the raised error.
    """
    rows, reports = _sweep(config, _single_report, config.epsilon)
    verdicts = {}
    degenerate = all(rep.flag == "degenerate-exact" for rep in reports)
    if degenerate:
        fit = None
        verdicts["degenerate-exact"] = (
            True,
            "all reports are exact rigid motions; ratio fit skipped",
        )
    else:
        fit = _fit_ratio(rows)
        if config.field.startswith("ansatz"):
            ok = abs(fit.alpha_hat) <= config.slope_tol
            verdicts["sharpness"] = (
                ok,
                f"|alpha_hat|={abs(fit.alpha_hat):.4f} vs tol {config.slope_tol} "
                f"(r2 of the flat-line fit: {fit.r2:.4f})",
            )
        elif config.field.startswith("random"):
            ok = fit.alpha_hat >= -config.slope_tol
            verdicts["validity"] = (
                ok,
                f"alpha_hat={fit.alpha_hat:.4f} >= -{config.slope_tol} required",
            )
        else:
            verdicts["fit"] = (True, f"alpha_hat={fit.alpha_hat:.4f}")
    return SweepResult(config=config, rows=rows, reports=reports, fit=fit, verdicts=verdicts)


def korn_sweep(config: SweepConfig) -> SweepResult:
    """Sweep of the linearized sides; fields must be displacements."""
    if fl.field_kind(config.field) != "displacement":
        raise ValueError(
            f"the linearized sweep needs a displacement field (ansatz or random), not {config.field!r}"
        )
    rows, reports = _sweep(config, _korn_report, lambda h: 0.0)

    verdicts = {}
    skew_like = all(rep.rhs_dist_sq <= 1e-24 * max(rep.lhs, 1.0) for rep in reports)
    if skew_like:
        fit = None
        verdicts["no-strain"] = (
            True,
            "strain term vanishes; ratio is the plain gradient-to-field quotient, not fitted",
        )
    else:
        fit = _fit_ratio(rows)
        if config.field.startswith("ansatz"):
            ok = abs(fit.alpha_hat) <= config.slope_tol
            verdicts["korn-sharpness"] = (
                ok,
                f"|alpha_hat|={abs(fit.alpha_hat):.4f} vs tol {config.slope_tol} "
                f"(r2: {fit.r2:.4f})",
            )
        else:
            ok = fit.alpha_hat >= -config.slope_tol
            verdicts["korn-validity"] = (ok, f"alpha_hat={fit.alpha_hat:.4f} >= -{config.slope_tol}")
    return SweepResult(config=config, rows=rows, reports=reports, fit=fit, verdicts=verdicts)


# -- deterministic artifact writers ---------------------------------------------------


def write_rows_csv(path, rows, header=CSV_HEADER) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            [format(v, ".17g") if isinstance(v, float) else v for v in map(row.__getitem__, header)]
            for row in rows
        )


def fit_summary(fit: ScalingFit | None, config_echo: dict) -> dict:
    """The fit.json payload: the fitted slope and intercept (None when not fitted) and the config echo."""
    return {
        "alpha_hat": None if fit is None else fit.alpha_hat,
        "intercept": None if fit is None else fit.intercept,
        "r2": None if fit is None else fit.r2,
        "max_residual": None if fit is None else fit.max_residual,
        "config_echo": config_echo,
    }
