"""Both sides of the interpolation inequality and its relatives as numbers.

Given a deformation y, a rotation R, and an offset b, the report collects
  lhs           = ||grad y - R||_p^2
  rhs_product   = ||y - R x - b||_p * ||dist(grad y, SO(3))||_p / h
  rhs_field_sq  = ||y - R x - b||_p^2
  rhs_dist_sq   = ||dist(grad y, SO(3))||_p^2
and the empirical constant ratio = lhs / (sum of the three RHS terms).
The linearized (Korn) variant replaces the distance by the linear strain
and compares the gradient against zero.

Constants are never assumed: every function returns the measured ratio and
leaves its h-dependence to the sweep layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .fields import FrameField, frame_gradient, gradient_from_partials, on_grid  # noqa: F401  (tools bind frame_gradient)
from .geometry import embed, matvec  # noqa: F401  (re-exported: tools bind inequality.embed)
from .matrixops import NonFiniteMatrixError, conjugate_3x3, dist_SO3, nearest_rotation
from .norms import (  # noqa: F401  (tools bind lp_norm and weighted_mean)
    QuadratureGrid, lp_norm, lp_norms, magnitudes, weighted_mean, weighted_means,
)

Array = np.ndarray

DEGENERATE_RTOL = 1e-10
SLAB_NODES = 8192  # grid nodes times stacked fields per slab of a report (see _slabs)


@dataclass(frozen=True)
class InequalityReport:
    """One evaluation of the inequality sides for a fixed field and h."""

    lhs: float
    rhs_product: float
    rhs_field_sq: float
    rhs_dist_sq: float
    p: float
    h: float
    rotation: tuple | None
    offset: tuple | None
    ratio: float
    flag: str = ""  # "", "degenerate-exact", or "impossible"
    meta: dict = dc_field(default_factory=dict)

    @property
    def rhs_total(self) -> float:
        return self.rhs_product + self.rhs_field_sq + self.rhs_dist_sq

    def to_dict(self) -> dict:
        out = {
            "lhs": self.lhs,
            "rhs_product": self.rhs_product,
            "rhs_field_sq": self.rhs_field_sq,
            "rhs_dist_sq": self.rhs_dist_sq,
            "ratio": self.ratio,
            "p": self.p,
            "h": self.h,
            "flag": self.flag,
            "rotation": self.rotation,
            "offset": self.offset,
        }
        out.update(self.meta)
        return out


def _finalize(lhs, prod, field_sq, dist_sq, p, h, rotation, offset, scale, meta) -> InequalityReport:
    """The report of measured sides; ``rotation`` and ``offset`` come as the report keeps them, tuples or None."""
    rhs_total = prod + field_sq + dist_sq
    tiny = DEGENERATE_RTOL * max(scale, 1e-300)
    flag = ""
    if rhs_total <= tiny:
        flag = "degenerate-exact" if lhs <= tiny else "impossible"
    ratio = lhs / rhs_total if rhs_total > 0 else math.nan
    return InequalityReport(
        lhs=float(lhs),
        rhs_product=float(prod),
        rhs_field_sq=float(field_sq),
        rhs_dist_sq=float(dist_sq),
        p=float(p),
        h=float(h),
        rotation=rotation,
        offset=offset,
        ratio=float(ratio) if math.isfinite(ratio) else math.nan,
        flag=flag,
        meta=dict(meta or {}),
    )


def _require_rotation(rotation: Array) -> Array:
    r = np.asarray(rotation, dtype=float)
    if r.shape != (3, 3):
        raise ValueError("rotation must be a single 3x3 matrix")
    if np.max(np.abs(r.T @ r - np.eye(3))) > 1e-10 or abs(float(np.linalg.det(r)) - 1.0) > 1e-10:
        raise ValueError("rotation must lie in SO(3) within 1e-10")
    return r


def _subtract_rotated(v: Array, rotation, x: Array) -> None:
    """v -= R x in place, on the nodes of ``x``.

    ``rotation`` is one R for every seed of the stack ``v`` or a list of one
    R per seed.
    """
    if isinstance(rotation, list):
        for v_s, r in zip(v, rotation):
            v_s -= matvec(r, x)
    else:
        v -= matvec(rotation, x)


def _metas(meta, stack: int) -> list:
    """One meta per field of a stack; ``meta`` is a dict shared by every field, or a list of one per field."""
    metas = meta if isinstance(meta, list) else [meta] * stack
    if len(metas) != stack:
        raise ValueError(f"meta lists {len(metas)} dicts for {stack} fields")
    return metas


def _slabs(y: FrameField, grid: QuadratureGrid):
    """``y`` on ``grid`` slab by slab: (rows, slab, comp, g, stacked) per slab, in theta order.

    The one evaluation of a field on grid nodes, for ``interpolation_sides``,
    ``korn_linear_sides`` and ``balance_form`` (these two through
    ``_slab_norms``) and ``localization._nodal``.  ``slab`` is
    ``grid.slab(rows)`` for consecutive theta rows that hold at most
    SLAB_NODES nodes times stacked fields, and at least one row, so a grid
    that fits is one slab, the grid itself.  The slabs of a grid hold equal
    numbers of rows, give or take one: slabs of 28 and 20 rows faulted in 3x
    the pages of equal slabs on the desk battery (13,824 nodes) and ran 7%
    slower than one whole-grid pass, equal slabs within 3%.  ``comp`` and
    the frame gradient ``g`` carry a seed axis; ``stacked`` tells whether
    the field gave it.  The first slab is sized for one field (the stack is
    unknown until then); a battery sweep sizes its chunks of seeds by the same
    budget (``experiments._sweep``), so a chunk on a grid that fits is one slab.
    """
    nt, nth, nz = grid.resolution
    lo, stack = 0, 1
    while lo < nth:
        most = max(1, SLAB_NODES // (nt * nz * stack))  # rows a slab may hold
        count = -(-(nth - lo) // most)  # slabs left
        rows = slice(lo, lo + -(-(nth - lo) // count))
        slab = grid.slab(rows)
        comp, par = on_grid(y, slab)
        stacked = comp.ndim > slab.t.ndim + 1
        if not stacked:
            comp, par = comp[None], par[None]
        stack = len(comp)
        g = gradient_from_partials(comp, par, slab.t, slab.nodes.coeffs)
        del par
        yield rows, slab, comp, g, stacked
        del slab, comp, g  # before the next slab is evaluated
        lo = rows.stop


def _joined(parts: list) -> Array:
    """The per-slab arrays of one quantity as one whole-grid array (theta is axis 2, after the seed and t axes)."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=2)


def _slab_norms(y: FrameField, grid: QuadratureGrid, p: float, *quantities) -> tuple:
    """(stacked, then per quantity the L^p norms of the stack's fields) of ``y`` on ``grid``.

    A quantity maps a slab's ``comp`` and ``g`` (``_slabs``) to nodal values;
    only their ``magnitudes`` are kept for the whole grid, so the norms
    (``lp_norms``) have the bits of a whole-grid pass.
    """
    mags = [[] for _ in quantities]
    for rows, slab, comp, g, stacked in _slabs(y, grid):
        for part, quantity in zip(mags, quantities):
            part.append(magnitudes(quantity(comp, g), slab))
        del comp, g
    return (stacked, *(lp_norms(_joined(part), grid, p) for part in mags))


def interpolation_sides(
    y: FrameField,
    rotation: Array | str,
    offset: Array | str,
    grid: QuadratureGrid,
    p: float,
    meta: dict | list | None = None,
) -> InequalityReport | list[InequalityReport]:
    """Evaluate every side of the interpolation inequality for a deformation.

    ``rotation`` is a matrix in SO(3), or "best-fit" for the nearest rotation
    to the volume mean of the gradient.  ``offset`` is a 3-vector, or
    "mean" for the L^2-optimal offset given the rotation.  The
    field's components and partials are evaluated once, on ``grid``; the
    thickness h of the product term is that of ``grid.domain``.

    The nodal work runs in theta slabs (``_slabs``).  What a whole-grid
    reduction reads goes into a whole-grid array: the residual y - R x, the
    distance and |grad y - E^T R E|, and for "best-fit" the gradient and the
    Euclidean gradient E g E^T, since R comes from the latter's mean.  Every
    value is elementwise per node, so the slabs do not move a bit.  An error
    is raised in the order of a whole-grid pass: a non-finite gradient fails
    at the distance, after the residual's norm.

    A field whose components carry a leading seed axis, (S, nt, ntheta, nz,
    3) as ``random_smooth_field`` gives for S seeds, is S deformations at
    once, and the result is a list of S reports; ``meta`` may then list one
    dict per seed.  The nodal arrays are computed once for the stack, and so
    is every reduction: the "mean" offsets and best-fit means are one
    ``weighted_means`` einsum and the L^p sums one ``lp_norms`` pass.  Each
    adds a seed's nodes in the order it takes for that seed alone, so each
    report has the bits of its seed evaluated alone (pinned in
    ``tests/test_battery_stack.py``).  Only the nearest rotation and the L^p
    roots are taken per seed.
    """
    if y.kind != "deformation":
        raise ValueError("interpolation sides need a deformation field")
    if isinstance(rotation, str) and rotation != "best-fit":
        raise ValueError("rotation must be a 3x3 matrix or 'best-fit'")
    if isinstance(offset, str) and offset != "mean":
        raise ValueError("offset must be a 3-vector or 'mean'")
    best_fit = isinstance(rotation, str)
    frame_t = np.swapaxes(grid.nodes.frame, -1, -2)
    if not best_fit:
        r = _require_rotation(rotation)  # one rotation for the whole stack
        ere = conjugate_3x3(frame_t, r)  # E^T R E on the (theta, z) nodes

    # per-slab parts of the whole-grid arrays, and the error a whole-grid dist_SO3 would raise
    resid, dist, g_mag, g_all, ge = [], [], [], [], []
    dist_error = None
    for rows, slab, comp, g, stacked in _slabs(y, grid):
        frame = slab.nodes.frame
        try:
            dist.append(dist_SO3(g))
        except NonFiniteMatrixError as err:  # raised after the residual's norm, as one pass raises it
            dist_error = err
        # matvec sums each entry in one fixed order, so the bits do not depend on comp's layout
        resid.append(matvec(frame, comp))  # E y; a best-fit R x is subtracted once R is known
        del comp
        if best_fit:
            g_all.append(g)
            ge.append(conjugate_3x3(frame, g))  # the Euclidean gradient E g E^T
        else:
            _subtract_rotated(resid[-1], r, slab.identity.points)
            g -= ere[rows]
            g_mag.append(magnitudes(g, slab))
        del g
    resid = _joined(resid)
    metas = _metas(meta, len(resid))
    if best_fit:
        r = [_require_rotation(nearest_rotation(m, warn_degenerate=False)) for m in weighted_means(_joined(ge), grid)]
        del ge
        _subtract_rotated(resid, r, grid.nodes.point(grid.t))  # x without a whole-grid x -> x map
        g_all = _joined(g_all)
        for g_s, r_s in zip(g_all, r):
            g_s -= conjugate_3x3(frame_t, r_s)
        g_mag = [magnitudes(g_all, grid)]
        del g_all
        rotations = [tuple(map(tuple, r_s)) for r_s in r]
    else:
        rotations = [tuple(map(tuple, r))] * len(resid)

    if isinstance(offset, str):
        offsets = weighted_means(resid, grid)
    else:
        offsets = np.broadcast_to(np.asarray(offset, dtype=float), (len(resid), 3))
    resid -= offsets[:, None, None, None]
    field_norms = lp_norms(resid, grid, p)
    del resid
    if dist_error is not None:
        raise dist_error
    dist_norms = lp_norms(_joined(dist), grid, p)
    del dist
    g_norms = lp_norms(_joined(g_mag), grid, p)
    h = grid.domain.h
    scale = grid.volume ** (2.0 / p)
    reports = []
    for r_s, b, g_norm, field_norm, dist_norm, m in zip(rotations, offsets, g_norms, field_norms, dist_norms, metas):
        lhs = g_norm**2
        prod = field_norm * dist_norm / h
        reports.append(_finalize(
            lhs, prod, field_norm**2, dist_norm**2, p, h, r_s, tuple(b), scale,
            {"variant": "interpolation", **(m or {})},
        ))
    return reports if stacked else reports[0]


def korn_linear_sides(
    u: FrameField,
    grid: QuadratureGrid,
    p: float,
    meta: dict | list | None = None,
) -> InequalityReport | list[InequalityReport]:
    """Linearized sides: gradient vs field norm and linear strain.

    The linear strain is the symmetric part of the frame gradient.  The norms
    of the field, its strain and its gradient run in theta slabs
    (``_slab_norms``); h is that of ``grid.domain``.  A stacked field gives
    one report per seed.
    """
    if u.kind != "displacement":
        raise ValueError("the linearized sides need a displacement field")
    stacked, field_norms, strain_norms, g_norms = _slab_norms(
        u, grid, p, lambda comp, g: comp, lambda comp, g: 0.5 * (g + np.swapaxes(g, -1, -2)), lambda comp, g: g
    )
    metas = _metas(meta, len(g_norms))
    h = grid.domain.h
    scale = grid.volume ** (2.0 / p)
    reports = []
    for field_norm, strain_norm, g_norm, m in zip(field_norms, strain_norms, g_norms, metas):
        lhs = g_norm**2
        prod = field_norm * strain_norm / h
        reports.append(_finalize(
            lhs, prod, field_norm**2, strain_norm**2, p, h, None, None, scale,
            {"variant": "korn", **(m or {})},
        ))
    return reports if stacked else reports[0]


# -- two-parameter balance form -----------------------------------------------------


@dataclass(frozen=True)
class BalanceForm:
    """The two balance terms ||v||_p^2 / h^s and ||dist||_p^2 / h^(2-s)."""

    s: float
    term_field: float
    term_dist: float
    p: float
    h: float
    field_norm: float
    dist_norm: float


def balance_form(v: FrameField, grid: QuadratureGrid, p: float, s: float) -> BalanceForm:
    """Evaluate the balance terms of a displacement at exponent s in [0, 2]; h is that of ``grid.domain``."""
    if not 0.0 <= s <= 2.0:
        raise ValueError("balance exponent s must lie in [0, 2]")
    _, (dist_norm,), (field_norm,) = _slab_norms(v, grid, p, lambda c, g: dist_SO3(g + np.eye(3)), lambda c, g: c)
    h = grid.domain.h
    return BalanceForm(
        s=float(s),
        term_field=field_norm**2 / h**s,
        term_dist=dist_norm**2 / h ** (2.0 - s),
        p=float(p),
        h=float(h),
        field_norm=field_norm,
        dist_norm=dist_norm,
    )


def balance_exponent(field_norm: float, dist_norm: float, h: float) -> float:
    """Exponent equalizing the two balance terms, clamped to [0, 2].

    Solves h^s = h * field_norm / dist_norm; a NaN norm gives NaN.
    """
    if field_norm <= 0 or dist_norm <= 0:
        raise ValueError("balance exponent needs positive norms")
    if not 0 < h < 1:
        raise ValueError("h must lie in (0, 1)")
    s = 1.0 + math.log(field_norm / dist_norm) / math.log(h)
    return 0.0 if s <= 0.0 else 2.0 if s >= 2.0 else s


# -- expression-level equivalence of the two right-hand sides ------------------------


@dataclass(frozen=True)
class EquivalenceRecord:
    """Comparison of E1 = ab/h + a^2 + b^2 against E2* = min_s a^2/h^s + b^2/h^(2-s)."""

    a: float
    b: float
    h: float
    e1: float
    e2_star: float
    s_star: float
    upper_ok: bool  # E2* <= 3 E1
    lower_ok: bool  # E1 <= 2 E2* + (a^2 + b^2)
    amgm_ok: bool  # min_s form >= 2ab/h

    @property
    def all_ok(self) -> bool:
        return self.upper_ok and self.lower_ok and self.amgm_ok


def equivalence_check(a: float, b: float, h: float) -> EquivalenceRecord:
    """Quantitative mutual bound between the product form and the balance form.

    The minimum over s in [0, 2] of a^2 h^-s + b^2 h^(s-2) is 2ab/h when the
    balancing exponent is interior and an endpoint value otherwise; either
    way it is within fixed constants of ab/h + a^2 + b^2.
    """
    if a <= 0 or b <= 0 or not 0 < h < 1:
        raise ValueError("need a, b > 0 and h in (0, 1)")
    e1 = a * b / h + a * a + b * b
    s_star = balance_exponent(a, b, h)
    e2_star = a * a / h**s_star + b * b / h ** (2.0 - s_star)
    rel = 1e-12 * max(e1, e2_star)
    return EquivalenceRecord(
        a=float(a),
        b=float(b),
        h=float(h),
        e1=e1,
        e2_star=e2_star,
        s_star=s_star,
        upper_ok=e2_star <= 3.0 * e1 + rel,
        lower_ok=e1 <= 2.0 * e2_star + (a * a + b * b) + rel,
        amgm_ok=e2_star >= 2.0 * a * b / h - rel,
    )
