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

from .fields import FrameField, gradient_from_partials, on_grid
from .fields import frame_gradient  # noqa: F401  (tools bind inequality.frame_gradient)
from .geometry import ThinDomain, embed  # noqa: F401  (re-exported: tools bind inequality.embed)
from .matrixops import conjugate_3x3, dist_SO3, nearest_rotation
from .norms import QuadratureGrid, lp_norm, lp_norms, weighted_mean

Array = np.ndarray

DEGENERATE_RTOL = 1e-10


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
        rotation=None if rotation is None else tuple(map(tuple, np.asarray(rotation))),
        offset=None if offset is None else tuple(np.asarray(offset)),
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


def _residual(comp: Array, rotation, grid: QuadratureGrid) -> Array:
    """y - R x on every node, from the frame components of y.

    For a stack of fields (a leading seed axis on ``comp``) ``rotation`` is
    one R for every seed or a list of one R per seed.
    """
    # These stay einsum: it sums the contiguous j axis in its own order, so
    # a sum written out term by term changes the last bit of the residual.
    y_e = np.einsum("...ij,...j->...i", grid.nodes.frame, comp)
    x = grid.identity.points
    if isinstance(rotation, list):
        for y_s, r in zip(y_e, rotation):
            y_s -= np.einsum("ij,...j->...i", r, x)
    else:
        y_e -= np.einsum("ij,...j->...i", rotation, x)
    return y_e


def optimal_offset(y: FrameField, rotation: Array, domain: ThinDomain, grid: QuadratureGrid) -> Array:
    """Grid mean of y - R x, the L^2-optimal offset (used for all p)."""
    comp, _ = on_grid(y, grid)
    return weighted_mean(_residual(comp, np.asarray(rotation, dtype=float), grid), grid)


def _stacked(comp: Array, par: Array, grid: QuadratureGrid, meta) -> tuple[Array, Array, list, bool]:
    """comp and par with a seed axis (added for a lone field), one meta per seed, and whether it was there.

    ``meta`` is a dict shared by every seed, or a list of one dict per seed.
    """
    stacked = comp.ndim > grid.t.ndim + 1
    if not stacked:
        comp, par = comp[None], par[None]
    metas = meta if isinstance(meta, list) else [meta] * len(comp)
    if len(metas) != len(comp):
        raise ValueError(f"meta lists {len(metas)} dicts for {len(comp)} fields")
    return comp, par, metas, stacked


def interpolation_sides(
    y: FrameField,
    rotation: Array | str,
    offset: Array | str | None,
    domain: ThinDomain,
    grid: QuadratureGrid,
    p: float,
    meta: dict | list | None = None,
) -> InequalityReport | list[InequalityReport]:
    """Evaluate every side of the interpolation inequality for a deformation.

    ``rotation`` is a matrix in SO(3), or "best-fit" for the nearest rotation
    to the volume mean of the gradient.  ``offset`` is a vector, None for
    zero, or "mean" for the L^2-optimal offset given the rotation.  The
    field's components and partials are evaluated once; x and the frame
    come from the cache of ``grid``, which must be a grid on ``domain``.

    A field whose components carry a leading seed axis, (S, nt, ntheta, nz,
    3) as ``random_smooth_field`` gives for S seeds, is S deformations at
    once, and the result is a list of S reports; ``meta`` may then list one
    dict per seed.  The nodal arrays (the gradient, E y, dist(grad y, SO(3))
    and E^T R E for a fixed R) are computed once for the stack, and so are
    the elementwise passes of the L^p norms (``lp_norms``).  Every reduction
    (offset, best-fit rotation, the sum of an L^p norm) runs on one seed's
    C-contiguous slice, as a lone seed's does, so each report has the bits
    of its seed evaluated alone; a sum across the seed axis would move last bits.
    """
    if y.kind != "deformation":
        raise ValueError("interpolation sides need a deformation field")
    if isinstance(rotation, str) and rotation != "best-fit":
        raise ValueError("rotation must be a 3x3 matrix or 'best-fit'")
    if isinstance(offset, str) and offset != "mean":
        raise ValueError("offset must be a 3-vector, None, or 'mean'")

    # each nodal array is dropped after its last use, which bounds peak memory
    comp, par = on_grid(y, grid)
    comp, par, metas, stacked = _stacked(comp, par, grid, meta)
    g = gradient_from_partials(comp, par, grid.t, grid.nodes.coeffs)
    del par
    frame = grid.nodes.frame
    if isinstance(rotation, str):
        ge = conjugate_3x3(frame, g)  # the Euclidean gradient E g E^T
        r = [_require_rotation(nearest_rotation(weighted_mean(m, grid), warn_degenerate=False)) for m in ge]
        del ge
    else:
        r = _require_rotation(rotation)  # one rotation for the whole stack
    resid = _residual(comp, r, grid)
    del comp

    offsets = []
    for resid_s in resid:
        if isinstance(offset, str):
            b = weighted_mean(resid_s, grid)
        else:
            b = np.zeros(3) if offset is None else np.asarray(offset, dtype=float)
        resid_s -= b
        offsets.append(b)
    field_norms = lp_norms(resid, grid, p)
    del resid, resid_s  # the slice would keep the whole stack alive
    dist_norms = lp_norms(dist_SO3(g), grid, p)
    frame_t = np.swapaxes(frame, -1, -2)
    if isinstance(r, list):
        for g_s, r_s in zip(g, r):
            g_s -= conjugate_3x3(frame_t, r_s)  # E^T R E
    else:
        g -= conjugate_3x3(frame_t, r)
    rots = r if isinstance(r, list) else [r] * len(g)
    g_norms = lp_norms(g, grid, p)
    scale = grid.volume ** (2.0 / p)
    reports = []
    for r_s, b, g_norm, field_norm, dist_norm, m in zip(rots, offsets, g_norms, field_norms, dist_norms, metas):
        lhs = g_norm**2
        prod = field_norm * dist_norm / domain.h
        reports.append(_finalize(
            lhs, prod, field_norm**2, dist_norm**2, p, domain.h, r_s, b, scale,
            {"variant": "interpolation", **(m or {})},
        ))
    return reports if stacked else reports[0]


def korn_linear_sides(
    u: FrameField,
    domain: ThinDomain,
    grid: QuadratureGrid,
    p: float,
    meta: dict | list | None = None,
) -> InequalityReport | list[InequalityReport]:
    """Linearized sides: gradient vs field norm and linear strain.

    A stacked field gives one report per seed, as in ``interpolation_sides``:
    the gradient, the strain and the elementwise passes of the norms once
    for the stack, the sum of each norm per seed.
    """
    if u.kind != "displacement":
        raise ValueError("the linearized sides need a displacement field")
    comp, par = on_grid(u, grid)
    comp, par, metas, stacked = _stacked(comp, par, grid, meta)
    g = gradient_from_partials(comp, par, grid.t, grid.nodes.coeffs)
    del par
    field_norms = lp_norms(comp, grid, p)
    strain_norms = lp_norms(0.5 * (g + np.swapaxes(g, -1, -2)), grid, p)
    scale = grid.volume ** (2.0 / p)
    reports = []
    for field_norm, strain_norm, g_norm, m in zip(field_norms, strain_norms, lp_norms(g, grid, p), metas):
        lhs = g_norm**2
        prod = field_norm * strain_norm / domain.h
        reports.append(_finalize(
            lhs, prod, field_norm**2, strain_norm**2, p, domain.h, None, None, scale,
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

    @property
    def total(self) -> float:
        return self.term_field + self.term_dist


def balance_form(
    v: FrameField, domain: ThinDomain, grid: QuadratureGrid, p: float, s: float
) -> BalanceForm:
    """Evaluate the balance terms of a displacement at exponent s in [0, 2]."""
    if not 0.0 <= s <= 2.0:
        raise ValueError("balance exponent s must lie in [0, 2]")
    comp, par = on_grid(v, grid)
    g = gradient_from_partials(comp, par, grid.t, grid.nodes.coeffs)
    dist_norm = lp_norm(dist_SO3(g + np.eye(3)), grid, p)
    field_norm = lp_norm(comp, grid, p)
    h = domain.h
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
