"""Patchwise audit of the localization argument behind the thin-domain estimate.

The shell is split into cells of in-plane size about h^gamma; each cell gets
a best-fit local rotation and offset, and the chain of per-patch bounds
(local rigidity residual, Poincare step, rotation lower bound) is evaluated
as numbers whose h-uniformity can be tested.  A second, coarser partition
drives the passage from the constant-thickness core shell to the full
variable-thickness domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .fields import FrameField, frame_gradient  # noqa: F401  (tools bind localization.frame_gradient)
from .geometry import ProfileError, ThicknessProfile, ThinDomain, embed, matvec  # noqa: F401  (tools bind embed)
from .inequality import _joined, _slabs
from .matrixops import conjugate_3x3, dist_SO3, nearest_rotation
from .norms import QuadratureGrid, build_grid, frobenius, lp_norm

Array = np.ndarray


class PartitionError(ValueError):
    """The requested partition cannot be built at this h."""


@dataclass(frozen=True)
class PatchDecomposition:
    """Congruent chart cells with metric in-plane extent close to the target scale."""

    gamma: float
    h: float
    target: float  # in-plane metric size the cells aim for
    m_theta: int
    m_z: int
    theta_edges: Array
    z_edges: Array
    extent_theta: Array  # metric extents per theta-column of cells
    extent_z: Array
    degenerate: bool = False

    @property
    def count(self) -> int:
        return self.m_theta * self.m_z

    @property
    def scale_constant(self) -> float:
        """Recorded constant c in N = c * h^(-2 gamma)."""
        return self.count * self.h ** (2.0 * self.gamma)

    def cell_rects(self) -> list[tuple[float, float, float, float]]:
        """(theta0, theta1, z0, z1) of every cell, in cell-index order (theta-major)."""
        th = self.theta_edges.tolist()
        zz = self.z_edges.tolist()
        return [(t0, t1, z0, z1) for t0, t1 in zip(th, th[1:]) for z0, z1 in zip(zz, zz[1:])]

    def cell_ids(self, grid: QuadratureGrid) -> Array:
        """Cell index for every grid node, shape (nt, ntheta, nz)."""
        ith = np.clip(np.searchsorted(self.theta_edges, grid.theta, side="right") - 1, 0, self.m_theta - 1)
        iz = np.clip(np.searchsorted(self.z_edges, grid.z, side="right") - 1, 0, self.m_z - 1)
        ids2d = ith[:, None] * self.m_z + iz[None, :]
        return np.broadcast_to(ids2d[None, :, :], grid.resolution)


def _build_partition(domain: ThinDomain, target: float, gamma: float) -> PatchDecomposition:
    surface = domain.surface
    t0, t1, z0, z1 = surface.domain
    l_th, l_z = surface.metric_extents()
    m_th = max(1, round(l_th / target))
    m_z = max(1, round(l_z / target))
    th_edges = np.linspace(t0, t1, m_th + 1)
    z_edges = np.linspace(z0, z1, m_z + 1)

    # per-cell metric extents, from the metric coefficient at cell centers
    thc = 0.5 * (th_edges[:-1] + th_edges[1:])
    zc = 0.5 * (z_edges[:-1] + z_edges[1:])
    TH, ZZ = np.meshgrid(thc, zc, indexing="ij")
    ext_th = (t1 - t0) / m_th * np.asarray(surface.a_theta(TH, ZZ), dtype=float)
    ext_z = (z1 - z0) / m_z * np.asarray(surface.a_z(TH, ZZ), dtype=float)
    return PatchDecomposition(
        gamma=float(gamma),
        h=domain.h,
        target=float(target),
        m_theta=int(m_th),
        m_z=int(m_z),
        theta_edges=th_edges,
        z_edges=z_edges,
        extent_theta=ext_th,
        extent_z=ext_z,
        degenerate=(m_th * m_z == 1),
    )


def partition(domain: ThinDomain, gamma: float) -> PatchDecomposition:
    """Split the chart into cells of metric in-plane size about h^gamma.

    gamma = 0 collapses to a single patch (flagged degenerate); for gamma > 0
    an h too large for at least a 2x2 split raises.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    target = domain.h**gamma
    dec = _build_partition(domain, target, gamma)
    if gamma > 0 and max(dec.m_theta, dec.m_z) < 2:
        raise PartitionError(
            f"h={domain.h:g} too large for a partition at gamma={gamma:g} "
            f"(cell target {target:g} exceeds the patch)"
        )
    return dec


# -- per-patch reductions -----------------------------------------------------------


def _group_lp(ids: Array, weights: Array, mag: Array, n: int, p: float) -> Array:
    acc = np.bincount(ids.reshape(-1), weights=(weights * mag**p).reshape(-1), minlength=n)
    return acc ** (1.0 / p)


def _group_mean(ids: Array, weights: Array, values: Array, n: int, tot: Array) -> Array:
    """Weighted per-cell mean of nodal 3-vectors or 3x3 matrices; ``tot`` holds the cell volumes."""
    flat_ids = ids.reshape(-1)
    flat_w = weights.reshape(-1)
    flat = values.reshape(flat_ids.size, -1)
    out = np.empty((n, flat.shape[1]))
    for k in range(flat.shape[1]):
        out[:, k] = np.bincount(flat_ids, weights=flat_w * flat[:, k], minlength=n)
    return (out / np.where(tot > 0, tot, 1.0)[:, None]).reshape((n, *values.shape[ids.ndim:]))


def _nodal(v: FrameField, grid: QuadratureGrid) -> tuple[Array, Array, Array]:
    """Frame components of v, the Euclidean gradient E (grad v + I) E^T and its dist to SO(3), per node.

    The gradient is conjugated back to the fixed Euclidean basis because the
    frame varies over a patch, so a constant rotation can only be fitted
    there.  It runs in theta slabs (``inequality._slabs``); the joined result
    depends on v and the grid alone, so it is kept in ``grid.memo["nodal"]``
    (see ``QuadratureGrid``) as read-only arrays.

    A field too large for double precision fails here, as a ValueError,
    before any patch reduction: numpy's floating-point warnings are silenced
    for this evaluation only, and the gradient and its distance are checked
    to be finite on every node.
    """
    hit = grid.memo.get("nodal")
    if hit is not None and hit[0] is v:
        return hit[1]
    parts = []  # (comp, ge, dist) per slab
    with np.errstate(all="ignore"):
        for rows, slab, comp, g, stacked in _slabs(v, grid):
            g += np.eye(3)
            ge = conjugate_3x3(slab.nodes.frame, g)
            dist = dist_SO3(ge) if np.all(np.isfinite(ge)) else None
            if dist is None or not np.all(np.isfinite(dist)):
                raise ValueError("values must be finite on all grid nodes")
            parts.append((comp, ge, dist))
    out = tuple(_joined(part)[0] for part in zip(*parts))
    for a in out:
        a.flags.writeable = False
    grid.memo["nodal"] = (v, out)
    return out


def _fit_patches(v: FrameField, grid: QuadratureGrid, ids: Array, n: int, p: float):
    """Best-fit rotation per cell of the Euclidean gradient ge of v on ``grid`` (see ``_nodal``).

    Returns the frame components of v, ge, the cell rotations and volumes,
    the per-cell residual ||ge - R_i||_p, and the node-wise dist(ge, SO(3)).
    """
    comp, ge, dist = _nodal(v, grid)
    w = grid.weights
    tot = np.bincount(ids.reshape(-1), weights=w.reshape(-1), minlength=n)
    rot = nearest_rotation(_group_mean(ids, w, ge, n, tot), warn_degenerate=False)
    resid = _group_lp(ids, w, frobenius(ge - rot[ids], matrix=True), n, p)
    return comp, ge, rot, tot, resid, dist


@dataclass(frozen=True)
class PatchTrace:
    """Per-patch numbers for the localized rigidity chain."""

    index: int
    rect: tuple[float, float, float, float]
    rotation: Array
    offset: Array
    volume: float
    n_nodes: int
    resid: float  # ||grad v + I - R_i||_p on the patch
    dist: float  # ||dist(grad v + I, SO(3))||_p on the patch
    grad: float  # ||grad v||_p on the patch
    field: float  # ||v||_p on the patch
    i_minus_r: float  # ||I - R_i||_p on the patch
    poincare_lhs: float  # ||v + (I - R_i)x - b_i||_p
    rot_lb_lhs: float  # ||(I - R_i)x - mean||_p, worst-case offset
    c_local: float  # resid * h^(1-gamma) / dist
    c_poincare: float  # poincare_lhs / (h^gamma * resid)
    c_rot_lb: float  # rot_lb_lhs / (h^gamma * i_minus_r)
    vacuous: bool


@dataclass(frozen=True)
class TraceAggregate:
    """Whole-domain roll-up of a patch trace."""

    gamma: float
    h: float
    p: float
    count: int
    grad_total: float
    field_total: float
    dist_total: float
    balance_rhs: float  # field/h^gamma + dist/h^(1-gamma)
    c_balance: float  # grad_total / balance_rhs
    c_local_max: float
    c_poincare_max: float
    c_rot_lb_min: float


def patch_trace(
    v: FrameField,
    decomposition: PatchDecomposition,
    grid: QuadratureGrid,
    p: float,
) -> tuple[list[PatchTrace], TraceAggregate]:
    """Local best-fit rotations and the per-patch bound quantities for v.

    ``v`` is the displacement w in y = x + w; the local rotations are fitted
    to grad v + I in the patchwise weighted L^2 sense, offsets are patch
    means of v + (I - R_i)x, and the rotation lower bound uses the
    worst-case offset (the patch mean of (I - R_i)x alone).
    """
    domain = grid.domain
    n = decomposition.count
    nt, nth, nz = grid.resolution
    if nth < 4 * decomposition.m_theta or nz < 4 * decomposition.m_z:
        raise ValueError(
            f"grid {grid.resolution} under-resolves the {decomposition.m_theta}x"
            f"{decomposition.m_z} partition (need >= 4 nodes per patch per direction)"
        )
    ids = decomposition.cell_ids(grid)
    w = grid.weights
    comp, ge, rot, tot, resid, dist_nodes = _fit_patches(v, grid, ids, n, p)
    dist = _group_lp(ids, w, dist_nodes, n, p)

    x_e = grid.nodes.point(grid.t)
    v_e = matvec(grid.nodes.frame, comp)
    imr_x = x_e - matvec(rot[ids], x_e)
    b = _group_mean(ids, w, v_e + imr_x, n, tot)
    b_worst = _group_mean(ids, w, imr_x, n, tot)

    grad = _group_lp(ids, w, frobenius(ge - np.eye(3), matrix=True), n, p)
    field = _group_lp(ids, w, frobenius(v_e, matrix=False), n, p)
    imr_frob = np.linalg.norm(rot - np.eye(3), axis=(-2, -1))
    i_minus_r = imr_frob * tot ** (1.0 / p)
    poin = _group_lp(ids, w, frobenius(v_e + imr_x - b[ids], matrix=False), n, p)
    rot_lb = _group_lp(ids, w, frobenius(imr_x - b_worst[ids], matrix=False), n, p)

    h = domain.h
    gamma = decomposition.gamma
    hg = h**gamma
    scale = grid.volume ** (1.0 / p)
    tiny = 1e-13 * scale
    counts = np.bincount(ids.reshape(-1), minlength=n)

    # per-patch records from Python floats: the same IEEE operations as on numpy scalars
    h_local = h ** (1.0 - gamma)
    traces = [
        PatchTrace(  # index, rect, rotation, offset, volume, n_nodes, resid, ..., rot_lb_lhs
            i, rect, r_i, b_i, vol, cnt, res, d, gr, fi, imr, po, rl,
            c_local=res * h_local / d if d > tiny else math.nan,
            c_poincare=po / (hg * res) if res > tiny else math.nan,
            c_rot_lb=rl / (hg * imr) if imr > tiny * 1e2 else math.nan,
            vacuous=res <= tiny or imr <= tiny * 1e2 or d <= tiny,
        )
        for i, (rect, r_i, b_i, vol, cnt, res, d, gr, fi, imr, po, rl) in enumerate(
            zip(
                decomposition.cell_rects(), rot, b, tot.tolist(), counts.tolist(), resid.tolist(),
                dist.tolist(), grad.tolist(), field.tolist(), i_minus_r.tolist(), poin.tolist(),
                rot_lb.tolist(),
            )
        )
    ]

    grad_total = float(np.sum(grad**p) ** (1.0 / p))
    field_total = float(np.sum(field**p) ** (1.0 / p))
    dist_total = float(np.sum(dist**p) ** (1.0 / p))
    balance_rhs = field_total / hg + dist_total / h ** (1.0 - gamma)
    live = [tr for tr in traces if not tr.vacuous]
    agg = TraceAggregate(
        gamma=gamma,
        h=h,
        p=float(p),
        count=n,
        grad_total=grad_total,
        field_total=field_total,
        dist_total=dist_total,
        balance_rhs=balance_rhs,
        c_balance=grad_total / balance_rhs if balance_rhs > 0 else math.nan,
        c_local_max=max((tr.c_local for tr in live), default=math.nan),
        c_poincare_max=max((tr.c_poincare for tr in live), default=math.nan),
        c_rot_lb_min=min((tr.c_rot_lb for tr in live), default=math.nan),
    )
    return traces, agg


def rotation_lower_bound_check(
    rotation: Array,
    offset: Array | None,
    rect: tuple[float, float, float, float],
    grid: QuadratureGrid,
    p: float,
    length_scale: float,
) -> dict:
    """Compare ||(I - R)x - b||_p against length_scale * ||I - R||_p on one patch.

    ``offset=None`` selects the worst case b, the patch mean of (I - R)x.
    The returned constant is their ratio; for R = I the check is vacuous and
    flagged.
    """
    r = np.asarray(rotation, dtype=float)
    mask = (
        (grid.theta >= rect[0]) & (grid.theta <= rect[1])
    )[None, :, None] & ((grid.z >= rect[2]) & (grid.z <= rect[3]))[None, None, :]
    mask = np.broadcast_to(mask, grid.resolution)
    w = np.where(mask, grid.weights, 0.0)
    vol = float(w.sum())
    if vol <= 0:
        raise ValueError("patch rectangle contains no grid nodes")

    x_e = grid.nodes.point(grid.t)
    imr_x = x_e - matvec(r, x_e)
    if offset is None:
        b = np.einsum("tij,tij...->...", w, imr_x) / vol
    else:
        b = np.asarray(offset, dtype=float)
    lhs = float(np.sum(w * frobenius(imr_x - b, matrix=False) ** p) ** (1.0 / p))
    imr = float(np.linalg.norm(r - np.eye(3)))
    rhs = length_scale * imr * vol ** (1.0 / p)
    vacuous = imr <= 1e-13
    return {
        "lhs": lhs,
        "rhs": rhs,
        "constant": lhs / rhs if rhs > 0 else math.nan,
        "offset": b,
        "volume": vol,
        "vacuous": vacuous,
    }


# -- passage from the core shell to the variable-thickness domain --------------------


@dataclass(frozen=True)
class ShellDomainTrace:
    """Numbers for the core-shell-to-domain comparison on one field."""

    h: float
    p: float
    count: int
    core_half_thickness: float
    grad_domain: float
    grad_core: float
    dist_domain: float
    ratio: float  # grad_domain / (dist_domain + grad_core)
    c_excess: float  # (grad_domain - grad_core) / dist_domain
    rot_gap_max: float  # max_i ||R_i^1 - R_i^2||_F
    c_rot_gap_max: float  # max_i ||R1-R2|| * |core patch|^(1/p) / dist_i
    trivial: bool
    per_patch: list = dc_field(default_factory=list)


def shell_to_domain_trace(v: FrameField, grid: QuadratureGrid, p: float) -> ShellDomainTrace:
    """Trace the comparison between the full domain ``grid.domain`` and its constant-thickness core.

    The core shell has half-thickness a = min(g1, g2) over the patch, so it
    is contained in the domain whenever the profile is admissible.  Patches
    have in-plane size about 10 h, with at most 24 cells per direction so
    desk-scale grids stay resolvable.  Per patch, best-fit rotations on the
    core and on the full column quantify the triangle-inequality chain; the
    aggregate ratio
    grad_domain / (dist_domain + grad_core) is the bounded empirical
    constant of the passage.
    """
    domain = grid.domain
    surface = domain.surface
    th_s, zz_s = surface.interior_samples(65)
    g1 = np.asarray(domain.profile.g1(th_s, zz_s), dtype=float)
    g2 = np.asarray(domain.profile.g2(th_s, zz_s), dtype=float)
    a = float(min(g1.min(), g2.min()))
    if a <= 0:
        raise ProfileError("profile admits no constant-thickness core shell")
    spread = float(max(g1.max(), g2.max())) / a
    trivial = bool(spread < 1.0 + 1e-12)

    # constant-core profile; by construction a <= g1, g2 on the sample grid
    def g_core(theta, z):
        return a * np.ones(np.broadcast(np.asarray(theta), np.asarray(z)).shape)

    core_profile = ThicknessProfile(
        h=domain.h, g1=g_core, g2=g_core, c1=max(1.0, a / domain.h) + 1e-9,
        c2=domain.profile.c2, lower=min(1.0, a / domain.h) - 1e-9, kind="core",
    )
    core = ThinDomain(surface, core_profile)
    if np.any(np.minimum(g1, g2) < a - 1e-12):
        raise ProfileError(
            "core shell is not contained in the domain (profile violates the uniform bounds)"
        )
    core_grid = build_grid(core, grid.resolution)

    l_th, l_z = surface.metric_extents()
    dec = _build_partition(domain, max(10.0 * domain.h, max(l_th, l_z) / 24), gamma=1.0)

    p_f = float(p)
    n = dec.count
    ids_o = dec.cell_ids(grid)
    ids_c = dec.cell_ids(core_grid)
    _, g_o, rot_o, tot_o, resid_o, dist_o = _fit_patches(v, grid, ids_o, n, p_f)
    _, g_c, rot_c, tot_c, resid_c, dist_c = _fit_patches(v, core_grid, ids_c, n, p_f)
    grad_o = frobenius(g_o - np.eye(3), matrix=True)
    grad_c = frobenius(g_c - np.eye(3), matrix=True)
    dist_o_p = _group_lp(ids_o, grid.weights, dist_o, n, p_f)
    dist_c_p = _group_lp(ids_c, core_grid.weights, dist_c, n, p_f)
    gap = np.linalg.norm(rot_o - rot_c, axis=(-2, -1))
    scale = grid.volume ** (1.0 / p_f)
    c_gap = np.where(dist_o_p > 1e-13 * scale, gap * tot_c ** (1.0 / p_f) / np.maximum(dist_o_p, 1e-300), np.nan)

    grad_domain = lp_norm(grad_o, grid, p_f)
    grad_core = lp_norm(grad_c, core_grid, p_f)
    dist_domain = lp_norm(dist_o, grid, p_f)
    denom = dist_domain + grad_core
    ratio = grad_domain / denom if denom > 0 else math.nan
    c_excess = (grad_domain - grad_core) / dist_domain if dist_domain > 1e-13 * scale else math.nan

    keys = (
        "index", "rect", "resid_core", "resid_domain", "dist_core", "dist_domain", "rot_gap", "c_rot_gap",
        "core_volume", "domain_volume",
    )
    arrays = (resid_c, resid_o, dist_c_p, dist_o_p, gap, c_gap, tot_c, tot_o)
    columns = (range(n), dec.cell_rects(), *(a.tolist() for a in arrays))
    out_patches = [dict(zip(keys, values)) for values in zip(*columns)]

    finite_gaps = c_gap[np.isfinite(c_gap)]
    return ShellDomainTrace(
        h=domain.h,
        p=p_f,
        count=n,
        core_half_thickness=a,
        grad_domain=grad_domain,
        grad_core=grad_core,
        dist_domain=dist_domain,
        ratio=float(ratio),
        c_excess=float(c_excess) if math.isfinite(c_excess) else math.nan,
        rot_gap_max=float(gap.max()),
        c_rot_gap_max=float(finite_gaps.max()) if finite_gaps.size else math.nan,
        trivial=trivial,
        per_patch=out_patches,
    )
