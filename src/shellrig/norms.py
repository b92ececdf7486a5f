"""Tensor-product Gauss-Legendre grids over thin domains and L^p norms.

The t-interval of the rule follows the thickness profile column by column,
and the quadrature weights absorb the curvilinear volume element, so a
weighted sum over nodes is an integral over the thin domain.  Reductions
use a fixed summation order, which keeps runs bit-reproducible.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy.special import roots_legendre

from .geometry import ChartDegeneracyError, SurfaceNodes, ThinDomain, volume_jacobian

Array = np.ndarray


class IdentityMap(NamedTuple):
    """The map x -> x on every node of a grid (read-only arrays)."""

    components: Array  # frame components E^T x
    partials: Array
    points: Array  # embedded points x


@dataclass(frozen=True)
class QuadratureGrid:
    """Gauss-Legendre nodes/weights on a thin domain.

    ``t`` has shape (nt, ntheta, nz); ``theta`` and ``z`` are the 1-d node
    sets; ``weights`` includes the volume element, so ``weights.sum()`` is
    the domain volume up to the rule's accuracy.

    The grid also caches what every field evaluated on it shares, each
    computed on first use and kept for the grid's lifetime: ``t_axis``, t on
    the axis it varies over ((nt, 1, 1) when every column holds the same t
    nodes, as on a uniform shell), on which fields are evaluated; ``nodes``,
    the frame and chart coefficients on the (ntheta, nz) nodes only, since
    none depends on t; and ``identity``, the embedded points and the frame
    components and partials of the map x -> x on all nodes.  The latter are
    3-d arrays (about 120 bytes per node), so hold a grid only while its
    reports are evaluated: a sweep keeps ``resolution``, not the grid.

    ``memo`` holds what depends on a field as well as the grid.  Only the
    localization audit fills it, with one entry ``"nodal"``: the last field
    traced on the grid and its components, Euclidean gradient and distance
    to SO(3) on all nodes, so the bump trace's two passes over one grid
    evaluate the field once.  The key is the field object itself (held, so
    its identity cannot be reused); another field replaces the entry, and it
    dies with the grid.  Sweeps never use it.

    A grid on another profile of the same surface at the same resolution has
    the same (theta, z) nodes, so it shares the plane geometry: ``on_domain``
    (the audit's core-shell grid) reuses ``nodes`` instead of evaluating them.
    """

    domain: ThinDomain
    resolution: tuple[int, int, int]
    t: Array
    theta: Array
    z: Array
    weights: Array
    memo: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def volume(self) -> float:
        return float(self.weights.sum())

    @property
    def plane(self) -> tuple[Array, Array]:
        """theta and z as (ntheta, 1) and (1, nz) arrays; they broadcast against ``t``."""
        return self.theta[:, None], self.z[None, :]

    @cached_property
    def t_axis(self) -> Array:
        """``t`` as an (nt, 1, 1) view if every (theta, z) column holds the same t nodes, else ``t``.

        Decided by exact comparison of the values, not by the profile's name, so a
        constant core shell qualifies too.  Fields evaluated on it (``fields.on_grid``)
        compute their t-only factors once per thickness node, with the same bits.
        """
        col = self.t[:, :1, :1]
        return col if np.all(self.t == col) else self.t

    @cached_property
    def nodes(self) -> SurfaceNodes:
        return self.domain.surface.nodes(*self.plane)

    @cached_property
    def identity(self) -> IdentityMap:
        x = self.nodes.point(self.t)
        out = IdentityMap(self.nodes.in_frame(x), self.nodes.identity_partials(self.t, x), x)
        for a in out:
            a.flags.writeable = False
        return out

    def on_domain(self, domain: ThinDomain) -> QuadratureGrid:
        """``build_grid(domain, self.resolution)`` for a domain on this surface, sharing ``nodes``."""
        if domain.surface is not self.domain.surface:
            raise ValueError("a grid shares its plane geometry only with a domain on its surface")
        grid = build_grid(domain, self.resolution)
        grid.__dict__["nodes"] = self.nodes  # fills the cached property
        return grid

    def mesh(self) -> tuple[Array, Array, Array]:
        """Full (nt, ntheta, nz) coordinate arrays."""
        nt, nth, nz = self.resolution
        th = np.broadcast_to(self.theta[None, :, None], (nt, nth, nz))
        zz = np.broadcast_to(self.z[None, None, :], (nt, nth, nz))
        return self.t, th, zz


@lru_cache(maxsize=64)
def _gauss_legendre(n: int) -> tuple[Array, Array]:
    """The n-point Gauss-Legendre rule on [-1, 1] as read-only (nodes, weights)."""
    rule = roots_legendre(n)
    for a in rule:
        a.flags.writeable = False
    return rule


def build_grid(domain: ThinDomain, resolution: tuple[int, int, int]) -> QuadratureGrid:
    """Tensor-product Gauss-Legendre grid; t spans (-g1, g2) per column.

    The 1-d rules depend on the node count alone, so ``_gauss_legendre``
    keeps up to 64 of them for the life of the process: ``roots_legendre``
    takes about 11 ms at n = 506, and a sweep, repeated CLI calls in one
    process and a test session ask for the same counts again and again.
    The cached arrays are read-only, so every grid sees the fresh rule's
    values.
    """
    nt, nth, nz = (int(n) for n in resolution)
    if min(nt, nth, nz) < 2:
        raise ValueError("every grid dimension needs at least 2 nodes")
    t0, t1, z0, z1 = domain.surface.domain

    xt, wt = _gauss_legendre(nt)
    xth, wth = _gauss_legendre(nth)
    xz, wz = _gauss_legendre(nz)

    theta = 0.5 * (t0 + t1) + 0.5 * (t1 - t0) * xth
    z = 0.5 * (z0 + z1) + 0.5 * (z1 - z0) * xz
    wth = 0.5 * (t1 - t0) * wth
    wz = 0.5 * (z1 - z0) * wz

    th2 = theta[:, None]
    z2 = z[None, :]
    g1 = np.broadcast_to(np.asarray(domain.profile.g1(th2, z2), dtype=float), (nth, nz))
    g2 = np.broadcast_to(np.asarray(domain.profile.g2(th2, z2), dtype=float), (nth, nz))
    half = 0.5 * (g1 + g2)
    mid = 0.5 * (g2 - g1)
    t = mid[None, :, :] + half[None, :, :] * xt[:, None, None]
    w_t = half[None, :, :] * wt[:, None, None]

    th3 = np.broadcast_to(theta[None, :, None], (nt, nth, nz))
    z3 = np.broadcast_to(z[None, None, :], (nt, nth, nz))
    try:
        jac = volume_jacobian(domain, t, th3, z3)
    except ChartDegeneracyError as err:
        raise ChartDegeneracyError(f"grid node inside a degenerate chart region: {err}") from err
    bad = jac <= 0
    if np.any(bad):
        i = np.argwhere(bad)[0]
        raise ChartDegeneracyError(
            f"nonpositive volume element at node t={t[tuple(i)]:.3e}, "
            f"theta={theta[i[1]]:.3e}, z={z[i[2]]:.3e}"
        )
    weights = w_t * wth[None, :, None] * wz[None, None, :] * jac
    return QuadratureGrid(
        domain=domain,
        resolution=(nt, nth, nz),
        t=t,
        theta=theta,
        z=z,
        weights=weights,
    )


def adaptive_theta_resolution(domain: ThinDomain, base: int = 64, per_scale: int = 16) -> int:
    """Theta node count resolving sqrt(h)-scale oscillation on the patch."""
    t0, t1, _, _ = domain.surface.domain
    return max(base, int(math.ceil(per_scale * (t1 - t0) / math.sqrt(domain.h))))


def _pointwise_magnitude(values: Array, grid: QuadratureGrid, lead: int = 0) -> Array:
    """Nodal magnitudes of values with ``lead`` leading stack axes before the grid's."""
    values = np.asarray(values, dtype=float)
    base = tuple(grid.resolution)
    shape = values.shape[lead:]
    if shape == base:
        return np.abs(values)
    if shape == base + (3,):
        return np.linalg.norm(values, axis=-1)
    if shape == base + (3, 3):
        return np.linalg.norm(values, axis=(-2, -1))
    raise ValueError(
        f"values shape {shape} does not match grid resolution {base} "
        "(scalar, 3-vector, or 3x3 nodal values expected)"
    )


def lp_norm(values: Array, grid: QuadratureGrid, p: float) -> float:
    """L^p norm over the thin domain; 1 < p < infinity only.

    Scalars use absolute value, vectors the Euclidean norm, matrices the
    Frobenius norm.
    """
    if not (1.0 < p < math.inf):
        raise ValueError("p must satisfy 1 < p < infinity")
    mag = _pointwise_magnitude(values, grid)
    if not np.all(np.isfinite(mag)):
        raise ValueError("values must be finite on all grid nodes")
    return float(np.sum(grid.weights * mag**p) ** (1.0 / p))


def lp_norms(stack: Array, grid: QuadratureGrid, p: float) -> list[float]:
    """``[lp_norm(v, grid, p) for v in stack]``, with the same bits and errors.

    The magnitudes, the finiteness check and the weighted powers are
    elementwise, so each is one pass over the whole stack.  The sum runs
    once per seed on that seed's C-contiguous slice, in ``lp_norm``'s order;
    a reduction that runs across the seed axis adds in another order and
    moves last bits.
    """
    if not (1.0 < p < math.inf):
        raise ValueError("p must satisfy 1 < p < infinity")
    mag = _pointwise_magnitude(stack, grid, lead=1)
    if not np.all(np.isfinite(mag)):
        raise ValueError("values must be finite on all grid nodes")
    return [float(np.sum(w) ** (1.0 / p)) for w in grid.weights * mag**p]


def weighted_mean(values: Array, grid: QuadratureGrid) -> Array:
    """Volume-weighted mean of nodal scalar or vector values."""
    values = np.asarray(values, dtype=float)
    w = grid.weights
    if values.shape == tuple(grid.resolution):
        return np.sum(w * values) / grid.volume
    return np.einsum("tij,tij...->...", w, values) / grid.volume


# -- sampled-field CSV schema -----------------------------------------------------


def write_samples_csv(path, grid: QuadratureGrid, values: Array, header_values=None) -> None:
    """Write nodal samples as rows ``t,theta,z,v1,...,vk`` with a header."""
    values = np.asarray(values, dtype=float)
    nt, nth, nz = grid.resolution
    flat_vals = values.reshape(nt * nth * nz, -1)
    k = flat_vals.shape[1]
    names = header_values or [f"v{i + 1}" for i in range(k)]
    t, th, zz = grid.mesh()
    cols = np.column_stack(
        [t.reshape(-1), th.reshape(-1), zz.reshape(-1), flat_vals]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "theta", "z", *names])
        for row in cols:
            writer.writerow([format(x, ".17g") for x in row])


def read_samples_csv(path) -> tuple[Array, Array, Array, Array]:
    """Read the sampled-field schema back as (t, theta, z, values) flat arrays."""
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:3] != ["t", "theta", "z"]:
            raise ValueError(f"{path}: expected header starting with t,theta,z")
        data = np.array([[float(x) for x in row] for row in reader])
    if data.size == 0:
        raise ValueError(f"{path}: no sample rows")
    return data[:, 0], data[:, 1], data[:, 2], data[:, 3:]
