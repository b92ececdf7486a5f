"""Tensor-product Gauss-Legendre grids over thin domains and L^p norms.

The t-interval of the rule follows the thickness profile column by column,
and the quadrature weights absorb the curvilinear volume element, so a
weighted sum over nodes is an integral over the thin domain.  Reductions
use a fixed summation order, which keeps runs bit-reproducible.

The 1-d rules are built from numpy alone (``roots_legendre``) and carry the
bits of scipy 1.17.1's ``scipy.special.roots_legendre`` without importing
scipy, odd rules included: the Legendre value at an odd rule's centre node
takes scipy's power series, whose beta coefficients come from a port of
cephes' ``lgam`` or, for the smaller degrees, from scipy's values recorded in
``legendre_beta.json`` (``scripts/record_legendre_beta.py``).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from .geometry import ChartDegeneracyError, IdentityMap, SurfaceNodes, ThinDomain, volume_jacobian

Array = np.ndarray


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
    none depends on t: the plane that every grid on its surface with its
    (ntheta, nz) takes (``plane_nodes``); and ``identity``, the embedded
    points and the frame components and partials of the map x -> x on all
    nodes, built in one pass from ``nodes`` by ``SurfaceNodes.identity`` and
    read by the fields (``fields.on_grid``) and by a report's fixed-R
    residual.  Its arrays are stored component-major behind node-major
    (..., 3) and (..., 3, 3) views (about 120 bytes per node), so hold a
    grid only while its reports are evaluated: a sweep keeps
    ``resolution``, not the grid.

    ``slab(rows)`` is the sub-grid of a range of theta nodes, on which the
    reports evaluate a fine grid piece by piece.  It views ``t``,
    ``weights`` and what this grid has evaluated so far (``nodes``,
    ``t_axis`` and ``identity``), cut to the rows, so nothing is evaluated
    again; an ``identity`` the grid has not built is built for the slab's
    nodes alone, and dies with the slab.  The whole range is the grid itself.

    ``memo`` holds what depends on a field as well as the grid.  Only the
    localization audit fills it, with one entry ``"nodal"``: the last field
    traced on the grid and its components, Euclidean gradient and distance
    to SO(3) on all nodes, evaluated in slabs like a report's and joined,
    so the bump trace's two passes over one grid evaluate the field once.
    The key is the field object itself (held, so its identity cannot be
    reused); another field replaces the entry, and it dies with the grid.
    Sweeps never use it.
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
        return plane_nodes(self.domain.surface, self.resolution)

    @cached_property
    def identity(self) -> IdentityMap:
        out = self.nodes.identity(self.t)
        for a in out:
            a.flags.writeable = False
        return out

    def slab(self, rows: slice) -> QuadratureGrid:
        """The sub-grid of the theta nodes ``rows`` (a slice of unit step); the whole range is ``self``."""
        nt, nth, nz = self.resolution
        lo, hi, _ = rows.indices(nth)
        if (lo, hi) == (0, nth):
            return self
        sub = QuadratureGrid(self.domain, (nt, hi - lo, nz), self.t[:, lo:hi], self.theta[lo:hi], self.z,
                             self.weights[:, lo:hi])
        sub.__dict__["nodes"] = self.nodes.rows(lo, hi)  # fills the cached properties
        sub.__dict__["t_axis"] = self.t_axis if self.t_axis.shape[1] == 1 else self.t_axis[:, lo:hi]
        if "identity" in self.__dict__:
            sub.__dict__["identity"] = IdentityMap(*(a[:, lo:hi] for a in self.identity))
        return sub

    def mesh(self) -> tuple[Array, Array, Array]:
        """Full (nt, ntheta, nz) coordinate arrays."""
        nt, nth, nz = self.resolution
        th = np.broadcast_to(self.theta[None, :, None], (nt, nth, nz))
        zz = np.broadcast_to(self.z[None, None, :], (nt, nth, nz))
        return self.t, th, zz


# cephes' Stirling-series coefficients of lgam(x) for 13 <= x < 1000
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
           -2.77777777730099687205e-3, 8.33333333333331927722e-2)


def _lgam(x: float) -> float:
    """log Gamma(x) for 13 <= x < 1e8, in the operation order of cephes' ``lgam`` (libm log)."""
    q = (x - 0.5) * math.log(x) - x + 0.91893853320467274178
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    poly = _LGAM_A[0]
    for c in _LGAM_A[1:]:
        poly = poly * p + c
    return q + poly / x


@lru_cache(maxsize=1)
def _recorded_beta() -> dict:
    """``legendre_beta.json``: scipy's B(a + 1, b) for a = 1..170 and its log|Gamma(b)|, per b = -0.5, 0.5."""
    return json.loads(Path(__file__).with_name("legendre_beta.json").read_text())


def _beta_half(a: int, b: float) -> float:
    """B(a + 1, b) for b = -0.5 or 0.5 and 1 <= a < 10^6, with the bits of ``scipy.special.beta``.

    cephes' ``beta`` divides Gamma values while a + 1 and a + 1 + b are at most
    171.62 (a <= 170); those are read from the table recorded from scipy.  For
    a >= 171 it takes sign(Gamma(b)) exp(lgam(a + 1) + (lgam(b) - lgam(a + 1 + b))),
    ported here with lgam(b) from the table.
    """
    rec = _recorded_beta()[str(b)]
    if a <= len(rec["beta"]):
        return rec["beta"][a - 1]
    y = rec["gammaln"] - _lgam(a + 1 + b)
    return math.copysign(math.exp(_lgam(a + 1.0) + y), b)


def _centre_legendre(n: int, x: float) -> float:
    """P_n(x) for n >= 2 and |x| < 1e-5: scipy's power series, in its operation order."""
    a, m = divmod(n, 2)
    sign = -1.0 if a % 2 else 1.0
    term = sign * (2 * x / _beta_half(a, 0.5) if m else -2.0 / _beta_half(a, -0.5))
    total = 0.0
    for k in range(a + 1):
        total += term
        term *= -2 * (a - k) * (2 * n - 2 * a + 2 * k + 1) * x * x / ((m + 2 * k + 1) * (m + 2 * k + 2))
        if term == 0.0:  # so is every later term
            break
    return total


def _legendre(n: int, x: Array) -> Array:
    """P_n(x) for n >= 1, with the bits of scipy 1.17.1's ``scipy.special.eval_legendre(n, x)``.

    This is scipy's three-term recurrence in its operation order.  Near 0
    scipy switches to a power series, so the few |x| < 1e-5 (the centre node
    of an odd rule) take that series (``_centre_legendre``); scipy is not
    imported.
    """
    if n == 1:
        return x.copy()
    d = xm1 = x - 1
    p = x.copy()
    for kk in range(n - 1):
        d = ((2 * kk + 3.0) / (kk + 2)) * xm1 * p + ((kk + 1.0) / (kk + 2)) * d
        p += d
    centre = np.abs(x) < 1e-5
    if centre.any():
        p[centre] = [_centre_legendre(n, v) for v in x[centre].tolist()]
    return p


def roots_legendre(n: int) -> tuple[Array, Array]:
    """The n-point Gauss-Legendre (nodes, weights) on [-1, 1], n >= 2.

    Bit for bit scipy 1.17.1's ``scipy.special.roots_legendre(n)``, step by
    step, without importing scipy: the eigenvalues of the Jacobi matrix
    (``eigvalsh`` reduces a tridiagonal matrix exactly and ends in the same
    LAPACK ``dsterf`` as scipy's ``eigvals_banded``), one Newton step with
    ``_legendre``, log-normalised weights, symmetrisation and scaling to the
    interval's length.  The dense
    eigenvalue step costs O(n^3): on a 2-vCPU Xeon host about 40 ms at
    n = 506 and 0.4-0.7 s at n = 1600, against scipy's 10 ms and 0.1 s.
    """
    k = np.arange(1, n, dtype=float)
    x = np.linalg.eigvalsh(np.diag(k * np.sqrt(1.0 / (4 * k * k - 1)), -1))
    y = _legendre(n, x)
    dy = (-n * x * y + n * _legendre(n - 1, x)) / (1 - x**2)
    x -= y / dy
    fm = _legendre(n - 1, x)
    log_fm = np.log(np.abs(fm))
    log_dy = np.log(np.abs(dy))
    fm /= np.exp((log_fm.max() + log_fm.min()) / 2.0)
    dy /= np.exp((log_dy.max() + log_dy.min()) / 2.0)
    w = 1.0 / (fm * dy)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    return x, w


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
    takes about 40 ms at n = 506 (O(n^3)), and a sweep, repeated CLI calls
    in one process and a test session ask for the same counts again and
    again.
    The cached arrays are read-only, so every grid sees the fresh rule's
    values.

    The volume element takes the (ntheta, 1) and (1, nz) node arrays, so its
    chart maps run once per (theta, z) node and only the offset factors
    1 + t kappa per grid node; numpy's maps give the same bits on these
    arrays as on broadcast (nt, ntheta, nz) copies.
    """
    nt, nth, nz = (int(n) for n in resolution)
    if min(nt, nth, nz) < 2:
        raise ValueError("every grid dimension needs at least 2 nodes")
    xt, wt = _gauss_legendre(nt)
    theta, wth, z, wz = _plane_rules(domain.surface, nth, nz)

    th2 = theta[:, None]
    z2 = z[None, :]
    g1 = np.broadcast_to(np.asarray(domain.profile.g1(th2, z2), dtype=float), (nth, nz))
    g2 = np.broadcast_to(np.asarray(domain.profile.g2(th2, z2), dtype=float), (nth, nz))
    half = 0.5 * (g1 + g2)
    mid = 0.5 * (g2 - g1)
    t = mid[None, :, :] + half[None, :, :] * xt[:, None, None]
    w_t = half[None, :, :] * wt[:, None, None]

    try:
        jac = volume_jacobian(domain, t, th2, z2)
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


def _plane_rules(surface, nth: int, nz: int) -> tuple[Array, Array, Array, Array]:
    """theta, its weights, z and its weights: the plane rules of every grid on ``surface`` with nth x nz nodes."""
    t0, t1, z0, z1 = surface.domain
    xth, wth = _gauss_legendre(nth)
    xz, wz = _gauss_legendre(nz)
    theta = 0.5 * (t0 + t1) + 0.5 * (t1 - t0) * xth
    z = 0.5 * (z0 + z1) + 0.5 * (z1 - z0) * xz
    return theta, 0.5 * (t1 - t0) * wth, z, 0.5 * (z1 - z0) * wz


def plane_nodes(surface, resolution: tuple[int, int, int]) -> SurfaceNodes:
    """The plane geometry of every grid on ``surface`` with the (ntheta, nz) of ``resolution``.

    It depends on neither h nor the profile nor nt.  ``surface.memo`` keeps
    one plane with its (ntheta, nz); other counts drop it before their plane
    is evaluated, so a surface holds one plane at a time.  The plane returned
    is the one found or built here, which another thread may since have
    replaced in the memo.
    """
    _, nth, nz = (int(n) for n in resolution)
    plane = surface.memo.get("plane", {}).get((nth, nz))
    if plane is None:
        surface.memo.pop("plane", None)  # before another plane is evaluated
        theta, _, z, _ = _plane_rules(surface, nth, nz)
        plane = surface.nodes(theta[:, None], z[None, :])
        surface.memo["plane"] = {(nth, nz): plane}
    return plane


def adaptive_theta_resolution(domain: ThinDomain, base: int = 64) -> int:
    """Theta node count resolving sqrt(h)-scale oscillation on the patch: 16 nodes per sqrt(h) of theta span."""
    t0, t1, _, _ = domain.surface.domain
    return max(base, int(math.ceil(16 * (t1 - t0) / math.sqrt(domain.h))))


def frobenius(values: Array, matrix: bool) -> Array:
    """The Euclidean norm of each 3-vector, or with ``matrix`` the Frobenius norm of each 3x3 matrix, of ``values``.

    The squares are added as explicit sums, in the order numpy's
    ``add.reduce`` takes on a C-contiguous array: (s0 + s1) + s2 for a
    vector, and for a matrix the pairwise sum of its 8-way unrolled loop,
    (((s00 + s01) + (s02 + s10)) + ((s11 + s12) + (s20 + s21))) + s22.  On
    C-contiguous values this is ``np.linalg.norm`` bit for bit, infs and
    NaNs included, except the sign of a NaN from NaNs of both signs in one
    node (``tests/test_norms.py``).  On any other layout the order stays the
    same, so the bits do not depend on numpy's reduction kernel, and the
    entries are indexed, not reshaped, so a component-major array is read
    in place, one contiguous pass per entry.  At a
    battery's 5,120 nodes it takes a half to a fifth of numpy's time, with
    numpy's scratch: the squares and two node-sized arrays (a third one
    raised the sharpness sweep's peak RSS by about 0.3 MB).
    """
    s = np.square(values)
    if not matrix:
        out = np.add(s[..., 0], s[..., 1])
        out += s[..., 2]
        return np.sqrt(out, out=out)
    out = np.add(s[..., 0, 0], s[..., 0, 1])
    tmp = np.add(s[..., 0, 2], s[..., 1, 0])
    out += tmp
    np.add(s[..., 1, 1], s[..., 1, 2], out=tmp)
    tmp += np.add(s[..., 2, 0], s[..., 2, 1], out=s[..., 2, 0])  # into the squares, which nothing reads again
    out += tmp
    out += s[..., 2, 2]
    return np.sqrt(out, out=out)


def magnitudes(values: Array, grid: QuadratureGrid) -> Array:
    """Nodal magnitudes of a stack of nodal values, one leading stack axis before the grid's.

    Scalars use absolute value, vectors the Euclidean norm, matrices the
    Frobenius norm (``frobenius``), each node on its own, so the magnitudes
    of a slab of nodes have the bits they have in the whole grid.
    """
    values = np.asarray(values, dtype=float)
    base = tuple(grid.resolution)
    shape = values.shape[1:]
    if shape == base:
        return np.abs(values)
    if shape in (base + (3,), base + (3, 3)):
        return frobenius(values, matrix=len(shape) == len(base) + 2)
    raise ValueError(
        f"values shape {shape} does not match grid resolution {base} "
        "(scalar, 3-vector, or 3x3 nodal values expected)"
    )


def lp_norm(values: Array, grid: QuadratureGrid, p: float) -> float:
    """L^p norm over the thin domain of one field's nodal values: ``lp_norms`` of a one-field stack."""
    return lp_norms(np.asarray(values)[None], grid, p)[0]


def lp_norms(stack: Array, grid: QuadratureGrid, p: float) -> list[float]:
    """The L^p norm over the thin domain of each field in a stack; 1 < p < infinity only.

    ``stack`` holds the nodal values of each field along its first axis, or
    their ``magnitudes`` (nonnegative scalars, which give the same bits).
    The magnitudes, the finiteness check, the weighted powers and the sums
    are each one pass over the whole stack.  The sums run along the last
    axis of the C-contiguous (fields, nodes) stack, which adds each row in
    the pairwise order ``np.sum`` takes on that field alone, so a field's
    norm has the same bits in any stack (``tests/test_norms.py``).  The root
    stays one scalar ``**`` per field: numpy's array power rounds some
    x^(1/p) differently from the scalar one.
    """
    if not (1.0 < p < math.inf):
        raise ValueError("p must satisfy 1 < p < infinity")
    mag = magnitudes(stack, grid)
    if not np.all(np.isfinite(mag)):
        raise ValueError("values must be finite on all grid nodes")
    sums = (grid.weights * mag**p).reshape(len(mag), -1).sum(axis=-1)
    return [float(s ** (1.0 / p)) for s in sums]


def weighted_mean(values: Array, grid: QuadratureGrid) -> Array:
    """Volume-weighted mean of nodal vectors or matrices, shape (nt, ntheta, nz, ...): ``weighted_means`` of one."""
    return weighted_means(np.asarray(values)[None], grid)[0]


def weighted_means(stack: Array, grid: QuadratureGrid) -> Array:
    """The volume-weighted mean of each field of a stack (S, nt, ntheta, nz, ...) of vectors or matrices.

    One einsum, which sums each field's nodes in its order for that field alone (same bits).
    """
    return np.einsum("tij,stij...->s...", grid.weights, np.asarray(stack, dtype=float)) / grid.volume


# -- sampled-field CSV schema -----------------------------------------------------


def write_samples_csv(path, grid: QuadratureGrid, values: Array) -> None:
    """Write nodal samples as rows ``t,theta,z,v1,...,vk`` with a header."""
    values = np.asarray(values, dtype=float)
    nt, nth, nz = grid.resolution
    flat_vals = values.reshape(nt * nth * nz, -1)
    names = [f"v{i + 1}" for i in range(flat_vals.shape[1])]
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
