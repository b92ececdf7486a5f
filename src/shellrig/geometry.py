"""Mid-surface patches in principal coordinates, thickness profiles, thin domains.

Built-in surfaces are a flat plate and surfaces of revolution (cylinder,
sphere, catenoid), so the (theta, z) chart is orthogonal and follows the
lines of curvature.  Sign conventions: the unit normal points away from the
axis ("outward"), principal curvatures are positive for a sphere, and the
offset map r + t*n then stretches the surface metric by (1 + t*kappa) in
each principal direction, i.e. dn = +kappa * dr along coordinate lines.

Every map accepts numpy-broadcastable arguments and is pure; surfaces,
profiles, and domains are immutable after construction, so concurrent
evaluation needs no locking.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

Array = np.ndarray


class DomainError(ValueError):
    """Coordinates outside the chart of a surface or thin domain."""


class ChartDegeneracyError(ValueError):
    """The normal-offset chart degenerates (thickness too large for the curvature)."""


class ProfileError(ValueError):
    """A thickness profile violates the uniform thin-domain conditions."""


def _arr(x) -> Array:
    return np.asarray(x, dtype=float)


def _vec(*comps) -> Array:
    parts = np.broadcast_arrays(*[_arr(c) for c in comps])
    return np.stack(parts, axis=-1)


class ChartCoefficients(NamedTuple):
    """Metric coefficients, principal curvatures and the metric partials that
    couple the frame columns, evaluated at a set of chart nodes."""

    a_theta: Array
    a_z: Array
    kappa_theta: Array
    kappa_z: Array
    da_theta_dz: Array
    da_z_dtheta: Array


def chart_coefficients(surface: ParamSurface, theta, z) -> ChartCoefficients:
    """The coefficients of ``surface`` at the nodes (theta, z)."""
    return ChartCoefficients(
        *(_arr(getattr(surface, name)(theta, z)) for name in ChartCoefficients._fields)
    )


# -- nodal storage -------------------------------------------------------------
#
# A report's nodal 3-vectors and 3x3 matrices (the map x -> x, the fields'
# components and partials, the frame gradient) are built component-major, in
# (3, ...) and (3, 3, ...) buffers where each entry is one contiguous block,
# and handed out as their node-major (..., 3) and (..., 3, 3) views.  Numpy's
# elementwise operations and this package's kernels give the same bits on
# either storage.  einsum and numpy's reductions need not: the order in which
# they sum follows the memory layout (tests/test_frame_contractions.py).  So
# every einsum or reduction input that may be such a view goes through
# ``summable``.


def node_major(components: Array, rank: int) -> Array:
    """The node-major view, (..., 3) or (..., 3, 3), of a component-major array (3, ...) or (3, 3, ...) of rank 1 or 2."""
    return np.moveaxis(components, tuple(range(rank)), tuple(range(-rank, 0)))


def summable(values: Array) -> Array:
    """``values`` as a C-contiguous array, copied if it is not, for einsum or a numpy reduction (see above)."""
    return np.ascontiguousarray(values)


def matvec(m: Array, v: Array) -> Array:
    """M v per node, each entry summed as (m_i0 v_0 + m_i2 v_2) + m_i1 v_1.

    That is the order of ``np.einsum("...ij,...j->...i", m, v)`` when the j
    axis of ``v`` is contiguous (numpy 2.4), so this equals that einsum bit
    for bit there, without its generic loops.  ``m`` is (..., 3, 3) or one
    3x3 matrix; the output is C-contiguous, plus one node-sized scratch array.
    """
    shape = np.broadcast_shapes(m.shape[:-2], v.shape[:-1])
    out = np.empty(shape + (3,))
    tmp = np.empty(shape)
    for i in range(3):
        o = out[..., i]
        np.multiply(m[..., i, 0], v[..., 0], out=o)
        o += np.multiply(m[..., i, 2], v[..., 2], out=tmp)
        o += np.multiply(m[..., i, 1], v[..., 1], out=tmp)
    return out


class IdentityMap(NamedTuple):
    """The map x -> x at a set of nodes."""

    components: Array  # frame components E^T x
    partials: Array
    points: Array  # embedded points x


@dataclass(frozen=True)
class SurfaceNodes:
    """Mid-surface data at fixed (theta, z) nodes.

    Nothing here depends on the thickness coordinate t, so on a quadrature
    grid it is evaluated once on the (ntheta, nz) nodes and broadcast over
    the thickness nodes (``QuadratureGrid.nodes``).
    """

    position: Array  # (..., 3)
    frame: Array  # (..., 3, 3), columns (e_t, e_theta, e_z); e_t is the normal
    d_theta: Array  # d/dtheta of the frame columns
    d_z: Array
    coeffs: ChartCoefficients

    def point(self, t) -> Array:
        """Normal-offset chart point r + t * n, with the bits of ``identity(t).points``; t broadcasts against the nodes."""
        return self.position + _arr(t)[..., None] * self.frame[..., 0]

    def rows(self, lo: int, hi: int) -> SurfaceNodes:
        """The nodes of the theta rows lo..hi-1 of (ntheta, nz) nodes, as views."""
        return SurfaceNodes(self.position[lo:hi], self.frame[lo:hi], self.d_theta[lo:hi], self.d_z[lo:hi],
                            ChartCoefficients(*(a[lo:hi] for a in self.coeffs)))

    def identity(self, t) -> IdentityMap:
        """x = ``point(t)``, E^T x and the coordinate partials of E^T x.

        Partials column 0 is E^T e_t, column 1 E^T (a_theta (1 + t kappa_theta)
        e_theta) + (dE/dtheta)^T x, column 2 likewise in z: the stretch of the
        offset chart and the turning of the frame.  Each sum over the rows of a
        (3, 3) array runs in the order 0, 1, 2, as ``np.einsum("...ik,...i->...k")``
        does.  Everything is built component-major (``node_major``), into
        (3, ...) and (3, 3, ...) slices of one (15, ...) buffer: each entry
        is one contiguous pass over the nodes.  The products use component-major
        copies of the (theta, z) arrays and five node-sized scratch arrays:
        tmp, acc and the three stretched vectors a (1 + t kappa) e_ij, each
        formed once per column.
        """
        t = _arr(t)
        c = self.coeffs
        shape = np.broadcast_shapes(t.shape, self.frame.shape[:-2])
        # one output buffer, then scratch, then plane copies: other orders raised sweeps' peak RSS (BENCH_12.json, BENCH_26.json)
        buf = np.empty((15,) + shape)
        x, comp, par = buf[:3], buf[3:6], buf[6:].reshape((3, 3) + shape)
        tmp, acc, *stretched = np.empty((5,) + shape)
        planes = (self.frame, self.d_theta, self.d_z)
        e, d_th, d_z = (np.ascontiguousarray(np.moveaxis(a, (-2, -1), (0, 1))) for a in planes)

        def rows_sum(m, k, v, out):
            # out = (m_0k v[0] + m_1k v[1]) + m_2k v[2]
            np.multiply(m[0, k], v[0], out=out)
            for i in (1, 2):
                out += np.multiply(m[i, k], v[i], out=tmp)

        for i in range(3):
            np.add(self.position[..., i], np.multiply(t, e[i, 0], out=x[i]), out=x[i])
        for k in range(3):
            par[k, 0] = (e[0, k] * e[0, 0] + e[1, k] * e[1, 0]) + e[2, k] * e[2, 0]
        for j, (a, kappa, d) in enumerate(((c.a_theta, c.kappa_theta, d_th), (c.a_z, c.kappa_z, d_z)), start=1):
            fac = stretched[2]  # a (1 + t kappa), scaled by e_2j last
            np.multiply(t, kappa, out=fac)
            fac += 1.0
            fac *= a
            for i in range(3):
                np.multiply(fac, e[i, j], out=stretched[i])
            for k in range(3):
                rows_sum(e, k, stretched, par[k, j])
                rows_sum(d, k, x, acc)
                par[k, j] += acc
        for k in range(3):
            rows_sum(e, k, x, comp[k])
        return IdentityMap(node_major(comp, 1), node_major(par, 2), node_major(x, 1))


@dataclass(frozen=True)
class ParamSurface:
    """A mid-surface patch with metric coefficients and principal curvatures.

    ``position``, ``tangent_theta``, ``tangent_z``, ``normal`` map (theta, z)
    to R^3; ``a_theta``/``a_z`` are the metric coefficients |dr/dtheta|,
    |dr/dz|; ``kappa_theta``/``kappa_z`` the signed principal curvatures; the
    ``da_*`` maps are the metric-coefficient partials entering the frame
    gradient and the frame derivatives.

    The maps are pure, so what depends on the surface alone is computed on
    first use and kept in ``memo`` for the surface's lifetime: the interior
    samples and the maps on them (``on_samples``) per sample count,
    ``h0()``, ``metric_extents()`` and the difference stencil of
    ``ThicknessProfile.validate_on``.  The sweep's thin domains, one per h,
    share them.  Kept arrays are read-only, and the samples and the stencil
    are broadcast views of their 1-d node sets, so a memo holds tens of KB.
    ``memo`` is no init field, so ``dataclasses.replace`` gives a surface
    with maps of its own a fresh one.
    """

    name: str
    domain: tuple[float, float, float, float]  # theta0, theta1, z0, z1
    position: Callable
    tangent_theta: Callable
    tangent_z: Callable
    normal: Callable
    a_theta: Callable
    a_z: Callable
    kappa_theta: Callable
    kappa_z: Callable
    da_theta_dtheta: Callable
    da_theta_dz: Callable
    da_z_dtheta: Callable
    da_z_dz: Callable
    memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def _memo(self, key, build: Callable):
        """``memo[key]``, set to ``build()`` on first use."""
        hit = self.memo.get(key)
        if hit is None:
            hit = self.memo[key] = build()
        return hit

    # -- chart bookkeeping --------------------------------------------------

    @property
    def theta_span(self) -> tuple[float, float]:
        return self.domain[0], self.domain[1]

    @property
    def z_span(self) -> tuple[float, float]:
        return self.domain[2], self.domain[3]

    def require_inside(self, theta, z) -> None:
        t0, t1, z0, z1 = self.domain
        theta, z = _arr(theta), _arr(z)
        bad_t = (theta < t0 - 1e-12) | (theta > t1 + 1e-12)
        bad_z = (z < z0 - 1e-12) | (z > z1 + 1e-12)
        if np.any(bad_t):
            off = np.atleast_1d(theta)[np.atleast_1d(bad_t)].flat[0]
            raise DomainError(f"theta={off!r} outside [{t0}, {t1}]")
        if np.any(bad_z):
            off = np.atleast_1d(z)[np.atleast_1d(bad_z)].flat[0]
            raise DomainError(f"z={off!r} outside [{z0}, {z1}]")

    def interior_samples(self, n: int = 33) -> tuple[Array, Array]:
        """Tensor sample of strictly interior chart points (cell midpoints), as read-only (n, n) arrays.

        They are the values of ``np.meshgrid(th, zz, indexing="ij")``, broadcast from the 1-d
        midpoints ``th`` and ``zz`` (``[:, 0]`` and ``[0]``) instead of copied.
        """

        def build():
            t0, t1, z0, z1 = self.domain
            th = t0 + (t1 - t0) * (np.arange(n) + 0.5) / n
            zz = z0 + (z1 - z0) * (np.arange(n) + 0.5) / n
            return np.broadcast_to(th[:, None], (n, n)), np.broadcast_to(zz[None, :], (n, n))

        return self._memo(("samples", n), build)

    def on_samples(self, name: str, n: int) -> Array:
        """The map ``name`` (a coefficient, such as "kappa_z") on ``interior_samples(n)``, read-only."""

        def build():
            values = _arr(getattr(self, name)(*self.interior_samples(n)))
            values.flags.writeable = False
            return values

        return self._memo((name, n), build)

    # -- frames ---------------------------------------------------------------

    def frame(self, theta, z) -> Array:
        """Orthonormal frame as matrix columns (e_t, e_theta, e_z)."""
        et = self.normal(theta, z)
        eth = self.tangent_theta(theta, z) / _arr(self.a_theta(theta, z))[..., None]
        ez = self.tangent_z(theta, z) / _arr(self.a_z(theta, z))[..., None]
        return np.stack([et, eth, ez], axis=-1)

    def nodes(self, theta, z) -> SurfaceNodes:
        """Frame, frame derivatives and chart coefficients at the given nodes."""
        e = self.frame(theta, z)
        et, eth, ez = e[..., 0], e[..., 1], e[..., 2]
        coeffs = chart_coefficients(self, theta, z)
        ath = coeffs.a_theta[..., None]
        az = coeffs.a_z[..., None]
        kth = coeffs.kappa_theta[..., None]
        kz = coeffs.kappa_z[..., None]
        athz = coeffs.da_theta_dz[..., None]
        azth = coeffs.da_z_dtheta[..., None]

        d_theta = np.stack(
            [
                kth * ath * eth,
                -(athz / az) * ez - kth * ath * et,
                (athz / az) * eth,
            ],
            axis=-1,
        )
        d_z = np.stack(
            [
                kz * az * ez,
                (azth / ath) * ez,
                -(azth / ath) * eth - kz * az * et,
            ],
            axis=-1,
        )
        return SurfaceNodes(self.position(theta, z), e, d_theta, d_z, coeffs)

    # -- scalar summaries -----------------------------------------------------

    def max_abs_curvature(self) -> float:
        th, zz = self.interior_samples(64)
        k = np.maximum(np.abs(self.kappa_theta(th, zz)), np.abs(self.kappa_z(th, zz)))
        return float(np.max(k))

    def h0(self) -> float:
        """Chart-nondegeneracy thickness bound, 0.5 / max |kappa| (inf if flat)."""

        def build():
            k = self.max_abs_curvature()
            return math.inf if k == 0.0 else 0.5 / k

        return self._memo("h0", build)

    def metric_extents(self) -> tuple[float, float]:
        """Physical (metric-weighted) side lengths of the chart rectangle."""

        def build():
            t0, t1, z0, z1 = self.domain
            th, zz = self.interior_samples(64)
            return (
                float((t1 - t0) * np.mean(self.a_theta(th, zz))),
                float((z1 - z0) * np.mean(self.a_z(th, zz))),
            )

        return self._memo("metric_extents", build)


def gaussian_curvature(surface: ParamSurface, theta, z) -> Array:
    """Product of the principal curvatures."""
    return _arr(surface.kappa_theta(theta, z)) * _arr(surface.kappa_z(theta, z))


def _validate_surface(s: ParamSurface) -> ParamSurface:
    # each check asks for the good case, so that a NaN fails it
    th, zz = s.interior_samples(21)
    ath, az = s.on_samples("a_theta", 21), s.on_samples("a_z", 21)
    if not (np.all(ath > 0) and np.all(az > 0)):
        raise ValueError(f"{s.name}: metric coefficients must be positive on the patch")
    nrm = s.normal(th, zz)
    if not np.all(np.abs(np.linalg.norm(nrm, axis=-1) - 1.0) <= 1e-12):
        raise ValueError(f"{s.name}: normal is not unit length")
    dot = np.abs(np.sum(s.tangent_theta(th, zz) * s.tangent_z(th, zz), axis=-1))
    if not np.all(dot <= 1e-10 * ath * az):
        raise ValueError(f"{s.name}: coordinate directions are not orthogonal")
    return s


def _length(name: str, value) -> float:
    """A radius or waist as a float; it must be positive and finite."""
    value = float(value)
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, not {value!r}")
    return value


# -- built-in surfaces --------------------------------------------------------


def _zero(theta, z) -> Array:
    return np.zeros(np.broadcast(_arr(theta), _arr(z)).shape)


def _one(theta, z) -> Array:
    return np.ones(np.broadcast(_arr(theta), _arr(z)).shape)


def plate(lx: float = 1.0, ly: float = 1.0) -> ParamSurface:
    """Flat patch [0, lx] x [0, ly] in the (x, y) plane, normal +z."""
    return _validate_surface(
        ParamSurface(
            name="plate",
            domain=(0.0, float(lx), 0.0, float(ly)),
            position=lambda theta, z: _vec(theta, z, 0.0 * _arr(theta)),
            tangent_theta=lambda theta, z: _vec(_one(theta, z), 0.0 * _arr(z), 0.0 * _arr(z)),
            tangent_z=lambda theta, z: _vec(0.0 * _arr(theta), _one(theta, z), 0.0 * _arr(theta)),
            normal=lambda theta, z: _vec(0.0 * _arr(theta), 0.0 * _arr(z), _one(theta, z)),
            a_theta=_one,
            a_z=_one,
            kappa_theta=_zero,
            kappa_z=_zero,
            da_theta_dtheta=_zero,
            da_theta_dz=_zero,
            da_z_dtheta=_zero,
            da_z_dz=_zero,
        )
    )


def cylinder(
    radius: float = 1.0,
    theta_span: tuple[float, float] = (0.0, 1.0),
    z_span: tuple[float, float] = (0.0, 1.0),
) -> ParamSurface:
    """Circular cylinder of the given radius; theta is the azimuth, z the axis."""
    rho = _length("radius", radius)
    return _validate_surface(
        ParamSurface(
            name="cylinder",
            domain=(theta_span[0], theta_span[1], z_span[0], z_span[1]),
            position=lambda theta, z: _vec(
                rho * np.cos(theta), rho * np.sin(theta), _arr(z) + 0.0 * _arr(theta)
            ),
            tangent_theta=lambda theta, z: _vec(
                -rho * np.sin(theta), rho * np.cos(theta), 0.0 * _arr(z)
            ),
            tangent_z=lambda theta, z: _vec(0.0 * _arr(theta), 0.0 * _arr(z), _one(theta, z)),
            normal=lambda theta, z: _vec(np.cos(theta), np.sin(theta), 0.0 * _arr(z)),
            a_theta=lambda theta, z: rho * _one(theta, z),
            a_z=_one,
            kappa_theta=lambda theta, z: (1.0 / rho) * _one(theta, z),
            kappa_z=_zero,
            da_theta_dtheta=_zero,
            da_theta_dz=_zero,
            da_z_dtheta=_zero,
            da_z_dz=_zero,
        )
    )


def sphere(
    radius: float = 1.0,
    theta_span: tuple[float, float] = (0.0, 1.0),
    z_span: tuple[float, float] = (np.pi / 2 - 0.5, np.pi / 2 + 0.5),
) -> ParamSurface:
    """Sphere patch in the colatitude chart: z is the colatitude, theta the azimuth."""
    rho = _length("radius", radius)
    return _validate_surface(
        ParamSurface(
            name="sphere",
            domain=(theta_span[0], theta_span[1], z_span[0], z_span[1]),
            position=lambda theta, z: _vec(
                rho * np.sin(z) * np.cos(theta),
                rho * np.sin(z) * np.sin(theta),
                rho * np.cos(z) + 0.0 * _arr(theta),
            ),
            tangent_theta=lambda theta, z: _vec(
                -rho * np.sin(z) * np.sin(theta),
                rho * np.sin(z) * np.cos(theta),
                0.0 * _arr(z),
            ),
            tangent_z=lambda theta, z: _vec(
                rho * np.cos(z) * np.cos(theta),
                rho * np.cos(z) * np.sin(theta),
                -rho * np.sin(z) + 0.0 * _arr(theta),
            ),
            normal=lambda theta, z: _vec(
                np.sin(z) * np.cos(theta),
                np.sin(z) * np.sin(theta),
                np.cos(z) + 0.0 * _arr(theta),
            ),
            a_theta=lambda theta, z: rho * np.sin(z) * _one(theta, z),
            a_z=lambda theta, z: rho * _one(theta, z),
            kappa_theta=lambda theta, z: (1.0 / rho) * _one(theta, z),
            kappa_z=lambda theta, z: (1.0 / rho) * _one(theta, z),
            da_theta_dtheta=_zero,
            da_theta_dz=lambda theta, z: rho * np.cos(z) * _one(theta, z),
            da_z_dtheta=_zero,
            da_z_dz=_zero,
        )
    )


def pseudosphere(
    waist: float = 1.0,
    theta_span: tuple[float, float] = (0.0, 1.0),
    z_span: tuple[float, float] = (-0.4, 0.4),
) -> ParamSurface:
    """Catenoid patch (negative Gaussian curvature), revolved cosh profile.

    With waist radius a the curvatures are kappa_theta = +sech^2(z/a)/a and
    kappa_z = -sech^2(z/a)/a, so K = -sech^4(z/a)/a^2; the default patch
    keeps |K| within roughly [0.7, 1].
    """
    a = _length("waist", waist)

    def ch(z):
        return np.cosh(_arr(z) / a)

    def sh(z):
        return np.sinh(_arr(z) / a)

    return _validate_surface(
        ParamSurface(
            name="pseudosphere",
            domain=(theta_span[0], theta_span[1], z_span[0], z_span[1]),
            position=lambda theta, z: _vec(
                a * ch(z) * np.cos(theta), a * ch(z) * np.sin(theta), _arr(z) + 0.0 * _arr(theta)
            ),
            tangent_theta=lambda theta, z: _vec(
                -a * ch(z) * np.sin(theta), a * ch(z) * np.cos(theta), 0.0 * _arr(z)
            ),
            tangent_z=lambda theta, z: _vec(
                sh(z) * np.cos(theta), sh(z) * np.sin(theta), _one(theta, z)
            ),
            normal=lambda theta, z: _vec(
                np.cos(theta) / ch(z), np.sin(theta) / ch(z), -sh(z) / ch(z) + 0.0 * _arr(theta)
            ),
            a_theta=lambda theta, z: a * ch(z) * _one(theta, z),
            a_z=lambda theta, z: ch(z) * _one(theta, z),
            kappa_theta=lambda theta, z: _one(theta, z) / (a * ch(z) ** 2),
            kappa_z=lambda theta, z: -_one(theta, z) / (a * ch(z) ** 2),
            da_theta_dtheta=_zero,
            da_theta_dz=lambda theta, z: sh(z) * _one(theta, z),
            da_z_dtheta=_zero,
            da_z_dz=lambda theta, z: sh(z) / a * _one(theta, z),
        )
    )


SURFACES = {  # name -> builder; the choices of every --surface
    "plate": plate,
    "cylinder": cylinder,
    "sphere": sphere,
    "pseudosphere": pseudosphere,
}


def make_surface(name: str, **params) -> ParamSurface:
    """Build a surface by name; an unknown name, or a parameter its builder does not take, raises."""
    try:
        builder = SURFACES[name]
    except KeyError:
        raise ValueError(f"unknown surface {name!r}; choose from {sorted(SURFACES)}") from None
    taken = inspect.signature(builder).parameters
    for key in params:
        if key not in taken:
            raise ValueError(f"surface {name!r} takes no parameter {key!r}; it takes {', '.join(taken)}")
    return builder(**params)


# -- thickness profiles --------------------------------------------------------


@dataclass(frozen=True)
class ThicknessProfile:
    """Thickness functions g1, g2 around the mid-surface with uniform bounds.

    The admissibility clauses are lower*h <= g1, g2 <= c1*h pointwise and
    |grad g1| + |grad g2| <= c2*h in surface coordinates.  ``lower`` is 1 for
    genuinely variable profiles; the constant-thickness shell (total
    thickness h, so g1 = g2 = h/2) uses lower = 1/2.
    """

    h: float
    g1: Callable
    g2: Callable
    c1: float
    c2: float
    lower: float = 1.0
    kind: str = "custom"

    def __post_init__(self):
        if self.h <= 0:
            raise ProfileError("thickness parameter h must be positive")

    def validate_on(self, surface: ParamSurface) -> None:
        """Check the admissibility clauses on interior samples; a violated one raises ProfileError.

        Each side is evaluated once, on the samples stacked with their four
        central-difference neighbours in theta and z.
        """
        t0, t1, z0, z1 = surface.domain
        sth = 1e-6 * (t1 - t0)
        szz = 1e-6 * (z1 - z0)

        def stencil_of():  # np.stack of the shifted (n, n) samples in value, broadcast from their axes
            th, zz = surface.interior_samples(33)
            th, zz = th[:, 0], zz[0]
            shape = (5, len(th), len(zz))
            return (np.broadcast_to(np.stack([th, th + sth, th - sth, th, th])[:, :, None], shape),
                    np.broadcast_to(np.stack([zz, zz, zz, zz + szz, zz - szz])[:, None, :], shape))

        stencil = surface._memo("stencil", stencil_of)
        a_theta, a_z = surface.on_samples("a_theta", 33), surface.on_samples("a_z", 33)
        tol = 1e-9 * self.h
        grads = []
        for label, g in (("g1", self.g1), ("g2", self.g2)):
            vals, east, west, north, south = _arr(g(*stencil))
            if np.any(vals < self.lower * self.h - tol):
                raise ProfileError(
                    f"{label} dips below {self.lower}*h (min {vals.min():.3e}, h {self.h:.3e})"
                )
            if np.any(vals > self.c1 * self.h + tol):
                raise ProfileError(
                    f"{label} exceeds c1*h (max {vals.max():.3e}, c1*h {self.c1 * self.h:.3e})"
                )
            grads.append(np.hypot((east - west) / (2 * sth) / a_theta, (north - south) / (2 * szz) / a_z))
        grad = grads[0] + grads[1]
        if np.any(grad > self.c2 * self.h + 1e-6 * self.h):
            raise ProfileError(
                f"|grad g1| + |grad g2| exceeds c2*h (max {grad.max():.3e}, "
                f"c2*h {self.c2 * self.h:.3e})"
            )


def shell_profile(h: float) -> ThicknessProfile:
    """Constant-thickness shell of total thickness h (g1 = g2 = h/2)."""
    half = float(h) / 2.0

    def g(theta, z):
        return half * np.ones(np.broadcast(_arr(theta), _arr(z)).shape)

    return ThicknessProfile(h=float(h), g1=g, g2=g, c1=1.0, c2=1.0, lower=0.5, kind="shell")


def bump_profile(h: float, surface: ParamSurface, amplitude: float = 0.3) -> ThicknessProfile:
    """Smooth non-constant profile g = h*(1 + amplitude * bump) with c1 = 1.5.

    The two sides use complementary sin^2/cos^2 bumps in normalized chart
    coordinates, so h <= g <= (1 + amplitude) h everywhere.
    """
    if not 0 < amplitude <= 0.5:
        raise ProfileError("bump amplitude must lie in (0, 0.5]")
    t0, t1, z0, z1 = surface.domain
    hh = float(h)

    def norm(theta, z):
        return (_arr(theta) - t0) / (t1 - t0), (_arr(z) - z0) / (z1 - z0)

    def g1(theta, z):
        u, v = norm(theta, z)
        return hh * (1.0 + amplitude * np.sin(np.pi * u) ** 2 * np.sin(np.pi * v) ** 2)

    def g2(theta, z):
        u, v = norm(theta, z)
        return hh * (1.0 + amplitude * np.cos(np.pi * u) ** 2 * np.sin(np.pi * v) ** 2)

    # c2 covers the worst surface-gradient of the two bumps with margin
    lth, lz = surface.metric_extents()
    c2 = 4.0 * amplitude * np.pi * (1.0 / min(lth, lz)) * max(lth, lz) / min(lth, lz) + 4.0
    return ThicknessProfile(h=hh, g1=g1, g2=g2, c1=1.0 + amplitude + 1e-12, c2=float(c2), kind="bump")


PROFILES = ("shell", "bump")


def make_profile(kind: str, h: float, surface: ParamSurface) -> ThicknessProfile:
    if kind == "shell":
        return shell_profile(h)
    if kind == "bump":
        return bump_profile(h, surface)
    raise ValueError(f"unknown profile kind {kind!r}; choose from {list(PROFILES)}")


# -- thin domains ---------------------------------------------------------------


@dataclass(frozen=True)
class ThinDomain:
    """A mid-surface plus thickness profile; the chart must stay nondegenerate."""

    surface: ParamSurface
    profile: ThicknessProfile

    def __post_init__(self):
        self.profile.validate_on(self.surface)
        th, zz = self.surface.interior_samples(21)
        g1 = _arr(self.profile.g1(th, zz))
        g2 = _arr(self.profile.g2(th, zz))
        for k in (self.surface.on_samples("kappa_theta", 21), self.surface.on_samples("kappa_z", 21)):
            worst = np.minimum(1.0 + (-g1) * k, 1.0 + g2 * k)
            if np.any(worst <= 0):
                raise ChartDegeneracyError(
                    f"1 + t*kappa <= 0 inside the domain (min {worst.min():.3e}); "
                    f"h={self.profile.h:.3e} is too large for surface "
                    f"{self.surface.name!r} (h0 ~ {self.surface.h0():.3e})"
                )

    @property
    def h(self) -> float:
        return self.profile.h

    def t_bounds(self, theta, z) -> tuple[Array, Array]:
        return -_arr(self.profile.g1(theta, z)), _arr(self.profile.g2(theta, z))

    def require_inside(self, t, theta, z) -> None:
        self.surface.require_inside(theta, z)
        lo, hi = self.t_bounds(theta, z)
        t = _arr(t)
        bad = (t < lo - 1e-15) | (t > hi + 1e-15)
        if np.any(bad):
            off = np.atleast_1d(t)[np.atleast_1d(bad)].flat[0]
            raise DomainError(f"t={off!r} outside the thickness interval (-g1, g2)")


def embed(domain: ThinDomain, t, theta, z, check: bool = True) -> Array:
    """Normal-offset chart point r(theta, z) + t * n(theta, z)."""
    if check:
        domain.require_inside(t, theta, z)
    s = domain.surface
    return s.position(theta, z) + _arr(t)[..., None] * s.normal(theta, z)


def volume_jacobian(domain: ThinDomain, t, theta, z) -> Array:
    """Volume element of the normal chart: A_theta A_z (1 + t k_theta)(1 + t k_z)."""
    s = domain.surface
    t = _arr(t)
    fac_th = 1.0 + t * _arr(s.kappa_theta(theta, z))
    fac_z = 1.0 + t * _arr(s.kappa_z(theta, z))
    if np.any(fac_th <= 0) or np.any(fac_z <= 0):
        raise ChartDegeneracyError(
            f"offset factor 1 + t*kappa nonpositive "
            f"(min {min(fac_th.min(), fac_z.min()):.3e}); h too large for this surface"
        )
    return _arr(s.a_theta(theta, z)) * _arr(s.a_z(theta, z)) * fac_th * fac_z


# -- measure doubling -------------------------------------------------------------


@dataclass(frozen=True)
class DoublingEstimate:
    """Quadrature estimate of area(B_r)/area(B_2r) on the surface."""

    ratio: float
    stderr: float
    warnings: tuple[str, ...] = ()


def _ball_area(surface: ParamSurface, xc: Array, box, rho: float, n: int) -> float:
    t0, t1, z0, z1 = box
    th = t0 + (t1 - t0) * (np.arange(n) + 0.5) / n
    zz = z0 + (z1 - z0) * (np.arange(n) + 0.5) / n
    TH, ZZ = np.meshgrid(th, zz, indexing="ij")
    pos = surface.position(TH, ZZ)
    inside = np.linalg.norm(pos - xc, axis=-1) < rho
    dens = surface.a_theta(TH, ZZ) * surface.a_z(TH, ZZ)
    cell = (t1 - t0) / n * (z1 - z0) / n
    return float(np.sum(inside * dens) * cell)


def doubling_ratio(
    surface: ParamSurface,
    center: tuple[float, float],
    radius: float,
    budget: int = 250_000,
) -> DoublingEstimate:
    """Estimate the two-ball surface-measure ratio at a point by quadrature.

    ``center`` is a chart point (theta, z); balls are Euclidean balls in R^3.
    The integration box is clipped to the chart, expanded until no point of
    its rim lies inside the larger ball, and then covered by a deterministic
    midpoint rule using about ``budget`` nodes.  The standard error is the
    difference against a half-resolution pass.
    """
    thc, zc = center
    surface.require_inside(thc, zc)
    if radius <= 0:
        raise ValueError("radius must be positive")
    l_th, l_z = surface.metric_extents()
    if radius >= math.hypot(l_th, l_z):
        raise ValueError(
            f"radius {radius:g} is not smaller than the patch diameter "
            f"~{math.hypot(l_th, l_z):g}"
        )
    warnings_: list[str] = []
    xc = surface.position(thc, zc)
    t0, t1, z0, z1 = surface.domain
    ath = float(surface.a_theta(thc, zc))
    az = float(surface.a_z(thc, zc))

    factor = 1.6
    for _ in range(5):
        half_th = factor * 2.0 * radius / ath
        half_z = factor * 2.0 * radius / az
        box = (
            max(t0, thc - half_th),
            min(t1, thc + half_th),
            max(z0, zc - half_z),
            min(z1, zc + half_z),
        )
        # rim points not clipped by the chart must clear the larger ball
        rim_ok = True
        for edge, clipped in (
            ((box[0], None), box[0] > t0),
            ((box[1], None), box[1] < t1),
            ((None, box[2]), box[2] > z0),
            ((None, box[3]), box[3] < z1),
        ):
            if not clipped:
                continue
            if edge[0] is not None:
                pts = surface.position(edge[0], np.linspace(box[2], box[3], 65))
            else:
                pts = surface.position(np.linspace(box[0], box[1], 65), edge[1])
            if np.min(np.linalg.norm(pts - xc, axis=-1)) < 2.0 * radius:
                rim_ok = False
        if rim_ok:
            break
        factor *= 1.5
    else:
        warnings_.append("integration box may truncate the larger ball")

    n = max(8, int(math.sqrt(budget)))
    area_r = _ball_area(surface, xc, box, radius, n)
    area_2r = _ball_area(surface, xc, box, 2.0 * radius, n)
    if area_2r <= 0:
        raise ValueError("larger ball has empty intersection with the patch")
    ratio = area_r / area_2r

    n2 = max(4, n // 2)
    coarse = _ball_area(surface, xc, box, radius, n2) / max(
        _ball_area(surface, xc, box, 2.0 * radius, n2), 1e-300
    )
    stderr = abs(ratio - coarse)
    if budget < 4096:
        warnings_.append("sample budget too small for a reliable estimate")
    if stderr > 0.02 * max(ratio, 1e-12):
        warnings_.append("estimator standard error above 2% of the ratio")
    return DoublingEstimate(ratio=ratio, stderr=stderr, warnings=tuple(warnings_))
