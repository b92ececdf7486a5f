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
from dataclasses import dataclass
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


def _transpose_times(m: Array, v: Array) -> Array:
    """M^T v per node, summed over the rows of M in the order 0, 1, 2.

    Equal bit for bit to ``np.einsum("...ik,...i->...k", m, v)``, without
    einsum's generic loops.
    """
    out = np.empty(np.broadcast_shapes(m.shape[:-2], v.shape[:-1]) + (3,))
    for k in range(3):
        out[..., k] = m[..., 0, k] * v[..., 0] + m[..., 1, k] * v[..., 1] + m[..., 2, k] * v[..., 2]
    return out


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
        """Normal-offset chart point r + t * n; t broadcasts against the nodes."""
        return self.position + _arr(t)[..., None] * self.frame[..., 0]

    def in_frame(self, v) -> Array:
        """Frame components E^T v of Euclidean vectors v at the nodes."""
        return _transpose_times(self.frame, v)

    def identity_partials(self, t, x) -> Array:
        """Coordinate partials of the frame components of the map x -> x.

        ``x = point(t)``.  They carry the (1 + t*kappa) stretch of the offset
        chart and the turning of the frame along the surface.
        """
        t = _arr(t)
        e = self.frame
        c = self.coeffs
        dp_th = (c.a_theta * (1.0 + t * c.kappa_theta))[..., None] * e[..., 1]
        dp_z = (c.a_z * (1.0 + t * c.kappa_z))[..., None] * e[..., 2]
        out = np.empty(x.shape + (3,))
        out[..., 0] = self.in_frame(e[..., 0])
        out[..., 1] = self.in_frame(dp_th) + _transpose_times(self.d_theta, x)
        out[..., 2] = self.in_frame(dp_z) + _transpose_times(self.d_z, x)
        return out


@dataclass(frozen=True)
class ParamSurface:
    """A mid-surface patch with metric coefficients and principal curvatures.

    ``position``, ``tangent_theta``, ``tangent_z``, ``normal`` map (theta, z)
    to R^3; ``a_theta``/``a_z`` are the metric coefficients |dr/dtheta|,
    |dr/dz|; ``kappa_theta``/``kappa_z`` the signed principal curvatures; the
    ``da_*`` maps are the metric-coefficient partials entering the frame
    gradient and the frame derivatives.
    """

    name: str
    params: dict
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
        """Tensor sample of strictly interior chart points (cell midpoints)."""
        t0, t1, z0, z1 = self.domain
        th = t0 + (t1 - t0) * (np.arange(n) + 0.5) / n
        zz = z0 + (z1 - z0) * (np.arange(n) + 0.5) / n
        return np.meshgrid(th, zz, indexing="ij")

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

    def max_abs_curvature(self, n: int = 64) -> float:
        th, zz = self.interior_samples(n)
        k = np.maximum(np.abs(self.kappa_theta(th, zz)), np.abs(self.kappa_z(th, zz)))
        return float(np.max(k))

    def h0(self, n: int = 64) -> float:
        """Chart-nondegeneracy thickness bound, 0.5 / max |kappa| (inf if flat)."""
        k = self.max_abs_curvature(n)
        return math.inf if k == 0.0 else 0.5 / k

    def metric_extents(self, n: int = 64) -> tuple[float, float]:
        """Physical (metric-weighted) side lengths of the chart rectangle."""
        t0, t1, z0, z1 = self.domain
        th, zz = self.interior_samples(n)
        return (
            float((t1 - t0) * np.mean(self.a_theta(th, zz))),
            float((z1 - z0) * np.mean(self.a_z(th, zz))),
        )


def gaussian_curvature(surface: ParamSurface, theta, z) -> Array:
    """Product of the principal curvatures."""
    return _arr(surface.kappa_theta(theta, z)) * _arr(surface.kappa_z(theta, z))


def _validate_surface(s: ParamSurface, n: int = 21) -> ParamSurface:
    # each check asks for the good case, so that a NaN fails it
    th, zz = s.interior_samples(n)
    ath, az = _arr(s.a_theta(th, zz)), _arr(s.a_z(th, zz))
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
            params={"lx": float(lx), "ly": float(ly)},
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
            params={"radius": rho, "theta_span": tuple(theta_span), "z_span": tuple(z_span)},
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
            params={"radius": rho, "theta_span": tuple(theta_span), "z_span": tuple(z_span)},
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
            params={"waist": a, "theta_span": tuple(theta_span), "z_span": tuple(z_span)},
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


def swap_chart(surface: ParamSurface) -> ParamSurface:
    """The same geometric patch with the roles of theta and z exchanged.

    Useful for checking that evaluations are insensitive to the chart
    labelling; the normal (and so the frame vector e_t) is unchanged.
    """
    t0, t1, z0, z1 = surface.domain

    def swap2(f):
        return lambda theta, z: f(z, theta)

    return ParamSurface(
        name=surface.name + "-swapped",
        params=dict(surface.params),
        domain=(z0, z1, t0, t1),
        position=swap2(surface.position),
        tangent_theta=swap2(surface.tangent_z),
        tangent_z=swap2(surface.tangent_theta),
        normal=swap2(surface.normal),
        a_theta=swap2(surface.a_z),
        a_z=swap2(surface.a_theta),
        kappa_theta=swap2(surface.kappa_z),
        kappa_z=swap2(surface.kappa_theta),
        da_theta_dtheta=swap2(surface.da_z_dz),
        da_theta_dz=swap2(surface.da_z_dtheta),
        da_z_dtheta=swap2(surface.da_theta_dz),
        da_z_dz=swap2(surface.da_theta_dtheta),
    )


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

    def validate_on(self, surface: ParamSurface, n: int = 33) -> None:
        th, zz = surface.interior_samples(n)
        tol = 1e-9 * self.h
        for label, g in (("g1", self.g1), ("g2", self.g2)):
            vals = _arr(g(th, zz))
            if np.any(vals < self.lower * self.h - tol):
                raise ProfileError(
                    f"{label} dips below {self.lower}*h (min {vals.min():.3e}, h {self.h:.3e})"
                )
            if np.any(vals > self.c1 * self.h + tol):
                raise ProfileError(
                    f"{label} exceeds c1*h (max {vals.max():.3e}, c1*h {self.c1 * self.h:.3e})"
                )
        grad = self._surface_grad_mag(surface, self.g1, th, zz) + self._surface_grad_mag(
            surface, self.g2, th, zz
        )
        if np.any(grad > self.c2 * self.h + 1e-6 * self.h):
            raise ProfileError(
                f"|grad g1| + |grad g2| exceeds c2*h (max {grad.max():.3e}, "
                f"c2*h {self.c2 * self.h:.3e})"
            )

    @staticmethod
    def _surface_grad_mag(surface, g, th, zz, step: float = 1e-6) -> Array:
        t0, t1, z0, z1 = surface.domain
        sth = step * (t1 - t0)
        szz = step * (z1 - z0)
        dth = (g(th + sth, zz) - g(th - sth, zz)) / (2 * sth)
        dzz = (g(th, zz + szz) - g(th, zz - szz)) / (2 * szz)
        return np.hypot(dth / surface.a_theta(th, zz), dzz / surface.a_z(th, zz))


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
    prof = ThicknessProfile(h=hh, g1=g1, g2=g2, c1=1.0 + amplitude + 1e-12, c2=float(c2), kind="bump")
    prof.validate_on(surface)
    return prof


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
        for k in (self.surface.kappa_theta(th, zz), self.surface.kappa_z(th, zz)):
            k = _arr(k)
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

    def require_inside(self, t, theta, z, pad: float = 0.0) -> None:
        self.surface.require_inside(theta, z)
        lo, hi = self.t_bounds(theta, z)
        t = _arr(t)
        bad = (t - pad < lo - 1e-15) | (t + pad > hi + 1e-15)
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
    area_r: float
    area_2r: float
    radius: float
    center: tuple[float, float]
    budget: int
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
    return DoublingEstimate(
        ratio=ratio,
        stderr=stderr,
        area_r=area_r,
        area_2r=area_2r,
        radius=float(radius),
        center=(float(thc), float(zc)),
        budget=int(budget),
        warnings=tuple(warnings_),
    )
