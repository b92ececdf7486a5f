"""Vector fields in the curvilinear frame and their gradients.

A field is stored by its components (y_t, y_theta, y_z) in the local
orthonormal frame together with all nine first coordinate partials.  The
frame gradient expresses the full 3x3 Euclidean Jacobian in that frame from
the partials and the surface metric/curvature data; an independent
finite-difference oracle reconstructs the same Jacobian from the embedded
Euclidean map.

Field values are immutable and evaluation is pure; construction from a seed
is deterministic, so parallel sweeps are reproducible.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .geometry import (
    ChartCoefficients,
    ChartDegeneracyError,
    DomainError,
    ParamSurface,
    ThinDomain,
    chart_coefficients,
    embed,
    node_major,
    summable,
)
from .matrixops import random_rotation

Array = np.ndarray


def _arr(x) -> Array:
    return np.asarray(x, dtype=float)


@dataclass(frozen=True)
class FrameField:
    """Components and first partials of a field in the frame (e_t, e_theta, e_z).

    ``components(t, theta, z)`` returns (..., 3); ``partials`` returns
    (..., 3, 3) with entry [i, j] = d component_i / d coordinate_j for the
    coordinate order (t, theta, z).  ``kind`` is "deformation" (gradient
    compared against rotations) or "displacement" (compared against zero).
    ``displacement`` is (u, eps) when the field is the deformation x + eps*u
    (``displacement_to_deformation``), and ``motion`` is (Q, c) when it is
    exactly the rigid motion x -> Q x + c; either selects the grid route of
    ``on_grid``, which reads x -> x from the grid's cache.
    """

    components: Callable
    partials: Callable
    kind: str
    description: str = ""
    displacement: tuple | None = None
    motion: tuple | None = None

    def __post_init__(self):
        if self.kind not in ("deformation", "displacement"):
            raise ValueError("kind must be 'deformation' or 'displacement'")


# -- frame gradient ------------------------------------------------------------


def frame_gradient(field: FrameField, surface: ParamSurface, t, theta, z) -> Array:
    """3x3 gradient of the field in the orthonormal frame of the offset chart.

    Row order (t, theta, z) matches the frame; the theta/z columns carry the
    (1 + t*kappa) offset factors and the metric-coefficient coupling terms.
    """
    t = _arr(t)
    comp = field.components(t, theta, z)
    par = field.partials(t, theta, z)
    if par is None:
        raise ValueError("field has no partials; supply analytic or sampled partials")
    # its callers reduce it with numpy; the reports call gradient_from_partials, which copies nothing
    return summable(gradient_from_partials(comp, par, t, chart_coefficients(surface, theta, z)))


def gradient_from_partials(comp: Array, par: Array, t, coeffs: ChartCoefficients) -> Array:
    """``frame_gradient`` from evaluated components and partials.

    ``coeffs`` may sit on the (theta, z) nodes alone; they broadcast over t,
    and t over a leading seed axis of stacked ``comp`` and ``par``.  The
    gradient is built component-major, one contiguous pass per entry into a
    (3, 3, ...) buffer, and returned as its node-major view (``node_major``).
    """
    ath, az, kth, kz, athz, azth = coeffs
    fac_th = 1.0 + t * kth
    fac_z = 1.0 + t * kz
    if np.any(fac_th <= 0) or np.any(fac_z <= 0):
        raise ChartDegeneracyError("1 + t*kappa <= 0 at an evaluation point")
    dth = ath * fac_th
    dz = az * fac_z

    yt, yth, yz = comp[..., 0], comp[..., 1], comp[..., 2]
    g = np.empty((3, 3) + np.broadcast(t, ath, yt).shape)
    g[0, 0] = par[..., 0, 0]
    g[1, 0] = par[..., 1, 0]
    g[2, 0] = par[..., 2, 0]
    np.divide(par[..., 0, 1] - ath * kth * yth, dth, out=g[0, 1])
    np.divide(par[..., 1, 1] + ath * kth * yt + (athz / az) * yz, dth, out=g[1, 1])
    np.divide(par[..., 2, 1] - (athz / az) * yth, dth, out=g[2, 1])
    np.divide(par[..., 0, 2] - az * kz * yz, dz, out=g[0, 2])
    np.divide(par[..., 1, 2] - (azth / ath) * yz, dz, out=g[1, 2])
    np.divide(par[..., 2, 2] + az * kz * yt + (azth / ath) * yth, dz, out=g[2, 2])
    return node_major(g, 2)


def on_grid(field: FrameField, grid) -> tuple[Array, Array]:
    """Components and partials of ``field`` on every node of a quadrature grid.

    Each callable is called once, with theta and z on the (ntheta, nz) nodes
    broadcasting against ``grid.t_axis`` (one column of t on a uniform shell),
    so t-only factors are computed once per thickness node; the outputs keep
    the full grid shape and the bits of an evaluation on ``grid.t``.  x -> x
    comes from the grid's cache: x + eps*u evaluates only u, a rigid motion
    no callable, and the identity's results are the cache's read-only arrays.
    """
    if field.motion is not None:
        return _moved(grid.nodes, *grid.identity[:2], *field.motion)
    th, zz = grid.plane
    base, eps = field.displacement or (field, None)
    comp = base.components(grid.t_axis, th, zz)
    par = base.partials(grid.t_axis, th, zz)
    if par is None:
        raise ValueError("field has no partials; supply analytic or sampled partials")
    if eps is not None:
        comp = comp * eps
        comp += grid.identity.components
        par = par * eps
        par += grid.identity.partials
    return comp, par


def euclidean_gradient_oracle(
    field: FrameField, domain: ThinDomain, t, theta, z, step: float = 1e-4
) -> Array:
    """Finite-difference reconstruction of the frame gradient (oracle path).

    Central-differences the embedded Euclidean map Y(xi) = E(xi) @ comp(xi)
    and the chart X(xi) = embed(xi) in the chart coordinates, forms
    dY/dX = dY * (dX)^-1, and re-expresses it in the frame at the point.
    Second-order accurate in ``step``.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    t, theta, z = np.broadcast_arrays(_arr(t), _arr(theta), _arr(z))
    for dt, dth, dzz in ((step, 0, 0), (0, step, 0), (0, 0, step)):
        try:
            domain.require_inside(t + dt, theta + dth, z + dzz)
            domain.require_inside(t - dt, theta - dth, z - dzz)
        except DomainError as err:
            raise DomainError(f"oracle step {step} exits the chart: {err}") from err

    surface = domain.surface

    def y_euclid(tt, th, zz):
        e = surface.frame(th, zz)
        return np.einsum("...ij,...j->...i", e, summable(field.components(tt, th, zz)))

    def x_euclid(tt, th, zz):
        return embed(domain, tt, th, zz, check=False)

    dy = np.empty(t.shape + (3, 3))
    dx = np.empty(t.shape + (3, 3))
    offsets = ((step, 0.0, 0.0), (0.0, step, 0.0), (0.0, 0.0, step))
    for j, (dt, dth, dzz) in enumerate(offsets):
        dy[..., :, j] = (
            y_euclid(t + dt, theta + dth, z + dzz) - y_euclid(t - dt, theta - dth, z - dzz)
        ) / (2 * step)
        dx[..., :, j] = (
            x_euclid(t + dt, theta + dth, z + dzz) - x_euclid(t - dt, theta - dth, z - dzz)
        ) / (2 * step)

    jac = dy @ np.linalg.inv(dx)
    e0 = surface.frame(theta, z)
    return np.einsum("...ki,...kl,...lj->...ij", e0, jac, e0)


# -- built-in fields --------------------------------------------------------------


def _moved(nodes, comp: Array, par: Array | None, q, c) -> tuple[Array, Array | None]:
    """x -> Q y + c in frame components and partials, for y given by ``comp`` and ``par`` at ``nodes``.

    E^T Q E y + E^T c; the turning of the frame (``SurfaceNodes.d_theta``,
    ``d_z``) enters the partials, which are None when ``par`` is.  The exact
    identity motion (Q = I, c = 0) returns ``comp`` and ``par`` themselves.
    """
    if np.array_equal(q, np.eye(3)) and not np.any(c):
        return comp, par
    e, de_th, de_z = nodes.frame, nodes.d_theta, nodes.d_z
    m = np.einsum("...ik,ij,...jl->...kl", e, q, e)
    base = summable(comp)
    moved = np.einsum("...kl,...l->...k", m, base) + np.einsum("...ik,i->...k", e, c)
    if par is None:
        return moved, None
    dm_th = np.einsum("...ik,ij,...jl->...kl", de_th, q, e) + np.einsum("...ik,ij,...jl->...kl", e, q, de_th)
    dm_z = np.einsum("...ik,ij,...jl->...kl", de_z, q, e) + np.einsum("...ik,ij,...jl->...kl", e, q, de_z)
    out = np.einsum("...kl,...lj->...kj", m, summable(par))
    out[..., 1] += np.einsum("...kl,...l->...k", dm_th, base) + np.einsum("...ik,i->...k", de_th, c)
    out[..., 2] += np.einsum("...kl,...l->...k", dm_z, base) + np.einsum("...ik,i->...k", de_z, c)
    return moved, out


def transform_rigid(field: FrameField, surface: ParamSurface, rotation: Array, offset: Array) -> FrameField:
    """Post-compose a field with the rigid motion x -> Q x + c (``_moved``)."""

    def comp(t, theta, z):
        return _moved(surface.nodes(theta, z), field.components(t, theta, z), None, rotation, offset)[0]

    def par(t, theta, z):
        base = field.components(t, theta, z), field.partials(t, theta, z)
        return _moved(surface.nodes(theta, z), *base, rotation, offset)[1]

    return FrameField(comp, par, kind=field.kind, description=f"rigid({field.description})")


def rigid_deformation(surface: ParamSurface, rotation: Array, offset: Array) -> FrameField:
    """The rigid motion x -> Q x + c in frame components: x -> x moved by ``_moved``."""

    def comp(t, theta, z):
        nodes = surface.nodes(theta, z)
        return _moved(nodes, nodes.identity(t).components, None, rotation, offset)[0]

    def par(t, theta, z):
        nodes = surface.nodes(theta, z)
        return _moved(nodes, *nodes.identity(t)[:2], rotation, offset)[1]

    return FrameField(comp, par, "deformation", "rigid-motion", motion=(rotation, offset))


def identity_deformation(surface: ParamSurface) -> FrameField:
    """The map x -> x written in frame components on the offset chart: the rigid motion (I, 0)."""
    return replace(rigid_deformation(surface, np.eye(3), np.zeros(3)), description="identity")


def displacement_to_deformation(
    surface: ParamSurface, u: FrameField, eps: float
) -> FrameField:
    """Deformation x + eps * u built from a displacement field."""
    if u.kind != "displacement":
        raise ValueError("expected a displacement field")
    ident = identity_deformation(surface)

    def comp(t, theta, z):
        return ident.components(t, theta, z) + eps * u.components(t, theta, z)

    def par(t, theta, z):
        return ident.partials(t, theta, z) + eps * u.partials(t, theta, z)

    return FrameField(
        comp,
        par,
        kind="deformation",
        description=f"x + {eps!r}*({u.description})",
        displacement=(u, eps),
    )


def _mode_sum(terms: Array, out: Array) -> Array:
    """Sum of (modes, 3, ...) terms over modes, into the (3, ...) array ``out``.

    It adds in the order of ``np.sum`` along a contiguous modes axis: in
    sequence from zero below 8 modes, and numpy's own pairwise sum (on a
    modes-last copy) from 8 modes on.
    """
    if len(terms) >= 8:
        np.ascontiguousarray(np.moveaxis(terms, 0, -1)).sum(axis=-1, out=out)
    else:
        out.fill(0.0)
        for term in terms:
            out += term
    return out


def random_smooth_field(
    seed: int | Sequence[int], amplitude: float, mode_count: int, surface: ParamSurface
) -> FrameField:
    """Deterministic truncated trigonometric displacement with analytic partials.

    Coefficients, integer frequencies, and phases are drawn from the seed;
    the same seed always reproduces the same field.  Each mode is a product
    of a t, a theta and a z factor, and each factor is evaluated on its own
    argument's shape: on a grid (``t_axis``, which is (nt, 1, 1) on a
    uniform shell and t on all nodes otherwise, theta (ntheta, 1), z
    (1, nz)) the trig of each factor runs on its own axis, and only the
    products broadcast to every node.  The output has the broadcast shape
    of the arguments plus (3,) for ``components`` and (3, 3) for
    ``partials``.

    A sequence of S seeds gives the S fields stacked: each seed makes the
    draws of ``default_rng(seed)`` that it makes alone, the coefficient
    arrays gain a trailing seed axis, and the outputs gain a leading one,
    (S, ..., 3) and (S, ..., 3, 3).  Every node of every seed goes through
    the operations of that seed evaluated alone, so slice s holds the bits
    of ``random_smooth_field(seeds[s], ...)``; a sweep evaluates a battery's
    seeds this way, one pass over the nodes for a chunk of seeds.

    Evaluation is mode-major: the mode and component axes lead every array,
    so each product is one long pass over the nodes instead of many short
    (3, modes) ones.  A term is ((coefficient * t factor) * theta factor) *
    z factor, each partial product at its own broadcast shape, so on a
    uniform shell only the last multiply writes every node, into one reused
    (modes, 3, ...) buffer (on a bump profile every product does).
    ``_mode_sum`` adds the modes in ``np.sum``'s order: in sequence, ((m0 + m1) + m2) + ..., below 8
    modes, as the old (..., 3, modes) layout did.  Both outputs are stored
    component-major, as the (3, [S,] ...) and (3, 3, [S,] ...) mode sums,
    and returned as their node-major views (``node_major``); a seed's slice of a stack has
    a lone seed's bits, and each of its entries is one contiguous block.
    """
    if amplitude < 0:
        raise ValueError("amplitude must be nonnegative")
    if mode_count < 1:
        raise ValueError("mode_count must be at least 1")
    t0, t1, z0, z1 = surface.domain

    def draw(seed):
        rng = np.random.default_rng(seed)
        coef = rng.uniform(-1.0, 1.0, (3, mode_count)) * (amplitude / mode_count)
        w_t = np.pi * rng.integers(0, 3, (3, mode_count))
        w_th = (np.pi / (t1 - t0)) * rng.integers(0, 3, (3, mode_count))
        w_z = (np.pi / (z1 - z0)) * rng.integers(0, 3, (3, mode_count))
        phase = rng.uniform(0.0, 2.0 * np.pi, (3, mode_count, 3))
        # (modes, 3) from here on: coef, w_t, w_th, w_z, then the t, theta and z phases
        return (coef.T, w_t.T, w_th.T, w_z.T, *phase.transpose(2, 1, 0))

    if isinstance(seed, (int, np.integer)):
        lead = ()
        coef, w_t, w_th, w_z, ph_t, ph_th, ph_z = draw(seed)
    else:
        lead = (len(seed),)
        if not lead[0]:
            raise ValueError("need at least one seed")
        # (modes, 3, S): the seed axis sits between the modes and the nodes
        coef, w_t, w_th, w_z, ph_t, ph_th, ph_z = map(np.dstack, zip(*map(draw, seed)))

    def angles(t, theta, z):
        # (modes, 3, [S,] ...) angles per argument, broadcast only by the products;
        # ``lift`` raises the drawn arrays to the rank of the nodes
        t, theta, z = _arr(t), _arr(theta), _arr(z)
        shape = np.broadcast(t, theta, z).shape
        lift = (...,) + (None,) * len(shape)
        at = t * w_t[lift]
        at += ph_t[lift]
        ath = (theta - t0) * w_th[lift]
        ath += ph_th[lift]
        az = (z - z0) * w_z[lift]
        az += ph_z[lift]
        return shape, lift, at, ath, az

    def product(out, *factors):
        # ((f0 * f1) * f2) * f3; a partial product goes into ``out`` only once it has out's shape
        acc = factors[0]
        for f in factors[1:]:
            acc = np.multiply(acc, f, out=out if np.broadcast_shapes(acc.shape, f.shape) == out.shape else None)
        return acc

    def comp(t, theta, z):
        shape, lift, at, ath, az = angles(t, theta, z)
        terms = np.empty((mode_count, 3) + lead + shape)
        product(terms, coef[lift], np.cos(at, out=at), np.cos(ath), np.cos(az))
        return node_major(_mode_sum(terms, np.empty(terms.shape[1:])), 1)

    def par(t, theta, z):
        shape, lift, at, ath, az = angles(t, theta, z)
        terms = np.empty((mode_count, 3) + lead + shape)
        # t angles on every node: their sine goes into the term buffer, one array fewer
        st, sth, sz = np.sin(at, out=terms if at.shape == terms.shape else None), np.sin(ath), np.sin(az)
        ct, cth, cz = np.cos(at, out=at), np.cos(ath), np.cos(az)
        out = np.empty((3, 3) + lead + shape)
        factors = ((w_t, st, cth, cz), (w_th, ct, sth, cz), (w_z, ct, cth, sz))
        for j, (w, a, b, d) in enumerate(factors):
            product(terms, (-coef * w)[lift], a, b, d)
            _mode_sum(terms, out[:, j])
        return node_major(out, 2)

    return FrameField(
        comp,
        par,
        kind="displacement",
        description=f"random(seed={seed}, amp={amplitude}, modes={mode_count})",
    )


# -- bending-type compactly supported displacement ---------------------------------


def poly_bump(s: Array) -> Array:
    """C^3 bump (1 - s^2)^4 on [-1, 1], identically zero outside."""
    s = _arr(s)
    inside = np.abs(s) < 1.0
    core = np.where(inside, 1.0 - s * s, 0.0)
    return core**4


def poly_bump_d1(s: Array) -> Array:
    s = _arr(s)
    inside = np.abs(s) < 1.0
    core = np.where(inside, 1.0 - s * s, 0.0)
    return -8.0 * s * core**3


def poly_bump_d2(s: Array) -> Array:
    s = _arr(s)
    inside = np.abs(s) < 1.0
    core = np.where(inside, 1.0 - s * s, 0.0)
    return core**2 * (56.0 * s * s - 8.0) * inside


@dataclass(frozen=True)
class AnsatzProfile:
    """Smooth compactly supported profile W(xi, z) with its partials.

    ``w`` and the partial maps take (xi, z) where xi is the stretched
    in-plane coordinate; the support is |xi| <= xi_halfwidth,
    |z - z_center| <= z_halfwidth.  A sweep takes the linearization
    amplitude epsilon from ``SweepConfig.epsilon``.
    """

    w: Callable
    w_xi: Callable
    w_z: Callable
    w_xixi: Callable
    w_xiz: Callable
    w_zz: Callable
    xi_halfwidth: float
    z_center: float
    z_halfwidth: float

    def support_check(self) -> None:
        xi = np.linspace(-self.xi_halfwidth, self.xi_halfwidth, 41)
        zz = self.z_center + self.z_halfwidth * np.linspace(-1, 1, 41)
        peak = float(np.max(np.abs(self.w(xi[:, None], zz[None, :]))))
        if peak <= 0:
            raise ValueError("profile W is identically zero")
        tol = 1e-12 * peak
        edge_xi = np.array([-self.xi_halfwidth, self.xi_halfwidth])
        edge_z = self.z_center + np.array([-self.z_halfwidth, self.z_halfwidth])
        for f in (self.w, self.w_xi, self.w_z, self.w_xixi, self.w_xiz, self.w_zz):
            if np.max(np.abs(f(edge_xi[:, None], zz[None, :]))) > tol:
                raise ValueError("profile does not vanish on the xi support boundary")
            if np.max(np.abs(f(xi[:, None], edge_z[None, :]))) > tol:
                raise ValueError("profile does not vanish on the z support boundary")


def default_ansatz_profile(surface: ParamSurface) -> AnsatzProfile:
    """Separable polynomial-bump profile W(xi, z) = b(xi) * b((z - zc)/wz).

    The support is |xi| <= 1 and the central 90% of the surface's z-span.
    """
    z0, z1 = surface.z_span
    zc = 0.5 * (z0 + z1)
    zhw = 0.9 * 0.5 * (z1 - z0)

    def scale(f_xi, f_z, sz=1.0):
        def call(xi, z):
            return sz * f_xi(_arr(xi)) * f_z((_arr(z) - zc) / zhw)

        return call

    prof = AnsatzProfile(
        w=scale(poly_bump, poly_bump),
        w_xi=scale(poly_bump_d1, poly_bump),
        w_z=scale(poly_bump, poly_bump_d1, sz=1.0 / zhw),
        w_xixi=scale(poly_bump_d2, poly_bump),
        w_xiz=scale(poly_bump_d1, poly_bump_d1, sz=1.0 / zhw),
        w_zz=scale(poly_bump, poly_bump_d2, sz=1.0 / zhw**2),
        xi_halfwidth=1.0,
        z_center=zc,
        z_halfwidth=zhw,
    )
    prof.support_check()
    return prof


def ansatz_displacement(
    profile: AnsatzProfile, surface: ParamSurface, h: float
) -> FrameField:
    """Bending-type displacement oscillating at scale sqrt(h) in theta.

    u_t = W(xi, z) with xi = (theta - theta_c)/sqrt(h), and the in-plane
    components are -t times the surface gradient of u_t, so the symmetric
    part of the gradient stays asymptotically smaller than the gradient.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    if h >= surface.h0():
        raise ValueError(f"h={h} is not below the chart bound h0={surface.h0()}")
    t0, t1 = surface.theta_span
    z0, z1 = surface.z_span
    thc = 0.5 * (t0 + t1)
    s = 1.0 / np.sqrt(h)
    if profile.xi_halfwidth / s >= 0.5 * (t1 - t0):
        raise ValueError(
            "support of the stretched profile exceeds the patch in theta; "
            "use a smaller xi_halfwidth or a larger patch"
        )
    if (
        profile.z_center - profile.z_halfwidth < z0
        or profile.z_center + profile.z_halfwidth > z1
    ):
        raise ValueError(
            "profile z-support exceeds the patch; use a smaller z support or a larger patch"
        )

    def _data(t, theta, z):
        t = _arr(t)
        xi = (_arr(theta) - thc) * s
        return t, xi, _arr(z)

    def comp(t, theta, z):
        t, xi, zz = _data(t, theta, z)
        ath = _arr(surface.a_theta(theta, z))
        az = _arr(surface.a_z(theta, z))
        ut = profile.w(xi, zz) + 0.0 * t
        uth = -t * s * profile.w_xi(xi, zz) / ath
        uz = -t * profile.w_z(xi, zz) / az
        return node_major(np.stack(np.broadcast_arrays(ut, uth, uz)), 1)

    def par(t, theta, z):
        t, xi, zz = _data(t, theta, z)
        ath = _arr(surface.a_theta(theta, z))
        az = _arr(surface.a_z(theta, z))
        ath_th = _arr(surface.da_theta_dtheta(theta, z))
        ath_z = _arr(surface.da_theta_dz(theta, z))
        az_th = _arr(surface.da_z_dtheta(theta, z))
        az_z = _arr(surface.da_z_dz(theta, z))
        w_xi = profile.w_xi(xi, zz)
        w_z = profile.w_z(xi, zz)
        w_xixi = profile.w_xixi(xi, zz)
        w_xiz = profile.w_xiz(xi, zz)
        w_zz = profile.w_zz(xi, zz)

        shape = np.broadcast(t, xi, zz, ath).shape
        out = np.empty((3, 3) + shape)
        out[0, 0] = 0.0
        out[0, 1] = s * w_xi
        out[0, 2] = w_z
        out[1, 0] = -s * w_xi / ath
        out[1, 1] = -t * s * (s * w_xixi * ath - w_xi * ath_th) / ath**2
        out[1, 2] = -t * s * (w_xiz * ath - w_xi * ath_z) / ath**2
        out[2, 0] = -w_z / az
        out[2, 1] = -t * (s * w_xiz * az - w_z * az_th) / az**2
        out[2, 2] = -t * (w_zz * az - w_z * az_z) / az**2
        return node_major(out, 2)

    return FrameField(
        comp, par, kind="displacement", description=f"ansatz(h={h!r})"
    )


def sampled_displacement(path, domain: ThinDomain) -> FrameField:
    """Displacement interpolated from nodal samples in the CSV schema.

    The samples must form a tensor grid: identical normalized thickness
    nodes in every (theta, z) column, as produced by exporting grid values.
    Components are interpolated linearly in (normalized t, theta, z);
    partials are central finite differences with step 1e-5 in t and 1e-5
    times the chart span in theta and z, one-sided at the chart boundary.
    """
    from scipy.interpolate import RegularGridInterpolator

    from .norms import read_samples_csv

    t_raw, th_raw, z_raw, vals = read_samples_csv(path)
    if vals.shape[1] != 3:
        raise ValueError("sampled displacement needs exactly 3 value columns")
    theta_ax = np.unique(th_raw)
    z_ax = np.unique(z_raw)
    nt = t_raw.size // (theta_ax.size * z_ax.size)
    if nt * theta_ax.size * z_ax.size != t_raw.size:
        raise ValueError("samples do not form a tensor (t, theta, z) grid")

    g1 = np.asarray(domain.profile.g1(th_raw, z_raw), dtype=float)
    g2 = np.asarray(domain.profile.g2(th_raw, z_raw), dtype=float)
    t_hat = (t_raw - 0.5 * (g2 - g1)) / (0.5 * (g1 + g2))
    i_th = np.searchsorted(theta_ax, th_raw)
    i_z = np.searchsorted(z_ax, z_raw)
    order = np.lexsort((t_hat, i_z, i_th))  # column-major blocks of nt rows each
    layers = np.arange(order.size) % nt
    cube = np.full((nt, theta_ax.size, z_ax.size, 3), np.nan)
    cube[layers, i_th[order], i_z[order]] = vals[order]
    if np.any(np.isnan(cube)):
        raise ValueError("samples do not cover the full tensor grid")
    t_cols = t_hat[order].reshape(theta_ax.size * z_ax.size, nt)
    t_ax = t_cols[0]
    if np.max(np.abs(t_cols - t_ax)) > 1e-9:
        raise ValueError("normalized thickness nodes differ between columns")

    interp = RegularGridInterpolator(
        (t_ax, theta_ax, z_ax), cube, bounds_error=False, fill_value=None
    )
    t0d, t1d, z0d, z1d = domain.surface.domain

    def comp(t, theta, z):
        t, theta, z = np.broadcast_arrays(_arr(t), _arr(theta), _arr(z))
        g1l = np.asarray(domain.profile.g1(theta, z), dtype=float)
        g2l = np.asarray(domain.profile.g2(theta, z), dtype=float)
        th_hat = (t - 0.5 * (g2l - g1l)) / (0.5 * (g1l + g2l))
        pts = np.stack([th_hat.reshape(-1), theta.reshape(-1), z.reshape(-1)], axis=-1)
        return interp(pts).reshape(t.shape + (3,))

    def par(t, theta, z):
        t, theta, z = np.broadcast_arrays(_arr(t), _arr(theta), _arr(z))
        out = np.empty(t.shape + (3, 3))
        steps = (1e-5, 1e-5 * (t1d - t0d), 1e-5 * (z1d - z0d))
        for j, s in enumerate(steps):
            lo = [t.copy(), theta.copy(), z.copy()]
            hi = [t.copy(), theta.copy(), z.copy()]
            hi[j] = hi[j] + s
            lo[j] = lo[j] - s
            if j == 1:
                hi[j] = np.minimum(hi[j], t1d)
                lo[j] = np.maximum(lo[j], t0d)
            if j == 2:
                hi[j] = np.minimum(hi[j], z1d)
                lo[j] = np.maximum(lo[j], z0d)
            span = hi[j] - lo[j]
            out[..., j] = (comp(*hi) - comp(*lo)) / span[..., None]
        return out

    return FrameField(comp, par, kind="displacement", description=f"sampled({path})")


FIELD_SPEC = re.compile(r"identity|ansatz|(rigid|random)(:[0-9]+)?|user:.+")


def field_kind(spec: str) -> str:
    """Kind of the field ``make_field(spec)`` builds; raises ValueError on a malformed spec or a bad file.

    The grammar is ``FIELD_SPEC``: identity | rigid:<seed> | ansatz |
    random:<seed> | user:<csv>, where a seed is a nonnegative decimal integer
    of at least one digit; ``rigid`` or ``random`` without a colon means seed 0.
    A ``user:`` file must exist and have the header t,theta,z plus three
    value columns.
    """
    if not FIELD_SPEC.fullmatch(spec):
        raise ValueError(
            f"unknown field spec {spec!r} "
            "(expected identity, rigid:<seed>, ansatz, random:<seed> or user:<csv>)"
        )
    if spec.startswith("user:"):
        if not Path(spec[5:]).is_file():
            raise ValueError(f"no such file for the field {spec!r}")
        with open(spec[5:], newline="") as fh:
            header = next(csv.reader(fh), [])
        if header[:3] != ["t", "theta", "z"] or len(header) != 6:
            raise ValueError(f"the field {spec!r} needs a CSV header t,theta,z and three value columns")
    return "deformation" if spec.partition(":")[0] in ("identity", "rigid") else "displacement"


def make_field(
    spec: str,
    domain: ThinDomain,
    amplitude: float = 0.1,
    modes: int = 4,
    profile: AnsatzProfile | None = None,
) -> FrameField:
    """Field registry: the one place a spec string becomes a field (grammar: ``field_kind``).

    ``domain`` gives the surface, the ansatz's h and the thickness profile
    that normalizes a sampled user field.  ``rigid:<seed>`` draws its
    rotation and offset from the seed; the field carries them as ``motion``.
    """
    field_kind(spec)
    surface = domain.surface
    name, _, arg = spec.partition(":")
    if name == "identity":
        return identity_deformation(surface)
    if name == "rigid":
        rng = np.random.default_rng(int(arg or 0))
        return rigid_deformation(surface, random_rotation(rng), rng.normal(size=3))
    if name == "ansatz":
        prof = profile or default_ansatz_profile(surface)
        return ansatz_displacement(prof, surface, domain.h)
    if name == "random":
        return random_smooth_field(int(arg or 0), amplitude, modes, surface)
    return sampled_displacement(arg, domain)
