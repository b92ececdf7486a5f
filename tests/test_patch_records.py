"""Per-patch records are plain Python numbers equal to the array-indexing formulation.

``patch_trace`` and ``shell_to_domain_trace`` build their per-patch records
from ``tolist()`` columns.  The reference below keeps the formulation they
replaced: the same per-patch arrays, indexed patch by patch and converted
with ``float()``, ``int()`` and ``bool()`` on numpy scalars.  Every value
must match it by ``repr``, with a plain ``float``/``int``/``bool`` type.
An amplitude-0 field makes every patch vacuous and covers the NaN branches.
"""

import dataclasses
import math

import numpy as np
import pytest

from shellrig import fields as fl
from shellrig import geometry as geo
from shellrig import localization as loc
from shellrig import norms as nm

SURFACES = ("cylinder", "sphere")
P_VALUES = (2.0, 3.0)
AMPLITUDES = (0.0, 1e-3)
H = 3e-2
ARRAYS = ("rotation", "offset")


def _setup(name, amplitude):
    s = geo.make_surface(name)
    domain = geo.ThinDomain(s, geo.make_profile("bump", H, s))
    dec = loc.partition(domain, 0.5)
    grid = nm.build_grid(domain, (2, max(16, 4 * dec.m_theta), max(16, 4 * dec.m_z)))
    return fl.random_smooth_field(3, amplitude, 4, s), domain, dec, grid


def _rect(dec, i):
    it, iz = divmod(i, dec.m_z)
    return (float(dec.theta_edges[it]), float(dec.theta_edges[it + 1]),
            float(dec.z_edges[iz]), float(dec.z_edges[iz + 1]))


def _patch_reference(v, dec, grid, p):
    """``patch_trace``'s records, built by indexing its per-patch arrays."""
    n = dec.count
    ids = dec.cell_ids(grid)
    w = grid.weights
    comp, ge, rot, tot, resid, dist_nodes = loc._fit_patches(v, grid, ids, n, p)
    dist = loc._group_lp(ids, w, dist_nodes, n, p)
    x_e = grid.nodes.point(grid.t)
    v_e = np.einsum("...ij,...j->...i", grid.nodes.frame, comp)
    imr_x = x_e - np.einsum("...ij,...j->...i", rot[ids], x_e)
    b = loc._group_mean(ids, w, v_e + imr_x, n, tot)
    b_worst = loc._group_mean(ids, w, imr_x, n, tot)
    grad = loc._group_lp(ids, w, np.linalg.norm(ge - np.eye(3), axis=(-2, -1)), n, p)
    field = loc._group_lp(ids, w, np.linalg.norm(v_e, axis=-1), n, p)
    i_minus_r = np.linalg.norm(rot - np.eye(3), axis=(-2, -1)) * tot ** (1.0 / p)
    poin = loc._group_lp(ids, w, np.linalg.norm(v_e + imr_x - b[ids], axis=-1), n, p)
    rot_lb = loc._group_lp(ids, w, np.linalg.norm(imr_x - b_worst[ids], axis=-1), n, p)
    h, gamma = grid.domain.h, dec.gamma
    hg = h**gamma
    tiny = 1e-13 * grid.volume ** (1.0 / p)
    counts = np.bincount(ids.reshape(-1), minlength=n)
    records = []
    for i in range(n):
        vac = resid[i] <= tiny or i_minus_r[i] <= tiny * 1e2 or dist[i] <= tiny
        records.append(
            {
                "index": i,
                "rect": _rect(dec, i),
                "rotation": rot[i],
                "offset": b[i],
                "volume": float(tot[i]),
                "n_nodes": int(counts[i]),
                "resid": float(resid[i]),
                "dist": float(dist[i]),
                "grad": float(grad[i]),
                "field": float(field[i]),
                "i_minus_r": float(i_minus_r[i]),
                "poincare_lhs": float(poin[i]),
                "rot_lb_lhs": float(rot_lb[i]),
                "c_local": float(resid[i] * h ** (1.0 - gamma) / dist[i]) if dist[i] > tiny else math.nan,
                "c_poincare": float(poin[i] / (hg * resid[i])) if resid[i] > tiny else math.nan,
                "c_rot_lb": float(rot_lb[i] / (hg * i_minus_r[i])) if i_minus_r[i] > tiny * 1e2 else math.nan,
                "vacuous": bool(vac),
            }
        )
    return records


def _per_patch_reference(v, domain, grid, p):
    """``shell_to_domain_trace``'s ``per_patch``, built by indexing its per-patch arrays."""
    th_s, zz_s = domain.surface.interior_samples(65)
    a = float(min(domain.profile.g1(th_s, zz_s).min(), domain.profile.g2(th_s, zz_s).min()))
    core_profile = geo.ThicknessProfile(
        h=domain.h, g1=lambda th, z: a * np.ones(np.broadcast(th, z).shape),
        g2=lambda th, z: a * np.ones(np.broadcast(th, z).shape),
        c1=max(1.0, a / domain.h) + 1e-9, c2=domain.profile.c2, lower=min(1.0, a / domain.h) - 1e-9,
        kind="core",
    )
    core_grid = nm.build_grid(geo.ThinDomain(domain.surface, core_profile), grid.resolution)
    l_th, l_z = domain.surface.metric_extents()
    dec = loc._build_partition(domain, max(10.0 * domain.h, max(l_th, l_z) / 24), gamma=1.0)
    n = dec.count
    ids_o, ids_c = dec.cell_ids(grid), dec.cell_ids(core_grid)
    _, _, rot_o, tot_o, resid_o, dist_o = loc._fit_patches(v, grid, ids_o, n, p)
    _, _, rot_c, tot_c, resid_c, dist_c = loc._fit_patches(v, core_grid, ids_c, n, p)
    dist_o_p = loc._group_lp(ids_o, grid.weights, dist_o, n, p)
    dist_c_p = loc._group_lp(ids_c, core_grid.weights, dist_c, n, p)
    gap = np.linalg.norm(rot_o - rot_c, axis=(-2, -1))
    scale = grid.volume ** (1.0 / p)
    c_gap = np.where(dist_o_p > 1e-13 * scale, gap * tot_c ** (1.0 / p) / np.maximum(dist_o_p, 1e-300), np.nan)
    return [
        {
            "index": i,
            "rect": _rect(dec, i),
            "resid_core": float(resid_c[i]),
            "resid_domain": float(resid_o[i]),
            "dist_core": float(dist_c_p[i]),
            "dist_domain": float(dist_o_p[i]),
            "rot_gap": float(gap[i]),
            "c_rot_gap": float(c_gap[i]),
            "core_volume": float(tot_c[i]),
            "domain_volume": float(tot_o[i]),
        }
        for i in range(n)
    ]


def _assert_same_record(got, ref, arrays=()):
    assert list(got) == list(ref)
    for key, value in got.items():
        if key in arrays:
            assert np.array_equal(value, ref[key]), key
        elif key == "rect":
            assert type(value) is tuple and [type(x) for x in value] == [float] * 4
            assert repr(value) == repr(ref[key])
        else:
            assert type(value) is type(ref[key]) and type(value) in (float, int, bool), key
            assert repr(value) == repr(ref[key]), key


@pytest.mark.parametrize("amplitude", AMPLITUDES)
@pytest.mark.parametrize("p", P_VALUES)
@pytest.mark.parametrize("name", SURFACES)
def test_patch_trace_records_are_plain_and_unchanged(name, p, amplitude):
    v, _, dec, grid = _setup(name, amplitude)
    traces, agg = loc.patch_trace(v, dec, grid, p)
    ref = _patch_reference(v, dec, nm.build_grid(grid.domain, grid.resolution), p)
    assert len(traces) == len(ref) == dec.count
    for tr, rec in zip(traces, ref):
        _assert_same_record(dataclasses.asdict(tr), rec, ARRAYS)
    if amplitude == 0.0:  # every patch is vacuous and every constant NaN
        assert all(tr.vacuous for tr in traces)
        assert all(math.isnan(x) for tr in traces for x in (tr.c_local, tr.c_poincare, tr.c_rot_lb))
        assert math.isnan(agg.c_local_max)
    else:
        assert not any(tr.vacuous for tr in traces)


@pytest.mark.parametrize("amplitude", AMPLITUDES)
@pytest.mark.parametrize("p", P_VALUES)
@pytest.mark.parametrize("name", SURFACES)
def test_shell_to_domain_per_patch_is_plain_and_unchanged(name, p, amplitude):
    v, domain, _, grid = _setup(name, amplitude)
    sdt = loc.shell_to_domain_trace(v, domain, grid, p)
    ref = _per_patch_reference(v, domain, nm.build_grid(domain, grid.resolution), p)
    assert len(sdt.per_patch) == len(ref) == sdt.count
    for rec, expected in zip(sdt.per_patch, ref):
        _assert_same_record(rec, expected)
    c_gap = [rec["c_rot_gap"] for rec in sdt.per_patch]
    assert all(math.isnan(c) for c in c_gap) == (amplitude == 0.0)
