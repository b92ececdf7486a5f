"""Fields on the thickness axis of a grid, and L^p norms of a whole seed stack.

``QuadratureGrid.t_axis`` is t as (nt, 1, 1) when every (theta, z) column
holds the same t nodes, and ``fields.on_grid`` evaluates fields on it; the
reference is the same field evaluated on t at every node.  ``norms.lp_norms``
takes the norms of a stack in one elementwise pass; the reference is
``lp_norm`` on each slice.
"""

import numpy as np
import pytest

from shellrig import fields as fl
from shellrig import geometry as geo
from shellrig import norms as nm

SURFACES = ("plate", "cylinder", "sphere", "pseudosphere")
H = 5e-2
RES = (3, 10, 8)


def _grid(surface, profile):
    s = geo.make_surface(surface) if isinstance(surface, str) else surface
    if isinstance(profile, str):
        profile = geo.make_profile(profile, H, s)
    return nm.build_grid(geo.ThinDomain(s, profile), RES)


def _constant(value):
    def g(theta, z):
        return value * np.ones(np.broadcast(np.asarray(theta), np.asarray(z)).shape)

    return g


def test_t_axis_is_one_column_on_uniform_shells():
    for name in SURFACES:
        grid = _grid(name, "shell")
        assert grid.t_axis.shape == (RES[0], 1, 1)
        assert np.array_equal(np.broadcast_to(grid.t_axis, grid.t.shape), grid.t)
    # a constant core shell, as the localization audit builds it, qualifies by its values
    core = geo.ThicknessProfile(h=H, g1=_constant(0.3 * H), g2=_constant(0.3 * H), c1=1.0, c2=1.0,
                                lower=0.3 - 1e-9, kind="core")
    assert _grid("sphere", core).t_axis.shape == (RES[0], 1, 1)


def test_t_axis_is_t_where_columns_differ():
    for name in SURFACES:
        grid = _grid(name, "bump")
        assert grid.t_axis is grid.t
    # a relative slope of 1e-13 across the patch is enough: the test is exact
    def g(theta, z):
        return 0.5 * H * (1.0 + 1e-13 * np.asarray(theta)) + 0.0 * np.asarray(z)

    tilted = geo.ThicknessProfile(h=H, g1=g, g2=g, c1=1.0, c2=1.0, lower=0.5, kind="shell")
    grid = _grid("sphere", tilted)
    assert grid.t_axis is grid.t


class _FullT:
    """A grid whose fields are evaluated on t at every node (what ``on_grid`` did before ``t_axis``)."""

    def __init__(self, grid):
        self._grid = grid

    @property
    def t_axis(self):
        return self._grid.t

    def __getattr__(self, name):
        return getattr(self._grid, name)


@pytest.fixture(scope="module", params=SURFACES)
def shell_grid(request):
    return _grid(request.param, "shell")


def _fields(grid, tmp_path):
    s, domain = grid.domain.surface, grid.domain
    samples = tmp_path / f"{s.name}.csv"
    nm.write_samples_csv(samples, grid, fl.random_smooth_field(5, 0.1, 4, s).components(*grid.mesh()))
    return {
        "random": fl.random_smooth_field(7, 0.1, 4, s),
        "random stacked": fl.random_smooth_field([3, 0, 11], 0.1, 4, s),
        "random stacked modes 9": fl.random_smooth_field([3, 0, 11], 0.1, 9, s),
        "x + eps random": fl.displacement_to_deformation(s, fl.random_smooth_field(2, 0.1, 4, s), H),
        "ansatz": fl.make_field("ansatz", domain),
        "rigid": fl.make_field("rigid:1", domain),
        "identity": fl.make_field("identity", domain),
        "user": fl.make_field(f"user:{samples}", domain),
    }


def test_on_grid_equals_the_evaluation_on_every_t_node(shell_grid, tmp_path):
    assert shell_grid.t_axis.shape == (RES[0], 1, 1)
    for name, field in _fields(shell_grid, tmp_path).items():
        got = fl.on_grid(field, shell_grid)
        want = fl.on_grid(field, _FullT(shell_grid))
        assert got[0].shape[-4:-1] == RES and got[1].shape[-5:-2] == RES, name
        for a, b in zip(got, want):
            assert a.shape == b.shape, name
            assert a.flags.c_contiguous == b.flags.c_contiguous, name
            assert a.tobytes() == b.tobytes(), name


def _stacks(grid):
    rng = np.random.default_rng(4)
    base = grid.resolution
    for tail in ((), (3,), (3, 3)):
        for seeds in (1, 5):
            yield rng.normal(size=(seeds, *base, *tail)) * np.exp(rng.normal(size=(seeds, *base, *tail)))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_lp_norms_equal_lp_norm_per_slice(shell_grid, p):
    for stack in _stacks(shell_grid):
        got = nm.lp_norms(stack, shell_grid, p)
        assert repr(got) == repr([nm.lp_norm(v, shell_grid, p) for v in stack])
        assert all(type(x) is float for x in got)


def _error(call) -> tuple:
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


def test_lp_norms_raise_what_lp_norm_raises(shell_grid):
    stack = next(_stacks(shell_grid)).repeat(3, axis=0)
    bad_shape = np.zeros((3, *shell_grid.resolution, 2))
    not_finite = stack.copy()
    not_finite[1, 0, 2, 3] = np.nan
    cases = [(stack, 1.0, 0), (stack, np.inf, 0), (bad_shape, 2.0, 0), (not_finite, 2.0, 1), (not_finite, 3.0, 1)]
    for values, p, k in cases:
        assert _error(lambda: nm.lp_norms(values, shell_grid, p)) == _error(lambda: nm.lp_norm(values[k], shell_grid, p))
