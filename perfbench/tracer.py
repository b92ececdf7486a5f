"""Span tracing of shellrig from outside the package.

``installed(tracer)`` wraps shellrig's public functions and methods, and the
per-instance callables that carry most of the numerical work (a surface's
metric and curvature coefficients, a field's components and partials), then
restores every original on exit.  Each wrapped call appends one span record
``[id, parent_id, name, start, end, work]`` to ``tracer.spans``; spans stay in
memory until the caller writes them out.

Span names are ``<module>.<function>``, the module being the layer.  The
functions named by a per-layer metric (``NAMED``) get a span on every call.
Every other public function gets one only when it is called from another
module, i.e. at a layer boundary, so a kernel's private helpers stay inside
its own self time.  Wrappers replace every binding of a function: the
defining module's attribute and each ``from .x import f`` copy in the other
modules and the package.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
from time import perf_counter

import numpy as np

MODULES = ("geometry", "fields", "matrixops", "norms", "inequality", "localization", "experiments", "cli")

# ParamSurface fields that hold the metric and curvature coefficient callables.
COEFFS = (
    "a_theta",
    "a_z",
    "kappa_theta",
    "kappa_z",
    "da_theta_dtheta",
    "da_theta_dz",
    "da_z_dtheta",
    "da_z_dz",
)


def _nodes(*arrays) -> int:
    return int(np.broadcast(*arrays).size)


def _matrices(f) -> int:
    return int(np.prod(np.shape(f)[:-2], dtype=np.int64))


def _grid_nodes(domain, resolution):
    nt, nth, nz = (int(n) for n in resolution)
    return nt * nth * nz, nth * nz


# Work counted per call, from the arguments, for the spans that report it.
WORK = {
    "geometry.frame": lambda self, theta, z: _nodes(theta, z),
    "fields.frame_gradient": lambda field, surface, t, theta, z: _nodes(t, theta, z),
    "matrixops.dist_SO3": lambda f: _matrices(f),
    "matrixops.nearest_rotation": lambda f, warn_degenerate=True: _matrices(f),
    "norms.build_grid": _grid_nodes,  # (nodes, distinct (theta, z) nodes)
    "localization.patch_trace": lambda v, decomposition, grid, p: decomposition.count,
}

# Spans recorded on every call, intra-module calls included.
NAMED = frozenset(
    {
        "geometry.frame",
        "geometry.coeffs",
        "geometry.embed",
        "geometry.volume_jacobian",
        "fields.components",
        "fields.partials",
        "fields.frame_gradient",
        "matrixops.dist_SO3",
        "matrixops.nearest_rotation",
        "norms.build_grid",
        "norms.lp_norm",
        "norms.weighted_mean",
        "inequality.interpolation_sides",
        "inequality.optimal_offset",
        "localization.partition",
        "localization.patch_trace",
        "localization.shell_to_domain_trace",
        "experiments.run_sweep",
        "experiments.fit_exponent",
        "cli.main",
    }
)


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def clear(self) -> None:
        self.spans = []
        self._stack = []

    def wrap(self, fn, name: str):
        """Return fn wrapped in a span named ``name``."""
        if getattr(fn, "__perfbench_span__", None):
            return fn
        module = getattr(fn, "__module__", None)
        boundary_only = name not in NAMED
        work = WORK.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if boundary_only and sys._getframe(1).f_globals.get("__name__") == module:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer._stack
            rec = [len(spans), stack[-1] if stack else -1, name, 0.0, 0.0,
                   work(*args, **kwargs) if work else None]
            spans.append(rec)
            stack.append(rec[0])
            rec[3] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                stack.pop()

        wrapper.__perfbench_span__ = name
        return wrapper


def _public_functions(mod):
    for attr, obj in vars(mod).items():
        if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
            yield obj


def _public_classes(mod):
    for attr, obj in vars(mod).items():
        if not attr.startswith("_") and inspect.isclass(obj) and obj.__module__ == mod.__name__:
            yield obj


def _wrap_instance_callables(cls, span_of: dict, tracer, patches):
    """Patch cls.__init__ so every new instance gets its callables wrapped.

    ``span_of`` maps an attribute holding a callable to its span name.
    """
    init = cls.__init__

    @functools.wraps(init)
    def traced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        for attr, span in span_of.items():
            fn = getattr(self, attr)
            if callable(fn):
                object.__setattr__(self, attr, tracer.wrap(fn, span))

    patches.append((cls, "__init__", init))
    cls.__init__ = traced_init


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap shellrig for the duration of the block; restore every binding after."""
    package = importlib.import_module("shellrig")
    modules = {name: importlib.import_module(f"shellrig.{name}") for name in MODULES}
    patches = []  # (owner, attribute, original)
    try:
        wrappers = {}
        for layer, mod in modules.items():
            for fn in _public_functions(mod):
                wrappers[fn] = tracer.wrap(fn, f"{layer}.{fn.__name__}")
            for cls in _public_classes(mod):
                for attr, val in list(vars(cls).items()):
                    if not attr.startswith("_") and inspect.isfunction(val):
                        patches.append((cls, attr, val))
                        setattr(cls, attr, tracer.wrap(val, f"{layer}.{attr}"))
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        _wrap_instance_callables(
            modules["geometry"].ParamSurface, dict.fromkeys(COEFFS, "geometry.coeffs"), tracer, patches
        )
        _wrap_instance_callables(
            modules["fields"].FrameField,
            {"components": "fields.components", "partials": "fields.partials"},
            tracer,
            patches,
        )
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


UNITS = {
    "calls": "count",
    "nodes": "count",
    "matrices": "count",
    "patches": "count",
    "reports": "count",
    "bytes": "B",
    "per_report": "calls/report",
    "redundancy": "ratio",
    "overhead": "ratio",
}


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from the last part of its name."""
    return "s" if metric.endswith("_s") else UNITS[metric.rsplit(".", 1)[-1]]


def self_times(spans) -> list[float]:
    """Self time per span: its duration minus the durations of its children.

    Spans come from one thread, so children never overlap one another and the
    time they cover is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for _, parent, _, start, end, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(end - start) - covered[sid] for sid, _, _, start, end, _ in spans]


def layer_metrics(spans, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced iteration whose cli.main calls took ``wall`` s.

    ``unattributed_s`` is the part of ``wall`` that no ``*.self_s`` metric
    covers: self time of public functions no metric names, plus the wrapper
    overhead around the outermost ``cli.main`` spans.
    """
    selfs = self_times(spans)
    calls, outer, self_s, work, plane = {}, {}, {}, {}, {}
    for (_, parent, name, _, _, w), st in zip(spans, selfs):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + st
        if parent < 0 or spans[parent][2] != name:
            outer[name] = outer.get(name, 0) + 1
        if isinstance(w, tuple):
            work[name] = work.get(name, 0) + w[0]
            plane[name] = plane.get(name, 0) + w[1]
        elif w is not None:
            work[name] = work.get(name, 0) + w

    def n(table, name):
        return table.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    reports = n(calls, "inequality.interpolation_sides") + n(calls, "inequality.korn_linear_sides")
    matrices = n(work, "matrixops.dist_SO3")
    m = {
        "geometry.frame.calls": n(calls, "geometry.frame"),
        "geometry.frame.nodes": n(work, "geometry.frame"),
        "geometry.frame.self_s": s("geometry.frame"),
        "geometry.frame.redundancy": ratio(n(work, "geometry.frame"), n(plane, "norms.build_grid")),
        "geometry.coeffs.calls": n(calls, "geometry.coeffs"),
        "geometry.coeffs.self_s": s("geometry.coeffs"),
        "geometry.embed.self_s": s("geometry.embed"),
        "geometry.volume_jacobian.self_s": s("geometry.volume_jacobian"),
        "fields.components.calls": n(outer, "fields.components"),
        "fields.components.per_report": ratio(n(outer, "fields.components"), reports),
        "fields.components.self_s": s("fields.components"),
        "fields.partials.calls": n(outer, "fields.partials"),
        "fields.partials.self_s": s("fields.partials"),
        "fields.frame_gradient.calls": n(calls, "fields.frame_gradient"),
        "fields.frame_gradient.nodes": n(work, "fields.frame_gradient"),
        "fields.frame_gradient.self_s": s("fields.frame_gradient"),
        "matrixops.dist_SO3.calls": n(calls, "matrixops.dist_SO3"),
        "matrixops.dist_SO3.matrices": matrices,
        "matrixops.dist_SO3.self_s": s("matrixops.dist_SO3"),
        "matrixops.dist_SO3.bytes": 80 * matrices,  # computed: 72 B in + 8 B out per matrix
        "matrixops.nearest_rotation.calls": n(calls, "matrixops.nearest_rotation"),
        "matrixops.nearest_rotation.matrices": n(work, "matrixops.nearest_rotation"),
        "matrixops.nearest_rotation.self_s": s("matrixops.nearest_rotation"),
        "norms.build_grid.calls": n(calls, "norms.build_grid"),
        "norms.build_grid.nodes": n(work, "norms.build_grid"),
        "norms.build_grid.self_s": s("norms.build_grid"),
        "norms.lp_norm.calls": n(calls, "norms.lp_norm"),
        "norms.lp_norm.self_s": s("norms.lp_norm"),
        "norms.weighted_mean.self_s": s("norms.weighted_mean"),
        "inequality.interpolation_sides.calls": n(calls, "inequality.interpolation_sides"),
        "inequality.interpolation_sides.self_s": s("inequality.interpolation_sides"),
        "inequality.optimal_offset.self_s": s("inequality.optimal_offset"),
        "localization.partition.self_s": s("localization.partition"),
        "localization.patch_trace.patches": n(work, "localization.patch_trace"),
        "localization.patch_trace.self_s": s("localization.patch_trace"),
        "localization.shell_to_domain_trace.self_s": s("localization.shell_to_domain_trace"),
        "experiments.reports": reports,
        "experiments.run_sweep.self_s": s("experiments.run_sweep"),
        "experiments.fit_exponent.self_s": s("experiments.fit_exponent"),
        "cli.main.self_s": s("cli.main"),
    }
    m["unattributed_s"] = wall - sum(v for k, v in m.items() if k.endswith(".self_s"))
    return m
