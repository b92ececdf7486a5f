"""Tests of the benchmark's own code: tracing arithmetic, wrappers, output checks.

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys

import pytest

import run
import tracer as tr
import workloads as wl
from conftest import BENCH, ROOT

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def span(sid, parent, name, start, end, work=None):
    return [sid, parent, name, start, end, work]


def test_self_times_of_a_nested_tree():
    spans = [
        span(0, -1, "cli.main", 0.0, 10.0),
        span(1, 0, "experiments.run_sweep", 1.0, 4.0),
        span(2, 1, "norms.lp_norm", 2.0, 3.0),
        span(3, 0, "norms.lp_norm", 5.0, 9.0),
        span(4, 3, "matrixops.dist_SO3", 5.5, 6.0),
        span(5, 3, "matrixops.dist_SO3", 7.0, 8.5),
    ]
    assert tr.self_times(spans) == [3.0, 2.0, 1.0, 2.0, 0.5, 1.5]
    m = tr.layer_metrics(spans, wall=10.25)
    assert m["cli.main.self_s"] == 3.0
    assert m["norms.lp_norm.self_s"] == 3.0
    assert m["matrixops.dist_SO3.self_s"] == 2.0
    assert m["norms.lp_norm.calls"] == 2
    assert m["unattributed_s"] == 0.25  # the gap between wall and the root span


def test_nested_components_count_once():
    spans = [
        span(0, -1, "fields.components", 0.0, 3.0),
        span(1, 0, "fields.components", 0.5, 1.0),
        span(2, 0, "fields.components", 1.5, 2.0),
        span(3, -1, "inequality.interpolation_sides", 4.0, 5.0),
    ]
    m = tr.layer_metrics(spans, wall=5.0)
    assert m["fields.components.calls"] == 1
    assert m["fields.components.per_report"] == 1.0
    assert m["fields.components.self_s"] == 3.0


def test_reference_speed_scaling():
    ref = run.GAUGE_REF_S
    assert run.at_reference_speed([1.0, 2.0], [ref] * 3) == [1.0, 2.0]
    # On a machine twice as slow both the samples and the gauge double.
    assert run.at_reference_speed([2.0, 4.0], [2 * ref] * 3) == pytest.approx([1.0, 2.0])
    readings = [ref] * 8
    readings[3] = 5 * ref  # one stray reading does not move the scale
    assert run.at_reference_speed([1.0] * 7, readings) == pytest.approx([1.0] * 7)


@pytest.fixture(scope="module")
def traced_battery(tmp_path_factory):
    """One untraced and one traced iteration of the battery workload."""
    from shellrig import cli

    workload = wl.make_workload("battery", 0)
    runner = run.Runner(cli, workload, wl.load_reference()[workload.ref_key],
                        tmp_path_factory.mktemp("battery"))
    runner.iteration()
    tracer = tr.Tracer()
    with tr.installed(tracer):
        wall = runner.iteration(traced=True)
    return runner, tracer.spans, wall, tr.layer_metrics(tracer.spans, wall)


def test_battery_counts_are_exact(traced_battery):
    # Per report, cProfile on the seed code's 180-report battery counts 1
    # frame_gradient, 3 component evaluations, 8 frames, 1 grid build,
    # 1 dist_SO3 and 3 lp_norm calls; the benchmark's battery makes 80 reports.
    _, _, _, m = traced_battery
    assert m["experiments.reports"] == 80
    assert m["fields.frame_gradient.calls"] == 80
    assert m["fields.components.per_report"] == 3.0
    assert m["geometry.frame.calls"] == 640
    assert m["norms.build_grid.calls"] == 80
    assert m["matrixops.dist_SO3.calls"] == 80
    assert m["norms.lp_norm.calls"] == 240
    assert m["matrixops.dist_SO3.bytes"] == 80 * m["matrixops.dist_SO3.matrices"]


def test_self_times_and_unattributed_sum_to_wall(traced_battery):
    _, spans, wall, m = traced_battery
    named = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert named + m["unattributed_s"] == pytest.approx(wall, rel=1e-12)
    # unattributed time is the self time of the spans no metric names, plus
    # the wrapper overhead outside the root cli.main spans
    selfs = tr.self_times(spans)
    metric_spans = {k[: -len(".self_s")] for k in m if k.endswith(".self_s")}
    other = sum(st for rec, st in zip(spans, selfs) if rec[2] not in metric_spans)
    outside = wall - sum(end - start for _, parent, _, start, end, _ in spans if parent < 0)
    assert m["unattributed_s"] == pytest.approx(other + outside, abs=1e-9)
    assert min(selfs) >= -1e-12
    assert 0.0 <= outside < 1e-3


def test_traced_run_passes_the_output_check(traced_battery):
    runner = traced_battery[0]
    assert runner.attempted == 8 and runner.failed == 0


def test_traced_artifacts_are_byte_identical(tmp_path):
    from shellrig import cli

    argv = wl.make_workload("audit", 5).calls[-1]
    assert cli.main([*argv, "--out", str(tmp_path / "plain")]) == 0
    with tr.installed(tr.Tracer()):
        assert cli.main([*argv, "--out", str(tmp_path / "traced")]) == 0
    plain = sorted((tmp_path / "plain").iterdir())
    assert [p.name for p in plain] == ["config.json", "trace.csv", "trace.json", "verdict.txt"]
    for p in plain:
        assert p.read_bytes() == (tmp_path / "traced" / p.name).read_bytes()


def test_wrappers_patch_every_import_binding():
    import shellrig
    from shellrig import fields, geometry, inequality, localization, matrixops, norms

    bindings = {
        "frame_gradient": (fields, inequality, localization, shellrig),
        "dist_SO3": (matrixops, inequality, localization, shellrig),
        "lp_norm": (norms, inequality, localization, shellrig),
        "weighted_mean": (norms, inequality),
        "embed": (geometry, fields, inequality, localization, shellrig),
    }
    originals = {(mod, name): getattr(mod, name) for name, mods in bindings.items() for mod in mods}
    with tr.installed(tr.Tracer()):
        for (mod, name), original in originals.items():
            patched = getattr(mod, name)
            assert patched is not original, f"{mod.__name__}.{name} not wrapped"
            assert patched.__wrapped__ is original
    for (mod, name), original in originals.items():
        assert getattr(mod, name) is original


def test_output_check_counts_drift_as_failure(tmp_path):
    expected = [[1e-3, 2.0], [1e-2, 3.0]]
    (tmp_path / "verdict.txt").write_text("validity: PASS (ok)\n")
    (tmp_path / "sweep.csv").write_text("h,ratio\n0.001,2.0\n0.01,3.0000000001\n")
    argv = ["sweep"]
    assert wl.failed_ops(argv, tmp_path, expected) == 1
    (tmp_path / "sweep.csv").write_text("h,ratio\n0.001,2.0\n0.01,3.0\n")
    assert wl.failed_ops(argv, tmp_path, expected) == 0
    (tmp_path / "verdict.txt").write_text("validity: FAIL (slope)\n")
    assert wl.failed_ops(argv, tmp_path, expected) == 2


def test_metric_names_and_units():
    e2e = [m["name"] for m in BENCHMARK["end_to_end"]]
    layer = [m["name"] for m in BENCHMARK["per_layer"]]
    for name in e2e + layer:
        assert NAME_RE.fullmatch(name), name
    assert len(set(e2e + layer)) == len(e2e + layer)
    computed = tr.layer_metrics([], wall=1.0)
    assert set(layer) == set(computed) | {"trace.overhead"}
    assert {k[: -len(".self_s")] for k in computed if k.endswith(".self_s")} <= tr.NAMED
    for m in BENCHMARK["per_layer"]:
        assert m["unit"] == tr.unit_of(m["name"]), m["name"]


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_metric(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]} for m in declared
    }


def test_run_fails_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "battery", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
