"""scripts/bench_pairs.py: flags are checked before any run, and checkouts are compiled first."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench(monkeypatch):
    module = _load()
    calls = []

    def refuse_run(*args):
        raise AssertionError(f"one_run called with {args}")

    monkeypatch.setattr(module, "one_run", refuse_run)
    monkeypatch.setattr(module, "compile_checkout", lambda checkout: calls.append(("compile", checkout)))
    module.calls = calls
    return module


def _main(bench, monkeypatch, tmp_path, *flags):
    argv = ["bench_pairs.py", "--parent", str(tmp_path), "--change", str(tmp_path),
            "--pairs", "2", "--seconds", "1", "--out", str(tmp_path / "out.json"), *flags]
    monkeypatch.setattr(sys, "argv", argv)
    return bench.main()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--claim", "sharpness"], "not WORKLOAD:METRIC"),
        (["--claim", "sharpness:wall"], "metric 'wall'"),
        (["--claim", "audit:wall_s", "--workloads", "sharpness"], "workload 'audit'"),
        (["--claim", "nowhere:wall_s"], "workload 'nowhere'"),
        (["--heldout-seed", "1"], "--heldout-seed 1 is a seed of the pairs (0..1)"),
        (["--heldout-seed", "0"], "--heldout-seed 0"),
    ],
)
def test_bad_flags_fail_before_any_run(bench, monkeypatch, tmp_path, capsys, flags, message):
    with pytest.raises(SystemExit) as exc:
        _main(bench, monkeypatch, tmp_path, *flags)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert bench.calls == []
    assert not (tmp_path / "out.json").exists()


def test_checkouts_are_compiled_before_the_first_pair(bench, monkeypatch, tmp_path):
    parent, change = (tmp_path / "parent").resolve(), (tmp_path / "change").resolve()
    for checkout, text in ((parent, "a = 1\nb = 2\n"), (change, "a = 1\n")):
        (checkout / "src" / "pkg").mkdir(parents=True)
        (checkout / "src" / "pkg" / "m.py").write_text(text)
        (checkout / "src" / "pkg" / "__init__.py").write_text("\n")
        (checkout / "src" / "pkg" / "notes.txt").write_text("not counted\n")

    def fake_run(checkout, workload, seed, seconds):
        assert bench.calls[:2] == [("compile", parent), ("compile", change)]
        bench.calls.append(("run", checkout))
        value = 1.0 if checkout == parent else 0.9
        return {
            "metrics": {m: {"value": value} for m in bench.METRICS},
            "failed": 0,
            "attempted": 3,
            "unscaled": {m: value for m in bench.UNSCALED},
            "provenance": {k: "x" for k in ("python", "numpy", "scipy", "nproc", "cpus_usable", "cpu")},
        }

    monkeypatch.setattr(bench, "one_run", fake_run)
    out = tmp_path / "out.json"
    monkeypatch.setattr(sys, "argv", [
        "bench_pairs.py", "--parent", str(parent), "--change", str(change), "--workloads", "sharpness",
        "--pairs", "2", "--seconds", "1", "--heldout-seed", "2", "--claim", "sharpness:wall_s",
        "--out", str(out),
    ])
    assert bench.main() == 0
    assert len(bench.calls) == 2 + 2 * 3
    doc = json.loads(out.read_text())
    assert "compileall -q src perfbench" in doc["method"]
    assert doc["claim"]["change_better_in_pairs"] == 2
    assert doc["heldout"]["seed"] == 2
    assert doc["workloads"]["sharpness"]["unscaled"]["wall_raw_s"]["change_lower_in_pairs"] == 2
    assert doc["heldout"]["workloads"]["sharpness"]["change"]["gauge_s"] == 0.9
    assert doc["src_lines"] == {"parent": 3, "change": 2}


def test_one_run_reads_the_unscaled_wall_and_gauge_lines(monkeypatch, tmp_path):
    bench = _load()
    stdout = "\n".join([
        json.dumps({"provenance": {"python": "3"}}),
        "wall_s: 0.09 s", "wall_raw_s: 0.061 s", "wall_raw_p75_s: 0.07 s", "gauge_s: 0.0052 s",
        json.dumps({"correct": True, "attempted": 4, "failed": 0, "metrics": {}}),
    ])
    monkeypatch.setattr(bench.subprocess, "run",
                        lambda *a, **k: type("Proc", (), {"returncode": 0, "stdout": stdout, "stderr": ""}))
    result = bench.one_run(tmp_path, "sharpness", 0, 1.0)
    assert result["unscaled"] == {"wall_raw_s": 0.061, "gauge_s": 0.0052}
    assert result["provenance"] == {"python": "3"}


def test_compile_checkout_writes_bytecode_even_without_bytecode_writing(tmp_path, monkeypatch):
    for tree in ("src", "perfbench"):
        (tmp_path / tree).mkdir()
        (tmp_path / tree / "m.py").write_text("X = 1\n")
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    _load().compile_checkout(tmp_path)
    for tree in ("src", "perfbench"):
        assert list((tmp_path / tree / "__pycache__").glob("m.*.pyc"))
