"""scripts/same_outputs.py: any differing output fails the comparison, and checkouts are checked first."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "same_outputs.py"


@pytest.fixture
def same():
    spec = importlib.util.spec_from_file_location("same_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.calls = []
    return module


def _checkouts(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        (checkout / "src" / "shellrig").mkdir(parents=True)
    return parent, change


def _stub(same, monkeypatch, differing=None):
    """A runner that writes two files per run; the change's ``differing`` argv writes another fit.json."""
    def fake_run(checkout, argv, out):
        same.calls.append((checkout.name, " ".join(argv)))
        assert not out.exists()  # the previous run's directory is gone
        out.mkdir()
        fit = b"changed" if checkout.name == "change" and " ".join(argv) == differing else b"fit"
        files = {"fit.json": fit, "verdict.txt": b"ok\n"}
        return {"exit": 0, "stdout": b"sweep: PASS\n", "files": files}

    monkeypatch.setattr(same, "run_cli", fake_run)


def test_argvs_are_the_byte_identical_runs_of_record(same):
    record = json.loads((ROOT / "BENCH_27.json").read_text())["byte_identical_runs"]
    assert list(same.ARGVS) == record["argv"]
    assert len(same.ARGVS) == 20
    # the first 19 are the runs of record of BENCH_26.json
    assert list(same.ARGVS[:19]) == json.loads((ROOT / "BENCH_26.json").read_text())["byte_identical_runs"]["argv"]
    # the first 18 are the runs of record of BENCH_24.json
    assert list(same.ARGVS[:18]) == json.loads((ROOT / "BENCH_24.json").read_text())["byte_identical_runs"]["argv"]
    # the first 17 are the runs of record of BENCH_23.json
    assert list(same.ARGVS[:17]) == json.loads((ROOT / "BENCH_23.json").read_text())["byte_identical_runs"]["argv"]
    # the first 15 are the runs of record since BENCH_16.json
    assert list(same.ARGVS[:15]) == json.loads((ROOT / "BENCH_16.json").read_text())["byte_identical_runs"]["argv"]


def test_same_outputs_pass_and_are_recorded(same, monkeypatch, tmp_path, capsys):
    parent, change = _checkouts(tmp_path)
    _stub(same, monkeypatch)
    out = tmp_path / "same.json"
    assert same.main(["--parent", str(parent), "--change", str(change), "--out", str(out)]) == 0
    # one run at a time, the parent first
    assert same.calls == [(side, line) for line in same.ARGVS for side in ("parent", "change")]
    doc = json.loads(out.read_text())
    assert doc["same"] is True and doc["argv"] == list(same.ARGVS)
    assert [r["difference"] for r in doc["runs"]] == [None] * 20
    assert doc["runs"][0]["files"] == ["fit.json", "verdict.txt"]
    assert capsys.readouterr().out.count("same: ") == 20


def test_one_differing_file_fails(same, monkeypatch, tmp_path, capsys):
    parent, change = _checkouts(tmp_path)
    _stub(same, monkeypatch, differing=same.ARGVS[3])
    out = tmp_path / "same.json"
    assert same.main(["--parent", str(parent), "--change", str(change), "--out", str(out)]) == 1
    assert f"DIFFERS in fit.json: {same.ARGVS[3]}" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["same"] is False
    assert [r["difference"] for r in doc["runs"]] == [None] * 3 + ["fit.json"] + [None] * 16


@pytest.mark.parametrize(
    "parent_run, change_run, named",
    [
        ({"exit": 0}, {"exit": 1}, "exit code 0 (parent) vs 1 (change)"),
        ({"stdout": b"a"}, {"stdout": b"b"}, "stdout"),
        ({"files": {"a": b"", "b": b""}}, {"files": {"a": b""}}, "b written by the parent only"),
        ({"files": {}}, {"files": {"a": b""}}, "a written by the change only"),
        ({}, {}, None),
    ],
)
def test_first_difference_names_what_differs(same, parent_run, change_run, named):
    base = {"exit": 0, "stdout": b"", "files": {}}
    assert same.first_difference(base | parent_run, base | change_run) == named


def test_a_missing_checkout_is_a_usage_error(same, monkeypatch, tmp_path, capsys):
    parent, _ = _checkouts(tmp_path)
    _stub(same, monkeypatch)
    out = tmp_path / "same.json"
    with pytest.raises(SystemExit) as exc:
        same.main(["--parent", str(parent), "--change", str(tmp_path / "nowhere"), "--out", str(out)])
    assert exc.value.code == 2
    assert "--change" in capsys.readouterr().err
    assert same.calls == []
    assert not out.exists()
