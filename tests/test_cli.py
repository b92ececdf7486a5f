import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from shellrig import cli
from shellrig import experiments as ex

FAST_SWEEP = [
    "--num-h", "4", "--h-min", "1e-2", "--nt", "4", "--ntheta", "32", "--nz", "24",
]


def run(argv):
    return cli.main(argv)


def test_show_config_prints_defaults(capsys):
    assert run(["show-config"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["sweep"]["p"] == 2.0
    assert data["sweep"]["field"] == "ansatz"


def test_sweep_keys_are_the_sweep_config_fields(tmp_path, capsys):
    assert run(["show-config"]) == 0
    shown = json.loads(capsys.readouterr().out)
    defaults = {f.name: f.default for f in dataclasses.fields(ex.SweepConfig) if f.name != "surface_params"}
    assert shown == {"sweep": defaults, "korn-sweep": defaults}
    assert not {"gamma", "r2_floor"} & set(defaults)
    # every key has a sweep flag and is accepted from a config file
    assert set(defaults) <= set(vars(cli.build_parser().parse_args(["sweep"])))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(defaults))
    out = tmp_path / "run"
    assert run(["sweep", "--config", str(cfg), *FAST_SWEEP, "--out", str(out)]) == 0
    echo = json.loads((out / "config.json").read_text())
    assert set(echo) == set(defaults) | {"surface_params", "subcommand"}


@pytest.mark.parametrize("subcommand", ["sweep", "korn-sweep"])
@pytest.mark.parametrize(
    "argv, named",
    [
        (["--field", "vortex"], "'vortex'"),
        (["--field", "random:x"], "'random:x'"),
        (["--field", "random", "--seeds", "0"], "seeds"),
    ],
)
def test_bad_field_spec_is_a_usage_error(tmp_path, capsys, subcommand, argv, named):
    out = tmp_path / "run"
    assert run([subcommand, *FAST_SWEEP, *argv, "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "subcommand, file_vals, argv, named",
    [
        ("sweep", {"rotation_mode": "bogus"}, [], "rotation_mode"),
        ("sweep", {"offset_mode": "bogus"}, [], "offset_mode"),
        ("sweep", {"adaptive_theta": "no"}, [], "adaptive_theta"),
        ("sweep", {"profile": "bogus"}, [], "profile"),
        ("sweep", {"seeds": "3"}, ["--field", "random"], "seeds"),
        ("sweep", None, ["--field", "random:1", "--modes", "0"], "modes"),
        ("sweep", None, ["--field", "random:1", "--amplitude", "-1"], "amplitude"),
        ("sweep", None, ["--field", "user:missing.csv"], "'user:missing.csv'"),
        ("korn-sweep", None, ["--field", "identity"], "'identity'"),
    ],
)
def test_config_value_errors_exit_2_before_any_file(
    tmp_path, monkeypatch, capsys, subcommand, file_vals, argv, named
):
    # config-file values get the checks a flag gets; none of these leaves --out behind
    monkeypatch.chdir(tmp_path)
    if file_vals is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(file_vals))
        argv = ["--config", "cfg.json", *argv]
    out = tmp_path / "run"
    assert run([subcommand, "--num-h", "4", "--h-min", "1e-2", "--nt", "2", "--ntheta", "8", "--nz", "8",
                *argv, "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_sweep_writes_exactly_four_files(tmp_path):
    out = tmp_path / "run"
    assert run(["sweep", *FAST_SWEEP, "--out", str(out)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["config.json", "fit.json", "sweep.csv", "verdict.txt"]
    fit = json.loads((out / "fit.json").read_text())
    assert abs(fit["alpha_hat"]) <= 0.2
    assert fit["config_echo"]["field"] == "ansatz"
    assert "PASS" in (out / "verdict.txt").read_text()


def test_sweep_refuses_nonempty_dir_without_force(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    (out / "stale.txt").write_text("old")
    assert run(["sweep", *FAST_SWEEP, "--out", str(out)]) == 2


def test_force_rerun_is_bit_identical(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run(["sweep", *FAST_SWEEP, "--out", str(out1)]) == 0
    assert run(["sweep", *FAST_SWEEP, "--out", str(out2), "--force"]) == 0
    for name in ("config.json", "fit.json", "sweep.csv", "verdict.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_p_one_rejected_with_exit_2(tmp_path, capsys):
    status = run(["sweep", "--p", "1", "--out", str(tmp_path / "x")])
    assert status == 2
    assert "1 < p < infinity" in capsys.readouterr().err


def test_unknown_flag_rejected():
    assert run(["sweep", "--does-not-exist"]) == 2


def test_config_file_merging_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"num_h": 4, "h_min": 1e-2, "nt": 4, "ntheta": 32, "nz": 24, "field": "random:1"}))
    out = tmp_path / "run"
    assert run(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    echo = json.loads((out / "config.json").read_text())
    assert echo["field"] == "random:1"
    out2 = tmp_path / "run2"
    assert run(["sweep", "--config", str(cfg), "--field", "rigid:0", "--out", str(out2)]) == 0
    echo2 = json.loads((out2 / "config.json").read_text())
    assert echo2["field"] == "rigid:0"  # explicit flag wins


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus_key": 1}))
    assert run(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "bogus_key" in capsys.readouterr().err


def test_korn_sweep_runs(tmp_path):
    out = tmp_path / "korn"
    assert run(["korn-sweep", *FAST_SWEEP, "--out", str(out)]) == 0
    assert "korn-sharpness" in (out / "verdict.txt").read_text()


def test_trace_writes_artifacts(tmp_path):
    out = tmp_path / "trace"
    assert (
        run(
            [
                "trace", "--h", "3e-2", "--field", "random:1", "--amplitude", "1e-3",
                "--out", str(out),
            ]
        )
        == 0
    )
    names = sorted(p.name for p in out.iterdir())
    assert names == ["config.json", "trace.csv", "trace.json", "verdict.txt"]
    summary = json.loads((out / "trace.json").read_text())
    assert summary["count"] >= 4
    assert np.isfinite(summary["c_balance"])


def test_trace_bump_profile_includes_passage(tmp_path):
    out = tmp_path / "traceb"
    assert (
        run(
            [
                "trace", "--h", "3e-2", "--profile", "bump", "--field", "random:2",
                "--amplitude", "1e-3", "--out", str(out),
            ]
        )
        == 0
    )
    summary = json.loads((out / "trace.json").read_text())
    assert "shell_to_domain" in summary
    assert 0 < summary["shell_to_domain"]["ratio"] < 2


def test_check_gradient_quick(capsys):
    assert run(["check-gradient", "--points", "20"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_dist_so3_selftest_quick(capsys):
    assert run(["dist-so3", "--selftest", "--matrices", "20", "--rotations", "60000"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3


def test_doubling_quick(tmp_path):
    out = tmp_path / "dbl"
    assert (
        run(
            [
                "doubling", "--surface", "plate", "--centers", "2", "--num-r", "2",
                "--budget", "40000", "--out", str(out),
            ]
        )
        == 0
    )
    summary = json.loads((out / "doubling.json").read_text())
    assert summary["sigma_hat"] < 0.35


def test_default_outdir_env(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.ENV_OUTDIR, str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    assert run(["sweep", *FAST_SWEEP]) == 0
    assert (tmp_path / "envout" / "sweep" / "verdict.txt").exists()


@pytest.mark.parametrize(
    "argv, summary, failure",
    [
        (["trace", "--profile", "bump", "--h", "1e-2", "--field", "random:1", "--amplitude", "1e300",
          "--nt", "2", "--ntheta", "16", "--nz", "16"], "trace.json", "values must be finite"),
        (["check-gradient", "--step", "1e-320", "--points", "5"], "gradient_check.json", "Singular matrix"),
        (["doubling", "--surface", "plate", "--centers", "1", "--num-r", "2", "--r-min", "1e-300",
          "--budget", "1000"], "doubling.json", "empty intersection"),
    ],
    ids=["trace", "check-gradient", "doubling"],
)
def test_numerical_failure_in_a_run_is_a_failed_verdict(tmp_path, argv, summary, failure):
    # a failure inside the run writes the four files and exits 1, as a failed sweep does
    out = tmp_path / "run"
    with np.errstate(all="ignore"):
        assert run([*argv, "--out", str(out)]) == 1
    assert len(list(out.iterdir())) == 4
    assert failure in json.loads((out / summary).read_text())["failure"]
    assert "FAIL" in (out / "verdict.txt").read_text()


@pytest.mark.parametrize("profile", ["shell", "bump"])
def test_overflowing_trace_fails_cleanly(tmp_path, profile):
    # no np.errstate here: the run itself must keep numpy quiet
    out = tmp_path / "run"
    argv = ["trace", "--profile", profile, "--h", "1e-2", "--field", "random:1", "--amplitude", "1e300",
            "--nt", "2", "--ntheta", "16", "--nz", "16", "--out", str(out)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(argv) == 1
    assert [str(w.message) for w in caught] == []
    assert len(list(out.iterdir())) == 4

    def reject(name):
        raise ValueError(f"trace.json holds {name}")

    summary = json.loads((out / "trace.json").read_text(), parse_constant=reject)
    assert "values must be finite" in summary["failure"]


@pytest.mark.parametrize("field", [["--field", "random", "--seeds", "3"], ["--field", "random:1"]],
                         ids=["battery", "single"])
@pytest.mark.parametrize("command", ["sweep", "korn-sweep"])
def test_overflowing_sweep_fails_cleanly(tmp_path, command, field):
    # no np.errstate here: the run itself must keep numpy quiet
    out = tmp_path / "run"
    argv = [command, *field, "--amplitude", "1e300", "--num-h", "4", "--nt", "3", "--ntheta", "8", "--nz", "8",
            "--out", str(out)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(argv) == 1
    assert [str(w.message) for w in caught] == []
    assert len(list(out.iterdir())) == 4
    failure = "sweep failed at h=0.001: values must be finite on all grid nodes"
    assert (out / "verdict.txt").read_text() == f"sweep: FAIL ({failure})\n"
    assert json.loads((out / "fit.json").read_text())["config_echo"]["failure"] == failure


@pytest.mark.parametrize(
    "argv, named",
    [
        (["check-gradient", "--points", "0"], "--points"),
        (["check-gradient", "--step", "1e-2"], "--step"),
        (["doubling", "--centers", "0"], "--centers"),
        (["doubling", "--budget", "-1"], "--budget"),
        (["trace", "--amplitude", "-1"], "amplitude"),
        (["dist-so3", "--selftest", "--matrices", "0"], "--matrices"),
        (["dist-so3", "--selftest", "--rotations", "0"], "--rotations"),
    ],
)
def test_bad_flags_exit_2_before_any_file(tmp_path, capsys, argv, named):
    out = tmp_path / "run"
    assert run([*argv, "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, file_vals, named",
    [
        (["trace", "--radius", "inf"], None, "argument --radius"),
        (["sweep", "--radius", "nan"], None, "argument --radius"),
        (["doubling", "--r-max", "nan"], None, "argument --r-max"),
        (["sweep", "--slope-tol", "nan"], None, "argument --slope-tol"),
        (["korn-sweep", "--p", "inf"], None, "argument --p"),
        (["sweep"], {"slope_tol": math.nan}, "slope_tol"),
        (["sweep"], {"amplitude": math.inf}, "amplitude"),
        (["trace", "--surface", "pseudosphere", "--waist", "0"], None, "waist"),
        (["doubling", "--radius", "1e-300"], None, "patch too small"),
    ],
)
def test_non_finite_numbers_are_usage_errors(tmp_path, monkeypatch, capsys, argv, file_vals, named):
    # refused before the run: exit 2, the flag or key named, nothing written, no warning
    monkeypatch.chdir(tmp_path)
    if file_vals is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(file_vals))
        argv = [*argv, "--config", "cfg.json"]
    out = tmp_path / "run"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run([*argv, "--out", str(out)]) == 2
    assert [str(w.message) for w in caught] == []
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "subcommand, surface, flag",
    [
        ("sweep", "plate", "--radius"),
        ("korn-sweep", "plate", "--radius"),
        ("trace", "plate", "--radius"),
        ("doubling", "plate", "--radius"),
        ("sweep", "sphere", "--waist"),
    ],
)
def test_surface_parameter_of_another_surface_is_a_usage_error(tmp_path, capsys, subcommand, surface, flag):
    out = tmp_path / "run"
    assert run([subcommand, "--surface", surface, flag, "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"surface {surface!r} takes no parameter {flag[2:]!r}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_fit_failure_is_a_failed_run(tmp_path):
    # the ansatz falls between the nodes at the two smallest h, so their ratios are NaN and no slope fits
    out = tmp_path / "run"
    argv = ["korn-sweep", "--field", "ansatz", "--num-h", "4", "--nt", "3", "--ntheta", "8", "--nz", "8",
            "--no-adaptive-theta", "--out", str(out)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(argv) == 1
    assert [str(w.message) for w in caught] == []
    assert len(list(out.iterdir())) == 4
    failure = "sweep fit failed: cannot fit a log-log slope through the pair (h=0.001, value=nan)"
    assert (out / "verdict.txt").read_text() == f"sweep: FAIL ({failure})\n"
    assert json.loads((out / "fit.json").read_text())["config_echo"]["failure"] == failure
    assert len((out / "sweep.csv").read_text().splitlines()) == 1 + 4  # the header and every row


@pytest.mark.parametrize(
    "argv, echo",
    [
        (["trace", "--surface", "cylinder", "--radius", "2", "--gamma", "0.2", "--h", "1e-2", "--field", "random:3",
          "--nt", "2", "--ntheta", "8", "--nz", "8"],
         {"amplitude": 0.001, "field": "random:3", "gamma": 0.2, "grid": [2, 20, 12], "h": 0.01, "modes": 4,
          "p": 2.0, "profile": "shell", "subcommand": "trace", "surface": "cylinder",
          "surface_params": {"radius": 2.0}}),
        (["trace", "--profile", "bump", "--radius", "1.5", "--h", "3e-2", "--field", "random:2",
          "--nt", "2", "--ntheta", "16", "--nz", "16"],
         {"amplitude": 0.001, "field": "random:2", "gamma": 0.5, "grid": [2, 32, 36], "h": 0.03, "modes": 4,
          "p": 2.0, "profile": "bump", "subcommand": "trace", "surface": "sphere",
          "surface_params": {"radius": 1.5}}),
        (["check-gradient", "--points", "5", "--seed", "3", "--step", "2e-4"],
         {"h": 0.05, "modes": 4, "points": 5, "seed": 3, "step": 0.0002, "subcommand": "check-gradient",
          "tol": 1e-05}),
        (["dist-so3", "--selftest", "--matrices", "10", "--rotations", "1000", "--seed", "2"],
         {"matrices": 10, "rotations": 1000, "seed": 2, "subcommand": "dist-so3"}),
        (["doubling", "--surface", "pseudosphere", "--waist", "1.2", "--centers", "1", "--num-r", "2",
          "--budget", "20000", "--r-max", "0.05"],
         {"budget": 20000, "centers": 1, "num_r": 2, "r_max": 0.05, "r_min": 0.01, "seed": 0, "sigma_tol": 0.35,
          "subcommand": "doubling", "surface": "pseudosphere", "surface_params": {"waist": 1.2}}),
    ],
    ids=["trace-shell", "trace-bump", "check-gradient", "dist-so3", "doubling"],
)
def test_one_shot_config_echo_is_pinned(tmp_path, argv, echo):
    # the exact config.json of each one-shot subcommand; trace echoes its effective grid
    out = tmp_path / "run"
    run([*argv, "--out", str(out)])
    assert (out / "config.json").read_text() == json.dumps(echo, indent=2, sort_keys=True) + "\n"


def _session(base):
    """Exit codes and artifact bytes of four calls in one process: a usage error, a bump trace,
    a battery sweep and the same trace again.

    The usage error parses and then fails (p = 1) with flags the trace leaves at their
    defaults, so a parser that kept what it parsed would change the trace.
    """
    trace = ["trace", "--profile", "bump", "--h", "3e-2", "--field", "random:2", "--nt", "2",
             "--ntheta", "16", "--nz", "16"]
    calls = [
        ["trace", "--profile", "shell", "--gamma", "0.4", "--amplitude", "1e-2", "--modes", "3", "--p", "1"],
        trace,
        ["sweep", "--field", "random", "--seeds", "3", "--p", "3", "--num-h", "4", "--nt", "4", "--ntheta", "8", "--nz", "8"],
        trace,
    ]
    record = []
    for k, argv in enumerate(calls):
        out = base / str(k)
        code = run([*argv, "--out", str(out)])
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else None
        record.append((code, files))
    return record


def test_cached_parser_carries_no_state(tmp_path, monkeypatch, capsys):
    assert cli.build_parser() is cli.build_parser()
    cached = _session(tmp_path / "cached")
    assert cli.build_parser.cache_info().misses <= 1  # every call above parsed with the one parser
    assert [code for code, _ in cached] == [2, 0, 0, 0]
    assert cached[0][1] is None  # the usage error wrote nothing
    assert cached[1] == cached[3]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = _session(tmp_path / "fresh")
    assert cached == fresh
    assert capsys.readouterr().err.count("error: p must satisfy 1 < p < infinity") == 2
