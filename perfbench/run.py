"""shellrig benchmark: one run of one workload.

    python3 perfbench/run.py --workload battery --seed 0 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports shellrig from ./src.
The process stays single-threaded (BLAS and OpenMP pools of one thread)
and runs on one CPU.  It times the workload's ``shellrig.cli.main`` calls
for about ``--seconds`` seconds, checks every call's outputs against
reference.json, prints each metric by name and unit, and prints a JSON
result as its last line.

With ``--trace 0`` the metrics are the end-to-end ones:
  wall_s       median time inside the cli.main calls of one iteration
  wall_p75_s   75th percentile of the same samples (nearest rank)
  setup_s      median, over fresh interpreters, of the time from process
               start to the point of the first cli.main call (interpreter
               start plus ``import shellrig.cli``)
  peak_rss_mb  peak resident set size of this process
The three times are scaled to reference machine speed by a speed gauge read
between samples (see SpeedGauge); their unscaled medians are printed too.
With ``--trace 1`` traced and untraced iterations alternate, and the
metrics are the per-layer ones of the median traced iteration (see
tracer.py), plus trace.overhead, the ratio of the traced to the untraced
median wall.  The spans of that iteration are written
to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads as wl

SINGLE_THREAD = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
SETUP_PROBES = 7
MIN_ITERATIONS = 3
PROBE = "import shellrig.cli, time; print(repr(time.monotonic()))"
# Seconds SpeedGauge() reads at reference machine speed: its median on an
# idle "Intel(R) Xeon(R) Processor" 2-vCPU host with one vCPU in use.
GAUGE_REF_S = 0.008
# A sample is scaled by the median of the gauge readings taken within this
# many samples of it: enough to average out one reading's noise, few enough
# to follow a change of machine speed within a run.
GAUGE_WINDOW = 3


class SpeedGauge:
    """Times a fixed kernel to gauge how fast the machine runs right now.

    On a shared host the speed of one vCPU wanders, by up to 2x over
    seconds to minutes, as other tenants load the cores and caches; the
    time of a fixed piece of work then moves as much as the workload's.  The
    kernel does what shellrig's hot loops do: many small numpy calls from
    Python, batched 3x3 SVD, and ufuncs over arrays larger than L2.  It never
    calls shellrig, so a change to the program does not move it.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(12345)
        self.np = np
        self.mats = rng.standard_normal((1000, 3, 3))
        self.x = rng.standard_normal(100_000)

    def kernel(self) -> float:
        np = self.np
        acc = 0.0
        for m in self.mats[:300]:
            acc += float(np.trace(m @ m.T))
        acc += float(np.linalg.svd(self.mats, compute_uv=False).sum())
        y = np.sin(self.x) * np.exp(-self.x * self.x) + np.sqrt(np.abs(self.x))
        return acc + float(y.sum())

    def __call__(self, repeats: int = 3) -> float:
        """Fastest of ``repeats`` kernel runs, in seconds."""
        best = math.inf
        for _ in range(repeats):
            start = time.perf_counter()
            self.kernel()
            best = min(best, time.perf_counter() - start)
        return best


def at_reference_speed(samples: list[float], readings: list[float]) -> list[float]:
    """Scale timed samples to the speed at which the gauge reads GAUGE_REF_S.

    ``readings`` has one more entry than ``samples``: the gauge was read
    before the first sample and after each one.
    """
    k = GAUGE_WINDOW
    return [
        t * GAUGE_REF_S / statistics.median(readings[max(0, i - k) : i + k + 2])
        for i, t in enumerate(samples)
    ]


def measure_setup(root: Path, env: dict, gauge: SpeedGauge, probes: int = SETUP_PROBES):
    """Seconds from spawning a fresh interpreter to ``import shellrig.cli`` done.

    One extra probe runs first and is dropped: it may compile bytecode.
    Returns the times and the gauge's readings before and after each probe.
    """
    times, readings = [], []
    for i in range(probes + 1):
        if i:
            readings.append(gauge())
        start = time.monotonic()
        res = subprocess.run(
            [sys.executable, "-c", PROBE], cwd=root, env=env, capture_output=True, text=True, timeout=120
        )
        if res.returncode != 0:
            raise RuntimeError(f"setup probe failed: {res.stderr.strip()}")
        times.append(float(res.stdout.split()[-1]) - start)
    readings.append(gauge())
    return times[1:], readings


def nearest_rank(values, pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * pct / 100)) - 1]


class Runner:
    """Runs iterations of a workload and checks what each call wrote."""

    def __init__(self, cli, workload: wl.Workload, expected: list, scratch: Path):
        self.cli = cli
        self.workload = workload
        self.expected = expected
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0
        self.count = 0
        self.untraced_artifacts = None  # per call: {file name: bytes}

    def iteration(self, traced: bool = False) -> float:
        """One iteration; returns the seconds spent inside cli.main."""
        self.count += 1
        wall = 0.0
        artifacts = []
        for j, (argv, expected) in enumerate(zip(self.workload.calls, self.expected)):
            out = self.scratch / f"it{self.count}-{j}"
            ops = wl.rows_of(argv, expected)
            raised = False
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                try:
                    self.cli.main([*argv, "--out", str(out)])
                except Exception as err:  # a crash fails the call's operations
                    raised = True
                    print(f"{self.workload.name}: call {j} raised {err!r}", file=sys.stderr)
                finally:
                    wall += time.perf_counter() - start
            bad = ops if raised else wl.failed_ops(argv, out, expected)
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
            if traced and files != self.untraced_artifacts[j]:
                print(f"{self.workload.name}: traced artifacts of call {j} differ", file=sys.stderr)
                bad = ops
            artifacts.append(files)
            shutil.rmtree(out, ignore_errors=True)
            self.attempted += ops
            self.failed += bad
        if self.untraced_artifacts is None and not traced:
            self.untraced_artifacts = artifacts
        return wall

    def loop(self, seconds: float, gauge: SpeedGauge) -> tuple[list[float], list[float]]:
        """Iterate for about ``seconds``.

        Returns each iteration's wall and the gauge's readings before the
        first iteration and after each one.
        """
        walls, readings = [], [gauge()]
        deadline = time.perf_counter() + seconds
        while len(walls) < MIN_ITERATIONS or time.perf_counter() < deadline:
            walls.append(self.iteration())
            readings.append(gauge())
        return walls, readings


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path):
    """Commit of a git checkout, or None (the benchmark may run outside git)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(root: Path, workload: wl.Workload, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "commit": git_commit(root),
        "workload": workload.name,
        "seed": seed,
        "argv": [list(argv) for argv in workload.calls],
    }


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run(args, root: Path) -> dict:
    """Measure one workload; returns the result object."""
    env = {**os.environ, **SINGLE_THREAD, "PYTHONPATH": str(root / "src")}
    if not args.trace:
        gauge = SpeedGauge()
        raw_setup, setup_readings = measure_setup(root, env, gauge)

    from shellrig import cli

    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        raise RuntimeError(f"imported shellrig from {cli.__file__}, not from {root / 'src'}")
    workload = wl.make_workload(args.workload, args.seed)
    expected = wl.load_reference()[workload.ref_key]
    print(json.dumps({"provenance": provenance(root, workload, args.seed)}))

    (root / ".perfbench_tmp").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=root / ".perfbench_tmp") as scratch:
        runner = Runner(cli, workload, expected, Path(scratch))
        runner.iteration()  # warm-up: lazy imports and first-call set-up
        if not args.trace:
            raw, readings = runner.loop(args.seconds, gauge)
            walls = at_reference_speed(raw, readings)
            setup = at_reference_speed(raw_setup, setup_readings)
            metrics = {
                "wall_s": (statistics.median(walls), "s"),
                "wall_p75_s": (nearest_rank(walls, 75), "s"),
                "setup_s": (statistics.median(setup), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
            extras = {
                "wall_raw_s": (statistics.median(raw), "s"),
                "wall_raw_p75_s": (nearest_rank(raw, 75), "s"),
                "setup_raw_s": (statistics.median(raw_setup), "s"),
                "gauge_s": (statistics.median(readings), "s"),
                "wall_samples": (len(walls), "count"),
                "setup_samples": (len(setup), "count"),
            }
        else:
            metrics, extras = traced_metrics(runner, args, root)
    with contextlib.suppress(OSError):
        (root / ".perfbench_tmp").rmdir()

    extras.update(ops_attempted=(runner.attempted, "count"), ops_failed=(runner.failed, "count"))
    for name, (value, unit) in {**metrics, **extras}.items():
        print(f"{name}: {value!r} {unit}")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def traced_metrics(runner: Runner, args, root: Path):
    """Per-layer metrics of the median traced iteration, and trace.overhead."""
    import tracer as tr

    tracer = tr.Tracer()
    untraced, traced = [], []  # alternate, so drift in machine speed hits both alike
    deadline = time.perf_counter() + args.seconds
    while len(traced) < MIN_ITERATIONS or time.perf_counter() < deadline:
        untraced.append(runner.iteration())
        with tr.installed(tracer):
            traced.append((runner.iteration(traced=True), tracer.spans))
        tracer.clear()
    order = sorted(range(len(traced)), key=lambda i: traced[i][0])
    wall, spans = traced[order[(len(order) - 1) // 2]]
    layer = tr.layer_metrics(spans, wall)
    layer["trace.overhead"] = statistics.median(w for w, _ in traced) / statistics.median(untraced)

    out = root / ".perfbench_out"
    out.mkdir(exist_ok=True)
    with open(out / f"{args.workload}-seed{args.seed}-spans.jsonl", "w") as fh:
        for sid, parent, name, start, end, work in spans:
            fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "start": start, "end": end, "work": work}))
            fh.write("\n")
    metrics = {name: (value, tr.unit_of(name)) for name, value in layer.items()}
    extras = {"traced_samples": (len(traced), "count"), "untraced_samples": (len(untraced), "count")}
    return metrics, extras


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd().resolve()
    if not (root / "src" / "shellrig" / "cli.py").is_file():
        print(f"error: {root} holds no shellrig source tree (src/shellrig); run from a checkout", file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREAD)
    # One CPU for this process and its probes: on a shared 2-vCPU machine this
    # roughly halved the run-to-run spread of wall_s on battery.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(root / "src"))
    result = run(args, root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
