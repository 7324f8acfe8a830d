"""rankdiff benchmark: times the CLI commands users run on generated inputs.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The inputs are generated from ``--seed``.
Load is a closed loop with one client: one ``python -m rankdiff.cli`` child
at a time, started fresh and waited for, with the checkout's ``src`` on
``PYTHONPATH`` and ``RANKDIFF_THREADS`` unset, so the program runs serially.

``--trace 0`` repeats ``run``, ``validate`` and ``render-dashboard`` for
``--seconds`` and reports medians of the end-to-end metrics; a command's time
is the user-mode CPU time of its process, from its own rusage, scaled by the
runs of ``calibrate.py`` on either side of it. ``--trace 1``
times untraced ``run`` processes for ``--seconds`` (wall time), the bare
start-up of the CLI, and one traced ``run`` in its own process, and reports
the per-layer metrics. Both modes check every output: exit codes, output
digests against the first run, and ``rd.csv``/``stats.json`` against
``rankdiff.oracle``.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PERFBENCH = Path(__file__).resolve().parent

if __name__ == "__main__" and not (SRC / "rankdiff" / "cli.py").is_file():
    sys.exit(f"perfbench: no rankdiff sources under {SRC}")
sys.path.insert(0, str(SRC))

import check  # noqa: E402  (needs rankdiff on sys.path)
import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_ITERATIONS = 2        # timed iterations per run, even past --seconds
SETUP_REPEATS = 3         # input generations per run; setup_s is their median
STARTUP_SAMPLES = 5
CHILD_LIMIT_S = 120       # a child running longer than this is killed and counted failed
# Typical user-mode CPU time of calibrate.py on the 2-vCPU 2.1 GHz Xeon VM the
# benchmark was defined on. End-to-end times are reported on that machine's scale.
CALIBRATION_S = 1.2

UNITS = {
    "case_rows": "rows", "case_bytes": "B", "rows_per_s": "rows/s", "clamps": "count",
    "rank_slices": "count", "rd_csv_bytes": "B", "stats_json_bytes": "B",
    "unclassified": "count", "dashboards": "count", "dashboard_bytes": "B",
    "files_written": "count", "bytes_written": "B",
}


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout


@dataclass
class Child:
    wall_s: float
    user_s: float             # user-mode CPU time of the child, from its rusage
    sys_s: float              # kernel-mode CPU time of the child
    code: int
    rss_mb: float
    scaled_s: float = float("nan")   # user_s on the calibration scale


def timed_child(argv: list[str], env: dict, stdout: Path) -> Child:
    """Run one child to completion and return its times, exit code and peak RSS."""
    with open(stdout, "wb") as out, open(stdout.with_suffix(".err"), "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err, env=env,
                                cwd=ROOT)
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(CHILD_LIMIT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.alarm(0)
        elapsed = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(elapsed, usage.ru_utime, usage.ru_stime, proc.returncode,
                 usage.ru_maxrss / 1024.0)


def _same(a: Path, b: Path) -> bool:
    return a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()


def environment() -> dict:
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "RANKDIFF_THREADS": "unset",
        "PYTHONPATH": "src",
    }


class Bench:
    """One benchmark invocation: a workload's children, their timings and checks.

    Every command writes into a directory of its own that nothing has used
    before, and nothing is deleted until the last child has exited. On ext4
    mounted with ``discard``, writes that follow a deletion of many files
    cost several times the system time of writes that do not, for a run of
    ``wide`` up to 2.4 s instead of 0.3 s.

    With ``calibrate`` set, every command is followed by a run of
    ``calibrate.py``, and the command's user time is divided by the mean of
    the calibration runs on either side of it. The speed of a shared VM's
    vCPU can change by a third from one minute to the next, and the two
    neighbouring calibrations see roughly the machine that the command saw.
    """

    def __init__(self, work: Path, calibrate: bool) -> None:
        self.work = work
        self.env = {k: v for k, v in os.environ.items() if k != "RANKDIFF_THREADS"}
        self.env["PYTHONPATH"] = str(SRC)
        self.fixture = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.run_digest: str | None = None
        self.run_tree: Path | None = None      # the output tree of the latest run
        self.children: dict[str, list[Child]] = {}   # every command that exited, by name
        self.calibrations: list[float] = []
        if calibrate:
            self._calibrate()

    def _calibrate(self) -> None:
        child = timed_child([str(PERFBENCH / "calibrate.py")], self.env,
                            self.work / "calibrate.out")
        if child.code != 0:
            raise RuntimeError(f"calibrate.py exited with {child.code}")
        self.calibrations.append(child.user_s)

    def scale(self, user_s: float) -> float:
        """Run the next calibration; return a command's user time on the calibration scale."""
        if not self.calibrations:
            return user_s
        self._calibrate()
        return user_s * CALIBRATION_S / statistics.mean(self.calibrations[-2:])

    def _fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(problem)

    def _cli(self, command: str, *extra: str) -> tuple[Child | None, Path]:
        """Run one command into a fresh output directory; return the child and the directory."""
        self.attempted += 1
        out = self.work / f"{command}-{self.attempted}"
        # Flush the previous steps' writes now, so that their writeback does
        # not land inside this step's timed window.
        os.sync()
        stdout = out.with_suffix(".out")
        args = ["-m", "rankdiff.cli", command, "--config", str(self.fixture.config),
                "--out", str(out), *extra]
        try:
            child = timed_child(args, self.env, stdout)
        except ChildTimeout:
            self._fail(f"{command}: no exit within {CHILD_LIMIT_S}s")
            return None, out
        if child.code != self.fixture.workload.expected_exit:
            self._fail(f"{command}: exit {child.code}, expected {self.fixture.workload.expected_exit}")
        child.scaled_s = self.scale(child.user_s)
        self.children.setdefault(command, []).append(child)
        return child, out

    def run(self) -> Child | None:
        child, out = self._cli("run")
        self.run_tree = out
        digest = check.tree_digest(out)
        if self.run_digest is None:
            self.run_digest = digest
        elif digest != self.run_digest:
            self._fail("run: output tree differs from the first run")
        return child

    def validate(self) -> Child | None:
        child, out = self._cli("validate")
        if not _same(out.with_suffix(".out"), self.run_tree / "quality.json"):
            self._fail("validate: report differs from the run's quality.json")
        return child

    def dashboard(self) -> Child | None:
        child, out = self._cli("render-dashboard", "--id", workloads.DASHBOARD_ID)
        name = Path("dashboards") / f"{workloads.DASHBOARD_ID}.svg"
        if not _same(out / name, self.run_tree / name):
            self._fail("render-dashboard: SVG differs from the run's dashboard")
        return child

    def check_run(self) -> None:
        """Compare the last run's tree, identical to every run's, with the oracle.

        This runs after the last child has exited: the oracle's lists raise
        this process's RSS, and a child's ``ru_maxrss`` counts its parent's
        RSS at the moment the child was spawned.
        """
        self.harness_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for problem in check.check_tree(self.run_tree, self.fixture):
            self._fail(f"run: {problem}")

    def startup(self) -> float:
        self.attempted += 1
        child = timed_child(["-c", "import rankdiff.cli"], self.env, self.work / "startup.out")
        if child.code != 0:
            self._fail(f"startup: exit {child.code}")
        return child.wall_s

    def traced_run(self) -> dict[str, float]:
        out = self.work / "traced"
        spans = self.work / "spans.json"
        self.attempted += 1
        os.sync()
        code = timed_child([str(PERFBENCH / "tracer.py"), str(self.fixture.config),
                            str(out), str(spans)], self.env, self.work / "traced.out").code
        if code != self.fixture.workload.expected_exit:
            self._fail(f"traced run: exit {code}")
        if check.tree_digest(out) != self.run_digest:
            self._fail("traced run: output tree differs from the untraced run")
        values, problems = tracer.layer_metrics(json.loads(spans.read_text()), out)
        if values["render.dashboards"] != self.fixture.workload.m:
            problems.append(f"{values['render.dashboards']} dashboards rendered")
        for problem in problems:
            self._fail(f"traced run: {problem}")
        return values


def _median(children: list[Child | None], field: str) -> float:
    """Median of one field over the children that exited; NaN if none did."""
    values = [getattr(child, field) for child in children if child is not None]
    return statistics.median(values) if values else float("nan")


def measure(bench: Bench, seconds: float, trace: bool) -> dict[str, tuple[float, str]]:
    """Repeat the timed commands for about ``seconds``.

    Another iteration starts only if it is expected to end less than half an
    iteration after ``seconds``, so a run overruns by at most about that much
    and on average measures for ``seconds``.
    """
    runs, validates, dashboards = [], [], []
    started = time.perf_counter()
    while True:
        runs.append(bench.run())
        if not trace:
            validates.append(bench.validate())
            dashboards.append(bench.dashboard())
        done = len(runs)
        elapsed = time.perf_counter() - started
        if done >= MIN_ITERATIONS and elapsed + elapsed / done / 2 > seconds:
            break

    if not trace:
        run_user_s = _median(runs, "scaled_s")
        return {
            "run_user_s": (run_user_s, "s"),
            "cells_per_user_s": (bench.fixture.case_rows / run_user_s, "cells/s"),
            "validate_user_s": (_median(validates, "scaled_s"), "s"),
            "dashboard_user_s": (_median(dashboards, "scaled_s"), "s"),
            "peak_rss_mb": (_median(runs, "rss_mb"), "MB"),
        }

    startup_s = statistics.median(bench.startup() for _ in range(STARTUP_SAMPLES))
    layers = bench.traced_run()
    layers["cli.startup_s"] = startup_s
    layers["trace.overhead_s"] = layers["pipeline.run_s"] + startup_s - _median(runs, "wall_s")
    return {name: (value, UNITS.get(name.rsplit(".", 1)[1], "s")) for name, value in layers.items()}


def execute(workload, seed: int, seconds: float, trace: bool, work: Path) -> tuple[Bench, dict]:
    """Generate the inputs under ``work``, time the commands and return the metrics."""
    bench = Bench(work, calibrate=not trace)
    setup = []
    for i in range(1 if trace else SETUP_REPEATS):
        started = resource.getrusage(resource.RUSAGE_SELF).ru_utime
        bench.fixture = workloads.build(workload, seed, work / f"inputs-{i}")
        setup.append(resource.getrusage(resource.RUSAGE_SELF).ru_utime - started)
    metrics = measure(bench, seconds, trace)
    bench.check_run()
    if not trace:
        # Set-up ran just after the first calibration, in this process.
        setup_s = statistics.median(setup) * CALIBRATION_S / bench.calibrations[0]
        metrics["setup_s"] = (setup_s, "s")
        metrics["ok_pct"] = (100.0 * (bench.attempted - bench.failed) / bench.attempted, "%")
    return bench, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through timed_child, which kills and reaps the running
    # child, and through the removal of the work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = workloads.WORKLOADS[args.workload]

    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{args.seed}-",
                                 dir=ROOT / ".perfbench_work"))
    try:
        bench, metrics = execute(workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in bench.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    fixture = bench.fixture
    print(json.dumps({
        "workload": workload.name, "seed": args.seed, "m": workload.m,
        "n_days": workload.n_days, "case_rows": fixture.case_rows,
        "input_bytes": fixture.input_bytes, "environment": environment(),
        "wall_median_s": {k: _median(v, "wall_s") for k, v in bench.children.items()},
        "user_median_s": {k: _median(v, "user_s") for k, v in bench.children.items()},
        "sys_median_s": {k: _median(v, "sys_s") for k, v in bench.children.items()},
        "calibration_user_median_s": (statistics.median(bench.calibrations)
                                      if bench.calibrations else None),
        "harness_peak_rss_mb": bench.harness_rss_mb,
    }))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
