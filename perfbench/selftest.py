"""Fast end-to-end self-test of the benchmark harness at a tiny scale.

    python3 perfbench/selftest.py

Runs every workload shrunk to M=12, N=10 through the generator, the three
timed commands, the output checks and the traced run, and checks that each
mode reports exactly the metrics that BENCHMARK.json names. It then damages
a copy of an output tree and checks that the oracle comparison notices.
Exits 0 when all of this holds.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run  # puts the checkout's src on sys.path
import check
import workloads

SEED = 7


def _metric_names(section: str) -> set[str]:
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"] for metric in doc[section]}


def _damaged(tree: Path, scratch: Path, name: str, old: str, new: str) -> Path:
    copy = scratch / f"damaged-{name}"
    shutil.copytree(tree, copy)
    path = copy / name
    text = path.read_text(encoding="utf-8")
    assert old in text, (name, old)
    path.write_text(text.replace(old, new, 1), encoding="utf-8")
    return copy


def main() -> int:
    failures = []
    (run.ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.ROOT / ".perfbench_work"))
    try:
        for base in workloads.WORKLOADS.values():
            tiny = dataclasses.replace(base, m=12, n_days=10)
            for trace, section in ((False, "end_to_end"), (True, "per_layer")):
                case = work / f"{tiny.name}-{int(trace)}"
                case.mkdir()
                bench, metrics = run.execute(tiny, SEED, 0.0, trace, case)
                label = f"{tiny.name} trace={int(trace)}"
                if bench.failed:
                    failures.append(f"{label}: {bench.problems}")
                if set(metrics) != _metric_names(section):
                    failures.append(f"{label}: metrics {sorted(set(metrics) ^ _metric_names(section))}")
                if trace and metrics["ingest.clamps"][0] != bench.fixture.dips:
                    failures.append(f"{label}: {metrics['ingest.clamps'][0]} clamps traced")
                if not trace:
                    tree = bench.run_tree
                    for name, old, new in (("rd.csv", ",0\n", ",1\n"),
                                           ("stats.json", '"persistence_pct": ', '"persistence_pct": 1')):
                        if not check.check_tree(_damaged(tree, case, name, old, new), bench.fixture):
                            failures.append(f"{label}: damaged {name} passed the oracle check")
                print(f"{label}: {len(metrics)} metrics, {bench.attempted} attempted, "
                      f"{bench.failed} failed", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in failures:
        print(f"selftest: {failure}", file=sys.stderr)
    print("selftest: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
