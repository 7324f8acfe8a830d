"""Span recorder for the traced run, and the per-layer report built from it.

Run as a script, this wraps the public functions of each rankdiff layer at
the module attributes that ``pipeline`` and ``cli`` resolve them through,
calls ``cli.main(["run", ...])`` unchanged, and writes the spans and counts
as JSON when the run ends:

    python perfbench/tracer.py CONFIG OUT SPANS_JSON

The program runs serially, so one stack gives each span its parent.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# (layer, function, metric stem): the span is "<layer>.<function>" and its
# self time is reported as "<layer>.<stem>_s".
TRACED = (
    ("ingest", "load_cases", "load_cases"),
    ("ingest", "load_populations", "load_populations"),
    ("ingest", "load_boundaries", "load_boundaries"),
    ("metrics", "rank_population", "rank_population"),
    ("metrics", "rank_cases", "rank_cases"),
    ("metrics", "rank_diff", "rank_diff"),
    ("metrics", "group_stats", "group_stats"),
    ("metrics", "write_rd_csv", "write_rd_csv"),
    ("metrics", "write_stats_json", "write_stats_json"),
    ("classify", "classify_municipalities", "classify"),
    ("classify", "write_labels_csv", "write_labels"),
    ("render", "build_dashboard", "build_dashboard"),
    ("render", "render_dashboard", "render_dashboard"),
    ("render", "build_choropleth", "build_choropleth"),
    ("render", "render_choropleth", "render_choropleth"),
    ("render", "render_index", "render_index"),
    ("pipeline", "run", "run"),
)


def _count_cases(counts, args, kwargs, cube):
    counts["ingest.case_rows"] += cube.counts.size
    counts["ingest.case_bytes"] += Path(args[0]).stat().st_size
    report = kwargs.get("report")
    counts["ingest.clamps"] += len(report.clamps) if report is not None else 0


def _count_unclassified(counts, args, kwargs, labels):
    counts["classify.unclassified"] += sum(label.value == "unclassified" for label in labels.values())


# Counts taken from a call's arguments and result, after its span has ended.
COUNTERS = {
    "ingest.load_cases": _count_cases,
    "metrics.rank_population": lambda c, a, kw, r: c.update({"metrics.rank_slices": r.shape[1]}),
    "metrics.rank_cases": lambda c, a, kw, r: c.update({"metrics.rank_slices": r.shape[1] * r.shape[2]}),
    "classify.classify_municipalities": _count_unclassified,
    "render.render_dashboard": lambda c, a, kw, r: c.update({"render.dashboards": 1}),
}


class Recorder:
    """Keeps spans as [name, start, end, parent index] rows in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, module, attr: str, name: str) -> None:
        fn = getattr(module, attr)
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else None])
            self._stack.append(index)
            self.spans[index][1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        setattr(module, attr, traced)

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, handle)


def span_totals(spans: list[list]) -> tuple[dict[str, float], dict[str, float]]:
    """Total duration and total self time per span name.

    A span's self time is its duration minus the durations of its direct
    children; serial spans do not overlap, so children never double-count.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent is not None:
            child[parent] += end - start
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    for (name, start, end, _), inner in zip(spans, child):
        total[name] += end - start
        self_time[name] += end - start - inner
    return total, self_time


def layer_metrics(doc: dict, out: Path) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from a traced run's spans, counts and output tree."""
    spans, counts = doc["spans"], Counter(doc["counts"])
    total, self_time = span_totals(spans)
    values: dict[str, float] = {}
    for layer, attr, stem in TRACED:
        if layer != "pipeline":
            values[f"{layer}.{stem}_s"] = self_time[f"{layer}.{attr}"]
    values["ingest.case_rows"] = counts["ingest.case_rows"]
    values["ingest.case_bytes"] = counts["ingest.case_bytes"]
    values["ingest.rows_per_s"] = counts["ingest.case_rows"] / values["ingest.load_cases_s"]
    values["ingest.clamps"] = counts["ingest.clamps"]
    values["metrics.rank_slices"] = counts["metrics.rank_slices"]
    values["metrics.rd_csv_bytes"] = (out / "rd.csv").stat().st_size
    values["metrics.stats_json_bytes"] = (out / "stats.json").stat().st_size
    values["classify.unclassified"] = counts["classify.unclassified"]
    values["render.dashboards"] = counts["render.dashboards"]
    values["render.dashboard_bytes"] = sum(p.stat().st_size for p in (out / "dashboards").iterdir())
    files = [p for p in out.rglob("*") if p.is_file()]
    values["pipeline.run_s"] = total["pipeline.run"]
    values["pipeline.self_s"] = self_time["pipeline.run"]
    values["pipeline.files_written"] = len(files)
    values["pipeline.bytes_written"] = sum(p.stat().st_size for p in files)

    problems = []
    roots = [s for s in spans if s[3] is None]
    if len(roots) != 1 or roots[0][0] != "pipeline.run":
        problems.append("expected one root span, pipeline.run")
    covered = sum(self_time.values())
    if abs(covered - values["pipeline.run_s"]) > 1e-9 * max(1.0, values["pipeline.run_s"]):
        problems.append(f"self times sum to {covered}, pipeline.run took {values['pipeline.run_s']}")
    return values, problems


def main(argv: list[str]) -> int:
    config, out, spans_path = argv
    import rankdiff.render
    from rankdiff import classify, cli, ingest, metrics, pipeline

    modules = {"ingest": ingest, "metrics": metrics, "classify": classify,
               "render": rankdiff.render, "pipeline": pipeline}
    recorder = Recorder()
    for layer, attr, _ in TRACED:
        recorder.wrap(modules[layer], attr, f"{layer}.{attr}")
    try:
        return cli.main(["run", "--config", config, "--out", out])
    finally:
        recorder.dump(Path(spans_path))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
