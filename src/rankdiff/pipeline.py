"""End-to-end orchestration: load inputs, compute statistics, write the
output tree. Used by the CLI; importable for tests and notebooks.

Outputs under the configured directory:

* ``rd.csv``            long-form rank differences
* ``stats.json``        per-municipality statistics document
* ``labels.csv``        classification for the analysis group
* ``quality.json``      data-quality report
* ``dashboards/<id>.svg`` one dashboard per municipality
* ``map_<group>.svg``   classification choropleth
* ``index.html``        entry page linking everything

Writes are confined to the output directory and re-runs overwrite the same
bytes for the same inputs. ``render_map`` and ``render_dashboard`` write a
single file of that tree from the same analysis, so their bytes match
``run``'s.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import classify as classify_mod
from . import ingest, metrics, render
from .classify import ClassifierConfig, ClassLabel
from .errors import ConfigError
from .metrics import GroupStats, RegimeConfig
from .model import CaseCube, Group, PopulationTable, QualityReport, Ring

BASIS_ALIASES = {"raw": "raw_daily", "raw_daily": "raw_daily", "ma7": "ma7",
                 "cumulative": "cumulative"}


@dataclass(frozen=True)
class RunConfig:
    cases: Path
    populations: Path
    boundaries: Path
    out: Path = Path("out")
    cases_schema: str = "canonical"
    basis: str = "raw_daily"
    regime: RegimeConfig = field(default_factory=RegimeConfig)
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)
    group: Group = Group.BAA

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        """Load a JSON config; relative paths resolve against the config file."""
        path = Path(path)
        try:
            with open(path, encoding="utf-8") as handle:
                doc = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot open config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        base = path.parent

        def resolve(key: str) -> Path:
            if key not in doc:
                raise ConfigError(f"{path}: missing required key {key!r}")
            return (base / str(doc[key])).resolve()

        def section(key: str) -> dict:
            value = doc.get(key, {})
            if not isinstance(value, dict):
                raise ConfigError(f"{path}: {key!r} must be a JSON object")
            return value

        regime_doc, classifier_doc = section("regime"), section("classifier")
        try:
            regime = _regime(
                float(regime_doc.get("min", 0.0)),
                None if regime_doc.get("max") is None else float(regime_doc["max"]),
                str(path),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: bad regime config: {exc}") from exc
        try:
            classifier = ClassifierConfig(**{k: float(v) for k, v in classifier_doc.items()})
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: bad classifier config: {exc}") from exc
        return cls(
            cases=resolve("cases"),
            populations=resolve("populations"),
            boundaries=resolve("boundaries"),
            out=(base / str(doc.get("out", "out"))).resolve(),
            cases_schema=str(doc.get("cases_schema", "canonical")),
            basis=parse_basis(str(doc.get("basis", "raw"))),
            regime=regime,
            classifier=classifier,
            group=parse_group(str(doc.get("group", "baa"))),
        )

    def with_overrides(
        self,
        basis: str | None = None,
        regime_min: float | None = None,
        regime_max: float | None = None,
        group: str | None = None,
        out: str | None = None,
    ) -> "RunConfig":
        """Apply CLI flag overrides; flags win over the config file."""
        cfg = self
        if basis is not None:
            cfg = replace(cfg, basis=parse_basis(basis))
        if regime_min is not None or regime_max is not None:
            cfg = replace(cfg, regime=_regime(
                cfg.regime.t_min if regime_min is None else regime_min,
                cfg.regime.t_max if regime_max is None else regime_max,
                "--regime-min/--regime-max",
            ))
        if group is not None:
            cfg = replace(cfg, group=parse_group(group))
        if out is not None:
            cfg = replace(cfg, out=Path(out).resolve())
        return cfg


def _regime(t_min: float, t_max: float | None, source: str) -> RegimeConfig:
    """Regime from config-file or flag bounds, which stats.json must print as JSON numbers."""
    for name, value in (("min", t_min), ("max", t_max)):
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{source}: regime {name} must be a finite number, got {value}; "
                              "use null for max to mean M, the number of municipalities")
    return RegimeConfig(t_min=t_min, t_max=t_max)


def parse_basis(text: str) -> str:
    key = text.strip().lower()
    if key not in BASIS_ALIASES:
        raise ConfigError(f"unknown basis {text!r}, expected raw, ma7 or cumulative")
    return BASIS_ALIASES[key]


def parse_group(text: str) -> Group:
    key = text.strip().upper()
    try:
        return Group(key)
    except ValueError:
        raise ConfigError(f"unknown group {text!r}, expected baa, hl, oth or w") from None


@dataclass
class LoadedInputs:
    cube: CaseCube
    pops: PopulationTable
    boundaries: dict[str, list[Ring]]
    report: QualityReport


def load_inputs(cfg: RunConfig) -> LoadedInputs:
    report = QualityReport()
    cube = ingest.load_cases(cfg.cases, schema=cfg.cases_schema, report=report)
    pops = ingest.load_populations(cfg.populations, cube.municipalities, report=report)
    boundaries = ingest.load_boundaries(cfg.boundaries, cube.municipalities, report=report)
    return LoadedInputs(cube=cube, pops=pops, boundaries=boundaries, report=report)


def validate(cfg: RunConfig) -> QualityReport:
    """Load and validate all inputs, returning the quality report."""
    return load_inputs(cfg).report


@dataclass(frozen=True)
class Analysis:
    rd: np.ndarray                          # (M, N, K) rank differences
    stats: dict[str, dict[Group, GroupStats]]
    labels: dict[str, ClassLabel]


def analyze(cfg: RunConfig, loaded: LoadedInputs) -> Analysis:
    """Rank, difference, summarize and classify under the configured basis and regime."""
    cube, pops = loaded.cube, loaded.pops
    pop_rank = metrics.rank_population(pops)
    case_rank = metrics.rank_cases(cube, basis=cfg.basis)
    rd = metrics.rank_diff(pop_rank, case_rank)
    stats = metrics.group_stats(cube, pops, rd, cfg.regime)
    labels = classify_mod.classify_municipalities(stats, cfg.group, cfg.classifier)
    return Analysis(rd=rd, stats=stats, labels=labels)


@dataclass
class RunResult:
    out: Path
    report: QualityReport
    labels: dict[str, ClassLabel]
    n_dashboards: int


@dataclass
class RenderResult:
    path: Path
    report: QualityReport


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _map_name(group: Group) -> str:
    return f"map_{group.value.lower()}.svg"


def _map_svg(cfg: RunConfig, loaded: LoadedInputs, analysis: Analysis) -> str:
    choropleth = render.build_choropleth(loaded.boundaries, analysis.labels, cfg.group)
    return render.render_choropleth(choropleth)


def _dashboard_path(out: Path, mid: str) -> Path:
    return out / "dashboards" / f"{mid}.svg"


def _dashboard_svg(loaded: LoadedInputs, analysis: Analysis, mid: str) -> str:
    model = render.build_dashboard(analysis.stats, loaded.cube, loaded.pops, mid, analysis.rd)
    return render.render_dashboard(model)


def run(cfg: RunConfig) -> RunResult:
    """Execute the full pipeline and write the output tree."""
    loaded = load_inputs(cfg)
    analysis = analyze(cfg, loaded)
    map_svg = _map_svg(cfg, loaded, analysis)  # drawn first: a map that fails leaves no tree
    cube, out = loaded.cube, cfg.out
    (out / "dashboards").mkdir(parents=True, exist_ok=True)

    metrics.write_rd_csv(out / "rd.csv", cube, analysis.rd)
    metrics.write_stats_json(out / "stats.json", cube, analysis.stats, cfg.regime, cfg.basis)
    classify_mod.write_labels_csv(out / "labels.csv", analysis.labels, cfg.group)
    _write_text(out / "quality.json", loaded.report.to_json())

    ids = sorted(cube.ids())
    for mid in ids:
        _write_text(_dashboard_path(out, mid), _dashboard_svg(loaded, analysis, mid))
    written = {_dashboard_path(out, mid).name for mid in ids}
    for path in (out / "dashboards").glob("*.svg"):
        if path.name not in written and path.is_file():
            path.unlink()  # left by an earlier run over a larger roster
    map_name = _map_name(cfg.group)
    _write_text(out / map_name, map_svg)
    _write_text(out / "index.html", render.render_index(
        cube, analysis.stats, analysis.labels, cfg.group, map_name))

    return RunResult(out=out, report=loaded.report, labels=analysis.labels, n_dashboards=len(ids))


def render_map(cfg: RunConfig) -> RenderResult:
    """Write only the classification choropleth of the output tree."""
    loaded = load_inputs(cfg)
    svg = _map_svg(cfg, loaded, analyze(cfg, loaded))
    target = cfg.out / _map_name(cfg.group)
    target.parent.mkdir(parents=True, exist_ok=True)
    _write_text(target, svg)
    return RenderResult(path=target, report=loaded.report)


def render_dashboard(cfg: RunConfig, mid: str) -> RenderResult:
    """Write only municipality ``mid``'s dashboard of the output tree."""
    loaded = load_inputs(cfg)
    svg = _dashboard_svg(loaded, analyze(cfg, loaded), mid)
    target = _dashboard_path(cfg.out, mid)
    target.parent.mkdir(parents=True, exist_ok=True)
    _write_text(target, svg)
    return RenderResult(path=target, report=loaded.report)
