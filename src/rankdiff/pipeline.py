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
bytes for the same inputs. Each file is written by ``errors.write_text``, the
one writer, called here or by the writers of ``rd.csv``, ``stats.json`` and
``labels.csv``. ``render_map`` and ``render_dashboard`` write a single file of
that tree from the same analysis, so their bytes match ``run``'s.
"""

from __future__ import annotations

import errno
import math
import os
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import classify as classify_mod
from . import ingest, metrics
from .classify import ClassifierConfig, ClassLabel
from .errors import (ConfigError, IngestError, RenderError, decimal, load_json, number, one_of,
                     read_fields, text, write_text, writing)
from .metrics import GroupStatsTable, RegimeConfig
from .model import Boundaries, CaseCube, Group, PopulationTable, QualityReport

BASIS_ALIASES = {"raw": "raw_daily", "raw_daily": "raw_daily", "ma7": "ma7",
                 "cumulative": "cumulative"}
parse_basis = one_of(BASIS_ALIASES, lambda key: key.strip().lower())
parse_group = one_of({g.value: g for g in Group}, lambda key: key.strip().upper())


@dataclass(frozen=True)
class RunConfig:
    cases: Path
    populations: Path
    boundaries: Path
    out: Path = Path("out")
    cases_schema: str = "canonical"
    basis: str = "raw_daily"
    regime: RegimeConfig = RegimeConfig()
    classifier: ClassifierConfig = ClassifierConfig()
    group: Group = Group.BAA

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        """Load a JSON config; relative paths resolve against the config file."""

        def resolve(value: object) -> Path:
            return _resolved(Path(path).parent / text(value))

        doc = load_json(path, ConfigError, "config ")
        if isinstance(doc, dict):
            doc = {"out": "out", **doc}  # an absent out is the directory out beside the config
        config = read_fields(doc, {
            "cases": resolve, "populations": resolve, "boundaries": resolve, "out": resolve,
            "cases_schema": one_of({schema: schema for schema in ingest.CASE_SCHEMAS}),
            "basis": parse_basis, "group": parse_group,
            "regime": {"min": number,
                       "max": lambda value: None if value is None else number(value)},
            "classifier": {threshold.name: number for threshold in fields(ClassifierConfig)},
        }, ConfigError, str(path), required=("cases", "populations", "boundaries"))
        regime, classifier = config.pop("regime", {}), config.pop("classifier", {})
        return cls(**config, regime=_regime(regime.get("min", 0.0), regime.get("max"), str(path)),
                   classifier=ClassifierConfig(**classifier))

    def with_overrides(
        self,
        basis: str | None = None,
        regime_min: str | None = None,
        regime_max: str | None = None,
        group: str | None = None,
        out: str | None = None,
    ) -> "RunConfig":
        """Apply CLI flag overrides, given as the command line's text and read as
        their config keys are, but for a regime bound, which is decimal text; flags win."""
        given = {"--basis": basis, "--regime-min": regime_min, "--regime-max": regime_max,
                 "--group": group, "--out": out}
        flags = read_fields({flag: value for flag, value in given.items() if value is not None}, {
            "--basis": parse_basis, "--regime-min": decimal, "--regime-max": decimal,
            "--group": parse_group, "--out": lambda value: _resolved(Path(text(os.fspath(value)))),
        }, ConfigError, "command line")
        regime = _regime(flags.get("--regime-min", self.regime.t_min),
                         flags.get("--regime-max", self.regime.t_max), "--regime-min/--regime-max")
        return replace(self, basis=flags.get("--basis", self.basis), regime=regime,
                       group=flags.get("--group", self.group), out=flags.get("--out", self.out))


def _resolved(path: Path) -> Path:
    """``path`` made absolute with its symlinks followed; one that cannot be
    followed, as in a symlink loop, is a bad value. A path that is missing or
    runs through a file is kept, to fail where it is opened or written."""
    try:
        resolved = path.resolve()
    except (OSError, RuntimeError) as exc:  # before Python 3.13 a loop is a RuntimeError
        raise ValueError(f"cannot be resolved: {exc}") from None
    try:
        resolved.stat()
    except OSError as exc:  # from Python 3.13 resolve() leaves a loop in the path it returns
        if exc.errno == errno.ELOOP:
            raise ValueError(f"cannot be resolved: {exc}") from None
    return resolved


def _regime(t_min: float, t_max: float | None, source: str) -> RegimeConfig:
    """Regime from config-file or flag bounds, which stats.json must print as JSON numbers."""
    for name, value in (("min", t_min), ("max", t_max)):
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{source}: regime {name} must be a finite number, got {value}; "
                              "use null for max to mean M, the number of municipalities")
    return RegimeConfig(t_min=t_min, t_max=t_max)


@dataclass
class LoadedInputs:
    cube: CaseCube
    pops: PopulationTable
    boundaries: Boundaries
    report: QualityReport


def load_inputs(cfg: RunConfig) -> LoadedInputs:
    """Load the three inputs and reject what no later step could use.

    These are the last checks that need the inputs themselves, so ``validate``
    rejects every input that ``run`` would.
    """
    report = QualityReport()
    cube = ingest.load_cases(cfg.cases, schema=cfg.cases_schema, report=report)
    pops = ingest.load_populations(cfg.populations, cube.roster, report=report)
    boundaries = ingest.load_boundaries(cfg.boundaries, cube.roster, report=report)
    cfg.regime.resolved(cube.n_municipalities)  # a null max means M, which may not exceed min
    if boundaries.extent is None:
        raise IngestError(f"{cfg.boundaries}: no feature matches a roster id, "
                          "so the map has no geometry to draw")
    lon0, lat0, lon1, lat1 = boundaries.extent
    if not (math.isfinite(lon1 - lon0) and math.isfinite(lat1 - lat0)):
        raise IngestError(f"{cfg.boundaries}: the roster geometry spans more than a float "
                          "can hold, so the map cannot be scaled")
    return LoadedInputs(cube=cube, pops=pops, boundaries=boundaries, report=report)


def _check_out(out: Path) -> None:
    """Refuse an output tree that ``run`` could not create: the nearest part
    of ``out/dashboards`` that exists must be a directory."""
    path = Path(_dashboards_dir(out))
    while not os.path.lexists(path):
        path = path.parent
    if not path.is_dir():
        raise RenderError(f"cannot write {path}: not a directory")


def validate(cfg: RunConfig) -> QualityReport:
    """Load and validate all inputs and the output directory, returning the
    quality report."""
    report = load_inputs(cfg).report
    _check_out(cfg.out)
    return report


@dataclass(frozen=True)
class Analysis:
    rd: np.ndarray                          # (M, N, K) rank differences
    stats: GroupStatsTable
    labels: dict[str, ClassLabel]


def analyze(cube: CaseCube, pops: PopulationTable, *, basis: str = RunConfig.basis,
            regime: RegimeConfig = RunConfig.regime, group: Group = RunConfig.group,
            classifier: ClassifierConfig = RunConfig.classifier) -> Analysis:
    """Rank, difference, summarize and classify ``cube`` against ``pops``, on its roster."""
    rd = metrics.rank_diff(metrics.rank_population(pops, cube.roster),
                           metrics.rank_cases(cube, basis=basis))
    stats = metrics.group_stats(cube, pops, rd, regime)
    return Analysis(rd, stats, classify_mod.classify_municipalities(stats, group, classifier))


def _analyzed(cfg: RunConfig) -> tuple[LoadedInputs, Analysis]:
    loaded = load_inputs(cfg)
    return loaded, analyze(loaded.cube, loaded.pops, basis=cfg.basis, regime=cfg.regime,
                           classifier=cfg.classifier, group=cfg.group)


@dataclass
class RunResult:
    out: Path
    report: QualityReport
    n_dashboards: int


@dataclass
class RenderResult:
    path: Path
    report: QualityReport


def _map_file(cfg: RunConfig, loaded: LoadedInputs, analysis: Analysis) -> tuple[str, str]:
    from . import render  # imported where it draws, so validate does not load it
    return f"map_{cfg.group.value.lower()}.svg", render.render_choropleth(render.build_choropleth(
        loaded.boundaries, loaded.cube.roster, analysis.labels, cfg.group))


def _dashboards_dir(out: Path) -> str:
    return os.path.join(out, "dashboards")


def _dashboard_path(dashboards: str, mid: str) -> str:
    return os.path.join(dashboards, f"{mid}.svg")


# Dashboards drawn as one block: enough rows for the column work to pay, few
# enough that one block's texts stay small beside the run's other data.
DASHBOARD_BLOCK_ROWS = 256


def _dashboard_svgs(loaded: LoadedInputs, analysis: Analysis,
                    ids: Sequence[str]) -> Iterator[tuple[str, str]]:
    """(id, SVG) of the dashboard of each of ``ids``, drawn a block of rows at a time."""
    from . import render
    for start in range(0, len(ids), DASHBOARD_BLOCK_ROWS):
        block = render.build_dashboard(analysis.stats, loaded.cube, loaded.pops,
                                       ids[start:start + DASHBOARD_BLOCK_ROWS], analysis.rd)
        for row, mid in enumerate(block.ids):
            yield mid, render.render_dashboard(block, row)


def run(cfg: RunConfig) -> RunResult:
    """Execute the full pipeline and write the output tree."""
    from . import render
    loaded, analysis = _analyzed(cfg)
    _check_out(cfg.out)
    map_name, map_svg = _map_file(cfg, loaded, analysis)  # first: a failed map leaves no tree
    cube, out = loaded.cube, cfg.out
    dashboards = _dashboards_dir(out)
    with writing(out, RenderError):
        os.makedirs(dashboards, exist_ok=True)

        metrics.write_rd_csv(out / "rd.csv", cube, analysis.rd)
        metrics.write_stats_json(out / "stats.json", cube, analysis.stats, cfg.regime, cfg.basis)
        classify_mod.write_labels_csv(out / "labels.csv", cube.roster, analysis.labels, cfg.group)
        write_text(out / "quality.json", [loaded.report.to_json()])

        ids = cube.roster.sorted_ids
        for mid, svg in _dashboard_svgs(loaded, analysis, ids):
            write_text(_dashboard_path(dashboards, mid), [svg])
        with os.scandir(dashboards) as entries:  # left by an earlier run over a larger roster
            stale = [entry.path for entry in entries if entry.name.endswith(".svg")
                     and entry.name[:-4] not in cube.roster.index and entry.is_file()]
        for path in stale:
            os.unlink(path)
        write_text(out / map_name, [map_svg])
        write_text(out / "index.html", [render.render_index(
            cube, analysis.stats, analysis.labels, cfg.group, map_name)])

    return RunResult(out=out, report=loaded.report, n_dashboards=len(ids))


def _write_one(target: Path, svg: str, report: QualityReport) -> RenderResult:
    """Write ``svg`` as the one file ``target`` of the output tree, making its directory."""
    with writing(target, RenderError):
        target.parent.mkdir(parents=True, exist_ok=True)
        write_text(target, [svg])
    return RenderResult(path=target, report=report)


def render_map(cfg: RunConfig) -> RenderResult:
    """Write only the classification choropleth of the output tree."""
    loaded, analysis = _analyzed(cfg)
    name, svg = _map_file(cfg, loaded, analysis)
    return _write_one(cfg.out / name, svg, loaded.report)


def render_dashboard(cfg: RunConfig, mid: str) -> RenderResult:
    """Write only municipality ``mid``'s dashboard of the output tree."""
    loaded, analysis = _analyzed(cfg)
    [(_, svg)] = _dashboard_svgs(loaded, analysis, [mid])
    return _write_one(Path(_dashboard_path(_dashboards_dir(cfg.out), mid)), svg, loaded.report)
