"""Shared builders for small in-memory and on-disk fixtures."""

from __future__ import annotations

import datetime as dt
import json
import math
from pathlib import Path

import numpy as np
import pytest

from rankdiff.errors import IngestError, load_json
from rankdiff.ingest import _array, _feature_id
from rankdiff.metrics import SPECIALS, GroupStats, GroupStatsTable
from rankdiff.model import (Boundaries, CaseCube, DateAxis, Municipality, PopulationTable,
                            QualityReport, Roster)

START = dt.date(2020, 10, 1)


def make_municipalities(ids: list[str]) -> tuple[Municipality, ...]:
    return tuple(Municipality(id=mid, name=f"Town {mid}", county="Test County") for mid in ids)


def make_roster(ids: list[str]) -> Roster:
    return Roster(make_municipalities(ids))


def make_cube(counts, ids: list[str] | None = None, start: dt.date = START) -> CaseCube:
    counts = np.asarray(counts, dtype=np.int64)
    m, n, _ = counts.shape
    ids = ids if ids is not None else [f"m{i + 1:03d}" for i in range(m)]
    return CaseCube(
        axis=DateAxis(start=start, n_days=n),
        municipalities=make_municipalities(ids),
        counts=counts,
    )


def make_pops(pops, ids: list[str] | None = None) -> PopulationTable:
    pops = np.asarray(pops, dtype=np.int64)
    ids = ids if ids is not None else [f"m{i + 1:03d}" for i in range(pops.shape[0])]
    return PopulationTable(roster=make_roster(ids), pops=pops)


def random_cube(seed: int, max_m: int = 6, max_n: int = 10, high: int = 9) -> CaseCube:
    """Small random cube with plenty of rank ties (counts in 0..high)."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, max_m + 1))
    n = int(rng.integers(1, max_n + 1))
    counts = rng.integers(0, high + 1, size=(m, n, 4))
    return make_cube(counts)


def random_pops_for(cube: CaseCube, seed: int, low: int = 1, high: int = 10000) -> PopulationTable:
    rng = np.random.default_rng(seed + 77)
    pops = rng.integers(low, high, size=(cube.n_municipalities, 4))
    return PopulationTable(roster=cube.roster, pops=pops.astype(np.int64))


def stats_table(cells: dict[str, list[GroupStats]]) -> GroupStatsTable:
    """The table of each id's four ``GroupStats``, given in ``GROUPS`` order;
    a ``None`` skewness or relative change reads as NaN."""
    rows = list(cells.values())

    def column(value, dtype=np.float64):
        return np.array([[value(s) for s in row] for row in rows], dtype=dtype).reshape(-1, 4)

    return GroupStatsTable(
        roster=make_roster(list(cells)),
        persistence=column(lambda s: s.persistence_pct),
        skewness=column(lambda s: np.nan if s.skewness is None else s.skewness),
        relative_change=column(
            lambda s: np.nan if s.relative_change_pct is None else s.relative_change_pct),
        special=column(lambda s: SPECIALS.index(s.special), np.int8),
    )


def cases_csv_text(rows: list[tuple[str, str, str, str, str, object]]) -> str:
    lines = ["date,municipality_id,municipality_name,county,group,count"]
    lines += [",".join(str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def full_cases_rows(
    ids: list[str],
    n_days: int,
    value: int = 0,
    overrides: dict[tuple[str, int, str], int] | None = None,
) -> list[tuple]:
    """Complete grid of rows; overrides are keyed by (id, day_1based, group)."""
    overrides = overrides or {}
    rows = []
    for mid in ids:
        for day in range(1, n_days + 1):
            date = (START + dt.timedelta(days=day - 1)).isoformat()
            for group in ("BAA", "HL", "OTH", "W"):
                count = overrides.get((mid, day, group), value)
                rows.append((date, mid, f"Town {mid}", "Test County", group, count))
    return rows


def pops_csv_text(rows: list[tuple[str, str, object]]) -> str:
    lines = ["municipality_id,group,population"]
    lines += [",".join(str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def square_feature(fid: str, x0: float = 0.0, y0: float = 0.0, closed: bool = True) -> dict:
    ring = [[x0, y0], [x0 + 1, y0], [x0 + 1, y0 + 1], [x0, y0 + 1]]
    if closed:
        ring.append([x0, y0])
    return {
        "type": "Feature",
        "id": fid,
        "properties": {},
        "geometry": {"type": "Polygon", "coordinates": [ring]},
    }


def geojson_text(features: list[dict]) -> str:
    return json.dumps({"type": "FeatureCollection", "features": features})


# A ring: its (longitude, latitude) points, the last equal to the first.
Ring = list[tuple[float, float]]


def shapes_of(boundaries: Boundaries) -> dict[str, list[Ring]]:
    """The rings of each feature id of ``boundaries``, as lists of points."""
    starts, ends = boundaries.starts.tolist(), boundaries.ends.tolist()
    return {fid: [list(map(tuple, boundaries.xy[starts[r]:ends[r]].tolist())) for r in rings]
            for fid, rings in boundaries.rings.items()}


def boundaries_of(shapes: dict[str, list[Ring]]) -> Boundaries:
    """``shapes``, each id's closed rings, laid out as ``load_boundaries``
    lays out a file of those features read against a roster of all their ids."""
    rings = [ring for id_rings in shapes.values() for ring in id_rings]
    xy = np.array([point for ring in rings for point in ring], dtype=np.float64).reshape(-1, 2)
    numbers = iter(range(len(rings)))
    return Boundaries(
        xy=xy, ends=np.cumsum([len(ring) for ring in rings], dtype=np.intp),
        rings={fid: tuple(next(numbers) for _ in id_rings) for fid, id_rings in shapes.items()},
        extent=(*xy.min(axis=0).tolist(), *xy.max(axis=0).tolist()) if len(xy) else None)


def _reference_position(pt, fid: str, path: Path) -> tuple[float, float]:
    if not (isinstance(pt, list) and len(pt) >= 2 and type(pt[0]) in (int, float)
            and type(pt[1]) in (int, float)):
        raise IngestError(f"{path}: feature {fid!r} has a malformed position {pt!r}")
    try:
        x, y = float(pt[0]), float(pt[1])
    except OverflowError:  # an integer past the float range
        x = y = math.inf
    if not (math.isfinite(x) and math.isfinite(y)):
        raise IngestError(f"{path}: feature {fid!r} has a non-finite coordinate {pt!r}")
    return x, y


def _reference_rings(geometry: dict, fid: str, path: Path,
                     report: QualityReport | None) -> list[Ring]:
    gtype = geometry.get("type")
    if gtype not in ("Polygon", "MultiPolygon"):
        raise IngestError(f"{path}: feature {fid!r} has non-polygon geometry type {gtype!r}")
    if "coordinates" not in geometry:
        raise IngestError(f"{path}: feature {fid!r} has no coordinates")
    coordinates = _array(geometry["coordinates"], fid, path)
    polygons = [coordinates] if gtype == "Polygon" else coordinates
    rings: list[Ring] = []
    for polygon in polygons:
        for ring_coords in _array(polygon, fid, path):
            ring = [_reference_position(pt, fid, path) for pt in _array(ring_coords, fid, path)]
            if len(ring) < 3:
                raise IngestError(f"{path}: feature {fid!r} has a ring with < 3 points")
            if ring[0] != ring[-1]:
                ring.append(ring[0])
                if report is not None:
                    report.warnings.append(f"auto-closed unclosed ring in feature {fid!r}")
            rings.append(ring)
    return rings


def reference_boundaries(path: Path, roster: Roster,
                         report: QualityReport | None = None) -> dict[str, list[Ring]]:
    """The rings of each feature id of a GeoJSON file, read a feature, a ring
    and a position at a time, each checked as it is read: the reference
    ``load_boundaries`` is compared with."""
    doc = load_json(path, IngestError)
    if (not isinstance(doc, dict) or doc.get("type") != "FeatureCollection"
            or not isinstance(doc.get("features"), list)):
        raise IngestError(f"{path}: expected a GeoJSON FeatureCollection")
    shapes: dict[str, list[Ring]] = {}
    for index, feature in enumerate(doc["features"]):
        if not isinstance(feature, dict):
            raise IngestError(f"{path}: feature #{index} is not a JSON object")
        fid = _feature_id(feature, index, path)
        geometry = feature.get("geometry")
        if not isinstance(geometry, dict):
            raise IngestError(f"{path}: feature {fid!r} has no geometry")
        shapes.setdefault(fid, []).extend(_reference_rings(geometry, fid, path, report))
    if report is not None:
        report.unmatched_geometry_ids.extend(sorted(shapes.keys() - roster.index.keys()))
        report.missing_geometry_ids.extend(m for m in roster.sorted_ids if m not in shapes)
    return shapes


@pytest.fixture
def write_file(tmp_path: Path):
    def _write(name: str, text: str) -> Path:
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        return path

    return _write
