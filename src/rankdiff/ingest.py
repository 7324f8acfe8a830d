"""Loaders for the three input datasets: daily case counts, group population
sizes, and municipality boundary geometry.

Canonical file layouts (UTF-8 with or without a byte-order mark, header row
required, columns in any order, RFC-4180 quoting):

* cases:       ``date,municipality_id,municipality_name,county,group,count``
* populations: ``municipality_id,group,population``
* boundaries:  GeoJSON FeatureCollection of Polygon/MultiPolygon features

Errors in a CSV file name ``path:line``, where ``line`` is the 1-based CSV
record number counting the header; blank lines are not counted.

The ``widhs-cumulative`` case schema has the same columns, but ``count`` is a
cumulative-to-date total; daily new cases are recovered by first-differencing
per municipality/group, clamping negative corrections to zero.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import math
from array import array
from operator import itemgetter
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import IngestError
from .model import (
    GROUP_INDEX,
    GROUPS,
    INT64_MAX,
    K,
    CaseCube,
    ClampEvent,
    DateAxis,
    Group,
    Municipality,
    PopulationTable,
    QualityReport,
    Ring,
)

CASE_SCHEMAS = ("canonical", "widhs-cumulative")

CASES_COLUMNS = ["date", "municipality_id", "municipality_name", "county", "group", "count"]
POPS_COLUMNS = ["municipality_id", "group", "population"]

# Source categories accepted in population files. ASIAN, HPI and AIAN are
# summed into OTH; MO and UNK are excluded and their totals reported.
OTH_COMPONENTS = ("OTH", "ASIAN", "HPI", "AIAN")
EXCLUDED_POP_GROUPS = ("MO", "UNK")
POP_SOURCE_GROUPS = ("BAA", "HL", "W") + OTH_COMPONENTS + EXCLUDED_POP_GROUPS



def _csv_records(path: Path, columns: list[str]):
    """Yield ``(line, fields)`` for each data record of a CSV file.

    The header may list ``columns`` in any order; ``fields`` come back in the
    order of ``columns``. Blank lines are skipped and not counted. A record
    with the wrong number of fields, or one the csv module cannot parse, is
    an error.
    """
    try:
        handle = open(path, encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise IngestError(f"cannot open {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        line = 0
        try:
            header = next(reader, None)
            if header is None:
                raise IngestError(f"{path}: empty file, expected header {','.join(columns)}")
            if sorted(header) != sorted(columns):
                raise IngestError(
                    f"{path}: header {','.join(header)} does not match "
                    f"expected columns {','.join(columns)}"
                )
            fields = itemgetter(*[header.index(c) for c in columns])
            width = len(columns)
            line = 1
            for row in reader:
                if not row:
                    continue
                line += 1
                if len(row) != width:
                    raise IngestError(f"{path}:{line}: expected {width} fields, got {len(row)}")
                yield line, fields(row)
        except csv.Error as exc:
            raise IngestError(f"{path}:{line + 1}: {exc}") from None
        except UnicodeDecodeError as exc:  # raised per read buffer, so no line number
            raise IngestError(f"{path}: not UTF-8 text: {exc}") from None


def _parse_int(raw: str, path: Path, line: int, column: str) -> int:
    text = raw.strip()
    try:
        value = int(text)
    except ValueError:
        raise IngestError(
            f"{path}:{line}: column {column!r} must be an integer, got {raw!r}"
        ) from None
    if value < 0:
        raise IngestError(f"{path}:{line}: column {column!r} must be >= 0, got {value}")
    if value > INT64_MAX:
        raise IngestError(f"{path}:{line}: column {column!r} must be <= {INT64_MAX}, got {value}")
    return value


def _parse_date(raw: str, path: Path, line: int) -> dt.date:
    try:
        return dt.date.fromisoformat(raw.strip())
    except ValueError:
        raise IngestError(
            f"{path}:{line}: column 'date' must be an ISO date (YYYY-MM-DD), got {raw!r}"
        ) from None


def _parse_group(raw: str, path: Path, line: int) -> int:
    try:
        return GROUP_INDEX[Group(raw.strip().upper())]
    except ValueError:
        raise IngestError(f"{path}:{line}: unknown group label {raw!r}") from None


def load_cases(
    path: str | Path,
    schema: str = "canonical",
    report: QualityReport | None = None,
) -> CaseCube:
    """Parse a cases CSV into a validated CaseCube.

    Every (date, municipality, group) cell must be present exactly once; the
    date range must be contiguous. Missing rows are an error, never imputed.

    Rows are streamed once. Each distinct raw date, (id, name, county), group
    and count string is parsed and checked once and mapped to an index; the
    indices go into flat buffers, and one ``np.bincount`` over the cell index
    finds duplicate and missing cells before one scatter fills the cube.
    """
    path = Path(path)
    if schema not in CASE_SCHEMAS:
        raise IngestError(f"unknown cases schema {schema!r}, expected one of {CASE_SCHEMAS}")

    municipalities: list[Municipality] = []
    position: dict[str, int] = {}

    def add_municipality(raw_id: str, raw_name: str, raw_county: str, line: int) -> int:
        mid = raw_id.strip()
        if not mid:
            raise IngestError(f"{path}:{line}: municipality_id must be non-empty")
        name, county = raw_name.strip(), raw_county.strip()
        i = position.get(mid)
        if i is None:
            i = position[mid] = len(municipalities)
            municipalities.append(Municipality(id=mid, name=name, county=county))
            return i
        known = municipalities[i]
        if (known.name, known.county) != (name, county):
            raise IngestError(
                f"{path}:{line}: municipality {mid!r} has conflicting "
                f"name/county {name!r}/{county!r} vs {known.name!r}/{known.county!r}"
            )
        return i

    day_of: dict[str, int] = {}            # raw date -> proleptic ordinal
    muni_of: dict[tuple[str, str, str], int] = {}
    group_of: dict[str, int] = {}
    count_of: dict[str, int] = {}
    days, munis, groups, values = array("q"), array("q"), array("q"), array("q")
    records = _csv_records(path, CASES_COLUMNS)
    for line, (raw_date, raw_id, raw_name, raw_county, raw_group, raw_count) in records:
        day = day_of.get(raw_date)
        if day is None:
            day = day_of[raw_date] = _parse_date(raw_date, path, line).toordinal()
        key = (raw_id, raw_name, raw_county)
        i = muni_of.get(key)
        if i is None:
            i = muni_of[key] = add_municipality(raw_id, raw_name, raw_county, line)
        k = group_of.get(raw_group)
        if k is None:
            k = group_of[raw_group] = _parse_group(raw_group, path, line)
        count = count_of.get(raw_count)
        if count is None:
            count = count_of[raw_count] = _parse_int(raw_count, path, line, "count")
        days.append(day)
        munis.append(i)
        groups.append(k)
        values.append(count)

    if not days:
        raise IngestError(f"{path}: no data rows")

    ordinals = np.frombuffer(days, dtype=np.int64)
    first = int(ordinals.min())
    axis = DateAxis(start=dt.date.fromordinal(first), n_days=int(ordinals.max()) - first + 1)
    shape = (len(municipalities), axis.n_days, K)

    def describe(flat: int) -> str:
        i, j, k = np.unravel_index(flat, shape)
        day = axis.date_of(int(j) + 1).isoformat()
        return f"({municipalities[i].id}, {day}, {GROUPS[k].value})"

    # Cell index (i·N + j)·K + k: C order of the cube, i.e. roster/day/group order.
    cell = np.frombuffer(munis, dtype=np.int64) * axis.n_days
    cell += ordinals - first
    cell *= K
    cell += np.frombuffer(groups, dtype=np.int64)
    hits = np.bincount(cell, minlength=np.prod(shape))
    if hits.max() > 1:
        # The first record that repeats a key: in a stable sort by cell, every
        # record after the first of its cell is a repeat.
        order = np.argsort(cell, kind="stable")
        first_repeat = int(order[1:][cell[order[1:]] == cell[order[:-1]]].min())
        raise IngestError(
            f"{path}:{first_repeat + 2}: duplicate row for {describe(cell[first_repeat])}"
        )
    holes = np.flatnonzero(hits == 0)
    if holes.size:
        preview = ", ".join(describe(flat) for flat in holes[:5])
        raise IngestError(
            f"{path}: {holes.size} missing (municipality, date, group) cells; "
            f"first: {preview}"
        )

    counts = np.empty(hits.size, dtype=np.int64)
    counts[cell] = np.frombuffer(values, dtype=np.int64)
    counts = counts.reshape(shape)
    if schema == "widhs-cumulative":
        counts = _cumulative_to_daily(counts, [m.id for m in municipalities], axis, report)
    _check_totals(path, "cases", municipalities, (row.ravel().tolist() for row in counts))
    return CaseCube(axis=axis, municipalities=tuple(municipalities), counts=counts)


def _check_totals(path: Path, what: str, municipalities: Sequence[Municipality], rows) -> None:
    """Reject a municipality whose values sum past int64, so its later sums fit."""
    for muni, row in zip(municipalities, rows):
        total = sum(row)
        if total > INT64_MAX:
            raise IngestError(f"{path}: total {what} of {muni.id} is {total}, beyond {INT64_MAX}")


def _cumulative_to_daily(
    cumulative: np.ndarray,
    roster: list[str],
    axis: DateAxis,
    report: QualityReport | None,
) -> np.ndarray:
    """First-difference a cumulative tensor; clamp reporting corrections to 0."""
    daily = cumulative.copy()
    daily[:, 1:, :] = cumulative[:, 1:, :] - cumulative[:, :-1, :]
    negatives = np.argwhere(daily < 0)
    for i, j, k in negatives:
        if report is not None:
            report.clamps.append(
                ClampEvent(
                    municipality_id=roster[i],
                    group=GROUPS[k],
                    date=axis.date_of(int(j) + 1),
                    drop=int(-daily[i, j, k]),
                )
            )
        daily[i, j, k] = 0
    return daily


def load_populations(
    path: str | Path,
    municipalities: Sequence[Municipality],
    report: QualityReport | None = None,
) -> PopulationTable:
    """Parse a populations CSV aligned to the given municipality roster.

    Accepts the canonical four groups plus source categories: ASIAN/HPI/AIAN
    rows are summed into OTH, MO/UNK rows are excluded with totals reported.
    Group rows absent from the file default to zero population.
    """
    path = Path(path)
    raw: dict[tuple[str, str], int] = {}
    excluded: dict[str, int] = {g: 0 for g in EXCLUDED_POP_GROUPS}
    unknown_ids: list[str] = []
    roster_ids = {m.id for m in municipalities}
    for line, (raw_id, raw_group, raw_value) in _csv_records(path, POPS_COLUMNS):
        mid = raw_id.strip()
        label = raw_group.strip().upper()
        if label not in POP_SOURCE_GROUPS:
            raise IngestError(
                f"{path}:{line}: unknown group label {raw_group!r}; "
                f"expected one of {', '.join(POP_SOURCE_GROUPS)}"
            )
        value = _parse_int(raw_value, path, line, "population")
        if mid not in roster_ids:
            if mid not in unknown_ids:
                unknown_ids.append(mid)
            continue
        key = (mid, label)
        if key in raw:
            raise IngestError(f"{path}:{line}: duplicate row for ({mid}, {label})")
        raw[key] = value
        if label in excluded:
            excluded[label] += value

    seen_ids = {mid for mid, _ in raw}
    missing = sorted(roster_ids - seen_ids)
    if missing:
        raise IngestError(
            f"{path}: no population rows for {len(missing)} municipalities: "
            + ", ".join(missing[:10])
            + ("..." if len(missing) > 10 else "")
        )

    rows = [
        [sum(raw.get((muni.id, c), 0) for c in OTH_COMPONENTS) if g is Group.OTH
         else raw.get((muni.id, g.value), 0) for g in GROUPS]
        for muni in municipalities
    ]
    _check_totals(path, "population", municipalities, rows)
    pops = np.array(rows, dtype=np.int64).reshape(len(municipalities), K)

    if report is not None:
        for g, total in excluded.items():
            report.excluded_groups_totals[g] = report.excluded_groups_totals.get(g, 0) + total
        if unknown_ids:
            report.warnings.append(
                "populations file lists ids not in the case roster (ignored): "
                + ", ".join(sorted(unknown_ids)[:10])
            )
    return PopulationTable(municipalities=tuple(municipalities), pops=pops)


def _feature_id(feature: dict, index: int, path: Path) -> str:
    if "id" in feature and feature["id"] not in (None, ""):
        return str(feature["id"])
    props = feature.get("properties")
    if not isinstance(props, dict):
        props = {}
    for key in ("municipality_id", "id", "GEOID", "geoid"):
        if props.get(key) not in (None, ""):
            return str(props[key])
    raise IngestError(
        f"{path}: feature #{index} has no id (looked at feature.id and "
        "properties municipality_id/id/GEOID)"
    )


def _array(value, fid: str, path: Path) -> list:
    if not isinstance(value, list):
        raise IngestError(
            f"{path}: feature {fid!r} has malformed coordinates: {value!r} is not an array"
        )
    return value


def _position(pt, fid: str, path: Path) -> tuple[float, float]:
    try:
        x, y = float(pt[0]), float(pt[1])
    except (IndexError, KeyError, TypeError, ValueError):
        raise IngestError(f"{path}: feature {fid!r} has a malformed position {pt!r}") from None
    if not (math.isfinite(x) and math.isfinite(y)):
        raise IngestError(f"{path}: feature {fid!r} has a non-finite coordinate {pt!r}")
    return x, y


def _collect_rings(geometry: dict, fid: str, path: Path, report: QualityReport | None) -> list[Ring]:
    gtype = geometry.get("type")
    if gtype not in ("Polygon", "MultiPolygon"):
        raise IngestError(
            f"{path}: feature {fid!r} has non-polygon geometry type {gtype!r}"
        )
    if "coordinates" not in geometry:
        raise IngestError(f"{path}: feature {fid!r} has no coordinates")
    coordinates = _array(geometry["coordinates"], fid, path)
    polygons = [coordinates] if gtype == "Polygon" else coordinates
    rings: list[Ring] = []
    for polygon in polygons:
        for ring_coords in _array(polygon, fid, path):
            ring: Ring = [_position(pt, fid, path) for pt in _array(ring_coords, fid, path)]
            if len(ring) < 3:
                raise IngestError(f"{path}: feature {fid!r} has a ring with < 3 points")
            if ring[0] != ring[-1]:
                ring.append(ring[0])
                if report is not None:
                    report.warnings.append(f"auto-closed unclosed ring in feature {fid!r}")
            rings.append(ring)
    return rings


def load_boundaries(
    path: str | Path,
    municipalities: Sequence[Municipality],
    report: QualityReport | None = None,
) -> dict[str, list[Ring]]:
    """Parse a GeoJSON FeatureCollection into polygon rings keyed by feature id.

    Features whose id is not in the roster are kept in the result; their ids
    go to the report's ``unmatched_geometry_ids``. Roster ids without a
    feature go to its ``missing_geometry_ids``. Neither condition is fatal.
    """
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise IngestError(f"cannot open {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise IngestError(f"{path}: invalid JSON: {exc}") from exc

    if (
        not isinstance(doc, dict)
        or doc.get("type") != "FeatureCollection"
        or not isinstance(doc.get("features"), list)
    ):
        raise IngestError(f"{path}: expected a GeoJSON FeatureCollection")

    shapes: dict[str, list[Ring]] = {}
    for index, feature in enumerate(doc["features"]):
        if not isinstance(feature, dict):
            raise IngestError(f"{path}: feature #{index} is not a JSON object")
        fid = _feature_id(feature, index, path)
        geometry = feature.get("geometry")
        if not isinstance(geometry, dict):
            raise IngestError(f"{path}: feature {fid!r} has no geometry")
        rings = _collect_rings(geometry, fid, path, report)
        shapes.setdefault(fid, []).extend(rings)

    if report is not None:
        roster_ids = {m.id for m in municipalities}
        report.unmatched_geometry_ids.extend(sorted(set(shapes) - roster_ids))
        report.missing_geometry_ids.extend(sorted(roster_ids - set(shapes)))
    return shapes


def write_cases_csv(cube: CaseCube, path: str | Path) -> None:
    """Write a CaseCube in the canonical cases schema (round-trip safe)."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CASES_COLUMNS)
        dates = [day.isoformat() for day in cube.axis.dates()]
        groups = [g.value for g in GROUPS]
        for i, muni in enumerate(cube.municipalities):
            writer.writerows(
                (date, muni.id, muni.name, muni.county, g, v)
                for date, values in zip(dates, cube.counts[i].tolist())
                for g, v in zip(groups, values)
            )


def write_populations_csv(table: PopulationTable, path: str | Path) -> None:
    """Write a PopulationTable in the canonical populations schema."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(POPS_COLUMNS)
        for i, muni in enumerate(table.municipalities):
            for k, g in enumerate(GROUPS):
                writer.writerow([muni.id, g.value, int(table.pops[i, k])])
