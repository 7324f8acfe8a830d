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

A municipality id keeps one name and county, compared after stripping
whitespace. Cases files are read one of two ways, with the same result. A
regular file without quotes, whose lines end in ``\n`` or ``\r\n`` and hold
exactly six fields of at most ``FIELD_MAX`` bytes, is parsed from its bytes
with NumPy, in one pass of blocks of whole lines; Python parses each distinct
value of a block once, not each field. Any other file, such as a named pipe,
any file with an error, and any where an id's name or county bytes change
within a block, if only in whitespace, is read by the streamed ``csv`` reader,
which words every diagnostic. What is accepted, and every message, is the
``csv`` reader's.
"""

from __future__ import annotations

import codecs
import csv
import datetime as dt
import gc
import io
import math
import re
from array import array
from itertools import chain
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import IngestError, load_json, write_text
from .model import (
    GROUP_INDEX,
    GROUPS,
    INT64_MAX,
    K,
    Boundaries,
    CaseCube,
    ClampEvent,
    DateAxis,
    Group,
    Municipality,
    PopulationTable,
    QualityReport,
    Roster,
    check_totals,
)

CASE_SCHEMAS = ("canonical", "widhs-cumulative")

CASES_COLUMNS = ["date", "municipality_id", "municipality_name", "county", "group", "count"]
POPS_COLUMNS = ["municipality_id", "group", "population"]

# Source categories accepted in population files. ASIAN, HPI and AIAN are
# summed into OTH; MO and UNK are excluded and their totals reported.
OTH_COMPONENTS = ("OTH", "ASIAN", "HPI", "AIAN")
EXCLUDED_POP_GROUPS = ("MO", "UNK")
POP_SOURCE_GROUPS = ("BAA", "HL", "W") + OTH_COMPONENTS + EXCLUDED_POP_GROUPS
# The source labels of each group, and those a population total counts, by index.
_GROUP_SOURCES = [[POP_SOURCE_GROUPS.index(c) for c in (OTH_COMPONENTS if g is Group.OTH
                                                          else (g.value,))] for g in GROUPS]
_COUNTED_SOURCES = sorted(sum(_GROUP_SOURCES, []))

BLOCK_BYTES = 1 << 18      # cases bytes read at a time, extended to the next line end
FIELD_MAX = 64             # bytes in the widest field the block reader keys
NAME_MAX = 255             # bytes in a file name, such as <id>.svg, on common file systems
_COMMA, _NEWLINE = ord(","), ord("\n")
# The first k bytes of a little-endian uint64 word, for k = 0..8.
_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
_MIX = np.uint64(0x9E3779B97F4A7C15)   # odd: multiplying by it permutes the uint64 values


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


class _Roster:
    """Municipalities in order of first appearance, keyed by stripped id.

    An id names the file ``dashboards/<id>.svg``, and an id, name and county
    are written into SVG text, so each must be something both can carry.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self.municipalities: list[Municipality] = []
        self.position: dict[str, int] = {}
        # Outside XML 1.0's Char: C0 controls but tab, LF and CR; U+FFFE, U+FFFF.
        self.non_xml = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff]").search

    def add(self, raw_id: str, raw_name: str, raw_county: str, line: int) -> int:
        """Index of the municipality a record names; its name and county must not change."""
        mid = raw_id.strip()
        if not mid:
            raise IngestError(f"{self.path}:{line}: municipality_id must be non-empty")
        if "/" in mid or "\\" in mid:  # the id names a file under dashboards/
            raise IngestError(
                f"{self.path}:{line}: municipality_id {mid!r} must not contain '/' or '\\'"
            )
        name, county = raw_name.strip(), raw_county.strip()
        i = self.position.get(mid)
        if i is None:
            size = len(mid.encode("utf-8")) + len(".svg")
            if size > NAME_MAX:
                raise IngestError(
                    f"{self.path}:{line}: municipality_id {mid!r} makes a dashboard file name "
                    f"of {size} bytes, beyond {NAME_MAX}"
                )
            for column, text in (("municipality_id", mid), ("municipality_name", name),
                                 ("county", county)):
                if self.non_xml(text):
                    raise IngestError(
                        f"{self.path}:{line}: {column} {text!r} holds a character "
                        "that XML does not allow"
                    )
            i = self.position[mid] = len(self.municipalities)
            self.municipalities.append(Municipality(id=mid, name=name, county=county))
            return i
        known = self.municipalities[i]
        if (known.name, known.county) != (name, county):
            raise IngestError(
                f"{self.path}:{line}: municipality {mid!r} has conflicting "
                f"name/county {name!r}/{county!r} vs {known.name!r}/{known.county!r}"
            )
        return i


def _read_case_records(path: Path):
    """The reference reader: stream the records of a cases file through ``csv``.

    Returns the roster and four int64 arrays with one entry per data record:
    day ordinal, roster index, group index and count. Each distinct raw date,
    (id, name, county), group and count string is parsed and checked once.
    Every diagnostic about a record's text comes from here.
    """
    roster = _Roster(path)
    day_of, muni_of, group_of, count_of = _case_columns(path, roster, lambda: line)
    days, munis, groups, values = array("q"), array("q"), array("q"), array("q")
    records = _csv_records(path, CASES_COLUMNS)
    for line, (raw_date, raw_id, raw_name, raw_county, raw_group, raw_count) in records:
        days.append(day_of[raw_date])
        munis.append(muni_of[raw_id, raw_name, raw_county])
        groups.append(group_of[raw_group])
        values.append(count_of[raw_count])
    arrays = (np.frombuffer(a, dtype=np.int64) for a in (days, munis, groups, values))
    return roster.municipalities, *arrays


def _whole_records(block: bytes, masks: np.ndarray) -> np.ndarray | None:
    """The position of every ``,`` and ``\\n`` in ``block``, a run of lines each
    ending in ``\\n``, or ``None`` unless every line has exactly
    ``len(CASES_COLUMNS) - 1`` commas.

    ``masks`` is a (2, at least ``len(block)``) bool buffer that the caller
    reuses from block to block, so that no block allocates masks of its own.
    """
    data = np.frombuffer(block, dtype=np.uint8)
    newlines = np.equal(data, _NEWLINE, out=masks[0, :data.size])
    separators = np.equal(data, _COMMA, out=masks[1, :data.size])
    separators |= newlines
    separators = np.flatnonzero(separators)
    width = len(CASES_COLUMNS)
    # With as many newlines as lines, every width-th separator a newline leaves
    # exactly width - 1 commas in each line.
    whole = (separators.size == width * np.count_nonzero(newlines)
             and bool((data[separators[width - 1 :: width]] == _NEWLINE).all()))
    return separators if whole else None


class _Interned(dict):
    """The parsed value of each raw value looked up so far. A value seen for the
    first time is parsed on lookup, so one pass of ``__getitem__`` over a
    column parses each distinct value once, in order of first appearance."""

    def __init__(self, parse) -> None:
        super().__init__()
        self.parse = parse

    def __missing__(self, raw):
        value = self[raw] = self.parse(raw)
        return value


def _case_columns(path: Path, roster: _Roster, line) -> tuple[_Interned, ...]:
    """How each cases column maps a raw value: a date to its proleptic ordinal, an
    ``(id, name, county)`` triple to its roster index, a group label to its
    group index and a count to its value. ``line()`` is the line an error names.
    """
    return (
        _Interned(lambda raw: _parse_date(raw, path, line()).toordinal()),
        _Interned(lambda key: roster.add(*key, line())),
        _Interned(lambda raw: _parse_group(raw, path, line())),
        _Interned(lambda raw: _parse_int(raw, path, line(), "count")),
    )


def _changes(values: np.ndarray) -> np.ndarray:
    """Whether each entry of ``values`` differs from the one before it; the first does."""
    changes = np.empty(values.size, dtype=bool)
    changes[:1] = True
    np.not_equal(values[1:], values[:-1], out=changes[1:])
    return changes


def _codes(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct values of ``keys`` in order of first appearance.

    Returns the number of each entry and the index of each number's first
    entry. Equal neighbours are collapsed into runs first, so the sort sees
    one key per run: a cases file repeats its ids and dates in runs.
    The sort is not stable, and each key's first run is the least index among
    its ties: ``np.unique(return_index=True)`` sorts stably, which made a file
    of shuffled rows, where no runs collapse, read about a third slower.
    """
    changes = _changes(keys)
    runs = np.flatnonzero(changes)
    sort = np.argsort(keys[runs])
    heads = np.flatnonzero(_changes(keys[runs[sort]]))   # where each key's runs start in sort
    first = np.minimum.reduceat(sort, heads)             # first run of each key, in key order
    number = np.argsort(np.argsort(first))               # each key's rank by its first run
    codes = np.empty_like(sort)
    codes[sort] = np.repeat(number, np.diff(heads, append=sort.size))
    return np.repeat(codes, np.diff(runs, append=keys.size)), runs[np.sort(first)]


def _windows(words: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> list[np.ndarray]:
    """The ``ceil(max length / 8)`` windows of each field of a column, which with
    its length give its bytes exactly. A field holds the ``lengths`` bytes from
    its ``starts``; its window ``k`` is ``words[p]``, the little-endian word at
    ``p``, ``8k`` bytes into the field or at its last 8 if sooner, masked to it."""
    windows = [words[starts]]
    count = -(-int(lengths.max()) // 8)
    if count > 1:
        last = starts + np.maximum(lengths - 8, 0)
        windows += [words[np.minimum(starts + 8 * k, last)] for k in range(1, count)]
    if lengths.min() < 8:   # a shorter field's word runs on into the next fields
        mask = _MASKS[np.minimum(lengths, 8)]
        for window in windows:
            window &= mask
    return windows


def _agree(windows: list[np.ndarray], lengths: np.ndarray, model: np.ndarray) -> bool:
    """Whether every field has the length and windows of field ``model[i]``."""
    return bool((lengths == lengths[model]).all()) and all((w == w[model]).all() for w in windows)


def _field_codes(windows: list[np.ndarray],
                 lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """``_codes`` of the bytes of one column's fields, given their ``_windows``
    and lengths, or ``None`` on a key collision.

    As no field holds a NUL, one window is an exact key. A wider column mixes
    each field's length and windows into one key with the odd constant
    ``_MIX``, and every field is then checked against the first of its code.
    """
    if len(windows) == 1:
        return _codes(windows[0])
    key = lengths.astype(np.uint64)
    for window in windows:
        key ^= window
        key *= _MIX
        key ^= key >> np.uint64(29)
    codes, first = _codes(key)
    return (codes, first) if _agree(windows, lengths, first[codes]) else None


def _parse_block(block: bytes, separators: np.ndarray, order: list[int],
                 interned: tuple[_Interned, ...]) -> list[np.ndarray] | None:
    """The day ordinal, roster index, group index and count of each line of
    ``block``, or ``None`` to decline it.

    ``separators`` holds the positions of every ``,`` and ``\\n`` in
    ``block``, each ending a field, and ``order`` the field of each of
    ``CASES_COLUMNS`` in a line. Each distinct date, id, group and count of
    the block is decoded and looked up in ``interned`` once, in order of first
    appearance; an id's name and county are those of its first line. Every
    other field's bytes equal those of a decoded one, so the whole block is
    UTF-8. Declined are a field wider than ``FIELD_MAX``, a key collision, a
    line whose name or county bytes differ from those of its id's first line,
    bytes that are not UTF-8, and a value that does not parse or that
    ``_Roster.add`` rejects.
    """
    width = len(CASES_COLUMNS)
    starts = np.empty_like(separators)
    starts[0] = 0
    np.add(separators[:-1], 1, out=starts[1:])
    starts = [starts.reshape(-1, width)[:, i] for i in order]   # a view per column
    ends = [separators.reshape(-1, width)[:, i] for i in order]
    lengths = [end - start for start, end in zip(starts, ends)]
    if max(map(np.max, lengths)) > FIELD_MAX:
        return None
    words = np.ndarray((len(block),), "<u8", block + bytes(7), strides=(1,))
    windows = [_windows(words, start, length) for start, length in zip(starts, lengths)]
    coded = [_field_codes(windows[c], lengths[c]) for c in (0, 1, 4, 5)]
    if None in coded:
        return None
    (day, days), (muni, munis), (group, groups), (count, counts) = coded
    if not all(_agree(windows[c], lengths[c], munis[muni]) for c in (2, 3)):
        return None
    try:   # a code's value is its first line's text; equal names or counties share one
        raws = [[block[a:b].decode("utf-8") for a, b in zip(start[f].tolist(), end[f].tolist())]
                for start, end, f in zip(starts, ends, (days, munis, munis, munis, groups, counts))]
        names, counties = ({text: text for text in column} for column in raws[2:4])
        triples = [(mid, names[name], counties[county]) for mid, name, county in zip(*raws[1:4])]
        columns = (raws[0], triples, raws[4], raws[5])
        return [np.fromiter(map(known.__getitem__, values), np.int64, len(values))[code]
                for code, values, known in zip((day, muni, group, count), columns, interned)]
    except (IngestError, UnicodeDecodeError):
        return None


def _read_case_blocks(path: Path):
    """Parse a cases file in blocks of whole lines, without objects per field.

    Returns what ``_read_case_records`` returns for the same file, or ``None``
    to decline it, and that reader then words every error. The file is read
    once; each block's records are appended to four ``array`` columns.
    Declined are a path that is not a regular file, such as a pipe, which the
    ``csv`` reader could not read again; every file while
    ``csv.field_size_limit()`` is below ``FIELD_MAX``, as that limit binds the
    header too; and files the block split could misread or that are in error:
    a header that does not match, a ``"`` (csv quoting), a ``\\r`` not followed
    by ``\\n``, a NUL byte, a blank line (so that record index + 2 stays the
    line number), a line with the wrong field count, and all that
    ``_parse_block`` declines.
    """
    if not path.is_file() or csv.field_size_limit() < FIELD_MAX:
        return None
    try:
        handle = open(path, "rb")
    except OSError:
        return None
    with handle:
        # A header with a \r left in it cannot name exactly these columns.
        header = handle.readline().removeprefix(codecs.BOM_UTF8).removesuffix(b"\n")
        header = header.removesuffix(b"\r").decode("utf-8", "replace").split(",")
        if sorted(header) != sorted(CASES_COLUMNS):
            return None
        order = [header.index(c) for c in CASES_COLUMNS]

        roster = _Roster(path)
        # The messages name no line, since an error declines the file.
        interned = _case_columns(path, roster, lambda: 0)
        # Day ordinal, roster index, group index and count of each record.
        columns = [array("q") for _ in interned]
        masks = np.empty((2, 0), dtype=bool)
        while block := handle.read(BLOCK_BYTES) + handle.readline():
            if not block.endswith(b"\n"):
                block += b"\n"
            # A " is csv quoting and a \r left is no line end; csv before 3.11 rejects NUL,
            # and only without NUL are the keys of _field_codes exact. Checked on these bytes.
            if b"\r" in block:
                block = block.replace(b"\r\n", b"\n")
            if b'"' in block or b"\0" in block or b"\r" in block:
                return None
            if masks.shape[1] < len(block):
                masks = np.empty((2, 2 * len(block)), dtype=bool)
            separators = _whole_records(block, masks)
            if separators is None:
                return None
            parsed = _parse_block(block, separators, order, interned)
            if parsed is None:
                return None
            for column, values in zip(columns, parsed):
                column.frombytes(memoryview(values).cast("B"))
    return roster.municipalities, *(np.frombuffer(c, dtype=np.int64) for c in columns)


def load_cases(
    path: str | Path,
    schema: str = "canonical",
    report: QualityReport | None = None,
) -> CaseCube:
    """Parse a cases CSV into a validated CaseCube.

    Every (date, municipality, group) cell must be present exactly once; the
    date range must be contiguous. Missing rows are an error, never imputed.

    The file is read by ``_read_case_blocks`` or, where that declines it, by
    the streamed ``csv`` reader ``_read_case_records``; both map each record
    to indices in flat arrays. One ``np.bincount`` over the cell index then
    finds duplicate and missing cells before one scatter fills the cube.
    """
    path = Path(path)
    if schema not in CASE_SCHEMAS:
        raise IngestError(f"unknown cases schema {schema!r}, expected one of {CASE_SCHEMAS}")
    municipalities, ordinals, munis, groups, values = (
        _read_case_blocks(path) or _read_case_records(path)
    )
    if not ordinals.size:
        raise IngestError(f"{path}: no data rows")

    first = int(ordinals.min())
    axis = DateAxis(start=dt.date.fromordinal(first), n_days=int(ordinals.max()) - first + 1)
    shape = (len(municipalities), axis.n_days, K)

    def describe(flat: int) -> str:
        i, j, k = np.unravel_index(flat, shape)
        day = axis.date_of(int(j) + 1).isoformat()
        return f"({municipalities[i].id}, {day}, {GROUPS[k].value})"

    # Cell index (i·N + j)·K + k: C order of the cube, i.e. roster/day/group order.
    cell = munis * axis.n_days
    cell += ordinals - first
    cell *= K
    cell += groups
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
    counts[cell] = values
    counts = counts.reshape(shape)
    if schema == "widhs-cumulative":
        counts = _cumulative_to_daily(counts, [m.id for m in municipalities], axis, report)
    try:
        return CaseCube(axis=axis, municipalities=tuple(municipalities), counts=counts)
    except IngestError as exc:   # a municipality's total beyond int64
        raise IngestError(f"{path}: {exc}") from None


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


def _pop_label(raw: str, path: Path, line: int) -> int:
    label = raw.strip().upper()
    if label not in POP_SOURCE_GROUPS:
        raise IngestError(
            f"{path}:{line}: unknown group label {raw!r}; "
            f"expected one of {', '.join(POP_SOURCE_GROUPS)}"
        )
    return POP_SOURCE_GROUPS.index(label)


def load_populations(
    path: str | Path,
    roster: Roster,
    report: QualityReport | None = None,
) -> PopulationTable:
    """Parse a populations CSV into a table of ``roster``, the cube's.

    Accepts the canonical four groups plus source categories: ASIAN/HPI/AIAN
    rows are summed into OTH, MO/UNK rows are excluded with totals reported.
    Group rows absent from the file default to zero population.

    Each distinct id, group label and population text is looked up or parsed
    once, as records are read, so a bad label or value is reported at the
    first line that holds one. The values of roster ids are scattered into an
    (M, source label) table; one ``np.bincount`` over the cell index then finds
    duplicate and missing rows.
    """
    path = Path(path)
    municipalities, line = roster.municipalities, 0
    ids = _Interned(lambda raw: roster.index.get(raw.strip(), -1))
    labels = _Interned(lambda raw: _pop_label(raw, path, line))
    values = _Interned(lambda raw: _parse_int(raw, path, line, "population"))
    row_of, label_of, value_of = [], [], []
    for line, (raw_id, raw_group, raw_value) in _csv_records(path, POPS_COLUMNS):
        label_of.append(labels[raw_group])
        value_of.append(values[raw_value])
        row_of.append(ids[raw_id])

    m, width = len(municipalities), len(POP_SOURCE_GROUPS)
    row = np.array(row_of, dtype=np.intp)
    known = np.flatnonzero(row >= 0)  # the records of roster ids
    row = row[known]
    label = np.array(label_of, dtype=np.intp)[known]
    cell = row * width + label
    if np.bincount(cell, minlength=m * width).max(initial=0) > 1:
        # The first record that repeats a cell: in a stable sort by cell, every
        # record after the first of its cell is a repeat.
        order = np.argsort(cell, kind="stable")
        first = order[1:][cell[order[1:]] == cell[order[:-1]]].min()
        raise IngestError(f"{path}:{known[first] + 2}: duplicate row for "
                          f"({municipalities[row[first]].id}, {POP_SOURCE_GROUPS[label[first]]})")
    absent = np.bincount(row, minlength=m) == 0
    if absent.any():
        missing = [roster.ids[i] for i in roster.order[absent[roster.order]].tolist()]
        raise IngestError(
            f"{path}: no population rows for {len(missing)} municipalities: "
            + ", ".join(missing[:10])
            + ("..." if len(missing) > 10 else "")
        )

    table = np.zeros((m, width), dtype=np.int64)
    table[row, label] = np.array(value_of, dtype=np.int64)[known]
    # Each group sums to at most its row's total, so once that fits, OTH's int64 sum is exact.
    check_totals(f"{path}: total population", municipalities, table[:, _COUNTED_SOURCES])
    pops = np.stack([table[:, sources].sum(axis=1) for sources in _GROUP_SOURCES], axis=1)

    if report is not None:
        for g in EXCLUDED_POP_GROUPS:
            total = sum(table[:, POP_SOURCE_GROUPS.index(g)].tolist())
            report.excluded_groups_totals[g] = report.excluded_groups_totals.get(g, 0) + total
        unknown_ids = {raw.strip() for raw, i in ids.items() if i < 0}
        if unknown_ids:
            report.warnings.append(
                "populations file lists ids not in the case roster (ignored): "
                + ", ".join(sorted(unknown_ids)[:10])
            )
    return PopulationTable(roster=roster, pops=pops)


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


def _ring_arrays(geometry: dict, fid: str, path: Path) -> list[list]:
    """The position arrays of the rings of a feature's geometry, each an
    array of at least 3 entries; the positions themselves are not checked."""
    gtype = geometry.get("type")
    if gtype not in ("Polygon", "MultiPolygon"):
        raise IngestError(
            f"{path}: feature {fid!r} has non-polygon geometry type {gtype!r}"
        )
    if "coordinates" not in geometry:
        raise IngestError(f"{path}: feature {fid!r} has no coordinates")
    coordinates = _array(geometry["coordinates"], fid, path)
    polygons = [coordinates] if gtype == "Polygon" else coordinates
    rings = []
    for polygon in polygons:
        for ring in _array(polygon, fid, path):
            if len(_array(ring, fid, path)) < 3:
                raise IngestError(f"{path}: feature {fid!r} has a ring with < 3 points")
            rings.append(ring)
    return rings


_NUMBERS = {int, float}  # what ``json`` reads a JSON number as; ``true`` is a ``bool``


def _bad_position(rings: list[list], owners: list[str], path: Path) -> IngestError:
    """The error of the first position, in document order, that is not an
    array whose first two entries are finite JSON numbers."""
    for ring, fid in zip(rings, owners):
        for pt in ring:
            if not (isinstance(pt, list) and len(pt) >= 2 and type(pt[0]) in _NUMBERS
                    and type(pt[1]) in _NUMBERS):
                return IngestError(f"{path}: feature {fid!r} has a malformed position {pt!r}")
            try:
                finite = math.isfinite(pt[0]) and math.isfinite(pt[1])
            except OverflowError:  # an integer past the float range
                finite = False
            if not finite:
                return IngestError(f"{path}: feature {fid!r} has a non-finite coordinate {pt!r}")
    raise AssertionError("every position is valid")


def _coordinates(rings: list[list]):
    """The first two entries of each position of ``rings``, in order."""
    return chain.from_iterable(map(itemgetter(0, 1), chain.from_iterable(rings)))


def _points(rings: list[list], owners: list[str], path: Path) -> np.ndarray:
    """The (P, 2) float64 points of the positions of ``rings``, checked in one
    pass over them all; ``owners`` holds each ring's feature id for the
    message of the first bad one."""
    valid = set(map(type, chain.from_iterable(rings))) <= {list}
    if valid:
        valid = min(map(len, chain.from_iterable(rings)), default=2) >= 2
    if valid:  # entries past the first two are ignored
        valid = set(map(type, _coordinates(rings))) <= _NUMBERS
    if valid:
        try:
            values = np.fromiter(_coordinates(rings), np.float64, 2 * sum(map(len, rings)))
        except OverflowError:  # an integer past the float range
            valid = False
        else:
            valid = bool(np.isfinite(values).all())
    if not valid:
        raise _bad_position(rings, owners, path)
    return values.reshape(-1, 2)


def load_boundaries(
    path: str | Path,
    roster: Roster,
    report: QualityReport | None = None,
) -> Boundaries:
    """Parse a GeoJSON FeatureCollection into the rings of each feature id.

    Features whose id is not in ``roster``, the cube's, are kept in the result;
    their ids go to the report's ``unmatched_geometry_ids``. Roster ids without
    a feature go to its ``missing_geometry_ids``. Neither condition is fatal.

    The file is read with the cyclic garbage collector paused: the parsed
    document is a container per feature, ring and position, and holds no
    cycle, so a collection while it is alive frees nothing. A document that
    loads is freed before the collector resumes; one that is refused lives
    as long as the traceback of its error. The collector resumes only if it
    was on.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _read_boundaries(Path(path), roster, report)
    finally:
        if collecting:
            gc.enable()


def _read_boundaries(path: Path, roster: Roster, report: QualityReport | None) -> Boundaries:
    doc = load_json(path, IngestError)

    if (
        not isinstance(doc, dict)
        or doc.get("type") != "FeatureCollection"
        or not isinstance(doc.get("features"), list)
    ):
        raise IngestError(f"{path}: expected a GeoJSON FeatureCollection")

    rings: list[list] = []               # the position array of every ring, in file order
    owners: list[str] = []               # the feature id of each ring
    feature_rings: dict[str, list[int]] = {}
    for index, feature in enumerate(doc["features"]):
        if not isinstance(feature, dict):
            raise IngestError(f"{path}: feature #{index} is not a JSON object")
        fid = _feature_id(feature, index, path)
        geometry = feature.get("geometry")
        if not isinstance(geometry, dict):
            raise IngestError(f"{path}: feature {fid!r} has no geometry")
        first = len(rings)
        rings += _ring_arrays(geometry, fid, path)
        owners += [fid] * (len(rings) - first)
        feature_rings.setdefault(fid, []).extend(range(first, len(rings)))

    xy = _points(rings, owners, path)
    lengths = np.fromiter(map(len, rings), np.intp, len(rings))
    ends = np.cumsum(lengths)
    starts = ends - lengths
    unclosed = (xy[starts] != xy[ends - 1]).any(axis=1)
    if unclosed.any():
        xy = np.insert(xy, ends[unclosed], xy[starts[unclosed]], axis=0)
        lengths += unclosed
        ends = np.cumsum(lengths)
        if report is not None:
            report.warnings.extend(f"auto-closed unclosed ring in feature {owners[r]!r}"
                                   for r in np.flatnonzero(unclosed).tolist())

    listed = np.fromiter(map(roster.index.__contains__, owners), bool, len(owners))
    roster_xy = xy if listed.all() else xy[np.repeat(listed, lengths)]
    extent = None
    if len(roster_xy):
        (lon0, lat0), (lon1, lat1) = roster_xy.min(axis=0).tolist(), roster_xy.max(axis=0).tolist()
        extent = (lon0, lat0, lon1, lat1)

    if report is not None:
        report.unmatched_geometry_ids.extend(sorted(feature_rings.keys() - roster.index.keys()))
        if roster.index.keys() - feature_rings.keys():  # read the id order only when one is missing
            report.missing_geometry_ids.extend(m for m in roster.sorted_ids
                                               if m not in feature_rings)
    return Boundaries(xy=xy, ends=ends, extent=extent,
                      rings={fid: tuple(r) for fid, r in feature_rings.items()})


def write_filled_csv(path: str | Path, header: str, template: str, rows) -> None:
    """Write ``header``, then ``template`` once per ``(fields, values)`` of ``rows``,
    with the ``csv.writer`` text of ``fields`` at its NUL and ``values`` at its
    ``%s``: only the fields can need quoting, so the rest is formatted once."""
    quoted = io.StringIO()
    quote = csv.writer(quoted, lineterminator="\n").writerow

    def chunks():
        yield header
        for fields, values in rows:
            quoted.seek(0)
            quoted.truncate()
            quote((*fields, ""))  # cut below with its comma; a lone empty field would be ""
            filled = quoted.getvalue()[:-2].replace("%", "%%")
            yield template.replace("\0", filled) % values

    write_text(path, chunks())


def write_cases_csv(cube: CaseCube, path: str | Path) -> None:
    """Write a CaseCube in the canonical cases schema (round-trip safe): the
    bytes of a ``csv.writer`` row per cell, each (day, group) row formatted
    once per run."""
    template = "".join(f"{day.isoformat()},\0,{g.value},%s\n"
                       for day in cube.axis.dates() for g in GROUPS)
    write_filled_csv(path, ",".join(CASES_COLUMNS) + "\n", template,
                     (((m.id, m.name, m.county), tuple(counts.ravel().tolist()))
                      for m, counts in zip(cube.municipalities, cube.counts)))


def write_populations_csv(table: PopulationTable, path: str | Path) -> None:
    """Write a PopulationTable in the canonical populations schema."""
    template = "".join(f"\0,{g.value},%s\n" for g in GROUPS)
    write_filled_csv(path, ",".join(POPS_COLUMNS) + "\n", template,
                     (((muni.id,), tuple(pops))
                      for muni, pops in zip(table.roster.municipalities, table.pops.tolist())))
