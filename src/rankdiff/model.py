"""Canonical in-memory model: municipalities, groups, the daily case cube,
population table, boundary geometry, and the data-quality report."""

from __future__ import annotations

import datetime as dt
import json
import re
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .errors import IngestError


class Group(str, Enum):
    """The four population groups tracked by the engine, in fixed order.

    OTH is the merge of the Asian, Pacific Islander, and American Indian /
    Alaska Native source categories.
    """

    BAA = "BAA"
    HL = "HL"
    OTH = "OTH"
    W = "W"


GROUPS: tuple[Group, ...] = tuple(Group)
K = len(GROUPS)
GROUP_INDEX: dict[Group, int] = {g: i for i, g in enumerate(GROUPS)}

# Minority groups compared against the W reference in relative-change stats.
MINORITY_GROUPS: tuple[Group, ...] = (Group.BAA, Group.HL, Group.OTH)

INT64_MAX = int(np.iinfo(np.int64).max)  # counts, populations and their totals are int64
NAME_MAX = 255  # bytes in a file name, such as <id>.svg, on common file systems
# Outside XML 1.0's Char: C0 controls but tab, LF and CR; surrogates; U+FFFE and U+FFFF.
_NON_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]").search


@dataclass(frozen=True)
class Municipality:
    """An id, name and county every output can carry: ``<id>.svg`` names a file
    of at most ``NAME_MAX`` bytes under ``dashboards/``, and no text holds a
    character XML 1.0 does not allow. Other text raises ``IngestError`` naming its column."""

    id: str
    name: str
    county: str

    def __post_init__(self) -> None:
        if not self.id:
            raise IngestError("municipality_id must be non-empty")
        if "/" in self.id or "\\" in self.id:
            raise IngestError(f"municipality_id {self.id!r} must not contain '/' or '\\'")
        # A lone surrogate counts its 3 bytes here, so it is refused below as not XML.
        if (size := len(self.id.encode("utf-8", "surrogatepass")) + len(".svg")) > NAME_MAX:
            raise IngestError(f"municipality_id {self.id!r} makes a dashboard file name "
                              f"of {size} bytes, beyond {NAME_MAX}")
        if _NON_XML(self.id + self.name + self.county):  # one search; the column only on error
            for column, text in (("municipality_id", self.id), ("municipality_name", self.name),
                                 ("county", self.county)):
                if _NON_XML(text):
                    raise IngestError(f"{column} {text!r} holds a character "
                                      "that XML does not allow")


@dataclass(frozen=True)
class DateAxis:
    """Contiguous daily axis; day index j is 1-based: day j = start + (j - 1)."""

    start: dt.date
    n_days: int

    def __post_init__(self) -> None:
        if self.n_days < 1:
            raise IngestError(f"n_days must be positive, got {self.n_days}")

    @property
    def end(self) -> dt.date:
        return self.start + dt.timedelta(days=self.n_days - 1)

    def date_of(self, day: int) -> dt.date:
        if not 1 <= day <= self.n_days:
            raise IndexError(f"day {day} outside 1..{self.n_days}")
        return self.start + dt.timedelta(days=day - 1)

    def dates(self) -> Iterator[dt.date]:
        for j in range(1, self.n_days + 1):
            yield self.date_of(j)


@dataclass(frozen=True)
class Roster:
    """The municipalities a table lists, in its row order; ``index`` maps each
    id to its row. ``order``, the rows in ascending-id order, breaks every
    rank tie and orders every id-keyed output; it is sorted on first use."""

    municipalities: tuple[Municipality, ...]
    index: dict[str, int] = field(init=False, repr=False, compare=False)
    ids: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "municipalities", tuple(self.municipalities))
        index: dict[str, int] = {}
        for i, m in enumerate(self.municipalities):
            if m.id in index:
                raise IngestError(f"duplicate municipality id {m.id!r}")
            index[m.id] = i
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "ids", tuple(index))

    @cached_property
    def order(self) -> np.ndarray:
        order = np.array(sorted(range(len(self.ids)), key=self.ids.__getitem__), dtype=np.intp)
        order.setflags(write=False)
        return order

    @cached_property
    def sorted_ids(self) -> tuple[str, ...]:
        return tuple(map(self.ids.__getitem__, self.order.tolist()))

    def check(self, table: Roster, what: str, error: type[Exception]) -> None:
        """The alignment rule where a table meets the cube of this roster."""
        if table is not self and table.ids != self.ids:
            raise error(f"the {what} does not list the cube's municipality ids in the cube's order")


def check_totals(what: str, municipalities: Sequence[Municipality], rows: np.ndarray) -> None:
    """Reject a municipality whose values sum past int64, so its later sums fit.

    ``rows`` holds one row of non-negative integers per municipality; the
    error reads ``{what} of {id} is {total}, beyond {INT64_MAX}``. A float64
    sum screens each row; only rows whose screen reaches 2**62 are summed
    exactly.
    """
    for i in np.flatnonzero(rows.sum(axis=1, dtype=np.float64) >= 2.0**62):
        total = sum(rows[i].tolist())
        if total > INT64_MAX:
            raise IngestError(f"{what} of {municipalities[i].id} is {total}, beyond {INT64_MAX}")


@dataclass(frozen=True)
class CaseCube:
    """Daily new case counts, shape (M municipalities, N days, K groups).

    Each municipality's counts sum to at most ``INT64_MAX``, so every int64
    sum over one municipality's days or groups is exact.
    """

    axis: DateAxis
    municipalities: tuple[Municipality, ...]
    counts: np.ndarray
    roster: Roster = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "roster", Roster(self.municipalities))
        m = len(self.municipalities)
        expected = (m, self.axis.n_days, K)
        if self.counts.shape != expected:
            raise IngestError(
                f"case counts shape {self.counts.shape} does not match "
                f"{expected} (municipalities x days x groups)"
            )
        if self.counts.dtype.kind not in "iu":
            raise IngestError(f"case counts must be integers, got dtype {self.counts.dtype}")
        if (self.counts < 0).any():
            raise IngestError("case counts must be non-negative")
        check_totals("total cases", self.municipalities, self.counts.reshape(m, self.n_days * K))
        self.counts.setflags(write=False)

    @property
    def n_municipalities(self) -> int:
        return len(self.municipalities)

    @property
    def n_days(self) -> int:
        return self.axis.n_days

    def ids(self) -> list[str]:
        return list(self.roster.ids)


@dataclass(frozen=True)
class PopulationTable:
    """Group population sizes, shape (M, K), a row per municipality of ``roster``."""

    roster: Roster
    pops: np.ndarray

    def __post_init__(self) -> None:
        expected = (len(self.roster.municipalities), K)
        if self.pops.shape != expected:
            raise IngestError(f"population shape {self.pops.shape} does not match {expected}")
        if self.pops.dtype.kind not in "iu":
            raise IngestError(f"populations must be integers, got dtype {self.pops.dtype}")
        if (self.pops < 0).any():
            raise IngestError("populations must be non-negative")
        self.pops.setflags(write=False)


@dataclass(frozen=True)
class Boundaries:
    """The polygon rings of a boundary file, every ring closed, in one array.

    Ring ``r`` is the (longitude, latitude) points in degrees
    ``xy[starts[r]:ends[r]]``, its last point equal to its first. ``rings``
    maps each feature id to the indices of its rings in file order; a
    repeated id's rings follow its earlier ones.
    ``extent`` is (lon0, lat0, lon1, lat1), the least and greatest
    coordinates of the rings of the roster the file was read against, or
    ``None`` when no roster id has a point.
    """

    xy: np.ndarray
    ends: np.ndarray
    rings: dict[str, tuple[int, ...]]
    extent: tuple[float, float, float, float] | None

    def __post_init__(self) -> None:
        self.xy.setflags(write=False)
        self.ends.setflags(write=False)

    @property
    def starts(self) -> np.ndarray:
        """The index in ``xy`` of each ring's first point."""
        return np.concatenate(([0], self.ends))[:-1]


@dataclass(frozen=True)
class ClampEvent:
    """One negative first-difference in a cumulative series, clamped to zero."""

    municipality_id: str
    group: Group
    date: dt.date
    drop: int

    def to_dict(self) -> dict:
        return {
            "municipality_id": self.municipality_id,
            "group": self.group.value,
            "date": self.date.isoformat(),
            "drop": self.drop,
        }


@dataclass
class QualityReport:
    """Accumulates data-quality findings across the three loaders."""

    clamps: list[ClampEvent] = field(default_factory=list)
    excluded_groups_totals: dict[str, int] = field(default_factory=dict)
    unmatched_geometry_ids: list[str] = field(default_factory=list)
    missing_geometry_ids: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def has_warnings(self) -> bool:
        return bool(
            self.clamps
            or self.unmatched_geometry_ids
            or self.missing_geometry_ids
            or self.warnings
        )

    def to_dict(self) -> dict:
        return {
            "clamps": [c.to_dict() for c in self.clamps],
            "excluded_groups_totals": dict(sorted(self.excluded_groups_totals.items())),
            "unmatched_geometry_ids": sorted(self.unmatched_geometry_ids),
            "missing_geometry_ids": sorted(self.missing_geometry_ids),
            "warnings": list(self.warnings),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
