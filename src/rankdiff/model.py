"""Canonical in-memory model: municipalities, groups, the daily case cube,
population table, boundary geometry, and the data-quality report."""

from __future__ import annotations

import datetime as dt
import json
from dataclasses import dataclass, field
from enum import Enum
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


@dataclass(frozen=True)
class Municipality:
    id: str
    name: str
    county: str

    def __post_init__(self) -> None:
        if not self.id:
            raise IngestError("municipality id must be non-empty")


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


def _unique_ids(municipalities: Sequence[Municipality]) -> dict[str, int]:
    """Map each id to its row; raises on a repeated id."""
    index: dict[str, int] = {}
    for i, m in enumerate(municipalities):
        if m.id in index:
            raise IngestError(f"duplicate municipality id {m.id!r}")
        index[m.id] = i
    return index


@dataclass(frozen=True)
class CaseCube:
    """Daily new case counts, shape (M municipalities, N days, K groups)."""

    axis: DateAxis
    municipalities: tuple[Municipality, ...]
    counts: np.ndarray
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_index", _unique_ids(self.municipalities))
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
        self.counts.setflags(write=False)

    @property
    def n_municipalities(self) -> int:
        return len(self.municipalities)

    @property
    def n_days(self) -> int:
        return self.axis.n_days

    def ids(self) -> list[str]:
        return [m.id for m in self.municipalities]

    def index_of(self, municipality_id: str) -> int:
        """Row of ``municipality_id``; raises ``KeyError`` for an unknown id."""
        return self._index[municipality_id]


@dataclass(frozen=True)
class PopulationTable:
    """Group population sizes, shape (M, K), aligned to a municipality roster."""

    municipalities: tuple[Municipality, ...]
    pops: np.ndarray

    def __post_init__(self) -> None:
        _unique_ids(self.municipalities)
        expected = (len(self.municipalities), K)
        if self.pops.shape != expected:
            raise IngestError(f"population shape {self.pops.shape} does not match {expected}")
        if self.pops.dtype.kind not in "iu":
            raise IngestError(f"populations must be integers, got dtype {self.pops.dtype}")
        if (self.pops < 0).any():
            raise IngestError("populations must be non-negative")
        self.pops.setflags(write=False)


# A polygon ring is a closed sequence of (longitude, latitude) pairs in degrees.
Ring = list[tuple[float, float]]


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
