"""Rank, persistence, skewness, and relative-change statistics.

Ranks are ordinal 1..M per group, as SciPy's ``method='ordinal'``: municipalities
are ordered by descending value, tied values by ascending municipality id, so
every rank slice is an exact permutation and daily rank differences sum to zero.

``group_stats`` summarizes every (municipality, group) cell at once into a
``GroupStatsTable`` of (M, K) columns, which the classifier and every writer
read directly. ``GroupStats`` is one cell of it (``table.cell``). Each
statistic has one kernel over whole columns, and the scalar
``persistence_index``, ``skewness``, ``special_case`` and ``relative_change``
are one-cell calls of it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from itertools import chain, cycle, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import MetricsError, write_text
from .ingest import write_filled_csv
from .model import (GROUP_INDEX, GROUPS, INT64_MAX, K, CaseCube, Group, Municipality,
                    PopulationTable, Roster)

BASES = ("raw_daily", "ma7", "cumulative")

MA_WINDOW = 7


class Special(str, Enum):
    """Degenerate relative-change cases, keyed to their dashboard markers."""

    NORMAL = "normal"
    UNDEFINED_ZERO_ZERO = "undefined_zero_zero"      # cross: no cases, no population
    POP_ZERO_CASES_NONZERO = "pop_zero_cases_nonzero"  # star: cases despite zero population
    CASES_EXCEED_POP = "cases_exceed_pop"            # triangle: more cases than people


@dataclass(frozen=True)
class RegimeConfig:
    """Rank-difference regime (t_min, t_max]: strict lower, inclusive upper.

    ``t_max=None`` stands for M, the number of municipalities, giving the
    default strictly-positive regime (0, M].
    """

    t_min: float = 0.0
    t_max: float | None = None

    def __post_init__(self) -> None:
        if self.t_max is not None and not self.t_min < self.t_max:
            raise MetricsError(f"regime requires t_min < t_max, got ({self.t_min}, {self.t_max})")

    def resolved(self, n_municipalities: int) -> "RegimeConfig":
        if self.t_max is not None:
            return self
        return RegimeConfig(t_min=self.t_min, t_max=float(n_municipalities))


SPECIALS: tuple[Special, ...] = tuple(Special)  # a GroupStatsTable's special codes index this


@dataclass(frozen=True)
class GroupStats:
    """Per-municipality, per-group summary of the rank-difference series."""

    persistence_pct: float
    skewness: float | None
    relative_change_pct: float | None
    special: Special


@dataclass(frozen=True)
class GroupStatsTable:
    """The ``GroupStats`` of every (municipality, group) cell as (M, K) columns.

    Rows follow ``roster``, the cube's, and columns follow ``GROUPS``. ``skewness``
    is NaN where it is undefined, ``relative_change`` is NaN where there is none
    (the whole W column), and ``special`` holds each cell's index into ``SPECIALS``.
    """

    roster: Roster
    persistence: np.ndarray       # float64 percent
    skewness: np.ndarray          # float64
    relative_change: np.ndarray   # float64 percent
    special: np.ndarray           # int8

    def __post_init__(self) -> None:
        for column in (self.persistence, self.skewness, self.relative_change, self.special):
            column.setflags(write=False)

    def cell(self, municipality_id: str, group: Group) -> GroupStats:
        """One cell as a record, with None for NaN; raises ``KeyError`` for an unknown id."""
        i, k = self.roster.index[municipality_id], GROUP_INDEX[group]
        skew, change = float(self.skewness[i, k]), float(self.relative_change[i, k])
        return GroupStats(persistence_pct=float(self.persistence[i, k]),
                          skewness=None if math.isnan(skew) else skew,
                          relative_change_pct=None if math.isnan(change) else change,
                          special=SPECIALS[self.special[i, k]])


def _ordinal_ranks(values: np.ndarray, by_id: np.ndarray) -> np.ndarray:
    """Ordinal ranks 1..M along axis 0: descending value, ties by ascending id.

    A stable sort by descending value of the rows taken in ``by_id``, their
    ascending-id order, leaves tied rows in id order.
    """
    if values.dtype.kind == "u":
        values = values.astype(np.int64)  # unsigned would wrap under negation
    order = by_id[np.argsort(-values[by_id], axis=0, kind="stable")]
    m = len(by_id)
    ranks = np.empty(values.shape, dtype=np.int64)
    positions = np.arange(1, m + 1).reshape((m,) + (1,) * (values.ndim - 1))
    np.put_along_axis(ranks, order, positions, axis=0)
    return ranks


def rank_population(pops: PopulationTable, roster: Roster) -> np.ndarray:
    """Rank the cube's ``roster`` 1..M by descending group population, per group."""
    roster.check(pops.roster, "population table", MetricsError)
    return _ordinal_ranks(pops.pops, roster.order)


def _basis_values(cube: CaseCube, basis: str) -> np.ndarray:
    if basis == "raw_daily":
        return cube.counts
    if basis == "cumulative":
        return np.cumsum(cube.counts, axis=1, dtype=np.int64)
    if basis == "ma7":
        return moving_average_7d(cube)
    raise MetricsError(f"unknown ranking basis {basis!r}, expected one of {BASES}")


def rank_cases(cube: CaseCube, basis: str = "raw_daily") -> np.ndarray:
    """Rank municipalities 1..M by descending case activity for every day/group.

    ``basis`` selects the ranked quantity: the raw daily count, its trailing
    7-day mean, or the cumulative-to-date total.
    """
    return _ordinal_ranks(_basis_values(cube, basis), cube.roster.order)


def rank_diff(pop_rank: np.ndarray, case_rank: np.ndarray) -> np.ndarray:
    """Population rank minus case rank, elementwise over (i, j, k).

    Positive values mean a municipality sees more cases than its population
    rank predicts.
    """
    if pop_rank.ndim != 2 or case_rank.ndim != 3:
        raise MetricsError("expected pop_rank (M, K) and case_rank (M, N, K)")
    if pop_rank.shape[0] != case_rank.shape[0] or pop_rank.shape[1] != case_rank.shape[2]:
        raise MetricsError(
            f"dimension mismatch: pop_rank {pop_rank.shape} vs case_rank {case_rank.shape}"
        )
    return pop_rank[:, None, :] - case_rank


def moving_average_7d(
    cube: CaseCube,
    scale_by_population: bool = False,
    statewide: bool = False,
    pops: PopulationTable | None = None,
) -> np.ndarray:
    """Trailing 7-day mean of daily counts; the window truncates at day 1.

    With ``statewide`` counts are first summed over municipalities, giving an
    (N, K) series; otherwise the result is (M, N, K). With
    ``scale_by_population`` values are divided by the statewide group
    population and expressed in percent.
    """
    if statewide:  # the running sums below reach each group's total over all cells
        _check_sums(cube.counts.sum(axis=(0, 1), dtype=object), "statewide cases total")
    counts = cube.counts.sum(axis=0) if statewide else cube.counts
    sums = np.cumsum(counts, axis=-2, dtype=np.int64)
    n = cube.n_days
    window = np.minimum(np.arange(1, n + 1), MA_WINDOW)
    head = sums[..., :MA_WINDOW, :]
    tail = sums[..., MA_WINDOW:, :] - sums[..., :-MA_WINDOW, :] if n > MA_WINDOW else sums[..., :0, :]
    ma = np.concatenate([head, tail], axis=-2) / window[:, None]

    if scale_by_population:
        if pops is None:
            raise MetricsError("scale_by_population requires a PopulationTable")
        _check_sums(pops.pops.sum(axis=0, dtype=object), "statewide population")
        totals = pops.pops.sum(axis=0)
        zero = [GROUPS[k].value for k in range(K) if totals[k] == 0]
        if zero:
            raise MetricsError(
                "cannot scale by population: zero statewide total for " + ", ".join(zero)
            )
        ma = ma / totals * 100.0
    return ma


def _check_sums(sums: np.ndarray, what: str) -> None:
    """Raise naming each group, the last axis of the exact ``sums``, where one passes int64."""
    over = [g.value for k, g in enumerate(GROUPS) if max(sums[..., k].flat) > INT64_MAX]
    if over:
        raise MetricsError(f"{what} beyond {INT64_MAX} for " + ", ".join(over))


def statewide_aggregate(cube: CaseCube) -> np.ndarray:
    """Daily counts summed over all municipalities, shape (N, K)."""
    sums = cube.counts.sum(axis=0, dtype=object)  # Python ints, exact
    _check_sums(sums, "statewide daily cases")
    return sums.astype(np.int64)


def _persistence_pcts(x: np.ndarray, regime: RegimeConfig) -> np.ndarray:
    """Percent of values inside (t_min, t_max] along the last axis of ``x``."""
    if regime.t_max is None:
        raise MetricsError("regime upper bound unresolved; call RegimeConfig.resolved(M) first")
    n = x.shape[-1]
    if n == 0:
        raise MetricsError("persistence_index needs a non-empty series")
    hits = ((x > regime.t_min) & (x <= regime.t_max)).sum(axis=-1)
    return 100.0 * hits / n


def _skewnesses(x: np.ndarray) -> np.ndarray:
    """Adjusted skewness along the last axis of a C-contiguous float64 ``x``,
    NaN where it is undefined.

    Each reduction runs over one contiguous series, so it sums in the same
    order as it would over that series alone. ``m2 ** 1.5`` stays the scalar
    C ``pow`` of each value: NumPy's array ``**`` can round differently.
    """
    shape, n = x.shape[:-1], x.shape[-1]
    if n < 3:
        return np.full(shape, np.nan)
    d = x - x.mean(axis=-1, keepdims=True)
    dd = d * d
    m2 = dd.mean(axis=-1)
    m3 = (dd * d).mean(axis=-1)
    adjust = np.sqrt(n * (n - 1.0)) / (n - 2.0)
    scale = np.fromiter(map(pow, m2.ravel().tolist(), repeat(1.5)), np.float64, m2.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        skew = adjust * m3 / scale.reshape(shape)
    skew[m2 == 0.0] = np.nan
    return skew


def persistence_index(series: Sequence[float] | np.ndarray, regime: RegimeConfig) -> float:
    """Percent of days the rank difference sits inside (t_min, t_max]."""
    return float(_persistence_pcts(np.asarray(series, dtype=np.float64), regime))


def skewness(series: Sequence[float] | np.ndarray) -> float | None:
    """Adjusted Fisher-Pearson skewness: sqrt(n(n-1))/(n-2) * m3 / m2^1.5.

    m2 and m3 are central sample moments. Returns None when the series is
    shorter than 3 or constant (m2 = 0), where the coefficient is undefined.
    """
    skew = float(_skewnesses(np.ascontiguousarray(series, dtype=np.float64).reshape(1, -1))[0])
    return None if math.isnan(skew) else skew


def special_case(cases_total: int, population: int) -> Special:
    """Classify a (cumulative cases, population) pair into the marker taxonomy."""
    return relative_change(cases_total, population, 0, 0)[1]


def relative_change(
    cases_total: int,
    population: int,
    ref_cases_total: int,
    ref_population: int,
) -> tuple[float | None, Special]:
    """Percent change of a group's per-capita incidence vs the reference group.

    Returns (H, special). H = 100 * (y - x) / x with y and x the group and
    reference per-capita incidences. H is None whenever it cannot be computed:
    zero group population (cross/star markers) or a degenerate reference
    (zero reference population or zero reference incidence).
    """
    totals, populations = np.zeros((2, 1, K), dtype=object)  # the group in column 0
    totals[0, 0], totals[0, _W] = cases_total, ref_cases_total
    populations[0, 0], populations[0, _W] = population, ref_population
    change, special = (column[0, 0].item() for column in _relative_changes(totals, populations))
    return None if math.isnan(change) else change, SPECIALS[special]


_W = GROUP_INDEX[Group.W]
_CODES = {special: code for code, special in enumerate(SPECIALS)}


def _relative_changes(totals: np.ndarray,
                      populations: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The relative change of every (M, K) cell against its row's W cell, NaN
    where there is none and in the W column, and each cell's special code.

    Each incidence is a total divided by its population as Python ints, which
    rounds the exact quotient once at any size. H = 100 * (y - x) / x follows
    in float64, with y the cell's incidence and x its row's W incidence. H is
    undefined where the cell's population, the W population or x is zero.
    """
    totals, populations = totals.astype(object), populations.astype(object)
    zero = populations == 0
    special = np.select(
        [zero & (totals == 0), zero, totals > populations],
        [_CODES[s] for s in (Special.UNDEFINED_ZERO_ZERO, Special.POP_ZERO_CASES_NONZERO,
                             Special.CASES_EXCEED_POP)],
        _CODES[Special.NORMAL]).astype(np.int8)
    incidence = np.divide(totals, populations, out=np.zeros(totals.shape, dtype=object),
                          where=~zero).astype(np.float64)
    x = incidence[:, _W:_W + 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        change = 100.0 * (incidence - x) / x
    change[zero | zero[:, _W:_W + 1] | (x == 0.0)] = np.nan
    special[:, _W], change[:, _W] = _CODES[Special.NORMAL], np.nan
    return change, special


def group_stats(
    cube: CaseCube,
    pops: PopulationTable,
    rd: np.ndarray,
    regime: RegimeConfig,
) -> GroupStatsTable:
    """Summarize every municipality's rank-difference series, group by group.

    Relative change compares BAA/HL/OTH against the W reference; the W column
    itself carries no relative change and is never special.
    """
    regime = regime.resolved(cube.n_municipalities)
    if rd.shape != cube.counts.shape:
        raise MetricsError(f"rd shape {rd.shape} does not match cube {cube.counts.shape}")
    cube.roster.check(pops.roster, "population table", MetricsError)
    series = np.ascontiguousarray(rd.transpose(0, 2, 1), dtype=np.float64)
    change, special = _relative_changes(cube.counts.sum(axis=1, dtype=np.int64), pops.pops)
    return GroupStatsTable(roster=cube.roster, persistence=_persistence_pcts(series, regime),
                           skewness=_skewnesses(series), relative_change=change, special=special)


def write_rd_csv(path: str | Path, cube: CaseCube, rd: np.ndarray) -> None:
    """Long-form export: municipality_id,group,day,rd with day 1-based.

    Bytes are those of a ``csv.writer`` row per (municipality, group, day) in
    sorted id order, each (group, day) row formatted once per run.
    """
    ids = cube.roster.ids
    template = "".join(f"\0,{g.value},{day},%s\n"
                       for g in GROUPS for day in range(1, cube.n_days + 1))
    write_filled_csv(path, "municipality_id,group,day,rd\n", template,
                     (((ids[i],), tuple(rd[i].T.ravel().tolist()))
                      for i in cube.roster.order.tolist()))


# stats.json is pinned to the bytes of json.dump(doc, indent=2, sort_keys=True)
# plus a newline. That encoder runs in pure Python whenever ``indent`` is set,
# so each municipality's record, whose keys are fixed, is filled into this
# template instead: strings through the same ASCII escaper, floats through
# float.__repr__ as json does, None as null. Keys appear in sorted order.
_GROUP_RECORD = """\
        %s: {
          "persistence_pct": %s,
          "relative_change": %s,
          "skewness": %s,
          "special": %s
        }"""
_RECORD = (
    '    %s: {\n      "county": %s,\n      "groups": {\n'
    + ",\n".join([_GROUP_RECORD] * K)
    + '\n      },\n      "name": %s\n    }'
)
_SORTED_COLUMNS = sorted(range(K), key=lambda k: GROUPS[k].value)
_GROUP_KEYS = [encode_basestring_ascii(GROUPS[k].value) for k in _SORTED_COLUMNS]
_SPECIAL_TEXTS = [encode_basestring_ascii(s.value) for s in SPECIALS]


def _json_floats(values: np.ndarray) -> list[str]:
    """Each value's JSON text, as ``float.__repr__``, with null for NaN."""
    return ["null" if text == "nan" else text for text in map(float.__repr__, values.tolist())]


# Municipalities whose records are formatted at a time: enough for the column
# passes to pay, few enough that one block's texts stay small.
_STATS_BLOCK_ROWS = 256


def _records(municipalities: Sequence[Municipality], stats: GroupStatsTable,
             rows: np.ndarray) -> list[str]:
    """The stats.json record of each of ``rows``; each column of the table
    is turned into text in one pass over the block's cells."""
    cells = np.ix_(rows, _SORTED_COLUMNS)
    texts = list(chain.from_iterable(zip(
        cycle(_GROUP_KEYS), map(float.__repr__, stats.persistence[cells].ravel().tolist()),
        _json_floats(stats.relative_change[cells].ravel()),
        _json_floats(stats.skewness[cells].ravel()),
        map(_SPECIAL_TEXTS.__getitem__, stats.special[cells].ravel().tolist()))))
    width = 5 * K
    return [_RECORD % (encode_basestring_ascii(municipalities[i].id),
                       encode_basestring_ascii(municipalities[i].county),
                       *texts[row * width:(row + 1) * width],
                       encode_basestring_ascii(municipalities[i].name))
            for row, i in enumerate(rows.tolist())]


def write_stats_json(
    path: str | Path,
    cube: CaseCube,
    stats: GroupStatsTable,
    regime: RegimeConfig,
    basis: str,
) -> None:
    """Per-municipality statistics keyed by id, with the window, basis and
    regime, from ``stats``, the table of ``cube``'s roster."""
    regime = regime.resolved(cube.n_municipalities)
    cube.roster.check(stats.roster, "statistics table", MetricsError)
    munis, order = cube.municipalities, cube.roster.order

    def chunks():
        yield '{\n  "basis": %s,\n  "municipalities": {' % encode_basestring_ascii(basis)
        separator = "\n"
        for start in range(0, order.size, _STATS_BLOCK_ROWS):
            rows = order[start:start + _STATS_BLOCK_ROWS]
            yield separator + ",\n".join(_records(munis, stats, rows))
            separator = ",\n"
        yield (
            ("\n  },\n" if order.size else "},\n")
            + '  "regime": {\n    "t_max": %s,\n    "t_min": %s\n  },\n'
            '  "window": {\n    "end": %s,\n    "n_days": %s,\n    "start": %s\n  }\n}\n'
            % (json.dumps(regime.t_max), json.dumps(regime.t_min),
               encode_basestring_ascii(cube.axis.end.isoformat()), json.dumps(cube.n_days),
               encode_basestring_ascii(cube.axis.start.isoformat()))
        )

    write_text(path, chunks())
