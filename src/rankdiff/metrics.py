"""Rank, persistence, skewness, and relative-change statistics.

Ranks are dense 1..M per group: municipalities are ordered by descending
value and ties are broken by ascending municipality id, so every rank slice
is an exact permutation and daily rank differences sum to zero.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import MetricsError
from .model import GROUPS, INT64_MAX, K, MINORITY_GROUPS, CaseCube, Group, PopulationTable

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


@dataclass(frozen=True)
class GroupStats:
    """Per-municipality, per-group summary of the rank-difference series."""

    persistence_pct: float
    skewness: float | None
    relative_change_pct: float | None
    special: Special

    def to_dict(self) -> dict:
        return {
            "persistence_pct": self.persistence_pct,
            "skewness": self.skewness,
            "relative_change": self.relative_change_pct,
            "special": self.special.value,
        }


def _dense_ranks(values: np.ndarray, ids: Sequence[str]) -> np.ndarray:
    """Dense ranks 1..M along axis 0: descending value, ties by ascending id.

    A stable sort by descending value of the rows taken in ascending-id order
    leaves tied rows in id order. ``ids`` names the rows of ``values``.
    """
    if values.dtype.kind == "u":
        values = values.astype(np.int64)  # unsigned would wrap under negation
    by_id = np.argsort(np.array(ids))
    order = by_id[np.argsort(-values[by_id], axis=0, kind="stable")]
    m = len(by_id)
    ranks = np.empty(values.shape, dtype=np.int64)
    positions = np.arange(1, m + 1).reshape((m,) + (1,) * (values.ndim - 1))
    np.put_along_axis(ranks, order, positions, axis=0)
    return ranks


def rank_population(pops: PopulationTable) -> np.ndarray:
    """Rank municipalities 1..M by descending group population, per group."""
    return _dense_ranks(pops.pops, [m.id for m in pops.municipalities])


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
    return _dense_ranks(_basis_values(cube, basis), cube.ids())


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
        _check_sums(cube.counts.sum(axis=(0, 1), dtype=object), "cases total")
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
        _check_sums(pops.pops.sum(axis=0, dtype=object), "population")
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
        raise MetricsError(f"statewide {what} beyond {INT64_MAX} for " + ", ".join(over))


def statewide_aggregate(cube: CaseCube) -> np.ndarray:
    """Daily counts summed over all municipalities, shape (N, K)."""
    sums = cube.counts.sum(axis=0, dtype=object)  # Python ints, exact
    _check_sums(sums, "daily cases")
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


def _skewnesses(x: np.ndarray) -> list[float | None]:
    """Adjusted skewness along the last axis of a C-contiguous float64 ``x``.

    Each reduction runs over one contiguous series, so it sums in the same
    order as it would over that series alone. The last step stays a scalar
    expression: NumPy's array ``**`` can round differently from the scalar one.
    """
    n = x.shape[-1]
    if n < 3:
        return [None] * math.prod(x.shape[:-1])
    d = x - x.mean(axis=-1, keepdims=True)
    dd = d * d
    m2 = dd.mean(axis=-1)
    m3 = (dd * d).mean(axis=-1)
    adjust = np.sqrt(n * (n - 1.0)) / (n - 2.0)
    return [
        None if s2 == 0.0 else float(adjust * s3 / s2**1.5) for s2, s3 in zip(m2.flat, m3.flat)
    ]


def persistence_index(series: Sequence[float] | np.ndarray, regime: RegimeConfig) -> float:
    """Percent of days the rank difference sits inside (t_min, t_max]."""
    return float(_persistence_pcts(np.asarray(series, dtype=np.float64), regime))


def skewness(series: Sequence[float] | np.ndarray) -> float | None:
    """Adjusted Fisher-Pearson skewness: sqrt(n(n-1))/(n-2) * m3 / m2^1.5.

    m2 and m3 are central sample moments. Returns None when the series is
    shorter than 3 or constant (m2 = 0), where the coefficient is undefined.
    """
    return _skewnesses(np.ascontiguousarray(series, dtype=np.float64).reshape(1, -1))[0]


def special_case(cases_total: int, population: int) -> Special:
    """Classify a (cumulative cases, population) pair into the marker taxonomy."""
    if population == 0:
        return Special.UNDEFINED_ZERO_ZERO if cases_total == 0 else Special.POP_ZERO_CASES_NONZERO
    if cases_total > population:
        return Special.CASES_EXCEED_POP
    return Special.NORMAL


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
    special = special_case(cases_total, population)
    if population == 0 or ref_population == 0:
        return None, special
    x = ref_cases_total / ref_population
    if x == 0.0:
        return None, special
    y = cases_total / population
    return 100.0 * (y - x) / x, special


def group_stats(
    cube: CaseCube,
    pops: PopulationTable,
    rd: np.ndarray,
    regime: RegimeConfig,
) -> dict[str, dict[Group, GroupStats]]:
    """Assemble per-municipality, per-group statistics from a rank-difference tensor.

    Relative change compares BAA/HL/OTH against the W reference; the W entry
    itself carries no relative change.
    """
    regime = regime.resolved(cube.n_municipalities)
    if rd.shape != cube.counts.shape:
        raise MetricsError(f"rd shape {rd.shape} does not match cube {cube.counts.shape}")
    totals = cube.counts.sum(axis=1, dtype=np.int64).tolist()
    populations = pops.pops.tolist()
    series = np.ascontiguousarray(rd.transpose(0, 2, 1), dtype=np.float64)
    persistence = _persistence_pcts(series, regime).tolist()
    skews = _skewnesses(series)
    w = GROUPS.index(Group.W)
    out: dict[str, dict[Group, GroupStats]] = {}
    for i, muni in enumerate(cube.municipalities):
        per_group: dict[Group, GroupStats] = {}
        for k, g in enumerate(GROUPS):
            if g in MINORITY_GROUPS:
                h, special = relative_change(
                    totals[i][k], populations[i][k], totals[i][w], populations[i][w]
                )
            else:
                h, special = None, Special.NORMAL
            per_group[g] = GroupStats(
                persistence_pct=persistence[i][k],
                skewness=skews[i * K + k],
                relative_change_pct=h,
                special=special,
            )
        out[muni.id] = per_group
    return out


def write_rd_csv(path: str | Path, cube: CaseCube, rd: np.ndarray) -> None:
    """Long-form export: municipality_id,group,day,rd with day 1-based."""
    order = sorted(range(cube.n_municipalities), key=lambda i: cube.municipalities[i].id)
    days = range(1, cube.n_days + 1)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["municipality_id", "group", "day", "rd"])
        for i in order:
            mid = cube.municipalities[i].id
            for g, values in zip(GROUPS, rd[i].T.tolist()):
                writer.writerows(zip(repeat(mid), repeat(g.value), days, values))


def stats_document(
    cube: CaseCube,
    stats: dict[str, dict[Group, GroupStats]],
    regime: RegimeConfig,
    basis: str,
) -> dict:
    """JSON-ready stats document keyed by municipality id."""
    regime = regime.resolved(cube.n_municipalities)
    municipalities = {}
    for muni in cube.municipalities:
        municipalities[muni.id] = {
            "name": muni.name,
            "county": muni.county,
            "groups": {g.value: s.to_dict() for g, s in stats[muni.id].items()},
        }
    return {
        "window": {
            "start": cube.axis.start.isoformat(),
            "end": cube.axis.end.isoformat(),
            "n_days": cube.n_days,
        },
        "basis": basis,
        "regime": {"t_min": regime.t_min, "t_max": regime.t_max},
        "municipalities": municipalities,
    }


def write_stats_json(
    path: str | Path,
    cube: CaseCube,
    stats: dict[str, dict[Group, GroupStats]],
    regime: RegimeConfig,
    basis: str,
) -> None:
    doc = stats_document(cube, stats, regime, basis)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
