import datetime as dt
import json
import math
import tempfile
from itertools import repeat
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankdiff import metrics
from rankdiff.errors import MetricsError
from rankdiff.metrics import (
    SPECIALS,
    GroupStats,
    RegimeConfig,
    Special,
    group_stats,
    moving_average_7d,
    persistence_index,
    rank_cases,
    rank_diff,
    rank_population,
    relative_change,
    skewness,
    special_case,
    statewide_aggregate,
    write_rd_csv,
    write_stats_json,
)
from rankdiff.model import (GROUPS, INT64_MAX, MINORITY_GROUPS, CaseCube, DateAxis, Group,
                            Municipality)
from rankdiff.oracle import oracle_stats
from rankdiff.synth import SynthSpec, generate

from conftest import (make_cube, make_pops, random_cube, random_pops_for, reference_csv_writer,
                      stats_table, writable_ids, writable_text)


def ranks_by_sort(values, ids):
    """Independent oracle: explicit sort by (-value, id)."""
    order = sorted(range(len(values)), key=lambda i: (-values[i], ids[i]))
    ranks = [0] * len(values)
    for r, i in enumerate(order, start=1):
        ranks[i] = r
    return ranks


class TestRankPopulation:
    def test_descending_order(self):
        table = make_pops([[1000] * 4, [50] * 4, [200] * 4], ids=["a", "b", "c"])
        ranks = rank_population(table, table.roster)
        assert ranks[:, 0].tolist() == [1, 3, 2]

    def test_two_largest_cities(self):
        table = make_pops(
            [[600000] * 4, [270000] * 4, [75000] * 4],
            ids=["milwaukee", "madison", "green-bay"],
        )
        ranks = rank_population(table, table.roster)
        assert ranks[0, 0] == 1  # Milwaukee
        assert ranks[1, 0] == 2  # Madison

    def test_tie_broken_by_id(self):
        table = make_pops([[7] * 4, [7] * 4, [7] * 4], ids=["c", "a", "b"])
        ranks = rank_population(table, table.roster)
        # ascending id order: a=1, b=2, c=3
        assert ranks[:, 0].tolist() == [3, 1, 2]

    def test_zero_populations_rank_last(self):
        table = make_pops([[0] * 4, [10] * 4], ids=["a", "b"])
        assert rank_population(table, table.roster)[:, 0].tolist() == [2, 1]


class TestRankCases:
    def test_all_zero_day_is_id_order(self):
        cube = make_cube(np.zeros((3, 1, 4), dtype=int), ids=["c", "a", "b"])
        ranks = rank_cases(cube)
        assert ranks[:, 0, 0].tolist() == [3, 1, 2]

    def test_tie_rule(self):
        counts = np.zeros((3, 1, 4), dtype=int)
        counts[:, 0, 0] = [3, 9, 9]
        cube = make_cube(counts, ids=["a", "b", "c"])
        assert rank_cases(cube)[:, 0, 0].tolist() == [3, 1, 2]

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_sort_oracle(self, seed):
        rng = np.random.default_rng(seed)
        cube = make_cube(rng.integers(0, 6, size=(5, 8, 4)))
        ranks = rank_cases(cube)
        ids = cube.ids()
        for j in range(cube.n_days):
            for k in range(4):
                expected = ranks_by_sort(cube.counts[:, j, k].tolist(), ids)
                assert ranks[:, j, k].tolist() == expected

    def test_cumulative_basis(self):
        counts = np.zeros((2, 3, 4), dtype=int)
        counts[0, :, 0] = [5, 0, 0]   # cumulative 5,5,5
        counts[1, :, 0] = [1, 1, 4]   # cumulative 1,2,6
        cube = make_cube(counts, ids=["a", "b"])
        ranks = rank_cases(cube, basis="cumulative")
        assert ranks[:, 0, 0].tolist() == [1, 2]
        assert ranks[:, 1, 0].tolist() == [1, 2]
        assert ranks[:, 2, 0].tolist() == [2, 1]

    def test_ma7_basis_differs_from_raw(self):
        counts = np.zeros((2, 8, 4), dtype=int)
        counts[0, :, 0] = [9, 0, 0, 0, 0, 0, 0, 0]
        counts[1, :, 0] = [0, 2, 2, 2, 2, 2, 2, 2]
        cube = make_cube(counts, ids=["a", "b"])
        raw = rank_cases(cube, basis="raw_daily")
        smoothed = rank_cases(cube, basis="ma7")
        # day 2: raw ranks b first; the smoothed series still favors a (9/2 vs 2/2)
        assert raw[:, 1, 0].tolist() == [2, 1]
        assert smoothed[:, 1, 0].tolist() == [1, 2]

    def test_unknown_basis(self):
        cube = make_cube(np.zeros((2, 1, 4), dtype=int))
        with pytest.raises(MetricsError, match="basis"):
            rank_cases(cube, basis="weekly")


class TestRankDiff:
    def test_identity_ranks_give_zero(self):
        cube = random_cube(3)
        pops = random_pops_for(cube, 3)
        case = rank_cases(cube)
        rd = rank_diff(case[:, 0, :], case)  # pop_rank equal to day-0 case rank
        assert (rd[:, 0, :] == 0).all()

    def test_two_city_swap(self):
        pop_rank = np.array([[1], [2]])
        case_rank = np.array([[[2]], [[1]]])
        rd = rank_diff(pop_rank, case_rank)
        assert rd[:, 0, 0].tolist() == [-1, 1]

    def test_dimension_mismatch(self):
        with pytest.raises(MetricsError, match="mismatch"):
            rank_diff(np.ones((3, 4), dtype=int), np.ones((2, 5, 4), dtype=int))

    def test_misaligned_population_table_is_not_ranked(self):
        """Population ranks are paired with case ranks by row, so a table that
        lists the cube's ids in another order is refused where it is ranked:
        read by its own rows it would give rd [1, -1] where the aligned table
        gives [0, 0]."""
        cube = make_cube([[[5, 0, 0, 0]], [[1, 0, 0, 0]]], ids=["a", "b"])
        aligned = make_pops([[100, 1, 1, 1], [10, 1, 1, 1]], ids=["a", "b"])
        rd = rank_diff(rank_population(aligned, cube.roster), rank_cases(cube))
        assert rd[:, 0, 0].tolist() == [0, 0]
        for ids in (["b", "a"], ["a", "c"]):
            with pytest.raises(MetricsError, match="does not list the cube's municipality ids"):
                rank_diff(rank_population(make_pops(aligned.pops[::-1], ids=ids), cube.roster),
                          rank_cases(cube))

    def test_full_year_statewide_scale(self):
        pops_col = [1000 * (i + 7) for i in range(190)]
        spec = SynthSpec(
            m=190, n_days=365,
            populations=tuple((p, p, p, p) for p in pops_col),
            lam=tuple((1.0,) * 4 for _ in range(190)),
            seed=11,
        )
        cube, table = generate(spec)
        rd = rank_diff(rank_population(table, cube.roster), rank_cases(cube))
        assert rd.sum(axis=0).max() == 0 and rd.sum(axis=0).min() == 0
        assert rd.max() <= 189 and rd.min() >= -189

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_permutation_and_zero_sum(self, seed):
        cube = random_cube(seed)
        pops = random_pops_for(cube, seed)
        m = cube.n_municipalities
        pop_rank = rank_population(pops, cube.roster)
        case_rank = rank_cases(cube)
        expected = list(range(1, m + 1))
        for k in range(4):
            assert sorted(pop_rank[:, k].tolist()) == expected
            for j in range(cube.n_days):
                assert sorted(case_rank[:, j, k].tolist()) == expected
        rd = rank_diff(pop_rank, case_rank)
        assert (rd.sum(axis=0) == 0).all()
        assert (np.abs(rd) <= m - 1).all()

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), factor=st.integers(2, 9))
    def test_day_scaling_leaves_ranks_unchanged(self, seed, factor):
        cube = random_cube(seed)
        ranks = rank_cases(cube)
        day = seed % cube.n_days
        scaled_counts = cube.counts.copy()
        scaled_counts[:, day, :] *= factor
        scaled = make_cube(scaled_counts, ids=cube.ids())
        assert np.array_equal(rank_cases(scaled)[:, day, :], ranks[:, day, :])

    def test_strictly_larger_value_gets_better_rank(self):
        rng = np.random.default_rng(0)
        cube = make_cube(rng.integers(0, 5, size=(6, 4, 4)))
        ranks = rank_cases(cube)
        for j in range(4):
            for k in range(4):
                values = cube.counts[:, j, k]
                for a in range(6):
                    for b in range(6):
                        if values[a] > values[b]:
                            assert ranks[a, j, k] < ranks[b, j, k]


class TestMovingAverage:
    def test_constant_series_invariant(self):
        counts = np.full((1, 20, 4), 6, dtype=int)
        cube = make_cube(counts)
        ma = moving_average_7d(cube)
        assert np.allclose(ma, 6.0)
        assert (ma == 6.0).all()

    def test_truncated_window(self):
        counts = np.zeros((1, 7, 4), dtype=int)
        counts[0, 6, 0] = 7
        cube = make_cube(counts)
        ma = moving_average_7d(cube)
        assert ma[0, 6, 0] == 1.0
        assert ma[0, 5, 0] == 0.0

    def test_window_slides_after_day_seven(self):
        counts = np.zeros((1, 9, 4), dtype=int)
        counts[0, 0, 0] = 7
        cube = make_cube(counts)
        ma = moving_average_7d(cube)
        assert ma[0, 0, 0] == 7.0
        assert ma[0, 6, 0] == 1.0
        assert ma[0, 7, 0] == 0.0  # day 1 left the window

    def test_statewide_sums_municipalities(self):
        counts = np.zeros((2, 1, 4), dtype=int)
        counts[:, 0, 0] = [3, 4]
        cube = make_cube(counts)
        ma = moving_average_7d(cube, statewide=True)
        assert ma.shape == (1, 4)
        assert ma[0, 0] == 7.0

    def test_scaled_percent(self):
        counts = np.full((1, 7, 4), 5, dtype=int)
        cube = make_cube(counts)
        pops = make_pops([[1000, 1000, 1000, 1000]])
        ma = moving_average_7d(cube, scale_by_population=True, statewide=True, pops=pops)
        assert np.allclose(ma, 0.5)

    def test_scale_with_zero_total_population_errors(self):
        cube = make_cube(np.zeros((1, 3, 4), dtype=int))
        pops = make_pops([[0, 10, 10, 10]])
        with pytest.raises(MetricsError, match="BAA"):
            moving_average_7d(cube, scale_by_population=True, statewide=True, pops=pops)

    def test_statewide_sum_beyond_int64_errors(self):
        counts = np.zeros((2, 2, 4), dtype=np.int64)
        counts[:, 0, 0] = INT64_MAX // 2 + 1
        with pytest.raises(MetricsError, match=rf"cases total beyond {INT64_MAX} for BAA$"):
            moving_average_7d(make_cube(counts), statewide=True)

    def test_statewide_running_sum_beyond_int64_errors(self):
        """Each day's statewide sum fits; their running sum over days does not."""
        counts = np.zeros((2, 2, 4), dtype=np.int64)
        counts[0, 0, 1] = counts[1, 1, 1] = INT64_MAX // 2 + 1
        assert statewide_aggregate(make_cube(counts))[:, 1].tolist() == [INT64_MAX // 2 + 1] * 2
        with pytest.raises(MetricsError, match=r"statewide cases total beyond \d+ for HL$"):
            moving_average_7d(make_cube(counts), statewide=True)

    def test_statewide_population_beyond_int64_errors(self):
        cube = make_cube(np.zeros((2, 3, 4), dtype=int))
        pops = make_pops([[1, 1, INT64_MAX, 1], [1, 1, 1, 1]])
        with pytest.raises(MetricsError, match=r"statewide population beyond \d+ for OTH$"):
            moving_average_7d(cube, scale_by_population=True, statewide=True, pops=pops)

    def test_running_sum_of_int64_max_accepted(self):
        counts = np.zeros((2, 2, 4), dtype=np.int64)
        counts[1, :, 3] = [2**62, 2**62 - 1]
        cube = make_cube(counts)
        assert moving_average_7d(cube)[1, :, 3].tolist() == [2.0**62, INT64_MAX / 2]
        assert rank_cases(cube, "cumulative")[:, :, 3].tolist() == [[2, 2], [1, 1]]

    def test_scale_requires_pops(self):
        cube = make_cube(np.zeros((1, 3, 4), dtype=int))
        with pytest.raises(MetricsError, match="PopulationTable"):
            moving_average_7d(cube, scale_by_population=True)


class TestPersistence:
    def test_full_membership(self):
        assert persistence_index([5] * 10, RegimeConfig(0.0, 190.0)) == 100.0

    def test_zero_excluded_by_strict_lower_bound(self):
        assert persistence_index([0] * 10, RegimeConfig(0.0, 190.0)) == 0.0

    def test_upper_bound_inclusive(self):
        assert persistence_index([3, 3, 3], RegimeConfig(0.0, 3.0)) == 100.0

    def test_direct_count(self):
        series = [1] * 73 + [0] * 292
        assert persistence_index(series, RegimeConfig(0.0, 190.0)) == 20.0

    def test_unbounded_regime_gives_100(self):
        series = [-5, 0, 3, 190]
        regime = RegimeConfig(float("-inf"), float("inf"))
        assert persistence_index(series, regime) == 100.0

    def test_unresolved_regime_rejected(self):
        with pytest.raises(MetricsError, match="unresolved"):
            persistence_index([1, 2], RegimeConfig())

    def test_empty_series_rejected(self):
        with pytest.raises(MetricsError, match="non-empty"):
            persistence_index([], RegimeConfig(0.0, 10.0))

    def test_invalid_regime(self):
        with pytest.raises(MetricsError, match="t_min < t_max"):
            RegimeConfig(5.0, 5.0)

    def test_default_resolves_to_m(self):
        assert RegimeConfig().resolved(190) == RegimeConfig(0.0, 190.0)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(-10, 10), min_size=1, max_size=50))
    def test_bounds(self, series):
        per = persistence_index(series, RegimeConfig(0.0, 10.0))
        assert 0.0 <= per <= 100.0
        all_inside = all(0 < v <= 10 for v in series)
        assert (per == 100.0) == all_inside


class TestSkewness:
    def test_symmetric_is_zero(self):
        assert skewness([-2, -1, 0, 1, 2]) == 0.0

    def test_derived_value(self):
        # direct moment formula: sqrt(12)/2 * m3/m2^1.5 with m2=0.1875, m3=0.09375
        assert skewness([0, 0, 0, 1]) == pytest.approx(2.0, abs=1e-12)

    def test_constant_series_undefined(self):
        assert skewness([4, 4, 4, 4]) is None

    def test_too_short_undefined(self):
        assert skewness([1, 2]) is None

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-50, 50), min_size=3, max_size=40))
    def test_sign_antisymmetry(self, series):
        s = skewness(series)
        neg = skewness([-v for v in series])
        if s is None:
            assert neg is None
        else:
            assert neg == pytest.approx(-s, abs=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(-50, 50), min_size=3, max_size=40),
        st.sampled_from([-3.0, -0.5, 0.25, 2.0]),
        st.integers(-20, 20),
    )
    def test_location_scale_invariance(self, series, a, b):
        s = skewness(series)
        transformed = skewness([a * v + b for v in series])
        if s is None:
            assert transformed is None
        else:
            assert transformed == pytest.approx(math.copysign(1.0, a) * s, abs=1e-8)


class TestRelativeChange:
    def test_proportional_incidence_is_zero(self):
        h, special = relative_change(5, 100, 10, 200)
        assert h == 0.0
        assert special is Special.NORMAL

    def test_paper_magnitude(self):
        h, _ = relative_change(13, 1024, 2, 1024)
        assert h == pytest.approx(550.0, abs=1e-9)

    def test_cross(self):
        h, special = relative_change(0, 0, 10, 100)
        assert h is None and special is Special.UNDEFINED_ZERO_ZERO

    def test_star(self):
        h, special = relative_change(3, 0, 10, 100)
        assert h is None and special is Special.POP_ZERO_CASES_NONZERO

    def test_triangle_keeps_value(self):
        h, special = relative_change(8, 5, 10, 100)
        assert special is Special.CASES_EXCEED_POP
        assert h == pytest.approx(100.0 * (8 / 5 - 0.1) / 0.1)

    def test_zero_reference_population_undefined(self):
        h, special = relative_change(5, 100, 10, 0)
        assert h is None and special is Special.NORMAL

    def test_zero_reference_incidence_undefined(self):
        h, special = relative_change(5, 100, 0, 200)
        assert h is None and special is Special.NORMAL

    @pytest.mark.parametrize("cp,p", [(0, 0), (1, 0), (5, 2), (2, 5), (5, 5)])
    def test_taxonomy(self, cp, p):
        if p == 0 and cp == 0:
            expected = Special.UNDEFINED_ZERO_ZERO
        elif p == 0:
            expected = Special.POP_ZERO_CASES_NONZERO
        elif cp > p:
            expected = Special.CASES_EXCEED_POP
        else:
            expected = Special.NORMAL
        assert special_case(cp, p) is expected


class TestStatewideAggregate:
    def test_two_municipalities(self):
        counts = np.zeros((2, 1, 4), dtype=int)
        counts[:, 0, 0] = [3, 4]
        assert statewide_aggregate(make_cube(counts))[0, 0] == 7

    def test_zero_cube(self):
        assert not statewide_aggregate(make_cube(np.zeros((3, 4, 4), dtype=int))).any()

    def test_sum_beyond_int64_errors(self):
        counts = np.zeros((2, 1, 4), dtype=np.int64)
        counts[:, 0, 0] = INT64_MAX // 2 + 1
        counts[:, 0, 3] = INT64_MAX // 2
        with pytest.raises(MetricsError, match=rf"daily cases beyond {INT64_MAX} for BAA$"):
            statewide_aggregate(make_cube(counts))

    def test_sum_up_to_int64_max(self):
        counts = np.zeros((2, 1, 4), dtype=np.int64)
        counts[:, 0, 0] = [INT64_MAX // 2, INT64_MAX // 2 + 1]
        assert statewide_aggregate(make_cube(counts))[0].tolist() == [INT64_MAX, 0, 0, 0]

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_matches_bruteforce(self, seed):
        cube = random_cube(seed, max_m=5)
        agg = statewide_aggregate(cube)
        for j in range(cube.n_days):
            for k in range(4):
                assert agg[j, k] == sum(
                    int(cube.counts[i, j, k]) for i in range(cube.n_municipalities)
                )
        assert agg.sum() == cube.counts.sum()


class TestGroupStats:
    def test_w_group_has_no_relative_change(self):
        cube = random_cube(9)
        pops = random_pops_for(cube, 9)
        rd = rank_diff(rank_population(pops, cube.roster), rank_cases(cube))
        stats = group_stats(cube, pops, rd, RegimeConfig())
        assert stats.roster is cube.roster
        for mid in cube.ids():
            assert stats.cell(mid, Group.W).relative_change_pct is None
            assert stats.cell(mid, Group.W).special is Special.NORMAL
        w = GROUPS.index(Group.W)
        assert np.isnan(stats.relative_change[:, w]).all()
        assert (stats.special[:, w] == SPECIALS.index(Special.NORMAL)).all()

    def test_stats_match_direct_calls(self):
        cube = random_cube(21)
        pops = random_pops_for(cube, 21)
        rd = rank_diff(rank_population(pops, cube.roster), rank_cases(cube))
        regime = RegimeConfig().resolved(cube.n_municipalities)
        stats = group_stats(cube, pops, rd, regime)
        i = 0
        mid = cube.ids()[0]
        for k, g in enumerate(GROUPS):
            s = stats.cell(mid, g)
            assert s.persistence_pct == persistence_index(rd[i, :, k], regime)
            assert s.skewness == skewness(rd[i, :, k])

    def test_shape_mismatch_rejected(self):
        cube = random_cube(2)
        pops = random_pops_for(cube, 2)
        with pytest.raises(MetricsError, match="rd shape"):
            group_stats(cube, pops, np.zeros((1, 1, 4), dtype=int), RegimeConfig())

    def test_misaligned_population_roster_rejected(self):
        """Populations are read by the cube's rows, so a table that lists the
        cube's ids in another order, or other ids, is refused, not misread."""
        counts = np.zeros((2, 1, 4), dtype=np.int64)
        counts[0, 0] = [50, 0, 0, 10]
        cube, rd = make_cube(counts, ids=["a", "b"]), np.zeros(counts.shape, dtype=np.int64)
        pops = [[1000, 10, 10, 1000], [10, 10, 10, 1000]]
        stats = group_stats(cube, make_pops(pops, ids=["a", "b"]), rd, RegimeConfig())
        assert stats.cell("a", Group.BAA) == GroupStats(0.0, None, 400.0, Special.NORMAL)
        for ids, rows in ((["b", "a"], pops[::-1]), (["a", "c"], pops), (["a"], pops[:1])):
            with pytest.raises(MetricsError, match="does not list the cube's municipality ids"):
                group_stats(cube, make_pops(rows, ids=ids), rd, RegimeConfig())

    def test_cell_of_an_unknown_id(self):
        stats = stats_table({"a": [GroupStats(0.0, None, None, Special.NORMAL)] * 4})
        with pytest.raises(KeyError):
            stats.cell("b", Group.BAA)


def skewness_by_scalars(series) -> float | None:
    """The skewness as one series' NumPy moments and scalar last steps: the
    order of operations a table cell must reproduce bit for bit."""
    x = np.asarray(series, dtype=np.float64)
    n = x.size
    if n < 3:
        return None
    d = x - x.mean()
    dd = d * d
    s2, s3 = dd.mean(), (dd * d).mean()
    if s2 == 0.0:
        return None
    return float(np.sqrt(n * (n - 1.0)) / (n - 2.0) * s3 / s2**1.5)


# Totals and populations where float64 stops being exact, and at int64's end.
EDGE_INTS = (0, 1, 2, 3, 2**53 - 1, 2**53, 2**53 + 1, 2**62, INT64_MAX - 1, INT64_MAX)
cell_ints = st.one_of(st.sampled_from(EDGE_INTS), st.integers(0, 100), st.integers(0, INT64_MAX))


@st.composite
def totals_pops_rd(draw):
    """(M, 4) case totals whose rows sum to at most int64's maximum, (M, 4)
    populations and an (M, N, 4) rd."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    totals = []
    for _ in range(m):
        room, row = INT64_MAX, [0] * 4
        for k in draw(st.permutations(range(4))):  # which group may take the most
            row[k] = min(draw(cell_ints), room)
            room -= row[k]
        totals.append(row)
    pops = draw(st.lists(st.lists(cell_ints, min_size=4, max_size=4), min_size=m, max_size=m))
    rd = draw(st.lists(st.integers(-m, m), min_size=m * n * 4, max_size=m * n * 4))
    return totals, pops, np.array(rd, dtype=np.int64).reshape(m, n, 4)


TABLE_EXAMPLES = [
    # every float64 edge in one row, and a row that overflows float64's integers
    ([[2**53 + 1, 2**53 - 1, 2**53, 2**53 + 1], [INT64_MAX - 3, 1, 1, 1]],
     [[2**53 - 1, 2**53 + 1, INT64_MAX, 2**53], [INT64_MAX, 3, 0, INT64_MAX]]),
    # zero group population with and without cases, zero W population
    ([[0, 5, 2, 7], [1, 0, 2, 5]], [[0, 0, 9, 70], [10, 0, 0, 0]]),
    # zero W incidence, with and without a minority over its population
    ([[3, 4, 0, 0], [0, 0, 0, 0]], [[10, 2, 0, 100], [1, 1, 1, 1]]),
]


class TestGroupStatsTable:
    """Every cell of the table equals the scalar definitions, and its relative
    change and special case equal the oracle's, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(totals_pops_rd(), st.sampled_from((RegimeConfig(), RegimeConfig(-2.0, 1.0))))
    @example((*TABLE_EXAMPLES[0], np.arange(2 * 5 * 4).reshape(2, 5, 4) % 3 - 1), RegimeConfig())
    @example((*TABLE_EXAMPLES[1], np.zeros((2, 3, 4), dtype=np.int64)), RegimeConfig())
    @example((*TABLE_EXAMPLES[2], np.ones((2, 1, 4), dtype=np.int64)), RegimeConfig())
    def test_cells_equal_scalar_definitions(self, data, regime):
        totals, populations, rd = data
        m, n = rd.shape[:2]
        counts = np.zeros((m, n, 4), dtype=np.int64)
        counts[:, 0, :] = totals
        cube, pops = make_cube(counts), make_pops(populations)
        stats = group_stats(cube, pops, rd, regime)
        resolved = regime.resolved(m)
        o = oracle_stats(cube, pops, (resolved.t_min, resolved.t_max))
        w = GROUPS.index(Group.W)
        for i, mid in enumerate(cube.ids()):
            for k, g in enumerate(GROUPS):
                if g is Group.W:
                    change, special = None, Special.NORMAL
                else:
                    kk = MINORITY_GROUPS.index(g)
                    change, special = o["relative_change"][i][kk], Special(o["special"][i][kk])
                    assert repr(relative_change(totals[i][k], populations[i][k], totals[i][w],
                                                populations[i][w])) == repr((change, special))
                    assert special is special_case(totals[i][k], populations[i][k])
                expected = GroupStats(persistence_index(rd[i, :, k], resolved),
                                      skewness(rd[i, :, k]), change, special)
                assert expected.skewness == skewness_by_scalars(rd[i, :, k])
                cell = stats.cell(mid, g)
                assert cell == expected
                assert repr(cell) == repr(expected)  # also the sign of a zero

    def test_table_equals_oracle(self):
        """Persistence, relative change and special equal the oracle's lists
        exactly. The oracle sums moments with math.fsum, so skewness agrees to
        the acceptance tolerance, and is undefined in the same cells."""
        for seed in range(40):
            cube = random_cube(seed, max_m=7, max_n=12)
            pops = random_pops_for(cube, seed, low=0, high=40)
            m = cube.n_municipalities
            rd = rank_diff(rank_population(pops, cube.roster), rank_cases(cube))
            stats = group_stats(cube, pops, rd, RegimeConfig(0.0, float(m)))
            o = oracle_stats(cube, pops, (0.0, float(m)))
            assert stats.persistence.tolist() == o["persistence"]
            minority = stats.relative_change[:, :3].tolist()
            assert [[None if math.isnan(h) else h for h in row] for row in minority] \
                == o["relative_change"]
            assert [[SPECIALS[code].value for code in row] for row in stats.special[:, :3]] \
                == o["special"]
            for row, expected_row in zip(stats.skewness.tolist(), o["skewness"]):
                for skew, expected in zip(row, expected_row):
                    assert math.isnan(skew) == (expected is None)
                    if expected is not None:
                        assert skew == pytest.approx(expected, rel=1e-12, abs=1e-12)


EDGE_FLOATS = (0.0, -0.0, 5e-324, -1e-310, -2.2250738585072014e-308, 1e308, -1e308, 100.0, 1e16,
               0.1)
json_floats = st.one_of(st.sampled_from(EDGE_FLOATS),
                        st.floats(allow_nan=False, allow_infinity=False))
optional_floats = st.one_of(st.none(), json_floats)
json_texts = st.one_of(
    st.sampled_from(('"', "\\", "\x00\x1f\t\n\x7f", "Łódź", "東京", "\u2028", "")),
    st.text(max_size=6),
)
# names and counties: only text a Municipality accepts, which holds no C0 control
# but tab, LF and CR
json_names = st.one_of(
    st.sampled_from(('"', "\\", "\t\n\r\x7f\x85", "Łódź", "東京", "\u2028", "")),
    writable_text(max_size=6),
)
group_stats_lists = st.lists(
    st.builds(GroupStats, json_floats, optional_floats, optional_floats, st.sampled_from(Special)),
    min_size=4, max_size=4,
)
records = st.lists(
    st.tuples(st.one_of(st.sampled_from(("m10", "m2", "m1")), writable_ids(max_size=4)),
              json_names, json_names, group_stats_lists),
    min_size=1, max_size=5, unique_by=lambda record: record[0],
)
regimes = st.sampled_from((RegimeConfig(), RegimeConfig(-0.0, None), RegimeConfig(-2.5, 7.0),
                           RegimeConfig(-1e308, 1e308), RegimeConfig(0, 3)))
SPECIAL_RECORD = ("m2", 'a "q" \\ \t\x7f é', "Ünty\n", [
    GroupStats(-0.0, None, None, Special.UNDEFINED_ZERO_ZERO),
    GroupStats(5e-324, 1e308, -1e308, Special.POP_ZERO_CASES_NONZERO),
    GroupStats(100.0, 0.0, None, Special.CASES_EXCEED_POP),
    GroupStats(12.5, -2.2250738585072014e-308, 1e16, Special.NORMAL),
])


class TestStatsJson:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(records, regimes, st.one_of(st.sampled_from(("raw_daily", "ma7", "cumulative")),
                                       json_texts),
           st.dates(max_value=dt.date(9999, 1, 1)), st.integers(1, 40))
    @example([SPECIAL_RECORD, ("m10", "", "", SPECIAL_RECORD[3][::-1])], RegimeConfig(),
             "raw_daily", dt.date(2020, 10, 1), 7)
    @example([SPECIAL_RECORD], RegimeConfig(), "ma7", dt.date(2020, 10, 1), 1)
    @example([], RegimeConfig(-1.0, 5.0), "ma7", dt.date(2020, 10, 1), 3)  # no municipality
    def test_bytes_equal_json_dump(self, records, regime, basis, start, n_days):
        """The per-record template writes what json.dump(indent=2, sort_keys=True) writes."""
        municipalities = tuple(Municipality(mid, name, county) for mid, name, county, _ in records)
        axis = DateAxis(start, n_days)
        cube = CaseCube(axis, municipalities, np.zeros((len(records), n_days, 4), dtype=np.int64))
        stats = stats_table({mid: values for mid, _, _, values in records})
        ref = {
            "window": {"start": start.isoformat(), "end": axis.end.isoformat(), "n_days": n_days},
            "basis": basis,
            "regime": {"t_min": regime.t_min,
                       "t_max": float(len(records)) if regime.t_max is None else regime.t_max},
            "municipalities": {
                mid: {"name": name, "county": county, "groups": {
                    g.value: {"persistence_pct": v.persistence_pct, "skewness": v.skewness,
                              "relative_change": v.relative_change_pct, "special": v.special.value}
                    for g, v in zip(GROUPS, values)
                }}
                for mid, name, county, values in records
            },
        }
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "stats.json"
            write_stats_json(path, cube, stats, regime, basis)
            written = path.read_bytes()
        assert written == (json.dumps(ref, indent=2, sort_keys=True) + "\n").encode("ascii")


    def test_misaligned_statistics_table_rejected(self, tmp_path):
        """stats.json reads the statistics by the cube's rows, so a table of
        another order is refused, not written under the wrong ids."""
        cube = make_cube(np.zeros((2, 1, 4), dtype=np.int64), ids=["a", "b"])
        stats = stats_table({"b": [GroupStats(0.0, None, None, Special.NORMAL)] * 4,
                             "a": [GroupStats(100.0, None, None, Special.NORMAL)] * 4})
        with pytest.raises(MetricsError, match="does not list the cube's municipality ids"):
            write_stats_json(tmp_path / "stats.json", cube, stats, RegimeConfig(), "raw_daily")
        assert not (tmp_path / "stats.json").exists()

    @pytest.mark.parametrize("block_rows", [1, 2, 3])
    def test_blocks_of_rows_do_not_change_bytes(self, tmp_path, monkeypatch, block_rows):
        cube = random_cube(5, max_m=7)
        pops = random_pops_for(cube, 5, low=0, high=30)
        rd = rank_diff(rank_population(pops, cube.roster), rank_cases(cube))
        stats = group_stats(cube, pops, rd, RegimeConfig())
        write_stats_json(tmp_path / "whole.json", cube, stats, RegimeConfig(), "raw_daily")
        monkeypatch.setattr(metrics, "_STATS_BLOCK_ROWS", block_rows)
        write_stats_json(tmp_path / "blocks.json", cube, stats, RegimeConfig(), "raw_daily")
        assert (tmp_path / "blocks.json").read_bytes() == (tmp_path / "whole.json").read_bytes()


def write_rd_csv_by_rows(path, cube, rd):
    r"""The reference for ``write_rd_csv``: one ``csv.writer`` row per cell, each
    quoted as with a ``\r\n`` line end and ended in ``\n``."""
    order = sorted(range(cube.n_municipalities), key=lambda i: cube.municipalities[i].id)
    days = range(1, cube.n_days + 1)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = reference_csv_writer(handle)
        writer.writerow(["municipality_id", "group", "day", "rd"])
        for i in order:
            mid = cube.municipalities[i].id
            for g, values in zip(GROUPS, rd[i].T.tolist()):
                writer.writerows(zip(repeat(mid), repeat(g.value), days, values))


CSV_IDS = ("m10", "m2", "m1", "a,b", 'say "hi"', "two\nlines", "cr\r", " pad ", "Łódź", "東京",
           "50%", "%s %d")  # rd.csv fills a % template


@st.composite
def rd_tables(draw):
    """Municipality ids in roster order and an (M, N, 4) rd within +-(M - 1)."""
    ids = draw(st.lists(st.one_of(st.sampled_from(CSV_IDS), writable_ids(max_size=5)),
                        max_size=5, unique=True))
    m, n = len(ids), draw(st.integers(1, 6))
    values = draw(st.lists(st.integers(-max(m - 1, 0), max(m - 1, 0)),
                           min_size=m * n * 4, max_size=m * n * 4))
    return ids, np.array(values, dtype=np.int64).reshape(m, n, 4)


def _extremes(m: int, n: int) -> np.ndarray:
    rd = np.zeros((m, n, 4), dtype=np.int64)
    rd[..., 0], rd[..., 1] = m - 1, 1 - m
    return rd


class TestRdCsv:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(rd_tables())
    @example((["m2", "m10", "m1"], _extremes(3, 4)))                     # unsorted, rd at +-(M-1)
    @example((list(CSV_IDS[::-1]), _extremes(len(CSV_IDS), 2)))
    @example((["solo"], np.zeros((1, 1, 4), dtype=np.int64)))              # M=1, N=1
    @example(([], np.zeros((0, 3, 4), dtype=np.int64)))                    # header only
    def test_bytes_equal_csv_writer_rows(self, table):
        ids, rd = table
        cube = make_cube(np.zeros(rd.shape, dtype=np.int64), ids=ids)
        with tempfile.TemporaryDirectory() as tmp:
            written, expected = Path(tmp) / "rd.csv", Path(tmp) / "expected.csv"
            write_rd_csv(written, cube, rd)
            write_rd_csv_by_rows(expected, cube, rd)
            assert written.read_bytes() == expected.read_bytes()
