import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankdiff.errors import MetricsError
from rankdiff.metrics import (
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
)
from rankdiff.model import GROUPS, INT64_MAX, Group
from rankdiff.synth import SynthSpec, generate

from conftest import make_cube, make_pops, random_cube, random_pops_for


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
        ranks = rank_population(table)
        assert ranks[:, 0].tolist() == [1, 3, 2]

    def test_two_largest_cities(self):
        table = make_pops(
            [[600000] * 4, [270000] * 4, [75000] * 4],
            ids=["milwaukee", "madison", "green-bay"],
        )
        ranks = rank_population(table)
        assert ranks[0, 0] == 1  # Milwaukee
        assert ranks[1, 0] == 2  # Madison

    def test_tie_broken_by_id(self):
        table = make_pops([[7] * 4, [7] * 4, [7] * 4], ids=["c", "a", "b"])
        ranks = rank_population(table)
        # ascending id order: a=1, b=2, c=3
        assert ranks[:, 0].tolist() == [3, 1, 2]

    def test_zero_populations_rank_last(self):
        table = make_pops([[0] * 4, [10] * 4], ids=["a", "b"])
        assert rank_population(table)[:, 0].tolist() == [2, 1]


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

    def test_full_year_statewide_scale(self):
        pops_col = [1000 * (i + 7) for i in range(190)]
        spec = SynthSpec(
            m=190, n_days=365,
            populations=tuple((p, p, p, p) for p in pops_col),
            lam=tuple((1.0,) * 4 for _ in range(190)),
            seed=11,
        )
        cube, table = generate(spec)
        rd = rank_diff(rank_population(table), rank_cases(cube))
        assert rd.sum(axis=0).max() == 0 and rd.sum(axis=0).min() == 0
        assert rd.max() <= 189 and rd.min() >= -189

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_permutation_and_zero_sum(self, seed):
        cube = random_cube(seed)
        pops = random_pops_for(cube, seed)
        m = cube.n_municipalities
        pop_rank = rank_population(pops)
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
        rd = rank_diff(rank_population(pops), rank_cases(cube))
        stats = group_stats(cube, pops, rd, RegimeConfig())
        for per_group in stats.values():
            assert per_group[Group.W].relative_change_pct is None
            assert per_group[Group.W].special is Special.NORMAL
            assert set(per_group) == set(GROUPS)

    def test_stats_match_direct_calls(self):
        cube = random_cube(21)
        pops = random_pops_for(cube, 21)
        rd = rank_diff(rank_population(pops), rank_cases(cube))
        regime = RegimeConfig().resolved(cube.n_municipalities)
        stats = group_stats(cube, pops, rd, regime)
        i = 0
        mid = cube.ids()[0]
        for k, g in enumerate(GROUPS):
            s = stats[mid][g]
            assert s.persistence_pct == persistence_index(rd[i, :, k], regime)
            assert s.skewness == skewness(rd[i, :, k])

    def test_shape_mismatch_rejected(self):
        cube = random_cube(2)
        pops = random_pops_for(cube, 2)
        with pytest.raises(MetricsError, match="rd shape"):
            group_stats(cube, pops, np.zeros((1, 1, 4), dtype=int), RegimeConfig())

    def test_serializable(self):
        stats = GroupStats(50.0, None, None, Special.UNDEFINED_ZERO_ZERO)
        doc = stats.to_dict()
        assert doc == {
            "persistence_pct": 50.0,
            "skewness": None,
            "relative_change": None,
            "special": "undefined_zero_zero",
        }
