import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankdiff.classify import (
    ClassifierConfig,
    ClassLabel,
    classify_municipalities,
    classify_one,
    write_labels_csv,
)
from rankdiff.errors import ClassifyError
from rankdiff.metrics import GroupStats, Special
from rankdiff.model import GROUPS, Group

from conftest import make_roster, stats_table


def stats(skew, per):
    return GroupStats(persistence_pct=per, skewness=skew,
                      relative_change_pct=None, special=Special.NORMAL)


class TestRules:
    def test_near_symmetric_is_g0(self):
        assert classify_one(stats(0.1, 50.0)) is ClassLabel.G0

    def test_high_persistence_positive_skew_is_g1(self):
        assert classify_one(stats(3.0, 95.0)) is ClassLabel.G1

    def test_moderate_skew_low_persistence_is_g2(self):
        assert classify_one(stats(3.0, 40.0)) is ClassLabel.G2

    def test_undefined_skew_unclassified(self):
        assert classify_one(stats(None, 100.0)) is ClassLabel.UNCLASSIFIED

    def test_negative_skew_falls_through_to_g3(self):
        assert classify_one(stats(-2.5, 95.0)) is ClassLabel.G3

    def test_extreme_skew_is_g3(self):
        assert classify_one(stats(8.0, 95.0)) is ClassLabel.G3

    def test_g0_takes_priority_over_persistence(self):
        assert classify_one(stats(0.99, 100.0)) is ClassLabel.G0

    def test_skew_in_g1_band_low_persistence(self):
        # skew 1.5 is in the G1 band but not the G2 band; low persistence -> G3
        assert classify_one(stats(1.5, 40.0)) is ClassLabel.G3

    def test_custom_thresholds(self):
        cfg = ClassifierConfig(g0_skew_max=0.2)
        assert classify_one(stats(0.5, 50.0), cfg) is not ClassLabel.G0

    def test_invalid_config(self):
        with pytest.raises(ClassifyError, match="g1_skew"):
            ClassifierConfig(g1_skew_min=5.0, g1_skew_max=1.0)

    @pytest.mark.parametrize("name", ["g0_skew_max", "g1_per_min", "g1_skew_min", "g2_per_max"])
    def test_nan_threshold_rejected(self, name):
        with pytest.raises(ClassifyError, match=f"^{name} is NaN"):
            ClassifierConfig(**{name: float("nan")})

    def test_infinite_thresholds_mean_no_bound(self):
        cfg = ClassifierConfig(g1_per_min=float("-inf"), g1_skew_max=float("inf"))
        assert classify_one(stats(8.0, 0.0), cfg) is ClassLabel.G1


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        skew=st.one_of(st.none(), st.floats(-10, 10, allow_nan=False)),
        per=st.floats(0, 100, allow_nan=False),
    )
    def test_total_and_deterministic(self, skew, per):
        s = stats(skew, per)
        label = classify_one(s)
        assert label in ClassLabel
        assert classify_one(s) is label
        assert (label is ClassLabel.UNCLASSIFIED) == (skew is None)

    @settings(max_examples=100, deadline=None)
    @given(
        skew=st.floats(1.0, 5.0, allow_nan=False),
        below=st.floats(0, 89.99, allow_nan=False),
        above=st.floats(90.0, 100, allow_nan=False),
    )
    def test_monotone_response_across_per_threshold(self, skew, below, above):
        low = classify_one(stats(skew, below))
        high = classify_one(stats(skew, above))
        assert high is ClassLabel.G1
        assert low in (ClassLabel.G2, ClassLabel.G3)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_planted_regions_recovered(self, data):
        region = data.draw(st.sampled_from(["G0", "G1", "G2", "G3"]))
        if region == "G0":
            skew = data.draw(st.floats(-0.9, 0.9))
            per = data.draw(st.floats(0, 100))
        elif region == "G1":
            skew = data.draw(st.floats(1.05, 4.95))
            per = data.draw(st.floats(90.5, 100))
        elif region == "G2":
            skew = data.draw(st.floats(2.05, 3.95))
            per = data.draw(st.floats(0, 89.5))
        else:
            skew = data.draw(st.floats(5.1, 20))
            per = data.draw(st.floats(0, 100))
        assert classify_one(stats(skew, per)) is ClassLabel[region]


class TestBatch:
    def test_all_municipalities_labeled(self):
        table = stats_table({
            "a": [stats(0.0, 10.0)] * 4,
            "b": [stats(3.0, 99.0)] * 4,
            "c": [stats(None, 0.0)] * 4,
        })
        labels = classify_municipalities(table, Group.BAA)
        assert labels == {
            "a": ClassLabel.G0,
            "b": ClassLabel.G1,
            "c": ClassLabel.UNCLASSIFIED,
        }

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_labels_equal_classify_one(self, data):
        """Each label of a table's column is ``classify_one``'s for that cell,
        also where a threshold equals a cell's value or is infinite."""
        values = st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.0, 2.0, 4.0, 5.0, 90.0)),
                           st.floats(-10, 10), st.floats(0, 100))
        m = data.draw(st.integers(1, 6))
        cells = {f"m{i}": [stats(data.draw(st.one_of(st.none(), values)), data.draw(values))
                           for _ in GROUPS] for i in range(m)}
        table = stats_table(cells)
        seen = [v for row in cells.values() for s in row
                for v in (s.skewness, s.persistence_pct) if v is not None]
        bounds = st.sampled_from(seen + [math.inf, -math.inf])

        def band():
            lo, hi = sorted((data.draw(bounds), data.draw(bounds)))
            return (lo, hi) if lo < hi else (-math.inf, hi) if hi > -math.inf else (lo, math.inf)

        (g1_lo, g1_hi), (g2_lo, g2_hi) = band(), band()
        cfg = ClassifierConfig(g0_skew_max=data.draw(bounds), g1_per_min=data.draw(bounds),
                               g1_skew_min=g1_lo, g1_skew_max=g1_hi, g2_skew_min=g2_lo,
                               g2_skew_max=g2_hi, g2_per_max=data.draw(bounds))
        group = data.draw(st.sampled_from(GROUPS))
        labels = classify_municipalities(table, group, cfg)
        assert list(labels.items()) == [(mid, classify_one(table.cell(mid, group), cfg))
                                         for mid in cells]

    def test_labels_csv(self, tmp_path):
        labels = {"b": ClassLabel.G1, "a": ClassLabel.G0}
        path = tmp_path / "labels.csv"
        write_labels_csv(path, make_roster(["b", "a"]), labels, Group.BAA)
        assert path.read_text(encoding="utf-8") == (
            "municipality_id,group,label\na,BAA,G0\nb,BAA,G1\n"
        )
