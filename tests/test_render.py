from pathlib import Path

import numpy as np
import pytest

from rankdiff.classify import ClassLabel
from rankdiff.errors import RenderError
from rankdiff.metrics import RegimeConfig, group_stats, rank_cases, rank_diff, rank_population
from rankdiff.model import Group
from rankdiff.render import (
    build_choropleth,
    build_dashboard,
    render_choropleth,
    render_dashboard,
    render_index,
)
from rankdiff.render import dashboard, svg
from rankdiff.render.svg import CLASS_COLORS, pie_angles

from conftest import make_cube, make_pops

GOLDEN = Path(__file__).parent / "goldens" / "dashboard_golden.svg"


def golden_inputs():
    """Hand-built deterministic fixture exercising every marker and an
    undefined skewness; the committed golden was rendered from this."""
    counts = np.zeros((3, 10, 4), dtype=np.int64)
    counts[0, :, 0] = [2, 0, 1, 3, 0, 0, 1, 2, 0, 1]   # alpha BAA
    counts[1, :, 0] = [0, 1, 0, 0, 2, 1, 0, 0, 1, 0]   # beta BAA (pop 0 -> star)
    counts[0, :, 1] = [1, 1, 0, 0, 1, 0, 1, 0, 1, 0]   # alpha HL (5 > pop 2 -> triangle)
    counts[0, :, 3] = [5, 6, 4, 7, 5, 6, 5, 4, 6, 5]   # alpha W
    counts[1, :, 3] = [3, 2, 4, 3, 2, 3, 4, 2, 3, 2]   # beta W
    counts[2, :, 3] = [1, 2, 1, 1, 2, 1, 1, 2, 1, 1]   # gamma W
    cube = make_cube(counts, ids=["alpha", "beta", "gamma"])
    pops = make_pops(
        [[40, 2, 5, 900], [0, 30, 3, 400], [10, 0, 1, 150]],
        ids=["alpha", "beta", "gamma"],
    )
    rd = rank_diff(rank_population(pops), rank_cases(cube))
    stats = group_stats(cube, pops, rd, RegimeConfig())
    return stats, cube, pops, rd


def golden_model():
    stats, cube, pops, rd = golden_inputs()
    return build_dashboard(stats, cube, pops, "alpha", rd=rd)


class TestDashboardModel:
    def test_shares_sum_to_100(self):
        model = golden_model()
        assert sum(model.pop_shares.values()) == pytest.approx(100.0, abs=1e-9)
        assert sum(model.case_shares.values()) == pytest.approx(100.0, abs=1e-9)
        assert list(model.rd_series) == [Group.BAA, Group.HL, Group.OTH]

    def test_pie_shares_match_inputs(self):
        counts = np.zeros((1, 1, 4), dtype=np.int64)
        counts[0, 0] = [117, 2883, 1500, 5500]          # 1.17% of 10000 cases are BAA
        cube = make_cube(counts, ids=["a"])
        pops = make_pops([[18, 982, 1500, 7500]], ids=["a"])  # BAA is 0.18%
        rd = rank_diff(rank_population(pops), rank_cases(cube))
        stats = group_stats(cube, pops, rd, RegimeConfig())
        model = build_dashboard(stats, cube, pops, "a", rd=rd)
        assert model.pop_shares[Group.BAA] == pytest.approx(0.18, abs=1e-12)
        assert model.case_shares[Group.BAA] == pytest.approx(1.17, abs=1e-12)
        svg = render_dashboard(model)
        assert "0.18%" in svg and "1.17%" in svg

    def test_zero_population_pie_degenerates(self):
        counts = np.zeros((2, 2, 4), dtype=np.int64)
        counts[0, :, 3] = [1, 1]
        cube = make_cube(counts, ids=["a", "b"])
        pops = make_pops([[0, 0, 0, 0], [1, 1, 1, 1]], ids=["a", "b"])
        rd = rank_diff(rank_population(pops), rank_cases(cube))
        stats = group_stats(cube, pops, rd, RegimeConfig())
        model = build_dashboard(stats, cube, pops, "a", rd=rd)
        assert model.pop_shares is None
        assert "n/a" in render_dashboard(model)

    def test_all_zero_minorities_three_crosses(self):
        counts = np.zeros((2, 3, 4), dtype=np.int64)
        counts[0, :, 3] = [2, 1, 2]
        counts[1, :, 3] = [1, 0, 1]
        cube = make_cube(counts, ids=["a", "b"])
        pops = make_pops([[0, 0, 0, 100], [5, 5, 5, 50]], ids=["a", "b"])
        rd = rank_diff(rank_population(pops), rank_cases(cube))
        stats = group_stats(cube, pops, rd, RegimeConfig())
        model = build_dashboard(stats, cube, pops, "a", rd=rd)
        specials = [s.special.value for s in model.stats.values()]
        assert specials == ["undefined_zero_zero"] * 3
        svg = render_dashboard(model)
        assert svg.count('stroke="#cc3311"') == 6  # two strokes per cross marker

    def test_star_case_still_shows_persistence_badge(self):
        stats, cube, pops, rd = golden_inputs()
        model = build_dashboard(stats, cube, pops, "beta", rd=rd)
        from rankdiff.metrics import Special

        assert model.stats[Group.BAA].special is Special.POP_ZERO_CASES_NONZERO
        svg = render_dashboard(model)
        assert "per " in svg
        assert "cases despite zero recorded population" in svg

    def test_undefined_skew_shows_na(self):
        model = golden_model()
        assert model.stats[Group.OTH].skewness is None
        assert "skew n/a" in render_dashboard(model)

    def test_unknown_municipality(self):
        stats, cube, pops, rd = golden_inputs()
        with pytest.raises(RenderError, match="unknown municipality"):
            build_dashboard(stats, cube, pops, "nowhere", rd=rd)


class TestDeterminismAndGolden:
    def test_same_model_same_bytes(self):
        model = golden_model()
        assert render_dashboard(model) == render_dashboard(model)

    def test_cache_state_does_not_change_bytes(self):
        model = golden_model()
        warm = render_dashboard(model)
        for cached in (svg._text, svg._rect, svg._line, dashboard._panel_xs, dashboard._panel_ys):
            cached.cache_clear()
        assert render_dashboard(model) == warm

    def test_golden(self):
        assert GOLDEN.exists(), "golden missing; regenerate via tests/make_golden.py"
        assert render_dashboard(golden_model()) == GOLDEN.read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "shares",
        [[25.0, 25.0, 25.0, 25.0], [0.18, 1.0, 0.5, 98.32], [100.0, 0.0, 0.0, 0.0],
         [33.3, 33.3, 33.4, 0.0]],
    )
    def test_wedge_angles_sum_to_circle(self, shares):
        total = sum(sweep for _, sweep in pie_angles(shares))
        assert total == pytest.approx(360.0, abs=0.1)


SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0)]


class TestChoropleth:
    def test_single_square(self):
        shapes = {"a": [SQUARE]}
        model = build_choropleth(shapes, {"a": ClassLabel.G2}, Group.BAA)
        svg = render_choropleth(model)
        assert svg.count("<path") == 1
        assert CLASS_COLORS[ClassLabel.G2] in svg

    def test_uniform_g0_fill(self):
        shapes = {
            "a": [SQUARE],
            "b": [[(2.0, 0.0), (3.0, 0.0), (3.0, 1.0), (2.0, 0.0)]],
        }
        labels = {"a": ClassLabel.G0, "b": ClassLabel.G0}
        svg = render_choropleth(build_choropleth(shapes, labels, Group.BAA))
        assert svg.count(f'fill="{CLASS_COLORS[ClassLabel.G0]}"') >= 3  # 2 shapes + legend

    def test_missing_geometry_footnote(self):
        shapes = {"a": [SQUARE]}
        labels = {"a": ClassLabel.G0, "ghost": ClassLabel.G1}
        model = build_choropleth(shapes, labels, Group.BAA)
        assert model.missing == ("ghost",)
        svg = render_choropleth(model)
        assert "no geometry for 1 municipality: ghost" in svg

    def test_unmatched_features_not_drawn(self):
        shapes = {"a": [SQUARE], "zz": [[(9.0, 9.0), (10.0, 9.0), (10.0, 10.0), (9.0, 9.0)]]}
        model = build_choropleth(shapes, {"a": ClassLabel.G0}, Group.BAA)
        assert len(model.entries) == 1

    def test_legend_counts(self):
        shapes = {"a": [SQUARE]}
        model = build_choropleth(shapes, {"a": ClassLabel.G3}, Group.BAA)
        counts = {label: n for label, _, n in model.legend}
        assert counts[ClassLabel.G3] == 1
        assert counts[ClassLabel.G0] == 0

    def test_no_geometry_at_all(self):
        shapes = {}
        model = build_choropleth(shapes, {"a": ClassLabel.G0}, Group.BAA)
        with pytest.raises(RenderError, match="no geometry"):
            render_choropleth(model)

    def test_determinism(self):
        shapes = {"a": [SQUARE]}
        model = build_choropleth(shapes, {"a": ClassLabel.G1}, Group.HL)
        assert render_choropleth(model) == render_choropleth(model)


class TestIndexPage:
    def test_contains_links_and_rows(self):
        stats, cube, pops, rd = golden_inputs()
        labels = {"alpha": ClassLabel.G0, "beta": ClassLabel.G1, "gamma": ClassLabel.G3}
        html = render_index(cube, stats, labels, Group.BAA, "map_baa.svg")
        assert 'href="map_baa.svg"' in html
        assert 'href="dashboards/alpha.svg"' in html
        assert html.count("<tr>") == 4  # header + 3 rows
        assert html == render_index(cube, stats, labels, Group.BAA, "map_baa.svg")
