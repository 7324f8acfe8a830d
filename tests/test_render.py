import datetime as dt
import hashlib
import math
import re
from dataclasses import replace
from itertools import zip_longest
from pathlib import Path

import numpy as np
import pytest

from rankdiff.classify import ClassLabel
from rankdiff.errors import RenderError
from rankdiff.ingest import load_boundaries
from rankdiff.metrics import (
    RegimeConfig,
    Special,
    group_stats,
    rank_cases,
    rank_diff,
    rank_population,
)
from rankdiff.model import MINORITY_GROUPS, Group
from rankdiff.render import (
    build_choropleth,
    build_dashboard,
    render_choropleth,
    render_dashboard,
    render_index,
)
from rankdiff.render import dashboard
from rankdiff.render.svg import CLASS_COLORS, circle, escape, fnum, fpoints, pie_angles, text

from conftest import (START, boundaries_of, geojson_text, make_cube, make_pops, make_roster,
                      reference_boundaries, square_feature)

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
    rd = rank_diff(rank_population(pops, cube.roster), rank_cases(cube))
    stats = group_stats(cube, pops, rd, RegimeConfig())
    return stats, cube, pops, rd


def block_of(inputs, ids=None):
    """The dashboard block of ``ids`` (every id of the cube by default) of
    ``(stats, cube, pops, rd)``."""
    stats, cube, pops, rd = inputs
    return build_dashboard(stats, cube, pops, cube.ids() if ids is None else ids, rd)


def svg_of(block, mid):
    """The dashboard SVG of ``mid``, one of ``block``'s ids."""
    return render_dashboard(block, block.ids.index(mid))


def golden_svg():
    return svg_of(block_of(golden_inputs()), "alpha")


def pie_values(inputs):
    """Each row's population and case totals and shares, as ``(pop_totals,
    case_totals, pop_shares, case_shares)``, through the dashboards' own
    ``_totals`` and ``_shares`` on the values the pies are drawn from."""
    _, cube, pops, _ = inputs
    cases = cube.counts.sum(axis=1, dtype=np.int64)
    pop_totals, case_totals = dashboard._totals(pops.pops), dashboard._totals(cases)
    return (pop_totals, case_totals, dashboard._shares(pops.pops, pop_totals),
            dashboard._shares(cases, case_totals))


def inputs_of(counts, populations, start=START, ids=None):
    """``(stats, cube, pops, rd)`` of a cube with ids m0, m1, ... by default."""
    ids = [f"m{i}" for i in range(len(populations))] if ids is None else ids
    cube = make_cube(counts, ids=ids, start=start)
    pops = make_pops(populations, ids=ids)
    rd = rank_diff(rank_population(pops, cube.roster), rank_cases(cube))
    return group_stats(cube, pops, rd, RegimeConfig()), cube, pops, rd


# (cases, population) of one group that give each special case, in the
# order the towns of MARKER_RUNS rotate them through the three panels.
SPECIAL_CELLS = {
    Special.NORMAL: (3, 50),
    Special.CASES_EXCEED_POP: (5, 2),
    Special.UNDEFINED_ZERO_ZERO: (0, 0),
    Special.POP_ZERO_CASES_NONZERO: (4, 0),
}
ROTATION = list(SPECIAL_CELLS)
# W cells: a defined reference, then the two ways the reference is undefined.
W_CELLS = ((6, 1000), (2, 0), (0, 500))


def marker_inputs(towns, n_days):
    """Counts and populations of towns given as (BAA, HL, OTH special case,
    W cell); each group's cases are spread over the days."""
    counts = np.zeros((len(towns), n_days, 4), dtype=np.int64)
    populations = []
    for i, (specials, w) in enumerate(towns):
        cells = [SPECIAL_CELLS[s] for s in specials] + [w]
        for k, (cases, _) in enumerate(cells):
            counts[i, :, k] = cases // n_days
            counts[i, 0, k] += cases % n_days
        populations.append([population for _, population in cells])
    return counts, populations


MARKER_TOWNS = [([ROTATION[(i + column) % 4] for column in range(3)], w)
                for i in range(4) for w in W_CELLS]
MARKER_RUNS = {
    "days": marker_inputs(MARKER_TOWNS, 3),
    "one-day": marker_inputs(MARKER_TOWNS, 1),
    "one-municipality": marker_inputs(
        [((Special.UNDEFINED_ZERO_ZERO, Special.POP_ZERO_CASES_NONZERO,
           Special.CASES_EXCEED_POP), W_CELLS[0])], 4),
}
# (special case, relative change undefined) pairs a panel can show: only a
# group with population can have a relative change.
MARKER_CASES = [(Special.NORMAL, False), (Special.NORMAL, True),
                (Special.CASES_EXCEED_POP, False), (Special.CASES_EXCEED_POP, True),
                (Special.UNDEFINED_ZERO_ZERO, True), (Special.POP_ZERO_CASES_NONZERO, True)]
MARKER_DIGESTS = {
    "days": "b280893fb468979f0696d4799f9bacd9f5feafa4afe75c6cc5ee3337c4565fe0",
    "one-day": "2dbbe77033566ae379715d6de6eedec2483ea61d61d2ef51f734815a8cac031c",
    "one-municipality": "a4ff89a2855ae434850603f33de16569dcc67b9bb0d919094fd57d53ad3fe548",
}


class TestDashboardModel:
    def test_shares_sum_to_100(self):
        inputs = golden_inputs()
        *_, pop_shares, case_shares = pie_values(inputs)
        assert pop_shares.sum(axis=1) == pytest.approx([100.0] * 3, abs=1e-9)
        assert case_shares.sum(axis=1) == pytest.approx([100.0] * 3, abs=1e-9)
        svg = svg_of(block_of(inputs), "alpha")
        panels = [svg.index(f"{g.value} rank difference") for g in MINORITY_GROUPS]
        assert panels == sorted(panels) and MINORITY_GROUPS == (Group.BAA, Group.HL, Group.OTH)

    def test_pie_shares_match_inputs(self):
        counts = np.zeros((1, 1, 4), dtype=np.int64)
        counts[0, 0] = [117, 2883, 1500, 5500]          # 1.17% of 10000 cases are BAA
        inputs = inputs_of(counts, [[18, 982, 1500, 7500]], ids=["a"])  # BAA is 0.18%
        *_, pop_shares, case_shares = pie_values(inputs)
        assert pop_shares[0, 0] == pytest.approx(0.18, abs=1e-12)
        assert case_shares[0, 0] == pytest.approx(1.17, abs=1e-12)
        svg = svg_of(block_of(inputs), "a")
        assert "0.18%" in svg and "1.17%" in svg

    def test_zero_population_pie_degenerates(self):
        counts = np.zeros((2, 2, 4), dtype=np.int64)
        counts[0, :, 3] = [1, 1]
        inputs = inputs_of(counts, [[0, 0, 0, 0], [1, 1, 1, 1]], ids=["a", "b"])
        pop_totals, _, pop_shares, _ = pie_values(inputs)
        assert pop_totals[0] == 0 and not pop_shares[0].any()
        svg = svg_of(block_of(inputs), "a")
        assert ">total population 0<" in svg
        disc = (circle(120, 170, 64, fill="#eeeeee", stroke="#cccccc") + "\n"
                + text(120, 174, "n/a", size=13, anchor="middle", fill="#888888"))
        assert svg.count(disc) == 1  # the population pie only

    def test_all_zero_minorities_three_crosses(self):
        counts = np.zeros((2, 3, 4), dtype=np.int64)
        counts[0, :, 3] = [2, 1, 2]
        counts[1, :, 3] = [1, 0, 1]
        inputs = inputs_of(counts, [[0, 0, 0, 100], [5, 5, 5, 50]], ids=["a", "b"])
        stats, block = inputs[0], block_of(inputs)
        specials = [stats.cell("a", g).special.value for g in MINORITY_GROUPS]
        assert specials == ["undefined_zero_zero"] * 3
        svg = svg_of(block, "a")
        assert svg.count('stroke="#cc3311"') == 6  # two strokes per cross marker

    def test_star_case_still_shows_persistence_badge(self):
        inputs = golden_inputs()
        assert inputs[0].cell("beta", Group.BAA).special is Special.POP_ZERO_CASES_NONZERO
        svg = svg_of(block_of(inputs), "beta")
        assert "per " in svg
        assert "cases despite zero recorded population" in svg

    def test_undefined_skew_shows_na(self):
        stats, *_ = golden_inputs()
        assert stats.cell("alpha", Group.OTH).skewness is None
        assert "skew n/a" in golden_svg()

    def test_case_total_of_int64_max(self):
        """A municipality's cases may sum to exactly int64's maximum, which the
        dashboard shows exactly, with its shares."""
        counts = np.zeros((2, 2, 4), dtype=np.int64)
        counts[0, :, 0] = [2**61, 2**61]
        counts[0, :, 3] = [2**61, 2**61 - 1]
        inputs = inputs_of(counts, [[10, 10, 10, 10], [10, 10, 10, 10]], ids=["a", "b"])
        _, case_totals, _, case_shares = pie_values(inputs)
        assert case_totals[0] == 2**63 - 1
        assert case_shares[0, 0] == pytest.approx(50.0, abs=1e-12)
        svg = svg_of(block_of(inputs), "a")
        assert "total cases 9,223,372,036,854,775,807" in svg

    def test_nul_in_a_name_is_refused(self):
        """A block escapes its names as one NUL-joined text, which a NUL in a
        name would misalign; SVG text cannot carry a NUL either."""
        stats, cube, pops, rd = golden_inputs()
        towns = (replace(cube.municipalities[0], name="Al\0pha"), *cube.municipalities[1:])
        cube = replace(cube, municipalities=towns)
        with pytest.raises(RenderError, match="holds a NUL"):
            build_dashboard(stats, cube, pops, cube.ids(), rd)

    def test_unknown_municipality(self):
        inputs = golden_inputs()
        with pytest.raises(RenderError, match="unknown municipality id 'nowhere'"):
            block_of(inputs, ["alpha", "nowhere"])

    def test_misaligned_rosters_are_refused(self):
        """A block reads the populations and the statistics by the cube's rows,
        so both must list the cube's ids in its order."""
        stats, cube, pops, rd = golden_inputs()
        ids = cube.ids()
        swapped = make_pops(pops.pops[[1, 0, 2]].tolist(), ids=[ids[1], ids[0], ids[2]])
        shorter = make_pops(pops.pops[:2].tolist(), ids=ids[:2])
        other_stats = inputs_of(np.zeros((3, 10, 4), dtype=np.int64), pops.pops.tolist(),
                                ids=[ids[0], ids[2], ids[1]])[0]
        for inputs in ((stats, cube, swapped, rd), (other_stats, cube, pops, rd),
                       (stats, cube, shorter, rd)):
            with pytest.raises(RenderError, match="does not list the cube's municipality ids"):
                block_of(inputs, ["beta"])


class TestDeterminismAndGolden:
    def test_same_model_same_bytes(self):
        block = block_of(golden_inputs())
        assert render_dashboard(block, 0) == render_dashboard(block, 0)

    def test_cache_state_does_not_change_bytes(self):
        """Dashboards of three runs, each with its own frame, drawn in one block
        per run and rendered interleaved with every cache warm, match the same
        dashboards drawn one row at a time from cold caches. Every cache of the
        dashboard module is found and cleared, so a cache added later is gated
        too."""
        runs = [
            golden_inputs(),
            inputs_of(np.arange(8).reshape(2, 1, 4), [[1, 2, 3, 4], [4, 3, 2, 1]]),     # N=1
            inputs_of(np.ones((1, 4, 4), dtype=np.int64), [[5, 0, 5, 5]],               # M=1
                      start=dt.date(2021, 2, 28)),
        ]
        blocks = [block_of(inputs) for inputs in runs]
        assert len({block.pieces for block in blocks}) == 3
        pairs = [pair for batch in zip_longest(*[[(inputs, mid) for mid in inputs[1].ids()]
                                                 for inputs in runs])
                 for pair in batch if pair is not None]
        caches = [obj for obj in vars(dashboard).values() if hasattr(obj, "cache_clear")]
        assert caches
        cold = []
        for inputs, mid in pairs:
            for cached in caches:
                cached.cache_clear()
            cold.append(render_dashboard(block_of(inputs, [mid]), 0))
        rows = [[(block, row) for row in range(len(block.ids))] for block in blocks]
        warm = [pair for batch in zip_longest(*rows) for pair in batch if pair is not None]
        assert [render_dashboard(block, row) for block, row in warm] == cold

    def test_golden(self):
        assert GOLDEN.exists(), "golden missing; regenerate via tests/make_golden.py"
        assert golden_svg() == GOLDEN.read_text(encoding="utf-8")

    def test_marker_digests(self):
        """Every (panel, special case, relative change or not) a dashboard can
        show, in runs over several days, one day (N=1) and one municipality
        (M=1), pinned by the sha256 of their dashboards."""
        digests, shown = {}, set()
        for name, (counts, populations) in MARKER_RUNS.items():
            digest = hashlib.sha256()
            inputs = inputs_of(counts, populations)
            block = block_of(inputs)
            for row, mid in enumerate(block.ids):
                for column, g in enumerate(MINORITY_GROUPS):
                    stats = inputs[0].cell(mid, g)
                    shown.add((column, stats.special, stats.relative_change_pct is None))
                digest.update(render_dashboard(block, row).encode())
            digests[name] = digest.hexdigest()
        assert shown == {(column, special, undefined) for column in range(3)
                         for special, undefined in MARKER_CASES}
        assert digests == MARKER_DIGESTS

    @pytest.mark.parametrize(
        "shares",
        [[25.0, 25.0, 25.0, 25.0], [0.18, 1.0, 0.5, 98.32], [100.0, 0.0, 0.0, 0.0],
         [33.3, 33.3, 33.4, 0.0]],
    )
    def test_wedge_angles_sum_to_circle(self, shares):
        sweeps, bounds = pie_angles(np.array([shares]))
        assert sweeps.sum() == pytest.approx(360.0, abs=0.1)
        assert bounds[0, -1] - bounds[0, 0] == pytest.approx(360.0, abs=0.1)


SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0)]


def choropleth_of(shapes, labels, group):
    """The map model of a roster listing the ids of ``labels``."""
    return build_choropleth(boundaries_of(shapes), make_roster(list(labels)), labels, group)


class TestChoropleth:
    def test_single_square(self):
        shapes = {"a": [SQUARE]}
        model = choropleth_of(shapes, {"a": ClassLabel.G2}, Group.BAA)
        svg = render_choropleth(model)
        assert svg.count("<path") == 1
        assert CLASS_COLORS[ClassLabel.G2] in svg

    def test_uniform_g0_fill(self):
        shapes = {
            "a": [SQUARE],
            "b": [[(2.0, 0.0), (3.0, 0.0), (3.0, 1.0), (2.0, 0.0)]],
        }
        labels = {"a": ClassLabel.G0, "b": ClassLabel.G0}
        svg = render_choropleth(choropleth_of(shapes, labels, Group.BAA))
        assert svg.count(f'fill="{CLASS_COLORS[ClassLabel.G0]}"') >= 3  # 2 shapes + legend

    def test_missing_geometry_footnote(self):
        shapes = {"a": [SQUARE]}
        labels = {"a": ClassLabel.G0, "ghost": ClassLabel.G1}
        model = choropleth_of(shapes, labels, Group.BAA)
        assert model.missing == ("ghost",)
        svg = render_choropleth(model)
        assert "no geometry for 1 municipality: ghost" in svg

    def test_unmatched_features_not_drawn(self):
        shapes = {"a": [SQUARE], "zz": [[(9.0, 9.0), (10.0, 9.0), (10.0, 10.0), (9.0, 9.0)]]}
        model = choropleth_of(shapes, {"a": ClassLabel.G0}, Group.BAA)
        assert len(model.entries) == 1

    def test_legend_counts(self):
        shapes = {"a": [SQUARE]}
        model = choropleth_of(shapes, {"a": ClassLabel.G3}, Group.BAA)
        counts = {label: n for label, _, n in model.legend}
        assert counts[ClassLabel.G3] == 1
        assert counts[ClassLabel.G0] == 0

    def test_no_geometry_at_all(self):
        shapes = {}
        model = choropleth_of(shapes, {"a": ClassLabel.G0}, Group.BAA)
        with pytest.raises(RenderError, match="no geometry"):
            render_choropleth(model)

    def test_determinism(self):
        shapes = {"a": [SQUARE]}
        model = choropleth_of(shapes, {"a": ClassLabel.G1}, Group.HL)
        assert render_choropleth(model) == render_choropleth(model)

    def test_points_written_as_fnum_writes_them(self):
        """The one bulk formatter of the map and the pies writes each value as
        ``fnum`` does, at the edges of the rule that writes -0.00 as 0.00."""
        below = math.nextafter(0.005, 0.0)
        values = [0.005, -0.005, below, -below, 0.0, -0.0, 0.004, -0.004, 0.015, -0.015, 1.005,
                  -1.005, 2.675, 1e-300, -1e-300, 719.995, -3.0]
        assert fpoints(np.array(values), np.array(values[::-1])) == [
            f"{fnum(x)} {fnum(y)}" for x, y in zip(values, values[::-1])]

    def test_paths_are_the_per_point_text(self, write_file):
        """Each path of the map is the text that projecting each point and
        writing it with ``fnum``, one at a time, gives: here for a
        MultiPolygon, auto-closed rings, a feature off the roster, which is
        not drawn and does not widen the map, and an id given twice. (The
        projection keeps every point at least ``pad`` inside the canvas, so
        the -0.00 edge is tested on the formatter alone.)"""
        features = [
            {"type": "Feature", "id": "b", "properties": {}, "geometry": {
                "type": "MultiPolygon", "coordinates": [
                    [[[0.1, 0.2], [1.3333, 0.2], [1.3333, 1.7], [0.1, 0.2]]],
                    [[[2.005, 2], [3, 2.0], [3.0, 3.0]]]]}},
            square_feature("zz", 40.0),
            square_feature("a", 1 / 3, 1 / 7),
            square_feature("b", 1.5, -0.25, closed=False),
        ]
        path = write_file("b.geojson", geojson_text(features))
        roster = make_roster(["a", "b", "c"])
        labels = {"a": ClassLabel.G0, "b": ClassLabel.G3, "c": ClassLabel.G1}
        svg = render_choropleth(build_choropleth(load_boundaries(path, roster), roster, labels,
                                                 Group.BAA))

        shapes = reference_boundaries(path, roster)
        xs, ys = zip(*[point for mid in "ab" for ring in shapes[mid] for point in ring])
        lon0, lat0, lon1, lat1 = min(xs), min(ys), max(xs), max(ys)
        width, pad, map_top, map_height = 720, 30.0, 60.0, 560.0
        span_x, span_y = max(lon1 - lon0, 1e-12), max(lat1 - lat0, 1e-12)
        scale = min((width - 2 * pad) / span_x, map_height / span_y)
        off_x = pad + ((width - 2 * pad) - span_x * scale) / 2.0
        off_y = map_top + (map_height - span_y * scale) / 2.0
        expected = [" ".join("M " + " L ".join(f"{fnum(off_x + (lon - lon0) * scale)} "
                                               f"{fnum(off_y + (lat1 - lat) * scale)}"
                                               for lon, lat in ring) + " Z"
                             for ring in shapes[mid]) for mid in "ab"]
        assert [len(shapes[mid]) for mid in "ab"] == [1, 3]
        assert re.findall(r'<path d="([^"]*)"', svg) == expected
        assert "no geometry for 1 municipality: c" in svg


class TestIndexPage:
    def test_contains_links_and_rows(self):
        stats, cube, pops, rd = golden_inputs()
        labels = {"alpha": ClassLabel.G0, "beta": ClassLabel.G1, "gamma": ClassLabel.G3}
        html = render_index(cube, stats, labels, Group.BAA, "map_baa.svg")
        assert 'href="map_baa.svg"' in html
        assert 'href="dashboards/alpha.svg"' in html
        assert html.count("<tr>") == 4  # header + 3 rows
        assert html == render_index(cube, stats, labels, Group.BAA, "map_baa.svg")

    def test_misaligned_statistics_table_rejected(self):
        """The index reads the statistics by the cube's rows, so a table of
        another order is refused, not shown under the wrong ids."""
        stats, cube, pops, rd = golden_inputs()
        ids = cube.ids()
        labels = dict.fromkeys(ids, ClassLabel.G0)
        reversed_stats = inputs_of(cube.counts[::-1], pops.pops[::-1].tolist(), ids=ids[::-1])[0]
        with pytest.raises(RenderError, match="does not list the cube's municipality ids"):
            render_index(cube, reversed_stats, labels, Group.BAA, "map_baa.svg")

    def test_dashboard_links_are_percent_encoded(self):
        """An id is a file name in the link, so ``#``, ``?``, ``%`` and spaces are encoded."""
        links = {"a b": "a%20b", "x#1": "x%231", "q?v=1": "q%3Fv%3D1", "50%": "50%25",
                 '<&>"é': "%3C%26%3E%22%C3%A9"}
        ids = list(links)
        cube = make_cube(np.zeros((len(ids), 2, 4), dtype=np.int64), ids=ids)
        pops = make_pops(np.ones((len(ids), 4), dtype=np.int64), ids=ids)
        rd = rank_diff(rank_population(pops, cube.roster), rank_cases(cube))
        stats = group_stats(cube, pops, rd, RegimeConfig())
        html = render_index(cube, stats, dict.fromkeys(ids, ClassLabel.G0), Group.BAA,
                            "map_baa.svg")
        for mid, href in links.items():
            assert f'<td><a href="dashboards/{href}.svg">{escape(mid)}</a></td>' in html
