"""Per-municipality dashboard assembly and rendering.

A dashboard is a single self-contained SVG: population and case pies for the
four groups, the rank-difference history for BAA/HL/OTH with persistence and
skewness badges, and the relative-change line with its special-case marker
(cross, star, or triangle) where the comparison is degenerate.

Panel arrangement is this renderer's own choice: pies on top, the three
rank-difference panels side by side below.

Everything a dashboard shares with the others of its run (background, date
line, headers, legend swatches, panel frames and ±bound labels, badge boxes,
footer) is drawn once by ``_frame`` and kept pre-joined, as the segments
between the slots where ``render_dashboard`` draws one municipality's
fragments. A frame segment is a pure function of ``(axis, rd_bound)``, and
so are the cached panel x and y strings of their arguments, so warm and cold
caches give the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..errors import RenderError
from ..metrics import GroupStats, Special
from ..model import GROUPS, MINORITY_GROUPS, CaseCube, DateAxis, Group, Municipality, PopulationTable
from .svg import (
    GROUP_COLORS,
    SvgCanvas,
    draw_cross,
    draw_pie,
    draw_star,
    draw_triangle,
    fnum,
)

SPECIAL_NOTES = {
    Special.UNDEFINED_ZERO_ZERO: "undefined: no cases, no population",
    Special.POP_ZERO_CASES_NONZERO: "cases despite zero recorded population",
    Special.CASES_EXCEED_POP: "cases exceed recorded population",
}


@dataclass(frozen=True)
class DashboardModel:
    municipality: Municipality
    axis: DateAxis
    pop_shares: dict[Group, float] | None   # percent of 4-group total, sums to 100
    case_shares: dict[Group, float] | None
    pop_total: int
    case_total: int
    rd_series: dict[Group, tuple[int, ...]]  # BAA, HL, OTH
    stats: dict[Group, GroupStats]           # BAA, HL, OTH
    rd_bound: int                            # M - 1, y-axis limit for rd panels


def _shares(values: list[int], total: int) -> dict[Group, float] | None:
    if total == 0:
        return None
    return {g: float(v) / total * 100.0 for g, v in zip(GROUPS, values)}


def build_dashboard(
    stats: dict[str, dict[Group, GroupStats]],
    cube: CaseCube,
    pops: PopulationTable,
    municipality_id: str,
    rd: np.ndarray,
) -> DashboardModel:
    """Assemble the render-ready model for one municipality.

    ``rd`` is the (M, N, K) rank-difference tensor that ``stats`` was
    computed from, under whichever basis the analysis used.
    """
    try:
        i = cube.index_of(municipality_id)
    except KeyError:
        raise RenderError(f"unknown municipality id {municipality_id!r}") from None

    populations = pops.pops[i].tolist()
    case_totals = cube.counts[i].sum(axis=0, dtype=np.int64).tolist()
    pop_total, case_total = sum(populations), sum(case_totals)
    return DashboardModel(
        municipality=cube.municipalities[i],
        axis=cube.axis,
        pop_shares=_shares(populations, pop_total),
        case_shares=_shares(case_totals, case_total),
        pop_total=pop_total,
        case_total=case_total,
        rd_series={g: tuple(rd[i, :, GROUPS.index(g)].tolist()) for g in MINORITY_GROUPS},
        stats={g: stats[municipality_id][g] for g in MINORITY_GROUPS},
        rd_bound=max(cube.n_municipalities - 1, 1),
    )


# A run draws three panel x geometries and one y geometry; 8 leaves room for
# the geometries of other runs in the same process.
@lru_cache(maxsize=8)
def _panel_xs(x: float, w: float, n: int) -> tuple[str, ...]:
    """Formatted x of each of the ``n`` days in a panel at ``x`` of width ``w``."""
    return tuple(fnum(x + w * j / (n - 1)) for j in range(n))


class _PanelYs(dict):
    """Formatted y of each rd value in a panel, filled as values first occur.

    At most 2 * bound + 1 entries, so one dashboard formats only the values
    it draws and a run formats each value once per panel geometry.
    """

    def __init__(self, mid: float, h: float, bound: int) -> None:
        super().__init__()
        self.mid, self.h, self.bound = mid, h, bound

    def __missing__(self, value: int) -> str:
        text = self[value] = fnum(self.mid - (value / self.bound) * (self.h / 2.0))
        return text


@lru_cache(maxsize=8)
def _panel_ys(mid: float, h: float, bound: int) -> _PanelYs:
    return _PanelYs(mid, h, bound)


# The fixed layout, shared by ``_frame`` and ``render_dashboard``.
WIDTH, HEIGHT = 880, 560
LEGEND_X, LEGEND_Y = 450, 120
PANEL_Y, PANEL_W, PANEL_H = 300, 250, 150


def _panel_x(column: int) -> int:
    return 30 + column * 290


_SLOT = "\x00"  # where render_dashboard fills in one municipality's fragments


# One run draws one frame; 8 leaves room for the frames of other runs.
@lru_cache(maxsize=8)
def _frame(axis: DateAxis, bound: int) -> tuple[str, ...]:
    """The parts every dashboard of a run shares, as the joined segments that
    surround the municipality's fragments (the slots)."""
    canvas = SvgCanvas(WIDTH, HEIGHT)

    def slot() -> None:
        canvas.parts.append(_SLOT)

    canvas.rect(0, 0, WIDTH, HEIGHT, fill="#ffffff")
    slot()  # title and id
    canvas.text(860, 32, f"{axis.start.isoformat()} to {axis.end.isoformat()} ({axis.n_days} days)",
                size=12, fill="#666666", anchor="end")
    canvas.text(860, 52, "daily new confirmed or probable cases", size=11,
                fill="#888888", anchor="end")
    canvas.text(120, 92, "population", size=13, anchor="middle", weight="bold")
    canvas.text(320, 92, "cases", size=13, anchor="middle", weight="bold")
    slot()  # the two pies

    x, y = LEGEND_X, LEGEND_Y
    canvas.text(x + 18, y - 14, "group", size=11, fill="#666666")
    canvas.text(x + 80, y - 14, "population", size=11, fill="#666666", anchor="end")
    canvas.text(x + 150, y - 14, "cases", size=11, fill="#666666", anchor="end")
    for row, g in enumerate(GROUPS):
        ry = y + row * 20
        canvas.rect(x, ry - 10, 12, 12, fill=GROUP_COLORS[g])
        canvas.text(x + 18, ry, g.value, size=12)
        slot()  # the group's shares; after the last group, the totals

    y, w, h = PANEL_Y, PANEL_W, PANEL_H
    mid = y + h / 2.0
    for column, g in enumerate(MINORITY_GROUPS):
        x = _panel_x(column)
        canvas.text(x, y - 8, f"{g.value} rank difference", size=12, weight="bold")
        canvas.rect(x, y, w, h, fill="#fafafa", stroke="#cccccc")
        canvas.line(x, mid, x + w, mid, stroke="#999999", stroke_width=0.5, dash="3,3")
        canvas.text(x - 4, y + 4, f"+{bound}", size=9, fill="#888888", anchor="end")
        canvas.text(x - 4, y + h + 2, f"-{bound}", size=9, fill="#888888", anchor="end")
        slot()  # the rd series
        by = y + h + 18
        canvas.rect(x, by - 11, 86, 16, fill="#eef3f8", stroke="#b8c6d8", rx=3.0)
        slot()  # persistence and skewness badges
        canvas.text(x, by + 20, "vs W:", size=11, fill="#444444")
        slot()  # the marker and the relative change

    canvas.text(
        20, 545,
        "rank difference = population-size rank minus daily case rank;"
        " positive values mean more cases than population rank predicts",
        size=10, fill="#888888",
    )
    return tuple(canvas.to_svg().split(f"\n{_SLOT}\n"))


def _pie_or_disc(canvas: SvgCanvas, cx: float, shares: dict[Group, float] | None) -> None:
    if shares is None:
        canvas.circle(cx, 170, 64, fill="#eeeeee", stroke="#cccccc")
        canvas.text(cx, 174, "n/a", size=13, anchor="middle", fill="#888888")
    else:
        draw_pie(canvas, cx, 170, 64, [(GROUP_COLORS[g], shares[g]) for g in GROUPS])


def _share(shares: dict[Group, float] | None, g: Group) -> str:
    return "n/a" if shares is None else f"{shares[g]:.2f}%"


def render_dashboard(model: DashboardModel) -> str:
    """Render the dashboard SVG; identical models yield identical bytes.

    The fixed parts come pre-joined from ``_frame``; this draws only what
    varies between municipalities, in the frame's slots, in the same order.
    """
    frame = iter(_frame(model.axis, model.rd_bound))
    canvas = SvgCanvas(WIDTH, HEIGHT)
    parts = canvas.parts
    muni = model.municipality
    parts.append(next(frame))
    canvas.text(20, 32, f"{muni.name} ({muni.county})", size=20, weight="bold")
    canvas.text(20, 52, f"id {muni.id}", size=12, fill="#666666")
    parts.append(next(frame))
    _pie_or_disc(canvas, 120, model.pop_shares)
    _pie_or_disc(canvas, 320, model.case_shares)

    for row, g in enumerate(GROUPS):
        parts.append(next(frame))
        ry = LEGEND_Y + row * 20
        canvas.text(LEGEND_X + 80, ry, _share(model.pop_shares, g), size=12, anchor="end")
        canvas.text(LEGEND_X + 150, ry, _share(model.case_shares, g), size=12, anchor="end")
    canvas.text(LEGEND_X, 212, f"total population {model.pop_total:,}", size=11, fill="#666666")
    canvas.text(LEGEND_X, 228, f"total cases {model.case_total:,}", size=11, fill="#666666")

    bound, y, w, h = model.rd_bound, PANEL_Y, PANEL_W, PANEL_H
    mid = y + h / 2.0
    for column, g in enumerate(MINORITY_GROUPS):
        x = _panel_x(column)
        series, stats = model.rd_series[g], model.stats[g]
        parts.append(next(frame))
        if len(series) > 1:
            ys = _panel_ys(mid, h, bound)
            canvas.polyline(_panel_xs(x, w, len(series)), map(ys.__getitem__, series),
                            stroke=GROUP_COLORS[g], stroke_width=1.2)
        else:
            canvas.circle(x + w / 2.0, mid - (series[0] / bound) * (h / 2.0), 2.0,
                          fill=GROUP_COLORS[g])

        parts.append(next(frame))
        by = y + h + 18
        canvas.text(x + 4, by + 1, f"per {stats.persistence_pct:.1f}%", size=11)
        skew = "n/a" if stats.skewness is None else f"{stats.skewness:.2f}"
        canvas.text(x + 96, by + 1, f"skew {skew}", size=11)

        parts.append(next(frame))
        hy = by + 20
        marker_x = x + 40
        if stats.special is Special.UNDEFINED_ZERO_ZERO:
            draw_cross(canvas, marker_x, hy - 4, 9)
        elif stats.special is Special.POP_ZERO_CASES_NONZERO:
            draw_star(canvas, marker_x, hy - 4, 12)
        elif stats.special is Special.CASES_EXCEED_POP:
            draw_triangle(canvas, marker_x, hy - 4, 10)
        text_x = marker_x + 10 if stats.special is not Special.NORMAL else marker_x - 6
        if stats.relative_change_pct is None:
            note = SPECIAL_NOTES.get(stats.special, "undefined")
            canvas.text(text_x, hy, note, size=10, fill="#666666")
        else:
            canvas.text(text_x, hy, f"{stats.relative_change_pct:+.1f}%", size=11, weight="bold")

    parts.append(next(frame))
    return "\n".join(parts)
