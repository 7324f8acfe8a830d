"""Per-municipality dashboard assembly and rendering.

A dashboard is a single self-contained SVG: population and case pies for the
four groups, the rank-difference history for BAA/HL/OTH with persistence and
skewness badges, and the relative-change line with its special-case marker
(cross, star, or triangle) where the comparison is degenerate.

Panel arrangement is this renderer's own choice: pies on top, the three
rank-difference panels side by side below.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _shares(values: np.ndarray) -> dict[Group, float] | None:
    total = int(values.sum())
    if total == 0:
        return None
    return {g: float(values[k]) / total * 100.0 for k, g in enumerate(GROUPS)}


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

    case_totals = cube.counts[i].sum(axis=0)
    return DashboardModel(
        municipality=cube.municipalities[i],
        axis=cube.axis,
        pop_shares=_shares(pops.pops[i]),
        case_shares=_shares(case_totals),
        pop_total=int(pops.pops[i].sum()),
        case_total=int(case_totals.sum()),
        rd_series={
            g: tuple(int(v) for v in rd[i, :, GROUPS.index(g)]) for g in MINORITY_GROUPS
        },
        stats={g: stats[municipality_id][g] for g in MINORITY_GROUPS},
        rd_bound=max(cube.n_municipalities - 1, 1),
    )


def _legend_rows(canvas: SvgCanvas, x: float, y: float, model: DashboardModel) -> None:
    canvas.text(x + 18, y - 14, "group", size=11, fill="#666666")
    canvas.text(x + 80, y - 14, "population", size=11, fill="#666666", anchor="end")
    canvas.text(x + 150, y - 14, "cases", size=11, fill="#666666", anchor="end")
    for row, g in enumerate(GROUPS):
        ry = y + row * 20
        canvas.rect(x, ry - 10, 12, 12, fill=GROUP_COLORS[g])
        canvas.text(x + 18, ry, g.value, size=12)
        pop = "n/a" if model.pop_shares is None else f"{model.pop_shares[g]:.2f}%"
        case = "n/a" if model.case_shares is None else f"{model.case_shares[g]:.2f}%"
        canvas.text(x + 80, ry, pop, size=12, anchor="end")
        canvas.text(x + 150, ry, case, size=12, anchor="end")


def _rd_panel(canvas: SvgCanvas, x: float, y: float, w: float, h: float,
              group: Group, series: tuple[int, ...], stats: GroupStats, bound: int) -> None:
    canvas.text(x, y - 8, f"{group.value} rank difference", size=12, weight="bold")
    canvas.rect(x, y, w, h, fill="#fafafa", stroke="#cccccc")
    mid = y + h / 2.0
    canvas.line(x, mid, x + w, mid, stroke="#999999", stroke_width=0.5, dash="3,3")
    canvas.text(x - 4, y + 4, f"+{bound}", size=9, fill="#888888", anchor="end")
    canvas.text(x - 4, y + h + 2, f"-{bound}", size=9, fill="#888888", anchor="end")

    n = len(series)
    points = []
    for j, value in enumerate(series):
        px = x + (w * j / (n - 1) if n > 1 else w / 2.0)
        py = mid - (value / bound) * (h / 2.0)
        points.append((px, py))
    if n > 1:
        canvas.polyline(points, stroke=GROUP_COLORS[group], stroke_width=1.2)
    else:
        canvas.circle(points[0][0], points[0][1], 2.0, fill=GROUP_COLORS[group])

    # badges under the panel
    by = y + h + 18
    canvas.rect(x, by - 11, 86, 16, fill="#eef3f8", stroke="#b8c6d8", rx=3.0)
    canvas.text(x + 4, by + 1, f"per {stats.persistence_pct:.1f}%", size=11)
    skew = "n/a" if stats.skewness is None else f"{stats.skewness:.2f}"
    canvas.text(x + 96, by + 1, f"skew {skew}", size=11)

    hy = by + 20
    canvas.text(x, hy, "vs W:", size=11, fill="#444444")
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


def render_dashboard(model: DashboardModel) -> str:
    """Render the dashboard SVG; identical models yield identical bytes."""
    canvas = SvgCanvas(880, 560)
    canvas.rect(0, 0, 880, 560, fill="#ffffff")
    muni = model.municipality
    canvas.text(20, 32, f"{muni.name} ({muni.county})", size=20, weight="bold")
    canvas.text(20, 52, f"id {muni.id}", size=12, fill="#666666")
    canvas.text(
        860, 32,
        f"{model.axis.start.isoformat()} to {model.axis.end.isoformat()}"
        f" ({model.axis.n_days} days)",
        size=12, fill="#666666", anchor="end",
    )
    canvas.text(860, 52, "daily new confirmed or probable cases", size=11,
                fill="#888888", anchor="end")

    canvas.text(120, 92, "population", size=13, anchor="middle", weight="bold")
    canvas.text(320, 92, "cases", size=13, anchor="middle", weight="bold")
    if model.pop_shares is None:
        canvas.circle(120, 170, 64, fill="#eeeeee", stroke="#cccccc")
        canvas.text(120, 174, "n/a", size=13, anchor="middle", fill="#888888")
    else:
        draw_pie(canvas, 120, 170, 64,
                 [(GROUP_COLORS[g], model.pop_shares[g]) for g in GROUPS])
    if model.case_shares is None:
        canvas.circle(320, 170, 64, fill="#eeeeee", stroke="#cccccc")
        canvas.text(320, 174, "n/a", size=13, anchor="middle", fill="#888888")
    else:
        draw_pie(canvas, 320, 170, 64,
                 [(GROUP_COLORS[g], model.case_shares[g]) for g in GROUPS])
    _legend_rows(canvas, 450, 120, model)
    canvas.text(450, 212, f"total population {model.pop_total:,}", size=11, fill="#666666")
    canvas.text(450, 228, f"total cases {model.case_total:,}", size=11, fill="#666666")

    panel_w, panel_h = 250, 150
    for column, g in enumerate(MINORITY_GROUPS):
        x = 30 + column * 290
        _rd_panel(canvas, x, 300, panel_w, panel_h, g,
                  model.rd_series[g], model.stats[g], model.rd_bound)
    canvas.text(
        20, 545,
        "rank difference = population-size rank minus daily case rank;"
        " positive values mean more cases than population rank predicts",
        size=10, fill="#888888",
    )
    return canvas.to_svg()
