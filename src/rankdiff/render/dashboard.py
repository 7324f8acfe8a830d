"""Per-municipality dashboard assembly and rendering.

A dashboard is a single self-contained SVG: population and case pies for the
four groups, the rank-difference history for BAA/HL/OTH with persistence and
skewness badges, and the relative change against W as a number, with a
special-case marker (cross, star, or triangle) and a note where the
comparison is degenerate.

Panel arrangement is this renderer's own choice: pies on top, the three
rank-difference panels side by side below.

``_frame`` draws everything a dashboard shares with the others of its run
once: the document's literal pieces, between which ``render_dashboard``
joins one municipality's values, and each panel's special-case markers. The
frame is a pure function of ``(axis, rd_bound)``, so warm and cold caches give
the same bytes.
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
    circle,
    cross,
    document,
    escape,
    fnum,
    line,
    pie,
    polyline,
    rect,
    star,
    text,
    triangle,
)

SPECIAL_NOTES = {
    Special.UNDEFINED_ZERO_ZERO: "undefined: no cases, no population",
    Special.POP_ZERO_CASES_NONZERO: "cases despite zero recorded population",
    Special.CASES_EXCEED_POP: "cases exceed recorded population",
}
SPECIAL_MARKERS = {  # the shape and size of each special case's marker
    Special.UNDEFINED_ZERO_ZERO: (cross, 9),
    Special.POP_ZERO_CASES_NONZERO: (star, 12),
    Special.CASES_EXCEED_POP: (triangle, 10),
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
    rd_bound: int                            # max(M - 1, 1), y-axis limit for rd panels


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


# The fixed layout, shared by ``_frame`` and ``render_dashboard``.
WIDTH, HEIGHT = 880, 560
LEGEND_X, LEGEND_Y = 450, 120
PANEL_Y, PANEL_W, PANEL_H = 300, 250, 150
PANEL_MID = PANEL_Y + PANEL_H / 2.0


def _panel_x(column: int) -> int:
    return 30 + column * 290


_SLOT = "\x00"  # where render_dashboard fills in one municipality's values
NOTE_Y = PANEL_Y + PANEL_H + 38  # the baseline of each panel's relative-change note


# One run draws one frame; 8 leaves room for the frames of other runs.
@lru_cache(maxsize=8)
def _frame(axis: DateAxis, bound: int) -> tuple[tuple[str, ...], tuple[tuple[str, ...], ...],
                                                dict[int, str],
                                                dict[tuple[int, Special], tuple[str, float]]]:
    """What every dashboard of a run shares: the document's literal pieces,
    split at its slots, each panel's x strings, the y string of every
    rd value in ``[-bound, bound]``, and per (panel column, special case) the
    marker and the x of the relative-change note."""
    x, y = LEGEND_X, LEGEND_Y
    elements = [rect(0, 0, WIDTH, HEIGHT, fill="#ffffff"),
                text(20, 32, f"{_SLOT} ({_SLOT})", size=20, weight="bold"),
                text(20, 52, f"id {_SLOT}", size=12, fill="#666666"),
                text(860, 32, f"{axis.start.isoformat()} to {axis.end.isoformat()}"
                     f" ({axis.n_days} days)", size=12, fill="#666666", anchor="end"),
                text(860, 52, "daily new confirmed or probable cases", size=11,
                     fill="#888888", anchor="end"),
                text(120, 92, "population", size=13, anchor="middle", weight="bold"),
                text(320, 92, "cases", size=13, anchor="middle", weight="bold"),
                _SLOT, _SLOT,  # the two pies
                text(x + 18, y - 14, "group", size=11, fill="#666666"),
                text(x + 80, y - 14, "population", size=11, fill="#666666", anchor="end"),
                text(x + 150, y - 14, "cases", size=11, fill="#666666", anchor="end")]
    for row, g in enumerate(GROUPS):
        ry = y + row * 20
        elements += (rect(x, ry - 10, 12, 12, fill=GROUP_COLORS[g]),
                     text(x + 18, ry, g.value, size=12),
                     text(x + 80, ry, _SLOT, size=12, anchor="end"),
                     text(x + 150, ry, _SLOT, size=12, anchor="end"))
    elements += (text(x, 212, f"total population {_SLOT}", size=11, fill="#666666"),
                 text(x, 228, f"total cases {_SLOT}", size=11, fill="#666666"))

    y, w, h = PANEL_Y, PANEL_W, PANEL_H
    markers = {}
    for column, g in enumerate(MINORITY_GROUPS):
        x = _panel_x(column)
        by = y + h + 18
        elements += (text(x, y - 8, f"{g.value} rank difference", size=12, weight="bold"),
                     rect(x, y, w, h, fill="#fafafa", stroke="#cccccc"),
                     line(x, PANEL_MID, x + w, PANEL_MID, stroke="#999999", stroke_width=0.5,
                          dash="3,3"),
                     text(x - 4, y + 4, f"+{bound}", size=9, fill="#888888", anchor="end"),
                     text(x - 4, y + h + 2, f"-{bound}", size=9, fill="#888888", anchor="end"),
                     _SLOT,  # the rd series
                     rect(x, by - 11, 86, 16, fill="#eef3f8", stroke="#b8c6d8", rx=3.0),
                     text(x + 4, by + 1, f"per {_SLOT}%", size=11),
                     text(x + 96, by + 1, f"skew {_SLOT}", size=11),
                     text(x, by + 20, "vs W:", size=11, fill="#444444"),
                     _SLOT)  # the marker and the relative change
        marker_x = x + 40  # a marker and its note are one slot value, a line apart
        markers[column, Special.NORMAL] = "", marker_x - 6
        for special, (shape, size) in SPECIAL_MARKERS.items():
            markers[column, special] = shape(marker_x, NOTE_Y - 4, size) + "\n", marker_x + 10

    elements.append(text(
        20, 545,
        "rank difference = population-size rank minus daily case rank;"
        " positive values mean more cases than population rank predicts",
        size=10, fill="#888888",
    ))
    pieces = tuple(document(WIDTH, HEIGHT, elements).split(_SLOT))
    n = axis.n_days  # a one-day panel draws a circle, not these x strings
    xs = tuple(tuple(fnum(_panel_x(column) + w * j / max(n - 1, 1)) for j in range(n))
               for column in range(len(MINORITY_GROUPS)))
    ys = {value: fnum(PANEL_MID - (value / bound) * (h / 2.0))
          for value in range(-bound, bound + 1)}
    return pieces, xs, ys, markers


def _pie_or_disc(cx: float, shares: dict[Group, float] | None) -> str:
    if shares is None:
        return (circle(cx, 170, 64, fill="#eeeeee", stroke="#cccccc") + "\n"
                + text(cx, 174, "n/a", size=13, anchor="middle", fill="#888888"))
    return pie(cx, 170, 64, [(GROUP_COLORS[g], shares[g]) for g in GROUPS])


def _share(shares: dict[Group, float] | None, g: Group) -> str:
    return "n/a" if shares is None else f"{shares[g]:.2f}%"


def render_dashboard(model: DashboardModel) -> str:
    """Render the dashboard SVG; identical models yield identical bytes.

    Joins this municipality's values, in document order, between the run's
    pieces from ``_frame``.
    """
    pieces, panel_xs, ys, markers = _frame(model.axis, model.rd_bound)
    muni = model.municipality
    values = [escape(muni.name), escape(muni.county), escape(muni.id),
              _pie_or_disc(120, model.pop_shares),
              _pie_or_disc(320, model.case_shares)]
    for g in GROUPS:
        values += _share(model.pop_shares, g), _share(model.case_shares, g)
    values += f"{model.pop_total:,}", f"{model.case_total:,}"

    for column, g in enumerate(MINORITY_GROUPS):
        series, stats = model.rd_series[g], model.stats[g]
        if len(series) > 1:
            values.append(polyline(panel_xs[column], map(ys.__getitem__, series),
                                   stroke=GROUP_COLORS[g], stroke_width=1.2))
        else:
            values.append(circle(_panel_x(column) + PANEL_W / 2.0,
                                 PANEL_MID - (series[0] / model.rd_bound) * (PANEL_H / 2.0), 2.0,
                                 fill=GROUP_COLORS[g]))
        skew = "n/a" if stats.skewness is None else f"{stats.skewness:.2f}"
        values += f"{stats.persistence_pct:.1f}", skew

        marker, text_x = markers[column, stats.special]
        if stats.relative_change_pct is None:
            note = text(text_x, NOTE_Y, SPECIAL_NOTES.get(stats.special, "undefined"),
                        size=10, fill="#666666")
        else:
            note = text(text_x, NOTE_Y, f"{stats.relative_change_pct:+.1f}%",
                        size=11, weight="bold")
        values.append(marker + note)
    parts = [""] * (2 * len(values) + 1)
    parts[::2] = pieces
    parts[1::2] = values
    return "".join(parts)
