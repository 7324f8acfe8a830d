"""Per-municipality dashboards, drawn for a block of municipalities at once.

A dashboard is a single self-contained SVG: population and case pies for the
four groups, the rank-difference history for BAA/HL/OTH with persistence and
skewness badges, and the relative change against W as a number, with a
special-case marker (cross, star, or triangle) and a note where the
comparison is degenerate.

Panel arrangement is this renderer's own choice: pies on top, the three
rank-difference panels side by side below.

``_frame`` draws everything a dashboard shares with the others of its run
once: the document's literal pieces, between which ``render_dashboard``
joins one municipality's values, and each panel's special-case markers and
notes. The frame is a pure function of the date axis and the rd bound,
max(M - 1, 1), so warm and cold caches give the same bytes.

``build_dashboard`` draws the values of a block of municipalities, one row
each, as columns: shares, wedge angles and arc points as arrays, and each
column of text by one ``map`` over the block, not one call chain per
dashboard. A caller goes through a roster in blocks of rows, so only one
block's texts are held at a time. ``render_dashboard(block, row)`` joins one
row of the block between the frame's pieces, which the block keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

import numpy as np

from ..errors import RenderError
from ..metrics import SPECIALS, GroupStatsTable, Special
from ..model import GROUP_INDEX, GROUPS, MINORITY_GROUPS, CaseCube, DateAxis, PopulationTable
from .svg import (
    GROUP_COLORS,
    circle,
    cross,
    document,
    escape,
    fnum,
    line,
    pies,
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
class DashboardBlock:
    """The dashboards of a block of municipalities as columns, a row per id.

    A value of each dashboard is one column, in document order, and
    ``pieces`` are the literal pieces of the run's frame that the values go
    between. A block holds a few dozen lists, not a container per dashboard.
    """

    ids: tuple[str, ...]
    pieces: tuple[str, ...]
    columns: list[list[str]]


# The fixed layout, shared by ``_frame`` and ``build_dashboard``.
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
                                                dict[tuple[int, Special], tuple[str, list[str]]]]:
    """What every dashboard of a run shares: the document's literal pieces,
    split at its slots, each panel's x strings, the y string of each rd value
    in ``[-bound, bound]``, formatted when first drawn, and per (panel column,
    special case) the marker with its note where the relative change is
    undefined, and the marker with its note split where a defined one goes."""
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
    notes = {}
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
        markers = {Special.NORMAL: ("", marker_x - 6)}
        for special, (shape, size) in SPECIAL_MARKERS.items():
            markers[special] = shape(marker_x, NOTE_Y - 4, size) + "\n", marker_x + 10
        for special, (marker, text_x) in markers.items():
            notes[column, special] = (
                marker + text(text_x, NOTE_Y, SPECIAL_NOTES.get(special, "undefined"), size=10,
                              fill="#666666"),
                (marker + text(text_x, NOTE_Y, _SLOT, size=11, weight="bold")).split(_SLOT))

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

    class YTexts(dict):
        def __missing__(self, value: int) -> str:
            return self.setdefault(value, fnum(PANEL_MID - (value / bound) * (h / 2.0)))

    return pieces, xs, YTexts(), notes


def _shares(values: np.ndarray, totals: list[int]) -> np.ndarray:
    """``float(v) / total * 100.0`` of each value of each row, in the same
    float64 arithmetic; 0 where the total is 0."""
    totals = np.array(totals, dtype=np.float64)[:, None]
    shares = np.zeros(values.shape)
    np.divide(values.astype(np.float64), totals, out=shares, where=totals > 0)
    return shares * 100.0


def _totals(values: np.ndarray) -> list[int]:
    """The exact sum of each row, in Python integers, which do not wrap."""
    return list(map(sum, map(np.ndarray.tolist, values)))


def build_dashboard(
    stats: GroupStatsTable,
    cube: CaseCube,
    pops: PopulationTable,
    ids: list[str],
    rd: np.ndarray,
) -> DashboardBlock:
    """Draw the dashboards of the municipalities ``ids`` as one block.

    ``stats`` and ``pops`` list ``cube``'s roster in its order, and ``rd`` is
    the (M, N, K) rank-difference tensor ``stats`` was computed from, under
    whichever basis the analysis used.
    """
    try:
        rows = [cube.roster.index[mid] for mid in ids]
    except KeyError as exc:
        raise RenderError(f"unknown municipality id {exc.args[0]!r}") from None
    for table in (pops.roster, stats.roster):
        cube.roster.check(table, "population or statistics table", RenderError)
    municipalities = [cube.municipalities[i] for i in rows]
    # One escape for every text, split back at the NULs, which no Municipality holds.
    names = escape("\0".join(chain.from_iterable(
        (muni.name, muni.county, muni.id) for muni in municipalities))).split("\0")
    bound = max(cube.n_municipalities - 1, 1)
    pieces, panel_xs, ys, notes = _frame(cube.axis, bound)
    columns = [names[0::3], names[1::3], names[2::3]]

    populations = pops.pops[rows]
    case_counts = cube.counts[rows].sum(axis=1, dtype=np.int64)
    pop_totals, case_totals = _totals(populations), _totals(case_counts)
    pop_shares, case_shares = _shares(populations, pop_totals), _shares(case_counts, case_totals)
    colors = [GROUP_COLORS[g] for g in GROUPS]
    shown = []
    for cx, shares, totals in ((120, pop_shares, pop_totals), (320, case_shares, case_totals)):
        drawn = pies(cx, 170, 64, colors, shares)
        texts = np.array(list(map("{:.2f}%".format, shares.ravel().tolist())),
                         dtype=object).reshape(shares.shape)
        for i in [i for i, total in enumerate(totals) if total == 0]:
            drawn[i] = (circle(cx, 170, 64, fill="#eeeeee", stroke="#cccccc") + "\n"
                        + text(cx, 174, "n/a", size=13, anchor="middle", fill="#888888"))
            texts[i] = "n/a"
        columns.append(drawn)
        shown.append(texts.T.tolist())
    columns += chain.from_iterable(zip(*shown))  # population then case share, group by group
    columns += list(map("{:,}".format, pop_totals)), list(map("{:,}".format, case_totals))

    for column, g in enumerate(MINORITY_GROUPS):
        k = GROUP_INDEX[g]
        series = rd[rows, :, k]
        if cube.n_days > 1:
            columns.append([polyline(panel_xs[column], map(ys.__getitem__, values.tolist()),
                                     stroke=GROUP_COLORS[g], stroke_width=1.2)
                            for values in series])
        else:
            columns.append([circle(_panel_x(column) + PANEL_W / 2.0,
                                   PANEL_MID - (int(value) / bound) * (PANEL_H / 2.0), 2.0,
                                   fill=GROUP_COLORS[g]) for value in series[:, 0]])
        columns.append(list(map("{:.1f}".format, stats.persistence[rows, k].tolist())))
        columns.append(["n/a" if math.isnan(skew) else f"{skew:.2f}"
                        for skew in stats.skewness[rows, k].tolist()])
        panel = [notes[column, special] for special in SPECIALS]
        columns.append([panel[code][0] if math.isnan(change)
                        else "{1}{0:+.1f}%{2}".format(change, *panel[code][1])
                        for change, code in zip(stats.relative_change[rows, k].tolist(),
                                                stats.special[rows, k].tolist())])

    return DashboardBlock(ids=tuple(ids), pieces=pieces, columns=columns)


def render_dashboard(block: DashboardBlock, row: int) -> str:
    """Render the dashboard SVG of the ``row``-th id of ``block``.

    Joins that row's values, in document order, between the frame's pieces;
    the same row of the same block yields the same bytes.
    """
    columns = block.columns
    parts = [""] * (2 * len(columns) + 1)
    parts[::2] = block.pieces
    parts[1::2] = [column[row] for column in columns]
    return "".join(parts)
