"""Deterministic SVG elements as plain strings.

Each function returns markup with fixed-precision coordinates, so identical
inputs always produce byte-identical files; one that draws several elements
puts each on its own line. ``document`` wraps elements in a standalone SVG.
No external resources are referenced; text uses generic font families.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from itertools import repeat

import numpy as np

from ..classify import ClassLabel
from ..model import Group

GROUP_COLORS: dict[Group, str] = {
    Group.BAA: "#ee7733",
    Group.HL: "#228833",
    Group.OTH: "#aa3377",
    Group.W: "#4477aa",
}

# Fixed legend palette for the classification map.
CLASS_COLORS: dict[ClassLabel, str] = {
    ClassLabel.G0: "#1f77b4",    # blue
    ClassLabel.G1: "#ff7f0e",    # orange
    ClassLabel.G2: "#2ca02c",    # green
    ClassLabel.G3: "#9467bd",    # purple
    ClassLabel.UNCLASSIFIED: "#b0b0b0",
}


def fnum(value: float) -> str:
    """Fixed two-decimal coordinate formatting; avoids '-0.00'."""
    text = f"{value:.2f}"
    return "0.00" if text == "-0.00" else text


def fpoints(xs: np.ndarray, ys: np.ndarray) -> list[str]:
    """``f"{fnum(x)} {fnum(y)}"`` of each point (xs[j], ys[j]): a value that
    would read -0.00 is written 0.00."""
    xs, ys = (np.where(np.abs(v) < 0.005, 0.0, v).tolist() for v in (xs, ys))
    return list(map("{:.2f} {:.2f}".format, xs, ys))


def escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")
    )


def rect(x: float, y: float, w: float, h: float, fill: str = "none",
         stroke: str = "none", stroke_width: float = 1.0, rx: float = 0.0) -> str:
    extra = f' rx="{fnum(rx)}"' if rx else ""
    return (
        f'<rect x="{fnum(x)}" y="{fnum(y)}" width="{fnum(w)}" height="{fnum(h)}"'
        f' fill="{fill}" stroke="{stroke}" stroke-width="{fnum(stroke_width)}"{extra}/>'
    )


def line(x1: float, y1: float, x2: float, y2: float, stroke: str = "#000000",
         stroke_width: float = 1.0, dash: str | None = None) -> str:
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<line x1="{fnum(x1)}" y1="{fnum(y1)}" x2="{fnum(x2)}" y2="{fnum(y2)}"'
        f' stroke="{stroke}" stroke-width="{fnum(stroke_width)}"{extra}/>'
    )


def polyline(xs: Sequence[str], ys: Iterable[str], stroke: str, stroke_width: float = 1.0) -> str:
    """Polyline through the points (xs[j], ys[j]), given as ``fnum`` strings."""
    coords = " ".join([f"{x},{y}" for x, y in zip(xs, ys)])
    return (
        f'<polyline points="{coords}" fill="none" stroke="{stroke}"'
        f' stroke-width="{fnum(stroke_width)}"/>'
    )


def polygon(points: list[tuple[float, float]], fill: str) -> str:
    coords = " ".join(f"{fnum(x)},{fnum(y)}" for x, y in points)
    return f'<polygon points="{coords}" fill="{fill}" stroke="none" stroke-width="1.00"/>'


def path(d: str, fill: str, stroke: str = "none", stroke_width: float = 1.0) -> str:
    return (
        f'<path d="{d}" fill="{fill}" stroke="{stroke}"'
        f' stroke-width="{fnum(stroke_width)}" fill-rule="evenodd"/>'
    )


def circle(cx: float, cy: float, r: float, fill: str,
           stroke: str = "none", stroke_width: float = 1.0) -> str:
    return (
        f'<circle cx="{fnum(cx)}" cy="{fnum(cy)}" r="{fnum(r)}" fill="{fill}"'
        f' stroke="{stroke}" stroke-width="{fnum(stroke_width)}"/>'
    )


def text(x: float, y: float, content: str, size: int = 12, fill: str = "#222222",
         anchor: str = "start", weight: str = "normal") -> str:
    return (
        f'<text x="{fnum(x)}" y="{fnum(y)}" font-size="{size}" fill="{fill}"'
        f' text-anchor="{anchor}" font-weight="{weight}"'
        f' font-family="Helvetica, Arial, sans-serif">{escape(content)}</text>'
    )


def document(width: int, height: int, elements: Iterable[str]) -> str:
    """A standalone SVG document holding ``elements``, one per line."""
    header = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}"'
        f' height="{height}" viewBox="0 0 {width} {height}">\n'
    )
    return header + "\n".join(elements) + "\n</svg>\n"


def pie_angles(shares: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sweeps and bounds in degrees of the wedges of a block of pies, a row per
    pie and a column per wedge; ``shares`` are percentages of each disc.

    Wedge k runs from ``bounds[:, k]`` to ``bounds[:, k + 1]``, the first from
    -90 degrees. The sums run along the row one wedge at a time, so each bound
    is the float that adding up that pie's sweeps in turn gives."""
    sweeps = shares / 100.0 * 360.0
    bounds = np.cumsum(np.hstack([np.full((len(shares), 1), -90.0), sweeps]), axis=1)
    return sweeps, bounds


def _arc_point(cx: float, cy: float, r: float, angle_deg: float) -> tuple[float, float]:
    rad = math.radians(angle_deg)
    return cx + r * math.cos(rad), cy + r * math.sin(rad)


def _points(cx: float, cy: float, r: float, degrees: np.ndarray) -> list[str]:
    """``f"{fnum(x)} {fnum(y)}"`` of the point at each angle on the circle.

    The points go through ``math.cos`` and ``math.sin``, whose results do not
    depend on the CPU's vector unit as NumPy's can."""
    radians = (degrees * (math.pi / 180.0)).tolist()
    return fpoints(cx + r * np.array(list(map(math.cos, radians))),
                   cy + r * np.array(list(map(math.sin, radians))))


def pies(cx: float, cy: float, r: float, colors: Sequence[str], shares: np.ndarray) -> list[str]:
    """One pie per row of ``shares``, from a percentage per wedge and a column
    per color, each wedge on its own line. Zero wedges are skipped, a wedge
    of 359.999 degrees or more is a full disc, and a row without wedges is
    the empty string."""
    sweeps, bounds = pie_angles(shares)
    drawn, disc = shares > 0.0, sweeps >= 359.999
    wedges = drawn & ~disc
    ends = np.zeros(bounds.shape, dtype=bool)  # a bound that starts or ends a wedge
    ends[:, :-1] |= wedges
    ends[:, 1:] |= wedges
    points = np.full(bounds.shape, None, dtype=object)
    points[ends] = _points(cx, cy, r, bounds[ends])

    # Each wedge is its path's pieces around its two points, joined by
    # element-wise + on object arrays: the large-arc flag picks the middle
    # piece and the column (the color) the last.
    slot = "\0"
    centre, radius = f"{fnum(cx)} {fnum(cy)}", fnum(r)
    head, arc, sweep_flag, tail = np.array([
        path(f"M {centre} L {slot} A {radius} {radius} 0 {slot} 1 {slot} Z", fill=color,
             stroke="#ffffff", stroke_width=1.0).split(slot)
        for color in colors], dtype=object).T
    middles = np.array([arc[0] + large + sweep_flag[0] for large in "01"], dtype=object)
    rows, columns = np.nonzero(wedges)
    cells = np.full(shares.shape, None, dtype=object)
    cells[rows, columns] = (head[0] + points[rows, columns]
                            + middles[(sweeps[rows, columns] > 180.0).astype(np.intp)]
                            + points[rows, columns + 1] + tail[columns])
    discs = np.array([circle(cx, cy, r, fill=color, stroke="#ffffff", stroke_width=1.0)
                      for color in colors], dtype=object)
    rows, columns = np.nonzero(drawn & disc)
    cells[rows, columns] = discs[columns]
    return list(map("\n".join, map(filter, repeat(None), cells.tolist())))


def cross(cx: float, cy: float, size: float, color: str = "#cc3311") -> str:
    half = size / 2.0
    return (line(cx - half, cy - half, cx + half, cy + half, stroke=color, stroke_width=2.0)
            + "\n"
            + line(cx - half, cy + half, cx + half, cy - half, stroke=color, stroke_width=2.0))


def star(cx: float, cy: float, size: float, color: str = "#cc3311") -> str:
    outer = size / 2.0
    inner = outer * 0.42
    points = []
    for step in range(10):
        r = outer if step % 2 == 0 else inner
        angle = -90.0 + step * 36.0
        points.append(_arc_point(cx, cy, r, angle))
    return polygon(points, fill=color)


def triangle(cx: float, cy: float, size: float, color: str = "#cc3311") -> str:
    half = size / 2.0
    points = [(cx, cy - half), (cx + half, cy + half), (cx - half, cy + half)]
    return polygon(points, fill=color)
