"""Minimal deterministic SVG builder.

Documents are assembled as plain strings with fixed-precision coordinates so
identical inputs always produce byte-identical files. No external resources
are referenced; text uses generic font families.

Most ``text``, ``rect`` and ``line`` elements of a dashboard are the same in
every dashboard of a run, so their strings come from bounded LRU caches keyed
by the element's arguments. A cached fragment is a pure function of its
arguments (typed, so ``1`` and ``1.0`` are separate keys), so warm and cold
caches give the same bytes.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from functools import lru_cache

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


def escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")
    )


# Enough for every distinct element of one dashboard's frame, so a run of
# dashboards keeps the frame cached while one-off elements cycle through.
_FRAGMENTS = 512


@lru_cache(maxsize=_FRAGMENTS, typed=True)
def _rect(x: float, y: float, w: float, h: float, fill: str, stroke: str,
          stroke_width: float, rx: float) -> str:
    extra = f' rx="{fnum(rx)}"' if rx else ""
    return (
        f'<rect x="{fnum(x)}" y="{fnum(y)}" width="{fnum(w)}" height="{fnum(h)}"'
        f' fill="{fill}" stroke="{stroke}" stroke-width="{fnum(stroke_width)}"{extra}/>'
    )


@lru_cache(maxsize=_FRAGMENTS, typed=True)
def _line(x1: float, y1: float, x2: float, y2: float, stroke: str, stroke_width: float,
          dash: str | None) -> str:
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<line x1="{fnum(x1)}" y1="{fnum(y1)}" x2="{fnum(x2)}" y2="{fnum(y2)}"'
        f' stroke="{stroke}" stroke-width="{fnum(stroke_width)}"{extra}/>'
    )


@lru_cache(maxsize=_FRAGMENTS, typed=True)
def _text(x: float, y: float, content: str, size: int, fill: str, anchor: str,
          weight: str) -> str:
    return (
        f'<text x="{fnum(x)}" y="{fnum(y)}" font-size="{size}" fill="{fill}"'
        f' text-anchor="{anchor}" font-weight="{weight}"'
        f' font-family="Helvetica, Arial, sans-serif">{escape(content)}</text>'
    )


class SvgCanvas:
    def __init__(self, width: int, height: int) -> None:
        self.width = width
        self.height = height
        self.parts: list[str] = []

    def rect(self, x: float, y: float, w: float, h: float, fill: str = "none",
             stroke: str = "none", stroke_width: float = 1.0, rx: float = 0.0) -> None:
        self.parts.append(_rect(x, y, w, h, fill, stroke, stroke_width, rx))

    def line(self, x1: float, y1: float, x2: float, y2: float, stroke: str = "#000000",
             stroke_width: float = 1.0, dash: str | None = None) -> None:
        self.parts.append(_line(x1, y1, x2, y2, stroke, stroke_width, dash))

    def polyline(self, xs: Sequence[str], ys: Iterable[str], stroke: str,
                 stroke_width: float = 1.0) -> None:
        """Polyline through the points (xs[j], ys[j]), given as ``fnum`` strings."""
        coords = " ".join([f"{x},{y}" for x, y in zip(xs, ys)])
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{stroke}"'
            f' stroke-width="{fnum(stroke_width)}"/>'
        )

    def polygon(self, points: list[tuple[float, float]], fill: str,
                stroke: str = "none", stroke_width: float = 1.0) -> None:
        coords = " ".join(f"{fnum(x)},{fnum(y)}" for x, y in points)
        self.parts.append(
            f'<polygon points="{coords}" fill="{fill}" stroke="{stroke}"'
            f' stroke-width="{fnum(stroke_width)}"/>'
        )

    def path(self, d: str, fill: str, stroke: str = "none", stroke_width: float = 1.0) -> None:
        self.parts.append(
            f'<path d="{d}" fill="{fill}" stroke="{stroke}"'
            f' stroke-width="{fnum(stroke_width)}" fill-rule="evenodd"/>'
        )

    def circle(self, cx: float, cy: float, r: float, fill: str,
               stroke: str = "none", stroke_width: float = 1.0) -> None:
        self.parts.append(
            f'<circle cx="{fnum(cx)}" cy="{fnum(cy)}" r="{fnum(r)}" fill="{fill}"'
            f' stroke="{stroke}" stroke-width="{fnum(stroke_width)}"/>'
        )

    def text(self, x: float, y: float, content: str, size: int = 12, fill: str = "#222222",
             anchor: str = "start", weight: str = "normal") -> None:
        self.parts.append(_text(x, y, content, size, fill, anchor, weight))

    def to_svg(self) -> str:
        header = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}"'
            f' height="{self.height}" viewBox="0 0 {self.width} {self.height}">\n'
        )
        return header + "\n".join(self.parts) + "\n</svg>\n"


def pie_angles(shares: list[float]) -> list[tuple[float, float]]:
    """(start, sweep) degrees per wedge; shares are percentages of the disc."""
    out = []
    start = -90.0
    for share in shares:
        sweep = share / 100.0 * 360.0
        out.append((start, sweep))
        start += sweep
    return out


def _arc_point(cx: float, cy: float, r: float, angle_deg: float) -> tuple[float, float]:
    rad = math.radians(angle_deg)
    return cx + r * math.cos(rad), cy + r * math.sin(rad)


def draw_pie(canvas: SvgCanvas, cx: float, cy: float, r: float,
             shares: list[tuple[str, float]]) -> None:
    """Draw one pie from (color, percent) wedges; zero wedges are skipped."""
    angles = pie_angles([s for _, s in shares])
    centre, radius = f"{fnum(cx)} {fnum(cy)}", fnum(r)
    for (color, share), (start, sweep) in zip(shares, angles):
        if share <= 0.0:
            continue
        if sweep >= 359.999:
            canvas.circle(cx, cy, r, fill=color, stroke="#ffffff", stroke_width=1.0)
            continue
        x1, y1 = _arc_point(cx, cy, r, start)
        x2, y2 = _arc_point(cx, cy, r, start + sweep)
        large = 1 if sweep > 180.0 else 0
        d = (
            f"M {centre} L {fnum(x1)} {fnum(y1)} "
            f"A {radius} {radius} 0 {large} 1 {fnum(x2)} {fnum(y2)} Z"
        )
        canvas.path(d, fill=color, stroke="#ffffff", stroke_width=1.0)


def draw_cross(canvas: SvgCanvas, cx: float, cy: float, size: float, color: str = "#cc3311") -> None:
    half = size / 2.0
    canvas.line(cx - half, cy - half, cx + half, cy + half, stroke=color, stroke_width=2.0)
    canvas.line(cx - half, cy + half, cx + half, cy - half, stroke=color, stroke_width=2.0)


def draw_star(canvas: SvgCanvas, cx: float, cy: float, size: float, color: str = "#cc3311") -> None:
    outer = size / 2.0
    inner = outer * 0.42
    points = []
    for step in range(10):
        r = outer if step % 2 == 0 else inner
        angle = -90.0 + step * 36.0
        points.append(_arc_point(cx, cy, r, angle))
    canvas.polygon(points, fill=color)


def draw_triangle(canvas: SvgCanvas, cx: float, cy: float, size: float, color: str = "#cc3311") -> None:
    half = size / 2.0
    points = [(cx, cy - half), (cx + half, cy + half), (cx - half, cy + half)]
    canvas.polygon(points, fill=color)
