"""Deterministic SVG elements as plain strings.

Each function returns markup with fixed-precision coordinates, so identical
inputs always produce byte-identical files; one that draws several elements
puts each on its own line. ``document`` wraps elements in a standalone SVG.
No external resources are referenced; text uses generic font families.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

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


def pie(cx: float, cy: float, r: float, shares: list[tuple[str, float]]) -> str:
    """One pie from (color, percent) wedges, one element per line; zero
    wedges are skipped."""
    angles = pie_angles([s for _, s in shares])
    centre, radius = f"{fnum(cx)} {fnum(cy)}", fnum(r)
    wedges = []
    for (color, share), (start, sweep) in zip(shares, angles):
        if share <= 0.0:
            continue
        if sweep >= 359.999:
            wedges.append(circle(cx, cy, r, fill=color, stroke="#ffffff", stroke_width=1.0))
            continue
        x1, y1 = _arc_point(cx, cy, r, start)
        x2, y2 = _arc_point(cx, cy, r, start + sweep)
        large = 1 if sweep > 180.0 else 0
        d = (
            f"M {centre} L {fnum(x1)} {fnum(y1)} "
            f"A {radius} {radius} 0 {large} 1 {fnum(x2)} {fnum(y2)} Z"
        )
        wedges.append(path(d, fill=color, stroke="#ffffff", stroke_width=1.0))
    return "\n".join(wedges)


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
