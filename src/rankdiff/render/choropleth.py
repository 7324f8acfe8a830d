"""Statewide classification map rendered as a standalone SVG.

Longitude/latitude are projected with a plain equirectangular mapping,
scaled uniformly so the state's aspect ratio is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..classify import ClassLabel
from ..errors import RenderError
from ..model import Group, Ring, Roster
from .svg import CLASS_COLORS, document, fnum, path, rect, text


@dataclass(frozen=True)
class ChoroplethModel:
    group: Group
    entries: tuple[tuple[str, ClassLabel, str, tuple[Ring, ...]], ...]  # id, label, color, rings
    legend: tuple[tuple[ClassLabel, str, int], ...]                     # label, color, count
    missing: tuple[str, ...]                                            # no geometry


def build_choropleth(
    boundaries: dict[str, list[Ring]],
    roster: Roster,
    labels: dict[str, ClassLabel],
    group: Group,
) -> ChoroplethModel:
    """Join geometry with the class labels of ``roster``, in id order; municipalities
    lacking geometry are collected for the omissions footnote rather than failing."""
    entries = []
    missing = []
    for mid in roster.sorted_ids:
        label = labels[mid]
        rings = boundaries.get(mid)
        if rings is None:
            missing.append(mid)
            continue
        entries.append((mid, label, CLASS_COLORS[label], tuple(tuple(r) for r in rings)))
    counts = {label: 0 for label in ClassLabel}
    for _, label, _, _ in entries:
        counts[label] += 1
    legend = tuple(
        (label, CLASS_COLORS[label], counts[label])
        for label in ClassLabel
        if counts[label] > 0 or label is not ClassLabel.UNCLASSIFIED
    )
    return ChoroplethModel(
        group=group,
        entries=tuple(entries),
        legend=legend,
        missing=tuple(missing),
    )


def _bounds(model: ChoroplethModel) -> tuple[float, float, float, float]:
    xs = [x for _, _, _, rings in model.entries for ring in rings for x, _ in ring]
    ys = [y for _, _, _, rings in model.entries for ring in rings for _, y in ring]
    if not xs:
        raise RenderError("choropleth has no geometry to draw")
    return min(xs), min(ys), max(xs), max(ys)


def render_choropleth(model: ChoroplethModel) -> str:
    width, height = 720, 760
    pad = 30.0
    map_top, map_height = 60.0, 560.0
    lon0, lat0, lon1, lat1 = _bounds(model)
    span_x = max(lon1 - lon0, 1e-12)
    span_y = max(lat1 - lat0, 1e-12)
    scale = min((width - 2 * pad) / span_x, map_height / span_y)
    off_x = pad + ((width - 2 * pad) - span_x * scale) / 2.0
    off_y = map_top + (map_height - span_y * scale) / 2.0

    def project(lon: float, lat: float) -> tuple[float, float]:
        return off_x + (lon - lon0) * scale, off_y + (lat1 - lat) * scale

    elements = [rect(0, 0, width, height, fill="#ffffff"),
                text(20, 32, f"rank-difference classification, group {model.group.value}",
                     size=16, weight="bold")]

    for mid, _, color, rings in model.entries:
        pieces = []
        for ring in rings:
            coords = [project(lon, lat) for lon, lat in ring]
            d = "M " + " L ".join(f"{fnum(x)} {fnum(y)}" for x, y in coords) + " Z"
            pieces.append(d)
        elements.append(path(" ".join(pieces), fill=color, stroke="#ffffff", stroke_width=0.6))

    legend_y = map_top + map_height + 30.0
    elements.append(text(20, legend_y - 12, "classification", size=12, weight="bold"))
    for row, (label, color, count) in enumerate(model.legend):
        ly = legend_y + row * 20
        elements += (rect(20, ly - 10, 12, 12, fill=color, stroke="#888888", stroke_width=0.5),
                     text(40, ly, f"{label.value} (n={count})", size=12))

    if model.missing:
        shown = ", ".join(model.missing[:15])
        if len(model.missing) > 15:
            shown += f", and {len(model.missing) - 15} more"
        noun = "municipality" if len(model.missing) == 1 else "municipalities"
        elements.append(text(20, height - 14,
                             f"no geometry for {len(model.missing)} {noun}: {shown}",
                             size=10, fill="#888888"))
    return document(width, height, elements)
