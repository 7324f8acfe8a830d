"""Statewide classification map rendered as a standalone SVG.

Longitude/latitude are projected with a plain equirectangular mapping,
scaled uniformly so the state's aspect ratio is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..classify import ClassLabel
from ..errors import RenderError
from ..model import Boundaries, Group, Roster
from .svg import CLASS_COLORS, document, fpoints, path, rect, text


@dataclass(frozen=True)
class ChoroplethModel:
    group: Group
    entries: tuple[tuple[str, ClassLabel, str, int], ...]  # id, label, color, ring count
    points: np.ndarray                          # (P, 2) lon/lat of the entries' rings, in order
    ring_ends: np.ndarray                       # where each of those rings ends in ``points``
    legend: tuple[tuple[ClassLabel, str, int], ...]        # label, color, count
    missing: tuple[str, ...]                               # no geometry


def build_choropleth(
    geometry: Boundaries,
    roster: Roster,
    labels: dict[str, ClassLabel],
    group: Group,
) -> ChoroplethModel:
    """Join geometry with the class labels of ``roster``, in id order; municipalities
    lacking geometry are collected for the omissions footnote rather than failing."""
    entries = []
    missing = []
    rings: list[int] = []
    for mid in roster.sorted_ids:
        label = labels[mid]
        indices = geometry.rings.get(mid)
        if indices is None:
            missing.append(mid)
            continue
        entries.append((mid, label, CLASS_COLORS[label], len(indices)))
        rings += indices
    starts, ends = geometry.starts[rings], geometry.ends[rings]
    lengths = ends - starts
    ring_ends = np.cumsum(lengths)
    # the index in geometry.xy of each drawn point: each ring's start, then a step a point
    index = np.repeat(starts - (ring_ends - lengths), lengths) + np.arange(lengths.sum())
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
        points=geometry.xy[index],
        ring_ends=ring_ends,
        legend=legend,
        missing=tuple(missing),
    )


def render_choropleth(model: ChoroplethModel) -> str:
    width, height = 720, 760
    pad = 30.0
    map_top, map_height = 60.0, 560.0
    points = model.points
    if not len(points):
        raise RenderError("choropleth has no geometry to draw")
    (lon0, lat0), (lon1, lat1) = points.min(axis=0).tolist(), points.max(axis=0).tolist()
    span_x = max(lon1 - lon0, 1e-12)
    span_y = max(lat1 - lat0, 1e-12)
    scale = min((width - 2 * pad) / span_x, map_height / span_y)
    off_x = pad + ((width - 2 * pad) - span_x * scale) / 2.0
    off_y = map_top + (map_height - span_y * scale) / 2.0

    elements = [rect(0, 0, width, height, fill="#ffffff"),
                text(20, 32, f"rank-difference classification, group {model.group.value}",
                     size=16, weight="bold")]

    coords = fpoints(off_x + (points[:, 0] - lon0) * scale, off_y + (lat1 - points[:, 1]) * scale)
    ends = model.ring_ends.tolist()
    rings = ["M " + " L ".join(coords[start:end]) + " Z" for start, end in zip([0, *ends], ends)]
    first = 0
    for _, _, color, count in model.entries:
        elements.append(path(" ".join(rings[first:first + count]), fill=color, stroke="#ffffff",
                             stroke_width=0.6))
        first += count

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
