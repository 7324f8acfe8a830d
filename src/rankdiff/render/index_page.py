"""Static HTML index linking the map and the per-municipality dashboards."""

from __future__ import annotations

import math
from urllib.parse import quote

from ..classify import ClassLabel
from ..errors import RenderError
from ..metrics import GroupStatsTable
from ..model import GROUP_INDEX, CaseCube, Group
from .svg import escape

_STYLE = """
body { font-family: Helvetica, Arial, sans-serif; margin: 24px; color: #222; }
h1 { font-size: 20px; }
table { border-collapse: collapse; margin-top: 12px; }
th, td { border: 1px solid #ccc; padding: 4px 10px; font-size: 13px; text-align: left; }
th { background: #f0f3f6; }
a { color: #2a6496; text-decoration: none; }
.note { color: #777; font-size: 12px; margin-top: 16px; }
""".strip()


def render_index(
    cube: CaseCube,
    stats: GroupStatsTable,
    labels: dict[str, ClassLabel],
    group: Group,
    map_filename: str,
) -> str:
    """The index of ``cube``'s roster in ascending id order, showing
    ``group``'s column of ``stats``, the table of that roster."""
    cube.roster.check(stats.roster, "statistics table", RenderError)
    k = GROUP_INDEX[group]
    columns = zip(stats.persistence[:, k].tolist(), stats.skewness[:, k].tolist(),
                  stats.relative_change[:, k].tolist())
    rows = []  # in row order, listed in id order
    for muni, (persistence, skewness, change) in zip(cube.municipalities, columns):
        skew = "n/a" if math.isnan(skewness) else f"{skewness:.2f}"
        change = "n/a" if math.isnan(change) else f"{change:+.1f}%"
        rows.append(
            "<tr>"
            f'<td><a href="dashboards/{escape(quote(muni.id, safe=""))}.svg">'
            f"{escape(muni.id)}</a></td>"
            f"<td>{escape(muni.name)}</td><td>{escape(muni.county)}</td>"
            f"<td>{labels[muni.id].value}</td>"
            f"<td>{persistence:.1f}%</td><td>{skew}</td><td>{change}</td>"
            "</tr>"
        )
    window = f"{cube.axis.start.isoformat()} to {cube.axis.end.isoformat()}"
    return (
        "<!DOCTYPE html>\n<html>\n<head>\n<meta charset=\"utf-8\"/>\n"
        f"<title>rank-difference report</title>\n<style>\n{_STYLE}\n</style>\n</head>\n<body>\n"
        f"<h1>Rank-difference disparity report, group {group.value}</h1>\n"
        f"<p>{len(cube.municipalities)} municipalities, {window} ({cube.n_days} days).</p>\n"
        f'<p><a href="{escape(map_filename)}">classification map ({group.value})</a></p>\n'
        "<table>\n<tr><th>id</th><th>name</th><th>county</th><th>class</th>"
        f"<th>persistence</th><th>skewness</th><th>vs W</th></tr>\n"
        + "\n".join(map(rows.__getitem__, cube.roster.order.tolist()))
        + "\n</table>\n"
        '<p class="note">persistence and skewness describe each municipality\'s daily '
        "rank-difference history; vs W is the percent difference in per-capita incidence "
        "against the W group.</p>\n"
        "</body>\n</html>\n"
    )
