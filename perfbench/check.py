"""Output checks: tree digests and the comparison against ``rankdiff.oracle``.

The oracle recomputes ranks and statistics with naive Python loops and
shares no code with ``rankdiff.metrics``. ``rd.csv`` must match it exactly;
the floating-point statistics must match within the relative tolerance that
the repository's oracle-equivalence test pins.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from rankdiff.model import GROUPS, K, MINORITY_GROUPS
from rankdiff.oracle import oracle_stats

TOL = 1e-12
ORACLE_BASIS = {"raw": "raw_daily", "ma7": "ma7"}
REQUIRED_FILES = ("rd.csv", "stats.json", "labels.csv", "quality.json", "map_baa.svg",
                  "index.html")


def tree_digest(root: Path) -> str:
    """SHA-256 over every file's relative path and bytes, in sorted path order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(b))


def _optional_close(got, expected) -> bool:
    if got is None or expected is None:
        return got is None and expected is None
    return _close(got, expected)


def check_tree(out: Path, fixture) -> list[str]:
    """Compare one ``run`` output tree with the oracle; return the problems found."""
    cube, pops = fixture.cube, fixture.pops
    m, n = cube.n_municipalities, cube.n_days
    problems = [f"missing {name}" for name in REQUIRED_FILES if not (out / name).is_file()]
    if problems:
        return problems
    n_svg = len(list((out / "dashboards").glob("*.svg")))
    if n_svg != m:
        problems.append(f"{n_svg} dashboards, expected {m}")
    clamps = len(json.loads((out / "quality.json").read_text(encoding="utf-8"))["clamps"])
    if clamps != fixture.dips:
        problems.append(f"{clamps} clamp events, expected {fixture.dips}")

    o = oracle_stats(cube, pops, (0.0, float(m)), basis=ORACLE_BASIS[fixture.workload.basis])
    ids = cube.ids()
    order = sorted(range(m), key=lambda i: ids[i])
    expected_rd = ["municipality_id,group,day,rd"]
    for i in order:
        for k, g in enumerate(GROUPS):
            expected_rd.extend(f"{ids[i]},{g.value},{j + 1},{o['rd'][i][j][k]}" for j in range(n))
    lines = (out / "rd.csv").read_text(encoding="utf-8").splitlines()
    if lines != expected_rd:
        problems.append("rd.csv differs from the oracle")
    else:
        rd = np.array([int(line.rsplit(",", 1)[1]) for line in lines[1:]], dtype=np.int64)
        rd = rd.reshape(m, K, n)          # rows are ordered by id, group, day
        if np.any(rd.sum(axis=0) != 0):
            problems.append("an rd slice does not sum to zero")
        if np.abs(rd).max(initial=0) > m - 1:
            problems.append("|rd| exceeds M-1")

    doc = json.loads((out / "stats.json").read_text(encoding="utf-8"))
    bad = 0
    for i, mid in enumerate(ids):
        groups = doc["municipalities"][mid]["groups"]
        for k, g in enumerate(GROUPS):
            got = groups[g.value]
            bad += not _close(got["persistence_pct"], o["persistence"][i][k])
            bad += not _optional_close(got["skewness"], o["skewness"][i][k])
            if g in MINORITY_GROUPS:
                kk = MINORITY_GROUPS.index(g)
                bad += not _optional_close(got["relative_change"], o["relative_change"][i][kk])
                bad += got["special"] != o["special"][i][kk]
            else:
                bad += got["relative_change"] is not None or got["special"] != "normal"
    if bad:
        problems.append(f"stats.json: {bad} values differ from the oracle")
    return problems
