"""Seeded input generator for the benchmark workloads.

Every workload is drawn with ``rankdiff.synth`` from the benchmark seed alone,
so the same seed always gives byte-identical input files. Besides the files,
``build`` returns the case cube and population table the program should see
after ingest, which the output check feeds to ``rankdiff.oracle``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from rankdiff import synth
from rankdiff.ingest import write_cases_csv
from rankdiff.model import GROUPS, K, CaseCube, Group, PopulationTable

BASE_RATE = 3e-4          # daily cases per resident: small towns see many zero days
PLANTED_SHARE = 0.05      # share of municipalities with raised BAA incidence
PLANTED_LAM = 4.0
DIP_SHARE = 0.01          # share of cumulative series-days given a one-day dip
MAX_DIP = 5
GROUP_SHARES = (2.0, 3.0, 1.5, 10.0)   # Dirichlet weights for BAA, HL, OTH, W


@dataclass(frozen=True)
class Workload:
    name: str
    m: int
    n_days: int
    schema: str
    basis: str
    expected_exit: int


# Why each workload exists is recorded in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper", 190, 365, "canonical", "raw", 0),
        Workload("wide", 4000, 7, "canonical", "raw", 0),
        Workload("cumulative", 190, 365, "widhs-cumulative", "ma7", 1),  # exits 1 on clamps
    )
}

DASHBOARD_ID = "m001"


@dataclass
class Fixture:
    workload: Workload
    config: Path
    cube: CaseCube            # daily counts as the program sees them after ingest
    pops: PopulationTable
    dips: int                 # clamp events the program must report
    case_rows: int
    input_bytes: int


def make_spec(workload: Workload, seed: int) -> synth.SynthSpec:
    """Lognormal populations with a planted BAA disparity in a few municipalities."""
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload.name)])
    m = workload.m
    totals = np.maximum(rng.lognormal(mean=np.log(8000.0), sigma=1.2, size=m), 200.0)
    shares = rng.dirichlet(GROUP_SHARES, size=m)
    pops = np.maximum(np.rint(totals[:, None] * shares), 1).astype(np.int64)
    lam = np.ones((m, K))
    planted = rng.choice(m, size=max(1, round(PLANTED_SHARE * m)), replace=False)
    lam[planted, GROUPS.index(Group.BAA)] = PLANTED_LAM
    return synth.SynthSpec(
        m=m,
        n_days=workload.n_days,
        populations=tuple(tuple(int(v) for v in row) for row in pops),
        lam=tuple(tuple(float(v) for v in row) for row in lam),
        seed=int(rng.integers(2**31)),
        base_rate=BASE_RATE,
    )


def _dip_cumulative(cumulative: np.ndarray, rng: np.random.Generator) -> int:
    """Lower a seeded share of cumulative values below the previous day, in place.

    Each dip makes exactly one negative first difference, so the number of
    dips applied is the number of clamp events ingest must report.
    """
    m, n, k = cumulative.shape
    if n < 2:
        return 0
    chosen = np.zeros(m * (n - 1) * k, dtype=bool)
    chosen[rng.choice(chosen.size, size=round(DIP_SHARE * m * n * k), replace=False)] = True
    chosen = chosen.reshape(m, n - 1, k)
    applied = 0
    for j in range(1, n):
        prev = cumulative[:, j - 1, :]
        mask = chosen[:, j - 1, :] & (prev >= 1)
        drops = rng.integers(1, np.clip(prev, 1, MAX_DIP) + 1)
        cumulative[:, j, :] = np.where(mask, prev - drops, cumulative[:, j, :])
        applied += int(mask.sum())
    return applied


def _write(workload: Workload, spec: synth.SynthSpec, seed: int, out: Path):
    paths = synth.write_fixture(spec, out)
    cube, pops = synth.generate(spec)
    dips = 0
    if workload.schema == "widhs-cumulative":
        cumulative = np.cumsum(cube.counts, axis=1, dtype=np.int64)
        dips = _dip_cumulative(cumulative, np.random.default_rng([seed, 99]))
        write_cases_csv(
            CaseCube(axis=cube.axis, municipalities=cube.municipalities, counts=cumulative),
            paths["cases"],
        )
        daily = np.diff(cumulative, axis=1, prepend=0)
        cube = CaseCube(axis=cube.axis, municipalities=cube.municipalities,
                        counts=np.maximum(daily, 0))
    return paths, cube, pops, dips


def build(workload: Workload, seed: int, out: Path) -> Fixture:
    """Write the workload's inputs and run config under ``out``."""
    paths, cube, pops, dips = _write(workload, make_spec(workload, seed), seed, out)
    config = out / "config.json"
    config.write_text(json.dumps({
        "cases": paths["cases"].name,
        "populations": paths["populations"].name,
        "boundaries": paths["boundaries"].name,
        "out": "out",
        "cases_schema": workload.schema,
        "basis": workload.basis,
        "group": "baa",
    }, indent=2) + "\n", encoding="utf-8")
    return Fixture(
        workload=workload,
        config=config,
        cube=cube,
        pops=pops,
        dips=dips,
        case_rows=workload.m * workload.n_days * K,
        input_bytes=sum(p.stat().st_size for p in paths.values()),
    )
