"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them).

Every expected value is either derived by an independent in-test oracle or
asserted against a hand-verified constant; tolerances are pinned here and
nowhere else.
"""

import itertools
import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from rankdiff import cli
from rankdiff.classify import ClassifierConfig, classify_municipalities
from rankdiff.metrics import (
    RegimeConfig,
    Special,
    group_stats,
    moving_average_7d,
    persistence_index,
    rank_cases,
    rank_diff,
    rank_population,
    relative_change,
    skewness,
    special_case,
    statewide_aggregate,
)
from rankdiff.model import GROUPS, Group, PopulationTable
from rankdiff.oracle import oracle_stats
from rankdiff.synth import SynthSpec, generate, write_fixture

from conftest import make_cube


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {status}: {name}{suffix}")


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _random_cube_and_pops(seed: int, m_low=2, m_high=6, n_high=10):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(m_low, m_high + 1))
    n = int(rng.integers(1, n_high + 1))
    cube = make_cube(rng.integers(0, 10, size=(m, n, 4)))
    while True:
        pops = rng.integers(0, 51, size=(m, 4)).astype(np.int64)
        if (pops.sum(axis=0) > 0).all():
            break
    return cube, PopulationTable(roster=cube.roster, pops=pops)


def test_permutation_invariants():
    """200 seeded cubes: every rank slice is a permutation, daily rd sums to 0."""
    started = time.perf_counter()
    failures = []
    for seed in range(200):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 9))
        n = int(rng.integers(1, 21))
        cube = make_cube(rng.integers(0, 6, size=(m, n, 4)))
        pops = PopulationTable(
            roster=cube.roster,
            pops=rng.integers(0, 1000, size=(m, 4)).astype(np.int64),
        )
        pop_rank = rank_population(pops, cube.roster)
        case_rank = rank_cases(cube)
        rd = rank_diff(pop_rank, case_rank)
        expected = list(range(1, m + 1))
        for k in range(4):
            if sorted(pop_rank[:, k].tolist()) != expected:
                failures.append((seed, "pop_rank", k))
            for j in range(n):
                if sorted(case_rank[:, j, k].tolist()) != expected:
                    failures.append((seed, "case_rank", j, k))
        if (rd.sum(axis=0) != 0).any() or (np.abs(rd) > m - 1).any():
            failures.append((seed, "rd"))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 10.0
    _report("permutation invariants on 200 seeded cubes", ok, f"{elapsed:.2f}s")
    assert not failures, failures[:5]
    assert elapsed < 10.0


def test_oracle_equivalence():
    """Engine vs independent naive oracle on 50 seeded small cubes."""
    started = time.perf_counter()
    failures = []
    tol = 1e-12
    for seed in range(50):
        cube, pops = _random_cube_and_pops(seed)
        m, n = cube.n_municipalities, cube.n_days
        regime = RegimeConfig(0.0, float(m))
        o = oracle_stats(cube, pops, (0.0, float(m)))

        pop_rank = rank_population(pops, cube.roster)
        case_rank = rank_cases(cube)
        rd = rank_diff(pop_rank, case_rank)
        if pop_rank.tolist() != o["pop_rank"]:
            failures.append((seed, "pop_rank"))
        if case_rank.tolist() != o["case_rank"]:
            failures.append((seed, "case_rank"))
        if rd.tolist() != o["rd"]:
            failures.append((seed, "rd"))
        if statewide_aggregate(cube).tolist() != o["statewide_daily"]:
            failures.append((seed, "statewide"))

        ma = moving_average_7d(cube)
        ma_state = moving_average_7d(cube, statewide=True)
        ma_scaled = moving_average_7d(cube, statewide=True, scale_by_population=True, pops=pops)
        for i in range(m):
            for j in range(n):
                for k in range(4):
                    if not _close(float(ma[i, j, k]), o["ma7"][i][j][k], tol):
                        failures.append((seed, "ma7", i, j, k))
        for j in range(n):
            for k in range(4):
                if not _close(float(ma_state[j, k]), o["ma7_statewide"][j][k], tol):
                    failures.append((seed, "ma7_statewide", j, k))
                if not _close(float(ma_scaled[j, k]), o["ma7_statewide_scaled"][j][k], tol):
                    failures.append((seed, "ma7_scaled", j, k))

        stats = group_stats(cube, pops, rd, regime)
        minority = (Group.BAA, Group.HL, Group.OTH)
        for i, muni in enumerate(cube.municipalities):
            for k, g in enumerate(GROUPS):
                s = stats.cell(muni.id, g)
                if not _close(s.persistence_pct, o["persistence"][i][k], tol):
                    failures.append((seed, "persistence", i, k))
                expected_skew = o["skewness"][i][k]
                if (s.skewness is None) != (expected_skew is None):
                    failures.append((seed, "skew-none", i, k))
                elif s.skewness is not None and not _close(s.skewness, expected_skew, tol):
                    failures.append((seed, "skew", i, k))
            for kk, g in enumerate(minority):
                s = stats.cell(muni.id, g)
                expected_h = o["relative_change"][i][kk]
                if (s.relative_change_pct is None) != (expected_h is None):
                    failures.append((seed, "h-none", i, kk))
                elif s.relative_change_pct is not None and not _close(
                    s.relative_change_pct, expected_h, tol
                ):
                    failures.append((seed, "h", i, kk))
                if s.special.value != o["special"][i][kk]:
                    failures.append((seed, "special", i, kk))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 30.0
    _report("oracle equivalence on 50 seeded cubes", ok, f"{elapsed:.2f}s")
    assert not failures, failures[:5]
    assert elapsed < 30.0


def _direct_skewness(series) -> float | None:
    n = len(series)
    if n < 3:
        return None
    mean = math.fsum(series) / n
    m2 = math.fsum((v - mean) ** 2 for v in series) / n
    if m2 == 0.0:
        return None
    m3 = math.fsum((v - mean) ** 3 for v in series) / n
    return math.sqrt(n * (n - 1)) / (n - 2) * m3 / m2**1.5


def test_skewness_correctness():
    """1000 random series vs the direct moment formula; symmetric series ~ 0."""
    rng = np.random.default_rng(2024)
    failures = []
    for trial in range(1000):
        n = int(rng.integers(3, 51))
        kind = trial % 4
        if kind == 0:
            series = (rng.normal(0, 1, n) * 10).tolist()
        elif kind == 1:
            series = rng.uniform(-5, 5, n).tolist()
        elif kind == 2:
            series = rng.exponential(2.0, n).tolist()
        else:
            series = rng.integers(-5, 6, n).astype(float).tolist()
        engine = skewness(series)
        direct = _direct_skewness(series)
        if (engine is None) != (direct is None):
            failures.append((trial, "none-mismatch"))
        elif engine is not None and abs(engine - direct) > 1e-10:
            failures.append((trial, engine - direct))

    symmetric_failures = []
    for trial in range(200):
        half = rng.integers(1, 30, size=int(rng.integers(2, 20)))
        center = int(rng.integers(-10, 11))
        series = [center - int(v) for v in half] + [center + int(v) for v in half]
        value = skewness(series)
        if value is None or abs(value) >= 1e-12:
            symmetric_failures.append((trial, value))

    ok = not failures and not symmetric_failures
    _report("skewness matches direct moment formula (1000 series)", ok)
    assert not failures, failures[:5]
    assert not symmetric_failures, symmetric_failures[:5]


def test_persistence_boundary_semantics():
    """Strict lower / inclusive upper bound, exhaustively over {-3..3}^7."""
    default = RegimeConfig().resolved(190)
    zero_ok = persistence_index([0] * 14, default) == 0.0
    tmax_ok = persistence_index([190] * 14, default) == 100.0

    regime = RegimeConfig(0.0, 3.0)
    in_regime = {1, 2, 3}
    failures = 0
    checked = 0
    for series in itertools.product(range(-3, 4), repeat=7):
        expected = 100.0 * sum(1 for v in series if v in in_regime) / 7
        if persistence_index(series, regime) != expected:
            failures += 1
        checked += 1
    ok = zero_ok and tmax_ok and failures == 0 and checked == 7**7
    _report("persistence boundary semantics, exhaustive over {-3..3}^7", ok,
            f"{checked} series")
    assert zero_ok, "rd = 0 must not count under the default regime"
    assert tmax_ok, "rd = t_max must count"
    assert failures == 0


def test_special_case_taxonomy():
    """All (cases, population) combinations map to the right marker flag."""
    failures = []
    for cp, p in itertools.product((0, 1, 2, 5), repeat=2):
        if p == 0 and cp == 0:
            expected = Special.UNDEFINED_ZERO_ZERO
        elif p == 0:
            expected = Special.POP_ZERO_CASES_NONZERO
        elif cp > p:
            expected = Special.CASES_EXCEED_POP
        else:
            expected = Special.NORMAL
        if special_case(cp, p) is not expected:
            failures.append((cp, p, "special_case"))
        _, flagged = relative_change(cp, p, 10, 100)
        if flagged is not expected:
            failures.append((cp, p, "relative_change"))
    _report("special-case taxonomy, exhaustive over {0,1,2,5}^2", not failures)
    assert not failures, failures


def test_planted_disparity_detection():
    """A 5x-incidence municipality lands in the high-persistence, positive-skew
    region in at least 95 of 100 seeds."""
    started = time.perf_counter()
    pops_baa = [15000, 6000, 4500, 3300, 550, 530, 510, 500]
    pops = tuple((b, b, b, 10 * b) for b in pops_baa)
    lam = tuple((5.0 if i == 7 else 1.0, 1.0, 1.0, 1.0) for i in range(8))
    hits = 0
    for seed in range(100):
        spec = SynthSpec(m=8, n_days=365, populations=pops, lam=lam, seed=seed)
        cube, table = generate(spec)
        rd = rank_diff(rank_population(table, cube.roster), rank_cases(cube))
        series = rd[7, :, 0]
        per = persistence_index(series, RegimeConfig().resolved(8))
        sk = skewness(series)
        if per >= 90.0 and sk is not None and sk > 1.0:
            hits += 1
    elapsed = time.perf_counter() - started
    ok = hits >= 95 and elapsed < 60.0
    _report("planted disparity detected (per >= 90, skew > 1)", ok,
            f"{hits}/100 seeds, {elapsed:.2f}s")
    assert hits >= 95
    assert elapsed < 60.0


def test_relative_change_sanity():
    """y = 6.5x gives H = 550%; y = x gives H = 0."""
    h_exact, _ = relative_change(13, 1024, 2, 1024)      # y = 13/1024 = 6.5 * (2/1024)
    h_float, _ = relative_change(13, 2000, 4, 4000)      # y = 0.0065 = 6.5 * 0.001
    h_zero, _ = relative_change(5, 100, 10, 200)         # equal per-capita incidence
    ok = (
        h_exact is not None and abs(h_exact - 550.0) <= 1e-9
        and h_float is not None and abs(h_float - 550.0) <= 1e-9
        and h_zero == 0.0
    )
    _report("relative-change sanity (6.5x -> 550%, equal -> 0)", ok)
    assert abs(h_exact - 550.0) <= 1e-9
    assert abs(h_float - 550.0) <= 1e-9
    assert h_zero == 0.0


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_end_to_end_determinism(tmp_path):
    """cmd_run twice produces byte-identical trees with one dashboard per
    municipality."""
    m = 6
    spec = SynthSpec(
        m=m, n_days=15,
        populations=tuple((120 * (i + 1), 90 * (i + 1), 70 * (i + 1), 1500 * (i + 1))
                          for i in range(m)),
        lam=tuple((1.0,) * 4 for _ in range(m)),
        seed=17, base_rate=0.05,
    )
    paths = write_fixture(spec, tmp_path / "fx")
    out = tmp_path / "out"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "cases": str(paths["cases"]),
        "populations": str(paths["populations"]),
        "boundaries": str(paths["boundaries"]),
        "out": str(out),
    }), encoding="utf-8")

    code1 = cli.main(["run", "--config", str(config)])
    first = _tree_bytes(out)
    code2 = cli.main(["run", "--config", str(config)])
    second = _tree_bytes(out)

    dashboards = [name for name in first if name.startswith("dashboards/")]
    ok = code1 == 0 and code2 == 0 and first == second and len(dashboards) == m
    _report("end-to-end determinism and dashboard completeness", ok,
            f"{len(dashboards)} dashboards")
    assert code1 == 0 and code2 == 0
    assert first == second
    assert len(dashboards) == m


REAL_DATA_ENV = "RANKDIFF_REAL_DATA"


def test_real_dataset_reproduction():
    """Optional tier: reproduce headline statistics from the real October
    2020 - September 2021 daily counts and group populations.

    Set RANKDIFF_REAL_DATA to a directory holding cases.csv and
    populations.csv in the canonical schemas to enable.
    """
    data_dir = os.environ.get(REAL_DATA_ENV)
    if not data_dir:
        _report("real-data reproduction", True, "skipped: real dataset not supplied")
        pytest.skip(
            f"set {REAL_DATA_ENV}=<dir with cases.csv and populations.csv> "
            "to run the real-data tier"
        )
    from rankdiff.ingest import load_cases, load_populations

    cube = load_cases(Path(data_dir) / "cases.csv")
    pops = load_populations(Path(data_dir) / "populations.csv", cube.roster)
    ma = moving_average_7d(cube, scale_by_population=True, statewide=True, pops=pops)
    hl, w = GROUPS.index(Group.HL), GROUPS.index(Group.W)
    window = slice(39, 70)  # peak reported near day 54
    peak_day = int(np.argmax(ma[window, hl])) + 40
    hl_peak = float(ma[peak_day - 1, hl])
    w_value = float(ma[peak_day - 1, w])

    rd = rank_diff(rank_population(pops, cube.roster), rank_cases(cube))
    regime = RegimeConfig().resolved(cube.n_municipalities)
    stats = group_stats(cube, pops, rd, regime)
    baa_skews = [s for s in stats.skewness[:, GROUPS.index(Group.BAA)].tolist()
                 if not math.isnan(s)]
    positive = sum(1 for v in baa_skews if v > 0)
    labels = classify_municipalities(stats, Group.BAA, ClassifierConfig())
    sizes = {name: sum(1 for v in labels.values() if v.value == name)
             for name in ("G0", "G1", "G2", "G3", "unclassified")}

    detail = (f"HL peak {hl_peak:.3f}% day {peak_day}, W {w_value:.3f}%, "
              f"positive-skew BAA {positive}, group sizes {sizes}")
    ok = abs(hl_peak - 0.16) <= 0.02 and abs(w_value - 0.12) <= 0.02 and abs(positive - 156) <= 5
    _report("real-data reproduction", ok, detail)
    assert abs(hl_peak - 0.16) <= 0.02
    assert abs(w_value - 0.12) <= 0.02
    assert abs(positive - 156) <= 5
