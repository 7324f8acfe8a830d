import codecs
import csv
import datetime as dt
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rankdiff import cli
from rankdiff.errors import SynthError
from rankdiff.ingest import CASES_COLUMNS, load_cases, load_populations, write_cases_csv
from rankdiff.model import GROUPS, INT64_MAX, K, CaseCube, DateAxis, Municipality
from rankdiff.metrics import RegimeConfig, persistence_index, rank_cases, rank_diff, rank_population, skewness
from rankdiff.oracle import oracle_stats
from rankdiff.synth import SynthSpec, generate, grid_boundaries, write_fixture

from conftest import make_cube, make_pops


def simple_spec(**overrides):
    base = dict(
        m=3,
        n_days=5,
        populations=((100, 100, 100, 1000), (200, 200, 200, 2000), (300, 300, 300, 3000)),
        lam=((1.0,) * 4, (1.0,) * 4, (1.0,) * 4),
        seed=7,
        base_rate=0.05,
    )
    base.update(overrides)
    return SynthSpec(**base)


class TestGenerate:
    def test_same_seed_same_output(self):
        spec = simple_spec()
        cube1, pops1 = generate(spec)
        cube2, pops2 = generate(spec)
        assert np.array_equal(cube1.counts, cube2.counts)
        assert np.array_equal(pops1.pops, pops2.pops)
        assert cube1.ids() == cube2.ids()

    def test_different_seed_differs(self):
        a, _ = generate(simple_spec(seed=1, n_days=30))
        b, _ = generate(simple_spec(seed=2, n_days=30))
        assert not np.array_equal(a.counts, b.counts)

    def test_zero_lambda_zero_cube(self):
        spec = simple_spec(lam=((0.0,) * 4,) * 3)
        cube, _ = generate(spec)
        assert not cube.counts.any()

    def test_empirical_mean_tracks_rate(self):
        spec = simple_spec(m=1, n_days=3000,
                           populations=((1000, 1000, 1000, 1000),),
                           lam=((2.0, 1.0, 1.0, 1.0),),
                           base_rate=0.01, seed=3)
        cube, _ = generate(spec)
        assert cube.counts[0, :, 0].mean() == pytest.approx(20.0, rel=0.05)

    def test_mean_abs_rd_shrinks_as_counts_grow(self):
        pops = tuple((1000 * (i + 1),) * 4 for i in range(6))
        lam = ((1.0,) * 4,) * 6

        def mean_abs_rd(rate):
            spec = SynthSpec(m=6, n_days=60, populations=pops, lam=lam,
                             seed=5, base_rate=rate)
            cube, table = generate(spec)
            rd = rank_diff(rank_population(table, cube.roster), rank_cases(cube))
            return np.abs(rd[:, :, 0]).mean()

        assert mean_abs_rd(1.0) < mean_abs_rd(0.001)

    def test_planted_disparity_detected(self):
        # one small municipality with a 5x incidence multiplier on BAA
        pops_baa = [15000, 6000, 4500, 3300, 550, 530, 510, 500]
        pops = tuple((b, b, b, 10 * b) for b in pops_baa)
        hits = 0
        for seed in range(10):
            lam = tuple((5.0 if i == 7 else 1.0, 1.0, 1.0, 1.0) for i in range(8))
            spec = SynthSpec(m=8, n_days=365, populations=pops, lam=lam, seed=seed)
            cube, table = generate(spec)
            rd = rank_diff(rank_population(table, cube.roster), rank_cases(cube))
            series = rd[7, :, 0]
            per = persistence_index(series, RegimeConfig().resolved(8))
            sk = skewness(series)
            if per >= 90.0 and sk is not None and sk > 1.0:
                hits += 1
        assert hits >= 9


SPEC_DOC = {"m": 2, "n_days": 3, "populations": [[10, 10, 10, 100]] * 2, "seed": 1}


class TestSpecParsing:
    def test_scalar_lambda_broadcast(self):
        spec = SynthSpec.from_dict(
            {"m": 2, "n_days": 3, "populations": [[1, 1, 1, 1], [2, 2, 2, 2]], "lam": 2.5}
        )
        assert spec.lam == ((2.5,) * 4, (2.5,) * 4)

    def test_from_file(self, tmp_path):
        doc = {"m": 1, "n_days": 2, "populations": [[1, 2, 3, 4]], "seed": 9}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        spec = SynthSpec.from_file(path)
        assert spec.seed == 9
        assert spec.lam == ((1.0,) * 4,)

    @pytest.mark.parametrize("data,message", [
        pytest.param(b'{"m": 1\xff}', "not UTF-8 text: 'utf-8' codec can't decode byte 0xff",
                     id="not-utf8"),
        pytest.param(b"[" * 100_000, "JSON nested too deeply", id="deep-nesting"),
        pytest.param(b"{nope", "invalid JSON", id="invalid"),
        pytest.param(b'{"m": ' + b"1" * 5000 + b"}", "invalid JSON: Exceeds the limit",
                     id="integer-past-digit-limit"),
        *(pytest.param(json.dumps({**SPEC_DOC, **extra}).encode(), message, id=name)
          for name, extra, message in [
              ("text-start-date", {"start_date": 5},
               "start_date must be a non-empty string with no NUL, got 5"),
              ("flat-lam", {"lam": [1, 2, 3, 4]}, "lam must be an array, got 1"),
              ("text-in-lam", {"lam": [[1, 2, 3, "x"]] * 2}, 'lam must be a number, got "x"'),
              ("fractional-m", {"m": 1.9}, "m must be an integer, got 1.9"),
              ("quoted-n-days", {"n_days": "2"}, 'n_days must be an integer, got "2"'),
              ("boolean-seed", {"seed": True}, "seed must be an integer, got true"),
              ("fractional-population", {"populations": [[1.5, 1, 1, 1]] * 2},
               "populations must be an integer, got 1.5"),
              ("null-id", {"ids": [None, "b"]},
               "ids must be a non-empty string with no NUL, got null"),
              ("lone-surrogate-id", {"ids": ["\ud800", "b"]},
               "ids 'utf-8' codec can't encode character '\\ud800' in position 0"),
              ("boolean-lam", {"lam": True}, "lam must be a number, got true"),
              ("unknown-key", {"sead": 4}, "unknown key 'sead', expected one of m, n_days, "),
              ("negative-seed", {"seed": -1}, "m and n_days must be positive and seed >= 0, "
               "got m=2, n_days=3, seed=-1"),
              ("infinite-lam", {"lam": "inf"}, "lam entries and base_rate must be finite"),
              ("lam-past-poisson-limit", {"lam": 1e25},
               "lam * population * base_rate must be at most 9.22337e+18"),
              ("population-past-int64", {"populations": [[10**22, 1, 1, 1]] * 2},
               "populations must be >= 0, each row summing to at most 2**63 - 1"),
              ("days-past-year-9999", {"start_date": "9999-12-30", "n_days": 5},
               "n_days 5 from start_date 9999-12-30 runs past 9999-12-31"),
          ]),
        pytest.param(json.dumps(SPEC_DOC)[:-1].encode() + b', "base_rate": NaN}',
                     "lam entries and base_rate must be finite", id="nan-base-rate"),
    ])
    def test_unreadable_spec_exit_2(self, tmp_path, capsys, data, message):
        """Exit 2 with a message that names the spec and the key, and no fixture."""
        path = tmp_path / "spec.json"
        path.write_bytes(data)
        assert cli.main(["synth", str(path), "--out", str(tmp_path / "fx")]) == 2
        assert capsys.readouterr().err.startswith(f"rankdiff: synth: {path}: {message}")
        assert not (tmp_path / "fx").exists()

    def test_spec_with_bom(self, tmp_path):
        """A spec may start with a byte-order mark, which RFC 8259 section 8.1
        lets a parser ignore."""
        path = tmp_path / "spec.json"
        path.write_bytes(codecs.BOM_UTF8 + json.dumps(SPEC_DOC).encode())
        assert cli.main(["synth", str(path), "--out", str(tmp_path / "fx")]) == 0
        assert SynthSpec.from_file(path) == SynthSpec.from_dict(SPEC_DOC)

    def test_wrong_width_rejected(self):
        with pytest.raises(SynthError, match="3x4"):
            SynthSpec(m=3, n_days=1, populations=((1, 2),) * 3, lam=((1.0,) * 4,) * 3)

    def test_negative_lambda_rejected(self):
        with pytest.raises(SynthError, match="lam"):
            simple_spec(lam=((-1.0, 1.0, 1.0, 1.0),) * 3)

    def test_missing_key_rejected(self):
        with pytest.raises(SynthError, match="invalid synth spec"):
            SynthSpec.from_dict({"m": 2})

    def test_bad_ids_length(self):
        with pytest.raises(SynthError, match="ids"):
            simple_spec(ids=("only-one",))


class TestFixtureFiles:
    def test_write_fixture_roundtrip(self, tmp_path):
        spec = simple_spec()
        paths = write_fixture(spec, tmp_path / "fx")
        cube, table = generate(spec)
        loaded = load_cases(paths["cases"])
        assert np.array_equal(loaded.counts, cube.counts)
        pops = load_populations(paths["populations"], loaded.roster)
        assert np.array_equal(pops.pops, table.pops)
        geo = json.loads(paths["boundaries"].read_text(encoding="utf-8"))
        assert len(geo["features"]) == spec.m

    def test_grid_boundaries_closed_rings(self):
        geo = grid_boundaries(simple_spec(m=5, populations=((1, 1, 1, 1),) * 5,
                                          lam=((1.0,) * 4,) * 5))
        assert len(geo["features"]) == 5
        for feature in geo["features"]:
            ring = feature["geometry"]["coordinates"][0]
            assert ring[0] == ring[-1]


EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
# ids that csv.writer must quote or that json must escape, one of them with a "%"
AWKWARD_IDS = (" lead", "a,b", 'say "hi"', "50%", "Zürich 東京", "two\nlines")
AWKWARD_DIGESTS = {
    "boundaries.geojson": "4d92506d960ac3b98e574206e0dd3765091a62a9756433e4cc20fe1b3c269ed1",
    "cases.csv": "68a9dcd45ead0015ae4e5ebc35509f76c9c3f85d4d7a5c38d6e5548adb423888",
    "populations.csv": "e358d03b6f7c57cfc40d31fa719a23cd316a80a74d9c7c72e94bfd543625ad54",
}


def fixture_digests(spec: SynthSpec, out: Path) -> dict[str, str]:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in write_fixture(spec, out).values()}


def reference_cases_csv(cube: CaseCube, path: Path) -> None:
    """The cases writer as one csv.writer row per cell, the bytes write_cases_csv keeps."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CASES_COLUMNS)
        dates = [day.isoformat() for day in cube.axis.dates()]
        groups = [g.value for g in GROUPS]
        for i, muni in enumerate(cube.municipalities):
            writer.writerows(
                (date, muni.id, muni.name, muni.county, g, v)
                for date, values in zip(dates, cube.counts[i].tolist())
                for g, v in zip(groups, values)
            )


# text csv.writer and UTF-8 can carry: no lone surrogates
field_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)


@st.composite
def case_cubes(draw) -> CaseCube:
    ids = draw(st.lists(field_text.filter(bool), min_size=1, max_size=4, unique=True))
    n_days = draw(st.integers(1, 3))
    start = draw(st.dates(max_value=dt.date.max - dt.timedelta(days=n_days - 1)))
    rows = []
    for _ in ids:
        values = draw(st.lists(st.integers(0, INT64_MAX), min_size=n_days * K,
                               max_size=n_days * K))
        if sum(values) > INT64_MAX:  # each municipality's total stays within int64
            values = [value // len(values) for value in values]
        rows.append(values)
    municipalities = tuple(Municipality(id=mid, name=draw(field_text), county=draw(field_text))
                           for mid in ids)
    counts = np.array(rows, dtype=np.int64).reshape(len(ids), n_days, K)
    return CaseCube(axis=DateAxis(start=start, n_days=n_days), municipalities=municipalities,
                    counts=counts)


class TestFixtureBytes:
    """The fixture files are a pure function of the spec, byte for byte."""

    def test_example_spec_digests(self, tmp_path):
        pinned = {}
        for line in (EXAMPLES / "fixture.sha256").read_text(encoding="utf-8").splitlines():
            digest, name = line.split()
            pinned[Path(name).name] = digest
        spec = SynthSpec.from_file(EXAMPLES / "spec.json")
        assert fixture_digests(spec, tmp_path) == pinned

    def test_awkward_ids_digests(self, tmp_path):
        m = len(AWKWARD_IDS)
        spec = simple_spec(m=m, ids=AWKWARD_IDS, populations=((100, 200, 300, 4000),) * m,
                           lam=((1.0,) * K,) * m)
        assert fixture_digests(spec, tmp_path) == AWKWARD_DIGESTS

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cube=case_cubes())
    @example(cube=CaseCube(
        axis=DateAxis(start=dt.date(2020, 10, 1), n_days=1),
        municipalities=(Municipality(id="100% %s", name='"a, b"', county=" x\r\ny"),
                        Municipality(id="é", name="", county="%(x)d")),
        counts=np.array([[[INT64_MAX, 0, 0, 0]], [[0, 1, 2, 3]]], dtype=np.int64),
    ))
    def test_cases_csv_matches_csv_writer(self, tmp_path, cube):
        write_cases_csv(cube, tmp_path / "written.csv")
        reference_cases_csv(cube, tmp_path / "reference.csv")
        assert (tmp_path / "written.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    @pytest.mark.parametrize("m", [1, 2, 5, 12])
    @pytest.mark.parametrize("ids", [False, True], ids=["default-ids", "awkward-ids"])
    def test_boundaries_match_json_dump(self, tmp_path, m, ids):
        spec = simple_spec(m=m, populations=((1, 1, 1, 1),) * m, lam=((1.0,) * K,) * m,
                           ids=tuple(AWKWARD_IDS[i % len(AWKWARD_IDS)] + str(i) for i in range(m)) if ids
                           else ())
        text = write_fixture(spec, tmp_path)["boundaries"].read_text(encoding="utf-8")
        assert text == json.dumps(grid_boundaries(spec), indent=2, sort_keys=True) + "\n"


class TestOracle:
    """Anchor the brute-force oracle against hand-computed values."""

    @pytest.fixture
    def tiny(self):
        counts = np.zeros((2, 3, 4), dtype=int)
        counts[0, :, 0] = [3, 0, 2]   # a, BAA
        counts[1, :, 0] = [1, 1, 2]   # b, BAA
        counts[1, :, 1] = [5, 5, 5]   # b, HL
        counts[0, :, 2] = [1, 2, 3]   # a, OTH
        counts[1, :, 2] = [1, 2, 3]   # b, OTH
        counts[0, :, 3] = [10, 0, 0]  # a, W
        counts[1, :, 3] = [0, 0, 4]   # b, W
        cube = make_cube(counts, ids=["a", "b"])
        pops = make_pops([[10, 0, 5, 100], [8, 20, 5, 50]], ids=["a", "b"])
        return cube, pops

    def test_hand_computed_ranks_and_rd(self, tiny):
        cube, pops = tiny
        o = oracle_stats(cube, pops, (0.0, 2.0))
        assert o["pop_rank"] == [[1, 2, 1, 1], [2, 1, 2, 2]]
        a_rd = [row[0] for row in o["rd"][0]]
        b_rd = [row[0] for row in o["rd"][1]]
        assert a_rd == [0, -1, 0]
        assert b_rd == [0, 1, 0]
        assert [row[3] for row in o["rd"][0]] == [0, 0, -1]

    def test_hand_computed_ma_and_statewide(self, tiny):
        cube, pops = tiny
        o = oracle_stats(cube, pops, (0.0, 2.0))
        assert o["ma7"][0][0][0] == 3.0
        assert o["ma7"][0][1][0] == 1.5
        assert o["ma7"][0][2][0] == pytest.approx(5 / 3, abs=1e-15)
        assert [row[0] for row in o["statewide_daily"]] == [4, 1, 4]
        assert [row[0] for row in o["ma7_statewide"]] == [4.0, 2.5, 3.0]

    def test_hand_computed_persistence_and_skewness(self, tiny):
        cube, pops = tiny
        o = oracle_stats(cube, pops, (0.0, 2.0))
        assert o["persistence"][0][0] == 0.0
        assert o["persistence"][1][0] == pytest.approx(100.0 / 3)
        assert o["skewness"][0][0] == pytest.approx(-math.sqrt(3), abs=1e-12)
        assert o["skewness"][1][0] == pytest.approx(math.sqrt(3), abs=1e-12)
        assert o["skewness"][0][1] is None  # constant series

    def test_hand_computed_relative_change(self, tiny):
        cube, pops = tiny
        o = oracle_stats(cube, pops, (0.0, 2.0))
        # columns: BAA, HL, OTH
        assert o["relative_change"][0][0] == pytest.approx(400.0)
        assert o["relative_change"][0][1] is None
        assert o["relative_change"][0][2] == pytest.approx(1100.0)
        assert o["special"][0] == ["normal", "undefined_zero_zero", "cases_exceed_pop"]
        assert o["relative_change"][1][0] == pytest.approx(525.0)
        assert o["relative_change"][1][1] == pytest.approx(837.5)
        assert o["special"][1] == ["normal", "normal", "cases_exceed_pop"]

    def test_oracle_does_not_import_engine(self):
        import ast

        import rankdiff.oracle as oracle_mod

        with open(oracle_mod.__file__, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert "metrics" not in (node.module or "")
            elif isinstance(node, ast.Import):
                assert all("metrics" not in alias.name for alias in node.names)
