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
from rankdiff.classify import ClassLabel, write_labels_csv
from rankdiff.errors import SynthError
from rankdiff.ingest import (CASES_COLUMNS, POPS_COLUMNS, load_boundaries, load_cases,
                             load_populations, write_cases_csv, write_filled_csv,
                             write_populations_csv)
from rankdiff.model import (GROUPS, INT64_MAX, K, CaseCube, DateAxis, Group, Municipality,
                            PopulationTable, QualityReport)
from rankdiff.metrics import (RegimeConfig, persistence_index, rank_cases, rank_diff,
                              rank_population, skewness, write_rd_csv)
from rankdiff.oracle import oracle_stats
from rankdiff.synth import SynthSpec, generate, write_fixture

from conftest import (grid_boundaries, make_cube, make_pops, reference_csv_writer, shapes_of,
                      writable_ids, writable_text)


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
              ("slash-in-id", {"ids": ["a/b", "b"]},
               "municipality_id 'a/b' must not contain '/' or '\\'"),
              ("backslash-in-id", {"ids": ["b", "a\\b"]},
               "municipality_id 'a\\\\b' must not contain '/' or '\\'"),
              ("control-in-id", {"ids": ["a\u0001", "b"]},
               "municipality_id 'a\\x01' holds a character that XML does not allow"),
              ("id-past-file-name-limit", {"ids": ["x" * 252, "b"]},
               f"municipality_id {'x' * 252!r} makes a dashboard file name of 256 bytes, "
               "beyond 255"),
              ("repeated-id", {"ids": ["a", "a"]}, "duplicate municipality id 'a'"),
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
        """Exit 2 with a message that names the spec and the key, and no fixture:
        spec ids that a run would refuse are refused here."""
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

    def test_default_ids_built_once(self):
        """The default ids are built once per spec, and reading them leaves the
        spec equal to one that never did."""
        spec = simple_spec(m=101, populations=((1, 1, 1, 1),) * 101, lam=((1.0,) * K,) * 101)
        ids = spec.municipality_ids()
        assert ids[98:101] == ("m099", "m100", "m101")
        assert spec.municipality_ids() is ids
        fresh = simple_spec(m=101, populations=((1, 1, 1, 1),) * 101, lam=((1.0,) * K,) * 101)
        assert spec == fresh and hash(spec) == hash(fresh)


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
        geo = grid_boundaries(grid_spec(m=5))
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
# a wide-shaped fixture: the grid side, 18, is not a square root of 300, and the
# default ids cross from m099 to m100
WIDE_SPEC = dict(m=300, n_days=7, seed=29, base_rate=0.02, lam=((1.0, 1.5, 0.5, 1.0),) * 300,
                 populations=tuple((100 + i, 200 + 3 * i, 50 + i % 7, 5000 + 11 * i)
                                   for i in range(300)))
WIDE_DIGESTS = {
    "boundaries.geojson": "3af61248bb34f3b6b199e7d7019530bde40e3269ca0b3d7b85d0da07c31b1f9d",
    "cases.csv": "4d6a02c0939bf17842e4baf4975a115071b3413492c0cee049332dba15bd69a7",
    "populations.csv": "401d4d487af7cb497828a90974ef92c2514fff8b811c88530e5a0487505d08e3",
}


def fixture_digests(spec: SynthSpec, out: Path) -> dict[str, str]:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in write_fixture(spec, out).values()}


def reference_csv(path: Path, header: list[str], rows) -> None:
    r"""``header`` and ``rows`` through one csv.writer, each row quoted as with a
    ``\r\n`` line end and ended in ``\n``: the bytes the writers keep."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = reference_csv_writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def reference_cases_csv(cube: CaseCube, path: Path) -> None:
    """The cases writer as one csv.writer row per cell, the bytes write_cases_csv keeps."""
    dates = [day.isoformat() for day in cube.axis.dates()]
    groups = [g.value for g in GROUPS]
    reference_csv(path, CASES_COLUMNS,
                  ((date, muni.id, muni.name, muni.county, g, v)
                   for muni, counts in zip(cube.municipalities, cube.counts.tolist())
                   for date, values in zip(dates, counts)
                   for g, v in zip(groups, values)))


# characters the CSV writers quote, or that their % templates must escape
QUOTED = ',"\r\n% éŁ東'
# text ingest accepts and keeps: writable, with no whitespace at either end, as
# loading strips it
stripped_text = writable_text(QUOTED, max_size=8).map(str.strip)
stripped_ids = writable_ids(QUOTED).map(str.strip).filter(bool)


@st.composite
def case_cubes(draw, text=writable_text(QUOTED, max_size=8),
               id_text=writable_ids(QUOTED)) -> CaseCube:
    ids = draw(st.lists(id_text, min_size=1, max_size=4, unique=True))
    n_days = draw(st.integers(1, 3))
    start = draw(st.dates(max_value=dt.date.max - dt.timedelta(days=n_days - 1)))
    rows = []
    for _ in ids:
        values = draw(st.lists(st.integers(0, INT64_MAX), min_size=n_days * K,
                               max_size=n_days * K))
        if sum(values) > INT64_MAX:  # each municipality's total stays within int64
            values = [value // len(values) for value in values]
        rows.append(values)
    municipalities = tuple(Municipality(id=mid, name=draw(text), county=draw(text))
                           for mid in ids)
    counts = np.array(rows, dtype=np.int64).reshape(len(ids), n_days, K)
    return CaseCube(axis=DateAxis(start=start, n_days=n_days), municipalities=municipalities,
                    counts=counts)


def grid_spec(ids: tuple[str, ...] = (), m: int = 0) -> SynthSpec:
    """A spec of ``ids``, or of ``m`` municipalities with the default ids."""
    m = len(ids) or m
    return simple_spec(m=m, populations=((1, 1, 1, 1),) * m, lam=((1.0,) * K,) * m, ids=ids)


@st.composite
def grid_specs(draw) -> SynthSpec:
    """Specs of 1-30 municipalities, with the default ids or with drawn ones."""
    m = draw(st.integers(1, 30))
    return grid_spec(draw(st.one_of(st.just(()), st.lists(writable_ids('"%éŁ東'), min_size=m,
                                                          max_size=m, unique=True).map(tuple))), m)


def labels_of(cube: CaseCube) -> tuple[dict[str, ClassLabel], Group]:
    """A label per municipality, every label in turn, and a group, for ``write_labels_csv``."""
    labels = list(ClassLabel)
    return ({mid: labels[i % len(labels)] for i, mid in enumerate(cube.ids())},
            GROUPS[cube.n_municipalities % K])


# A bare CR and a CR LF inside a field of every kind: unquoted, a CR splits the row.
CR_CUBE = CaseCube(
    axis=DateAxis(start=dt.date(2020, 10, 1), n_days=2),
    municipalities=(Municipality(id="b\rz", name="x\ry", county="a\r\nb"),
                    Municipality(id="m1", name="plain", county="c"),
                    Municipality(id="c\r\nd", name='say "hi"\r!', county="50%\rx")),
    counts=np.arange(3 * 2 * K, dtype=np.int64).reshape(3, 2, K),
)


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

    def test_wide_shaped_digests(self, tmp_path):
        assert fixture_digests(SynthSpec(**WIDE_SPEC), tmp_path) == WIDE_DIGESTS

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cube=case_cubes())
    @example(cube=CaseCube(
        axis=DateAxis(start=dt.date(2020, 10, 1), n_days=1),
        municipalities=(Municipality(id="100% %s", name='"a, b"', county=" x\r\ny"),
                        Municipality(id="é", name="", county="%(x)d"),
                        Municipality(id="cr\r", name=" ", county="a\nb")),
        counts=np.array([[[INT64_MAX, 0, 0, 0]], [[0, 1, 2, 3]], [[4, 0, 0, 1]]], dtype=np.int64),
    ))
    @example(cube=CR_CUBE)
    def test_cases_csv_matches_csv_writer(self, tmp_path, cube):
        """``write_cases_csv``, ``write_populations_csv``, ``write_rd_csv`` and
        ``write_labels_csv`` write the bytes of a ``csv.writer`` loop, whatever
        their text fields hold."""
        write_cases_csv(cube, tmp_path / "written.csv")
        reference_cases_csv(cube, tmp_path / "reference.csv")
        assert (tmp_path / "written.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

        pops = PopulationTable(roster=cube.roster, pops=cube.counts.sum(axis=1))
        write_populations_csv(pops, tmp_path / "pops.csv")
        reference_csv(tmp_path / "pops_reference.csv", POPS_COLUMNS,
                      ((mid, g.value, pop) for mid, row in zip(cube.ids(), pops.pops.tolist())
                       for g, pop in zip(GROUPS, row)))
        assert (tmp_path / "pops.csv").read_bytes() == (tmp_path / "pops_reference.csv").read_bytes()

        rd = rank_diff(rank_population(pops, cube.roster), rank_cases(cube))
        write_rd_csv(tmp_path / "rd.csv", cube, rd)
        reference_csv(tmp_path / "rd_reference.csv", ["municipality_id", "group", "day", "rd"],
                      ((cube.ids()[i], g.value, day, rd[i, day - 1, k])
                       for i in cube.roster.order.tolist() for k, g in enumerate(GROUPS)
                       for day in range(1, cube.n_days + 1)))
        assert (tmp_path / "rd.csv").read_bytes() == (tmp_path / "rd_reference.csv").read_bytes()

        labels, group = labels_of(cube)
        write_labels_csv(tmp_path / "labels.csv", cube.roster, labels, group)
        reference_csv(tmp_path / "labels_reference.csv", ["municipality_id", "group", "label"],
                      ((mid, group.value, labels[mid].value) for mid in sorted(cube.ids())))
        assert ((tmp_path / "labels.csv").read_bytes()
                == (tmp_path / "labels_reference.csv").read_bytes())

    def test_lone_empty_field_is_quoted(self, tmp_path):
        """A row whose one field is an empty id reads ``""``, as ``csv.writer``
        writes it, not as an empty line."""
        rows = [(("",), ()), (("a",), ())]
        write_filled_csv(tmp_path / "ids.csv", "municipality_id\n", "\0\n", rows)
        assert (tmp_path / "ids.csv").read_bytes() == b'municipality_id\n""\na\n'

    @pytest.mark.parametrize("m", [1, 2, 5, 12, 17])
    @pytest.mark.parametrize("ids", [False, True], ids=["default-ids", "awkward-ids"])
    def test_boundaries_match_json_dump(self, tmp_path, m, ids):
        spec = grid_spec(tuple(AWKWARD_IDS[i % len(AWKWARD_IDS)] + str(i) for i in range(m))
                         if ids else (), m)
        text = write_fixture(spec, tmp_path)["boundaries"].read_text(encoding="utf-8")
        assert text == json.dumps(grid_boundaries(spec), indent=2, sort_keys=True) + "\n"


def read_csv(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


class TestRoundTrip:
    """Each CSV file rankdiff writes reads back as what was written, for text
    that ingest accepts and keeps: no whitespace at either end."""

    SETTINGS = settings(max_examples=100, deadline=None,
                        suppress_health_check=[HealthCheck.function_scoped_fixture])

    @SETTINGS
    @given(cube=case_cubes(stripped_text, stripped_ids))
    @example(cube=CR_CUBE)
    def test_cases_csv(self, tmp_path, cube):
        write_cases_csv(cube, tmp_path / "cases.csv")
        back = load_cases(tmp_path / "cases.csv")
        assert back.municipalities == cube.municipalities
        assert back.axis == cube.axis
        assert np.array_equal(back.counts, cube.counts)

    @SETTINGS
    @given(cube=case_cubes(stripped_text, stripped_ids))
    @example(cube=CR_CUBE)
    def test_populations_csv(self, tmp_path, cube):
        pops = PopulationTable(roster=cube.roster, pops=cube.counts.sum(axis=1))
        write_populations_csv(pops, tmp_path / "populations.csv")
        back = load_populations(tmp_path / "populations.csv", cube.roster)
        assert np.array_equal(back.pops, pops.pops)

    @SETTINGS
    @given(cube=case_cubes(stripped_text, stripped_ids))
    @example(cube=CR_CUBE)
    def test_rd_csv(self, tmp_path, cube):
        pops = PopulationTable(roster=cube.roster, pops=cube.counts.sum(axis=1))
        rd = rank_diff(rank_population(pops, cube.roster), rank_cases(cube))
        write_rd_csv(tmp_path / "rd.csv", cube, rd)
        assert read_csv(tmp_path / "rd.csv") == [["municipality_id", "group", "day", "rd"]] + [
            [cube.ids()[i], g.value, str(day), str(rd[i, day - 1, k])]
            for i in cube.roster.order.tolist() for k, g in enumerate(GROUPS)
            for day in range(1, cube.n_days + 1)]

    @SETTINGS
    @given(spec=grid_specs())
    @example(spec=grid_spec(AWKWARD_IDS))
    def test_boundaries_geojson(self, tmp_path, spec):
        """``load_boundaries`` reads the fixture's grid back against ``generate``'s
        roster: each id one closed unit square at its grid cell, no warning."""
        path = write_fixture(spec, tmp_path)["boundaries"]
        report = QualityReport()
        boundaries = load_boundaries(path, generate(spec)[0].roster, report)
        side = math.ceil(math.sqrt(spec.m))
        assert shapes_of(boundaries) == {
            mid: [[(x, y), (x + 1, y), (x + 1, y + 1), (x, y + 1), (x, y)]]
            for i, mid in enumerate(spec.municipality_ids())
            for x, y in [(float(i % side), float(i // side))]}
        assert boundaries.extent == (0.0, 0.0, side, math.ceil(spec.m / side))
        assert not report.has_warnings

    @SETTINGS
    @given(cube=case_cubes(stripped_text, stripped_ids))
    @example(cube=CR_CUBE)
    def test_labels_csv(self, tmp_path, cube):
        labels, group = labels_of(cube)
        write_labels_csv(tmp_path / "labels.csv", cube.roster, labels, group)
        assert read_csv(tmp_path / "labels.csv") == [["municipality_id", "group", "label"]] + [
            [mid, group.value, labels[mid].value] for mid in sorted(cube.ids())]


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
