import codecs
import csv
import datetime as dt
import gc
import io
import json
import tempfile
from operator import itemgetter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rankdiff import ingest
from rankdiff.errors import IngestError
from rankdiff.ingest import (
    CASE_SCHEMAS,
    load_boundaries,
    load_cases,
    load_populations,
    write_cases_csv,
    write_populations_csv,
)
from rankdiff.model import Group, QualityReport
from rankdiff.synth import SynthSpec, generate

from conftest import (
    cases_csv_text,
    full_cases_rows,
    geojson_text,
    make_cube,
    make_roster,
    pops_csv_text,
    reference_boundaries,
    shapes_of,
    square_feature,
)
from test_mutation import base_files, csv_mutation, mutate_csv

# A municipality's two nonzero counts, and the total an error names (None: accepted).
CASE_TOTALS = [
    pytest.param((2**62, 2**62), 2**63, id="twice-2**62"),
    pytest.param((2**62, 2**62 - 1), None, id="int64-max"),
    pytest.param((2**63 - 1, 1), 2**63, id="int64-max-plus-1"),
]


class TestLoadCases:
    def test_zero_cube(self, write_file):
        path = write_file("cases.csv", cases_csv_text(full_cases_rows(["a", "b"], 3)))
        cube = load_cases(path)
        assert cube.n_municipalities == 2
        assert cube.n_days == 3
        assert cube.counts.shape == (2, 3, 4)
        assert not cube.counts.any()

    def test_values_land_in_right_cells(self, write_file):
        rows = full_cases_rows(["a", "b"], 2, overrides={("b", 2, "HL"): 7, ("a", 1, "W"): 3})
        cube = load_cases(write_file("cases.csv", cases_csv_text(rows)))
        assert cube.counts[cube.roster.index["b"], 1, 1] == 7
        assert cube.counts[cube.roster.index["a"], 0, 3] == 3
        assert cube.counts.sum() == 10
        with pytest.raises(KeyError):
            cube.roster.index["c"]

    def test_cumulative_differencing(self, write_file):
        overrides = {("a", 1, "BAA"): 5, ("a", 2, "BAA"): 5, ("a", 3, "BAA"): 8}
        path = write_file("cases.csv", cases_csv_text(full_cases_rows(["a"], 3, overrides=overrides)))
        cube = load_cases(path, schema="widhs-cumulative")
        assert cube.counts[0, :, 0].tolist() == [5, 0, 3]

    def test_cumulative_clamp_records_event(self, write_file):
        overrides = {("a", 1, "BAA"): 5, ("a", 2, "BAA"): 4}
        path = write_file("cases.csv", cases_csv_text(full_cases_rows(["a"], 2, overrides=overrides)))
        report = QualityReport()
        cube = load_cases(path, schema="widhs-cumulative", report=report)
        assert cube.counts[0, :, 0].tolist() == [5, 0]
        assert len(report.clamps) == 1
        event = report.clamps[0]
        assert event.municipality_id == "a"
        assert event.group is Group.BAA
        assert event.date == dt.date(2020, 10, 2)
        assert event.drop == 1

    def test_missing_cell_is_error(self, write_file):
        rows = full_cases_rows(["a", "b"], 2)
        rows = [r for r in rows if not (r[1] == "b" and r[4] == "OTH" and r[0] == "2020-10-02")]
        path = write_file("cases.csv", cases_csv_text(rows))
        with pytest.raises(IngestError, match="missing"):
            load_cases(path)

    def test_missing_whole_date_is_error(self, write_file):
        rows = [r for r in full_cases_rows(["a"], 3) if r[0] != "2020-10-02"]
        with pytest.raises(IngestError, match="missing"):
            load_cases(write_file("cases.csv", cases_csv_text(rows)))

    def test_duplicate_row_is_error(self, write_file):
        rows = full_cases_rows(["a"], 1)
        rows.append(rows[0])
        with pytest.raises(IngestError, match="duplicate"):
            load_cases(write_file("cases.csv", cases_csv_text(rows)))

    def test_unknown_group_label(self, write_file):
        rows = full_cases_rows(["a"], 1)
        rows[0] = rows[0][:4] + ("ASIAN", 0)
        with pytest.raises(IngestError, match="cases.csv:2.*unknown group"):
            load_cases(write_file("cases.csv", cases_csv_text(rows)))

    def test_malformed_count_diagnostics(self, write_file):
        rows = full_cases_rows(["a"], 1)
        rows[2] = rows[2][:5] + ("3.5",)
        with pytest.raises(IngestError, match="cases.csv:4.*'count'"):
            load_cases(write_file("cases.csv", cases_csv_text(rows)))

    def test_negative_count_rejected(self, write_file):
        rows = full_cases_rows(["a"], 1)
        rows[1] = rows[1][:5] + (-2,)
        with pytest.raises(IngestError, match=">= 0"):
            load_cases(write_file("cases.csv", cases_csv_text(rows)))

    def test_count_beyond_int64_rejected(self, write_file):
        rows = full_cases_rows(["a"], 1)
        rows[2] = rows[2][:5] + (2**63,)
        with pytest.raises(IngestError, match=f"cases.csv:4: column 'count' must be <= {2**63 - 1}, "):
            load_cases(write_file("cases.csv", cases_csv_text(rows)))

    @pytest.mark.parametrize("values, total", CASE_TOTALS)
    def test_case_total_beyond_int64_rejected(self, write_file, values, total):
        """A municipality's total is summed exactly once its float64 sum reaches 2**62."""
        overrides = {("b", 1, "BAA"): values[0], ("b", 2, "W"): values[1]}
        path = write_file("cases.csv", cases_csv_text(
            full_cases_rows(["a", "b"], 2, value=0, overrides=overrides)))
        if total is None:
            assert sum(load_cases(path).counts[1].ravel().tolist()) == 2**63 - 1
            return
        with pytest.raises(IngestError) as info:
            load_cases(path)
        assert str(info.value) == f"{path}: total cases of b is {total}, beyond {2**63 - 1}"

    @pytest.mark.parametrize("values, total", CASE_TOTALS)
    def test_cube_total_beyond_int64_rejected(self, values, total):
        """A cube built in memory enforces the same bound, so every int64 sum
        over one municipality's cells is exact."""
        counts = np.zeros((2, 2, 4), dtype=np.int64)
        counts[1, 0, 0], counts[1, 1, 3] = values
        if total is None:
            assert sum(make_cube(counts, ids=["a", "b"]).counts[1].ravel().tolist()) == 2**63 - 1
            return
        with pytest.raises(IngestError) as info:
            make_cube(counts, ids=["a", "b"])
        assert str(info.value) == f"total cases of b is {total}, beyond {2**63 - 1}"

    def test_conflicting_name_is_error(self, write_file):
        rows = full_cases_rows(["a"], 1)
        rows[3] = (rows[3][0], "a", "Elsewhere", "Test County", rows[3][4], 0)
        with pytest.raises(IngestError, match="conflicting"):
            load_cases(write_file("cases.csv", cases_csv_text(rows)))

    def test_wrong_header_is_error(self, write_file):
        path = write_file("cases.csv", "date,id,grp,count\n")
        with pytest.raises(IngestError, match="header"):
            load_cases(path)

    def test_unknown_schema(self, write_file):
        path = write_file("cases.csv", cases_csv_text(full_cases_rows(["a"], 1)))
        with pytest.raises(IngestError, match="schema"):
            load_cases(path, schema="widhs")

    def test_roundtrip_identity(self, tmp_path):
        rng = np.random.default_rng(5)
        cube = make_cube(rng.integers(0, 50, size=(3, 5, 4)), ids=["x1", "a9", "m5"])
        path = tmp_path / "cases.csv"
        write_cases_csv(cube, path)
        again = load_cases(path)
        assert again.ids() == cube.ids()
        assert again.axis == cube.axis
        assert np.array_equal(again.counts, cube.counts)

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 10_000))
    def test_roundtrip_identity_property(self, seed, tmp_path):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        cube = make_cube(rng.integers(0, 9, size=(m, n, 4)))
        path = tmp_path / f"cases_{seed}.csv"
        write_cases_csv(cube, path)
        again = load_cases(path)
        assert np.array_equal(again.counts, cube.counts)
        assert again.ids() == cube.ids()

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 10_000))
    def test_diff_then_cumsum_recovers_cumulative(self, seed, tmp_path):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(1, 4)), int(rng.integers(1, 7))
        # nondecreasing cumulative input: no clamps possible
        increments = rng.integers(0, 5, size=(m, n, 4))
        cumulative = np.cumsum(increments, axis=1)
        cube_cum = make_cube(cumulative)
        path = tmp_path / f"cum_{seed}.csv"
        write_cases_csv(cube_cum, path)
        report = QualityReport()
        daily = load_cases(path, schema="widhs-cumulative", report=report)
        assert not report.clamps
        assert np.array_equal(np.cumsum(daily.counts, axis=1), cumulative)


def _raises(path, **kwargs) -> str:
    with pytest.raises(IngestError) as info:
        load_cases(path, **kwargs)
    return str(info.value)


class TestCaseDiagnostics:
    """Exact texts of the cases-file errors; ``:line`` counts the header as 1."""

    def test_duplicate_names_first_repeating_record(self, write_file):
        rows = full_cases_rows(["a", "b"], 2)
        rows.insert(8, rows[5])   # the first record that repeats a key ...
        rows.insert(12, rows[1])  # ... even though this key appeared earlier
        path = write_file("cases.csv", cases_csv_text(rows))
        assert _raises(path) == f"{path}:10: duplicate row for (a, 2020-10-02, HL)"

    def test_missing_count_and_preview_in_roster_day_group_order(self, write_file):
        dropped = {("a", "2020-10-03", "W"), ("b", "2020-10-02", "HL"), ("c", "2020-10-01", "BAA"),
                   ("b", "2020-10-02", "BAA"), ("a", "2020-10-01", "OTH"),
                   ("c", "2020-10-03", "W"), ("a", "2020-10-02", "BAA")}
        rows = [r for r in full_cases_rows(["b", "a", "c"], 3) if (r[1], r[0], r[4]) not in dropped]
        path = write_file("cases.csv", cases_csv_text(rows))
        assert _raises(path) == (
            f"{path}: 7 missing (municipality, date, group) cells; first: "
            "(b, 2020-10-02, BAA), (b, 2020-10-02, HL), (a, 2020-10-01, OTH), "
            "(a, 2020-10-02, BAA), (a, 2020-10-03, W)"
        )

    def test_conflicting_name(self, write_file):
        rows = full_cases_rows(["a", "b"], 1)
        rows[6] = (rows[6][0], "a", "Elsewhere", "Test County", rows[6][4], 0)
        path = write_file("cases.csv", cases_csv_text(rows))
        assert _raises(path) == (
            f"{path}:8: municipality 'a' has conflicting name/county "
            "'Elsewhere'/'Test County' vs 'Town a'/'Test County'"
        )

    def test_wrong_header(self, write_file):
        path = write_file("cases.csv", "date,id,grp,count\n")
        assert _raises(path) == (
            f"{path}: header date,id,grp,count does not match expected columns "
            "date,municipality_id,municipality_name,county,group,count"
        )

    def test_empty_file(self, write_file):
        path = write_file("cases.csv", "")
        assert _raises(path) == (
            f"{path}: empty file, expected header "
            "date,municipality_id,municipality_name,county,group,count"
        )

    def test_header_only(self, write_file):
        path = write_file("cases.csv", cases_csv_text([]))
        assert _raises(path) == f"{path}: no data rows"

    def test_permuted_header_columns(self, write_file):
        rows = full_cases_rows(["a"], 2, overrides={("a", 2, "HL"): 4})
        lines = ["county,count,group,date,municipality_name,municipality_id"]
        lines += [f"{c},{n},{g},{d},{name},{mid}" for d, mid, name, c, g, n in rows]
        cube = load_cases(write_file("cases.csv", "\n".join(lines) + "\n"))
        assert cube.counts[0, 1, 1] == 4 and cube.counts.sum() == 4
        assert cube.municipalities[0].name == "Town a"

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 10_000))
    def test_row_order_does_not_matter(self, seed, tmp_path):
        """Shuffled data rows give the same cube (up to roster order) and, with
        the holes in one municipality, the same missing-cell message."""
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        cube = make_cube(rng.integers(0, 9, size=(m, n, 4)))
        path = tmp_path / "cases.csv"
        write_cases_csv(cube, path)
        header, *rows = path.read_text(encoding="utf-8").splitlines()

        def load_rows(lines):
            path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
            return load_cases(path)

        again = load_rows(list(rng.permutation(rows)))
        order = [again.roster.index[mid] for mid in cube.ids()]
        assert again.axis == cube.axis
        assert [again.municipalities[i] for i in order] == list(cube.municipalities)
        assert np.array_equal(again.counts[order], cube.counts)

        victim = cube.ids()[int(rng.integers(m))]
        own = [r for r in rows if r.split(",")[1] == victim]
        if len(own) < 2:
            return
        drop = set(rng.choice(len(own), size=int(rng.integers(1, len(own))), replace=False).tolist())
        holed = [r for r in rows if r not in {own[i] for i in drop}]
        messages = []
        for lines in (holed, list(rng.permutation(holed))):
            with pytest.raises(IngestError) as info:
                load_rows(lines)
            messages.append(str(info.value))
        assert "missing (municipality, date, group) cells" in messages[0]
        assert messages[0] == messages[1]


def _outcome(path, schema="canonical"):
    """What ``load_cases`` makes of a file: the cube and its clamps, or the error text."""
    report = QualityReport()
    try:
        cube = load_cases(path, schema=schema, report=report)
    except IngestError as exc:
        return str(exc)
    return cube.axis, cube.municipalities, cube.counts.tolist(), report.clamps


def _reference_outcome(path, schema="canonical"):
    """The outcome when the block reader declines every file."""
    with mock.patch.object(ingest, "_read_case_blocks", return_value=None):
        return _outcome(path, schema)


@pytest.fixture(scope="module")
def synth_cases(tmp_path_factory) -> bytes:
    """A canonical synthetic cases file of about 160 KB, municipality-major, so
    several blocks at the ``BLOCK_BYTES`` the tests set."""
    m = 30
    cube, _ = generate(SynthSpec(m=m, n_days=30, populations=((400, 300, 100, 2000),) * m,
                                 lam=((1.0,) * 4,) * m, seed=11))
    path = tmp_path_factory.mktemp("synth") / "cases.csv"
    write_cases_csv(cube, path)
    return path.read_bytes()


def _permute_columns(data: bytes) -> bytes:
    lines = data.decode("utf-8").splitlines()
    return "".join(
        ",".join(line.split(",")[c] for c in (5, 3, 4, 0, 2, 1)) + "\n" for line in lines
    ).encode("utf-8")


def _quote_names(data: bytes) -> bytes:
    header, *lines = data.decode("utf-8").splitlines()
    quoted = []
    for line in lines:
        fields = line.split(",")
        fields[2] = f'"{fields[2]}"'
        quoted.append(",".join(fields))
    return "\n".join([header, *quoted, ""]).encode("utf-8")


def _separate_municipality_columns(data: bytes) -> bytes:
    """The columns in the order id, date, name, count, county, group."""
    lines = data.decode("utf-8").splitlines()
    return "".join(
        ",".join(line.split(",")[c] for c in (1, 0, 2, 5, 3, 4)) + "\n" for line in lines
    ).encode("utf-8")


BLOCK_READER_FILES = {
    "lf": lambda data: data,
    "crlf": lambda data: data.replace(b"\n", b"\r\n"),
    "bom": lambda data: codecs.BOM_UTF8 + data,
    "bom-crlf": lambda data: codecs.BOM_UTF8 + data.replace(b"\n", b"\r\n"),
    "permuted-header": _permute_columns,
    "separated-municipality-columns": _separate_municipality_columns,
    "no-final-newline": lambda data: data.removesuffix(b"\n"),
}
STREAMED_READER_FILES = {
    "quoted": _quote_names,
    "blank-lines": lambda data: data.replace(b"\n", b"\n\n"),
    "trailing-blank-line": lambda data: data + b"\n",
    "lone-cr": lambda data: data.replace(b"\n", b"\r"),
}

FIELD_EDITS = ("quote-comma", "pad", "cr-suffix", "at-limit", "over-limit")
BYTE_TOKENS = (b"\r", b"\r\n", b"\0", b"\n", b",", codecs.BOM_UTF8, b"\xff", b"\xc3")
byte_mutation = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 100), st.sampled_from(BYTE_TOKENS)),
    st.tuples(st.just("field"), st.integers(0, 60), st.integers(0, 5), st.sampled_from(FIELD_EDITS)),
    st.tuples(st.just("blank"), st.integers(0, 60)),
    st.tuples(st.sampled_from(("crlf", "bom", "drop-final-newline", "trailing-blank"))),
)


def mutate_bytes(data: bytes, op: str, *args) -> bytes:
    if op == "insert":
        at = len(data) * args[0] // 100
        return data[:at] + args[1] + data[at:]
    if op == "crlf":
        return data.replace(b"\n", b"\r\n")
    if op == "bom":
        return codecs.BOM_UTF8 + data
    if op == "drop-final-newline":
        return data.removesuffix(b"\n")
    if op == "trailing-blank":
        return data + b"\n"
    lines = data.split(b"\n")
    row = args[0] % len(lines)
    if op == "blank":
        lines.insert(row, b"")
        return b"\n".join(lines)
    fields = lines[row].split(b",")
    column, edit = args[1] % len(fields), args[2]
    if edit == "quote-comma":
        fields[column] = b'"' + fields[column] + b',x"'
    elif edit == "pad":                         # differs from the other records only in whitespace
        fields[column] = b" " + fields[column] + b"\t"
    elif edit == "cr-suffix":                   # a line end to csv unless it ends the line
        fields[column] += b"\r"
    else:                                       # whitespace up to, or one past, the field limit
        width = csv.field_size_limit() + (edit == "over-limit")
        fields[column] = fields[column].rjust(width)
    lines[row] = b",".join(fields)
    return b"\n".join(lines)


class TestCaseReaders:
    """Quote-free files take the block reader; the rest reach the streamed
    ``csv`` reader, the reference. Either way the result is the reference's."""

    @pytest.mark.parametrize("variant, schema", [
        *((variant, "canonical") for variant in BLOCK_READER_FILES),
        ("lf", "widhs-cumulative"),
    ])
    def test_block_reader_takes_canonical_files(self, variant, schema, synth_cases, tmp_path):
        plain = tmp_path / "plain.csv"
        plain.write_bytes(synth_cases)
        path = tmp_path / "variant.csv"
        path.write_bytes(BLOCK_READER_FILES[variant](synth_cases))
        expected = _reference_outcome(plain, schema)
        assert not isinstance(expected, str)
        with mock.patch.object(ingest, "_read_case_records",
                               side_effect=AssertionError("streamed reader used")), \
                mock.patch.object(ingest, "BLOCK_BYTES", 1 << 14):
            assert _outcome(path, schema) == expected

    @pytest.mark.parametrize("variant", STREAMED_READER_FILES)
    def test_streamed_reader_takes_the_rest(self, variant, synth_cases, tmp_path):
        plain = tmp_path / "plain.csv"
        plain.write_bytes(synth_cases)
        path = tmp_path / "variant.csv"
        path.write_bytes(STREAMED_READER_FILES[variant](synth_cases))
        expected = _reference_outcome(plain)
        assert not isinstance(expected, str)
        calls = []
        records = ingest._read_case_records

        def spy(path):
            calls.append(path)
            return records(path)

        with mock.patch.object(ingest, "_read_case_records", spy):
            assert _outcome(path) == expected
        assert calls == [path]

    def test_block_reader_parses_each_value_once(self, synth_cases, tmp_path):
        """Over many blocks of a municipality-major file, where most blocks bring a
        new municipality, each distinct raw date, (id, name, county), group and
        count is parsed once, in order of first appearance."""
        path = tmp_path / "cases.csv"
        path.write_bytes(synth_cases)
        header, *lines = synth_cases.decode("utf-8").splitlines()
        assert header.split(",") == ingest.CASES_COLUMNS
        records = [line.split(",") for line in lines]
        expected = {
            "date": list(dict.fromkeys(r[0] for r in records)),
            "municipality": list(dict.fromkeys(tuple(r[1:4]) for r in records)),
            "group": list(dict.fromkeys(r[4] for r in records)),
            "count": list(dict.fromkeys(r[5] for r in records)),
        }
        calls = {key: [] for key in expected}

        def spy(key, parse, raw_of):
            def parse_and_record(*args, **kwargs):
                calls[key].append(raw_of(args))
                return parse(*args, **kwargs)
            return parse_and_record

        first = itemgetter(0)
        with mock.patch.multiple(ingest, BLOCK_BYTES=4096,
                                 _parse_date=spy("date", ingest._parse_date, first),
                                 _parse_group=spy("group", ingest._parse_group, first),
                                 _parse_int=spy("count", ingest._parse_int, first)), \
                mock.patch.object(ingest._Roster, "add", spy(
                    "municipality", ingest._Roster.add, lambda args: tuple(args[1:4]))):
            read = ingest._read_case_blocks(path)
        assert read is not None
        assert calls == expected
        assert read[0] == ingest._read_case_records(path)[0]

    def test_block_reader_reads_each_byte_once(self, synth_cases, tmp_path):
        """The block reader takes a file of many blocks in one pass."""
        path = tmp_path / "cases.csv"
        path.write_bytes(synth_cases)
        sizes = []

        class Counting(io.BufferedReader):
            def read(self, size=-1):
                data = super().read(size)
                sizes.append(len(data))
                return data

            def readline(self, size=-1):
                line = super().readline(size)
                sizes.append(len(line))
                return line

        def counting_open(file, mode):
            return Counting(io.FileIO(file, mode))

        with mock.patch.object(ingest, "BLOCK_BYTES", 1 << 14), \
                mock.patch.object(ingest, "open", counting_open, create=True):
            read = ingest._read_case_blocks(path)
        assert read is not None
        assert sum(sizes) == len(synth_cases)

    @pytest.mark.parametrize("renames", [
        pytest.param({b"m001": b"m" * width, b"Synthville 1": b"T" * width}, id=f"{width}-bytes")
        for width in (7, 8, 9, 16, 17)
    ] + [
        pytest.param({b"m001": b"municip-1", b"m002": b"municip-2"}, id="differ-in-byte-9"),
        pytest.param({b"Synthville 1": b"Synthville-town-1", b"Synthville 2": b"Synthville-town-2"},
                     id="differ-in-byte-17"),
        pytest.param({b"m001": b"m000000\xc3\xa9", b"Synthville 1": b"Synthvi\xe6\x9d\xb1",
                      b"Synth County": b"Sankt P\xc3\xb6lten"}, id="straddling-characters"),
    ])
    @pytest.mark.parametrize("block_bytes", [50, 1 << 16])
    def test_block_reader_reads_every_field_width(self, renames, block_bytes, tmp_path):
        """Fields of one column narrower and wider than a word, differing only past
        a word, or holding a character split across two words, read as ``csv``
        reads them."""
        data = base_files()["cases"].encode("utf-8")
        for old, new in renames.items():
            data = data.replace(old, new)
        path = tmp_path / "cases.csv"
        path.write_bytes(data)
        with mock.patch.object(ingest, "BLOCK_BYTES", block_bytes):
            read = ingest._read_case_blocks(path)
        assert read is not None
        expected = ingest._read_case_records(path)
        assert read[0] == expected[0]
        assert all(np.array_equal(a, b) for a, b in zip(read[1:], expected[1:]))

    def test_key_collision_declines(self, synth_cases, tmp_path):
        """When every key of a wider field collides, the check against the first
        field of each code finds it, and the ``csv`` reader takes the file."""
        path = tmp_path / "cases.csv"
        path.write_bytes(synth_cases)
        expected = _reference_outcome(path)
        assert not isinstance(expected, str)
        with mock.patch.object(ingest, "_MIX", np.uint64(0)):
            assert ingest._read_case_blocks(path) is None
            assert _outcome(path) == expected

    @pytest.mark.parametrize("old, new", [
        (b"Synthville 1", lambda width: b"N" * width),
        (b",2\n", lambda width: b"," + b"2".rjust(width) + b"\n"),
    ], ids=["name", "count"])
    @pytest.mark.parametrize("width", [ingest.FIELD_MAX, ingest.FIELD_MAX + 1],
                             ids=["at-cap", "past-cap"])
    def test_field_width_cap(self, old, new, width, tmp_path):
        """A field of ``FIELD_MAX`` bytes is keyed by the block reader; one byte
        wider declines the file to the ``csv`` reader, with the same result."""
        path = tmp_path / "cases.csv"
        path.write_bytes(base_files()["cases"].encode("utf-8").replace(old, new(width)))
        read = ingest._read_case_blocks(path)
        expected = ingest._read_case_records(path)
        if width > ingest.FIELD_MAX:
            assert read is None
        else:
            assert read is not None
            assert read[0] == expected[0]
            assert all(np.array_equal(a, b) for a, b in zip(read[1:], expected[1:]))
        outcome = _outcome(path)
        assert not isinstance(outcome, str)
        assert outcome == _reference_outcome(path)

    def test_csv_field_limit_below_cap(self, tmp_path):
        """While ``csv.field_size_limit()`` is below ``FIELD_MAX``, the ``csv``
        reader reads every file, so its limit holds for the header as well."""
        path = tmp_path / "cases.csv"
        path.write_text(cases_csv_text([("2020-10-01", "a", "b", "c", g.value, 1) for g in Group]),
                        encoding="utf-8")
        limit = csv.field_size_limit(12)
        try:
            assert ingest._read_case_blocks(path) is None
            outcome = _outcome(path)
        finally:
            csv.field_size_limit(limit)
        assert outcome == f"{path}:1: field larger than field limit (12)"

    @staticmethod
    def _rename_one_line(tmp_path, name: bytes, first: bytes = b"Synthville 1"):
        """The base cases file with m001 named ``first``, but ``name`` on its
        ninth data line, m001's on its third day."""
        lines = base_files()["cases"].replace("Synthville 1,", f"{first.decode()},")
        lines = lines.encode("utf-8").split(b"\n")
        assert lines[9].startswith(b"2020-10-03,m001," + first + b",")
        lines[9] = lines[9].replace(first, name)
        path = tmp_path / "cases.csv"
        path.write_bytes(b"\n".join(lines))
        return path

    @pytest.mark.parametrize("first, name", [
        (b"Synthville 1", b"Synthville 9"),
        (b"N" * 9, b"N" * 10),     # the same two windows, 9 and 10 bytes long
    ], ids=["other-bytes", "other-length"])
    @pytest.mark.parametrize("block_bytes", [1 << 16, 1], ids=["one-block", "two-blocks"])
    def test_id_with_two_names(self, first, name, block_bytes, tmp_path):
        """An id whose name changes, within a block or from one block to the
        next, declines the file, and the ``csv`` reader words the conflict."""
        path = self._rename_one_line(tmp_path, name, first)
        with mock.patch.object(ingest, "BLOCK_BYTES", block_bytes):
            assert ingest._read_case_blocks(path) is None
            outcome = _outcome(path)
        assert outcome == _reference_outcome(path)
        assert outcome == (f"{path}:10: municipality 'm001' has conflicting name/county "
                           f"'{name.decode()}'/'Synth County' vs '{first.decode()}'/'Synth County'")

    @pytest.mark.parametrize("block_bytes", [1 << 16, 1], ids=["one-block", "two-blocks"])
    def test_name_differing_in_whitespace(self, block_bytes, tmp_path):
        """A trailing space on one line's name is stripped, so the cube is that of
        the file without it. The block reader declines it within a block, where
        it compares bytes, and takes it from another block, where it compares
        the stripped text."""
        plain = tmp_path / "plain.csv"
        plain.write_text(base_files()["cases"], encoding="utf-8")
        path = self._rename_one_line(tmp_path, b"Synthville 1 ")
        with mock.patch.object(ingest, "BLOCK_BYTES", block_bytes):
            read = ingest._read_case_blocks(path)
            outcome = _outcome(path)
        if block_bytes == 1 << 16:
            assert read is None
        else:
            expected = ingest._read_case_records(path)
            assert read[0] == expected[0]
            assert all(np.array_equal(a, b) for a, b in zip(read[1:], expected[1:]))
        assert not isinstance(outcome, str)
        assert outcome == _reference_outcome(plain)

    def test_row_orders(self, synth_cases, tmp_path):
        """Municipality-major, date-major and shuffled rows of one file are each
        read by the block reader, as ``csv`` reads them, into the same cube."""
        header, *lines = synth_cases.split(b"\n")[:-1]
        municipality_major = np.array(lines, dtype=object).reshape(30, 30, 4)
        orders = {
            "municipality-major": municipality_major.ravel(),
            "date-major": municipality_major.transpose(1, 0, 2).ravel(),
            "shuffled": np.random.default_rng(5).permutation(municipality_major.ravel()),
        }
        cubes = {}
        for name, rows in orders.items():
            path = tmp_path / f"{name}.csv"
            path.write_bytes(b"\n".join([header, *rows.tolist()]) + b"\n")
            with mock.patch.object(ingest, "BLOCK_BYTES", 1 << 14):
                read = ingest._read_case_blocks(path)
                cube = load_cases(path)
            assert read is not None, name
            expected = ingest._read_case_records(path)
            assert read[0] == expected[0]
            assert all(np.array_equal(a, b) for a, b in zip(read[1:], expected[1:]))
            cubes[name] = cube
        reference = cubes["municipality-major"]
        for cube in cubes.values():
            order = [cube.roster.index[mid] for mid in reference.ids()]
            assert cube.axis == reference.axis
            assert [cube.municipalities[i] for i in order] == list(reference.municipalities)
            assert np.array_equal(cube.counts[order], reference.counts)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(text_mutations=st.lists(csv_mutation, max_size=2),
           byte_mutations=st.lists(byte_mutation, max_size=3),
           schema=st.sampled_from(CASE_SCHEMAS),
           block_bytes=st.sampled_from((1, 50, 1 << 16)))
    # Accepted by both readers.
    @example([], [("crlf",), ("bom",), ("drop-final-newline",)], "canonical", 50)
    @example([("duplicate-row", 9)], [("field", 7, 2, "pad")], "widhs-cumulative", 1)
    # Declined by the block reader, one example per reason.
    @example([("rename-column", 0, "Date")], [], "canonical", 1 << 16)
    @example([], [("field", 5, 2, "quote-comma")], "canonical", 50)
    @example([], [("insert", 50, b"\r")], "canonical", 50)
    @example([], [("field", 6, 4, "cr-suffix")], "canonical", 1 << 16)
    @example([], [("insert", 30, b"\0")], "canonical", 1 << 16)
    @example([], [("blank", 7)], "canonical", 50)
    @example([], [("trailing-blank",)], "canonical", 1 << 16)
    @example([], [("insert", 40, b",")], "canonical", 1)
    @example([], [("field", 3, 2, "at-limit")], "canonical", 1 << 16)
    @example([], [("field", 3, 4, "over-limit")], "canonical", 50)
    @example([], [("insert", 60, b"\xff")], "canonical", 1 << 16)
    @example([], [("insert", 50, codecs.BOM_UTF8)], "canonical", 50)
    @example([("cell", 7, 5, "abc")], [], "canonical", 1 << 16)
    @example([("cell", 7, 1, " ")], [], "canonical", 50)
    @example([("cell", 7, 2, "Elsewhere")], [], "canonical", 1)
    def test_load_cases_equals_streamed_reader(self, text_mutations, byte_mutations, schema,
                                               block_bytes):
        text = base_files()["cases"]
        for op, *args in text_mutations:
            text = mutate_csv(text, op, *args)
        data = text.encode("utf-8")
        for op, *args in byte_mutations:
            data = mutate_bytes(data, op, *args)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cases.csv"
            path.write_bytes(data)
            expected = _reference_outcome(path, schema)
            with mock.patch.object(ingest, "BLOCK_BYTES", block_bytes):
                assert _outcome(path, schema) == expected


class TestLoadPopulations:
    def test_oth_merge(self, write_file):
        rows = [("a", "BAA", 1), ("a", "HL", 2), ("a", "W", 3),
                ("a", "ASIAN", 10), ("a", "HPI", 2), ("a", "AIAN", 5)]
        table = load_populations(write_file("pops.csv", pops_csv_text(rows)),
                                 make_roster(["a"]))
        assert table.pops[0].tolist() == [1, 2, 17, 3]

    def test_oth_direct_plus_components(self, write_file):
        rows = [("a", "OTH", 4), ("a", "ASIAN", 1)]
        table = load_populations(write_file("pops.csv", pops_csv_text(rows)),
                                 make_roster(["a"]))
        assert table.pops[0, 2] == 5

    def test_zero_population_accepted(self, write_file):
        rows = [("a", "BAA", 0), ("a", "W", 50)]
        table = load_populations(write_file("pops.csv", pops_csv_text(rows)),
                                 make_roster(["a"]))
        assert table.pops[0].tolist() == [0, 0, 0, 50]

    def test_missing_municipality_named(self, write_file):
        rows = [("a", "W", 5)]
        with pytest.raises(IngestError, match="b"):
            load_populations(write_file("pops.csv", pops_csv_text(rows)),
                             make_roster(["a", "b"]))

    def test_excluded_groups_reported(self, write_file):
        rows = [("a", "W", 5), ("a", "MO", 7), ("a", "UNK", 2), ("b", "W", 1), ("b", "MO", 3)]
        report = QualityReport()
        table = load_populations(write_file("pops.csv", pops_csv_text(rows)),
                                 make_roster(["a", "b"]), report=report)
        assert report.excluded_groups_totals == {"MO": 10, "UNK": 2}
        assert table.pops.sum() == 6

    def test_unknown_group_rejected(self, write_file):
        rows = [("a", "OTHER", 5)]
        with pytest.raises(IngestError, match="unknown group"):
            load_populations(write_file("pops.csv", pops_csv_text(rows)),
                             make_roster(["a"]))

    def test_negative_population_rejected(self, write_file):
        rows = [("a", "W", -1)]
        with pytest.raises(IngestError, match=">= 0"):
            load_populations(write_file("pops.csv", pops_csv_text(rows)),
                             make_roster(["a"]))

    def test_duplicate_row_rejected(self, write_file):
        rows = [("a", "W", 1), ("a", "W", 2)]
        with pytest.raises(IngestError, match="duplicate"):
            load_populations(write_file("pops.csv", pops_csv_text(rows)),
                             make_roster(["a"]))

    def test_extra_municipality_warned_and_ignored(self, write_file):
        rows = [("a", "W", 5), ("zz", "W", 9)]
        report = QualityReport()
        table = load_populations(write_file("pops.csv", pops_csv_text(rows)),
                                 make_roster(["a"]), report=report)
        assert table.pops.shape == (1, 4)
        assert any("zz" in w for w in report.warnings)

    def test_foreign_ids_warning_names_first_ten_sorted(self, write_file):
        foreign = [f"z{n:04d}" for n in range(400, 0, -1)]
        rows = [("a", "W", 5)] + [(mid, g, 1) for g in ("BAA", "ASIAN", "MO") for mid in foreign]
        report = QualityReport()
        load_populations(write_file("pops.csv", pops_csv_text(rows)),
                         make_roster(["a"]), report=report)
        assert report.warnings == [
            "populations file lists ids not in the case roster (ignored): "
            "z0001, z0002, z0003, z0004, z0005, z0006, z0007, z0008, z0009, z0010"
        ]

    def test_roundtrip(self, tmp_path):
        from conftest import make_pops

        table = make_pops([[1, 2, 3, 4], [5, 6, 7, 8]], ids=["a", "b"])
        path = tmp_path / "pops.csv"
        write_populations_csv(table, path)
        again = load_populations(path, table.roster)
        assert np.array_equal(again.pops, table.pops)


def load_populations_by_rows(path, roster, report):
    """The reference for ``load_populations``: one record at a time into a
    dict, with a repeated (id, label) reported once every record is read."""
    raw, duplicate = {}, None
    excluded = dict.fromkeys(ingest.EXCLUDED_POP_GROUPS, 0)
    municipalities = roster.municipalities
    unknown, roster = set(), {m.id for m in municipalities}
    for line, (raw_id, raw_group, raw_value) in ingest._csv_records(path, ingest.POPS_COLUMNS):
        mid, label = raw_id.strip(), raw_group.strip().upper()
        if label not in ingest.POP_SOURCE_GROUPS:
            raise IngestError(f"{path}:{line}: unknown group label {raw_group!r}; "
                              f"expected one of {', '.join(ingest.POP_SOURCE_GROUPS)}")
        value = ingest._parse_int(raw_value, path, line, "population")
        if mid not in roster:
            unknown.add(mid)
        elif (mid, label) in raw:
            duplicate = duplicate or f"{path}:{line}: duplicate row for ({mid}, {label})"
        else:
            raw[mid, label] = value
            excluded[label] = excluded.get(label, 0) + value
    if duplicate:
        raise IngestError(duplicate)
    missing = sorted(roster - {mid for mid, _ in raw})
    if missing:
        raise IngestError(f"{path}: no population rows for {len(missing)} municipalities: "
                          + ", ".join(missing[:10]) + ("..." if len(missing) > 10 else ""))
    rows = [[sum(raw.get((m.id, c), 0) for c in ingest.OTH_COMPONENTS) if g is Group.OTH
             else raw.get((m.id, g.value), 0) for g in Group] for m in municipalities]
    for m, row in zip(municipalities, rows):
        if sum(row) > 2**63 - 1:
            raise IngestError(f"{path}: total population of {m.id} is {sum(row)}, "
                              f"beyond {2**63 - 1}")
    for g in ingest.EXCLUDED_POP_GROUPS:
        report.excluded_groups_totals[g] = excluded[g]
    if unknown:
        report.warnings.append("populations file lists ids not in the case roster (ignored): "
                               + ", ".join(sorted(unknown)[:10]))
    return rows


def _population_outcome(load, path):
    report = QualityReport()
    try:
        pops = load(path, make_roster(["a", "b", "c"]), report=report)
    except IngestError as exc:
        return str(exc)
    return getattr(pops, "pops", np.array(pops)).tolist(), report.to_dict()


population_records = st.lists(st.tuples(
    st.sampled_from(("a", "b", "c", " a ", "zz")),
    st.sampled_from(ingest.POP_SOURCE_GROUPS + (" w", "asian", "OTHER")),
    st.one_of(st.sampled_from((0, 2**62, 2**63 - 1, 2**63, -1, "x", " 7 ")),
              st.integers(0, 100))), max_size=14)


class TestPopulationDiagnostics:
    """Exact texts of the populations-file errors; ``:line`` counts the header as 1."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(population_records)
    @example([("a", "W", 1), ("b", "W", 2), ("c", "ASIAN", 2**63 - 1), ("c", "OTH", 1)])
    @example([("a", "W", 1), ("b", "mo", 2), ("c", "UNK", 3), ("zz", "W", 1), ("b", " w", 4)])
    def test_matches_reading_by_rows(self, write_file, records):
        path = write_file("pops.csv", pops_csv_text(records))
        assert (_population_outcome(load_populations, path)
                == _population_outcome(load_populations_by_rows, path))

    def test_duplicate_names_its_line_and_label(self, write_file):
        rows = [("a", "W", 1), ("a", "BAA", 3), ("zz", "W", 1), ("zz", "W", 1), ("a ", " w", 2)]
        path = write_file("pops.csv", pops_csv_text(rows))
        with pytest.raises(IngestError) as info:
            load_populations(path, make_roster(["a"]))
        assert str(info.value) == f"{path}:6: duplicate row for (a, W)"

    def test_bad_value_reported_before_an_earlier_duplicate(self, write_file):
        """A label or value is checked as its record is read; a repeated row
        is found only once every record is read."""
        rows = [("a", "W", 1), ("a", "W", 2), ("a", "HL", "many")]
        path = write_file("pops.csv", pops_csv_text(rows))
        with pytest.raises(IngestError) as info:
            load_populations(path, make_roster(["a"]))
        assert str(info.value) == (f"{path}:4: column 'population' must be an integer, "
                                   "got 'many'")


# Coordinates as ``json`` reads them, ints and floats, with repeats.
boundary_coordinate = st.one_of(st.integers(-2, 2), st.integers(-2**70, 2**70),
                                st.sampled_from([0.0, -0.0, 1.0, 0.5]),
                                st.floats(allow_nan=False, allow_infinity=False))
# A position: two coordinates, then up to two entries of any JSON type, which are ignored.
boundary_position = st.builds(
    lambda x, y, rest: [x, y, *rest], boundary_coordinate, boundary_coordinate,
    st.lists(st.one_of(st.none(), st.booleans(), st.text(max_size=2), st.integers(), st.floats(),
                       st.lists(st.integers(), max_size=1)), max_size=2))
# A ring left open, closed by its first two coordinates, or closed by them as floats.
boundary_ring = st.builds(
    lambda points, close: points + ([] if close is None else [list(map(close, points[0][:2]))]),
    st.lists(boundary_position, min_size=3, max_size=5),
    st.sampled_from([None, lambda v: v, float]))
boundary_polygon = st.lists(boundary_ring, max_size=2)
# Features of roster ids, of one id twice and of an id off the roster ("zz").
BOUNDARY_ROSTER = ["a", "b", "c", "d"]
boundary_feature = st.builds(
    lambda fid, geometry: {"type": "Feature", "id": fid, "properties": {}, "geometry": geometry},
    st.sampled_from(["a", "b", "c", "zz"]),
    st.one_of(st.builds(lambda p: {"type": "Polygon", "coordinates": p}, boundary_polygon),
              st.builds(lambda ps: {"type": "MultiPolygon", "coordinates": ps},
                        st.lists(boundary_polygon, max_size=2))))
# One fault, and the part of a valid file it replaces.
BOUNDARY_FAULTS = [
    ("collection", []), ("collection", {"type": "FeatureCollection"}),
    ("collection", {"type": "Feature", "features": []}),
    ("feature", "x"), ("feature", 5), ("feature", {"type": "Feature", "geometry": None}),
    ("geometry", None), ("geometry", "x"), ("geometry", {"type": "Point", "coordinates": [0, 0]}),
    ("geometry", {"type": "Polygon"}), ("geometry", {"coordinates": []}),
    ("coordinates", 5), ("coordinates", "x"), ("coordinates", None),
    ("polygon", 5), ("polygon", {"a": 1}),
    ("ring", 5), ("ring", "ring"), ("ring", []), ("ring", [[0, 0], [1, 1]]),
    ("position", []), ("position", [0]), ("position", ["x", 1]), ("position", [1, "x"]),
    ("position", [True, 0]), ("position", [0, False]), ("position", [None, 0]),
    ("position", 7), ("position", "12"), ("position", None), ("position", {"x": 1, "y": 2}),
    ("position", [[0, 0], 1]), ("position", [float("nan"), 0]), ("position", [0, float("inf")]),
    ("position", [-float("inf"), 0, "z"]), ("position", [10**400, 0]),
    ("position", [0, -10**400]),
]


def _polygons(feature: dict) -> list:
    geometry = feature["geometry"]
    return [geometry["coordinates"]] if geometry["type"] == "Polygon" else geometry["coordinates"]


class TestLoadBoundaries:
    def test_single_square(self, write_file):
        path = write_file("b.geojson", geojson_text([square_feature("a")]))
        report = QualityReport()
        shapes = shapes_of(load_boundaries(path, make_roster(["a"]), report=report))
        assert len(shapes) == 1
        assert shapes["a"][0][0] == shapes["a"][0][-1]
        assert report.unmatched_geometry_ids == []
        assert report.missing_geometry_ids == []

    def test_unclosed_ring_autoclosed(self, write_file):
        path = write_file("b.geojson", geojson_text([square_feature("a", closed=False)]))
        report = QualityReport()
        shapes = shapes_of(load_boundaries(path, make_roster(["a"]), report=report))
        ring = shapes["a"][0]
        assert ring[0] == ring[-1]
        assert any("auto-closed" in w for w in report.warnings)

    def test_unmatched_feature_retained(self, write_file):
        path = write_file("b.geojson", geojson_text([square_feature("a"), square_feature("zz", 2.0)]))
        report = QualityReport()
        shapes = shapes_of(load_boundaries(path, make_roster(["a"]), report=report))
        assert "zz" in shapes
        assert report.unmatched_geometry_ids == ["zz"]

    def test_missing_geometry_reported(self, write_file):
        path = write_file("b.geojson", geojson_text([square_feature("a")]))
        report = QualityReport()
        shapes = shapes_of(load_boundaries(path, make_roster(["a", "b"]), report=report))
        assert "b" not in shapes
        assert report.missing_geometry_ids == ["b"]

    def test_non_polygon_rejected(self, write_file):
        feature = {
            "type": "Feature", "id": "a", "properties": {},
            "geometry": {"type": "Point", "coordinates": [0.0, 0.0]},
        }
        path = write_file("b.geojson", geojson_text([feature]))
        with pytest.raises(IngestError, match="non-polygon"):
            load_boundaries(path, make_roster(["a"]))

    def test_multipolygon_accepted(self, write_file):
        feature = {
            "type": "Feature", "id": "a", "properties": {},
            "geometry": {
                "type": "MultiPolygon",
                "coordinates": [
                    [[[0, 0], [1, 0], [1, 1], [0, 0]]],
                    [[[2, 2], [3, 2], [3, 3], [2, 2]]],
                ],
            },
        }
        shapes = shapes_of(load_boundaries(write_file("b.geojson", geojson_text([feature])),
                                           make_roster(["a"])))
        assert len(shapes["a"]) == 2

    def test_id_from_properties(self, write_file):
        feature = square_feature("ignored")
        del feature["id"]
        feature["properties"] = {"GEOID": "g77"}
        shapes = shapes_of(load_boundaries(write_file("b.geojson", geojson_text([feature])),
                                           make_roster(["g77"])))
        assert "g77" in shapes

    def test_not_a_collection(self, write_file):
        path = write_file("b.geojson", '{"type": "Feature"}')
        with pytest.raises(IngestError, match="FeatureCollection"):
            load_boundaries(path, make_roster(["a"]))

    def test_invalid_json(self, write_file):
        path = write_file("b.geojson", "{nope")
        with pytest.raises(IngestError, match="invalid JSON"):
            load_boundaries(path, make_roster(["a"]))

    def test_reads_with_the_collector_paused(self, write_file):
        """A parsed boundary file is tens of thousands of containers and no
        cycle, so ``load_boundaries`` reads and walks it with the cyclic
        collector paused: no collection starts while it loads."""
        ids = [f"m{i:04d}" for i in range(2000)]
        path = write_file("b.geojson", geojson_text(
            [square_feature(mid, 2.0 * i) for i, mid in enumerate(ids)]))
        roster, starts = make_roster(ids), []

        def record(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        assert gc.isenabled()
        gc.callbacks.append(record)
        try:
            load_boundaries(path, roster)
        finally:
            gc.callbacks.remove(record)
        assert starts == []

    def test_structure_is_checked_before_positions(self, write_file):
        """Features and rings are checked as each is read, and the positions
        of the whole file after that, in one pass. So where a file holds
        several faults, a feature or ring fault is reported before a bad
        position earlier in the file, which the reference, reading a position
        at a time, reports first."""
        bad_position = square_feature("a")
        bad_position["geometry"]["coordinates"][0][1] = ["x", 0]
        point = {"type": "Feature", "id": "b", "properties": {},
                 "geometry": {"type": "Point", "coordinates": [0, 0]}}
        short_ring = square_feature("a")
        short_ring["geometry"]["coordinates"] = [[[0, 0], [True, 1]]]
        for features, message, reference_message in [
            ([bad_position, point], "feature 'b' has non-polygon geometry type 'Point'",
             "feature 'a' has a malformed position ['x', 0]"),
            ([short_ring], "feature 'a' has a ring with < 3 points",
             "feature 'a' has a malformed position [True, 1]"),
        ]:
            path = write_file("b.geojson", geojson_text(features))
            with pytest.raises(IngestError) as info:
                load_boundaries(path, make_roster(["a", "b"]))
            assert str(info.value) == f"{path}: {message}"
            with pytest.raises(IngestError) as info:
                reference_boundaries(path, make_roster(["a", "b"]))
            assert str(info.value) == f"{path}: {reference_message}"

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(features=st.lists(boundary_feature, max_size=5))
    def test_agrees_with_the_reference(self, tmp_path, features):
        """The bulk reader gives the reference's points, ring order, warnings
        and unmatched and missing ids, and the extent of the roster's points."""
        path = tmp_path / "b.geojson"
        path.write_text(geojson_text(features), encoding="utf-8")
        roster = make_roster(BOUNDARY_ROSTER)
        expected_report, report = QualityReport(), QualityReport()
        expected = reference_boundaries(path, roster, expected_report)
        boundaries = load_boundaries(path, roster, report)
        assert repr(shapes_of(boundaries)) == repr(expected)  # repr tells -0.0 from 0.0
        assert report == expected_report
        points = [point for mid in roster.ids for ring in expected.get(mid, ()) for point in ring]
        assert boundaries.extent == ((*map(min, zip(*points)), *map(max, zip(*points)))
                                     if points else None)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(features=st.lists(boundary_feature, max_size=4), data=st.data())
    def test_one_fault_gives_the_reference_message(self, tmp_path, features, data):
        """A file with a single fault, each of ``BOUNDARY_FAULTS`` in turn, is
        refused with the reference's exact message."""
        target = square_feature("zz", 5.0)  # a polygon, a ring and positions to damage
        target["geometry"] = {"type": "MultiPolygon",
                              "coordinates": [target["geometry"]["coordinates"]]}
        text = json.dumps([*features, target])
        path, roster = tmp_path / "b.geojson", make_roster(BOUNDARY_ROSTER)
        for part, fault in BOUNDARY_FAULTS:
            features = json.loads(text)
            doc = {"type": "FeatureCollection", "features": features}
            if part == "collection":
                doc = fault
            else:
                container, key = data.draw(st.sampled_from({
                    "feature": [(features, i) for i in range(len(features))],
                    "geometry": [(f, "geometry") for f in features],
                    "coordinates": [(f["geometry"], "coordinates") for f in features],
                    "polygon": [(f["geometry"]["coordinates"], i) for f in features
                                if f["geometry"]["type"] == "MultiPolygon"
                                for i in range(len(f["geometry"]["coordinates"]))],
                    "ring": [(polygon, i) for f in features for polygon in _polygons(f)
                             for i in range(len(polygon))],
                    "position": [(ring, i) for f in features for polygon in _polygons(f)
                                 for ring in polygon for i in range(len(ring))],
                }[part]))
                container[key] = fault
            path.write_text(json.dumps(doc), encoding="utf-8")
            with pytest.raises(IngestError) as expected:
                reference_boundaries(path, roster)
            with pytest.raises(IngestError) as info:
                load_boundaries(path, roster)
            assert str(info.value) == str(expected.value)
