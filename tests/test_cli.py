import codecs
import csv
import gc
import io
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from xml.etree import ElementTree

import pytest

import rankdiff
from rankdiff import cli, ingest
from rankdiff.errors import IngestError
from rankdiff.synth import SynthSpec, write_fixture

from conftest import (cases_csv_text, full_cases_rows, geojson_text, make_roster, pops_csv_text,
                      square_feature)
from test_ingest import _quote_names

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"
SRC = Path(rankdiff.__file__).resolve().parents[1]


def fixture_spec(m=5, n_days=12, seed=3):
    pops = tuple((200 * (i + 1), 150 * (i + 1), 100 * (i + 1), 2000 * (i + 1)) for i in range(m))
    lam = tuple((1.0,) * 4 for _ in range(m))
    return SynthSpec(m=m, n_days=n_days, populations=pops, lam=lam, seed=seed, base_rate=0.05)


def write_config(tmp_path: Path, paths: dict, **extra) -> Path:
    doc = {
        "cases": str(paths["cases"]),
        "populations": str(paths["populations"]),
        "boundaries": str(paths["boundaries"]),
        "out": str(tmp_path / "out"),
    }
    doc.update(extra)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    return config


@pytest.fixture
def clean_fixture(tmp_path):
    paths = write_fixture(fixture_spec(), tmp_path / "fx")
    config = write_config(tmp_path, paths)
    return config, tmp_path / "out"


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestValidate:
    def test_clean_fixture_exit_0(self, clean_fixture, capsys):
        config, _ = clean_fixture
        assert cli.main(["validate", "--config", str(config)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["clamps"] == []
        assert report["unmatched_geometry_ids"] == []

    def test_clamps_exit_1(self, tmp_path, capsys):
        overrides = {("a", 1, "BAA"): 5, ("a", 2, "BAA"): 4}
        rows = full_cases_rows(["a"], 2, overrides=overrides)
        (tmp_path / "cases.csv").write_text(cases_csv_text(rows), encoding="utf-8")
        (tmp_path / "pops.csv").write_text(
            pops_csv_text([("a", "W", 10), ("a", "BAA", 5)]), encoding="utf-8"
        )
        (tmp_path / "b.geojson").write_text(geojson_text([square_feature("a")]), encoding="utf-8")
        config = write_config(
            tmp_path,
            {"cases": tmp_path / "cases.csv", "populations": tmp_path / "pops.csv",
             "boundaries": tmp_path / "b.geojson"},
            cases_schema="widhs-cumulative",
        )
        assert cli.main(["validate", "--config", str(config)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert len(report["clamps"]) == 1
        assert report["clamps"][0]["drop"] == 1

    def test_missing_municipality_exit_2(self, tmp_path, capsys):
        rows = full_cases_rows(["a", "b"], 2)
        (tmp_path / "cases.csv").write_text(cases_csv_text(rows), encoding="utf-8")
        (tmp_path / "pops.csv").write_text(pops_csv_text([("a", "W", 10)]), encoding="utf-8")
        (tmp_path / "b.geojson").write_text(
            geojson_text([square_feature("a"), square_feature("b", 2.0)]), encoding="utf-8"
        )
        config = write_config(
            tmp_path,
            {"cases": tmp_path / "cases.csv", "populations": tmp_path / "pops.csv",
             "boundaries": tmp_path / "b.geojson"},
        )
        assert cli.main(["validate", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "rankdiff: ingest:" in err and "b" in err

    def test_missing_config_key_exit_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"cases": "x.csv"}), encoding="utf-8")
        assert cli.main(["validate", "--config", str(config)]) == 2
        assert "rankdiff: cli:" in capsys.readouterr().err

    def test_malformed_regime_exit_2(self, clean_fixture, capsys):
        config, _ = clean_fixture
        doc = json.loads(config.read_text(encoding="utf-8"))
        doc["regime"] = {"min": "abc"}
        config.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["run", "--config", str(config)]) == 2
        assert "rankdiff: cli:" in capsys.readouterr().err

    @pytest.mark.parametrize("value,message", [
        ("nan", 'cli: {config}: bad classifier config: g1_per_min must be a number, got "nan"'),
        (float("nan"), "classify: g1_per_min is NaN; use a number, or inf or -inf for no bound"),
    ], ids=["text", "literal"])
    def test_nan_classifier_threshold_exit_2(self, clean_fixture, capsys, value, message):
        """A NaN threshold fails every comparison, so it would empty its group unseen. A
        quoted number is not a number, so the string "nan" is refused before it is read."""
        config, out = clean_fixture
        doc = json.loads(config.read_text(encoding="utf-8"))
        doc["classifier"] = {"g1_per_min": value}
        config.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["run", "--config", str(config)]) == 2
        assert capsys.readouterr().err == f"rankdiff: {message.format(config=config)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("section,key", [("classifier", "g1_per_min"), ("regime", "min"),
                                             ("regime", "max")])
    def test_boolean_for_number_exit_2(self, clean_fixture, capsys, section, key):
        """``float(True)`` is 1.0, so a ``true`` typed for a number would load as 1."""
        config, out = clean_fixture
        doc = json.loads(config.read_text(encoding="utf-8"))
        doc[section] = {key: True}
        config.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"rankdiff: cli: {config}: bad {section} config: ")
        assert err.endswith(f"{key} must be a number, got true\n")
        assert not out.exists()

    def test_non_finite_regime_flag_exit_2(self, clean_fixture, capsys):
        config, out = clean_fixture
        assert cli.main(["run", "--config", str(config), "--regime-max", "inf"]) == 2
        assert capsys.readouterr().err.startswith(
            "rankdiff: cli: --regime-min/--regime-max: regime max must be a finite number")
        assert not out.exists()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    @pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted-names"])
    def test_cases_from_named_pipe(self, tmp_path, quoted):
        """A named pipe given as cases gives the regular file's report and exit
        code. Each run is a child with a timeout, since a reader that opened the
        pipe a second time would wait for ever for a writer."""
        paths = write_fixture(fixture_spec(), tmp_path / "fx")
        if quoted:
            paths["cases"].write_bytes(_quote_names(paths["cases"].read_bytes()))
        pipe = tmp_path / "cases.pipe"
        os.mkfifo(pipe)
        env = {**os.environ, "PYTHONPATH": str(SRC)}

        def validate(cases: Path) -> tuple[int, str]:
            config = write_config(tmp_path, {**paths, "cases": cases})
            result = subprocess.run([sys.executable, "-m", "rankdiff.cli", "validate",
                                     "--config", str(config)],
                                    capture_output=True, text=True, timeout=60, env=env)
            return result.returncode, result.stdout

        expected = validate(paths["cases"])
        assert expected[0] == 0
        copy = ("import shutil, sys; "
                "shutil.copyfileobj(open(sys.argv[1], 'rb'), open(sys.argv[2], 'wb'))")
        writer = subprocess.Popen([sys.executable, "-c", copy, str(paths["cases"]), str(pipe)],
                                  stderr=subprocess.DEVNULL)
        try:
            assert validate(pipe) == expected
        finally:
            writer.kill()
            writer.wait()


def write_inputs(tmp_path: Path, cases: str | None = None, pops: str | None = None,
                 geo: str | None = None) -> Path:
    """A valid two-municipality, two-day input set; any file can be replaced."""
    files = {
        "cases": ("cases.csv", cases or cases_csv_text(full_cases_rows(["a", "b"], 2, value=1))),
        "populations": ("pops.csv", pops or pops_csv_text(
            [("a", "W", 10), ("a", "BAA", 5), ("b", "W", 20), ("b", "BAA", 2)])),
        "boundaries": ("b.geojson", geo or geojson_text(
            [square_feature("a"), square_feature("b", 2.0)])),
    }
    paths = {}
    for key, (name, text) in files.items():
        paths[key] = tmp_path / name
        paths[key].write_text(text, encoding="utf-8")
    return write_config(tmp_path, paths)


def polygon(ring) -> str:
    feature = square_feature("a")
    feature["geometry"]["coordinates"] = [ring]
    return geojson_text([feature, square_feature("b", 2.0)])


# Boundary files with one fault each, and a part of the message each must give.
MALFORMED_BOUNDARIES = [
    pytest.param(geojson_text([{"type": "Feature", "id": "a", "properties": {},
                                "geometry": {"type": "Polygon"}}]),
                 "feature 'a' has no coordinates", id="no-coordinates"),
    pytest.param(polygon([[0, 0], [1, 0], [0], [0, 0]]),
                 "feature 'a' has a malformed position [0]", id="short-position"),
    pytest.param(polygon([[0, 0], [1, 0], ["x", 1], [0, 0]]),
                 "malformed position ['x', 1]", id="text-position"),
    pytest.param(polygon([[0, 0], [1, 0], 7, [0, 0]]), "malformed position 7",
                 id="scalar-position"),
    pytest.param(polygon([[0, 0], [1, 0], "12", [0, 0]]), "malformed position '12'",
                 id="string-position"),
    pytest.param(polygon([[0, 0], [1, 0], [True, False], [0, 0]]),
                 "malformed position [True, False]", id="boolean-position"),
    pytest.param(polygon([[0, 0], [10**400, 0], [1, 1], [0, 0]]),
                 "non-finite coordinate [1000", id="integer-past-float-range"),
    pytest.param(polygon([[0, 0], ["N", 0], [1, 1], [0, 0]]).replace('"N"', "1" * 5000),
                 "invalid JSON: Exceeds the limit (4300 digits)", id="integer-past-digit-limit"),
    pytest.param(polygon([[0, 0], [1, float("nan")], [1, 1], [0, 0]]),
                 "feature 'a' has a non-finite coordinate [1, nan]", id="nan"),
    pytest.param(polygon([[0, 0], [float("inf"), 0], [1, 1], [0, 0]]),
                 "non-finite coordinate [inf, 0]", id="inf"),
    pytest.param(geojson_text([{"type": "Feature", "id": "a", "properties": {},
                                "geometry": {"type": "MultiPolygon", "coordinates": [5]}}]),
                 "feature 'a' has malformed coordinates: 5 is not an array", id="scalar-polygon"),
    pytest.param(geojson_text(["a"]), "feature #0 is not a JSON object", id="text-feature"),
    pytest.param("[]", "expected a GeoJSON FeatureCollection", id="top-level-array"),
    pytest.param(b'{"type": "FeatureCollection", "features": []\xff}',
                 "not UTF-8 text: 'utf-8' codec can't decode byte 0xff", id="not-utf8"),
    pytest.param(b"[" * 100_000, "JSON nested too deeply", id="deep-nesting"),
]


class TestMalformedInputs:
    """Malformed input files end in exit 2 with a ``rankdiff: ingest:`` message."""

    @pytest.mark.parametrize("name,row,n_fields", [
        ("cases.csv", 4, 5), ("cases.csv", 1, 7), ("pops.csv", 1, 2), ("pops.csv", 0, 4),
    ])
    def test_wrong_field_count(self, tmp_path, capsys, name, row, n_fields):
        """One record cut short by a field, or given one field too many."""
        if name == "cases.csv":
            key, rows, to_text, width = "cases", full_cases_rows(["a", "b"], 2), cases_csv_text, 6
        else:
            key, rows, to_text, width = "pops", [("a", "W", 10), ("b", "W", 20)], pops_csv_text, 3
        rows[row] = (rows[row] + ("x",))[:n_fields]
        config = write_inputs(tmp_path, **{key: to_text(rows)})
        assert cli.main(["validate", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            f"rankdiff: ingest: {tmp_path / name}:{row + 2}: "
            f"expected {width} fields, got {n_fields}\n"
        )

    @pytest.mark.parametrize("rows", [
        pytest.param([("a", "ASIAN", 2**63 - 1), ("a", "HPI", 1)], id="oth-sources"),
        pytest.param([("a", "W", 2**63 - 1), ("a", "BAA", 1)], id="groups"),
    ])
    def test_population_total_beyond_int64(self, tmp_path, capsys, rows):
        """A population total past int64 is an input error, not a crash or a wrapped total."""
        config = write_inputs(tmp_path, pops=pops_csv_text(rows + [("b", "W", 20)]))
        assert cli.main(["run", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            f"rankdiff: ingest: {tmp_path / 'pops.csv'}: total population of a is {2**63}, "
            f"beyond {2**63 - 1}\n"
        )
        assert not (tmp_path / "out").exists()

    def test_case_total_beyond_int64(self, tmp_path, capsys):
        """Cumulative ranks and dashboard totals sum a municipality's cases in int64."""
        cases = cases_csv_text(full_cases_rows(
            ["a", "b"], 2, overrides={("a", 1, "W"): 2**63 - 1, ("a", 2, "W"): 2**63 - 1}))
        config = write_inputs(tmp_path, cases=cases)
        assert cli.main(["run", "--config", str(config), "--basis", "cumulative"]) == 2
        assert capsys.readouterr().err == (
            f"rankdiff: ingest: {tmp_path / 'cases.csv'}: total cases of a is {2**64 - 2}, "
            f"beyond {2**63 - 1}\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("data,message", [
        pytest.param(b"\xff\xfe", ": not UTF-8 text: 'utf-8' codec can't decode", id="not-utf8"),
        pytest.param(b"x" * 200_000, ":3: field larger than field limit", id="csv-error"),
    ])
    def test_unreadable_cases_text(self, tmp_path, capsys, data, message):
        config = write_inputs(tmp_path)
        rows = cases_csv_text(full_cases_rows(["a", "b"], 2, value=1)).splitlines(keepends=True)
        (tmp_path / "cases.csv").write_bytes(
            "".join(rows[:2]).encode() + data + "".join(rows[2:]).encode())
        assert cli.main(["validate", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"rankdiff: ingest: {tmp_path / 'cases.csv'}")
        assert message in err

    def test_utf8_bom_accepted(self, tmp_path):
        plain = tmp_path / "plain"
        plain.mkdir()
        assert cli.main(["run", "--config", str(write_inputs(plain))]) == 0
        bom = tmp_path / "bom"
        bom.mkdir()
        config = write_inputs(
            bom,
            cases="\ufeff" + cases_csv_text(full_cases_rows(["a", "b"], 2, value=1)),
            pops="\ufeff" + pops_csv_text(
                [("a", "W", 10), ("a", "BAA", 5), ("b", "W", 20), ("b", "BAA", 2)]),
        )
        assert cli.main(["run", "--config", str(config)]) == 0
        assert tree_bytes(bom / "out") == tree_bytes(plain / "out")

    @pytest.mark.parametrize("name", ["config.json", "b.geojson"])
    def test_json_bom_accepted(self, tmp_path, name):
        """A JSON input may start with a byte-order mark, as a CSV input may."""
        plain = tmp_path / "plain"
        plain.mkdir()
        assert cli.main(["run", "--config", str(write_inputs(plain))]) == 0
        bom = tmp_path / "bom"
        bom.mkdir()
        config = write_inputs(bom)
        path = bom / name
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        assert cli.main(["validate", "--config", str(config)]) == 0
        assert cli.main(["run", "--config", str(config)]) == 0
        assert tree_bytes(bom / "out") == tree_bytes(plain / "out")

    @pytest.mark.parametrize("geo,message", MALFORMED_BOUNDARIES)
    def test_malformed_boundaries(self, tmp_path, capsys, geo, message):
        config = write_inputs(tmp_path)
        (tmp_path / "b.geojson").write_bytes(geo.encode() if isinstance(geo, str) else geo)
        assert cli.main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"rankdiff: ingest: {tmp_path / 'b.geojson'}: ")
        assert message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("collecting", [True, False])
    def test_boundaries_leave_the_collector_as_found(self, tmp_path, collecting):
        """``load_boundaries`` pauses the cyclic garbage collector while it reads,
        and leaves it on or off as the caller had it, whether it accepts the
        file or refuses it."""
        path, roster = tmp_path / "b.geojson", make_roster(["a", "b"])
        try:
            (gc.enable if collecting else gc.disable)()
            path.write_text(polygon([[0, 0], [1, 0], [1, 1]]), encoding="utf-8")
            ingest.load_boundaries(path, roster)
            assert gc.isenabled() is collecting
            for case in MALFORMED_BOUNDARIES:
                geo = case.values[0]
                path.write_bytes(geo.encode() if isinstance(geo, str) else geo)
                with pytest.raises(IngestError):
                    ingest.load_boundaries(path, roster)
                assert gc.isenabled() is collecting, case.id
        finally:
            gc.enable()


def csv_text(rows) -> str:
    """Rows as ``csv.writer`` writes them, quoting fields that hold ``"`` or ``,``."""
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    return text.getvalue()


def write_named_inputs(tmp_path: Path, towns: dict[str, tuple[str, str]]) -> Path:
    """A valid input set over ``towns``, a map from municipality id to (name, county)."""
    cases = [row[:2] + towns[row[1]] + row[4:] for row in full_cases_rows(list(towns), 2, 1)]
    pops = [(mid, group, 10) for mid in towns for group in ("W", "BAA")]
    return write_inputs(
        tmp_path,
        cases=csv_text([ingest.CASES_COLUMNS, *cases]),
        pops=csv_text([ingest.POPS_COLUMNS, *pops]),
        geo=geojson_text([square_feature(mid, 2.0 * i) for i, mid in enumerate(towns)]),
    )


class TestIdsStayInTree:
    """A municipality id names its dashboard file, and an id, name and county
    are written into SVG text. An id that cannot name a file under dashboards/,
    or text that XML cannot carry, is an input error, whichever command reads
    the cases file."""

    @pytest.mark.parametrize("mid", ["../../escaped", "sub/../../escaped", "..\\..\\escaped"])
    @pytest.mark.parametrize("command", ["validate", "run", "render-dashboard"])
    def test_separator_in_id_exit_2(self, tmp_path, capsys, mid, command):
        inputs = tmp_path / "in"
        inputs.mkdir()
        config = write_inputs(
            inputs,
            cases=cases_csv_text(full_cases_rows(["a", mid], 2, value=1)),
            pops=pops_csv_text([("a", "W", 10), ("a", "BAA", 5), (mid, "W", 20), (mid, "BAA", 2)]),
            geo=geojson_text([square_feature("a"), square_feature(mid, 2.0)]),
        )
        before = set(tmp_path.rglob("*"))
        flags = ["--id", mid] if command == "render-dashboard" else []
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(config), "--out", str(out), *flags]) == 2
        assert capsys.readouterr().err == (
            f"rankdiff: ingest: {inputs / 'cases.csv'}:10: municipality_id {mid!r} "
            "must not contain '/' or '\\'\n"
        )
        assert {p for p in set(tmp_path.rglob("*")) - before if out not in p.parents} <= {out}

    @pytest.mark.parametrize("mid, town, message", [
        pytest.param("x" * 300, ("Town", "County"), f"municipality_id {'x' * 300!r} makes a "
                     "dashboard file name of 304 bytes, beyond 255", id="300-bytes"),
        pytest.param("é" * 126, ("Town", "County"), f"municipality_id {'é' * 126!r} makes a "
                     "dashboard file name of 256 bytes, beyond 255", id="256-bytes"),
        pytest.param("b\0", ("Town", "County"), "municipality_id 'b\\x00' holds a character "
                     "that XML does not allow", id="nul-in-id"),
        pytest.param("b\x02", ("Town", "County"), "municipality_id 'b\\x02' holds a character "
                     "that XML does not allow", id="control-in-id"),
        pytest.param("b", ("To\x01wn", "County"), "municipality_name 'To\\x01wn' holds a "
                     "character that XML does not allow", id="control-in-name"),
        pytest.param("b", ("Town\ufffe", "County"), "municipality_name 'Town\\ufffe' holds a "
                     "character that XML does not allow", id="noncharacter-in-name"),
        pytest.param("b", ("Town", "Co\x1bunty"), "county 'Co\\x1bunty' holds a character "
                     "that XML does not allow", id="control-in-county"),
    ])
    @pytest.mark.parametrize("command", ["validate", "run", "render-dashboard"])
    def test_unwritable_text_exit_2(self, tmp_path, capsys, mid, town, message, command):
        config = write_named_inputs(tmp_path, {"a": ("Town a", "County"), mid: town})
        flags = ["--id", mid] if command == "render-dashboard" else []
        assert cli.main([command, "--config", str(config), *flags]) == 2
        assert capsys.readouterr().err == (
            f"rankdiff: ingest: {tmp_path / 'cases.csv'}:10: {message}\n"
        )
        assert not (tmp_path / "out").exists()

    def test_longest_ids_and_markup_in_text_run(self, tmp_path):
        """An id whose file name takes exactly 255 bytes runs, and markup, ``%``
        and non-ASCII text in ids and names leave every SVG well-formed and
        are shown as given."""
        towns = {"x" * 251: ("Long", "County"), "é" * 125 + "x": ("Étang", "Comté"),
                 'a&b<c"d': ('A & B <"C">', "C&D <County>"),
                 "zürich": ("Zürich", "Bezirk & <Land>"),
                 "50%": ("100% & %(x)s", "%d County")}
        config = write_named_inputs(tmp_path, towns)
        assert cli.main(["run", "--config", str(config)]) == 0
        out = tmp_path / "out"
        for mid, (name, county) in towns.items():
            dashboard = out / "dashboards" / f"{mid}.svg"
            assert len(dashboard.name.encode("utf-8")) <= 255
            text = "".join(ElementTree.parse(dashboard).getroot().itertext())
            assert f"{name} ({county})" in text and f"id {mid}" in text
        assert len(list((out / "dashboards").iterdir())) == len(towns)
        ElementTree.parse(out / "map_baa.svg")


class TestRun:
    def test_full_tree_and_idempotence(self, clean_fixture):
        config, out = clean_fixture
        inputs_before = tree_bytes(config.parent / "fx")
        assert cli.main(["run", "--config", str(config)]) == 0
        first = tree_bytes(out)
        expected = {"rd.csv", "stats.json", "labels.csv", "quality.json",
                    "map_baa.svg", "index.html"}
        assert expected <= set(first)
        dashboards = [name for name in first if name.startswith("dashboards/")]
        assert len(dashboards) == 5

        assert cli.main(["run", "--config", str(config)]) == 0
        assert tree_bytes(out) == first
        assert tree_bytes(config.parent / "fx") == inputs_before

    def test_rerun_smaller_roster_removes_stale_dashboards(self, tmp_path):
        def config(name: str, m: int, out: str) -> Path:
            paths = write_fixture(fixture_spec(m=m), tmp_path / name)
            return write_config(tmp_path / name, paths, out=str(tmp_path / out))

        six, four = config("six", 6, "out"), config("four", 4, "out")
        fresh = config("fresh", 4, "fresh-out")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(six)]) == 0
        kept = {"dashboards/notes.txt": b"kept", "dashboards/old/m005.svg": b"kept",
                "dashboards/UPPER.SVG": b"kept", "dashboards/m001.svg.bak": b"kept",
                "dashboards/dir.svg/x": b"kept"}
        for name, data in kept.items():
            (out / name).parent.mkdir(exist_ok=True)
            (out / name).write_bytes(data)
        (out / "dashboards" / ".hidden.svg").write_text("stale", encoding="utf-8")
        assert cli.main(["run", "--config", str(four)]) == 0
        assert cli.main(["run", "--config", str(fresh)]) == 0

        assert tree_bytes(out) == {**tree_bytes(tmp_path / "fresh-out"), **kept}

    def test_rd_csv_shape(self, clean_fixture):
        config, out = clean_fixture
        cli.main(["run", "--config", str(config)])
        with open(out / "rd.csv", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 5 * 12 * 4
        assert set(rows[0]) == {"municipality_id", "group", "day", "rd"}

    def test_stats_json_structure(self, clean_fixture):
        config, out = clean_fixture
        cli.main(["run", "--config", str(config)])
        doc = json.loads((out / "stats.json").read_text(encoding="utf-8"))
        assert doc["window"]["n_days"] == 12
        assert len(doc["municipalities"]) == 5
        entry = doc["municipalities"]["m001"]["groups"]["BAA"]
        assert set(entry) == {"persistence_pct", "skewness", "relative_change", "special"}

    def test_group_flag_changes_map_name(self, clean_fixture):
        config, out = clean_fixture
        assert cli.main(["run", "--config", str(config), "--group", "hl"]) == 0
        assert (out / "map_hl.svg").exists()
        with open(out / "labels.csv", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert all(row["group"] == "HL" for row in rows)

    def test_regime_override_changes_persistence_not_rd(self, clean_fixture):
        config, out = clean_fixture
        cli.main(["run", "--config", str(config)])
        rd_default = (out / "rd.csv").read_bytes()
        stats_default = json.loads((out / "stats.json").read_text(encoding="utf-8"))

        cli.main(["run", "--config", str(config), "--regime-min", "-200", "--regime-max", "200"])
        rd_wide = (out / "rd.csv").read_bytes()
        stats_wide = json.loads((out / "stats.json").read_text(encoding="utf-8"))

        assert rd_wide == rd_default
        for muni in stats_wide["municipalities"].values():
            for entry in muni["groups"].values():
                assert entry["persistence_pct"] == 100.0
        # independent check: default persistence equals a direct recount of rd.csv
        with open(out / "rd.csv", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        hits: dict[tuple[str, str], int] = {}
        for row in rows:
            key = (row["municipality_id"], row["group"])
            hits.setdefault(key, 0)
            if 0 < int(row["rd"]) <= 5:
                hits[key] += 1
        for (mid, group), count in hits.items():
            expected = 100.0 * count / 12
            got = stats_default["municipalities"][mid]["groups"][group]["persistence_pct"]
            assert got == pytest.approx(expected, abs=1e-12)

    def test_warnings_exit_1(self, tmp_path):
        paths = write_fixture(fixture_spec(m=2), tmp_path / "fx")
        # drop one municipality from the boundaries file
        geo = json.loads(paths["boundaries"].read_text(encoding="utf-8"))
        geo["features"] = geo["features"][:1]
        paths["boundaries"].write_text(json.dumps(geo), encoding="utf-8")
        config = write_config(tmp_path, paths)
        assert cli.main(["run", "--config", str(config)]) == 1
        report = json.loads((tmp_path / "out" / "quality.json").read_text(encoding="utf-8"))
        assert report["missing_geometry_ids"] == ["m002"]

    def test_no_roster_geometry_writes_nothing(self, tmp_path, capsys):
        """Loading rejects a map with nothing to draw, so no tree is written."""
        config = write_inputs(tmp_path, geo=geojson_text([square_feature("zz")]))
        assert cli.main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("rankdiff: ingest: ")
        assert err.endswith("b.geojson: no feature matches a roster id, so the map has no "
                            "geometry to draw\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("axis", [0, 1], ids=["x", "y"])
    def test_map_span_beyond_float_exit_2(self, tmp_path, capsys, axis):
        """Roster geometry whose extent overflows a float would scale the map by
        inf and write NaN coordinates, so loading refuses it, in ``validate``
        too, and no tree is written. Geometry outside the roster is not drawn,
        so its extent does not count."""
        corners = [[0.0, 0.0], [0.0, 0.0]]
        corners[0][axis], corners[1][axis] = -1.7e308, 1.7e308
        wide = [square_feature("a", *corners[0]), square_feature("b", *corners[1])]
        config = write_inputs(tmp_path, geo=geojson_text(wide))
        for command in ("validate", "run"):
            assert cli.main([command, "--config", str(config)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("rankdiff: ingest: ")
            assert err.endswith("b.geojson: the roster geometry spans more than a float can "
                                "hold, so the map cannot be scaled\n")
        assert not (tmp_path / "out").exists()
        foreign = [square_feature("a"), square_feature("b", 2.0), square_feature("zz", *corners[1])]
        config = write_inputs(tmp_path, geo=geojson_text(foreign))
        assert cli.main(["run", "--config", str(config)]) == 1  # the unmatched feature warns
        assert "nan" not in (tmp_path / "out" / "map_baa.svg").read_text(encoding="utf-8")

    def test_bad_basis_exit_2(self, clean_fixture, capsys):
        config, out = clean_fixture
        assert cli.main(["run", "--config", str(config), "--basis", "weekly"]) == 2
        assert capsys.readouterr().err == ("rankdiff: cli: command line: --basis must be one of "
                                           'raw, raw_daily, ma7, cumulative, got "weekly"\n')
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--regime-min", "abc", 'must be a number, got "abc"'),
        ("--regime-max", "", 'must be a number, got ""'),
        ("--group", "all", 'must be one of BAA, HL, OTH, W, got "all"'),
    ], ids=["regime-min", "empty-regime-max", "group"])
    def test_bad_flag_exit_2(self, clean_fixture, capsys, flag, value, message):
        """A flag is read as the config key it overrides, so a bad one names the flag."""
        config, out = clean_fixture
        assert cli.main(["run", "--config", str(config), flag, value]) == 2
        assert capsys.readouterr().err == f"rankdiff: cli: command line: {flag} {message}\n"
        assert not out.exists()

    def test_flags_read_as_config_keys(self, clean_fixture, tmp_path):
        """Each flag takes what its config key takes: any case, and every alias."""
        config, out = clean_fixture
        assert cli.main(["run", "--config", str(config), "--group", "baa", "--basis", "raw"]) == 0
        for flags in (["--group", "BAA"], ["--basis", "raw_daily"], ["--regime-min", " 0e0 "]):
            again = tmp_path / "again"
            assert cli.main(["run", "--config", str(config), "--out", str(again), *flags]) == 0
            assert tree_bytes(again) == tree_bytes(out), flags
            shutil.rmtree(again)

    def test_basis_flag_accepted(self, clean_fixture, capsys):
        config, out = clean_fixture
        assert cli.main(["run", "--config", str(config), "--basis", "ma7"]) == 0
        doc = json.loads((out / "stats.json").read_text(encoding="utf-8"))
        assert doc["basis"] == "ma7"


class TestSynthCommand:
    def test_deterministic_files(self, tmp_path):
        spec = {"m": 3, "n_days": 4, "seed": 8,
                "populations": [[10, 10, 10, 100]] * 3, "lam": 1.0}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert cli.main(["synth", str(spec_path), "--out", str(out1)]) == 0
        assert cli.main(["synth", str(spec_path), "--out", str(out2)]) == 0
        assert tree_bytes(out1) == tree_bytes(out2)

    def test_zero_lambda_zero_cases(self, tmp_path):
        spec = {"m": 2, "n_days": 3, "seed": 1,
                "populations": [[5, 5, 5, 50]] * 2, "lam": 0.0}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        out = tmp_path / "s"
        assert cli.main(["synth", str(spec_path), "--out", str(out)]) == 0
        with open(out / "cases.csv", encoding="utf-8") as handle:
            counts = [int(row["count"]) for row in csv.DictReader(handle)]
        assert counts and not any(counts)

    @pytest.mark.parametrize("out,message", [
        ("", 'rankdiff: cli: command line: --out must be a non-empty string with no NUL, got ""\n'),
        ("taken", "rankdiff: synth: cannot write taken: File exists\n"),
        ("taken/fx", "rankdiff: synth: cannot write taken/fx: Not a directory\n"),
    ], ids=["empty", "a-file", "under-a-file"])
    def test_unusable_out_exit_2(self, tmp_path, monkeypatch, capsys, out, message):
        """An --out that names no directory rankdiff can create writes nothing."""
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"m": 1, "n_days": 2, "populations": [[5, 5, 5, 50]]}),
                             encoding="utf-8")
        (tmp_path / "taken").write_text("kept", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert cli.main(["synth", str(spec_path), "--out", out]) == 2
        assert capsys.readouterr().err == message
        assert sorted(os.listdir(tmp_path)) == ["spec.json", "taken"]
        assert (tmp_path / "taken").read_text(encoding="utf-8") == "kept"

    @pytest.mark.parametrize("name", ["cases.csv", "populations.csv", "boundaries.geojson"])
    def test_file_is_a_directory_exit_2(self, tmp_path, capsys, name):
        target = tmp_path / "fixture" / name
        target.mkdir(parents=True)
        assert cli.main(["synth", str(EXAMPLES / "spec.json"), "--out", str(target.parent)]) == 2
        assert capsys.readouterr().err.startswith(f"rankdiff: synth: cannot write {target}: ")
        assert target.is_dir()

    def test_bad_spec_exit_2(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"m": 2}), encoding="utf-8")
        assert cli.main(["synth", str(spec_path)]) == 2
        assert "rankdiff: synth:" in capsys.readouterr().err

    def test_full_scale_runs_in_seconds(self, tmp_path):
        spec = {"m": 190, "n_days": 365, "seed": 5,
                "populations": [[100 + i, 80 + i, 60 + i, 5000 + i] for i in range(190)],
                "lam": 1.0}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        started = time.perf_counter()
        assert cli.main(["synth", str(spec_path), "--out", str(tmp_path / "big")]) == 0
        assert time.perf_counter() - started < 30.0

    def test_readme_quickstart(self, tmp_path):
        """The README's Quickstart on the committed example spec and config."""
        config = shutil.copy(EXAMPLES / "config.json", tmp_path)
        spec = EXAMPLES / "spec.json"
        assert cli.main(["synth", str(spec), "--out", str(tmp_path / "fixture")]) == 0
        assert cli.main(["validate", "--config", str(config)]) == 0
        assert cli.main(["run", "--config", str(config)]) == 0
        assert cli.main(["render-map", "--config", str(config)]) == 0
        assert cli.main(["render-dashboard", "--config", str(config), "--id", "m008"]) == 0
        stats = json.loads((tmp_path / "out" / "stats.json").read_text(encoding="utf-8"))
        baa = {mid: record["groups"]["BAA"] for mid, record in stats["municipalities"].items()}
        assert max(baa, key=lambda mid: baa[mid]["persistence_pct"]) == "m008"
        assert max(baa, key=lambda mid: baa[mid]["relative_change"]) == "m008"


# The files of the tree that run writes beside the dashboards.
TREE_FILES = ["rd.csv", "stats.json", "labels.csv", "quality.json", "map_baa.svg", "index.html"]


class TestRenderCommands:
    def test_render_map_only(self, clean_fixture):
        config, out = clean_fixture
        assert cli.main(["render-map", "--config", str(config)]) == 0
        assert (out / "map_baa.svg").exists()
        assert not (out / "rd.csv").exists()

    def test_render_single_dashboard(self, clean_fixture):
        config, out = clean_fixture
        assert cli.main(["render-dashboard", "--config", str(config), "--id", "m002"]) == 0
        assert (out / "dashboards" / "m002.svg").exists()
        assert not (out / "dashboards" / "m001.svg").exists()

    def test_single_files_match_run(self, clean_fixture, tmp_path):
        config, out = clean_fixture
        flags = ["--config", str(config), "--basis", "ma7", "--group", "hl"]
        assert cli.main(["run", *flags]) == 0
        ran = tree_bytes(out)
        alone = tmp_path / "alone"
        assert cli.main(["render-dashboard", *flags, "--id", "m002", "--out", str(alone)]) == 0
        assert cli.main(["render-map", *flags, "--out", str(alone)]) == 0
        assert tree_bytes(alone) == {
            name: ran[name] for name in ("dashboards/m002.svg", "map_hl.svg")
        }

    @pytest.mark.parametrize("command", [["validate"], ["run"], ["render-map"],
                                         ["render-dashboard", "--id", "m001"]],
                             ids=["validate", "run", "render-map", "render-dashboard"])
    def test_out_is_a_file_exit_2(self, clean_fixture, capsys, command):
        config, out = clean_fixture
        out.write_text("kept", encoding="utf-8")
        assert cli.main([*command, "--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith(f"rankdiff: render: cannot write {out}")
        assert out.read_text(encoding="utf-8") == "kept"

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_dashboards_is_a_file_exit_2(self, clean_fixture, capsys, command):
        """validate refuses the output tree that run cannot write, naming the path."""
        config, out = clean_fixture
        dashboards = out / "dashboards"
        out.mkdir()
        dashboards.write_text("kept", encoding="utf-8")
        assert cli.main([command, "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            f"rankdiff: render: cannot write {dashboards}: not a directory\n")
        assert os.listdir(out) == ["dashboards"]
        assert dashboards.read_text(encoding="utf-8") == "kept"

    @pytest.mark.parametrize("command,name", [
        (["run"], "dashboards/m001.svg"),
        (["render-dashboard", "--id", "m001"], "dashboards/m001.svg"),
        *((["run"], name) for name in TREE_FILES),
    ], ids=["run", "render-dashboard", *TREE_FILES])
    def test_dashboard_is_a_directory_exit_2(self, clean_fixture, capsys, command, name):
        """A file of the tree that cannot be written, here a directory in its
        place, ends in exit 2 naming it, whichever writer writes it."""
        config, out = clean_fixture
        target = out / name
        target.mkdir(parents=True)
        assert cli.main([*command, "--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith(f"rankdiff: render: cannot write {target}: ")
        assert target.is_dir()

    def test_render_unknown_id_exit_2(self, clean_fixture, capsys):
        config, _ = clean_fixture
        assert cli.main(["render-dashboard", "--config", str(config), "--id", "zz"]) == 2
        assert "rankdiff: render:" in capsys.readouterr().err

