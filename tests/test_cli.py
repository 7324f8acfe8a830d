import csv
import json
import time
from pathlib import Path

import pytest

from rankdiff import cli
from rankdiff.synth import SynthSpec, write_fixture

from conftest import cases_csv_text, full_cases_rows, geojson_text, pops_csv_text, square_feature


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

    def test_non_finite_regime_flag_exit_2(self, clean_fixture, capsys):
        config, out = clean_fixture
        assert cli.main(["run", "--config", str(config), "--regime-max", "inf"]) == 2
        assert capsys.readouterr().err.startswith(
            "rankdiff: cli: --regime-min/--regime-max: regime max must be a finite number")
        assert not out.exists()


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

    @pytest.mark.parametrize("geo,message", [
        pytest.param(geojson_text([{"type": "Feature", "id": "a", "properties": {},
                                    "geometry": {"type": "Polygon"}}]),
                     "feature 'a' has no coordinates", id="no-coordinates"),
        pytest.param(polygon([[0, 0], [1, 0], [0], [0, 0]]),
                     "feature 'a' has a malformed position [0]", id="short-position"),
        pytest.param(polygon([[0, 0], [1, 0], ["x", 1], [0, 0]]),
                     "malformed position ['x', 1]", id="text-position"),
        pytest.param(polygon([[0, 0], [1, 0], 7, [0, 0]]), "malformed position 7",
                     id="scalar-position"),
        pytest.param(polygon([[0, 0], [1, float("nan")], [1, 1], [0, 0]]),
                     "feature 'a' has a non-finite coordinate [1, nan]", id="nan"),
        pytest.param(polygon([[0, 0], [float("inf"), 0], [1, 1], [0, 0]]),
                     "non-finite coordinate [inf, 0]", id="inf"),
        pytest.param(geojson_text([{"type": "Feature", "id": "a", "properties": {},
                                    "geometry": {"type": "MultiPolygon", "coordinates": [5]}}]),
                     "feature 'a' has malformed coordinates: 5 is not an array", id="scalar-polygon"),
        pytest.param(geojson_text(["a"]), "feature #0 is not a JSON object", id="text-feature"),
        pytest.param("[]", "expected a GeoJSON FeatureCollection", id="top-level-array"),
    ])
    def test_malformed_boundaries(self, tmp_path, capsys, geo, message):
        config = write_inputs(tmp_path, geo=geo)
        assert cli.main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"rankdiff: ingest: {tmp_path / 'b.geojson'}: ")
        assert message in err
        assert not (tmp_path / "out").exists()


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
        (out / "dashboards" / "notes.txt").write_text("kept", encoding="utf-8")
        (out / "dashboards" / "old").mkdir()
        (out / "dashboards" / "old" / "m005.svg").write_text("kept", encoding="utf-8")
        assert cli.main(["run", "--config", str(four)]) == 0
        assert cli.main(["run", "--config", str(fresh)]) == 0

        kept = {"dashboards/notes.txt": b"kept", "dashboards/old/m005.svg": b"kept"}
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
        """The map is drawn before the first write, so its failure leaves no tree."""
        config = write_inputs(tmp_path, geo=geojson_text([square_feature("zz")]))
        assert cli.main(["run", "--config", str(config)]) == 2
        assert "rankdiff: render: choropleth has no geometry to draw" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_basis_exit_2(self, clean_fixture, capsys):
        config, _ = clean_fixture
        with pytest.raises(SystemExit):
            cli.main(["run", "--config", str(config), "--basis", "weekly"])

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

    def test_render_unknown_id_exit_2(self, clean_fixture, capsys):
        config, _ = clean_fixture
        assert cli.main(["render-dashboard", "--config", str(config), "--id", "zz"]) == 2
        assert "rankdiff: render:" in capsys.readouterr().err

