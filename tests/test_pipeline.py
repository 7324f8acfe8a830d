import hashlib
import importlib
import importlib.util
import json
import math
import os
import re
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rankdiff import cli, ingest, pipeline, render
from rankdiff.classify import ClassifierConfig
from rankdiff.errors import ConfigError, write_text
from rankdiff.ingest import write_cases_csv, write_populations_csv
from rankdiff.metrics import RegimeConfig
from rankdiff.model import CaseCube, Group, PopulationTable
from rankdiff.pipeline import RunConfig, parse_basis, parse_group, run
from rankdiff.synth import SynthSpec, write_fixture

from conftest import geojson_text, make_cube, make_pops, square_feature


def test_config_paths_resolve_relative_to_file(tmp_path):
    (tmp_path / "data").mkdir()
    config = tmp_path / "nested" / "config.json"
    config.parent.mkdir()
    config.write_text(json.dumps({
        "cases": "../data/cases.csv",
        "populations": "../data/pops.csv",
        "boundaries": "../data/b.geojson",
        "out": "../out",
    }), encoding="utf-8")
    cfg = RunConfig.from_file(config)
    assert cfg.cases == (tmp_path / "data" / "cases.csv").resolve()
    assert cfg.out == (tmp_path / "out").resolve()
    assert cfg.basis == "raw_daily"
    assert cfg.group is Group.BAA
    assert cfg.regime == RegimeConfig()
    assert cfg.classifier == ClassifierConfig()


def test_config_sections_parsed(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "cases": "c.csv", "populations": "p.csv", "boundaries": "b.geojson",
        "basis": "ma7",
        "group": "oth",
        "regime": {"min": 1.0, "max": 50.0},
        "classifier": {"g0_skew_max": 0.5},
        "cases_schema": "widhs-cumulative",
    }), encoding="utf-8")
    cfg = RunConfig.from_file(config)
    assert cfg.basis == "ma7"
    assert cfg.group is Group.OTH
    assert cfg.regime == RegimeConfig(1.0, 50.0)
    assert cfg.classifier.g0_skew_max == 0.5
    assert cfg.cases_schema == "widhs-cumulative"


def test_overrides_win(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "cases": "c.csv", "populations": "p.csv", "boundaries": "b.geojson",
        "basis": "ma7", "group": "hl", "regime": {"min": 0.0, "max": 10.0},
    }), encoding="utf-8")
    cfg = RunConfig.from_file(config).with_overrides(
        basis="cumulative", regime_min="2", group="w", out=str(tmp_path / "elsewhere")
    )
    assert cfg.basis == "cumulative"
    assert cfg.group is Group.W
    assert cfg.regime == RegimeConfig(2.0, 10.0)  # max kept from config
    assert cfg.out == (tmp_path / "elsewhere").resolve()


def test_missing_key_rejected(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"cases": "c.csv"}), encoding="utf-8")
    with pytest.raises(ConfigError, match="populations"):
        RunConfig.from_file(config)


@pytest.mark.parametrize("doc,match", [
    (["cases", "populations", "boundaries"], "JSON object"),
    ({"regime": {"min": "abc"}}, "regime"),
    ({"regime": {"max": [1]}}, "regime"),
    ({"regime": [0.0, 5.0]}, "regime"),
    ({"classifier": "strict"}, "classifier"),
    ({"classifier": {"g0_skew_max": "abc"}}, "classifier"),
    ({"regime": {"max": "inf"}}, "regime max must be a finite number, got inf; use null"),
    ({"regime": {"min": float("-inf")}}, "regime min must be a finite number"),
    ({"regime": {"min": 0.0, "max": float("nan")}}, "regime max must be a finite number"),
    pytest.param('{"cases": "c.csv", "populations": "p.csv", "boundaries": "b.geojson", '
                 '"regime": {"max": 1e999}}', "regime max must be a finite number",
                 id="literal-1e999"),
    pytest.param('{"cases": "c.csv", "populations": "p.csv", "boundaries": "b.geojson", '
                 '"regime": {"max": ' + "1" * 5000 + '}}', "invalid JSON: Exceeds the limit",
                 id="integer-past-digit-limit"),
    pytest.param(b'{"cases": "c\xff.csv"}', "not UTF-8 text: 'utf-8' codec can't decode byte 0xff",
                 id="not-utf8"),
    pytest.param(b"[" * 100_000, "JSON nested too deeply", id="deep-nesting"),
    *(pytest.param({key: "x\u0000.csv"}, f"{key} must be a non-empty string with no NUL, "
                   'got "x\\\\u0000.csv"', id=f"nul-in-{key}")
      for key in ("cases", "populations", "boundaries", "out")),
    pytest.param({"cases": 5}, "cases must be a non-empty string with no NUL, got 5",
                 id="number-path"),
    pytest.param({"cases": ["a"]}, r'cases must be a non-empty string with no NUL, got \["a"\]',
                 id="array-path"),
    pytest.param({"out": ""}, 'out must be a non-empty string with no NUL, got ""', id="empty-out"),
    pytest.param({"bassis": "cumulative"}, "unknown key 'bassis', expected one of cases, ",
                 id="unknown-key"),
    pytest.param({"regime": {"mn": 3}},
                 "bad regime config: unknown key 'mn', expected one of min, max",
                 id="unknown-regime-key"),
    pytest.param({"regime": {"min": "3"}}, 'bad regime config: min must be a number, got "3"',
                 id="quoted-regime-min"),
    pytest.param({"classifier": {"g1_per_min": "1e3"}},
                 'bad classifier config: g1_per_min must be a number, got "1e3"',
                 id="quoted-threshold"),
    pytest.param('{"cases": "c.csv", "populations": "p.csv", "boundaries": "b.geojson", '
                 '"regime": {"min": ' + "9" * 400 + '}}', "regime min must be a finite number",
                 id="integer-past-float-range"),
    pytest.param(({}, ["--out", ""]), 'command line: --out must be a non-empty string with no NUL, '
                 'got ""', id="empty-out-flag"),
    pytest.param({"basis": "weekly"}, 'basis must be one of raw, raw_daily, ma7, cumulative, '
                 'got "weekly"', id="unknown-basis"),
    pytest.param({"group": "all"}, 'group must be one of BAA, HL, OTH, W, got "all"',
                 id="unknown-group"),
    pytest.param({"cases_schema": "bogus"},
                 'cases_schema must be one of canonical, widhs-cumulative, got "bogus"',
                 id="unknown-cases-schema"),
])
def test_malformed_config_rejected(tmp_path, capsys, doc, match):
    """Exit 2 with a message that names the config, or the flag, and the key."""
    doc, flags = doc if isinstance(doc, tuple) else (doc, [])
    if isinstance(doc, dict):
        doc = {"cases": "c.csv", "populations": "p.csv", "boundaries": "b.geojson", **doc}
    text = doc if isinstance(doc, (str, bytes)) else json.dumps(doc)
    config = tmp_path / "config.json"
    config.write_bytes(text.encode() if isinstance(text, str) else text)
    assert cli.main(["run", "--config", str(config), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"rankdiff: cli: {'command line' if flags else config}: ")
    assert re.search(match, err)
    assert os.listdir(tmp_path) == ["config.json"]


@pytest.mark.parametrize("key", ["cases", "populations", "boundaries", "out", "default-out",
                                 "--out"])
def test_symlink_loop_in_path_rejected(tmp_path, capsys, key):
    """A path through two symlinks that point at each other ends in exit 2
    with a message that names the config, or the flag, and the key."""
    os.symlink("b", tmp_path / "a")
    os.symlink("a", tmp_path / "b")
    doc = {"cases": "c.csv", "populations": "p.csv", "boundaries": "b.geojson"}
    flags = ["--out", str(tmp_path / "a")] if key == "--out" else []
    if key == "default-out":
        os.symlink("a", tmp_path / "out")
    elif key != "--out":
        doc[key] = "a/x"
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["validate", "--config", str(config), *flags]) == 2
    where = "command line: --out" if flags else f"{config}: {key.replace('default-', '')}"
    assert capsys.readouterr().err.startswith(f"rankdiff: cli: {where} cannot be resolved: ")


def test_symlink_loop_rejected_where_resolve_keeps_it(tmp_path, monkeypatch):
    """From Python 3.13, ``Path.resolve()`` returns a path through a loop
    unchanged; the loop is refused all the same, and a missing path is kept."""
    os.symlink("b", tmp_path / "a")
    os.symlink("a", tmp_path / "b")
    monkeypatch.setattr(Path, "resolve", lambda self, strict=False: Path(os.path.abspath(self)))
    with pytest.raises(ValueError, match="^cannot be resolved: "):
        pipeline._resolved(tmp_path / "a" / "x")
    assert pipeline._resolved(tmp_path / "missing" / "x") == tmp_path / "missing" / "x"


def test_unknown_classifier_key_rejected(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "cases": "c.csv", "populations": "p.csv", "boundaries": "b.geojson",
        "classifier": {"nope": 1.0},
    }), encoding="utf-8")
    with pytest.raises(ConfigError, match="classifier"):
        RunConfig.from_file(config)


@pytest.mark.parametrize("text,expected", [("raw", "raw_daily"), ("MA7", "ma7"),
                                           ("cumulative", "cumulative")])
def test_parse_basis(text, expected):
    assert parse_basis(text) == expected


def test_parse_basis_rejects_unknown():
    with pytest.raises(ValueError,
                       match='must be one of raw, raw_daily, ma7, cumulative, got "weekly"'):
        parse_basis("weekly")


def test_parse_group():
    assert parse_group("baa") is Group.BAA
    assert parse_group("W") is Group.W
    with pytest.raises(ValueError, match='must be one of BAA, HL, OTH, W, got "all"'):
        parse_group("all")



def _wide_shaped_spec():
    """A seeded roster shaped like the ``wide`` benchmark workload, small enough
    for tier 1: lognormal populations, many zero days and rank ties, a short
    window. In 73 of its 1 200 series, NumPy's array ``m2 ** 1.5`` rounds
    differently from the scalar one, so the skewness digits pin the scalar
    expression."""
    m, n_days = 300, 7
    rng = np.random.default_rng(2022)
    totals = np.maximum(rng.lognormal(np.log(8000.0), 1.2, size=m), 200.0)
    shares = rng.dirichlet((2.0, 3.0, 1.5, 10.0), size=m)
    pops = np.maximum(np.rint(totals[:, None] * shares), 1).astype(np.int64)
    return SynthSpec(m=m, n_days=n_days, populations=tuple(map(tuple, pops.tolist())),
                     lam=tuple((1.0,) * 4 for _ in range(m)), seed=11, base_rate=3e-4)


GOLDEN_DIGESTS = {
    "rd.csv": "d5cc9208e7d4f5476c74c7dd689729d933f09276d4335f772a7f259500ce93f5",
    "stats.json": "7c6025badd5ac4ca216d4c441b6360bd70327bb0713dbc9cdeac52ae27db28f5",
}

# The same roster ranked under the other bases. Over a window of at most 7
# days a day's trailing mean is the cumulative total divided by the day's
# number, which ranks alike, so the two write the same rd.csv.
BASIS_DIGESTS = {
    "ma7": {
        "rd.csv": "3cd353c080d40d4d7476746a7ec550ce0cbb7f7fbe433178dc053f49c5b83ec4",
        "stats.json": "8cd0e64bfa9ebc687b2eacdae32c69e96722be323a7af9f1fa59669ddd5169ef",
    },
    "cumulative": {
        "rd.csv": "3cd353c080d40d4d7476746a7ec550ce0cbb7f7fbe433178dc053f49c5b83ec4",
        "stats.json": "471e7a8f4b8e393b4e87197777f529dfa3726deeb3052fc7b26c63133fb2d573",
    },
}


def _write_inputs(cube: CaseCube, pops: PopulationTable, out: Path) -> dict[str, Path]:
    """Input files of a hand-built cube and population table, one square per town."""
    paths = {name: out / name for name in ("cases", "populations", "boundaries")}
    out.mkdir()
    write_cases_csv(cube, paths["cases"])
    write_populations_csv(pops, paths["populations"])
    paths["boundaries"].write_text(geojson_text(
        [square_feature(mid, x0=float(i)) for i, mid in enumerate(cube.ids())]), encoding="utf-8")
    return paths


def _run_fixture(spec: SynthSpec | tuple[CaseCube, PopulationTable], tmp_path,
                 basis: str = "raw_daily") -> RunConfig:
    if isinstance(spec, SynthSpec):
        paths = write_fixture(spec, tmp_path / "fx")
    else:
        paths = _write_inputs(*spec, tmp_path / "fx")
    cfg = RunConfig(cases=paths["cases"], populations=paths["populations"],
                    boundaries=paths["boundaries"], out=tmp_path / "out", basis=basis)
    run(cfg)
    return cfg


def test_golden_digests(tmp_path):
    cfg = _run_fixture(_wide_shaped_spec(), tmp_path)
    digests = {name: hashlib.sha256((cfg.out / name).read_bytes()).hexdigest()
               for name in GOLDEN_DIGESTS}
    assert digests == GOLDEN_DIGESTS


@pytest.mark.parametrize("basis", sorted(BASIS_DIGESTS))
def test_golden_digests_under_basis(tmp_path, basis):
    cfg = _run_fixture(_wide_shaped_spec(), tmp_path, basis=basis)
    digests = {name: hashlib.sha256((cfg.out / name).read_bytes()).hexdigest()
               for name in BASIS_DIGESTS[basis]}
    assert digests == BASIS_DIGESTS[basis]


EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _quickstart_digests(tmp_path):
    """The digest of each file that the README Quickstart's ``synth`` and
    ``run`` write, run under ``tmp_path``, and the digests that
    ``examples/fixture.sha256`` and ``examples/out.sha256`` pin for them."""
    examples = tmp_path / "examples"
    write_fixture(SynthSpec.from_file(EXAMPLES / "spec.json"), examples / "fixture")
    (examples / "config.json").write_bytes((EXAMPLES / "config.json").read_bytes())
    run(RunConfig.from_file(examples / "config.json"))
    written = {path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
               for tree in ("fixture", "out") for path in (examples / tree).rglob("*")
               if path.is_file()}
    lines = [line for pins in ("fixture.sha256", "out.sha256")
             for line in (EXAMPLES / pins).read_text(encoding="utf-8").splitlines()]
    return written, {name: digest for digest, name in map(str.split, lines)}


def test_quickstart_tree_digests(tmp_path):
    """The README Quickstart's fixture and run tree hold the files that
    ``examples/fixture.sha256`` and ``examples/out.sha256`` list, with those
    digests; CI checks the same files after the Quickstart's commands."""
    written, pinned = _quickstart_digests(tmp_path)
    assert written == pinned


def _long_series_spec():
    """M=8, N=90 at a low rate, populations rising with the id in every group
    except HL of m003, which is zero (a cross marker). On a day where m001
    has at least as many cases as every other town, the id tie-break ranks it
    first, so rd reaches +(M-1); on the same kind of day m008, the largest,
    ranks last, so rd reaches -(M-1)."""
    m = 8
    pops = [(50 * i, 0 if i == 3 else 80 * i, 30 * i, 400 * i) for i in range(1, m + 1)]
    return SynthSpec(m=m, n_days=90, populations=tuple(pops), lam=((1.0,) * 4,) * m,
                     seed=5, base_rate=2e-3)


def _uniform_spec(m: int, n_days: int) -> SynthSpec:
    pops = tuple((300 + 7 * i, 500 + 11 * i, 200 + 3 * i, 4000 + 13 * i) for i in range(m))
    return SynthSpec(m=m, n_days=n_days, populations=pops, lam=((1.0,) * 4,) * m,
                     seed=3, base_rate=5e-3)


# Each town's (populations, case totals) for BAA, HL, OTH and W, chosen for
# the edges of a pie: what draws a full disc, what a wedge, what nothing.
PIE_EDGE_TOWNS = {
    "full": ((0, 0, 0, 500), (0, 0, 0, 6)),               # one group at 100%: full discs
    "sliver": ((1, 0, 0, 999_999), (1, 0, 0, 399_999)),   # a sweep >= 359.999 disc and a sliver
    "below": ((1, 0, 0, 359_999), (0, 2, 0, 3)),          # a sweep just under 359.999: a wedge
    "large": ((300, 100, 50, 50), (5, 1, 0, 2)),          # wedges over 180 degrees
    "zeros": ((0, 40, 0, 60), (0, 3, 0, 0)),              # zero shares beside non-zero ones
    "no-people": ((0, 0, 0, 0), (1, 0, 2, 3)),            # all-zero populations: an n/a disc
    "nothing": ((0, 0, 0, 0), (0, 0, 0, 0)),              # no people, no cases: two n/a discs
    "no-cases": ((10, 20, 30, 40), (0, 0, 0, 0)),         # a zero case total
}


def _pie_edge_inputs() -> tuple[CaseCube, PopulationTable]:
    """The towns of PIE_EDGE_TOWNS over three days, each group's cases spread
    over the days."""
    ids, n_days = list(PIE_EDGE_TOWNS), 3
    counts = np.zeros((len(ids), n_days, 4), dtype=np.int64)
    for i, (_, cases) in enumerate(PIE_EDGE_TOWNS.values()):
        for k, total in enumerate(cases):
            counts[i, :, k] = total // n_days
            counts[i, 0, k] += total % n_days
    return (make_cube(counts, ids=ids),
            make_pops([pops for pops, _ in PIE_EDGE_TOWNS.values()], ids=ids))


DASHBOARD_SPECS = {
    "wide": _wide_shaped_spec,
    "long-series": _long_series_spec,
    "one-day": lambda: _uniform_spec(5, 1),            # each series is a circle, not a polyline
    "one-municipality": lambda: _uniform_spec(1, 10),  # rd_bound clamps to 1
    "pie-edges": _pie_edge_inputs,
}

DASHBOARD_DIGESTS = {
    "wide": "d2469b091e1fc4480ac1913e4dd8f34e0a458c68974f5c196ed6e03662e8895d",
    "long-series": "bb036de977f9fa8c69b7458028c51c28b19852cc24ffc1d80db14023e277bacb",
    "one-day": "6649ad46039e940bf8a3f59fe009534b3f39f4b3e41120b6279e6061eae7a09a",
    "one-municipality": "a0e4df2e68b0061efda536d4dfb4036929bc2a67b71b48be25779a4fa92abdbd",
    "pie-edges": "e4cc52867aab235c50f42f0b4663d3d3516bc5fcfb46db1c2b2e2388a6d568ca",
}


def _rendered_digest(out) -> str:
    """sha256 over every dashboard (sorted by id), the BAA map and the index page."""
    files = sorted((out / "dashboards").glob("*.svg")) + [out / "map_baa.svg", out / "index.html"]
    digest = hashlib.sha256()
    for path in files:
        digest.update(f"{path.name}\0".encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(DASHBOARD_SPECS))
def test_dashboard_digests(tmp_path, name):
    spec = DASHBOARD_SPECS[name]()
    cfg = _run_fixture(spec, tmp_path)
    if name == "long-series":
        rd = [int(line.rsplit(",", 1)[1])
              for line in (cfg.out / "rd.csv").read_text(encoding="utf-8").splitlines()[1:]]
        assert (min(rd), max(rd)) == (1 - spec.m, spec.m - 1)
    m = spec.m if isinstance(spec, SynthSpec) else spec[0].n_municipalities
    assert len(list((cfg.out / "dashboards").iterdir())) == m
    assert _rendered_digest(cfg.out) == DASHBOARD_DIGESTS[name]


def test_render_dashboard_matches_run_for_every_id(tmp_path, monkeypatch):
    """``render-dashboard`` draws its id as a block of one row, and ``run``
    draws the roster in blocks; every id's file is the same either way, also
    when ``run``'s blocks split the roster unevenly."""
    cfg = _run_fixture(_pie_edge_inputs(), tmp_path)
    expected = {path.name: path.read_bytes() for path in (cfg.out / "dashboards").iterdir()}
    assert len(expected) == len(PIE_EDGE_TOWNS)
    for name in expected:
        path = pipeline.render_dashboard(replace(cfg, out=tmp_path / "one"), name[:-4]).path
        assert path.read_bytes() == expected[name]
    monkeypatch.setattr(pipeline, "DASHBOARD_BLOCK_ROWS", 3)
    run(replace(cfg, out=tmp_path / "blocks"))
    assert {path.name: path.read_bytes()
            for path in (tmp_path / "blocks" / "dashboards").iterdir()} == expected


def test_analysis_of_tables_in_memory_shares_the_cube_roster(tmp_path):
    """``analyze`` takes the tables themselves, with ``RunConfig``'s settings
    by default. Loaded as ``run`` loads them, the cube, the population table
    and the statistics hold one roster, whose id order is sorted when the
    ranking first reads it."""
    cfg = _run_fixture(_uniform_spec(5, 3), tmp_path)
    loaded = pipeline.load_inputs(cfg)
    assert "order" not in vars(loaded.cube.roster)
    analysis = pipeline.analyze(loaded.cube, loaded.pops)
    assert loaded.pops.roster is loaded.cube.roster is analysis.stats.roster
    rows = (cfg.out / "labels.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert rows == [f"{mid},BAA,{analysis.labels[mid].value}" for mid in sorted(analysis.labels)]


def _short_writes(monkeypatch) -> list[bytes]:
    """Make each ``os.write`` take at most 7 bytes; the bytes each took are listed."""
    write, taken = os.write, []

    def short(fd, data):
        taken.append(bytes(data[:7]))
        return write(fd, taken[-1])

    monkeypatch.setattr(os, "write", short)
    return taken


def test_write_text_completes_short_writes(tmp_path, monkeypatch):
    """A write may take fewer bytes than it is given; the file is still whole,
    written a chunk at a time, even where a write cuts a character in two."""
    chunks = ["Sainte-Anne-des-Plaines, ", "", "Québec\n", "Trois-Rivières, Lévis\n" * 2, ""]
    taken = _short_writes(monkeypatch)
    write_text(tmp_path / "out.txt", iter(chunks))
    monkeypatch.undo()
    assert (tmp_path / "out.txt").read_bytes() == "".join(chunks).encode("utf-8")
    assert len(taken) == sum(-(-len(chunk.encode("utf-8")) // 7) for chunk in chunks)
    assert any(part.decode("utf-8", "ignore").encode("utf-8") != part for part in taken)


def test_quickstart_tree_survives_short_writes(tmp_path, monkeypatch):
    """Every file of the Quickstart's fixture and run tree, written 7 bytes a
    write, has the bytes that ``examples/*.sha256`` pin."""
    taken = _short_writes(monkeypatch)
    written, pinned = _quickstart_digests(tmp_path)
    monkeypatch.undo()
    assert written == pinned
    sizes = [(tmp_path / name).stat().st_size for name in written]
    assert sum(map(len, taken)) == sum(sizes)  # every byte went through a short write


def _traced_attributes():
    """``TRACED`` of perfbench/tracer.py: the (layer, attr, metric stem) triples
    whose module attributes a traced benchmark run wraps."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


def test_traced_attributes_are_callables():
    """The tracer wraps ``rankdiff.<layer>.<attr>``; a rename breaks the traced run."""
    traced = _traced_attributes()
    assert ("render", "render_dashboard", "render_dashboard") in traced
    for layer, attr, _ in traced:
        assert callable(getattr(importlib.import_module(f"rankdiff.{layer}"), attr, None)), \
            f"rankdiff.{layer}.{attr}"


def test_run_renders_through_the_traced_attribute(tmp_path, monkeypatch):
    """The traced run counts dashboards as calls of ``render.render_dashboard``,
    so ``run`` makes exactly one such call per municipality."""
    calls = []
    render_dashboard = render.render_dashboard

    def counted(block, row):
        calls.append(block.ids[row])
        return render_dashboard(block, row)

    monkeypatch.setattr(render, "render_dashboard", counted)
    spec = _uniform_spec(5, 3)
    cfg = _run_fixture(spec, tmp_path)
    assert sorted(calls) == sorted(path.stem for path in (cfg.out / "dashboards").iterdir())
    assert len(calls) == spec.m


def test_run_maps_through_the_traced_attributes(tmp_path, monkeypatch):
    """The traced run books the boundary file to ``ingest.load_boundaries`` and
    the map to ``render.build_choropleth`` and ``render.render_choropleth``, so
    ``run`` calls each once, through the module attribute."""
    calls = Counter()

    def counted(module, name):
        function = getattr(module, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        monkeypatch.setattr(module, name, call)

    counted(ingest, "load_boundaries")
    counted(render, "build_choropleth")
    counted(render, "render_choropleth")
    _run_fixture(_uniform_spec(5, 3), tmp_path)
    assert calls == {"load_boundaries": 1, "build_choropleth": 1, "render_choropleth": 1}


def test_run_draws_through_the_traced_attribute_once_per_block(tmp_path, monkeypatch):
    """The traced run books the drawing to ``render.build_dashboard``, so
    ``run`` calls it once for each block of ``DASHBOARD_BLOCK_ROWS`` ids, in
    sorted id order."""
    blocks = []
    build_dashboard = render.build_dashboard

    def counted(stats, cube, pops, ids, rd):
        blocks.append(list(ids))
        return build_dashboard(stats, cube, pops, ids, rd)

    monkeypatch.setattr(render, "build_dashboard", counted)
    monkeypatch.setattr(pipeline, "DASHBOARD_BLOCK_ROWS", 2)
    spec = _uniform_spec(5, 3)
    cfg = _run_fixture(spec, tmp_path)
    assert len(blocks) == math.ceil(spec.m / pipeline.DASHBOARD_BLOCK_ROWS)
    assert sum(blocks, []) == sorted(path.stem for path in (cfg.out / "dashboards").iterdir())
