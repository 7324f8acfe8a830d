"""Mutation property: damaged inputs end in exit 0, 1 or 2, never a traceback.

Each example starts from a valid synthetic fixture (M=3, N=4), applies a few
mutations to the case, population, boundary or config file, and runs
``rankdiff validate`` and ``rankdiff run`` through ``cli.main``. ``validate``
must exit as ``run`` does, with the same message when both reject the input.
A run that completes must write a ``stats.json`` that is strict JSON (no NaN
or Infinity), SVGs that are well-formed XML with no NaN or infinity in an
attribute, and dashboards whose totals are non-negative and whose pie shares
lie in [0, 100].

A second property damages a valid synth spec document and runs ``rankdiff
synth`` on it, which must exit 0 or 2.
"""

import contextlib
import io
import json
import re
import tempfile
from functools import lru_cache
from pathlib import Path
from xml.etree import ElementTree

from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankdiff import cli
from rankdiff.synth import SynthSpec, write_fixture

SPEC = SynthSpec(
    m=3,
    n_days=4,
    populations=((20, 30, 10, 100), (0, 5, 5, 50), (40, 10, 10, 300)),
    lam=((1.0,) * 4,) * 3,
    seed=5,
    base_rate=0.05,
)
INT64_MAX = 2**63 - 1

CELL_VALUES = ("abc", "", " ", "NaN", "inf", "-Infinity", "1e3", "1.5", "-1", "-0",
               "\ufeff3", "0x10", str(INT64_MAX), str(INT64_MAX + 1), "2020-13-01",
               "2020-09-30", "m999", "oth", "MO")
HEADER_NAMES = ("", "Date", "count ", "population", "municipality_id")
APPENDED_ROWS = ("m001,HPI,1", "m001,ASIAN,7", "m999,W,5", "m001,MO,3",
                 "2020-10-01,m001,Synthville 1,Synth County,BAA,1", "x")
GEOMETRY_DAMAGE = ("drop-geometry", "null-geometry", "point", "drop-coordinates",
                   "empty-coordinates", "scalar-coordinates", "text-position", "nan-position",
                   "far-east", "far-west", "short-ring", "unclosed-ring", "drop-id",
                   "foreign-id", "numeric-id", "not-object", "duplicate-feature")
REGIME_VALUES = (None, -5, 0, 2.5, 3, 1e9, float("inf"), float("-inf"), float("nan"), "inf",
                 "abc")
CONFIG = {"cases": "cases.txt", "populations": "populations.txt", "boundaries": "boundaries.txt",
          "out": "out"}
CONFIG_KEYS = (*CONFIG, "cases_schema", "basis", "group", "regime", "classifier", "bassis")
# "cases.txt" as out names a file, and "cases.txt/out" a path under one
CONFIG_VALUES = ("x", "", "\ud800", "cumulative", "cases.txt", "cases.txt/out", True, False, [],
                 ["cases.txt"], None, 0)

csv_mutation = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 99)),
    st.tuples(st.just("drop-column"), st.integers(0, 5)),
    st.tuples(st.just("rename-column"), st.integers(0, 5), st.sampled_from(HEADER_NAMES)),
    st.tuples(st.just("cell"), st.integers(1, 60), st.integers(0, 5), st.sampled_from(CELL_VALUES)),
    st.tuples(st.just("duplicate-row"), st.integers(1, 60)),
    st.tuples(st.just("append"), st.sampled_from(APPENDED_ROWS)),
)
mutation = st.one_of(
    st.tuples(st.sampled_from(("cases", "populations")), csv_mutation),
    st.tuples(st.just("boundaries"), st.one_of(
        st.tuples(st.just("truncate"), st.integers(0, 99)),
        st.tuples(st.just("damage"), st.integers(0, 2), st.sampled_from(GEOMETRY_DAMAGE)),
    )),
    st.tuples(st.just("config"), st.one_of(
        st.tuples(st.sampled_from(("min", "max", "mn")), st.sampled_from(REGIME_VALUES)),
        st.tuples(st.just("set"), st.sampled_from(CONFIG_KEYS), st.sampled_from(CONFIG_VALUES)),
        st.tuples(st.just("nul"), st.sampled_from(tuple(CONFIG))),
    )),
)


@lru_cache(maxsize=1)
def base_files() -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_fixture(SPEC, tmp)
        return {key: path.read_text(encoding="utf-8") for key, path in paths.items()}


def mutate_csv(text: str, op: str, *args) -> str:
    if op == "truncate":
        return text[: len(text) * args[0] // 100]
    if op == "append":
        return text + args[0] + "\n"
    rows = [line.split(",") for line in text.splitlines()]
    if not rows:
        return text
    if op == "drop-column":
        rows = [row[:args[0]] + row[args[0] + 1:] for row in rows]
    elif op == "rename-column":
        rows[0][args[0] % len(rows[0])] = args[1]
    elif op == "cell":
        row = rows[args[0] % len(rows)]
        row[args[1] % len(row)] = args[2]
    elif op == "duplicate-row":
        row = args[0] % len(rows)
        rows.insert(row, list(rows[row]))
    return "".join(",".join(row) + "\n" for row in rows)


def damage_geojson(text: str, op: str, *args) -> str:
    if op == "truncate":
        return text[: len(text) * args[0] // 100]
    index, kind = args
    try:
        doc = json.loads(text)
        features = doc["features"]
        feature = features[index]
        geometry = feature["geometry"]
        ring = geometry["coordinates"][0]
    except (ValueError, LookupError, TypeError):   # damaged by an earlier mutation
        return text
    if not isinstance(ring, list):                  # a Point's coordinates
        return text
    if kind == "drop-geometry":
        del feature["geometry"]
    elif kind == "null-geometry":
        feature["geometry"] = None
    elif kind == "point":
        feature["geometry"] = {"type": "Point", "coordinates": [0.0, 0.0]}
    elif kind == "drop-coordinates":
        del geometry["coordinates"]
    elif kind == "empty-coordinates":
        geometry["coordinates"] = []
    elif kind == "scalar-coordinates":
        geometry["coordinates"] = 5
    elif kind == "text-position":
        ring[1] = ["x", 0.0]
    elif kind == "nan-position":
        ring[1] = [float("nan"), 0.0]
    elif kind in ("far-east", "far-west"):  # two of them span more than a float holds
        ring[1] = [1.7e308 if kind == "far-east" else -1.7e308, 0.0]
    elif kind == "short-ring":
        del ring[2:]
    elif kind == "unclosed-ring":
        ring.pop()
    elif kind == "drop-id":
        feature.pop("id", None)
        feature["properties"] = {}
    elif kind == "foreign-id":
        feature["id"] = "zz"
    elif kind == "numeric-id":
        feature["id"] = 7
    elif kind == "not-object":
        features[index] = "x"
    elif kind == "duplicate-feature":
        features.append(feature)
    return json.dumps(doc)


def _reject_constant(name: str):
    raise ValueError(f"stats.json holds the non-JSON constant {name}")


def _check_attributes(root: ElementTree.Element) -> None:
    """No attribute of an SVG holds a NaN or an infinity. Text content may:
    names and counties are free text."""
    for element in root.iter():
        for value in element.attrib.values():
            assert not re.search(r"\b(?:nan|inf)", value, re.IGNORECASE), value


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(mutation, min_size=1, max_size=3))
@example([("config", ("max", float("inf")))])
@example([("populations", ("cell", 3, 2, str(INT64_MAX))),
          ("populations", ("append", "m001,HPI,1"))])
@example([("populations", ("cell", 4, 2, str(INT64_MAX)))])
@example([("cases", ("cell", 4, 5, str(INT64_MAX))), ("cases", ("cell", 8, 5, str(INT64_MAX)))])
@example([("config", ("min", 3))])  # a null max means M = 3, which does not exceed min
@example([("boundaries", ("damage", i, "foreign-id")) for i in range(3)])  # no roster geometry
@example([("boundaries", ("damage", 0, "far-west")), ("boundaries", ("damage", 2, "far-east"))])
@example([("cases", ("cell", 4, 1, "../../escaped"))])  # an id that would leave dashboards/
# m001, rows 1-16 of cases and 1-4 of populations, renamed to text XML cannot carry
@example([("cases", ("cell", row, 1, "m\x00")) for row in range(1, 17)]
         + [("populations", ("cell", row, 0, "m\x00")) for row in range(1, 5)])
@example([("cases", ("cell", row, 2, "Synth\x01ville 1")) for row in range(1, 17)])
@example([("config", ("nul", key)) for key in CONFIG])
@example([("config", ("set", "bassis", "cumulative")), ("config", ("mn", 3))])
@example([("config", ("set", "out", "cases.txt"))])
@example([("config", ("set", "out", "cases.txt/out"))])
def test_mutated_inputs_end_in_an_exit_code(mutations):
    files = dict(base_files())
    regime, keys = {}, {}
    for target, (op, *args) in mutations:
        if target == "config" and op == "set":
            keys[args[0]] = args[1]
        elif target == "config" and op == "nul":
            keys[args[0]] = CONFIG[args[0]] + "\x00"
        elif target == "config":
            regime[op] = args[0]
        elif target == "boundaries":
            files[target] = damage_geojson(files[target], op, *args)
        else:
            files[target] = mutate_csv(files[target], op, *args)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for key, text in files.items():
            (root / f"{key}.txt").write_text(text, encoding="utf-8")
        config = root / "config.json"
        doc = {**CONFIG, "regime": regime, **keys}
        config.write_text(json.dumps(doc), encoding="utf-8")
        codes, errors = [], []
        for command in ("validate", "run"):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                codes.append(cli.main([command, "--config", str(config)]))
            errors.append(err.getvalue())
        code = codes[1]
        assert code in (0, 1, 2)
        assert codes[0] == code
        if code == 2:
            assert errors[0] == errors[1]
        if code != 2:
            out = root / doc["out"]
            stats = (out / "stats.json").read_text(encoding="utf-8")
            json.loads(stats, parse_constant=_reject_constant)
            for svg in out.glob("map_*.svg"):
                _check_attributes(ElementTree.fromstring(svg.read_text(encoding="utf-8")))
            for svg in (out / "dashboards").glob("*.svg"):
                text = svg.read_text(encoding="utf-8")
                _check_attributes(ElementTree.fromstring(text))
                totals = re.findall(r">total (?:population|cases) (-?[\d,]+)<", text)
                assert len(totals) == 2 and all(int(t.replace(",", "")) >= 0 for t in totals)
                shares = re.findall(r">(-?\d+\.\d\d)%<", text)
                assert all(0.0 <= float(v) <= 100.0 for v in shares)


SPEC_DOC = {"m": 2, "n_days": 3, "seed": 1, "base_rate": 0.05, "start_date": "2020-10-01",
            "populations": [[20, 30, 10, 100], [0, 5, 5, 50]],
            "lam": [[1, 1, 1, 1], [2, 1, 1, 1]], "ids": ["a", "b"]}
SPEC_VALUES = (None, True, 0, -1, 2, 5, 2**63, 10**22, 1.5, 1e25, float("nan"), float("inf"),
               "inf", "x", "", "\ud800", "9999-12-31", [], [1, 2, 3, 4], [[1, 2, 3, 4]],
               ["a", "a"], ["\ud800", "b"], [None, "b"], {})

spec_mutation = st.one_of(
    st.tuples(st.just("set"), st.sampled_from((*SPEC_DOC, "sead")), st.sampled_from(SPEC_VALUES)),
    st.tuples(st.just("drop"), st.sampled_from(tuple(SPEC_DOC))),
    st.tuples(st.just("cell"), st.sampled_from(("populations", "lam")), st.integers(0, 1),
              st.integers(0, 3), st.sampled_from(SPEC_VALUES)),
    st.tuples(st.just("truncate"), st.integers(0, 99)),
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(spec_mutation, min_size=1, max_size=3))
@example([("set", "lam", 1e25)])
@example([("cell", "populations", 0, 0, 10**22)])
@example([("set", "start_date", "9999-12-31")])
@example([("set", "seed", -1)])
def test_mutated_spec_ends_in_exit_0_or_2(mutations):
    doc, cut = json.loads(json.dumps(SPEC_DOC)), 100
    for op, *args in mutations:
        if op == "set":
            doc[args[0]] = args[1]
        elif op == "drop":
            doc.pop(args[0], None)
        elif op == "cell":
            with contextlib.suppress(LookupError, TypeError):  # damaged by an earlier mutation
                doc[args[0]][args[1]][args[2]] = args[3]
        else:
            cut = min(cut, args[0])
    text = json.dumps(doc)
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "spec.json"
        spec.write_text(text[: len(text) * cut // 100], encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["synth", str(spec), "--out", str(Path(tmp) / "fx")])
        assert code in (0, 2)
        if code == 2:
            assert err.getvalue().startswith("rankdiff: ") and err.getvalue().count("\n") == 1
        else:
            assert sorted(p.name for p in (Path(tmp) / "fx").iterdir()) == [
                "boundaries.geojson", "cases.csv", "populations.csv"]
