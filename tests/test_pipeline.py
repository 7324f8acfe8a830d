import hashlib
import json

import numpy as np
import pytest

from rankdiff.classify import ClassifierConfig
from rankdiff.errors import ConfigError
from rankdiff.metrics import RegimeConfig
from rankdiff.model import Group
from rankdiff.pipeline import RunConfig, parse_basis, parse_group, run
from rankdiff.synth import SynthSpec, write_fixture


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
        basis="cumulative", regime_min=2.0, group="w", out=str(tmp_path / "elsewhere")
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
])
def test_malformed_config_rejected(tmp_path, doc, match):
    if isinstance(doc, dict):
        doc = {"cases": "c.csv", "populations": "p.csv", "boundaries": "b.geojson", **doc}
    config = tmp_path / "config.json"
    config.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
    with pytest.raises(ConfigError, match=match):
        RunConfig.from_file(config)


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
    with pytest.raises(ConfigError, match="basis"):
        parse_basis("weekly")


def test_parse_group():
    assert parse_group("baa") is Group.BAA
    assert parse_group("W") is Group.W
    with pytest.raises(ConfigError, match="group"):
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


def _run_fixture(spec: SynthSpec, tmp_path) -> RunConfig:
    paths = write_fixture(spec, tmp_path / "fx")
    cfg = RunConfig(cases=paths["cases"], populations=paths["populations"],
                    boundaries=paths["boundaries"], out=tmp_path / "out")
    run(cfg)
    return cfg


def test_golden_digests(tmp_path):
    cfg = _run_fixture(_wide_shaped_spec(), tmp_path)
    digests = {name: hashlib.sha256((cfg.out / name).read_bytes()).hexdigest()
               for name in GOLDEN_DIGESTS}
    assert digests == GOLDEN_DIGESTS


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


DASHBOARD_SPECS = {
    "wide": _wide_shaped_spec,
    "long-series": _long_series_spec,
    "one-day": lambda: _uniform_spec(5, 1),            # each series is a circle, not a polyline
    "one-municipality": lambda: _uniform_spec(1, 10),  # rd_bound clamps to 1
}

DASHBOARD_DIGESTS = {
    "wide": "d2469b091e1fc4480ac1913e4dd8f34e0a458c68974f5c196ed6e03662e8895d",
    "long-series": "bb036de977f9fa8c69b7458028c51c28b19852cc24ffc1d80db14023e277bacb",
    "one-day": "6649ad46039e940bf8a3f59fe009534b3f39f4b3e41120b6279e6061eae7a09a",
    "one-municipality": "a0e4df2e68b0061efda536d4dfb4036929bc2a67b71b48be25779a4fa92abdbd",
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
    assert len(list((cfg.out / "dashboards").iterdir())) == spec.m
    assert _rendered_digest(cfg.out) == DASHBOARD_DIGESTS[name]
