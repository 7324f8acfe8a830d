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


def test_golden_digests(tmp_path):
    paths = write_fixture(_wide_shaped_spec(), tmp_path / "fx")
    cfg = RunConfig(cases=paths["cases"], populations=paths["populations"],
                    boundaries=paths["boundaries"], out=tmp_path / "out")
    run(cfg)
    digests = {name: hashlib.sha256((cfg.out / name).read_bytes()).hexdigest()
               for name in GOLDEN_DIGESTS}
    assert digests == GOLDEN_DIGESTS
