"""Seeded synthetic datasets with planted disparity structure.

Daily counts are drawn as Poisson with mean lam(i, k) * population(i, k) *
base_rate, independently per day. The seed fixes the full output, so a spec
is a complete, reproducible description of a fixture.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .errors import (SynthError, array, integer, load_json, number, read_fields, text,
                     write_text, writing)
from .ingest import write_cases_csv, write_populations_csv
from .model import INT64_MAX, K, CaseCube, DateAxis, Municipality, PopulationTable

__all__ = ["SynthSpec", "generate", "grid_boundaries", "write_fixture"]

POISSON_MAX = INT64_MAX - math.sqrt(INT64_MAX) * 10  # NumPy's bound on a Poisson mean


@dataclass(frozen=True)
class SynthSpec:
    m: int
    n_days: int
    populations: tuple[tuple[int, ...], ...]   # (M, K)
    lam: tuple[tuple[float, ...], ...]         # (M, K) incidence multipliers
    seed: int = 0
    base_rate: float = 0.01
    start_date: dt.date = dt.date(2020, 10, 1)
    ids: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.m < 1 or self.n_days < 1 or self.seed < 0:
            raise SynthError(f"m and n_days must be positive and seed >= 0, "
                             f"got m={self.m}, n_days={self.n_days}, seed={self.seed}")
        if self.n_days > (dt.date.max - self.start_date).days + 1:
            raise SynthError(f"n_days {self.n_days} from start_date {self.start_date} runs past "
                             f"{dt.date.max}")
        for name, matrix in (("populations", self.populations), ("lam", self.lam)):
            if len(matrix) != self.m or any(len(row) != K for row in matrix):
                raise SynthError(f"{name} must be an {self.m}x{K} matrix")
        lam = np.array(self.lam, dtype=np.float64)
        if not (np.all((lam >= 0) & (lam < math.inf)) and 0 <= self.base_rate < math.inf):
            raise SynthError("lam entries and base_rate must be finite and >= 0")
        if any(min(row) < 0 or sum(row) > INT64_MAX for row in self.populations):
            raise SynthError("populations must be >= 0, each row summing to at most 2**63 - 1")
        if (lam * np.array(self.populations, dtype=np.int64) * self.base_rate).max() > POISSON_MAX:
            raise SynthError(f"lam * population * base_rate must be at most {POISSON_MAX:.6g}, "
                             "the largest mean NumPy draws a Poisson count from")
        if self.ids and len(self.ids) != self.m:
            raise SynthError(f"ids must list exactly {self.m} municipalities")

    @classmethod
    def from_dict(cls, doc: object, where: str = "invalid synth spec") -> "SynthSpec":
        spec = read_fields(doc, {
            "m": integer, "n_days": integer, "populations": array(array(integer)), "seed": integer,
            "lam": lambda value: (array(array(number)) if isinstance(value, list)
                                  else number)(value),
            "base_rate": number, "ids": array(text),
            "start_date": lambda value: dt.date.fromisoformat(text(value)),
        }, SynthError, where, required=("m", "n_days", "populations"))
        lam = spec.pop("lam", 1.0)  # one number for every cell, or an M x K array
        if isinstance(lam, float):
            lam = ((lam,) * K,) * len(spec["populations"])
        try:
            return cls(**spec, lam=lam)
        except SynthError as exc:
            raise SynthError(f"{where}: {exc}") from None

    @classmethod
    def from_file(cls, path: str | Path) -> "SynthSpec":
        return cls.from_dict(load_json(path, SynthError), str(path))

    def municipality_ids(self) -> tuple[str, ...]:
        if self.ids:
            return self.ids
        return tuple(f"m{i + 1:03d}" for i in range(self.m))


def generate(spec: SynthSpec) -> tuple[CaseCube, PopulationTable]:
    """Draw a (CaseCube, PopulationTable) pair; same spec, same output."""
    rng = np.random.default_rng(spec.seed)
    pops = np.array(spec.populations, dtype=np.int64)
    lam = np.array(spec.lam, dtype=np.float64)
    means = lam * pops * spec.base_rate
    counts = rng.poisson(means[:, None, :], size=(spec.m, spec.n_days, K)).astype(np.int64)

    municipalities = tuple(
        Municipality(id=mid, name=f"Synthville {i + 1}", county="Synth County")
        for i, mid in enumerate(spec.municipality_ids())
    )
    axis = DateAxis(start=spec.start_date, n_days=spec.n_days)
    cube = CaseCube(axis=axis, municipalities=municipalities, counts=counts)
    table = PopulationTable(roster=cube.roster, pops=pops)
    return cube, table


def grid_boundaries(spec: SynthSpec) -> dict:
    """Unit-square polygons on a grid, one feature per municipality.

    Lets a synthetic fixture drive the full pipeline, choropleth included.
    """
    side = math.ceil(math.sqrt(spec.m))
    features = []
    for i, mid in enumerate(spec.municipality_ids()):
        col, row = i % side, i // side
        x0, y0 = float(col), float(row)
        ring = [[x0, y0], [x0 + 1.0, y0], [x0 + 1.0, y0 + 1.0], [x0, y0 + 1.0], [x0, y0]]
        features.append(
            {
                "type": "Feature",
                "id": mid,
                "properties": {"municipality_id": mid},
                "geometry": {"type": "Polygon", "coordinates": [ring]},
            }
        )
    return {"type": "FeatureCollection", "features": features}


# boundaries.geojson is pinned to the bytes of json.dump(doc, indent=2,
# sort_keys=True) plus a newline. That encoder runs in pure Python whenever
# ``indent`` is set, so each feature of grid_boundaries, whose keys are fixed,
# is filled into this template instead: strings through the same ASCII
# escaper, floats through float.__repr__ as json does. Keys appear in sorted
# order.
_FEATURE = """\
    {
      "geometry": {
        "coordinates": [
%s
        ],
        "type": %s
      },
      "id": %s,
      "properties": {
        "municipality_id": %s
      },
      "type": %s
    }"""
_RING = "          [\n%s\n          ]"
_POSITION = "            [\n              %s,\n              %s\n            ]"


def _boundaries_text(doc: dict):
    """The text of ``doc``, a feature at a time."""
    yield '{\n  "features": ['
    separator = "\n"
    for feature in doc["features"]:
        geometry = feature["geometry"]
        rings = ",\n".join(
            _RING % ",\n".join(_POSITION % (float.__repr__(x), float.__repr__(y))
                               for x, y in ring)
            for ring in geometry["coordinates"]
        )
        yield separator + _FEATURE % (
            rings, encode_basestring_ascii(geometry["type"]),
            encode_basestring_ascii(feature["id"]),
            encode_basestring_ascii(feature["properties"]["municipality_id"]),
            encode_basestring_ascii(feature["type"]),
        )
        separator = ",\n"
    yield '\n  ],\n  "type": %s\n}\n' % encode_basestring_ascii(doc["type"])


def write_fixture(spec: SynthSpec, out_dir: str | Path) -> dict[str, Path]:
    """Write cases.csv, populations.csv, and boundaries.geojson for a spec."""
    out = Path(out_dir)
    cube, table = generate(spec)
    paths = {
        "cases": out / "cases.csv",
        "populations": out / "populations.csv",
        "boundaries": out / "boundaries.geojson",
    }
    with writing(out, SynthError):
        out.mkdir(parents=True, exist_ok=True)
        write_cases_csv(cube, paths["cases"])
        write_populations_csv(table, paths["populations"])
        write_text(paths["boundaries"], _boundaries_text(grid_boundaries(spec)))
    return paths
