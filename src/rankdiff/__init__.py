"""Rank-difference disparity analytics for municipality-level daily case counts.

The engine ingests daily case counts disaggregated by population group,
ranks municipalities by group population size and by case activity, and
summarizes each municipality's rank-difference history with persistence,
skewness, and relative-change statistics. Results feed a four-group
classification, static SVG dashboards, and a state choropleth.
"""

from .classify import ClassifierConfig, ClassLabel, classify_municipalities, classify_one
from .ingest import load_boundaries, load_cases, load_populations
from .metrics import (
    GroupStats,
    RegimeConfig,
    Special,
    moving_average_7d,
    persistence_index,
    rank_cases,
    rank_diff,
    rank_population,
    relative_change,
    skewness,
    special_case,
    statewide_aggregate,
)
from .model import (
    GROUPS,
    CaseCube,
    DateAxis,
    Group,
    Municipality,
    PopulationTable,
    QualityReport,
)
from .oracle import oracle_stats
from .pipeline import RunConfig, run, validate
from .synth import SynthSpec, generate

__version__ = "0.1.0"

__all__ = [
    "CaseCube",
    "ClassLabel",
    "ClassifierConfig",
    "DateAxis",
    "GROUPS",
    "Group",
    "GroupStats",
    "Municipality",
    "PopulationTable",
    "QualityReport",
    "RegimeConfig",
    "RunConfig",
    "Special",
    "SynthSpec",
    "classify_municipalities",
    "classify_one",
    "generate",
    "load_boundaries",
    "load_cases",
    "load_populations",
    "moving_average_7d",
    "oracle_stats",
    "persistence_index",
    "rank_cases",
    "rank_diff",
    "rank_population",
    "relative_change",
    "run",
    "skewness",
    "special_case",
    "statewide_aggregate",
    "validate",
    "__version__",
]
