"""Rank-difference disparity analytics for municipality-level daily case counts.

The engine ingests daily case counts disaggregated by population group,
ranks municipalities by group population size and by case activity, and
summarizes each municipality's rank-difference history with persistence,
skewness, and relative-change statistics. Results feed a four-group
classification, static SVG dashboards, and a state choropleth.

Each name below loads its submodule on first use (PEP 562). Importing the
package therefore loads no NumPy, which lets the CLI pin NumPy's BLAS
threads before NumPy loads.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "classify": ("ClassifierConfig", "ClassLabel", "classify_municipalities", "classify_one"),
    "ingest": ("load_boundaries", "load_cases", "load_populations"),
    "metrics": ("GroupStats", "GroupStatsTable", "RegimeConfig", "Special",
                "moving_average_7d", "persistence_index", "rank_cases", "rank_diff",
                "rank_population", "relative_change", "skewness", "special_case",
                "statewide_aggregate"),
    "model": ("GROUPS", "Boundaries", "CaseCube", "DateAxis", "Group", "Municipality",
              "PopulationTable", "QualityReport", "Roster"),
    "oracle": ("oracle_stats",),
    "pipeline": ("RunConfig", "run", "validate"),
    "synth": ("SynthSpec", "generate"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str) -> object:
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_HOME[name]}", __name__), name)
