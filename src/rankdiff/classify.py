"""Partition municipalities into four groups in (skewness, persistence) space.

The groups describe qualitatively different rank-difference histories:

* G0: near-symmetric rank-difference distribution, any persistence
* G1: strongly positive skew with high persistence
* G2: moderate skew with moderate-to-low persistence
* G3: everything else (residual pattern)

Municipalities whose skewness is undefined (constant series) are left
unclassified. Thresholds are configurable; the defaults approximate the
verbal group descriptions and can be tuned per dataset.

``classify_one`` states the rules for one ``GroupStats`` cell.
``classify_municipalities`` applies the same rules, in the same order, to
one group column of a ``GroupStatsTable`` at once.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import ClassifyError, write_text
from .metrics import GroupStats, GroupStatsTable
from .model import GROUP_INDEX, Group, Roster


class ClassLabel(str, Enum):
    G0 = "G0"
    G1 = "G1"
    G2 = "G2"
    G3 = "G3"
    UNCLASSIFIED = "unclassified"


@dataclass(frozen=True)
class ClassifierConfig:
    g0_skew_max: float = 1.0
    g1_per_min: float = 90.0
    g1_skew_min: float = 1.0
    g1_skew_max: float = 5.0
    g2_skew_min: float = 2.0
    g2_skew_max: float = 4.0
    g2_per_max: float = 90.0

    def __post_init__(self) -> None:
        for name, value in vars(self).items():  # every comparison with NaN is false
            if math.isnan(value):
                raise ClassifyError(f"{name} is NaN; use a number, or inf or -inf for no bound")
        for lo, hi, name in (
            (self.g1_skew_min, self.g1_skew_max, "g1_skew"),
            (self.g2_skew_min, self.g2_skew_max, "g2_skew"),
        ):
            if not lo < hi:
                raise ClassifyError(f"{name}_min must be < {name}_max, got ({lo}, {hi})")


def classify_one(stats: GroupStats, cfg: ClassifierConfig = ClassifierConfig()) -> ClassLabel:
    """Assign exactly one label; rules are checked in order, first match wins."""
    skew = stats.skewness
    per = stats.persistence_pct
    if skew is None:
        return ClassLabel.UNCLASSIFIED
    if abs(skew) < cfg.g0_skew_max:
        return ClassLabel.G0
    if cfg.g1_skew_min <= skew <= cfg.g1_skew_max and per >= cfg.g1_per_min:
        return ClassLabel.G1
    if cfg.g2_skew_min <= skew <= cfg.g2_skew_max and per < cfg.g2_per_max:
        return ClassLabel.G2
    return ClassLabel.G3


# The label of each of classify_one's rules, in rule order, then the fall-through.
_RULE_LABELS = (ClassLabel.UNCLASSIFIED, ClassLabel.G0, ClassLabel.G1, ClassLabel.G2,
                ClassLabel.G3)


def classify_municipalities(
    stats: GroupStatsTable,
    group: Group,
    cfg: ClassifierConfig = ClassifierConfig(),
) -> dict[str, ClassLabel]:
    """Label every municipality for one population group, in the table's row
    order: ``classify_one``'s rules as comparisons over the group's column,
    the first that holds giving the label."""
    k = GROUP_INDEX[group]
    skew, per = stats.skewness[:, k], stats.persistence[:, k]
    with np.errstate(invalid="ignore"):  # NaN is caught by the first rule
        rules = [np.isnan(skew),
                 np.abs(skew) < cfg.g0_skew_max,
                 (cfg.g1_skew_min <= skew) & (skew <= cfg.g1_skew_max) & (per >= cfg.g1_per_min),
                 (cfg.g2_skew_min <= skew) & (skew <= cfg.g2_skew_max) & (per < cfg.g2_per_max)]
    codes = np.select(rules, range(len(rules)), len(rules))
    return dict(zip(stats.roster.ids, map(_RULE_LABELS.__getitem__, codes.tolist())))


def write_labels_csv(path: str | Path, roster: Roster, labels: dict[str, ClassLabel],
                     group: Group) -> None:
    """One row per municipality of ``roster``, in ascending id order."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(["municipality_id", "group", "label"])
    writer.writerows([mid, group.value, labels[mid].value] for mid in roster.sorted_ids)
    write_text(path, [text.getvalue()])
