"""Dice overlap evaluation of automatic vs reference label volumes.

Per-label DSC is ``2 |A ∩ B| / (|A| + |B|)``.  A label absent from both
volumes has no defined score and is excluded from the mean and median
rather than scored 1.0, so small fixtures cannot inflate the summary.
Background (label 0) never contributes to the summary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import LabelVolume
from .io import write_atomic

__all__ = ["EvaluateError", "DiceReport", "dice", "report"]

# voxels counted per step of report()
_CHUNK = 1 << 16


class EvaluateError(ValueError):
    """Volumes are not comparable."""


@dataclass(frozen=True)
class DiceReport:
    """Per-label DSC plus summary statistics over the defined labels."""

    per_label: dict  # label -> float, or None when undefined
    mean_dsc: float
    median_dsc: float
    labels_evaluated: int

    def defined(self) -> dict:
        return {k: v for k, v in self.per_label.items() if v is not None}

    def to_text(self) -> str:
        lines = ["label\tdsc"]
        for label in sorted(self.per_label):
            value = self.per_label[label]
            lines.append(f"{label}\t{'undefined' if value is None else f'{value:.6f}'}")
        lines.append(f"# labels_evaluated\t{self.labels_evaluated}")
        lines.append(f"# mean_dsc\t{self.mean_dsc:.6f}")
        lines.append(f"# median_dsc\t{self.median_dsc:.6f}")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {
            "per_label": {str(k): v for k, v in self.per_label.items()},
            "mean_dsc": self.mean_dsc,
            "median_dsc": self.median_dsc,
            "labels_evaluated": self.labels_evaluated,
        }

    def save(self, directory) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        write_atomic(directory / "dice_per_label.tsv", (self.to_text().encode(),))
        summary = json.dumps(self.to_dict(), indent=1)
        write_atomic(directory / "dice_summary.json", (summary.encode(),))


def dice(auto: LabelVolume, manual: LabelVolume, label: int) -> float | None:
    """DSC for one label; None when neither volume contains it."""
    if auto.dims != manual.dims:
        raise EvaluateError(f"dims differ: {auto.dims} vs {manual.dims}")
    a = auto.data == label
    b = manual.data == label
    denom = int(a.sum()) + int(b.sum())
    if denom == 0:
        return None
    return 2.0 * int((a & b).sum()) / denom


def report(auto: LabelVolume, manual: LabelVolume) -> DiceReport:
    """Per-label DSC over labels 1..L-1 with mean/median of defined scores."""
    if auto.dims != manual.dims:
        raise EvaluateError(f"dims differ: {auto.dims} vs {manual.dims}")
    if auto.num_labels != manual.num_labels:
        raise EvaluateError(
            f"label counts differ: {auto.num_labels} vs {manual.num_labels}"
        )
    L = auto.num_labels
    # one pass over the volumes instead of 2L full scans, flat views in
    # their x-fastest order, counted a chunk at a time, so bincount's int64
    # widening is chunk-sized, not volume-sized
    a = auto.data.ravel("F")
    b = manual.data.ravel("F")
    count_a, count_b, count_both = np.zeros((3, L), dtype=np.int64)
    for start in range(0, a.size, _CHUNK):
        part_a, part_b = a[start : start + _CHUNK], b[start : start + _CHUNK]
        count_a += np.bincount(part_a, minlength=L)
        count_b += np.bincount(part_b, minlength=L)
        count_both += np.bincount(part_a[part_a == part_b], minlength=L)

    per_label: dict = {}
    scores = []
    for label in range(1, L):
        denom = int(count_a[label]) + int(count_b[label])
        if denom == 0:
            per_label[label] = None
            continue
        value = 2.0 * int(count_both[label]) / denom
        per_label[label] = value
        scores.append(value)
    if scores:
        mean = float(np.mean(scores))
        median = float(np.median(scores))
    else:
        mean = median = float("nan")
    return DiceReport(per_label, mean, median, len(scores))
