"""Deterministic synthetic intensity phantoms for tests and the benchmark."""

from __future__ import annotations

import numpy as np

from .geometry import IntensityVolume, LabelVolume

__all__ = ["intensity_from_labels"]


def intensity_from_labels(
    labels: LabelVolume, seed: int = 0, noise: float = 0.0
) -> IntensityVolume:
    """Intensity image with one distinct mean intensity per label.

    x-fastest, like every volume (see ``geometry``).  The noise is drawn
    over the reversed dims and transposed, so numpy's draw order is
    already x-fastest and the noise is added without a copy.
    """
    rng = np.random.default_rng(seed)
    levels = rng.permutation(np.linspace(20.0, 220.0, labels.num_labels))
    data = levels.take(labels.data.ravel("F")).reshape(labels.dims, order="F")
    if noise > 0.0:
        data += rng.normal(0.0, noise, size=labels.dims[::-1]).T
    return IntensityVolume._adopt(labels.geometry, data)
