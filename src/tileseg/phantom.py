"""Deterministic synthetic label/intensity phantoms for tests and the benchmark."""

from __future__ import annotations

import math

import numpy as np

from .geometry import IntensityVolume, LabelVolume, VolumeGeometry, _labels

__all__ = ["make_blob_phantom", "intensity_from_labels"]


def make_blob_phantom(
    geometry: VolumeGeometry, num_labels: int = 6, seed: int = 0
) -> LabelVolume:
    """Label volume with ``num_labels - 1`` ellipsoidal blobs on background 0.

    Blob centers sit on a jittered lattice so every label is present and
    blobs stay inside the grid. Deterministic in (geometry, num_labels, seed).
    """
    if num_labels < 2:
        raise ValueError("need at least one foreground label")
    rng = np.random.default_rng(seed)
    dims = np.array(geometry.dims, dtype=np.float64)
    n_blobs = num_labels - 1
    per_axis = max(1, math.ceil(n_blobs ** (1.0 / 3.0)))

    cells = []
    for cz in range(per_axis):
        for cy in range(per_axis):
            for cx in range(per_axis):
                cells.append((cx, cy, cz))
    cell_size = dims / per_axis

    x = np.arange(geometry.dims[0])[:, None, None]
    y = np.arange(geometry.dims[1])[None, :, None]
    z = np.arange(geometry.dims[2])[None, None, :]
    out = _labels(geometry.dims, 0, num_labels)
    for label, cell in zip(range(1, num_labels), cells):
        center = (np.array(cell) + 0.5) * cell_size
        center += rng.uniform(-0.08, 0.08, size=3) * cell_size
        radii = rng.uniform(0.28, 0.42, size=3) * cell_size
        d2 = (
            ((x - center[0]) / radii[0]) ** 2
            + ((y - center[1]) / radii[1]) ** 2
            + ((z - center[2]) / radii[2]) ** 2
        )
        out[d2 <= 1.0] = label
    vol = LabelVolume._adopt(geometry, out, num_labels)
    present = set(np.unique(vol.data).tolist())
    missing = [l for l in range(1, num_labels) if l not in present]
    if missing:
        raise ValueError(f"phantom too small for labels {missing}; use a larger grid")
    return vol


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
