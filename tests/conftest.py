import tracemalloc

import hypothesis
import numpy as np

from tileseg.geometry import IntensityVolume, LabelVolume, make_centered_geometry
from tileseg.segmenter import SegmenterBackend

hypothesis.settings.register_profile("suite", max_examples=50, deadline=None)
hypothesis.settings.load_profile("suite")


def apply_affine(transform, points):
    """Map an (N, 3) array of points through an AffineTransform."""
    return np.asarray(points, dtype=np.float64) @ transform.linear.T + transform.offset


def random_intensity(dims, seed=0, lo=0.0, hi=100.0, spacing=(1.0, 1.0, 1.0)):
    geometry = make_centered_geometry(dims, spacing)
    rng = np.random.default_rng(seed)
    return IntensityVolume(geometry, rng.uniform(lo, hi, size=geometry.dims))


def random_labels(dims, num_labels, seed=0, spacing=(1.0, 1.0, 1.0)):
    geometry = make_centered_geometry(dims, spacing)
    rng = np.random.default_rng(seed)
    data = rng.integers(0, num_labels, size=geometry.dims, dtype=np.uint16)
    return LabelVolume(geometry, data, num_labels)


def float32_nifti(path, dims, value):
    """Write a float32 NIfTI whose every voxel holds ``value``, NaN included."""
    from tileseg.io import write_nifti

    write_nifti(IntensityVolume(make_centered_geometry(dims), np.zeros(dims)), path)
    raw = path.read_bytes()
    n = int(np.prod(dims))
    path.write_bytes(raw[: len(raw) - 4 * n] + np.full(n, value, "<f4").tobytes())


# values a uint16 label copy would change, and the reason each is refused
NOT_LABELS = [(70000, "above 65535"), (2.7, "not a whole number"), (float("nan"), "not a whole number")]


class NearestLevel(SegmenterBackend):
    """A backend that reads its input: each voxel gets the label of the nearest level.

    ``levels[l]`` is label ``l``'s intensity in the units the tiles arrive
    in; ``fitted`` takes them as each label's mean over an atlas-space scan.
    """

    def __init__(self, levels):
        self.levels = np.asarray(levels, dtype=np.float64)
        self.num_labels = self.levels.size

    @classmethod
    def fitted(cls, scan, labels):
        flat = labels.data.ravel("F")
        sums = np.bincount(flat, weights=scan.data.ravel("F"), minlength=labels.num_labels)
        return cls(sums / np.bincount(flat, minlength=labels.num_labels))

    def segment(self, tile_input, tile):
        nearest = np.abs(tile_input.data[..., None] - self.levels).argmin(axis=-1)
        return LabelVolume(tile_input.geometry, nearest, self.num_labels)


def peak_alloc(fn):
    """``(tracemalloc peak in bytes, result)`` of calling ``fn()``."""
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()
