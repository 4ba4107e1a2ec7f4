import tracemalloc

import hypothesis
import numpy as np

from tileseg.geometry import IntensityVolume, LabelVolume, make_centered_geometry
from tileseg.segmenter import ConstantOracle, SegmenterBackend, segment_all

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
    With ``bias``, each tile errs on its own, as one sub-space network
    would: its levels are shifted by a normal draw of that std, seeded by
    the tile's index.
    """

    def __init__(self, levels, bias=0.0):
        self.levels = np.asarray(levels, dtype=np.float64)
        self.num_labels = self.levels.size
        self.bias = bias

    @classmethod
    def fitted(cls, scan, labels, bias=0.0):
        flat = labels.data.ravel("F")
        sums = np.bincount(flat, weights=scan.data.ravel("F"), minlength=labels.num_labels)
        return cls(sums / np.bincount(flat, minlength=labels.num_labels), bias)

    def segment(self, tile_input, tile):
        levels = self.levels + np.random.default_rng(tile.index).normal(0.0, self.bias)
        nearest = np.abs(tile_input.data[..., None] - levels).argmin(axis=-1)
        return LabelVolume(tile_input.geometry, nearest, self.num_labels)


class CorruptingWrapper(SegmenterBackend):
    """Wraps a backend and answers one target tile with a constant label.

    Reproduces the failure mode where a single sub-space model goes wrong,
    for studying how much of the damage fusion undoes.  The target tile is
    ``ConstantOracle(corruption_label, inner.num_labels)``'s answer, so a
    label outside ``[0, inner.num_labels)`` fails here, at construction.
    """

    def __init__(self, inner: SegmenterBackend, target_index: int, corruption_label: int):
        self.inner = inner
        self.target_index = int(target_index)
        self.corruption_label = int(corruption_label)
        self.num_labels = inner.num_labels
        self._corrupt = ConstantOracle(self.corruption_label, self.num_labels)

    def segment(self, tile_input, tile):
        backend = self._corrupt if tile.index == self.target_index else self.inner
        return backend.segment(tile_input, tile)

    def descriptor(self):
        return (
            f"corrupt:{self.target_index}:{self.corruption_label}"
            f":{self.inner.descriptor()}"
        )


def segment_answers(backend, atlas_vol, grid, **kwargs) -> list:
    """``segment_all``'s answers, collected through its ``on_tile`` sink, in grid order."""
    answers = {}

    def keep(tile, answer):
        assert tile.index not in answers, f"tile {tile.index} handed on twice"
        answers[tile.index] = answer

    segment_all(backend, atlas_vol, grid, keep, **kwargs)
    return [answers[tile.index] for tile in grid.tiles]


def peak_alloc(fn):
    """``(tracemalloc peak in bytes, result)`` of calling ``fn()``."""
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()
