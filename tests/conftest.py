import functools
import importlib.util
import math
import os
import sys
import tracemalloc
from pathlib import Path

import hypothesis
import numpy as np
import pytest

import tileseg
from tileseg.geometry import IntensityVolume, LabelVolume, _labels, make_centered_geometry
from tileseg.harmonize import RegressionFit, _mapped, _moments
from tileseg.segmenter import ConstantOracle, SegmenterBackend, segment_all

hypothesis.settings.register_profile("suite", max_examples=50, deadline=None)
hypothesis.settings.load_profile("suite")

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(autouse=True, scope="session")
def _children_import_this_package():
    """Python processes the tests start (external backends, the CLI) import tileseg from here."""
    src = str(Path(tileseg.__file__).resolve().parents[1])
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        yield


@functools.cache
def bench_module(name):
    """``bench/<name>.py``, imported read-only: the benchmark's fixtures and scan set-up."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def apply_affine(transform, points):
    """Map an (N, 3) array of points through an AffineTransform."""
    return np.asarray(points, dtype=np.float64) @ transform.linear.T + transform.offset


def z_scored(vol):
    """Harmonize's z-scored voxels of ``vol``: its moments, mapped by the identity fit.

    ``_mapped`` may write over the array it maps, so it maps a copy: ``vol`` is unchanged.
    """
    return _mapped(vol.data.copy(order="F"), *_moments(vol.data), RegressionFit(1.0, 0.0, 0.0))


def copied(vol):
    """A copy of ``vol`` in its own element type, for ``harmonize``, which consumes its input."""
    return IntensityVolume._adopt(vol.geometry, vol.data.copy(order="F"))


def random_intensity(dims, seed=0, lo=0.0, hi=100.0, spacing=(1.0, 1.0, 1.0)):
    geometry = make_centered_geometry(dims, spacing)
    rng = np.random.default_rng(seed)
    return IntensityVolume(geometry, rng.uniform(lo, hi, size=geometry.dims))


def random_labels(dims, num_labels, seed=0, spacing=(1.0, 1.0, 1.0)):
    geometry = make_centered_geometry(dims, spacing)
    rng = np.random.default_rng(seed)
    data = rng.integers(0, num_labels, size=geometry.dims, dtype=np.uint16)
    return LabelVolume(geometry, data, num_labels)


def make_blob_phantom(geometry, num_labels=6, seed=0):
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


def defined(report):
    """A ``DiceReport``'s per-label scores, without the undefined ones."""
    return {k: v for k, v in report.per_label.items() if v is not None}


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
