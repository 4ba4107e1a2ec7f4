import tracemalloc

import hypothesis
import numpy as np

from tileseg.geometry import IntensityVolume, LabelVolume, make_centered_geometry

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


def peak_alloc(fn):
    """``(tracemalloc peak in bytes, result)`` of calling ``fn()``."""
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()
