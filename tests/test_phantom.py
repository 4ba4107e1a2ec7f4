import numpy as np
import numpy.testing as npt

from conftest import peak_alloc, random_labels
from tileseg.phantom import intensity_from_labels


def test_noise_is_drawn_x_fastest():
    # the k-th normal draw lands on the k-th voxel in x-fastest order
    labels = random_labels((5, 4, 3), 4, seed=1)
    clean = intensity_from_labels(labels, seed=7)
    noisy = intensity_from_labels(labels, seed=7, noise=2.0)
    rng = np.random.default_rng(7)
    rng.permutation(4)  # the level draw that precedes the noise
    draws = rng.normal(0.0, 2.0, size=60)
    npt.assert_array_equal(noisy.data.ravel("F"), clean.data.ravel("F") + draws)


def test_noisy_phantom_allocates_the_image_and_the_noise_only():
    labels = random_labels((64, 64, 48), 6, seed=2)
    peak, vol = peak_alloc(lambda: intensity_from_labels(labels, seed=3, noise=5.0))
    assert vol.data.flags.f_contiguous
    assert peak < 2.5 * vol.data.nbytes
