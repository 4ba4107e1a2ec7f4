"""Sorted-intensity regression harmonization.

Each scan is z-scored over all voxels, its masked intensities are sorted
descending and resampled onto a fixed number of quantile positions, and a
global linear map (slope, intercept) is fitted by least squares against a
reference profile averaged over a set of atlas scans.  Applying the fitted
map to every voxel yields the harmonized image.

Because masked voxel counts differ between scans, the sorted vectors are
made commensurate by linear interpolation onto ``quantile_count`` evenly
spaced positions (endpoints inclusive) before averaging or regression.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import io as tio
from .geometry import IntensityVolume, LabelVolume, _labels

__all__ = [
    "HarmonizeError",
    "HarmonizationModel",
    "RegressionFit",
    "standardize",
    "sorted_intensities",
    "fit_model",
    "harmonize",
    "save_model",
    "load_model",
]

DEFAULT_QUANTILES = 1024


class HarmonizeError(ValueError):
    """Degenerate input or mismatched geometry during harmonization."""


@dataclass(frozen=True)
class RegressionFit:
    beta1: float
    beta0: float
    residual_rms: float


@dataclass(frozen=True)
class HarmonizationModel:
    """Reference sorted-intensity profile plus the mask that produced it.

    ``mean_sorted`` is non-increasing of length ``quantile_count``; ``mask``
    is a binary label volume on the grid all harmonized scans share (the
    union of the atlas masks).
    """

    mean_sorted: np.ndarray
    mask: LabelVolume
    quantile_count: int

    def __post_init__(self):
        v = np.array(self.mean_sorted, dtype=np.float64)
        if v.ndim != 1 or v.size < 2:
            raise HarmonizeError("mean_sorted must be a vector of length >= 2")
        if np.any(np.diff(v) > 1e-12):
            raise HarmonizeError("mean_sorted must be non-increasing")
        if int(self.quantile_count) != v.size:
            raise HarmonizeError("quantile_count must equal len(mean_sorted)")
        if not np.any(self.mask.data):
            raise HarmonizeError("model mask is empty")
        v.flags.writeable = False
        object.__setattr__(self, "mean_sorted", v)
        object.__setattr__(self, "quantile_count", int(self.quantile_count))


def _moments(vol: IntensityVolume):
    """``(data, mean, std)``: the voxels widened once to float64, and their moments.

    ``data`` is ``vol.data`` itself when it is already float64; widening
    keeps the memory order, so the sums have the bits of a float64 volume.
    """
    data = vol.data.astype(np.float64, copy=False)
    mean = float(data.mean())
    std = float(data.std())
    if std <= 1e-12:
        raise HarmonizeError("volume is constant; cannot standardize")
    return data, mean, std


def standardize(vol: IntensityVolume) -> IntensityVolume:
    """Demean and scale to unit population std, over all voxels."""
    data, mean, std = _moments(vol)
    z = data - mean
    z /= std
    return IntensityVolume._adopt(vol.geometry, z)


def sorted_intensities(
    vol: IntensityVolume, mask: LabelVolume, quantile_count: int
) -> np.ndarray:
    """Masked intensities sorted descending, resampled to ``quantile_count``.

    Linear interpolation over the sorted sequence, endpoints inclusive, so
    the output is non-increasing of length ``quantile_count`` regardless of
    how many voxels the mask selects.
    """
    return _profile(vol.geometry, mask, quantile_count, vol.data)


def _profile(geometry, mask, quantile_count, data, mean=0.0, std=1.0) -> np.ndarray:
    """The sorted profile of ``(data - mean) / std``, ``data`` on ``geometry``.

    The raw masked values are sorted and only the ranks read are z-scored:
    ``(v - mean) / std`` is monotone in floating point, so this gives the
    bits of sorting the z-scored volume.
    """
    if quantile_count < 2:
        raise HarmonizeError(f"quantile_count must be >= 2, got {quantile_count}")
    if not geometry.matches(mask.geometry):
        raise HarmonizeError("volume and mask geometries differ")
    values = data[mask.data > 0]  # a copy, so it is sorted in place
    n = values.size
    if n == 0:
        raise HarmonizeError("mask selects no voxels")
    values.sort()
    positions = np.linspace(0.0, n - 1.0, quantile_count)
    # np.interp over all n ranks reads only the two that bracket each
    # position, so interpolating over just those ranks gives the same bits
    lower = positions.astype(np.intp)
    ranks = np.union1d(lower, np.minimum(lower + 1, n - 1))
    picked = (values[n - 1 - ranks].astype(np.float64) - mean) / std
    return np.interp(positions, ranks, picked)


def fit_model(
    atlas_volumes: list[IntensityVolume],
    atlas_masks: list[LabelVolume],
    quantile_count: int = DEFAULT_QUANTILES,
) -> HarmonizationModel:
    """Build the reference profile from a set of atlas scans.

    The model mask is the union of the per-atlas masks; every atlas is
    standardized, profiled over that union mask, and the profiles are
    averaged elementwise.
    """
    if not atlas_volumes:
        raise HarmonizeError("need at least one atlas volume")
    if len(atlas_volumes) != len(atlas_masks):
        raise HarmonizeError("atlas volume and mask counts differ")
    geometry = atlas_volumes[0].geometry
    for vol in atlas_volumes[1:]:
        if not vol.geometry.matches(geometry):
            raise HarmonizeError("atlas volumes are not on a common grid")
    union = _labels(geometry.dims, 0, 2)
    for mask in atlas_masks:
        if not mask.geometry.matches(geometry):
            raise HarmonizeError("atlas mask is not on the common grid")
        union |= mask.data > 0
    union_mask = LabelVolume._adopt(geometry, union, 2)
    profiles = [
        _profile(geometry, union_mask, quantile_count, *_moments(vol))
        for vol in atlas_volumes
    ]
    mean_sorted = np.mean(profiles, axis=0)
    return HarmonizationModel(mean_sorted, union_mask, quantile_count)


def harmonize(
    vol: IntensityVolume, model: HarmonizationModel
) -> tuple[IntensityVolume, RegressionFit]:
    """Map a scan onto the model's reference intensity profile.

    Standardizes the scan, regresses the reference profile on the scan's
    own sorted profile (ordinary least squares), and applies the fitted
    slope and intercept to every voxel.  No z-scored volume is built: the
    output buffer is ``((x - mean) / std) * beta1 + beta0``, computed in place.
    """
    data, mean, std = _moments(vol)
    profile = _profile(vol.geometry, model.mask, model.quantile_count, data, mean, std)
    px = profile - profile.mean()
    var = float(px @ px)
    if var <= 1e-20:
        raise HarmonizeError("zero intensity variance inside the mask")
    ref = model.mean_sorted
    beta1 = float(px @ (ref - ref.mean())) / var
    beta0 = float(ref.mean() - beta1 * profile.mean())
    residual = ref - (beta1 * profile + beta0)
    fit = RegressionFit(beta1, beta0, float(np.sqrt(np.mean(residual**2))))
    out = data - mean
    out /= std
    out *= beta1
    out += beta0
    return IntensityVolume._adopt(vol.geometry, out), fit


# ---------------------------------------------------------------------------
# Persistence: meta.json + mean_sorted.bin + mask.nii in one directory
# ---------------------------------------------------------------------------


def save_model(model: HarmonizationModel, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta = {
        "quantile_count": model.quantile_count,
        "mask_dims": list(model.mask.dims),
        "mask_spacing": list(model.mask.geometry.spacing),
    }
    tio.write_atomic(directory / "meta.json", (json.dumps(meta, indent=1).encode(),))
    tio.write_atomic(directory / "mean_sorted.bin", (model.mean_sorted.astype("<f8").tobytes(),))
    tio.write_nifti(model.mask, directory / "mask.nii")


def load_model(directory) -> HarmonizationModel:
    directory = Path(directory)
    try:
        meta = json.loads((directory / "meta.json").read_text())
        mask_dims, quantile_count = meta["mask_dims"], int(meta["quantile_count"])
    except (ValueError, KeyError, TypeError) as exc:
        raise HarmonizeError(f"model metadata in {directory} is malformed: {exc!r}") from exc
    mean_sorted = np.fromfile(directory / "mean_sorted.bin", dtype="<f8")
    mask, _ = tio.read_nifti(directory / "mask.nii", as_labels=True, num_labels=2)
    if list(mask.dims) != mask_dims:
        raise HarmonizeError("model mask dims disagree with metadata")
    return HarmonizationModel(mean_sorted, mask, quantile_count)
