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
from .geometry import IntensityVolume, LabelVolume, _intensity_dtype, _labels

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
MAX_QUANTILES = 1 << 20  # a profile of 8 MB


class HarmonizeError(ValueError):
    """Degenerate input or mismatched geometry during harmonization."""


@dataclass(frozen=True)
class RegressionFit:
    beta1: float
    beta0: float
    residual_rms: float


@dataclass(frozen=True)
class HarmonizationModel:
    """A reference sorted-intensity profile and the union of the atlas masks.

    ``mean_sorted`` is finite and non-increasing, its length ``quantile_count``;
    ``mask`` is a two-label volume on the grid all harmonized scans share.
    """

    mean_sorted: np.ndarray
    mask: LabelVolume

    def __post_init__(self):
        v = np.array(self.mean_sorted, dtype=np.float64)
        if v.ndim != 1 or v.size < 2:
            raise HarmonizeError("mean_sorted must be a vector of length >= 2")
        if not np.isfinite(v).all() or np.any(np.diff(v) > 1e-12):  # a NaN compares False
            raise HarmonizeError("mean_sorted must be finite and non-increasing")
        if self.mask.num_labels != 2:
            raise HarmonizeError(f"model mask must have num_labels=2, got {self.mask.num_labels}")
        if not np.any(self.mask.data):
            raise HarmonizeError("model mask is empty")
        v.flags.writeable = False
        object.__setattr__(self, "mean_sorted", v)

    @property
    def quantile_count(self) -> int:
        return self.mean_sorted.size


# voxels per block of the moments and of the output: one float64 buffer of
# this many voxels is the only float64 array harmonize builds at atlas scale
_BLOCK = 1 << 16


def _blocks(data: np.ndarray):
    """Yield ``(part, wide)`` over ``data``'s voxels x-fastest, in fixed blocks.

    ``part`` slices the block out of ``data.ravel("F")``, a view, and
    ``wide`` is the block widened to float64 in one buffer that every block
    reuses: only one block is widened at a time.
    """
    flat = data.ravel("F")
    buf = np.empty(min(_BLOCK, flat.size))
    for start in range(0, flat.size, _BLOCK):
        part = slice(start, min(start + _BLOCK, flat.size))
        wide = buf[: part.stop - start]
        np.copyto(wide, flat[part])
        yield part, wide


def _moments(data: np.ndarray):
    """``(mean, std)`` of all voxels, summed in float64 block by block.

    Each block is widened before it is summed, so a stored-type volume and
    its float64 widening give the same bits; the std is a centred second
    pass.
    """
    mean = float(sum(wide.sum() for _, wide in _blocks(data)) / data.size)

    def squares(wide):
        wide -= mean
        wide *= wide
        return wide.sum()

    std = float(np.sqrt(sum(squares(wide) for _, wide in _blocks(data)) / data.size))
    if std <= 1e-12:
        raise HarmonizeError("volume is constant; cannot standardize")
    return mean, std


def _mapped(data: np.ndarray, mean: float, std: float, fit=None) -> np.ndarray:
    """``(data - mean) / std``, then ``* beta1 + beta0`` of ``fit``, block by block.

    Each voxel is computed in float64 and rounded once into the output, a
    new x-fastest array in ``_intensity_dtype``.
    """
    out = np.empty_like(data, dtype=_intensity_dtype(data.dtype), order="F")
    dest = out.ravel("F")
    for part, wide in _blocks(data):
        wide -= mean
        wide /= std
        if fit is not None:
            wide *= fit.beta1
            wide += fit.beta0
        dest[part] = wide
    return out


def standardize(vol: IntensityVolume) -> IntensityVolume:
    """Demean and scale to unit population std, over all voxels."""
    return IntensityVolume._adopt(vol.geometry, _mapped(vol.data, *_moments(vol.data)))


def sorted_intensities(
    vol: IntensityVolume, mask: LabelVolume, quantile_count: int
) -> np.ndarray:
    """Intensities under a two-label ``mask`` sorted descending, resampled to ``quantile_count``.

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
    if not 2 <= quantile_count <= MAX_QUANTILES:
        raise HarmonizeError(f"quantile_count must be in [2, {MAX_QUANTILES}], got {quantile_count}")
    if not geometry.matches(mask.geometry):
        raise HarmonizeError("volume and mask geometries differ")
    if mask.num_labels != 2:
        raise HarmonizeError(f"mask must have num_labels=2, got {mask.num_labels}")
    # one boolean gather: a two-label mask's bytes, 0 or 1, are read as bools in place
    values = data.ravel("F")[mask.data.ravel("F").view(np.bool_)]
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
        _profile(geometry, union_mask, quantile_count, vol.data, *_moments(vol.data))
        for vol in atlas_volumes
    ]
    mean_sorted = np.mean(profiles, axis=0)
    return HarmonizationModel(mean_sorted, union_mask)


def harmonize(
    vol: IntensityVolume, model: HarmonizationModel
) -> tuple[IntensityVolume, RegressionFit]:
    """Map a scan onto the model's reference intensity profile.

    Standardizes the scan, regresses the reference profile on the scan's
    own sorted profile (ordinary least squares), and applies the fitted
    slope and intercept to every voxel.  No z-scored or widened volume is
    built: the masked voxels are sorted in the scan's own type, and the
    output, ``((x - mean) / std) * beta1 + beta0`` in float64 rounded once,
    is written block by block into an x-fastest array in
    ``_intensity_dtype`` (float32 for a stored-type or float32 scan).
    """
    mean, std = _moments(vol.data)
    profile = _profile(vol.geometry, model.mask, model.quantile_count, vol.data, mean, std)
    px = profile - profile.mean()
    var = float(px @ px)
    if var <= 1e-20:
        raise HarmonizeError("zero intensity variance inside the mask")
    ref = model.mean_sorted
    beta1 = float(px @ (ref - ref.mean())) / var
    beta0 = float(ref.mean() - beta1 * profile.mean())
    residual = ref - (beta1 * profile + beta0)
    fit = RegressionFit(beta1, beta0, float(np.sqrt(np.mean(residual**2))))
    return IntensityVolume._adopt(vol.geometry, _mapped(vol.data, mean, std, fit)), fit


# ---------------------------------------------------------------------------
# Persistence: meta.json + mean_sorted.bin + mask.nii in one directory
# ---------------------------------------------------------------------------


def save_model(model: HarmonizationModel, directory) -> None:
    """Write ``model``; ``meta.json`` holds only ``{"quantile_count": q}``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta = json.dumps({"quantile_count": model.quantile_count}).encode()
    tio.write_atomic(directory / "meta.json", (meta,))
    tio.write_atomic(directory / "mean_sorted.bin", (model.mean_sorted.astype("<f8").tobytes(),))
    tio.write_nifti(model.mask, directory / "mask.nii")


def load_model(directory) -> HarmonizationModel:
    """Read a saved model; of ``meta.json`` only ``quantile_count`` is read.

    ``HarmonizeError`` unless it is a JSON integer q and ``mean_sorted.bin``
    holds 8 q bytes.  ``harmonize`` checks the mask's grid against the scan's.
    """
    directory = Path(directory)
    try:
        count = json.loads((directory / "meta.json").read_text())["quantile_count"]
    except (ValueError, KeyError, TypeError) as exc:
        raise HarmonizeError(f"model metadata in {directory} is malformed: {exc!r}") from exc
    profile = (directory / "mean_sorted.bin").read_bytes()
    if type(count) is not int or len(profile) != 8 * count:  # a bool or float (1e400 is inf) is no count
        raise HarmonizeError(
            f"model in {directory} is malformed: quantile_count {count!r}, {len(profile)} profile bytes"
        )
    mask, _ = tio.read_nifti(directory / "mask.nii", as_labels=True, num_labels=2)
    return HarmonizationModel(np.frombuffer(profile, dtype="<f8"), mask)
