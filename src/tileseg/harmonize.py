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
    """Reference sorted-intensity profile plus the mask that produced it.

    ``mean_sorted`` is finite and non-increasing, of length
    ``quantile_count``; ``mask`` is a binary label volume on the grid all
    harmonized scans share (the union of the atlas masks).
    """

    mean_sorted: np.ndarray
    mask: LabelVolume
    quantile_count: int

    def __post_init__(self):
        v = np.array(self.mean_sorted, dtype=np.float64)
        if v.ndim != 1 or v.size < 2:
            raise HarmonizeError("mean_sorted must be a vector of length >= 2")
        if not np.isfinite(v).all() or np.any(np.diff(v) > 1e-12):  # a NaN compares False
            raise HarmonizeError("mean_sorted must be finite and non-increasing")
        if int(self.quantile_count) != v.size:
            raise HarmonizeError("quantile_count must equal len(mean_sorted)")
        if not np.any(self.mask.data):
            raise HarmonizeError("model mask is empty")
        v.flags.writeable = False
        object.__setattr__(self, "mean_sorted", v)
        object.__setattr__(self, "quantile_count", int(self.quantile_count))


# voxels per block of the moments and of the output: one float64 buffer of
# this many voxels is the only float64 array harmonize builds at atlas scale
_BLOCK = 1 << 16
# voxels per chunk of the profile's gather of the masked voxels: its index
# temporary is 64 KiB
_GATHER = 1 << 13


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
    if not 2 <= quantile_count <= MAX_QUANTILES:
        raise HarmonizeError(f"quantile_count must be in [2, {MAX_QUANTILES}], got {quantile_count}")
    if not geometry.matches(mask.geometry):
        raise HarmonizeError("volume and mask geometries differ")
    flat, keep = data.ravel("F"), mask.data.ravel("F")
    n = np.count_nonzero(keep)
    if n == 0:
        raise HarmonizeError("mask selects no voxels")
    # the masked voxels x-fastest, gathered chunk by chunk (no atlas-sized bool);
    # labels are unsigned, so nonzero is > 0, and the picked indices are in range
    values, at = np.empty(n, data.dtype), 0
    for start in range(0, flat.size, _GATHER):
        picked = np.flatnonzero(keep[start : start + _GATHER])
        np.take(flat[start : start + _GATHER], picked, out=values[at : at + picked.size], mode="clip")
        at += picked.size
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
    return HarmonizationModel(mean_sorted, union_mask, quantile_count)


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
        mask_spacing = np.array(meta["mask_spacing"], dtype=np.float64).reshape(3)
    except (ValueError, KeyError, TypeError) as exc:
        raise HarmonizeError(f"model metadata in {directory} is malformed: {exc!r}") from exc
    mean_sorted = np.fromfile(directory / "mean_sorted.bin", dtype="<f8")
    mask, _ = tio.read_nifti(directory / "mask.nii", as_labels=True, num_labels=2)
    if list(mask.dims) != mask_dims:
        raise HarmonizeError("model mask dims disagree with metadata")
    if not np.allclose(mask.geometry.spacing, mask_spacing, atol=1e-4):
        raise HarmonizeError("model mask spacing disagrees with metadata")
    return HarmonizationModel(mean_sorted, mask, quantile_count)
