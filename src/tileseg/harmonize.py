"""Sorted-intensity regression harmonization.

Each scan is z-scored over all voxels, its masked intensities are sorted
descending and resampled onto a fixed number of quantile positions, and a
global linear map (slope, intercept) is fitted by least squares against a
reference profile averaged over a set of atlas scans.  Applying the fitted
map to every voxel yields the harmonized image.

Because masked voxel counts differ between scans, the sorted vectors are
made commensurate by linear interpolation onto ``quantile_count`` evenly
spaced positions (endpoints inclusive) before averaging or regression;
the ranks those positions read are found from a histogram of the masked
intensities (``_profile``), and ``harmonize`` maps the scan in place.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import io as tio
from .geometry import IntensityVolume, LabelVolume, VolumeGeometry, _bands, _intensity_dtype, _labels

__all__ = [
    "HarmonizeError",
    "HarmonizationModel",
    "RegressionFit",
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


@dataclass(frozen=True, init=False)
class HarmonizationModel:
    """A reference sorted-intensity profile and the union of the atlas masks.

    ``mean_sorted`` is finite and non-increasing, its length ``quantile_count``.
    The two-label mask on ``geometry``, the grid all harmonized scans share, is
    held as one bit per voxel (``_pack``); ``mask`` rebuilds it, and ``mask.nii``
    is still written as that two-label volume.  ``mask`` may be given as a
    ``LabelVolume`` or as its ``_pack`` triple (``load_model``).
    """

    mean_sorted: np.ndarray
    geometry: VolumeGeometry
    bits: np.ndarray
    count: int

    def __init__(self, mean_sorted: np.ndarray, mask: LabelVolume):
        v = np.array(mean_sorted, dtype=np.float64)
        if v.ndim != 1 or v.size < 2:
            raise HarmonizeError("mean_sorted must be a vector of length >= 2")
        if not np.isfinite(v).all() or np.any(np.diff(v) > 1e-12):  # a NaN compares False
            raise HarmonizeError("mean_sorted must be finite and non-increasing")
        geometry, bits, count = mask if isinstance(mask, tuple) else _pack(mask)
        if count == 0:
            raise HarmonizeError("model mask is empty")
        v.flags.writeable = bits.flags.writeable = False
        for name, value in zip(("mean_sorted", "geometry", "bits", "count"), (v, geometry, bits, count)):
            object.__setattr__(self, name, value)

    @property
    def quantile_count(self) -> int:
        return self.mean_sorted.size

    @property
    def mask(self) -> LabelVolume:
        data = np.unpackbits(self.bits, count=self.geometry.voxel_count, bitorder="little")
        return LabelVolume._adopt(self.geometry, data.reshape(self.geometry.dims, order="F"), 2)


def _pack(mask: LabelVolume):
    """``(geometry, bits, count)`` of a two-label ``mask``, one bit per voxel x-fastest."""
    if mask.num_labels != 2:
        raise HarmonizeError(f"mask must have num_labels=2, got {mask.num_labels}")
    flat = mask.data.ravel("F")
    return mask.geometry, np.packbits(flat, bitorder="little"), int(np.count_nonzero(flat))


# voxels per block of every pass (whole bytes of mask bits): one float64
# buffer of this many voxels is the only float64 array harmonize builds at
# atlas scale
_BLOCK = 1 << 16
# bins of the profile's histogram at most: 512 KiB of counts
_BINS = 1 << 16


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


def _mapped(data: np.ndarray, mean: float, std: float, fit: RegressionFit) -> np.ndarray:
    """``(data - mean) / std * beta1 + beta0`` of ``fit``, block by block.

    Each voxel is computed in float64 and rounded once into an x-fastest
    array in ``_intensity_dtype``: over ``data``, which the caller gives
    up, if it owns its voxels and holds that type, else a new one.
    """
    dtype = _intensity_dtype(data.dtype)
    if data.flags.owndata and data.dtype == dtype:
        out = data
        out.flags.writeable = True
    else:
        out = np.empty_like(data, dtype=dtype, order="F")
    dest = out.ravel("F")
    for part, wide in _blocks(data):
        wide -= mean
        wide /= std
        wide *= fit.beta1
        wide += fit.beta0
        dest[part] = wide
    return out


def _masked(bits: np.ndarray, data: np.ndarray):
    """Yield the values of ``data`` under the mask ``bits`` (``_pack``), x-fastest, a block at a time."""
    flat = data.ravel("F")
    for start in range(0, flat.size, _BLOCK):
        part = flat[start : start + _BLOCK]
        yield part[np.unpackbits(bits[start // 8 :], count=part.size, bitorder="little").view(np.bool_)]


def _profile(geometry, packed, quantile_count, data, mean, std) -> np.ndarray:
    """The sorted profile of ``(data - mean) / std``, ``data`` on ``geometry``.

    The masked values (``_pack``), sorted descending, are linearly
    interpolated onto ``quantile_count`` positions, endpoints inclusive.
    One pass counts them into bins that never fall as the value rises, and
    a second sorts only the bins holding the two ranks ``np.interp`` reads
    per position: a full sort's bits (bar the order of -0.0 and +0.0).
    Only those ranks are z-scored: ``(v - mean) / std`` is monotone in
    floating point, so this gives the bits of sorting the z-scored volume.
    """
    if not 2 <= quantile_count <= MAX_QUANTILES:
        raise HarmonizeError(f"quantile_count must be in [2, {MAX_QUANTILES}], got {quantile_count}")
    mask_geometry, bits, n = packed
    if not geometry.matches(mask_geometry):
        raise HarmonizeError("volume and mask geometries differ")
    if n == 0:
        raise HarmonizeError("mask selects no voxels")
    positions = np.linspace(0.0, n - 1.0, quantile_count)
    lower = positions.astype(np.intp).tolist()
    ranks = np.array(sorted({*lower, *(min(i + 1, n - 1) for i in lower)}))
    ascending = n - 1 - ranks

    # (v - lo) * scale rounds into [0, bins]; a range the type cannot
    # subtract or scale takes one bin
    work = _intensity_dtype(data.dtype)
    top = float(np.finfo(work).max) / 2
    bins = max(1, min(_BINS, n // 64))
    lo, hi = float(data.min()), float(data.max())
    scale = bins / (hi - lo) if hi > lo else 0.0
    if not (hi - lo < top and scale < top):
        lo = scale = 0.0
    lo, scale = work.type(lo), work.type(scale)
    index = np.empty(min(_BLOCK, data.size), np.intp)

    def binned(values):
        t = np.subtract(values, lo, dtype=work)
        return np.multiply(t, scale, out=index[: values.size], casting="unsafe")

    counts = np.zeros(bins + 1, np.intp)
    for values in _masked(bits, data):
        counts += np.bincount(binned(values), minlength=bins + 1)
    below = np.cumsum(counts)  # up to and including each bin
    held = np.searchsorted(below, ascending, side="right")  # each rank's bin
    wanted = np.zeros(bins + 1, np.bool_)
    wanted[held] = True
    kept = np.cumsum(np.where(wanted, counts, 0))  # the same, of wanted bins
    gathered, end = np.empty(int(kept[-1]), dtype=data.dtype), 0
    for values in _masked(bits, data):
        values = values[wanted[binned(values)]]
        gathered[end : end + values.size] = values
        end += values.size
    gathered.sort()
    picked = (gathered[ascending + kept[held] - below[held]].astype(np.float64) - mean) / std
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
    packed = _pack(union_mask)
    profiles = [
        _profile(geometry, packed, quantile_count, vol.data, *_moments(vol.data))
        for vol in atlas_volumes
    ]
    return HarmonizationModel(np.mean(profiles, axis=0), union_mask)


def harmonize(
    vol: IntensityVolume, model: HarmonizationModel
) -> tuple[IntensityVolume, RegressionFit]:
    """Map a scan onto the model's reference intensity profile.

    Standardizes the scan, regresses the reference profile on the scan's
    own sorted profile (ordinary least squares), and applies the fitted
    slope and intercept to every voxel.  No z-scored, widened or masked
    copy is built: the output, ``((x - mean) / std) * beta1 + beta0`` in
    float64 rounded once, is written block by block in ``_intensity_dtype``
    (float32 for a stored-type or float32 scan), over ``vol``'s own array
    where ``_mapped`` can: ``vol`` is consumed.
    """
    mean, std = _moments(vol.data)
    packed = (model.geometry, model.bits, model.count)
    profile = _profile(vol.geometry, packed, model.quantile_count, vol.data, mean, std)
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
    holds 8 q bytes.  ``mask.nii`` is packed to bits a band of planes at a
    time (``_read_mask``).  ``harmonize`` checks the mask's grid against the
    scan's.
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
    return HarmonizationModel(np.frombuffer(profile, dtype="<f8"), _read_mask(directory / "mask.nii"))


def _read_mask(path):
    """``_pack``'s triple of the two-label mask file ``path``, packed a band of planes at a time.

    An integer file whose voxels are all 0 or 1 is never held whole; the
    last voxels of a band that fill no byte are carried into the next.  Any
    other file is read as ``read_nifti(path, as_labels=True, num_labels=2)``
    reads it, so it is taken or refused as that call takes or refuses it.
    """
    with tio.NiftiScan(path) as scan:
        if scan.dtype.kind in "iu":
            bits = np.empty(-(-scan.geometry.voxel_count // 8), np.uint8)
            count, done, carry = 0, 0, np.empty(0, bool)
            for z0, z1 in _bands(scan):
                band = scan.band(z0, z1)
                if band.min() < 0 or band.max() >= 2:
                    break
                count += int(np.count_nonzero(band))
                # cast as it is copied: packbits of bools is ~10x faster than of int16
                flat = np.concatenate((carry, band.ravel("F")), dtype=bool, casting="unsafe")
                whole = flat.size - flat.size % 8
                bits[done : done + whole // 8] = np.packbits(flat[:whole], bitorder="little")
                done, carry = done + whole // 8, flat[whole:]
            else:
                bits[done:] = np.packbits(carry, bitorder="little")
                return scan.geometry, bits, count
    return _pack(tio.read_nifti(path, as_labels=True, num_labels=2)[0])
