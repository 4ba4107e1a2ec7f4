"""Core 3D volume types, affine transforms, and resampling.

Conventions used throughout the package:

* Volumes are indexed ``data[x, y, z]`` with shape equal to ``dims``.
  The linear (disk) layout is x-fastest ("Fortran" order), matching the
  de facto layout of single-file medical volumes.
* Every array a volume holds has x-fastest strides too: the public
  constructors copy into x-fastest order, ``_adopt`` takes no other
  strides, and a tile (``tiling.extract_tile``) may be a read-only view of
  such an array.  So a z plane's rows lie in memory order for the writers
  to cast as they lie, and every sum in memory order (``harmonize``, the
  moments) runs x-fastest.
  Intensity arrays the package builds hold ``_intensity_dtype`` of their
  source: float64 from float64, float32 from a stored type.  Each value is
  computed in float64 and rounded once, where it is stored.
* ``index_to_world`` maps homogeneous voxel indices to world millimetres:
  ``world = M @ [i, j, k, 1]``.
* Resampling is pull-back: we iterate target voxels, map them through the
  given world-to-world transform into the source volume, and interpolate.
  The transform handed to a resampler therefore maps *target* world
  coordinates into *source* world coordinates.
* Resampling gathers each corner with one ``take`` at ``x + y*sty +
  z*stz`` (element strides) on a flat view of the source, which is never
  copied.  Where a trilinear plane has all eight corners of every voxel,
  only the lowest corner's index ``i`` is built, and the corner ``d``
  elements on (1, ``sty``, ``stz`` and their sums) is ``flat[d:].take(i)``.
  Trilinear output is seven float64 lerps ``a + f*(b - a)``, four along x,
  two along y and one along z.  Against the eight-corner sum
  ``d000*gx*gy*gz + ...`` a float64 output changes in its last bits (at most
  ~1e-15 relative); float32 outputs were byte-identical on the benchmark
  warp, but a value within an ulp of a float32 rounding boundary can round
  the other way.  Trilinear resampling also takes a scan file
  (``io.NiftiScan``): each thread copies its planes into a ring that holds
  the planes one target plane reaches (``_PlaneRing``), each plane once at
  any tilt, so a scan is registered without being held whole.  The moments
  take a source band by band.
* Resampling sweeps the target one z plane at a time, each cropped to the
  box of voxels that can reach the source; up to ``jobs`` threads take
  contiguous z ranges, at most one per usable CPU and per ``_SWEEP_VOXELS``
  target voxels (``_sweep``).  The boxes are computed for a block of planes
  at once (``_boxes``), element by element as for one plane.  A coordinate is
  ``m[a,0]*x + m[a,1]*y``, the same on every plane and computed once per
  call as three target-plane arrays that the threads share read-only, plus
  ``m[a,2]*z``, plus ``m[a,3]``.  Each voxel's coordinate is this one
  expression in any box, so the output is the same bit for bit at any
  ``jobs``.
* A target voxel that maps outside the source gets 0: +0.0 from
  ``resample_intensity``, label 0 (background) from ``resample_labels``.
* Nearest-neighbor rounding at exact half-voxel ties rounds half toward
  negative infinity, so results are deterministic across platforms.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GeometryError",
    "AffineTransform",
    "VolumeGeometry",
    "IntensityVolume",
    "LabelVolume",
    "make_centered_geometry",
    "compose",
    "resample_intensity",
    "resample_labels",
    "estimate_affine_moments",
]

# Canonical atlas grid: 172 x 220 x 156 voxels at 1 mm isotropic.
ATLAS_DIMS = (172, 220, 156)

_DET_EPS = 1e-12


class GeometryError(ValueError):
    """Invalid geometry, transform, or resampling request."""


def _as_triple(value, name: str, kind=int) -> tuple:
    t = tuple(kind(v) for v in value)
    if len(t) != 3:
        raise GeometryError(f"{name} must have exactly 3 components, got {value!r}")
    return t


@dataclass(frozen=True)
class AffineTransform:
    """A 4x4 homogeneous world-coordinate transform.

    The last row must be exactly ``[0, 0, 0, 1]`` and the upper-left 3x3
    block must be invertible.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.float64)
        if m.shape != (4, 4):
            raise GeometryError(f"affine matrix must be 4x4, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise GeometryError("affine matrix contains non-finite entries")
        if not np.array_equal(m[3], [0.0, 0.0, 0.0, 1.0]):
            raise GeometryError("affine matrix last row must be [0, 0, 0, 1]")
        # LU divides by a subnormal pivot of a near-singular matrix: the
        # determinant comes out ~0 and is refused below, not warned about;
        # huge finite entries overflow it to inf, which is accepted
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            det = np.linalg.det(m[:3, :3])
        if not abs(det) > _DET_EPS:
            raise GeometryError("affine matrix is not invertible")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @classmethod
    def identity(cls) -> "AffineTransform":
        return cls(np.eye(4))

    @classmethod
    def from_linear_translation(cls, linear, translation) -> "AffineTransform":
        m = np.eye(4)
        m[:3, :3] = np.asarray(linear, dtype=np.float64)
        m[:3, 3] = np.asarray(translation, dtype=np.float64)
        return cls(m)

    @classmethod
    def translation(cls, offset) -> "AffineTransform":
        return cls.from_linear_translation(np.eye(3), offset)

    @property
    def linear(self) -> np.ndarray:
        return self.matrix[:3, :3]

    @property
    def offset(self) -> np.ndarray:
        return self.matrix[:3, 3]

    def inverse(self) -> "AffineTransform":
        return AffineTransform(np.linalg.inv(self.matrix))


def compose(a: AffineTransform, b: AffineTransform) -> AffineTransform:
    """Composition ``a after b``: the matrix product ``a.matrix @ b.matrix``."""
    return AffineTransform(a.matrix @ b.matrix)


@dataclass(frozen=True)
class VolumeGeometry:
    """Grid shape, voxel spacing, and index-to-world mapping of a volume."""

    dims: tuple
    spacing: tuple
    index_to_world: AffineTransform

    def __post_init__(self):
        dims = _as_triple(self.dims, "dims", int)
        spacing = _as_triple(self.spacing, "spacing", float)
        if any(d <= 0 for d in dims):
            raise GeometryError(f"dims must be strictly positive, got {dims}")
        if any(s <= 0 for s in spacing):
            raise GeometryError(f"spacing must be strictly positive, got {spacing}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing", spacing)

    @property
    def voxel_count(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz

    def matches(self, other: "VolumeGeometry", tol: float = 1e-4) -> bool:
        """Same grid within tolerance (dims exact, spacing/affine approximate)."""
        return (
            self.dims == other.dims
            and np.allclose(self.spacing, other.spacing, atol=tol)
            and np.allclose(
                self.index_to_world.matrix, other.index_to_world.matrix, atol=tol
            )
        )


def make_centered_geometry(dims, spacing=(1.0, 1.0, 1.0)) -> VolumeGeometry:
    """Geometry whose world origin sits at the grid center.

    ``world = (index - (dims - 1) / 2) * spacing``.  This is the package's
    default orientation convention; externally produced affines can be
    supplied wherever a transform is accepted.
    """
    dims = _as_triple(dims, "dims", int)
    spacing = _as_triple(spacing, "spacing", float)
    linear = np.diag(spacing)
    translation = [-(d - 1) / 2.0 * s for d, s in zip(dims, spacing)]
    return VolumeGeometry(
        dims, spacing, AffineTransform.from_linear_translation(linear, translation)
    )


class _Volume:
    """What both volume types share: ``dims`` and the adopt path."""

    @property
    def dims(self) -> tuple:
        return self.geometry.dims

    @classmethod
    def _adopt(cls, geometry: VolumeGeometry, arr: np.ndarray, *args):
        """Wrap ``arr``, an array the package just built or decoded, without a copy.

        ``arr`` must have x-fastest strides: each axis steps over the whole
        span of the axes before it, so a contiguous x-fastest array or a box
        of one qualifies.  Runs the same checks as the public constructor,
        then freezes ``arr`` itself; only the constructor's copy is skipped.
        An intensity array may keep a stored element type (``read_nifti``
        adopts its view of the file bytes).  Arrays from outside (a user
        array) go through the copying constructor.
        """
        span = arr.itemsize
        for n, stride in zip(arr.shape, arr.strides):
            if n > 1:
                assert stride >= span, "volumes hold arrays with x-fastest strides"
                span = stride * n
        vol = object.__new__(cls)
        object.__setattr__(vol, "geometry", geometry)
        vol._freeze(arr, *args)
        return vol


# element types an intensity volume holds: float64, or a NIfTI type kept as stored
_INTENSITY_DTYPES = tuple(np.dtype(t) for t in ("f8", "f4", "i2", "u1"))


@dataclass(frozen=True)
class IntensityVolume(_Volume):
    """A scalar 3D image on a :class:`VolumeGeometry`.

    Data is shaped ``dims``, indexed ``[x, y, z]``, and frozen after
    construction; all values must be finite.  The constructor copies
    ``data`` into float64, x-fastest; arrays the package builds itself are
    adopted without a copy (``_adopt``) after the same checks.  A volume
    read from NIfTI keeps the file's element type (float32, int16 or
    uint8): each of them widens to float64 exactly, so the resamplers widen
    corner by corner and the moments sum into float64, each with the bits
    of a float64 copy.  What the package builds from such a volume (its
    resample, harmonized volume and tiles) is float32 (``_intensity_dtype``):
    the float64 copy's result, rounded once.
    """

    geometry: VolumeGeometry
    data: np.ndarray

    def __post_init__(self):
        self._freeze(np.array(self.data, dtype=np.float64, order="F"))

    def _freeze(self, arr: np.ndarray) -> None:
        assert arr.dtype in _INTENSITY_DTYPES
        if arr.shape != self.geometry.dims:
            raise GeometryError(
                f"data shape {arr.shape} does not match dims {self.geometry.dims}"
            )
        _check_finite(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def band(self, z0: int, z1: int) -> np.ndarray:
        """Planes ``z0 .. z1-1`` of ``data``: a view, x-fastest like the volume."""
        return self.data[:, :, z0:z1]

    def with_data(self, data: np.ndarray) -> "IntensityVolume":
        return IntensityVolume(self.geometry, data)


def _check_finite(arr: np.ndarray) -> None:
    """Refuse intensities holding a NaN or an infinity."""
    # min and max propagate NaN, so this checks every voxel without a mask
    if not np.isfinite([arr.min(), arr.max()]).all():
        raise GeometryError("intensity data contains NaN or Inf")


# bytes of planes a whole-volume pass over an intensity source takes at once
_BAND_BYTES = 1 << 20


def _bands(src) -> list:
    """``(z0, z1)`` ranges that cover the planes of ``src``, ``_BAND_BYTES`` (or one plane) each."""
    nx, ny, nz = src.dims
    step = max(1, _BAND_BYTES // (nx * ny * src.dtype.itemsize))
    return [(z0, min(z0 + step, nz)) for z0 in range(0, nz, step)]


@dataclass(frozen=True)
class LabelVolume(_Volume):
    """An integer 3D label map on a :class:`VolumeGeometry`.

    Values live in ``[0, num_labels - 1]`` with 0 reserved for background.
    When ``num_labels`` is omitted it is inferred as ``max(data) + 1``
    (never below 2).  ``data`` is held in ``_label_dtype(num_labels)``:
    uint8 up to 256 labels (the paper's 133 included), uint16 above.  The
    constructor copies ``data`` into that type, x-fastest, refusing any
    value that is negative, above 65535 or not a whole number; arrays the
    package builds (``_labels``) are adopted without a copy (``_adopt``)
    after the same checks.
    """

    geometry: VolumeGeometry
    data: np.ndarray
    num_labels: int = field(default=0)

    def __post_init__(self):
        self._freeze(_label_array(self.data, self.num_labels), self.num_labels)

    def _freeze(self, arr: np.ndarray, num_labels: int) -> None:
        if arr.shape != self.geometry.dims:
            raise GeometryError(
                f"data shape {arr.shape} does not match dims {self.geometry.dims}"
            )
        n = int(num_labels)
        if n == 0:
            n = max(int(arr.max()) + 1 if arr.size else 2, 2)
        if n < 2:
            raise GeometryError(f"num_labels must be at least 2, got {n}")
        if arr.size and int(arr.max()) >= n:
            raise GeometryError(
                f"label value {int(arr.max())} out of range for num_labels={n}"
            )
        assert arr.dtype == _label_dtype(n)
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "num_labels", n)

    def with_data(self, data: np.ndarray) -> "LabelVolume":
        return LabelVolume(self.geometry, data, self.num_labels)


def _label_dtype(num_labels: int) -> np.dtype:
    """The element type of a label volume: uint8 up to 256 labels, uint16 above."""
    return np.dtype(np.uint8 if num_labels <= 256 else np.uint16)


def _intensity_dtype(source: np.dtype) -> np.dtype:
    """The element type of an intensity volume built from ``source`` voxels.

    float64 for a float64 source; float32 for a stored type (float32, int16
    or uint8), which float32 holds exactly.
    """
    return np.dtype(np.float64 if source == np.float64 else np.float32)


def _labels(dims, fill: int, num_labels: int) -> np.ndarray:
    """A new label array of ``dims`` filled with ``fill``: the label type, x-fastest."""
    return np.full(dims, fill, dtype=_label_dtype(num_labels), order="F")


def _label_array(data, num_labels: int = 0, error=GeometryError) -> np.ndarray:
    """An x-fastest copy of ``data`` in the label type of ``num_labels`` (0: inferred).

    Raises ``error`` on a value that is negative, above 65535 or not a whole
    number.  The type is chosen for ``max(num_labels, max(data) + 1)``, so a
    value out of range is copied unchanged and the volume's range check
    names it.
    """
    arr = np.asarray(data)
    if not (
        np.can_cast(arr.dtype, np.uint16)  # bool, uint8, uint16: no pass
        or np.can_cast(arr.dtype, np.int16) and arr.min(initial=0) >= 0  # one pass
    ):
        with np.errstate(invalid="ignore"):  # NaN casts quietly; the check below catches it
            wide = np.array(arr, dtype=np.uint16)
        if not np.array_equal(wide, arr):
            bad = arr[wide != arr][0]
            reason = "negative" if bad < 0 else "above 65535" if bad > 65535 else "not a whole number"
            raise error(
                f"label value {bad} is {reason}; labels are whole numbers in [0, 65535],"
                " stored as uint8 up to 256 labels and as uint16 above"
            )
    top = int(arr.max(initial=0))
    return arr.astype(_label_dtype(max(int(num_labels), top + 1)), order="F")


# ---------------------------------------------------------------------------
# Resampling
# ---------------------------------------------------------------------------

# Crop boxes are computed for this many target planes at once
_BOX_BLOCK = 16


def _boxes(m: np.ndarray, dims, z0: int, z1: int, lo: float, hi) -> list:
    """Index boxes ``(x, y)`` of the voxels in planes ``z0 .. z1-1`` that can map into the source.

    A voxel lands in the source only if its coordinate on every axis ``a``
    lies in ``[lo, hi[a]]``.  Along a row of a plane the coordinate is
    linear in x, so each axis allows one x-interval; a plane's box is the
    hull of its rows where the three intervals meet, rounded outward to
    whole voxels.  Each interval is widened by ``eps``, far above the
    rounding of the coordinate sums, so a voxel outside the box falls
    outside the source bit for bit.  The rows of all the planes are one
    ``(planes, ny)`` array, each element computed as it would be for its
    plane alone.  A plane no voxel of which can land gets None.
    """
    nx, ny, nz = dims
    yi = np.arange(ny, dtype=np.float64)
    zi = np.arange(z0, z1, dtype=np.float64)[:, None]
    xa = np.zeros((z1 - z0, ny))
    xb = np.full((z1 - z0, ny), nx - 1.0)
    for a in range(3):
        k = m[a, 0]
        eps = 1e-9 * (1.0 + np.abs(m[a]) @ (nx, ny, nz, 1.0))
        rest = m[a, 1] * yi + m[a, 2] * zi + m[a, 3]
        below, above = lo - eps - rest, hi[a] + eps - rest  # bounds on k * x
        if abs(k) * nx <= eps:  # k * x stays within eps: a row is all in or all out
            xb[(below > eps) | (above < -eps)] = -1.0
        else:
            ends = below / k, above / k
            np.maximum(xa, np.minimum(*ends), out=xa)
            np.minimum(xb, np.maximum(*ends), out=xb)
    rows = xa <= xb
    starts = np.floor(np.where(rows, xa, np.inf).min(axis=1)).tolist()
    stops = np.ceil(np.where(rows, xb, -np.inf).max(axis=1)).tolist()
    first = rows.argmax(axis=1).tolist()
    last = (ny - 1 - rows[:, ::-1].argmax(axis=1)).tolist()
    return [
        (slice(int(x0), int(x1) + 1), slice(y0, y1 + 1)) if hit else None
        for hit, x0, x1, y0, y1 in zip(rows.any(axis=1).tolist(), starts, stops, first, last)
    ]


def _plane_terms(dims, m: np.ndarray) -> list:
    """``m[a, 0] * x + m[a, 1] * y`` over one target plane, for each axis ``a``.

    The part of each coordinate that is the same on every plane; computed
    once per resample and read by every thread of the sweep.
    """
    nx, ny, _ = dims
    xi = np.arange(nx, dtype=np.float64)[:, None]
    yi = np.arange(ny, dtype=np.float64)[None, :]
    return [m[a, 0] * xi + m[a, 1] * yi for a in range(3)]


def _planes(dims, m: np.ndarray, terms: list, z_range, reach):
    """Map the target voxels that can reach the source through ``m``, one plane at a time.

    Yields ``(box, coords)`` per plane ``z`` in ``z_range`` that has such
    voxels: ``box`` is ``(x slice, y slice, z)``, cropped by ``_boxes`` to
    the voxels that can map into ``reach = (lo, hi)`` on every axis, and
    ``coords[a]`` is row ``a`` of ``m @ [i, j, z, 1]`` over the box, summed
    as ``terms[a] + m[a, 2] * z + m[a, 3]``: the same expression, in the
    same order, for each voxel in any box.
    """
    start, stop = z_range
    for z0 in range(start, stop, _BOX_BLOCK):
        z1 = min(z0 + _BOX_BLOCK, stop)
        for z, box in zip(range(z0, z1), _boxes(m, dims, z0, z1, *reach)):
            if box is None:
                continue
            yield (*box, z), [terms[a][box] + m[a, 2] * z + m[a, 3] for a in range(3)]


# target voxels per resampling thread, at least: below it a second thread
# costs more than it saves.  On a 2-CPU host two threads break even near
# 0.9 M target voxels for trilinear and 2-4 M for nearest-neighbour
_SWEEP_VOXELS = 1 << 19


def _sweep(kernel, dims, jobs: int) -> None:
    """Run ``kernel(z_range)`` over the z planes of ``dims``, split into contiguous ranges.

    There are ``min(jobs, nz, usable CPUs, voxels // _SWEEP_VOXELS)``
    ranges, at least one, and as many threads, the calling thread among
    them (``_each``).  Each range runs one plane at a time and writes only
    its own planes, so one plane of temporaries is in flight per thread.
    Threads beyond the usable CPUs cannot run at once; each would only add
    its plane of temporaries and its malloc arena.
    """
    if hasattr(os, "sched_getaffinity"):
        ncpu = len(os.sched_getaffinity(0))
    else:
        ncpu = os.cpu_count() or 1
    nz = dims[2]
    threads = max(1, min(jobs, nz, ncpu, math.prod(dims) // _SWEEP_VOXELS))
    cuts = [nz * i // threads for i in range(threads + 1)]
    _each(kernel, list(zip(cuts, cuts[1:])), threads)


def _each(fn, items, jobs: int) -> list:
    """``[fn(item) for item in items]``, on ``min(jobs, len(items))`` threads at once.

    The calling thread and the pool threads take the next item from one
    shared iterator, so each item runs once, and the results keep item
    order.  Once a call raises, no thread takes another item, and the first
    failure in item order is raised: every item before it was taken, so it
    ran.  A pool thread allocates from its own fresh malloc arena (at
    ``jobs=2`` a second one raised a benchmark scan's peak RSS by 11 MB).
    """
    results, failures = [None] * len(items), {}
    todo = iter(enumerate(items))  # its next() is atomic

    def work():  # raises nothing, so leaving the pool's block is the join
        for i, item in todo:
            try:
                results[i] = fn(item)
            except BaseException as exc:
                failures[i] = exc
                for _ in todo:  # no thread takes another item
                    pass

    threads = min(jobs, len(items))
    with ThreadPoolExecutor(max(1, threads - 1)) as pool:
        for _ in range(threads - 1):
            pool.submit(work)
        work()
    if failures:
        raise failures[min(failures)]
    return results


def _pullback(source: VolumeGeometry, transform: AffineTransform, target) -> np.ndarray:
    """Check a resample request; return its target-index -> source-index matrix."""
    if not isinstance(target, VolumeGeometry):
        raise GeometryError("target must be a VolumeGeometry")
    # target index -> target world -> source world -> source index
    return (
        source.index_to_world.inverse().matrix
        @ transform.matrix
        @ target.index_to_world.matrix
    )


def _lerp(a: np.ndarray, b: np.ndarray, f: np.ndarray) -> np.ndarray:
    """``a + f * (b - a)``, written into ``a``; ``b`` is overwritten."""
    b -= a
    b *= f
    a += b
    return a


def _ring_planes(m: np.ndarray, dims, nz: int) -> int:
    """Source planes one target plane's box reaches through ``m``, up to ``nz``.

    The z coordinates over a target plane span ``|m[2,0]|(tx-1) +
    |m[2,1]|(ty-1)``, so their floors differ by at most that span's
    ceiling, and the plane above the highest floor adds one.  The rounding
    of the coordinate sums can widen a window by one more plane; the ring
    then grows (``_PlaneRing``).
    """
    tx, ty, _ = dims
    spread = abs(m[2, 0]) * (tx - 1) + abs(m[2, 1]) * (ty - 1)
    return int(min(math.ceil(spread) + 2, nz))


class _PlaneRing:
    """One sweep thread's planes of a file source: plane ``z`` in slot ``z % size``.

    ``fill(lo, hi)`` reads the planes ``lo .. hi`` that the ring does not
    hold yet, one ``band`` each, so a window that moves through the source
    reads each plane once.  It returns the slots as one flat array,
    x-fastest within a slot, ``size``, and the slots' stride in elements.
    A slot is a plane and one cache line more: at a power-of-two plane
    stride the corners of a reoriented warp, one plane apart, compete for
    the same cache sets (a 256x256 float32 scan turned 90 degrees took
    1.7x as long to register).  Slot
    ``size`` repeats slot 0, so the plane above the one in the last slot
    is the next slot on, as in a volume.  A window wider than the ring
    (the rounding of a warp can make one a plane wider than
    ``_ring_planes``) gets a new, wider ring.
    """

    def __init__(self, src, size: int):
        self.src = src
        self._allot(size)

    def _allot(self, size: int) -> None:
        nx, ny, _ = self.src.dims
        self.plane = nx * ny
        line = 64 // self.src.dtype.itemsize  # elements in a cache line
        self.slots = np.empty((size + 1, self.plane + line), self.src.dtype)
        self.held = [-1] * size

    def fill(self, lo: int, hi: int):
        if hi - lo >= len(self.held):
            self._allot(hi - lo + 1)
        size = len(self.held)
        for z in range(lo, hi + 1):
            k = z % size
            if self.held[k] != z:
                self.slots[k, :self.plane] = self.src.band(z, z + 1).ravel(order="F")
                self.held[k] = z
                if k == 0:
                    self.slots[size] = self.slots[0]
        return self.slots.reshape(-1), size, self.slots.shape[1]


def resample_intensity(
    src,
    transform: AffineTransform,
    target: VolumeGeometry,
    jobs: int = 1,
) -> IntensityVolume:
    """Pull-back trilinear resampling of ``src`` onto ``target``.

    ``src`` is an :class:`IntensityVolume` or a scan file opened as
    ``io.NiftiScan``: anything with ``geometry``, ``dims``, ``dtype`` and
    ``band(z0, z1)``, which gives source planes ``z0 .. z1-1`` x-fastest.
    Each target plane gathers from a window of the source planes it
    reaches, each plane in slot ``z % slots`` of the window: all of a
    volume's ``data``, one slot per plane, or a thread's ``_PlaneRing`` of
    a file.  The rings of the threads together hold at most the source's
    planes, one more each, so a warp whose target plane reaches more than
    half of them runs one thread.  A plane whose voxels all have their
    eight corners builds the lowest corner's index only, and steps from it.
    ``transform`` maps target world coordinates into source world
    coordinates.  Target voxels that map outside the source grid (continuous
    index beyond ``[0, n-1]`` on any axis) receive +0.0.  ``jobs`` threads
    split the target's z planes; the output is the same bit for bit.  Each
    voxel is computed in float64 and stored in ``_intensity_dtype`` of the
    source: float32 for a stored type.
    """
    m = _pullback(src.geometry, transform, target)
    sx, sy, sz = src.dims
    sty = sx  # the y stride in elements (x's is 1); a window gives the plane stride
    out = np.zeros(target.dims, dtype=_intensity_dtype(src.dtype), order="F")
    reach = (0.0, (sx - 1, sy - 1, sz - 1))
    terms = _plane_terms(target.dims, m)
    # a new thread's window: a volume's data as it is, or a ring of the file's planes
    if isinstance(src, IntensityVolume):
        whole = src.data.ravel(order="F")
        new_window = lambda: lambda lo, hi: (whole, sz, sx * sy)
    else:
        size = _ring_planes(m, target.dims, sz)
        jobs = min(jobs, max(1, sz // size))  # the rings together: at most the source
        new_window = lambda: _PlaneRing(src, size).fill

    def kernel(z_range):
        window = new_window()

        def at(buf, corner):
            """Each voxel's ``corner``, a step from ``i000`` or an index, widened into ``buf``."""
            np.copyto(buf, flat[corner:].take(i000) if inside is None else flat.take(corner))
            return buf

        for box, (cx, cy, cz) in _planes(target.dims, m, terms, z_range, reach):
            x0, y0, z0 = np.floor(cx), np.floor(cy), np.floor(cz)
            # the source planes the box reaches, each voxel's z0 and the one above,
            # clipped to the source; a NaN reaches them all
            lo = int(min(np.fmax(z0.min(), 0.0), sz - 1))
            hi = int(max(np.fmin(z0.max() + 1.0, sz - 1), lo))
            flat, slots, stz = window(lo, hi)
            # whole numbers, so exact: the index into the window, where the planes
            # from `top` on have wrapped round to slot 0
            base = lo - lo % slots
            top = base + slots
            i000 = x0 + y0 * sty + z0 * stz
            i000 -= base * stz
            if hi >= top:
                i000 -= (z0 >= top) * float(slots * stz)
            # when every voxel has all eight corners, no mask and scalar steps
            inside, dx, dy, dz = None, 1, sty, stz
            if not all(c.min() >= 0.0 and c.max() < n - 1 for c, n in zip((cx, cy, cz), src.dims)):
                inside = np.ones(cx.shape, dtype=bool)
                for c, n in zip((cx, cy, cz), src.dims):
                    inside &= (c >= 0.0) & (c <= n - 1)
                # outside voxels gather voxel 0 and get 0.0 below; the step
                # to the upper neighbour is 0 on the last plane, where b - a is 0 and
                # a lerp returns a
                i000 = np.where(inside, i000, 0.0)
                dx = inside & (cx < sx - 1)
                dy = (inside & (cy < sy - 1)) * sty
                dz = (inside & (cz < sz - 1)) * stz
            i000 = i000.astype(np.intp)
            c000 = 0 if inside is None else i000  # no mask: each corner a fixed step
            i100, i010 = c000 + dx, c000 + dy
            i110 = i100 + dy
            # the fractions overwrite the coordinates; the floors, not read again,
            # and one more plane take the gathers, widened to float64, and the lerps
            # a + f*(b - a), run in place: four along x, two along y, one along z
            fx, fy, fz = (np.subtract(c, c0, out=c) for c, c0 in ((cx, x0), (cy, y0), (cz, z0)))
            step = np.empty_like(x0)
            below = _lerp(_lerp(at(x0, c000), at(step, i100), fx),
                          _lerp(at(y0, i010), at(step, i110), fx), fy)
            above = _lerp(_lerp(at(y0, c000 + dz), at(step, i100 + dz), fx),
                          _lerp(at(z0, i010 + dz), at(step, i110 + dz), fx), fy)
            val = _lerp(below, above, fz)
            # not val * inside: that stores -0.0 where val is negative
            out[box] = val if inside is None else np.where(inside, val, 0.0)

    _sweep(kernel, target.dims, jobs)
    return IntensityVolume._adopt(target, out)


def resample_labels(
    src: LabelVolume,
    transform: AffineTransform,
    target: VolumeGeometry,
    jobs: int = 1,
) -> LabelVolume:
    """Pull-back nearest-neighbor resampling of a label map onto ``target``.

    Half-voxel ties round toward negative infinity.  Voxels whose rounded
    source index falls outside the grid receive label 0, the background.
    ``jobs`` threads split the target's z planes; the output is the same
    bit for bit.
    """
    m = _pullback(src.geometry, transform, target)
    sx, sy, _ = src.dims
    flat = src.data.ravel(order="F")  # a view: volumes hold x-fastest arrays
    sty, stz = sx, sx * sy
    out = _labels(target.dims, 0, src.num_labels)
    reach = (-0.5, tuple(n - 0.5 for n in src.dims))
    terms = _plane_terms(target.dims, m)

    def kernel(z_range):
        for box, (rx, ry, rz) in _planes(target.dims, m, terms, z_range, reach):
            inside = np.ones(rx.shape, dtype=bool)
            for c, n in zip((rx, ry, rz), src.dims):
                np.ceil(np.subtract(c, 0.5, out=c), out=c)  # round half toward -inf
                inside &= (c >= 0.0) & (c < n)
            # a non-finite coordinate must not reach the integer cast: voxel 0 instead
            index = np.where(inside, rx + ry * sty + rz * stz, 0.0).astype(np.intp)
            labels = flat.take(index)
            labels *= inside  # 0 outside
            out[box] = labels

    _sweep(kernel, target.dims, jobs)
    return LabelVolume._adopt(target, out, src.num_labels)


# ---------------------------------------------------------------------------
# Moments-based affine estimation
# ---------------------------------------------------------------------------


def _intensity_moments(vol):
    """Intensity-weighted world centroid and per-world-axis std.

    ``vol`` is an intensity volume or source, as for ``resample_intensity``.
    Summed into float64 marginals from the voxels as stored, with no copy,
    one band of planes at a time (``_bands``).  Each marginal has the bits
    of ``vol.data.sum(axis=a, dtype=float64)`` on the whole volume: sums
    over x and y stay within a plane, and the sum over z adds the planes
    in order onto zeros, as numpy's reduction does.  Those are the bits of
    a float64 copy's sums while the x extent, the axis contiguous in
    memory, is at most numpy's 8192-element buffer.
    """
    nx, ny, nz = vol.dims
    # w_yz sums out x, w_xz sums out y, w_xy sums out z; x-fastest, as numpy's are
    w_yz, w_xz = np.empty((ny, nz), order="F"), np.empty((nx, nz), order="F")
    w_xy = np.zeros((nx, ny), order="F")
    for z0, z1 in _bands(vol):
        band = vol.band(z0, z1)
        band.sum(axis=0, dtype=np.float64, out=w_yz[:, z0:z1])
        band.sum(axis=1, dtype=np.float64, out=w_xz[:, z0:z1])
        for k in range(band.shape[2]):
            w_xy += band[:, :, k]
    margins = w_xy.sum(axis=1), w_xy.sum(axis=0), w_xz.sum(axis=0)
    mass = margins[0].sum()
    if not mass > _DET_EPS:
        raise GeometryError("volume has (near-)zero total intensity")
    index = [np.arange(n, dtype=np.float64) for n in vol.dims]
    mean = np.array([i @ m for i, m in zip(index, margins)]) / mass
    dx, dy, dz = (i - c for i, c in zip(index, mean))
    xy, xz, yz = dx @ w_xy @ dy, dx @ w_xz @ dz, dy @ w_yz @ dz
    cov = np.array([
        [(dx * dx) @ margins[0], xy, xz],
        [xy, (dy * dy) @ margins[1], yz],
        [xz, yz, (dz * dz) @ margins[2]],
    ]) / mass
    m = vol.geometry.index_to_world
    var = np.diag(m.linear @ cov @ m.linear.T)
    return m.linear @ mean + m.offset, np.sqrt(np.maximum(var, 0.0))


def estimate_affine_moments(
    moving: IntensityVolume, fixed: IntensityVolume
) -> AffineTransform:
    """Approximate registration from intensity moments.

    Aligns the intensity centroid and per-axis second central moments:
    translation plus anisotropic scaling, no rotation or shear.  The result
    maps fixed-space world coordinates into moving-space world coordinates,
    ready for pull-back resampling of ``moving`` onto ``fixed``'s grid.

    Each volume's moments are taken in index space from the 1-D margins
    ``m_i`` and the 2-D marginal sums ``W_ij`` of its intensities ``w``:
    ``mass = sum(w)``, ``mean_i = (i @ m_i) / mass`` and, with the centred
    index vectors ``d_i = i - mean_i``, the covariance ``C_ii = ((d_i *
    d_i) @ m_i) / mass`` and ``C_ij = (d_i @ W_ij @ d_j) / mass``.  With
    ``index_to_world = [L | t]`` the world centroid is ``L @ mean + t`` and
    the per-axis variance is ``diag(L @ C @ L.T)``.  Centred, a volume on
    an axis-aligned grid whose intensity lies on one plane has a spread of
    0 (up to the rounding of its mean) across it, and is refused.

    This is a deliberately weak substitute for a real registration tool;
    supply a precomputed affine for production alignment.
    """
    c_mov, s_mov = _intensity_moments(moving)
    c_fix, s_fix = _intensity_moments(fixed)
    if np.any(s_fix <= _DET_EPS) or np.any(s_mov <= _DET_EPS):
        raise GeometryError("degenerate intensity spread; cannot estimate scaling")
    scale = s_mov / s_fix
    linear = np.diag(scale)
    translation = c_mov - scale * c_fix
    return AffineTransform.from_linear_translation(linear, translation)
