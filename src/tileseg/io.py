"""NIfTI-1 single-file reading/writing plus the resume cache's raw label format.

The header is one named record, ``_HEADER``, read and written by field
name.  The reader accepts either byte order (detected from the 348
header-size field) and the uint8 / int16 / float32 datatypes; the writer
always emits little-endian files with float32 intensities or int16
labels.  Scale fields (scl_slope/scl_inter) are not applied; the data
section is decoded as stored, by ``NiftiScan.band`` alone, and an
intensity volume keeps it as stored: its voxels are a read-only view of
the bytes read (a big-endian file gets one native-order copy of the same
width), not a float64 copy.  A label volume is one copy of the stored
voxels in its label type (uint8 up to 256 labels, uint16 above; see
``LabelVolume``).

``read_nifti`` reads a file as one band of a ``NiftiScan``.  A scan to be
registered is not read whole: a ``NiftiScan`` holds its header and file
descriptor, ``check_finite`` reads its voxels once, a band of planes at a
time, and the resampler's rings and the moments read the planes they need.

The raw format is the resume cache's label format: one file, the labels
alone as a flat ``<u2`` blob in x-fastest order, whatever their label
type.  The reader names the grid and the label count, which the cache
key already fixes (see ``segmenter.segment_all``).

Both writers cast and write one z plane at a time (``_planes``): every
volume has x-fastest strides (see ``geometry``), so each of its planes is
cast as it lies, and no whole-volume copy in the stored type is ever made.
"""

from __future__ import annotations

import os
import uuid
import warnings
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .geometry import (
    AffineTransform,
    IntensityVolume,
    LabelVolume,
    VolumeGeometry,
    _bands,
    _check_finite,
    _label_array,
    _label_dtype,
)

__all__ = [
    "NiftiFormatError",
    "NiftiHeaderSummary",
    "NiftiScan",
    "read_nifti",
    "write_nifti",
    "read_raw",
    "write_raw",
    "write_atomic",
]

HEADER_SIZE = 348
VOX_OFFSET = 352
MAGIC = b"n+1\x00"
MAX_DIM = 32767  # the header's dims are int16
MAX_LABELS = 32768  # label files are int16: labels 0 .. 32767

DT_INT16 = 4
DT_FLOAT32 = 16

# datatype code -> element type; the name is dtype.name, bitpix 8 * itemsize
_DTYPES = {2: np.dtype("u1"), DT_INT16: np.dtype("i2"), DT_FLOAT32: np.dtype("f4")}

_HEADER = np.dtype([
    ("sizeof_hdr", "i4"),
    ("data_type", "S10"),
    ("db_name", "S18"),
    ("extents", "i4"),
    ("session_error", "i2"),
    ("regular", "S1"),
    ("dim_info", "u1"),
    ("dim", "i2", 8),
    ("intent_p", "f4", 3),  # intent_p1..p3
    ("intent_code", "i2"),
    ("datatype", "i2"),
    ("bitpix", "i2"),
    ("slice_start", "i2"),
    ("pixdim", "f4", 8),
    ("vox_offset", "f4"),
    ("scl_slope", "f4"),
    ("scl_inter", "f4"),
    ("slice_end", "i2"),
    ("slice_code", "u1"),
    ("xyzt_units", "u1"),
    ("cal_max", "f4"),
    ("cal_min", "f4"),
    ("slice_duration", "f4"),
    ("toffset", "f4"),
    ("glmax", "i4"),
    ("glmin", "i4"),
    ("descrip", "S80"),
    ("aux_file", "S24"),
    ("qform_code", "i2"),
    ("sform_code", "i2"),
    ("quatern", "f4", 6),  # quatern_b..d, qoffset_x..z
    ("srow", "f4", (3, 4)),  # srow_x, srow_y, srow_z
    ("intent_name", "S16"),
    ("magic", "V4"),  # V, not S: an S field drops the trailing NUL
])
assert _HEADER.itemsize == HEADER_SIZE


class NiftiFormatError(ValueError):
    """Malformed or unsupported NIfTI-1 content."""


@dataclass(frozen=True)
class NiftiHeaderSummary:
    """The header fields this package reads and honors."""

    datatype_code: str
    vox_offset: int
    byte_order: str  # "little" | "big"


def _unpack_header(raw: bytes):
    if len(raw) < HEADER_SIZE:
        raise NiftiFormatError(f"file too short for a NIfTI-1 header ({len(raw)} bytes)")
    for endian, name in (("<", "little"), (">", "big")):
        header = np.frombuffer(raw, _HEADER.newbyteorder(endian), count=1)[0]
        if header["sizeof_hdr"] == HEADER_SIZE:
            return header, endian, name
    raise NiftiFormatError("header size field is not 348 in either byte order")


def _header(raw: bytes, file_size: int, path: Path):
    """Check a NIfTI-1 header and the file's size; the one reading of a header.

    ``raw`` starts with the header's 348 bytes and the file holds
    ``file_size`` bytes.  Returns ``(geometry, dtype, summary)``: ``dtype``
    is the stored element type in the file's byte order.  A data section
    shorter than the dims need raises ``NiftiFormatError``.
    """
    header, endian, order_name = _unpack_header(raw)

    # as Python values: a numpy cast of a signalling NaN would warn
    dim = tuple(header["dim"].tolist())
    datatype = int(header["datatype"])
    spacing = tuple(header["pixdim"][1:4].tolist())
    srow = np.array(header["srow"].tolist())
    if not np.all(np.isfinite([float(header["vox_offset"]), *spacing, *srow.ravel()])):
        raise NiftiFormatError("non-finite vox_offset, pixdim or srow in the header")
    vox_offset = float(header["vox_offset"])
    if not vox_offset.is_integer():
        raise NiftiFormatError(f"vox_offset {vox_offset} is not a whole number of bytes")
    vox_offset = int(vox_offset)
    magic = bytes(header["magic"])

    if magic != MAGIC:
        raise NiftiFormatError(f"bad magic {magic!r}; only single-file n+1 supported")
    if datatype not in _DTYPES:
        raise NiftiFormatError(f"unsupported datatype code {datatype}")
    ndim = dim[0]
    if not 3 <= ndim <= 7:
        raise NiftiFormatError(f"dim[0] = {ndim}; need a 3D volume")
    if any(d not in (0, 1) for d in dim[4 : ndim + 1]):
        raise NiftiFormatError(f"volume has more than 3 non-trivial dimensions: {dim}")
    dims = dim[1:4]
    if any(d <= 0 for d in dims):
        raise NiftiFormatError(f"non-positive dims {dims}")
    if vox_offset < VOX_OFFSET:
        raise NiftiFormatError(f"vox_offset {vox_offset} below minimum {VOX_OFFSET}")

    if header["sform_code"] > 0:
        if abs(np.linalg.det(srow[:, :3])) <= 1e-12:
            raise NiftiFormatError("non-invertible srow affine")
        affine = np.eye(4)
        affine[:3, :] = srow
        if not all(s > 0 for s in spacing):
            spacing = tuple(float(np.linalg.norm(srow[:, i])) for i in range(3))
    else:
        warnings.warn(
            f"{path.name}: no sform affine; falling back to spacing-only diagonal",
            stacklevel=3,
        )
        if not all(s > 0 for s in spacing):
            raise NiftiFormatError(f"no sform and non-positive pixdim {spacing}")
        affine = np.diag([*spacing, 1.0])

    dtype = _DTYPES[datatype].newbyteorder(endian)
    nbytes = dims[0] * dims[1] * dims[2] * dtype.itemsize
    have = max(file_size - vox_offset, 0)
    if have < nbytes:
        raise NiftiFormatError(f"truncated data section: need {nbytes} bytes, have {have}")

    geometry = VolumeGeometry(dims, spacing, AffineTransform(affine))
    summary = NiftiHeaderSummary(dtype.name, vox_offset, order_name)
    return geometry, dtype, summary


def read_nifti(path, as_labels: bool = False, num_labels: int | None = None):
    """Read a single-file NIfTI-1 volume.

    Returns ``(IntensityVolume, NiftiHeaderSummary)`` or, with
    ``as_labels=True``, ``(LabelVolume, NiftiHeaderSummary)``.  The world
    affine is taken from the srow (sform) rows; if the sform is absent a
    spacing-only diagonal affine is used and a warning is issued.  Integer
    labels all below ``num_labels`` are cast a band at a time, never holding
    the file's bytes whole.
    """
    with NiftiScan(path) as scan:
        if as_labels and num_labels and scan.dtype.kind in "iu":
            arr = np.empty(scan.dims, _label_dtype(num_labels), order="F")
            for z0, z1 in _bands(scan):
                band = scan.band(z0, z1)
                if band.min() < 0 or band.max() >= num_labels:
                    break
                arr[:, :, z0:z1] = band
            else:
                return LabelVolume._adopt(scan.geometry, arr, num_labels), scan.summary
        arr = scan.band(0, scan.dims[2])
    if as_labels:
        arr = _label_array(arr, num_labels or 0, NiftiFormatError)
        return LabelVolume._adopt(scan.geometry, arr, num_labels or 0), scan.summary
    return IntensityVolume._adopt(scan.geometry, arr), scan.summary


class NiftiScan:
    """A NIfTI-1 file read a band of z planes at a time.

    Opening it checks the header and the file size; only the header and
    the file descriptor stay held.  ``band(z0, z1)`` reads planes ``z0 ..
    z1-1`` with ``os.pread`` into a new x-fastest array in native byte
    order, so threads may read at once; ``read_nifti`` (all planes, or labels
    a band at a time),
    ``resample_intensity`` (a ring per thread), the moments and
    ``check_finite`` take their planes this way.  Close it, or use it as a
    context manager.
    """

    def __init__(self, path):
        path = Path(path)
        self._fd = os.open(path, os.O_RDONLY)
        try:
            raw = os.pread(self._fd, HEADER_SIZE, 0)
            self.geometry, self._stored, self.summary = _header(
                raw, os.fstat(self._fd).st_size, path
            )
            self.dims = self.geometry.dims
            self.dtype = self._stored.newbyteorder("=")
        except BaseException:
            self.close()
            raise

    def check_finite(self) -> None:
        """Refuse a NaN or infinity as an ``IntensityVolume`` does, 1 MB of planes at a time."""
        if self.dtype.kind == "f":
            for z0, z1 in _bands(self):
                _check_finite(self.band(z0, z1))

    def band(self, z0: int, z1: int) -> np.ndarray:
        """Planes ``z0 .. z1-1``, shaped ``(nx, ny, z1 - z0)``, x-fastest."""
        nx, ny, _ = self.dims
        plane = nx * ny * self._stored.itemsize
        size = (z1 - z0) * plane
        raw = os.pread(self._fd, size, self.summary.vox_offset + z0 * plane)
        if len(raw) != size:
            raise NiftiFormatError(f"short read: planes {z0}-{z1 - 1} need {size} bytes, got {len(raw)}")
        arr = np.frombuffer(raw, self._stored).reshape((nx, ny, z1 - z0), order="F")
        return arr if self._stored.isnative else arr.astype(self.dtype)

    def close(self) -> None:
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def write_nifti(vol, path) -> None:
    """Write an IntensityVolume (float32) or LabelVolume (int16) as .nii.

    Always little-endian, data at byte offset 352, sform carrying the
    volume's index-to-world affine.  The voxels are cast and written one z
    plane at a time.  An intensity that overflows float32, in any plane,
    raises ``NiftiFormatError`` and leaves the old file at ``path``, or none.
    """
    dims = vol.dims
    if max(dims) > MAX_DIM:
        raise NiftiFormatError(f"dims {dims} overflow the int16 header fields")
    if isinstance(vol, LabelVolume):
        if int(vol.data.max(initial=0)) >= MAX_LABELS:
            raise NiftiFormatError("label values exceed int16 range")
        datatype, dtype = DT_INT16, np.dtype("<i2")
    else:
        datatype, dtype = DT_FLOAT32, np.dtype("<f4")

    header = np.zeros((), _HEADER.newbyteorder("<"))
    header["sizeof_hdr"] = HEADER_SIZE
    header["regular"] = b"r"
    header["dim"] = (3, *dims, 1, 1, 1, 1)
    header["datatype"] = datatype
    header["bitpix"] = 8 * dtype.itemsize
    header["pixdim"] = (1.0, *vol.geometry.spacing, 0.0, 0.0, 0.0, 0.0)
    header["vox_offset"] = VOX_OFFSET
    header["scl_slope"] = 1.0
    header["descrip"] = b"tileseg"
    header["sform_code"] = 2  # aligned to a template space
    header["srow"] = vol.geometry.index_to_world.matrix[:3, :]
    header["magic"] = MAGIC
    if not np.isfinite([*header["pixdim"], *header["srow"].ravel()]).all():
        raise NiftiFormatError("spacing or affine overflow the float32 header fields")
    # the 4 zero bytes after the header: no extensions
    write_atomic(path, chain((header.tobytes(), bytes(4)), _planes(vol.data, dtype)))


def _planes(data: np.ndarray, dtype: np.dtype) -> Iterator[np.ndarray]:
    """The voxels of ``data`` cast to ``dtype``, one x-fastest z plane at a time.

    A plane of a volume's array (x-fastest strides) is cast as it lies.
    The volume is finite, so a narrowing cast to a float type (float64 to
    float32) that makes a plane's extreme infinite overflowed it: that
    raises ``NiftiFormatError``.  A cast that does not narrow cannot.
    """
    narrowing = dtype.kind == "f" and data.dtype.itemsize > dtype.itemsize
    for z in range(data.shape[2]):
        with np.errstate(over="ignore"):
            plane = data[:, :, z].astype(dtype, order="F")
        if narrowing and not np.isfinite([plane.min(), plane.max()]).all():
            raise NiftiFormatError(f"intensities overflow {dtype.name}")
        yield plane.ravel(order="F")


def write_atomic(path, chunks: Iterable) -> None:
    """Write the bytes-like items of ``chunks`` to a unique sibling temp file, then rename it.

    Each chunk is written as it arrives, so ``chunks`` may be a generator
    that encodes a volume piece by piece; a single blob is a one-item
    tuple.  A process killed mid-write leaves the old file or none, never a
    prefix; on any exception, the generator's own included, the temp file
    is removed and ``path`` is left as it was.  There is no fsync, so this
    guards against a killed process, not against power loss.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# Raw label format: the resume cache's entries
# ---------------------------------------------------------------------------


def write_raw(vol: LabelVolume, path) -> None:
    """Write a label volume's voxels to ``path`` as a ``<u2`` blob, atomically.

    The blob is cast and written one z plane at a time, like ``write_nifti``.
    """
    write_atomic(path, _planes(vol.data, np.dtype("<u2")))


def read_raw(path, geometry: VolumeGeometry, num_labels: int) -> LabelVolume:
    """Read a :func:`write_raw` blob as labels on ``geometry``, adopting its one copy.

    A blob of another size, or a label not below ``num_labels``, raises a ``ValueError``.
    """
    flat = np.frombuffer(Path(path).read_bytes(), dtype="<u2")
    nvox = int(np.prod(geometry.dims))
    if flat.size != nvox:
        raise NiftiFormatError(f"raw blob holds {flat.size} values, expected {nvox}")
    arr = _label_array(flat.reshape(geometry.dims, order="F"), num_labels)
    return LabelVolume._adopt(geometry, arr, num_labels)
