"""NIfTI-1 single-file reading/writing plus a raw fixture format.

The reader accepts either byte order (detected from the 348 header-size
field) and the uint8 / int16 / float32 datatypes; the writer always emits
little-endian files with float32 intensities or int16 labels.  Scale
fields (scl_slope/scl_inter) are not applied; the data section is decoded
as stored.

The raw format is a JSON sidecar (dims, spacing, affine, dtype) next to a
flat little-endian binary blob in x-fastest order.  It exists for test
fixtures where bit-exact float64 round-trips matter.
"""

from __future__ import annotations

import json
import os
import struct
import uuid
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import (
    AffineTransform,
    IntensityVolume,
    LabelVolume,
    VolumeGeometry,
)

__all__ = [
    "NiftiFormatError",
    "NiftiHeaderSummary",
    "read_nifti",
    "write_nifti",
    "read_raw",
    "write_raw",
    "write_atomic",
]

HEADER_SIZE = 348
VOX_OFFSET = 352
MAGIC = b"n+1\x00"

DT_UINT8 = 2
DT_INT16 = 4
DT_FLOAT32 = 16

_DTYPE_NAMES = {DT_UINT8: "uint8", DT_INT16: "int16", DT_FLOAT32: "float32"}
_DTYPE_NUMPY = {DT_UINT8: "u1", DT_INT16: "i2", DT_FLOAT32: "f4"}
_BITPIX = {DT_UINT8: 8, DT_INT16: 16, DT_FLOAT32: 32}

# '<'/'>' + this yields exactly 348 bytes
_HEADER_FMT = (
    "i"      # sizeof_hdr
    "10s"    # data_type (unused)
    "18s"    # db_name (unused)
    "i"      # extents
    "h"      # session_error
    "1s"     # regular
    "1s"     # dim_info
    "8h"     # dim
    "3f"     # intent_p1..p3
    "h"      # intent_code
    "h"      # datatype
    "h"      # bitpix
    "h"      # slice_start
    "8f"     # pixdim
    "f"      # vox_offset
    "f"      # scl_slope
    "f"      # scl_inter
    "h"      # slice_end
    "1s"     # slice_code
    "1s"     # xyzt_units
    "f"      # cal_max
    "f"      # cal_min
    "f"      # slice_duration
    "f"      # toffset
    "i"      # glmax
    "i"      # glmin
    "80s"    # descrip
    "24s"    # aux_file
    "h"      # qform_code
    "h"      # sform_code
    "6f"     # quatern_b..qoffset_z
    "12f"    # srow_x, srow_y, srow_z
    "16s"    # intent_name
    "4s"     # magic
)
assert struct.calcsize("<" + _HEADER_FMT) == HEADER_SIZE


class NiftiFormatError(ValueError):
    """Malformed or unsupported NIfTI-1 content."""


@dataclass(frozen=True)
class NiftiHeaderSummary:
    """The header fields this package reads and honors."""

    dims: tuple
    datatype_code: str
    spacing: tuple
    srow: np.ndarray  # 3x4, world affine rows as stored
    vox_offset: int
    byte_order: str  # "little" | "big"


def _unpack_header(raw: bytes):
    if len(raw) < HEADER_SIZE:
        raise NiftiFormatError(f"file too short for a NIfTI-1 header ({len(raw)} bytes)")
    for endian, name in (("<", "little"), (">", "big")):
        (size,) = struct.unpack_from(endian + "i", raw, 0)
        if size == HEADER_SIZE:
            return struct.unpack(endian + _HEADER_FMT, raw[:HEADER_SIZE]), endian, name
    raise NiftiFormatError("header size field is not 348 in either byte order")


def read_nifti(path, as_labels: bool = False, num_labels: int | None = None):
    """Read a single-file NIfTI-1 volume.

    Returns ``(IntensityVolume, NiftiHeaderSummary)`` or, with
    ``as_labels=True``, ``(LabelVolume, NiftiHeaderSummary)``.  The world
    affine is taken from the srow (sform) rows; if the sform is absent a
    spacing-only diagonal affine is used and a warning is issued.
    """
    path = Path(path)
    blob = path.read_bytes()
    fields, endian, order_name = _unpack_header(blob)

    dim = fields[7:15]
    datatype = fields[19]
    pixdim = fields[22:30]
    if not np.all(np.isfinite([fields[30], *pixdim[1:4], *fields[52:64]])):
        raise NiftiFormatError("non-finite vox_offset, pixdim or srow in the header")
    vox_offset = int(fields[30])
    sform_code = fields[45]
    srow = np.array(fields[52:64], dtype=np.float64).reshape(3, 4)
    magic = fields[65]

    if magic != MAGIC:
        raise NiftiFormatError(f"bad magic {magic!r}; only single-file n+1 supported")
    if datatype not in _DTYPE_NAMES:
        raise NiftiFormatError(f"unsupported datatype code {datatype}")
    ndim = dim[0]
    if not 3 <= ndim <= 7:
        raise NiftiFormatError(f"dim[0] = {ndim}; need a 3D volume")
    if any(d not in (0, 1) for d in dim[4 : ndim + 1]):
        raise NiftiFormatError(f"volume has more than 3 non-trivial dimensions: {dim}")
    dims = tuple(int(d) for d in dim[1:4])
    if any(d <= 0 for d in dims):
        raise NiftiFormatError(f"non-positive dims {dims}")
    if vox_offset < VOX_OFFSET:
        raise NiftiFormatError(f"vox_offset {vox_offset} below minimum {VOX_OFFSET}")

    spacing = tuple(float(p) for p in pixdim[1:4])
    if sform_code > 0:
        if abs(np.linalg.det(srow[:, :3])) <= 1e-12:
            raise NiftiFormatError("non-invertible srow affine")
        affine = np.eye(4)
        affine[:3, :] = srow
        if not all(s > 0 for s in spacing):
            spacing = tuple(float(np.linalg.norm(srow[:, i])) for i in range(3))
    else:
        warnings.warn(
            f"{path.name}: no sform affine; falling back to spacing-only diagonal",
            stacklevel=2,
        )
        if not all(s > 0 for s in spacing):
            raise NiftiFormatError(f"no sform and non-positive pixdim {spacing}")
        affine = np.diag([*spacing, 1.0])
        srow = affine[:3, :].copy()

    nvox = dims[0] * dims[1] * dims[2]
    dtype = np.dtype(endian + _DTYPE_NUMPY[datatype])
    nbytes = nvox * dtype.itemsize
    have = max(len(blob) - vox_offset, 0)
    if have < nbytes:
        raise NiftiFormatError(f"truncated data section: need {nbytes} bytes, have {have}")
    # a view of the file bytes; the volume constructor makes the only copy
    arr = np.frombuffer(blob, dtype, count=nvox, offset=vox_offset)
    arr = arr.reshape(dims, order="F")

    geometry = VolumeGeometry(dims, spacing, AffineTransform(affine))
    summary = NiftiHeaderSummary(
        dims=dims,
        datatype_code=_DTYPE_NAMES[datatype],
        spacing=spacing,
        srow=srow,
        vox_offset=vox_offset,
        byte_order=order_name,
    )
    if as_labels:
        if arr.min() < 0:
            raise NiftiFormatError("negative values in a label volume")
        vol = LabelVolume(geometry, arr, num_labels or 0)
    else:
        vol = IntensityVolume(geometry, arr)
    return vol, summary


def write_nifti(vol, path) -> None:
    """Write an IntensityVolume (float32) or LabelVolume (int16) as .nii.

    Always little-endian, data at byte offset 352, sform carrying the
    volume's index-to-world affine.
    """
    path = Path(path)
    dims = vol.dims
    if any(d > 32767 for d in dims):
        raise NiftiFormatError(f"dims {dims} overflow the int16 header fields")
    if isinstance(vol, LabelVolume):
        if int(vol.data.max(initial=0)) > 32767:
            raise NiftiFormatError("label values exceed int16 range")
        datatype = DT_INT16
        arr = vol.data.astype("<i2", order="F")
    else:
        datatype = DT_FLOAT32
        arr = vol.data.astype("<f4", order="F")

    m = vol.geometry.index_to_world.matrix
    dim = (3, *dims, 1, 1, 1, 1)
    pixdim = (1.0, *vol.geometry.spacing, 0.0, 0.0, 0.0, 0.0)
    srow = tuple(float(v) for v in m[:3, :].reshape(-1))

    header = struct.pack(
        "<" + _HEADER_FMT,
        HEADER_SIZE,
        b"", b"",
        0, 0, b"r", b"\x00",
        *dim,
        0.0, 0.0, 0.0,
        0,
        datatype,
        _BITPIX[datatype],
        0,
        *pixdim,
        float(VOX_OFFSET),
        1.0, 0.0,
        0, b"\x00", b"\x00",
        0.0, 0.0, 0.0, 0.0,
        0, 0,
        b"tileseg", b"",
        0,          # qform_code
        2,          # sform_code: aligned to a template space
        0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
        *srow,
        b"",
        MAGIC,
    )
    # the 4 zero bytes after the header: no extensions; the voxels are written
    # from a flat view of the one F-ordered copy
    write_atomic(path, header, b"\x00\x00\x00\x00", arr.ravel(order="F"))


def write_atomic(path, *chunks) -> None:
    """Write bytes-like ``chunks`` to a unique sibling temp file, then rename it.

    A process killed mid-write leaves the old file or none, never a prefix;
    the temp file is removed on any exception.  There is no fsync, so this
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
# Raw fixture format
# ---------------------------------------------------------------------------


def write_raw(vol, path) -> None:
    """Write a volume as ``path`` (binary blob) + ``path.json`` (sidecar), each atomically."""
    path = Path(path)
    if isinstance(vol, LabelVolume):
        kind, dtype = "labels", "<u2"
    else:
        kind, dtype = "intensity", "<f8"
    arr = vol.data.astype(dtype, order="F")
    meta = {
        "kind": kind,
        "dtype": dtype,
        "dims": list(vol.dims),
        "spacing": list(vol.geometry.spacing),
        "index_to_world": vol.geometry.index_to_world.matrix.reshape(-1).tolist(),
    }
    if kind == "labels":
        meta["num_labels"] = vol.num_labels
    write_atomic(path, arr.ravel(order="F"))
    write_atomic(str(path) + ".json", json.dumps(meta, indent=1).encode())


def read_raw(path):
    """Read a volume written by :func:`write_raw`."""
    path = Path(path)
    meta = json.loads(Path(str(path) + ".json").read_text())
    dims = tuple(meta["dims"])
    affine = np.array(meta["index_to_world"], dtype=np.float64).reshape(4, 4)
    geometry = VolumeGeometry(dims, tuple(meta["spacing"]), AffineTransform(affine))
    flat = np.frombuffer(path.read_bytes(), dtype=np.dtype(meta["dtype"]))
    nvox = dims[0] * dims[1] * dims[2]
    if flat.size != nvox:
        raise NiftiFormatError(f"raw blob holds {flat.size} values, expected {nvox}")
    arr = flat.reshape(dims, order="F")
    # astype makes the one copy of the blob, which the volume adopts
    if meta["kind"] == "labels":
        return LabelVolume._adopt(geometry, arr.astype(np.uint16), meta.get("num_labels", 0))
    return IntensityVolume._adopt(geometry, arr.astype(np.float64))
