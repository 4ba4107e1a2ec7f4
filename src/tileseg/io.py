"""NIfTI-1 single-file reading/writing plus a raw fixture format.

The header is one named record, ``_HEADER``, read and written by field
name.  The reader accepts either byte order (detected from the 348
header-size field) and the uint8 / int16 / float32 datatypes; the writer
always emits little-endian files with float32 intensities or int16
labels.  Scale fields (scl_slope/scl_inter) are not applied; the data
section is decoded as stored, and an intensity volume keeps it as stored:
its voxels are a read-only view of the file bytes (a big-endian file gets
one native-order copy of the same width), not a float64 copy.

The raw format is a JSON sidecar (dims, spacing, affine, dtype) next to a
flat little-endian binary blob in x-fastest order.  It exists for test
fixtures where bit-exact float64 round-trips matter.
"""

from __future__ import annotations

import json
import os
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
    _label_array,
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
        header = np.frombuffer(raw, _HEADER.newbyteorder(endian), count=1)[0]
        if header["sizeof_hdr"] == HEADER_SIZE:
            return header, endian, name
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
    header, endian, order_name = _unpack_header(blob)

    # as Python values: a numpy cast of a signalling NaN would warn
    dim = tuple(header["dim"].tolist())
    datatype = int(header["datatype"])
    spacing = tuple(header["pixdim"][1:4].tolist())
    srow = np.array(header["srow"].tolist())
    if not np.all(np.isfinite([float(header["vox_offset"]), *spacing, *srow.ravel()])):
        raise NiftiFormatError("non-finite vox_offset, pixdim or srow in the header")
    vox_offset = int(header["vox_offset"])
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
            stacklevel=2,
        )
        if not all(s > 0 for s in spacing):
            raise NiftiFormatError(f"no sform and non-positive pixdim {spacing}")
        affine = np.diag([*spacing, 1.0])
        srow = affine[:3, :].copy()

    nvox = dims[0] * dims[1] * dims[2]
    dtype = _DTYPES[datatype].newbyteorder(endian)
    nbytes = nvox * dtype.itemsize
    have = max(len(blob) - vox_offset, 0)
    if have < nbytes:
        raise NiftiFormatError(f"truncated data section: need {nbytes} bytes, have {have}")
    # a read-only view of the file bytes
    arr = np.frombuffer(blob, dtype, count=nvox, offset=vox_offset)
    arr = arr.reshape(dims, order="F")

    geometry = VolumeGeometry(dims, spacing, AffineTransform(affine))
    summary = NiftiHeaderSummary(
        dims=dims,
        datatype_code=dtype.name,
        spacing=spacing,
        srow=srow,
        vox_offset=vox_offset,
        byte_order=order_name,
    )
    if as_labels:
        vol = LabelVolume._adopt(geometry, _label_array(arr, NiftiFormatError), num_labels or 0)
    else:
        # kept as stored; labels above are copied into uint16
        if not dtype.isnative:
            arr = arr.astype(dtype.newbyteorder("="))
        vol = IntensityVolume._adopt(geometry, arr)
    return vol, summary


def write_nifti(vol, path) -> None:
    """Write an IntensityVolume (float32) or LabelVolume (int16) as .nii.

    Always little-endian, data at byte offset 352, sform carrying the
    volume's index-to-world affine.
    """
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
        with np.errstate(over="ignore"):
            arr = vol.data.astype("<f4", order="F")
        # the volume is finite, so only a float32 overflow makes an extreme infinite
        if not np.isfinite([arr.min(), arr.max()]).all():
            raise NiftiFormatError("intensities overflow float32")

    header = np.zeros((), _HEADER.newbyteorder("<"))
    header["sizeof_hdr"] = HEADER_SIZE
    header["regular"] = b"r"
    header["dim"] = (3, *dims, 1, 1, 1, 1)
    header["datatype"] = datatype
    header["bitpix"] = 8 * arr.itemsize
    header["pixdim"] = (1.0, *vol.geometry.spacing, 0.0, 0.0, 0.0, 0.0)
    header["vox_offset"] = VOX_OFFSET
    header["scl_slope"] = 1.0
    header["descrip"] = b"tileseg"
    header["sform_code"] = 2  # aligned to a template space
    header["srow"] = vol.geometry.index_to_world.matrix[:3, :]
    header["magic"] = MAGIC
    if not np.isfinite([*header["pixdim"], *header["srow"].ravel()]).all():
        raise NiftiFormatError("spacing or affine overflow the float32 header fields")
    # the 4 zero bytes after the header: no extensions; the voxels are written
    # from a flat view of the one F-ordered copy
    write_atomic(path, header.tobytes(), b"\x00\x00\x00\x00", arr.ravel(order="F"))


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
    # each branch makes the one copy of the blob, which the volume adopts
    if meta["kind"] == "labels":
        return LabelVolume._adopt(geometry, _label_array(arr), meta.get("num_labels", 0))
    return IntensityVolume._adopt(geometry, arr.astype(np.float64))
