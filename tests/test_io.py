import hashlib
import os
import struct
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from conftest import NOT_LABELS, float32_nifti, peak_alloc, random_intensity, random_labels
from tileseg.cli import EXIT_CODES, main
from tileseg.evaluate import report as dice_report
from tileseg.geometry import (
    AffineTransform,
    GeometryError,
    IntensityVolume,
    LabelVolume,
    VolumeGeometry,
    make_centered_geometry,
)
from tileseg.harmonize import fit_model, save_model
from tileseg.io import (
    NiftiFormatError,
    read_nifti,
    read_raw,
    write_nifti,
    write_raw,
)
from tileseg.pipeline import save_affine


@pytest.mark.parametrize("num_labels, dtype", [(133, np.uint8), (300, np.uint16)])
def test_label_round_trip_is_bitwise(tmp_path, num_labels, dtype):
    src = random_labels((9, 7, 5), num_labels, seed=1)
    p = tmp_path / "lab.nii"
    write_nifti(src, p)
    out, summary = read_nifti(p, as_labels=True, num_labels=num_labels)
    assert out.data.dtype == src.data.dtype == dtype
    assert out.data.tobytes() == src.data.tobytes()
    assert out.num_labels == num_labels
    assert summary.datatype_code == "int16"
    assert summary.byte_order == "little"
    # the file holds int16 whatever the label type
    assert p.read_bytes()[352:] == src.data.astype("<i2").tobytes(order="F")


def test_high_label_value_survives(tmp_path):
    g = make_centered_geometry((3, 3, 3))
    src = LabelVolume(g, np.full((3, 3, 3), 132, dtype=np.uint16), 133)
    p = tmp_path / "lab.nii"
    write_nifti(src, p)
    out, _ = read_nifti(p, as_labels=True, num_labels=133)
    assert int(out.data.max()) == int(out.data.min()) == 132


def test_intensity_round_trip_exact_at_float32(tmp_path):
    src = random_intensity((6, 5, 4), seed=2, lo=-50.0, hi=50.0)
    p = tmp_path / "img.nii"
    write_nifti(src, p)
    out, summary = read_nifti(p)
    # storage is float32, so the round trip is exact after one cast
    npt.assert_array_equal(out.data, src.data.astype(np.float32).astype(np.float64))
    assert summary.datatype_code == "float32"


def test_affine_round_trip_within_float32(tmp_path):
    src = random_intensity((6, 5, 4), seed=2, spacing=(0.8, 1.0, 1.25))
    p = tmp_path / "img.nii"
    write_nifti(src, p)
    out, _ = read_nifti(p)
    npt.assert_allclose(
        out.geometry.index_to_world.matrix,
        src.geometry.index_to_world.matrix,
        atol=1e-5,
    )
    npt.assert_allclose(out.geometry.spacing, src.geometry.spacing, atol=1e-5)


@pytest.mark.parametrize("labels", [False, True], ids=["intensity", "labels"])
def test_written_header_layout(tmp_path, labels):
    dims, spacing = (4, 5, 3), (0.9, 1.1, 1.3)
    c, s = np.cos(0.4), np.sin(0.4)
    m = np.eye(4)
    m[:3, :3] = np.array([[c, -s, 0.0], [s * c, c * c, -s], [s * s, c * s, c]]) @ np.diag(spacing)
    m[:3, 3] = (-12.5, 33.25, 7.0 / 3.0)
    geometry = VolumeGeometry(dims, spacing, AffineTransform(m))
    rng = np.random.default_rng(8)
    if labels:
        src = LabelVolume(geometry, rng.integers(0, 5, dims), 5)
        datatype, bitpix = 4, 16
    else:
        src = IntensityVolume(geometry, rng.uniform(0.0, 100.0, dims))
        datatype, bitpix = 16, 32
    p = tmp_path / "vol.nii"
    write_nifti(src, p)
    blob = p.read_bytes()
    # the NIfTI-1 header field by field, packed independently of the writer
    header = b"".join([
        struct.pack("<i", 348),  # sizeof_hdr
        bytes(10), bytes(18),  # data_type, db_name
        struct.pack("<ih", 0, 0),  # extents, session_error
        b"r", b"\x00",  # regular, dim_info
        struct.pack("<8h", 3, *dims, 1, 1, 1, 1),  # dim
        struct.pack("<3fh", 0.0, 0.0, 0.0, 0),  # intent_p1..p3, intent_code
        struct.pack("<3h", datatype, bitpix, 0),  # datatype, bitpix, slice_start
        struct.pack("<8f", 1.0, *spacing, 0.0, 0.0, 0.0, 0.0),  # pixdim
        struct.pack("<3f", 352.0, 1.0, 0.0),  # vox_offset, scl_slope, scl_inter
        struct.pack("<h", 0), b"\x00", b"\x00",  # slice_end, slice_code, xyzt_units
        struct.pack("<4f", 0.0, 0.0, 0.0, 0.0),  # cal_max, cal_min, slice_duration, toffset
        struct.pack("<2i", 0, 0),  # glmax, glmin
        b"tileseg".ljust(80, b"\x00"), bytes(24),  # descrip, aux_file
        struct.pack("<2h", 0, 2),  # qform_code, sform_code
        struct.pack("<6f", *[0.0] * 6),  # quatern_b..d, qoffset_x..z
        struct.pack("<12f", *m[:3, :].ravel()),  # srow_x, srow_y, srow_z
        bytes(16), b"n+1\x00",  # intent_name, magic
    ])
    assert len(header) == 348
    assert blob[:352] == header + bytes(4)
    assert len(blob) == 352 + 4 * 5 * 3 * bitpix // 8


def _write_valid(tmp_path, name="base.nii"):
    src = random_labels((4, 3, 2), 6, seed=4)
    p = tmp_path / name
    write_nifti(src, p)
    return p, bytearray(p.read_bytes()), src


def test_rejects_bad_magic(tmp_path):
    p, raw, _ = _write_valid(tmp_path)
    raw[344:348] = b"ni1\x00"
    p.write_bytes(raw)
    with pytest.raises(NiftiFormatError, match="magic"):
        read_nifti(p)


def test_rejects_wrong_header_size(tmp_path):
    p, raw, _ = _write_valid(tmp_path)
    struct.pack_into("<i", raw, 0, 340)
    p.write_bytes(raw)
    with pytest.raises(NiftiFormatError, match="348"):
        read_nifti(p)


def test_rejects_truncated_data(tmp_path):
    p, raw, _ = _write_valid(tmp_path)
    p.write_bytes(raw[: 352 + 5])
    with pytest.raises(NiftiFormatError, match="truncated"):
        read_nifti(p)


def test_rejects_truncated_header(tmp_path):
    p, raw, _ = _write_valid(tmp_path)
    p.write_bytes(raw[:100])
    with pytest.raises(NiftiFormatError, match="too short"):
        read_nifti(p)


def test_rejects_unsupported_datatype(tmp_path):
    p, raw, _ = _write_valid(tmp_path)
    struct.pack_into("<h", raw, 70, 8)  # int32: not handled
    p.write_bytes(raw)
    with pytest.raises(NiftiFormatError, match="datatype"):
        read_nifti(p)


def test_rejects_small_vox_offset(tmp_path):
    p, raw, _ = _write_valid(tmp_path)
    struct.pack_into("<f", raw, 108, 300.0)
    p.write_bytes(raw)
    with pytest.raises(NiftiFormatError, match="vox_offset"):
        read_nifti(p)


@pytest.mark.parametrize("offset", [355.9, 356.0])
def test_vox_offset_must_be_a_whole_number_of_bytes(tmp_path, offset):
    # the file holds the bytes a 356-byte offset needs; 355.9 must not read from byte 355
    p, raw, src = _write_valid(tmp_path)
    struct.pack_into("<f", raw, 108, offset)
    p.write_bytes(raw[:352] + bytes(4) + raw[352:])
    if offset == 356.0:
        assert read_nifti(p, as_labels=True)[0].data.tobytes() == src.data.tobytes()
    else:
        with pytest.raises(NiftiFormatError, match=r"vox_offset 355\.89.* not a whole number of bytes"):
            read_nifti(p)


def test_rejects_2d_volume(tmp_path):
    p, raw, _ = _write_valid(tmp_path)
    struct.pack_into("<h", raw, 40, 2)  # dim[0]
    p.write_bytes(raw)
    with pytest.raises(NiftiFormatError, match=r"dim\[0\]"):
        read_nifti(p)


def test_rejects_real_fourth_dimension(tmp_path):
    p, raw, _ = _write_valid(tmp_path)
    struct.pack_into("<2h", raw, 40, 4, 4)  # dim[0]=4 ... dim[4]=2 below
    struct.pack_into("<h", raw, 48, 2)  # dim[4]
    p.write_bytes(raw)
    with pytest.raises(NiftiFormatError, match="dimensions"):
        read_nifti(p)


def test_accepts_singleton_fourth_dimension(tmp_path):
    p, raw, src = _write_valid(tmp_path)
    struct.pack_into("<h", raw, 40, 4)  # dim[0]=4
    struct.pack_into("<h", raw, 48, 1)  # dim[4]=1: still a 3D volume
    p.write_bytes(raw)
    out, _ = read_nifti(p, as_labels=True)
    npt.assert_array_equal(out.data, src.data)


def test_missing_sform_falls_back_to_spacing_diagonal(tmp_path):
    p, raw, src = _write_valid(tmp_path)
    struct.pack_into("<h", raw, 254, 0)  # sform_code
    p.write_bytes(raw)
    with pytest.warns(UserWarning, match="sform"):
        out, _ = read_nifti(p, as_labels=True)
    expected = np.diag([*src.geometry.spacing, 1.0])
    npt.assert_allclose(out.geometry.index_to_world.matrix, expected, atol=1e-6)
    npt.assert_array_equal(out.data, src.data)


@pytest.mark.parametrize(
    "srow",
    [
        (1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0),  # z row repeats x
        (1e-40, 0.0, 0.0, 0.0, 0.0, 1e-40, 0.0, 0.0, 0.0, 0.0, 1e-40, 0.0),  # float32 subnormals
    ],
    ids=["singular", "subnormal"],
)
def test_rejects_non_invertible_srow_without_a_warning(tmp_path, srow):
    p, raw, _ = _write_valid(tmp_path)
    struct.pack_into("<12f", raw, 280, *srow)
    p.write_bytes(raw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NiftiFormatError, match="non-invertible srow affine"):
            read_nifti(p)


def test_reads_big_endian_file(tmp_path):
    # crafted byte-by-byte, independent of the writer under test
    dims = (2, 3, 2)
    arr = np.arange(12, dtype=np.int64).reshape(dims) * 3 + 1
    raw = bytearray(352)
    struct.pack_into(">i", raw, 0, 348)
    struct.pack_into(">8h", raw, 40, 3, *dims, 1, 1, 1, 1)
    struct.pack_into(">h", raw, 70, 4)  # int16
    struct.pack_into(">h", raw, 72, 16)  # bitpix
    struct.pack_into(">8f", raw, 76, 1.0, 1.0, 1.25, 1.5, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into(">f", raw, 108, 352.0)
    struct.pack_into(">h", raw, 254, 1)  # sform_code
    srow = (1.0, 0.0, 0.0, -0.5, 0.0, 1.25, 0.0, -1.25, 0.0, 0.0, 1.5, -0.75)
    struct.pack_into(">12f", raw, 280, *srow)
    raw[344:348] = b"n+1\x00"
    blob = bytes(raw) + arr.ravel(order="F").astype(">i2").tobytes()
    p = tmp_path / "big.nii"
    p.write_bytes(blob)

    out, summary = read_nifti(p, as_labels=True)
    assert summary.byte_order == "big"
    npt.assert_array_equal(out.data, arr)
    npt.assert_allclose(out.geometry.spacing, (1.0, 1.25, 1.5))
    expected_affine = np.eye(4)
    expected_affine[:3, :] = np.array(srow).reshape(3, 4)
    npt.assert_allclose(out.geometry.index_to_world.matrix, expected_affine, atol=1e-6)


@pytest.mark.parametrize("labels", [False, True], ids=["intensity", "labels"])
def test_header_fuzz_reads_a_volume_or_raises_a_mapped_error(tmp_path, labels):
    # 1000 seeded mutations of 1-3 header bytes; none may escape as a traceback
    vol = random_labels((4, 5, 6), 7, seed=3) if labels else random_intensity((4, 5, 6), seed=3)
    p = tmp_path / "vol.nii"
    write_nifti(vol, p)
    clean = p.read_bytes()
    mapped = tuple(exc_type for exc_type, _ in EXIT_CODES)
    rng = np.random.default_rng(40 + labels)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a zeroed sform_code reads with a warning
        for _ in range(1000):
            raw = bytearray(clean)
            for pos in rng.choice(352, size=rng.integers(1, 4), replace=False):
                raw[pos] = rng.integers(256)
            p.write_bytes(raw)
            try:
                read_nifti(p, as_labels=labels)
            except mapped:
                pass


def test_rejects_negative_values_as_labels(tmp_path):
    g = make_centered_geometry((3, 3, 3))
    src = IntensityVolume(g, np.full((3, 3, 3), -2.0))
    p = tmp_path / "neg.nii"
    write_nifti(src, p)
    with pytest.raises(NiftiFormatError, match="negative"):
        read_nifti(p, as_labels=True)


@pytest.mark.parametrize("value, reason", NOT_LABELS)
def test_read_labels_rejects_what_uint16_would_change(tmp_path, capsys, value, reason):
    p = tmp_path / "lab.nii"
    float32_nifti(p, (3, 3, 3), value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # not even a numpy cast warning
        with pytest.raises(NiftiFormatError, match=reason):
            read_nifti(p, as_labels=True)
    assert main(["evaluate", "--auto", str(p), "--manual", str(p)]) == 3
    assert reason in capsys.readouterr().err


def test_write_rejects_oversized_dims():
    g = make_centered_geometry((40000, 1, 1))
    vol = IntensityVolume(g, np.zeros((40000, 1, 1)))
    with pytest.raises(NiftiFormatError, match="dims"):
        write_nifti(vol, "/dev/null")


def test_write_rejects_labels_beyond_int16():
    g = make_centered_geometry((2, 2, 2))
    vol = LabelVolume(g, np.full((2, 2, 2), 32768, dtype=np.uint16), 40000)
    with pytest.raises(NiftiFormatError, match="int16"):
        write_nifti(vol, "/dev/null")


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_nifti(tmp_path / "absent.nii")


@pytest.mark.parametrize("num_labels, dtype", [(9, np.uint8), (300, np.uint16)])
def test_raw_round_trip_labels(tmp_path, num_labels, dtype):
    src = random_labels((5, 4, 3), num_labels, seed=7)
    p = tmp_path / "lab.raw"
    write_raw(src, p)
    out = read_raw(p, src.geometry, num_labels)
    assert isinstance(out, LabelVolume)
    assert out.geometry is src.geometry
    assert out.data.dtype == src.data.dtype == dtype
    assert out.data.tobytes() == src.data.tobytes()
    assert out.num_labels == num_labels
    # the blob holds <u2 whatever the label type
    assert p.read_bytes() == src.data.astype("<u2").tobytes(order="F")


def test_raw_label_entry_bytes_are_pinned(tmp_path):
    # resume-cache entries are raw label files; this digest was taken when
    # every label volume was uint16, and an entry is this one file
    data = (np.arange(120).reshape(4, 5, 6) * 7) % 11
    vol = LabelVolume(make_centered_geometry((4, 5, 6)), data, 11)
    assert vol.data.dtype == np.uint8
    p = tmp_path / "entry"
    write_raw(vol, p)
    assert hashlib.sha256(p.read_bytes()).hexdigest() == (
        "153c7e66e3a25c288bbf3d17c753a9c480d20febb80fda62cf599672ab619b76"
    )
    assert [q.name for q in tmp_path.iterdir()] == ["entry"]


def test_raw_rejects_size_mismatch(tmp_path):
    src = random_labels((5, 4, 3), 9)
    p = tmp_path / "lab.raw"
    write_raw(src, p)
    p.write_bytes(p.read_bytes()[:-2])
    with pytest.raises(NiftiFormatError, match="raw blob holds 59 values, expected 60"):
        read_raw(p, src.geometry, 9)


def test_raw_refuses_a_ragged_blob_and_a_label_out_of_range(tmp_path):
    src = random_labels((5, 4, 3), 9)
    p = tmp_path / "lab.raw"
    p.write_bytes(src.data.astype("<u2").tobytes(order="F")[:-1])  # half a value short
    with pytest.raises(ValueError):
        read_raw(p, src.geometry, 9)
    write_raw(src, p)
    top = int(src.data.max())
    with pytest.raises(GeometryError, match=f"label value {top} out of range for num_labels={top}"):
        read_raw(p, src.geometry, top)


def _volume(kind, order, seed=41):
    rng = np.random.default_rng(seed)
    g = make_centered_geometry((64, 48, 40))
    if kind == "labels":
        return LabelVolume(g, np.asarray(rng.integers(0, 133, g.dims), order=order), 133)
    return IntensityVolume(g, np.asarray(rng.normal(size=g.dims), order=order))


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize(
    "write, offset, dtype, kind",
    [(write_nifti, 352, "<i2", "labels"), (write_nifti, 352, "<f4", "intensity"),
     (write_raw, 0, "<u2", "labels")],
    ids=["nifti-labels", "nifti-intensity", "raw-labels"],
)
def test_writers_encode_the_voxels_with_one_copy(tmp_path, write, offset, dtype, kind, order):
    vol = _volume(kind, order)
    assert vol.data.flags.f_contiguous  # the constructors copy any layout x-fastest
    expected = vol.data.astype(dtype).tobytes(order="F")
    peak, _ = peak_alloc(lambda: write(vol, tmp_path / "vol"))
    assert (tmp_path / "vol").read_bytes()[offset:] == expected
    # a cast z plane or two (the next is cast while the last is written), the
    # header and the file buffer; no copy of the whole volume
    plane = len(expected) // vol.dims[2]
    assert peak < 3 * plane + 32 * 1024 < len(expected)


@pytest.mark.parametrize("kind", ["labels"])
def test_read_raw_copies_the_blob_once(tmp_path, kind):
    vol = _volume(kind, "C")
    path = tmp_path / "vol.raw"
    write_raw(vol, path)
    peak, out = peak_alloc(lambda: read_raw(path, vol.geometry, 133))
    # the blob and the volume: 133 labels take one byte, copied from the
    # <u2 blob with no uint16 step
    assert peak < path.stat().st_size + 1.25 * out.data.nbytes
    # the blob's values in the volume's type, in the blob's memory order
    old = np.frombuffer(path.read_bytes(), "<u2").reshape(vol.dims, order="F").astype(np.uint8)
    assert out.data.dtype == old.dtype and out.data.strides == old.strides
    assert out.data.tobytes() == old.tobytes() == vol.data.tobytes()
    assert not out.data.flags.writeable


def test_read_nifti_copies_labels_once_into_their_type(tmp_path):
    src = _volume("labels", "F")  # 133 labels
    path = tmp_path / "lab.nii"
    write_nifti(src, path)
    peak, (vol, _) = peak_alloc(lambda: read_nifti(path, as_labels=True, num_labels=133))
    assert vol.data.dtype == np.uint8
    assert vol.data.tobytes() == src.data.tobytes()
    # the file's int16 bytes and the one-byte volume; a uint16 step would add 2 bytes a voxel
    assert peak < path.stat().st_size + 1.25 * vol.data.nbytes


def test_read_nifti_casts_labels_a_band_at_a_time(tmp_path):
    # 160 planes of 128x128 int16 are five bands of 1 MiB; next to the 2.6 MB
    # label volume at most two bands are held, never the file's 5.2 MB of bytes
    g = make_centered_geometry((128, 128, 160))
    data = np.random.default_rng(43).integers(0, 133, g.dims, dtype=np.uint16)
    data[-1, -1, -1] = 299
    path = tmp_path / "lab.nii"
    write_nifti(LabelVolume(g, data, 300), path)
    # a label out of range, here in the last band, takes the whole file and its error
    with pytest.raises(GeometryError, match="label value 299 out of range for num_labels=133"):
        read_nifti(path, as_labels=True, num_labels=133)
    data[-1, -1, -1] = 132
    write_nifti(LabelVolume(g, data, 133), path)
    peak, (vol, _) = peak_alloc(lambda: read_nifti(path, as_labels=True, num_labels=133))
    assert vol.data.dtype == np.uint8
    assert vol.data.tobytes() == data.astype(np.uint8, order="F").tobytes()
    assert peak < vol.data.nbytes + 2.5 * (1 << 20)


def test_read_nifti_holds_the_file_bytes_and_no_float64_copy(tmp_path):
    src = _volume("intensity", "F")
    path = tmp_path / "vol.nii"
    write_nifti(src, path)
    voxel_bytes = path.stat().st_size - 352
    peak, (vol, _) = peak_alloc(lambda: read_nifti(path))
    assert vol.data.dtype == np.float32 and vol.data.nbytes == voxel_bytes
    # the file's bytes, which the volume views, and nothing volume-sized besides
    assert peak <= 1.3 * voxel_bytes


def test_write_rejects_intensities_beyond_float32(tmp_path):
    vol = IntensityVolume(make_centered_geometry((4, 4, 4)), np.full((4, 4, 4), 1e39))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NiftiFormatError, match="overflow float32"):
            write_nifti(vol, tmp_path / "big.nii")
    assert not list(tmp_path.iterdir())


def test_read_nifti_emits_no_warning_with_sform(tmp_path):
    src = random_intensity((4, 4, 4))
    p = tmp_path / "img.nii"
    write_nifti(src, p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        read_nifti(p)


def test_write_nifti_keeps_old_file_when_rename_fails(tmp_path, monkeypatch):
    p = tmp_path / "lab.nii"
    write_nifti(random_labels((4, 4, 4), 5, seed=1), p)
    old = p.read_bytes()

    def failing_replace(src, dst):
        raise OSError("simulated crash before the rename")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="simulated"):
        write_nifti(random_labels((4, 4, 4), 5, seed=2), p)
    assert p.read_bytes() == old
    assert list(tmp_path.glob("*.tmp")) == []


def _save_model(directory, seed):
    vol = random_intensity((4, 4, 4), seed=seed)
    mask = LabelVolume(vol.geometry, np.ones(vol.dims, dtype=np.uint16), 2)
    save_model(fit_model([vol], [mask], quantile_count=8), directory)


def _save_dice_report(directory, seed):
    auto, manual = random_labels((4, 4, 4), 5, seed=seed), random_labels((4, 4, 4), 5, seed=9)
    dice_report(auto, manual).save(directory)


def _save_affine(directory, seed):
    directory.mkdir(exist_ok=True)
    save_affine(AffineTransform.translation((seed, 0.0, 0.0)), directory / "affine.txt")


@pytest.mark.parametrize("save", [_save_model, _save_dice_report, _save_affine])
def test_package_writers_keep_old_files_when_rename_fails(tmp_path, monkeypatch, save):
    out = tmp_path / "out"
    save(out, 1)
    old = {p.name: p.read_bytes() for p in out.iterdir()}

    def failing_replace(src, dst):
        raise OSError("simulated crash before the rename")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="simulated"):
        save(out, 2)
    # no file changed and no temp file is left behind
    assert {p.name: p.read_bytes() for p in out.iterdir()} == old


@pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
def test_writer_rejects_geometry_beyond_float32(tmp_path):
    vol = random_labels((4, 4, 4), 2, spacing=(1e39, 1.0, 1.0))
    with pytest.raises(NiftiFormatError, match="overflow the float32 header fields"):
        write_nifti(vol, tmp_path / "big.nii")
    assert not list(tmp_path.iterdir())
