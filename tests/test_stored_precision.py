"""Intensity volumes read from NIfTI keep the stored element type.

Every type the reader accepts widens to float64 exactly, so each consumer
computes on the stored volume what it computes on its float64 widening,
the volume the reader returned when it copied into float64.  Numbers
(moments, fits, profiles, affines) are the same bits; a volume the package
builds from a stored-type volume is float32 (``_intensity_dtype``), the
widened volume's result rounded once, so the ``external:`` backends, which
receive float32 tile files, get the same bytes.
"""

import importlib

import numpy as np
import pytest

from tileseg import geometry as geometry_module
from tileseg import io as tio
from tileseg.geometry import (
    AffineTransform,
    IntensityVolume,
    LabelVolume,
    VolumeGeometry,
    compose,
    estimate_affine_moments,
    make_centered_geometry,
    resample_intensity,
)
from tileseg.harmonize import _pack, _profile, fit_model, harmonize
from tileseg.tiling import build_grid, extract_tile
from conftest import copied, z_scored
from test_geometry import _assert_zero_outside, _three_index_trilinear

DIMS = (23, 19, 17)

STORED = [(code, endian) for code in ("u1", "i2", "f4") for endian in ("<", ">")]
IDS = [f"{code}{'le' if endian == '<' else 'be'}" for code, endian in STORED]


def _values(code, seed):
    rng = np.random.default_rng(seed)
    if code == "u1":
        return rng.integers(0, 256, DIMS)
    if code == "i2":
        # mostly positive, so the moments have mass, but spanning the type
        return rng.integers(-2000, 32768, DIMS)
    # a wide dynamic range, so sums in another order round differently
    return rng.lognormal(3.0, 8.0, DIMS) * rng.choice([-0.05, 1.0], DIMS)


def _write_stored(path, code, endian, seed=0):
    """A NIfTI file of random ``code`` voxels, header and data in ``endian`` order."""
    dtype = np.dtype(code).newbyteorder(endian)
    values = _values(code, seed).astype(dtype)
    geometry = make_centered_geometry(DIMS, (1.0, 1.25, 0.9))
    tio.write_nifti(IntensityVolume(geometry, values), path)
    header = np.frombuffer(path.read_bytes(), tio._HEADER.newbyteorder("<"), count=1).copy()
    header["datatype"] = {"u1": 2, "i2": 4, "f4": 16}[code]
    header["bitpix"] = 8 * dtype.itemsize
    header = header.astype(tio._HEADER.newbyteorder(endian))
    path.write_bytes(header.tobytes() + bytes(4) + values.tobytes(order="F"))
    return values


def _read(tmp_path, code, endian, seed=0):
    """``(stored, wide)``: the volume as read, and its float64 widening."""
    path = tmp_path / f"{code}{seed}.nii"
    _write_stored(path, code, endian, seed)
    vol, summary = tio.read_nifti(path)
    assert summary.byte_order == ("big" if endian == ">" else "little")
    return vol, IntensityVolume(vol.geometry, vol.data)


def _same(a, b):
    return a.dtype == b.dtype and a.strides == b.strides and a.tobytes() == b.tobytes()


def _rounded(wide):
    """The float64 result of the widened volume, rounded once into float32."""
    assert wide.dtype == np.float64
    return wide.astype(np.float32)


def _tile_files_agree(tmp_path, got, want) -> bool:
    """Whether the tile input files an ``external:`` backend gets from ``got`` and ``want`` match."""
    size = tuple(d // 2 + 1 for d in got.dims)
    for tile in build_grid(got.dims, (2, 2, 2), size).tiles:
        tio.write_nifti(extract_tile(got, tile), tmp_path / "got_tile.nii")
        tio.write_nifti(extract_tile(want, tile), tmp_path / "want_tile.nii")
        if (tmp_path / "got_tile.nii").read_bytes() != (tmp_path / "want_tile.nii").read_bytes():
            return False
    return True


@pytest.mark.parametrize("code, endian", STORED, ids=IDS)
def test_read_keeps_the_stored_type_read_only(tmp_path, code, endian):
    path = tmp_path / "vol.nii"
    values = _write_stored(path, code, endian)
    vol, _ = tio.read_nifti(path)
    assert vol.data.dtype == np.dtype(code)  # native order
    assert vol.data.flags.f_contiguous
    assert not vol.data.flags.writeable
    with pytest.raises(ValueError):
        vol.data[0, 0, 0] = 1
    assert np.array_equal(vol.data, values)
    with tio.NiftiScan(path) as scan:  # the one decoder, all planes as one band
        assert _same(scan.band(0, DIMS[2]), vol.data)
    # tiles hold the rule's float32: the widened volume's tiles rounded once;
    # a float32 volume's tile is a view of it, any other's a new x-fastest array
    wide = IntensityVolume(vol.geometry, vol.data)
    assert wide.data.dtype == np.float64
    for tile in build_grid(DIMS, (2, 2, 2), (12, 10, 9)).tiles:
        got, want = extract_tile(vol, tile).data, _rounded(extract_tile(wide, tile).data)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        if code == "f4":
            assert np.shares_memory(got, vol.data) and got.strides == vol.data.strides
        else:
            assert got.flags.f_contiguous and got.flags.owndata
    assert _tile_files_agree(tmp_path, vol, wide)
    # and the writer encodes the same bytes
    tio.write_nifti(vol, tmp_path / "stored.nii")
    tio.write_nifti(wide, tmp_path / "wide.nii")
    assert (tmp_path / "stored.nii").read_bytes() == (tmp_path / "wide.nii").read_bytes()


def _interior():
    # a tilt and shrink that keeps every corner inside the source
    tilt = AffineTransform.from_linear_translation(
        [[0.8, 0.05, 0.0], [-0.04, 0.7, 0.03], [0.0, 0.02, 0.75]], [0.3, -0.4, 0.2]
    )
    return tilt, make_centered_geometry((17, 13, 12), (1.0, 1.25, 0.9))


def _edge_crossing():
    # a rotated, shifted target larger than the source
    c, s = np.cos(0.2), np.sin(0.2)
    turn = AffineTransform.from_linear_translation(
        [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]], [2.5, -3.0, 1.7]
    )
    return turn, make_centered_geometry((29, 26, 21), (1.1, 1.0, 1.0))


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("warp", [_interior, _edge_crossing], ids=["interior", "edge"])
@pytest.mark.parametrize("code, endian", STORED, ids=IDS)
def test_resample_intensity_is_bitwise_the_widened_result(
    tmp_path, monkeypatch, code, endian, warp, jobs
):
    monkeypatch.setattr(geometry_module, "_SWEEP_VOXELS", 1)  # two threads at jobs=2
    vol, wide = _read(tmp_path, code, endian)
    transform, target = warp()
    got = resample_intensity(vol, transform, target, jobs=jobs)
    want = resample_intensity(wide, transform, target, jobs=jobs)
    assert _same(got.data, _rounded(want.data))
    assert _tile_files_agree(tmp_path, got, want)
    _, inside = _three_index_trilinear(wide, transform, target)
    assert inside.all() if warp is _interior else 0 < inside.mean() < 1
    _assert_zero_outside(got.data, inside)


@pytest.mark.parametrize("code, endian", STORED, ids=IDS)
def test_moments_estimate_is_bitwise_the_widened_result(tmp_path, code, endian):
    vol, wide = _read(tmp_path, code, endian)
    shift = AffineTransform.translation((1.5, -2.0, 0.5))
    geometry = VolumeGeometry(
        DIMS, vol.geometry.spacing, compose(shift, vol.geometry.index_to_world)
    )
    shifted = IntensityVolume(geometry, _values(code, 1))
    for moving, fixed, wide_moving, wide_fixed in (
        (vol, shifted, wide, shifted), (shifted, vol, shifted, wide), (vol, vol, wide, wide),
    ):
        got = estimate_affine_moments(moving, fixed).matrix
        assert got.tobytes() == estimate_affine_moments(wide_moving, wide_fixed).matrix.tobytes()


def _masks(geometry):
    rng = np.random.default_rng(5)
    return [
        LabelVolume(geometry, (rng.random(geometry.dims) < share).astype(np.uint16), 2)
        for share in (0.3, 0.6)
    ]


# blocks of the moments and the output: the test volumes span several,
# the last one partial, where harmonize's own blocks would hold them whole
BLOCK = 1000
# the package exports the function harmonize under the module's name
harmonize_module = importlib.import_module("tileseg.harmonize")


@pytest.mark.parametrize("code, endian", STORED, ids=IDS)
def test_fit_model_and_harmonize_are_bitwise_the_widened_result(
    tmp_path, monkeypatch, code, endian
):
    monkeypatch.setattr(harmonize_module, "_BLOCK", BLOCK)
    a, wide_a = _read(tmp_path, code, endian, seed=0)
    b, wide_b = _read(tmp_path, code, endian, seed=1)
    assert a.data.size % BLOCK != 0 and a.data.size > 2 * BLOCK
    masks = _masks(a.geometry)
    model = fit_model([a, b], masks, quantile_count=64)
    wide_model = fit_model([wide_a, wide_b], masks, quantile_count=64)
    assert model.mean_sorted.tobytes() == wide_model.mean_sorted.tobytes()
    assert np.array_equal(model.mask.data, wide_model.mask.data)

    got, fit = harmonize(copied(a), model)
    want, wide_fit = harmonize(copied(wide_a), model)
    assert _same(got.data, _rounded(want.data))
    assert fit == wide_fit
    assert _tile_files_agree(tmp_path, got, want)
    assert _same(z_scored(a), _rounded(z_scored(wide_a)))
    assert _profile(a.geometry, _pack(masks[0]), 33, a.data, 0.0, 1.0).tobytes() == (
        _profile(wide_a.geometry, _pack(masks[0]), 33, wide_a.data, 0.0, 1.0).tobytes()
    )


def _blocked_moments(x):
    """Mean and std of float64 ``x``: sums over ``BLOCK`` voxels in memory order, added in turn."""
    flat = x.ravel(order="K")
    blocks = [flat[i:i + BLOCK] for i in range(0, flat.size, BLOCK)]
    mean = float(sum(b.sum() for b in blocks) / flat.size)
    return mean, float(np.sqrt(sum(((b - mean) ** 2).sum() for b in blocks) / flat.size))


@pytest.mark.parametrize("code, endian", STORED, ids=IDS)
def test_harmonize_equals_the_z_scored_volume_oracle(tmp_path, monkeypatch, code, endian):
    monkeypatch.setattr(harmonize_module, "_BLOCK", BLOCK)
    vol, wide = _read(tmp_path, code, endian)
    other, _ = _read(tmp_path, code, endian, seed=3)
    mask = _masks(vol.geometry)[0]
    model = fit_model([other], [mask], quantile_count=128)
    got, fit = harmonize(copied(vol), model)

    # the scan's z-scored volume, its sorted profile, then one least-squares line
    x = wide.data
    mean, std = _blocked_moments(x)
    z = x - mean
    z /= std
    assert _same(z_scored(vol), _rounded(z))
    ordered = np.sort(z[model.mask.data > 0])[::-1]
    positions = np.linspace(0.0, ordered.size - 1.0, model.quantile_count)
    profile = np.interp(positions, np.arange(ordered.size), ordered)
    px = profile - profile.mean()
    ref = model.mean_sorted
    beta1 = float(px @ (ref - ref.mean())) / float(px @ px)
    beta0 = float(ref.mean() - beta1 * profile.mean())
    assert (fit.beta1, fit.beta0) == (beta1, beta0)
    assert _same(got.data, _rounded(z * beta1 + beta0))
