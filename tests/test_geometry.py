import itertools
import os
import threading
import time
import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import (
    NOT_LABELS, CorruptingWrapper, apply_affine, copied, peak_alloc, random_intensity,
    random_labels, make_blob_phantom, segment_answers,
)
from tileseg.geometry import (
    ATLAS_DIMS,
    AffineTransform,
    GeometryError,
    IntensityVolume,
    LabelVolume,
    VolumeGeometry,
    _BOX_BLOCK,
    _boxes,
    _each,
    _pullback,
    _sweep,
    compose,
    estimate_affine_moments,
    make_centered_geometry,
    resample_intensity,
    resample_labels,
)
from tileseg import geometry as geometry_module
from tileseg import io as tio
from tileseg.fusion import fuse_majority
from tileseg.harmonize import fit_model, harmonize
from tileseg.pipeline import PipelineConfig
from tileseg.phantom import intensity_from_labels
from tileseg.segmenter import ConstantOracle, SegmenterBackend
from tileseg.tiling import build_grid, extract_tile

finite = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


@st.composite
def invertible_affines(draw):
    linear = np.array(draw(st.lists(finite, min_size=9, max_size=9))).reshape(3, 3)
    with np.errstate(divide="ignore", invalid="ignore"):  # a subnormal pivot
        assume(abs(np.linalg.det(linear)) > 0.1)
    translation = np.array(draw(st.lists(finite, min_size=3, max_size=3)))
    return AffineTransform.from_linear_translation(linear, translation)


# --- AffineTransform construction and group laws ---


def test_affine_rejects_wrong_shape():
    with pytest.raises(GeometryError):
        AffineTransform(np.eye(3))


def test_affine_rejects_bad_last_row():
    m = np.eye(4)
    m[3, 0] = 1.0
    with pytest.raises(GeometryError):
        AffineTransform(m)


def test_affine_rejects_singular_with_a_subnormal_pivot():
    linear = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 2.2250738585e-309, 0.0]])
    with pytest.raises(GeometryError, match="not invertible"):
        AffineTransform.from_linear_translation(linear, np.zeros(3))


def test_affine_with_an_overflowing_determinant_builds_without_a_warning():
    # det is 1e309, beyond float64: inf, which is invertible enough
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = AffineTransform(np.diag([1e103, 1e103, 1e103, 1.0]))
    assert t.linear[0, 0] == 1e103


def test_affine_rejects_singular():
    m = np.eye(4)
    m[0, 0] = 0.0
    with pytest.raises(GeometryError):
        AffineTransform(m)


def test_affine_rejects_nonfinite():
    m = np.eye(4)
    m[0, 3] = np.nan
    with pytest.raises(GeometryError):
        AffineTransform(m)


def test_identity_constructor():
    assert np.allclose(AffineTransform.identity().matrix, np.eye(4), atol=1e-9)


def test_translation_applies_offset():
    t = AffineTransform.translation((1.0, -2.0, 3.0))
    npt.assert_allclose(apply_affine(t, [[0, 0, 0]]), [[1.0, -2.0, 3.0]])
    npt.assert_allclose(apply_affine(t, [[5, 5, 5]]), [[6.0, 3.0, 8.0]])


@given(invertible_affines())
def test_inverse_composes_to_identity(t):
    assert np.allclose(compose(t, t.inverse()).matrix, np.eye(4), atol=1e-7)
    assert np.allclose(compose(t.inverse(), t).matrix, np.eye(4), atol=1e-7)


@given(invertible_affines(), invertible_affines())
def test_compose_matches_sequential_application(a, b):
    pts = np.array([[0.0, 0.0, 0.0], [1.0, -1.0, 2.0], [0.5, 3.0, -2.5]])
    npt.assert_allclose(
        apply_affine(compose(a, b), pts), apply_affine(a, apply_affine(b, pts)), atol=1e-9
    )


@given(invertible_affines())
def test_compose_identity_neutral(t):
    assert np.allclose(compose(t, AffineTransform.identity()).matrix, t.matrix, atol=1e-9)
    assert np.allclose(compose(AffineTransform.identity(), t).matrix, t.matrix, atol=1e-9)


def test_compose_translations_sum():
    a = AffineTransform.translation((1.0, 2.0, 3.0))
    b = AffineTransform.translation((10.0, -2.0, 0.5))
    npt.assert_allclose(compose(a, b).offset, [11.0, 0.0, 3.5])


# --- Geometries and volume types ---


def test_atlas_geometry_constants():
    g = PipelineConfig().atlas_geometry()
    assert g.dims == ATLAS_DIMS == (172, 220, 156)
    assert g.spacing == (1.0, 1.0, 1.0)
    assert abs(np.linalg.det(g.index_to_world.linear)) > 1e-12


def test_centered_geometry_puts_origin_at_grid_center():
    g = make_centered_geometry((5, 9, 3), (2.0, 1.0, 1.0))
    center = [(d - 1) / 2.0 for d in (5, 9, 3)]
    npt.assert_allclose(apply_affine(g.index_to_world, [center]), [[0.0, 0.0, 0.0]])
    npt.assert_allclose(apply_affine(g.index_to_world, [[0, 0, 0]]), [[-4.0, -4.0, -1.0]])


def test_geometry_rejects_bad_dims_and_spacing():
    with pytest.raises(GeometryError):
        make_centered_geometry((0, 4, 4))
    with pytest.raises(GeometryError):
        make_centered_geometry((4, 4, 4), (1.0, -1.0, 1.0))


def test_geometry_matches_tolerance():
    a = make_centered_geometry((4, 4, 4))
    b = make_centered_geometry((4, 4, 4), (1.0 + 5e-5, 1.0, 1.0))
    assert a.matches(b)
    assert not a.matches(b, tol=1e-6)
    assert not a.matches(make_centered_geometry((4, 4, 5)))


def test_intensity_volume_rejects_nan():
    g = make_centered_geometry((2, 2, 2))
    data = np.zeros((2, 2, 2))
    data[0, 0, 0] = np.inf
    with pytest.raises(GeometryError):
        IntensityVolume(g, data)


def test_intensity_volume_rejects_shape_mismatch():
    g = make_centered_geometry((2, 2, 2))
    with pytest.raises(GeometryError):
        IntensityVolume(g, np.zeros((2, 2, 3)))


def test_volume_data_is_frozen():
    vol = random_intensity((3, 3, 3))
    with pytest.raises(ValueError):
        vol.data[0, 0, 0] = 1.0
    lab = random_labels((3, 3, 3), 4)
    with pytest.raises(ValueError):
        lab.data[0, 0, 0] = 1


def test_label_volume_range_checks():
    g = make_centered_geometry((2, 2, 2))
    with pytest.raises(GeometryError):
        LabelVolume(g, np.full((2, 2, 2), 5), num_labels=5)
    with pytest.raises(GeometryError):
        LabelVolume(g, np.full((2, 2, 2), -1, dtype=np.int32))


@pytest.mark.parametrize("value, reason", NOT_LABELS)
def test_label_volume_rejects_what_uint16_would_change(value, reason):
    g = make_centered_geometry((2, 2, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # not even a numpy cast warning
        with pytest.raises(GeometryError, match=reason):
            LabelVolume(g, np.full((2, 2, 2), value))


@pytest.mark.parametrize(
    "dtype, top",
    [("?", 1), ("u1", 255), ("i1", 127), ("i2", 32767), (">i2", 32767), ("u2", 65535),
     ("i4", 65535), ("u8", 65535), ("f4", 65535), ("f8", 65535)],
)
def test_label_volume_keeps_every_label_value_exactly(dtype, top):
    g = make_centered_geometry((2, 2, 2))
    data = np.array([0, top, 1, 0, 1, 1, top, 0]).astype(dtype).reshape(2, 2, 2)
    lab = LabelVolume(g, data)
    # num_labels is inferred as top + 1: one byte up to 256 labels
    assert lab.data.dtype == (np.uint8 if top < 256 else np.uint16)
    assert lab.data.tobytes() == data.astype(lab.data.dtype).tobytes()
    npt.assert_array_equal(lab.data, data.astype(np.int64))
    if np.dtype(dtype).kind in "if":
        with pytest.raises(GeometryError, match="negative"):
            LabelVolume(g, -data)


def test_label_volume_infers_num_labels():
    g = make_centered_geometry((2, 2, 2))
    assert LabelVolume(g, np.full((2, 2, 2), 7)).num_labels == 8
    # never below 2, even for all-background data
    assert LabelVolume(g, np.zeros((2, 2, 2), dtype=np.uint16)).num_labels == 2


@pytest.mark.parametrize(
    "num_labels, dtype",
    [(2, np.uint8), (133, np.uint8), (256, np.uint8), (257, np.uint16), (65536, np.uint16)],
)
def test_label_type_is_one_byte_up_to_256_labels(num_labels, dtype):
    g = make_centered_geometry((2, 2, 2))
    data = np.array([0, 1, num_labels - 1, 0, 0, 1, 0, num_labels - 1]).reshape(2, 2, 2)
    # given or inferred, the label count alone picks the type
    for lab in (LabelVolume(g, data, num_labels), LabelVolume(g, data)):
        assert lab.num_labels == num_labels
        assert lab.data.dtype == dtype
        assert lab.data.tobytes() == data.astype(dtype).tobytes()


def test_phantom_takes_the_label_type():
    lab = make_blob_phantom(make_centered_geometry((12, 12, 12)), num_labels=6)
    assert lab.data.dtype == np.uint8


@pytest.mark.parametrize("value", [265, 300, 65535])
def test_label_beyond_a_one_byte_count_is_refused_unwrapped(value):
    # a uint8 copy would wrap 265 to 9, inside num_labels=10
    g = make_centered_geometry((2, 2, 2))
    for dtype in ("u2", "i4", "f8"):
        with pytest.raises(GeometryError, match=f"label value {value} out of range"):
            LabelVolume(g, np.full((2, 2, 2), value, dtype=dtype), 10)


# --- Resampling ---


def test_resample_intensity_identity_is_exact():
    vol = random_intensity((8, 8, 8), seed=3)
    out = resample_intensity(vol, AffineTransform.identity(), vol.geometry)
    npt.assert_array_equal(out.data, vol.data)


def test_resample_labels_identity_is_exact():
    lab = random_labels((8, 8, 8), 7, seed=3)
    out = resample_labels(lab, AffineTransform.identity(), lab.geometry)
    npt.assert_array_equal(out.data, lab.data)
    assert out.num_labels == lab.num_labels


def _shift_oracle(data):
    # output(i, j, k) = src(i-1, j, k); vacated x=0 face filled with 0
    out = np.zeros(data.shape, dtype=np.float64)
    out[1:, :, :] = data[:-1, :, :]
    return out


def test_resample_intensity_integer_shift_matches_oracle():
    vol = random_intensity((8, 8, 8), seed=5)
    # pull-back: target voxel i reads source world at i - 1 voxel
    shift = AffineTransform.translation((-1.0, 0.0, 0.0))
    out = resample_intensity(vol, shift, vol.geometry)
    npt.assert_allclose(out.data, _shift_oracle(vol.data), atol=1e-12)


def test_resample_labels_integer_shift_matches_oracle():
    lab = random_labels((8, 8, 8), 9, seed=5)
    shift = AffineTransform.translation((-1.0, 0.0, 0.0))
    out = resample_labels(lab, shift, lab.geometry)
    expected = _shift_oracle(lab.data.astype(np.float64))
    npt.assert_array_equal(out.data, expected.astype(np.uint16))


def test_resample_constant_volume_stays_constant():
    g = make_centered_geometry((6, 6, 6))
    vol = IntensityVolume(g, np.full((6, 6, 6), 42.0))
    # shrink toward the center so every mapped point stays interior
    t = AffineTransform.from_linear_translation(np.eye(3) * 0.5, (0.0, 0.0, 0.0))
    out = resample_intensity(vol, t, g)
    npt.assert_array_equal(out.data, np.full((6, 6, 6), 42.0))


def test_trilinear_half_voxel_averages_neighbors():
    g = make_centered_geometry((3, 1, 1))
    vol = IntensityVolume(g, np.array([0.0, 6.0, 12.0]).reshape(3, 1, 1))
    half = AffineTransform.translation((-0.5, 0.0, 0.0))
    out = resample_intensity(vol, half, g)
    # x=0 maps to source index -0.5: outside, 0
    npt.assert_allclose(out.data.reshape(-1), [0.0, 3.0, 9.0])


def test_nearest_neighbor_tie_rounds_toward_negative_infinity():
    g = make_centered_geometry((4, 1, 1))
    lab = LabelVolume(g, np.array([1, 2, 3, 4]).reshape(4, 1, 1), 5)
    # +0.5 source offset: exact ties resolve to the lower index
    out = resample_labels(lab, AffineTransform.translation((0.5, 0.0, 0.0)), g)
    npt.assert_array_equal(out.data.reshape(-1), [1, 2, 3, 4])
    # -0.5 source offset: ties resolve one index down, x=0 falls outside
    out = resample_labels(lab, AffineTransform.translation((-0.5, 0.0, 0.0)), g)
    npt.assert_array_equal(out.data.reshape(-1), [0, 1, 2, 3])


@given(invertible_affines())
def test_trilinear_values_stay_in_source_range(t):
    vol = random_intensity((6, 6, 6), seed=9, lo=10.0, hi=20.0)
    out = resample_intensity(vol, t, vol.geometry)
    lo, hi = vol.data.min(), vol.data.max()
    ok = ((out.data >= lo - 1e-9) & (out.data <= hi + 1e-9)) | (out.data == 0.0)
    assert bool(ok.all())


@given(invertible_affines())
def test_label_resampling_never_invents_values(t):
    lab = random_labels((6, 6, 6), 5, seed=9)
    out = resample_labels(lab, t, lab.geometry)
    allowed = set(np.unique(lab.data).tolist()) | {0}
    assert set(np.unique(out.data).tolist()) <= allowed


def test_resample_to_different_target_geometry():
    vol = random_intensity((8, 8, 8), seed=1)
    target = make_centered_geometry((5, 5, 5), (1.5, 1.5, 1.5))
    out = resample_intensity(vol, AffineTransform.identity(), target)
    assert out.dims == (5, 5, 5)
    # the shared world center must carry the source's center value
    center_val = out.data[2, 2, 2]
    src_center = vol.data[3:5, 3:5, 3:5].mean()  # center falls mid-cell at (3.5, 3.5, 3.5)
    npt.assert_allclose(center_val, src_center, rtol=1e-9)


# --- z-slab boundaries: nz = 33 spans five slabs of 8, the last one partial ---


def _tilted(translation=(0.0, 0.0, 0.0)) -> AffineTransform:
    c, s = np.cos(0.3), np.sin(0.3)
    about_x = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    about_y = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    return AffineTransform.from_linear_translation(about_y @ about_x, translation)


def test_resampling_across_z_slabs_matches_per_voxel_loop():
    spacing = (1.0, 1.2, 0.9)
    img = random_intensity((9, 8, 30), seed=21, spacing=spacing)
    lab = random_labels((9, 8, 30), 7, seed=21, spacing=spacing)
    target = make_centered_geometry((7, 6, 33), (1.1, 0.9, 0.7))
    t = _tilted((0.7, -1.3, -1.0))
    m = np.linalg.inv(img.geometry.index_to_world.matrix) @ t.matrix @ target.index_to_world.matrix
    n = np.array(img.dims)
    want_img = np.zeros(target.dims)
    want_lab = np.zeros(target.dims, dtype=np.uint16)
    inside = np.zeros(target.dims, dtype=bool)
    for ijk in np.ndindex(*target.dims):
        c = (m @ [*ijk, 1.0])[:3]
        if np.all((c >= 0.0) & (c <= n - 1)):
            inside[ijk] = True
            lo = np.floor(c).astype(int)
            hi = np.minimum(lo + 1, n - 1)
            f = c - lo
            want_img[ijk] = sum(
                np.prod(np.where(corner, f, 1.0 - f)) * img.data[tuple(np.where(corner, hi, lo))]
                for corner in itertools.product((False, True), repeat=3)
            )
        r = np.ceil(c - 0.5).astype(int)
        if np.all((r >= 0) & (r < n)):
            want_lab[ijk] = lab.data[tuple(r)]
    # the last, partial slab both samples the source and falls outside it
    assert 0 < np.count_nonzero(inside[:, :, 32:]) < 42
    out_img = resample_intensity(img, t, target)
    npt.assert_allclose(out_img.data, want_img, rtol=1e-12, atol=1e-12)
    _assert_zero_outside(out_img.data, inside)
    npt.assert_array_equal(resample_labels(lab, t, target).data, want_lab)


# --- Strided flat gather: bytewise equal to the three-index eight-corner formula ---


def _assert_zero_outside(out, inside):
    """Every voxel of ``out`` off ``inside`` is all zero bytes: +0.0, or label 0."""
    assert out[~inside].tobytes() == bytes(out[~inside].nbytes)


def _source_coords(src, t, target):
    """Continuous source index of every target voxel, computed as the resamplers do."""
    m = np.linalg.inv(src.geometry.index_to_world.matrix) @ t.matrix @ target.index_to_world.matrix
    nx, ny, nz = target.dims
    xi = np.arange(nx, dtype=np.float64)[:, None, None]
    yi = np.arange(ny, dtype=np.float64)[None, :, None]
    zi = np.arange(nz, dtype=np.float64)[None, None, :]
    return [m[a, 0] * xi + m[a, 1] * yi + m[a, 2] * zi + m[a, 3] for a in range(3)]


def _lerp(a, b, f):
    return a + f * (b - a)


def _three_index_corners(src, t, target):
    """What both three-index trilinear oracles read, per target voxel.

    Whether the voxel is inside, a reader ``d(x, y, z)`` of the source in
    float64, the lower and upper corner indices (the upper clipped to the
    grid) and the fractions.
    """
    cx, cy, cz = _source_coords(src, t, target)
    sx, sy, sz = src.dims
    data = src.data.astype(np.float64)
    inside = (
        (cx >= 0.0) & (cx <= sx - 1)
        & (cy >= 0.0) & (cy <= sy - 1)
        & (cz >= 0.0) & (cz <= sz - 1)
    )
    x0 = np.clip(np.floor(cx).astype(np.intp), 0, sx - 1)
    y0 = np.clip(np.floor(cy).astype(np.intp), 0, sy - 1)
    z0 = np.clip(np.floor(cz).astype(np.intp), 0, sz - 1)
    x1 = np.minimum(x0 + 1, sx - 1)
    y1 = np.minimum(y0 + 1, sy - 1)
    z1 = np.minimum(z0 + 1, sz - 1)
    fx = np.clip(cx - x0, 0.0, 1.0)
    fy = np.clip(cy - y0, 0.0, 1.0)
    fz = np.clip(cz - z0, 0.0, 1.0)
    return inside, lambda x, y, z: data[x, y, z], (x0, y0, z0), (x1, y1, z1), (fx, fy, fz)


def _three_index_trilinear(src, t, target):
    """Trilinear in lerp form ``a + f*(b - a)``: four lerps along x, two along y, one along z."""
    inside, d, (x0, y0, z0), (x1, y1, z1), (fx, fy, fz) = _three_index_corners(src, t, target)
    c0 = _lerp(_lerp(d(x0, y0, z0), d(x1, y0, z0), fx), _lerp(d(x0, y1, z0), d(x1, y1, z0), fx), fy)
    c1 = _lerp(_lerp(d(x0, y0, z1), d(x1, y0, z1), fx), _lerp(d(x0, y1, z1), d(x1, y1, z1), fx), fy)
    return np.where(inside, _lerp(c0, c1, fz), 0.0), inside


def _eight_corner_trilinear(src, t, target):
    """Trilinear as the eight-corner sum ``d000*gx*gy*gz + d100*fx*gy*gz + ...``."""
    inside, d, (x0, y0, z0), (x1, y1, z1), (fx, fy, fz) = _three_index_corners(src, t, target)
    gx, gy, gz = 1.0 - fx, 1.0 - fy, 1.0 - fz
    val = (
        d(x0, y0, z0) * gx * gy * gz
        + d(x1, y0, z0) * fx * gy * gz
        + d(x0, y1, z0) * gx * fy * gz
        + d(x0, y0, z1) * gx * gy * fz
        + d(x1, y1, z0) * fx * fy * gz
        + d(x1, y0, z1) * fx * gy * fz
        + d(x0, y1, z1) * gx * fy * fz
        + d(x1, y1, z1) * fx * fy * fz
    )
    return np.where(inside, val, 0.0), inside


def _three_index_nearest(src, t, target):
    rx, ry, rz = (np.ceil(c - 0.5).astype(np.intp) for c in _source_coords(src, t, target))
    sx, sy, sz = src.dims
    inside = (
        (rx >= 0) & (rx < sx)
        & (ry >= 0) & (ry < sy)
        & (rz >= 0) & (rz < sz)
    )
    rx = np.clip(rx, 0, sx - 1)
    ry = np.clip(ry, 0, sy - 1)
    rz = np.clip(rz, 0, sz - 1)
    return np.where(inside, src.data[rx, ry, rz], 0), inside


def _memory_layouts(data):
    """The same voxels stored x-fastest (NIfTI), z-fastest, and x-z-y."""
    permuted = np.ascontiguousarray(data.transpose(1, 2, 0)).transpose(2, 0, 1)
    return {
        "F": np.asfortranarray(data),
        "C": np.ascontiguousarray(data),
        "permuted": permuted,
    }


_TILTED_SCALED = AffineTransform.from_linear_translation(
    _tilted().linear @ np.diag([1.3, 0.8, 1.1]), (0.9, -1.7, 0.6)
)

# (source geometry, target geometry, transform); the test checks that each
# case reaches what its name says
_GATHER_CASES = {
    "tilted-scaled": (make_centered_geometry((9, 8, 12), (1.0, 1.2, 0.9)),
                      make_centered_geometry((8, 7, 19), (1.1, 0.9, 0.7)),
                      _TILTED_SCALED),
    "last-plane": (make_centered_geometry((9, 7, 5)),
                   make_centered_geometry((5, 4, 3), (2.0, 2.0, 2.0)),
                   AffineTransform.identity()),
    "size-1-axis": (make_centered_geometry((9, 1, 7)),
                    make_centered_geometry((9, 1, 7)),
                    AffineTransform.translation((0.3, 0.0, -0.2))),
}


@pytest.mark.parametrize("layout", ["F", "C", "permuted"])
@pytest.mark.parametrize("case", sorted(_GATHER_CASES))
def test_flat_gather_is_bytewise_equal_to_three_index_formula(case, layout):
    geometry, target, t = _GATHER_CASES[case]
    dims = geometry.dims
    rng = np.random.default_rng(31)
    img = IntensityVolume(geometry, _memory_layouts(rng.uniform(-50.0, 50.0, dims))[layout])
    lab = LabelVolume(geometry, _memory_layouts(rng.integers(0, 6, dims))[layout], 6)
    # the constructors copy every layout x-fastest
    assert img.data.flags.f_contiguous and lab.data.flags.f_contiguous
    want_img, inside = _three_index_trilinear(img, t, target)
    want_lab, reached = _three_index_nearest(lab, t, target)
    coords = _source_coords(img, t, target)
    if case == "tilted-scaled":
        assert 0 < np.count_nonzero(inside) < inside.size
    if case == "last-plane":
        assert all(np.any(c == n - 1) for c, n in zip(coords, dims)) and inside.all()
    if case == "size-1-axis":
        assert np.all(coords[1] == 0.0) and inside.any()
    got_img = resample_intensity(img, t, target)
    got_lab = resample_labels(lab, t, target)
    assert got_img.data.tobytes() == want_img.tobytes()
    assert got_lab.data.dtype == np.uint8  # 6 labels
    assert got_lab.data.tobytes() == want_lab.astype(got_lab.data.dtype).tobytes()
    _assert_zero_outside(got_img.data, inside)
    _assert_zero_outside(got_lab.data, reached)


@pytest.mark.parametrize("num_labels, dtype", [(256, np.uint8), (300, np.uint16)])
def test_resample_labels_keeps_the_label_type(num_labels, dtype):
    geometry, target, t = _GATHER_CASES["tilted-scaled"]
    data = np.random.default_rng(37).integers(0, num_labels, geometry.dims)
    lab = LabelVolume(geometry, np.asfortranarray(data), num_labels)
    want, inside = _three_index_nearest(lab, t, target)
    assert 0 < np.count_nonzero(inside) < inside.size
    got = resample_labels(lab, t, target)
    assert lab.data.dtype == got.data.dtype == dtype
    assert got.data.tobytes() == want.astype(dtype).tobytes()
    _assert_zero_outside(got.data, inside)
    assert int(want.max()) == num_labels - 1


@pytest.mark.parametrize("dtype", [np.float64, np.float32, "labels"])
def test_outside_voxels_are_positive_zero(dtype):
    # every source value is negative, or a label above 0, so an outside voxel
    # reads a value it must not keep; -0.0 equals 0.0, so compare bytes
    geometry, target, t = _GATHER_CASES["tilted-scaled"]
    rng = np.random.default_rng(40)
    if dtype == "labels":
        src = LabelVolume(geometry, np.asfortranarray(rng.integers(1, 6, geometry.dims)), 6)
        got, (_, inside) = resample_labels(src, t, target), _three_index_nearest(src, t, target)
    else:
        values = rng.uniform(-50.0, -1.0, geometry.dims).astype(dtype, order="F")
        src = IntensityVolume._adopt(geometry, values)
        got, (_, inside) = resample_intensity(src, t, target), _three_index_trilinear(src, t, target)
        assert got.data.dtype == dtype
        assert not np.signbit(got.data[~inside]).any()
    assert 0 < np.count_nonzero(inside) < inside.size
    _assert_zero_outside(got.data, inside)
    assert got.data[inside].all()


# --- Cropped, threaded sweep: bytewise equal to the uncropped serial kernel ---


def _uncropped_trilinear(src, t, target):
    """The trilinear kernel over the whole target at once: flat gathers, lerp form."""
    cx, cy, cz = _source_coords(src, t, target)
    sx, sy, sz = src.dims
    flat = src.data.ravel(order="K")
    stx, sty, stz = (s // src.data.itemsize for s in src.data.strides)
    inside = np.ones(cx.shape, dtype=bool)
    for c, n in zip((cx, cy, cz), src.dims):
        inside &= (c >= 0.0) & (c <= n - 1)
    x0, y0, z0 = np.floor(cx), np.floor(cy), np.floor(cz)
    i000 = np.where(inside, x0 * stx + y0 * sty + z0 * stz, 0.0).astype(np.intp)
    dx = (inside & (cx < sx - 1)) * stx
    dy = (inside & (cy < sy - 1)) * sty
    dz = (inside & (cz < sz - 1)) * stz
    fx, fy, fz = cx - x0, cy - y0, cz - z0

    def d(i):
        return flat.take(i).astype(np.float64)

    def along_x(i):
        return _lerp(d(i), d(i + dx), fx)

    c0 = _lerp(along_x(i000), along_x(i000 + dy), fy)
    c1 = _lerp(along_x(i000 + dz), along_x(i000 + dy + dz), fy)
    return np.where(inside, _lerp(c0, c1, fz), 0.0), inside


def _uncropped_nearest(src, t, target):
    """The nearest-neighbour kernel as it ran before cropping, over the whole target."""
    rx, ry, rz = _source_coords(src, t, target)
    flat = src.data.ravel(order="K")
    stx, sty, stz = (s // src.data.itemsize for s in src.data.strides)
    inside = np.ones(rx.shape, dtype=bool)
    for c, n in zip((rx, ry, rz), src.dims):
        np.ceil(np.subtract(c, 0.5, out=c), out=c)
        inside &= (c >= 0.0) & (c < n)
    index = np.where(inside, rx * stx + ry * sty + rz * stz, 0.0).astype(np.intp)
    return np.where(inside, flat.take(index), 0), inside


def _faces(mask):
    """Whether ``mask`` has a set voxel on each of the six faces of its grid."""
    return [bool(np.take(mask, end, axis=a).any()) for a in range(3) for end in (0, -1)]


_QUARTER = np.pi / 2  # cos(_QUARTER) is 6e-17, not 0
_ROT90 = np.array(
    [[np.cos(_QUARTER), -np.sin(_QUARTER), 0.0], [np.sin(_QUARTER), np.cos(_QUARTER), 0.0],
     [0.0, 0.0, 1.0]]
)

# (source geometry, target geometry, transform); every target nz is off the
# slab size, and the test checks that each case reaches what its name says
_CROP_CASES = {
    "tilted-scaled": _GATHER_CASES["tilted-scaled"],
    "fully-outside": (make_centered_geometry((9, 8, 12)),
                      make_centered_geometry((8, 7, 19)),
                      AffineTransform.from_linear_translation(_tilted().linear, (40.0, 0.0, 0.0))),
    "small-fov": (make_centered_geometry((10, 9, 7), (1.0, 1.1, 1.2)),
                  make_centered_geometry((23, 21, 22)),
                  _tilted((0.4, -0.3, 0.2))),
    "every-face": (make_centered_geometry((14, 13, 15)),
                   make_centered_geometry((15, 14, 13)),
                   _tilted((0.2, 0.1, -0.3))),
    "interior": (make_centered_geometry((24, 22, 26)),
                 make_centered_geometry((9, 8, 11)),
                 _tilted((0.3, -0.2, 0.1))),
    "rot90": (make_centered_geometry((12, 9, 10)),
              make_centered_geometry((10, 11, 13)),
              AffineTransform.from_linear_translation(_ROT90, (0.5, 0.0, -1.0))),
    "subnormal-shear": (make_centered_geometry((9, 8, 12)),
                        make_centered_geometry((10, 9, 13)),
                        AffineTransform.from_linear_translation(
                            [[1.0, 0.0, 0.0], [5e-324, 1.0, 0.0], [0.0, 0.0, 1.0]],
                            (0.5, 0.25, -0.5))),
}


@pytest.mark.parametrize("jobs", [1, 2, 3, 40])
@pytest.mark.parametrize("case", sorted(_CROP_CASES))
def test_cropped_threaded_sweep_is_bytewise_equal_to_uncropped_kernel(monkeypatch, case, jobs):
    # these targets are far below the voxels that earn a second thread; lift that floor
    monkeypatch.setattr(geometry_module, "_SWEEP_VOXELS", 1)
    geometry, target, t = _CROP_CASES[case]
    rng = np.random.default_rng(34)
    img = IntensityVolume(geometry, np.asfortranarray(rng.uniform(-50.0, 50.0, geometry.dims)))
    lab = LabelVolume(geometry, np.asfortranarray(rng.integers(1, 6, geometry.dims)), 6)
    want_img, inside = _uncropped_trilinear(img, t, target)
    want_lab, reached = _uncropped_nearest(lab, t, target)
    assert target.dims[2] % 8 != 0 and target.dims[2] < 40  # nz off the slab; 40 jobs exceed nz
    if case in ("tilted-scaled", "rot90", "subnormal-shear"):
        assert 0 < np.count_nonzero(inside) < inside.size
    if case == "fully-outside":
        assert not reached.any()
    if case == "small-fov":
        # the source covers an inner box of the target: the register crop
        assert reached.any() and not any(_faces(reached))
    if case == "every-face":
        assert all(_faces(inside)) and not reached.all()
    if case == "interior":
        coords = _source_coords(img, t, target)
        assert all(c.min() >= 0.0 and c.max() < n - 1 for c, n in zip(coords, geometry.dims))
    if case == "rot90":
        assert 0.0 < abs(t.linear[0, 0]) < 1e-15
    if case == "subnormal-shear":
        assert 0.0 < t.linear[1, 0] < np.finfo(np.float64).tiny
    got_img = resample_intensity(img, t, target, jobs=jobs)
    got_lab = resample_labels(lab, t, target, jobs=jobs)
    assert got_img.data.tobytes() == want_img.tobytes()
    assert got_lab.data.dtype == np.uint8  # 6 labels
    assert got_lab.data.tobytes() == want_lab.astype(got_lab.data.dtype).tobytes()
    _assert_zero_outside(got_img.data, inside)
    _assert_zero_outside(got_lab.data, reached)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("case", sorted(_CROP_CASES))
def test_lerp_agrees_with_the_eight_corner_formula(case, dtype):
    # the lerp form moves a float64 value in its last bits only; the output is
    # the lerp's float64 value, rounded once to the source's output type
    geometry, target, t = _CROP_CASES[case]
    values = np.random.default_rng(38).uniform(-50.0, 50.0, geometry.dims)
    img = IntensityVolume._adopt(geometry, values.astype(dtype, order="F"))
    lerp, inside = _three_index_trilinear(img, t, target)
    corners, _ = _eight_corner_trilinear(img, t, target)
    npt.assert_allclose(lerp, corners, rtol=1e-12, atol=1e-12)
    got = resample_intensity(img, t, target)
    assert got.data.dtype == dtype
    assert got.data.tobytes() == lerp.astype(dtype).tobytes()
    _assert_zero_outside(got.data, inside)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_lerp_on_the_last_planes_returns_its_lower_corner(dtype):
    # target index 1 lands exactly on the source's last plane on each axis, where
    # the step to the upper neighbour is 0: each lerp there is a + f*0, a itself
    dims, spacing = (5, 4, 6), (0.5, 0.25, 0.75)
    source = VolumeGeometry(dims, (1.0, 1.0, 1.0), AffineTransform.identity())
    offset = [n - 1 - s for n, s in zip(dims, spacing)]
    target = VolumeGeometry(
        (2, 2, 2), spacing, AffineTransform.from_linear_translation(np.diag(spacing), offset)
    )
    values = np.random.default_rng(39).uniform(-50.0, 50.0, dims)
    img = IntensityVolume._adopt(source, values.astype(dtype, order="F"))
    t = AffineTransform.identity()
    coords = _source_coords(img, t, target)
    assert all(np.all(np.take(c, 1, axis=a) == n - 1) for a, (c, n) in enumerate(zip(coords, dims)))
    want, inside = _three_index_trilinear(img, t, target)
    assert inside.all()
    got = resample_intensity(img, t, target).data
    assert got.tobytes() == want.astype(dtype).tobytes()
    d = img.data.astype(np.float64)
    # the last corner on all three axes; bilinear in y and z on the last x
    # plane (fy = 0.75, fz = 0.25); linear in x on the last y and z planes (fx = 0.5)
    assert got[1, 1, 1] == d[-1, -1, -1]
    along_y = [_lerp(d[-1, -2, z], d[-1, -1, z], 0.75) for z in (-2, -1)]
    assert got[1, 0, 0] == dtype(_lerp(*along_y, 0.25))
    assert got[0, 1, 1] == dtype(_lerp(d[-2, -1, -1], d[-1, -1, -1], 0.5))


def _plane_box(m, dims, z, lo, hi):
    """The crop box of plane ``z`` alone: the per-plane oracle for ``_boxes``."""
    nx, ny, nz = dims
    yi = np.arange(ny, dtype=np.float64)
    xa = np.zeros(ny)
    xb = np.full(ny, nx - 1.0)
    for a in range(3):
        k = m[a, 0]
        eps = 1e-9 * (1.0 + np.abs(m[a]) @ (nx, ny, nz, 1.0))
        rest = m[a, 1] * yi + m[a, 2] * z + m[a, 3]
        below, above = lo - eps - rest, hi[a] + eps - rest
        if abs(k) * nx <= eps:
            xb[(below > eps) | (above < -eps)] = -1.0
        else:
            ends = below / k, above / k
            np.maximum(xa, np.minimum(*ends), out=xa)
            np.minimum(xb, np.maximum(*ends), out=xb)
    rows = xa <= xb
    if not rows.any():
        return None
    ys = np.flatnonzero(rows)
    return (
        slice(int(np.floor(xa[rows].min())), int(np.ceil(xb[rows].max())) + 1),
        slice(int(ys[0]), int(ys[-1]) + 1),
    )


@pytest.mark.parametrize("case", sorted(_CROP_CASES))
def test_blocked_crop_boxes_equal_the_per_plane_boxes(case):
    geometry, target, t = _CROP_CASES[case]
    m = _pullback(geometry, t, target)
    nz = target.dims[2]
    assert nz % _BOX_BLOCK != 0
    reaches = {
        "trilinear": (0.0, tuple(n - 1 for n in geometry.dims)),
        "nearest": (-0.5, tuple(n - 0.5 for n in geometry.dims)),
    }
    for lo, hi in reaches.values():
        want = [_plane_box(m, target.dims, z, lo, hi) for z in range(nz)]
        # whole blocks from 0, and blocks from an odd start as a later thread takes them
        for start in (0, 3):
            got = []
            for z0 in range(start, nz, _BOX_BLOCK):
                got += _boxes(m, target.dims, z0, min(z0 + _BOX_BLOCK, nz), lo, hi)
            assert got == want[start:]
        full = (slice(0, target.dims[0]), slice(0, target.dims[1]))
        if case == "fully-outside":
            assert want == [None] * nz
        if case == "small-fov":
            assert None in want and any(b not in (None, full) for b in want)
        if case == "interior":
            assert want == [full] * nz


def test_sweep_runs_one_thread_per_usable_cpu_at_most(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    calls = []
    _sweep(calls.append, (1024, 1024, 19), jobs=4)
    assert calls == [(0, 19)]


@pytest.mark.parametrize(
    "dims, jobs, threads",
    [
        ((48, 56, 40), 2, 1),  # the benchmark's SMALL atlas grid ...
        ((72, 72, 48), 2, 1),  # ... and native grid
        ((172, 220, 156), 2, 2),  # the paper's atlas grid, 5.9 M voxels ...
        ((256, 256, 170), 2, 2),  # ... and the benchmark's native grid, 11.1 M
        ((172, 220, 156), 64, 11),
        ((1024, 1024, 1), 2, 1),  # one plane
        ((1024, 1, 1023), 2, 1),  # one voxel short of two threads' floor
        ((1024, 1, 1024), 3, 2),
        ((1024, 1, 1024), 1, 1),
    ],
)
def test_sweep_threads_are_capped_by_target_voxels(monkeypatch, dims, jobs, threads):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    assert geometry_module._SWEEP_VOXELS == 1 << 19
    ranges = []
    _sweep(ranges.append, dims, jobs)
    assert len(ranges) == threads
    assert sorted(ranges)[0][0] == 0 and sorted(ranges)[-1][1] == dims[2]


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_each_keeps_item_order_on_the_calling_thread_and_the_pool(jobs):
    threads = set()

    def fn(i):
        threads.add(threading.get_ident())
        time.sleep(0.01)  # long enough for every pool thread to take an item
        return 10 * i

    assert _each(fn, range(7), jobs) == [10 * i for i in range(7)]
    assert len(threads) == jobs and threading.get_ident() in threads


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_each_takes_no_item_after_a_failure_and_raises_the_first_in_item_order(jobs):
    # item 2 fails late, item 3 (on another thread when jobs > 1) at once
    calls = []

    def fn(i):
        calls.append(i)  # list.append is atomic
        if i == 2:
            time.sleep(0.2)
        if i in (2, 3):
            raise ValueError(f"item {i}")
        return i

    with pytest.raises(ValueError, match="^item 2$"):
        _each(fn, range(1000), jobs)
    assert sorted(calls)[:3] == [0, 1, 2] and len(calls) < 50


@pytest.mark.parametrize("case", sorted(_CROP_CASES))
def test_sweep_beyond_the_usable_cpus_is_bytewise_equal(monkeypatch, case):
    # a host with few CPUs caps the threads, and so does a small target;
    # lift both caps to run the 3- and 40-way splits
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    monkeypatch.setattr(geometry_module, "_SWEEP_VOXELS", 1)
    geometry, target, t = _CROP_CASES[case]
    rng = np.random.default_rng(35)
    img = IntensityVolume(geometry, np.asfortranarray(rng.uniform(-50.0, 50.0, geometry.dims)))
    lab = LabelVolume(geometry, np.asfortranarray(rng.integers(1, 6, geometry.dims)), 6)
    want_img = resample_intensity(img, t, target).data
    want_lab = resample_labels(lab, t, target).data
    _assert_zero_outside(want_img, _three_index_trilinear(img, t, target)[1])
    _assert_zero_outside(want_lab, _three_index_nearest(lab, t, target)[1])
    for jobs in (3, 40):
        assert resample_intensity(img, t, target, jobs=jobs).data.tobytes() == want_img.tobytes()
        assert resample_labels(lab, t, target, jobs=jobs).data.tobytes() == want_lab.tobytes()

def test_resampling_never_copies_the_source():
    # NIfTI volumes are read x-fastest; flattening one in C order would copy it
    geometry = make_centered_geometry((64, 64, 64))
    rng = np.random.default_rng(32)
    img = IntensityVolume(geometry, np.asfortranarray(rng.uniform(0.0, 1.0, geometry.dims)))
    lab = LabelVolume(geometry, np.asfortranarray(rng.integers(0, 9, geometry.dims)), 9)
    target = make_centered_geometry((4, 4, 4), (8.0, 8.0, 8.0))
    for resample, src in ((resample_intensity, img), (resample_labels, lab)):
        tracemalloc.start()
        try:
            resample(src, _tilted(), target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < src.data.nbytes / 2, resample.__name__


@pytest.mark.parametrize(
    "resample, jobs, source",
    [
        pytest.param(r, j, None, id=r.__name__ if j == 1 else f"{r.__name__}-jobs{j}")
        for r in (resample_intensity, resample_labels)
        for j in (1, 2)
    ] + [
        pytest.param(resample_intensity, j, np.float32, id=f"resample_intensity-float32-jobs{j}")
        for j in (1, 2)
    ],
)
def test_resampling_allocates_its_output_once(monkeypatch, resample, jobs, source):
    # a long z axis makes the one-plane temporaries small next to the output,
    # so a second copy of the output (the volume constructor's) shows up
    monkeypatch.setattr(geometry_module, "_SWEEP_VOXELS", 1)  # two threads at jobs=2
    geometry = make_centered_geometry((32, 32, 32))
    rng = np.random.default_rng(33)
    if resample is resample_intensity:
        values = rng.uniform(0.0, 1.0, geometry.dims)
        if source is None:
            src = IntensityVolume(geometry, values)
        else:  # a stored type, as read_nifti keeps it: x-fastest
            src = IntensityVolume._adopt(geometry, values.astype(source, order="F"))
    else:
        src = LabelVolume(geometry, rng.integers(0, 9, geometry.dims), 9)
    target = make_centered_geometry((32, 32, 512))
    peak, out = peak_alloc(lambda: resample(src, AffineTransform.identity(), target, jobs=jobs))
    if resample is resample_intensity:
        assert out.data.dtype == (np.float64 if source is None else np.float32)
    # a second copy (or a float64 output cast to float32) would reach 2x; next to
    # a one-byte label output the float64 plane temporaries weigh twice what they
    # did next to uint16
    assert peak < (1.3 if resample is resample_intensity else 1.6) * out.data.nbytes


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("resample", [resample_intensity, resample_labels])
def test_resampling_temporaries_are_a_few_planes_per_thread(monkeypatch, resample, jobs):
    # each thread sweeps one target plane at a time; a slab of several planes
    # holds each of its ~20 float64 temporaries that many times over
    monkeypatch.setattr(geometry_module, "_SWEEP_VOXELS", 1)  # two threads at jobs=2
    geometry = make_centered_geometry((64, 64, 24))
    rng = np.random.default_rng(36)
    if resample is resample_intensity:
        src = IntensityVolume(geometry, np.asfortranarray(rng.uniform(0.0, 1.0, geometry.dims)))
    else:
        src = LabelVolume(geometry, np.asfortranarray(rng.integers(0, 9, geometry.dims)), 9)
    target = make_centered_geometry((96, 96, 16))
    peak, out = peak_alloc(lambda: resample(src, _tilted(), target, jobs=jobs))
    plane = 96 * 96 * np.dtype(np.float64).itemsize
    assert peak - out.data.nbytes < 24 * jobs * plane


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_register_fast_path_builds_one_corner_index_per_thread(monkeypatch, dtype, jobs):
    # every target voxel has all eight corners, so each corner is a fixed step
    # from one index plane: a thread's temporaries stay under 17 planes, next to
    # the 3 plane terms the threads share.  An index plane per corner (three
    # more, and one per upper corner in turn) reaches 19 per thread.  The
    # threads are not always at their peaks at once, so the worst of five
    # calls is bounded
    monkeypatch.setattr(geometry_module, "_SWEEP_VOXELS", 1)  # two threads at jobs=2
    geometry = make_centered_geometry((160, 160, 24))
    values = np.random.default_rng(37).uniform(0.0, 1.0, geometry.dims)
    src = IntensityVolume._adopt(geometry, values.astype(dtype, order="F"))
    c, s = np.cos(0.1), np.sin(0.1)
    inside = AffineTransform.from_linear_translation(
        [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]], [0.3, -0.2, 0.4]
    )
    target = make_centered_geometry((96, 96, 16))  # wholly inside the source
    worst = max(
        peak - out.data.nbytes
        for peak, out in (
            peak_alloc(lambda: resample_intensity(src, inside, target, jobs=jobs))
            for _ in range(5)
        )
    )
    plane = 96 * 96 * np.dtype(np.float64).itemsize
    assert worst < (3 + 17 * jobs) * plane


def test_user_arrays_are_copied():
    g = make_centered_geometry((3, 3, 3))
    for make, a in (
        (lambda a: IntensityVolume(g, a), np.zeros((3, 3, 3))),
        (lambda a: LabelVolume(g, a, 4), np.zeros((3, 3, 3), dtype=np.uint16)),
    ):
        vol = make(a)
        assert a.flags.writeable
        a[0, 0, 0] = 1
        assert vol.data[0, 0, 0] == 0
        assert not np.shares_memory(a, vol.data)


class _FailingBackend(SegmenterBackend):
    num_labels = 4

    def segment(self, tile_input, tile):
        raise RuntimeError("no answer")


def _package_built_volumes(tmp_path) -> list:
    """One volume from each place the package builds or decodes one."""
    img = random_intensity((4, 5, 6), seed=3)
    lab = random_labels((4, 5, 6), 4, seed=3)  # from a C-order array, like any user array
    grid = build_grid((4, 5, 6), (2, 1, 1), (3, 5, 6))
    tiles = [extract_tile(lab, t) for t in grid.tiles]
    mask = lab.with_data(np.ones(lab.dims))
    tile_input = extract_tile(img, grid.tiles[0])
    tio.write_raw(lab, tmp_path / "lab.raw")
    tio.write_nifti(lab, tmp_path / "lab.nii")
    with pytest.warns(UserWarning, match="substituting background"):
        substituted = segment_answers(_FailingBackend(), img, grid, on_tile_failure="background")
    return [
        resample_intensity(img, _tilted(), img.geometry),
        resample_labels(lab, _tilted(), lab.geometry),
        harmonize(copied(img), fit_model([img], [mask], quantile_count=8))[0],
        fit_model([img], [mask], quantile_count=8).mask,
        fuse_majority(tiles, grid).fused,
        ConstantOracle(1, 4).segment(tile_input, grid.tiles[0]),
        CorruptingWrapper(ConstantOracle(1, 4), 0, 2).segment(tile_input, grid.tiles[0]),
        substituted[0],
        tio.read_raw(tmp_path / "lab.raw", lab.geometry, lab.num_labels),
        tio.read_nifti(tmp_path / "lab.nii", as_labels=True)[0],
    ]


def test_package_built_volumes_are_read_only(tmp_path):
    for vol in _package_built_volumes(tmp_path):
        assert not vol.data.flags.writeable
        with pytest.raises(ValueError):
            vol.data[0, 0, 0] = 1


def test_package_built_label_arrays_are_x_fastest(tmp_path):
    labels = [v for v in _package_built_volumes(tmp_path) if isinstance(v, LabelVolume)]
    assert len(labels) == 8
    for vol in labels:
        assert vol.data.flags.f_contiguous and not vol.data.flags.c_contiguous


def test_package_built_intensity_arrays_are_x_fastest(tmp_path):
    volumes = [v for v in _package_built_volumes(tmp_path) if isinstance(v, IntensityVolume)]
    img = random_intensity((4, 5, 6), seed=3)  # from a C-order array
    tio.write_nifti(img, tmp_path / "img.nii")
    volumes += [
        img,
        intensity_from_labels(random_labels((4, 5, 6), 4), noise=1.0),
        tio.read_nifti(tmp_path / "img.nii")[0],
    ]
    assert len(volumes) == 5
    for vol in volumes:
        assert vol.data.flags.f_contiguous and not vol.data.flags.c_contiguous
    # a tile is a view with the volume's x-fastest strides, contiguous only along x
    tile = extract_tile(img, build_grid((4, 5, 6), (2, 1, 1), (3, 5, 6)).tiles[1])
    assert np.shares_memory(tile.data, img.data) and tile.data.strides == img.data.strides
    assert not tile.data.flags.f_contiguous and not tile.data.flags.c_contiguous


@pytest.mark.parametrize(
    "view, dense",
    [
        (lambda a: a, True),
        (np.asfortranarray, True),
        (lambda a: np.ascontiguousarray(a.transpose(0, 2, 1)).transpose(0, 2, 1), True),
        (lambda a: a[:, ::2], False),
        (lambda a: np.broadcast_to(a[:, :1], a.shape), False),
    ],
    ids=["C", "F", "x-z-y", "strided", "broadcast"],
)
def test_adopt_takes_dense_arrays_only(view, dense):
    # the one dense layout a volume holds is x-fastest; the constructors copy any other into it
    arr = view(np.arange(120.0).reshape(4, 6, 5))
    g = make_centered_geometry(arr.shape)
    if dense and arr.flags.f_contiguous:
        assert IntensityVolume._adopt(g, arr).data is arr
    else:
        with pytest.raises(AssertionError, match="x-fastest"):
            IntensityVolume._adopt(g, arr)
    for vol in (IntensityVolume(g, arr), LabelVolume(g, arr, 120)):
        assert vol.data.flags.f_contiguous and not np.shares_memory(vol.data, arr)
        assert np.array_equal(vol.data, arr)


# --- Moments-based affine estimation ---


def test_moments_identity_when_volumes_equal():
    vol = random_intensity((12, 12, 12), seed=2, lo=1.0, hi=10.0)
    est = estimate_affine_moments(vol, vol)
    assert np.allclose(est.matrix, np.eye(4), atol=1e-6)


def test_moments_recovers_pure_translation():
    fixed = random_intensity((12, 12, 12), seed=2, lo=1.0, hi=10.0)
    offset = (4.0, -3.0, 2.5)
    base = make_centered_geometry((12, 12, 12))
    moved_i2w = compose(AffineTransform.translation(offset), base.index_to_world)
    moving = IntensityVolume(VolumeGeometry((12, 12, 12), base.spacing, moved_i2w), fixed.data)
    est = estimate_affine_moments(moving, fixed)
    # identical content, so the centroid shift is recovered exactly
    npt.assert_allclose(est.offset, offset, atol=1e-9)
    npt.assert_allclose(est.linear, np.eye(3), atol=1e-9)


def test_moments_recovers_isotropic_scale():
    fixed = random_intensity((16, 16, 16), seed=4, lo=1.0, hi=10.0)
    # same data on a grid with doubled spacing = content twice as large
    moving = IntensityVolume(make_centered_geometry((16, 16, 16), (2.0, 2.0, 2.0)), fixed.data)
    est = estimate_affine_moments(moving, fixed)
    npt.assert_allclose(np.diag(est.linear), [2.0, 2.0, 2.0], rtol=0.05)


def test_moments_rejects_zero_mass():
    g = make_centered_geometry((4, 4, 4))
    empty = IntensityVolume(g, np.zeros((4, 4, 4)))
    with pytest.raises(GeometryError):
        estimate_affine_moments(empty, empty)


def _full_grid_moments(vol):
    world = apply_affine(vol.geometry.index_to_world, np.indices(vol.dims).reshape(3, -1).T)
    w = vol.data.reshape(-1).astype(np.float64)
    centroid = w @ world / w.sum()
    return centroid, np.sqrt(w @ (world - centroid) ** 2 / w.sum())


def test_moments_match_full_grid_moments():
    base = make_centered_geometry((7, 6, 33), (1.1, 0.9, 0.8))
    tilted = VolumeGeometry(
        base.dims, base.spacing, compose(_tilted((3.0, -2.0, 5.0)), base.index_to_world)
    )
    rng = np.random.default_rng(22)
    values = rng.uniform(1.0, 10.0, size=tilted.dims)
    fixed = random_intensity((10, 9, 35), seed=23, lo=1.0, hi=10.0)
    c_fix, s_fix = _full_grid_moments(fixed)
    # a float64 volume, and one stored as a NIfTI float32 scan is: x-fastest
    for moving in (
        IntensityVolume(tilted, values),
        IntensityVolume._adopt(tilted, np.asfortranarray(values, dtype=np.float32)),
    ):
        c_mov, s_mov = _full_grid_moments(moving)
        est = estimate_affine_moments(moving, fixed)
        npt.assert_allclose(np.diag(est.linear), s_mov / s_fix, rtol=1e-9)
        npt.assert_allclose(est.offset, c_mov - s_mov / s_fix * c_fix, atol=1e-9)


def _moments_from_marginal_sums(vol):
    """The moments as ``estimate_affine_moments`` takes them: from float64 marginal sums."""
    w_xy, w_xz, w_yz = (vol.data.sum(axis=a, dtype=np.float64) for a in (2, 1, 0))
    m_x, m_y, m_z = w_xy.sum(axis=1), w_xy.sum(axis=0), w_xz.sum(axis=0)
    mass = m_x.sum()
    i, j, k = (np.arange(n, dtype=np.float64) for n in vol.dims)
    mean = np.array([i @ m_x, j @ m_y, k @ m_z]) / mass
    di, dj, dk = i - mean[0], j - mean[1], k - mean[2]
    cov = np.array([
        [(di * di) @ m_x, di @ w_xy @ dj, di @ w_xz @ dk],
        [di @ w_xy @ dj, (dj * dj) @ m_y, dj @ w_yz @ dk],
        [di @ w_xz @ dk, dj @ w_yz @ dk, (dk * dk) @ m_z],
    ]) / mass
    lin, offset = vol.geometry.index_to_world.linear, vol.geometry.index_to_world.offset
    return lin @ mean + offset, np.sqrt(np.maximum(np.diag(lin @ cov @ lin.T), 0.0))


def test_moment_sums_are_the_marginal_sums():
    # a stated contract: these sums fix the last bits of every affine=estimate run
    base = make_centered_geometry((21, 18, 29), (1.1, 0.9, 0.8))
    tilted = VolumeGeometry(
        base.dims, base.spacing, compose(_tilted((3.0, -2.0, 5.0)), base.index_to_world)
    )
    rng = np.random.default_rng(37)
    moving = IntensityVolume(tilted, np.asfortranarray(rng.uniform(1.0, 10.0, tilted.dims)))
    fixed = random_intensity((19, 23, 37), seed=38, lo=1.0, hi=10.0)  # from a C-order array
    # the marginals are summed x-fastest, whatever layout the caller's array had
    assert moving.data.flags.f_contiguous and fixed.data.flags.f_contiguous
    c_mov, s_mov = _moments_from_marginal_sums(moving)
    c_fix, s_fix = _moments_from_marginal_sums(fixed)
    scale = s_mov / s_fix
    want = AffineTransform.from_linear_translation(np.diag(scale), c_mov - scale * c_fix)
    assert estimate_affine_moments(moving, fixed).matrix.tobytes() == want.matrix.tobytes()


# the uncentred E[z^2] - E[z]^2 left these a z spread of 8.4e-8 and 6.0e-8, above _DET_EPS
ONE_PLANE = [((1.0, 1.0, 1.0), np.float64, "C", 1), ((1.0, 1.2, 0.9), np.float32, "F", 0)]


@pytest.mark.parametrize("spacing, dtype, order, seed", ONE_PLANE, ids=["f8-C", "f4-F"])
def test_moments_reject_an_intensity_on_one_plane(spacing, dtype, order, seed):
    data = np.zeros((12, 12, 12), dtype=dtype, order=order)
    data[:, :, 0] = np.random.default_rng(seed).uniform(1.0, 1000.0, (12, 12))
    g = make_centered_geometry(data.shape, spacing)
    # a float64 user array of any layout through the constructor; a float32 scan as read
    flat = IntensityVolume(g, data) if dtype == np.float64 else IntensityVolume._adopt(g, data)
    assert flat.data.flags.f_contiguous
    other = random_intensity((12, 12, 12), seed=3, lo=1.0, hi=10.0)
    for moving, fixed in ((flat, other), (other, flat)):
        with pytest.raises(GeometryError, match="degenerate intensity spread"):
            estimate_affine_moments(moving, fixed)


@pytest.mark.parametrize("order", ["F", "C"])
def test_moments_hold_no_copy_of_the_volume(order):
    data = np.random.default_rng(41).uniform(1.0, 10.0, (64, 64, 48))
    g = make_centered_geometry(data.shape)
    if order == "F":  # a float32 scan as read
        vol = IntensityVolume._adopt(g, np.asfortranarray(data, dtype=np.float32))
    else:  # a C-order user array, copied x-fastest by the constructor
        vol = IntensityVolume(g, np.ascontiguousarray(data))
    assert vol.data.flags.f_contiguous
    peak, _ = peak_alloc(lambda: estimate_affine_moments(vol, vol))
    # a float64 copy of a float32 volume would be 2x it; the marginals and numpy's cast buffer ~0.2x
    assert peak < vol.data.nbytes / 4
