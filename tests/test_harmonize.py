import inspect
import json

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import peak_alloc, random_intensity
from tileseg import io as tio
from tileseg.geometry import IntensityVolume, LabelVolume, make_centered_geometry
from tileseg.harmonize import (
    HarmonizationModel,
    HarmonizeError,
    fit_model,
    harmonize,
    load_model,
    save_model,
    sorted_intensities,
    standardize,
)


def _full_mask(geometry):
    return LabelVolume(geometry, np.ones(geometry.dims, dtype=np.uint16), 2)


def _line_volume(values):
    values = np.asarray(values, dtype=np.float64)
    g = make_centered_geometry((values.size, 1, 1))
    return IntensityVolume(g, values.reshape(values.size, 1, 1))


# --- standardize ---


def test_standardize_two_point():
    out = standardize(_line_volume([0.0, 2.0]))
    # population std of {0, 2} is 1, mean is 1
    npt.assert_allclose(out.data.reshape(-1), [-1.0, 1.0])


def test_standardize_zero_mean_unit_std():
    vol = random_intensity((6, 5, 4), seed=1)
    out = standardize(vol)
    assert abs(out.data.mean()) < 1e-12
    npt.assert_allclose(out.data.std(), 1.0, atol=1e-12)


def test_standardize_idempotent():
    vol = random_intensity((6, 5, 4), seed=1)
    once = standardize(vol)
    twice = standardize(once)
    npt.assert_allclose(twice.data, once.data, atol=1e-12)


@given(
    st.floats(0.1, 10.0, allow_nan=False),
    st.floats(-100.0, 100.0, allow_nan=False),
)
def test_standardize_removes_affine_rescaling(a, b):
    vol = random_intensity((5, 5, 5), seed=2)
    base = standardize(vol)
    scaled = standardize(vol.with_data(a * vol.data + b))
    npt.assert_allclose(scaled.data, base.data, atol=1e-9)


def test_standardize_rejects_constant():
    g = make_centered_geometry((3, 3, 3))
    with pytest.raises(HarmonizeError, match="constant"):
        standardize(IntensityVolume(g, np.full((3, 3, 3), 5.0)))


# --- sorted_intensities ---


def test_sorted_profile_descends():
    vol = _line_volume([3.0, 1.0, 2.0])
    out = sorted_intensities(vol, _full_mask(vol.geometry), 3)
    npt.assert_allclose(out, [3.0, 2.0, 1.0])


def test_sorted_profile_interpolates_between_ranks():
    vol = _line_volume([4.0, 0.0])
    out = sorted_intensities(vol, _full_mask(vol.geometry), 3)
    npt.assert_allclose(out, [4.0, 2.0, 0.0])


def test_sorted_profile_constant_input():
    vol = _line_volume([1.0, 1.0, 1.0])
    out = sorted_intensities(vol, _full_mask(vol.geometry), 5)
    npt.assert_allclose(out, np.ones(5))


def test_sorted_profile_single_voxel_mask():
    vol = _line_volume([9.0, 4.0, 7.0])
    mask = LabelVolume(
        vol.geometry, np.array([0, 1, 0], dtype=np.uint16).reshape(3, 1, 1), 2
    )
    out = sorted_intensities(vol, mask, 4)
    npt.assert_allclose(out, np.full(4, 4.0))


def test_sorted_profile_respects_mask_selection():
    vol = _line_volume([10.0, 1.0, 2.0, 3.0])
    mask = LabelVolume(
        vol.geometry, np.array([0, 1, 1, 1], dtype=np.uint16).reshape(4, 1, 1), 2
    )
    out = sorted_intensities(vol, mask, 3)
    npt.assert_allclose(out, [3.0, 2.0, 1.0])


@given(st.integers(2, 40), st.integers(0, 2**32 - 1))
def test_sorted_profile_is_always_non_increasing(q, seed):
    vol = random_intensity((4, 4, 4), seed=seed)
    out = sorted_intensities(vol, _full_mask(vol.geometry), q)
    assert out.size == q
    assert np.all(np.diff(out) <= 1e-12)


def test_sorted_profile_rejects_small_quantile_count():
    vol = _line_volume([1.0, 2.0])
    with pytest.raises(HarmonizeError, match="quantile_count"):
        sorted_intensities(vol, _full_mask(vol.geometry), 1)


def test_sorted_profile_rejects_geometry_mismatch():
    vol = _line_volume([1.0, 2.0])
    other = make_centered_geometry((3, 1, 1))
    with pytest.raises(HarmonizeError, match="geometries"):
        sorted_intensities(vol, _full_mask(other), 4)


def test_sorted_profile_rejects_empty_mask():
    vol = _line_volume([1.0, 2.0])
    mask = LabelVolume(vol.geometry, np.zeros((2, 1, 1), dtype=np.uint16), 2)
    with pytest.raises(HarmonizeError, match="no voxels"):
        sorted_intensities(vol, mask, 4)


# --- fit_model ---


def test_fit_single_atlas_equals_its_own_profile():
    vol = random_intensity((5, 5, 5), seed=3)
    mask = _full_mask(vol.geometry)
    model = fit_model([vol], [mask], quantile_count=16)
    expected = sorted_intensities(standardize(vol), mask, 16)
    npt.assert_allclose(model.mean_sorted, expected, atol=1e-12)
    npt.assert_array_equal(model.mask.data, mask.data)


def test_fit_model_averages_profiles():
    vols = [random_intensity((5, 5, 5), seed=s) for s in (1, 2, 3)]
    mask = _full_mask(vols[0].geometry)
    model = fit_model(vols, [mask] * 3, quantile_count=8)
    # independent oracle: profile each standardized scan, then average
    profiles = [sorted_intensities(standardize(v), mask, 8) for v in vols]
    npt.assert_allclose(model.mean_sorted, np.mean(profiles, axis=0), atol=1e-12)


@given(st.integers(1, 5))
def test_fit_model_copies_collapse_to_one(n):
    vol = random_intensity((4, 4, 4), seed=5)
    mask = _full_mask(vol.geometry)
    one = fit_model([vol], [mask], quantile_count=8)
    many = fit_model([vol] * n, [mask] * n, quantile_count=8)
    npt.assert_allclose(many.mean_sorted, one.mean_sorted, atol=1e-12)


def test_fit_model_masks_are_unioned():
    g = make_centered_geometry((4, 1, 1))
    v1 = IntensityVolume(g, np.array([1.0, 2.0, 3.0, 4.0]).reshape(4, 1, 1))
    v2 = IntensityVolume(g, np.array([4.0, 3.0, 2.0, 1.0]).reshape(4, 1, 1))
    m1 = LabelVolume(g, np.array([1, 1, 0, 0], dtype=np.uint16).reshape(4, 1, 1), 2)
    m2 = LabelVolume(g, np.array([0, 0, 1, 0], dtype=np.uint16).reshape(4, 1, 1), 2)
    model = fit_model([v1, v2], [m1, m2], quantile_count=4)
    assert model.mask.data.dtype == np.uint8
    assert model.mask.data.tobytes() == bytes([1, 1, 1, 0])
    # both scans are profiled over the union, not their own masks
    union = model.mask
    expected = np.mean(
        [
            sorted_intensities(standardize(v1), union, 4),
            sorted_intensities(standardize(v2), union, 4),
        ],
        axis=0,
    )
    npt.assert_allclose(model.mean_sorted, expected, atol=1e-12)


def test_fit_model_rejects_empty_list():
    with pytest.raises(HarmonizeError, match="at least one"):
        fit_model([], [], quantile_count=4)


def test_fit_model_rejects_count_mismatch():
    vol = random_intensity((3, 3, 3))
    with pytest.raises(HarmonizeError, match="counts differ"):
        fit_model([vol], [], quantile_count=4)


def test_fit_model_rejects_mixed_grids():
    a = random_intensity((3, 3, 3))
    b = random_intensity((4, 4, 4))
    with pytest.raises(HarmonizeError, match="common grid"):
        fit_model([a, b], [_full_mask(a.geometry)] * 2, quantile_count=4)


# --- harmonize ---


def test_harmonize_self_fit_is_identity_map():
    vol = random_intensity((6, 6, 6), seed=7)
    mask = _full_mask(vol.geometry)
    model = fit_model([vol], [mask], quantile_count=64)
    out, fit = harmonize(vol, model)
    assert abs(fit.beta1 - 1.0) <= 1e-6
    assert abs(fit.beta0) <= 1e-6
    npt.assert_allclose(out.data, standardize(vol).data, atol=1e-9)
    assert fit.residual_rms <= 1e-9


def test_harmonize_two_voxel_regression_by_hand():
    # any two distinct voxels z-score to [1, -1]; against a reference profile
    # of [3, 1] the least-squares line is exactly slope 1, intercept 2
    vol = _line_volume([10.0, 4.0])
    mask = _full_mask(vol.geometry)
    model = HarmonizationModel(np.array([3.0, 1.0]), mask)
    out, fit = harmonize(vol, model)
    npt.assert_allclose(fit.beta1, 1.0, atol=1e-12)
    npt.assert_allclose(fit.beta0, 2.0, atol=1e-12)
    npt.assert_allclose(out.data.reshape(-1), [3.0, 1.0], atol=1e-12)
    assert fit.residual_rms <= 1e-12


@given(
    st.floats(0.1, 10.0, allow_nan=False),
    st.floats(-100.0, 100.0, allow_nan=False),
)
def test_harmonize_invariant_to_input_rescaling(a, b):
    vol = random_intensity((5, 5, 5), seed=11)
    mask = _full_mask(vol.geometry)
    model = fit_model([random_intensity((5, 5, 5), seed=12)], [mask], quantile_count=32)
    base, base_fit = harmonize(vol, model)
    out, fit = harmonize(vol.with_data(a * vol.data + b), model)
    npt.assert_allclose(out.data, base.data, atol=1e-6)
    npt.assert_allclose(fit.beta1, base_fit.beta1, atol=1e-9)
    npt.assert_allclose(fit.beta0, base_fit.beta0, atol=1e-9)


def test_harmonize_residual_matches_definition():
    vol = random_intensity((5, 5, 5), seed=13)
    mask = _full_mask(vol.geometry)
    model = fit_model([random_intensity((5, 5, 5), seed=14)], [mask], quantile_count=32)
    out, fit = harmonize(vol, model)
    assert fit.beta1 > 0
    # with a positive slope the output's sorted profile is the mapped input profile
    out_profile = sorted_intensities(out, mask, model.quantile_count)
    rms = float(np.sqrt(np.mean((model.mean_sorted - out_profile) ** 2)))
    npt.assert_allclose(fit.residual_rms, rms, atol=1e-9)


def test_harmonize_rejects_constant_scan():
    g = make_centered_geometry((3, 3, 3))
    vol = IntensityVolume(g, np.full((3, 3, 3), 2.0))
    mask = _full_mask(g)
    model = HarmonizationModel(np.array([1.0, 0.0]), mask)
    with pytest.raises(HarmonizeError):
        harmonize(vol, model)


# --- model validation and persistence ---


def test_model_rejects_increasing_profile():
    mask = _full_mask(make_centered_geometry((2, 2, 2)))
    with pytest.raises(HarmonizeError, match="non-increasing"):
        HarmonizationModel(np.array([1.0, 2.0]), mask)


def test_model_rejects_quantile_count_mismatch(tmp_path):
    # the count in meta.json is what detects a profile cut short or run over
    vol = random_intensity((4, 4, 4))
    save_model(fit_model([vol], [_full_mask(vol.geometry)], quantile_count=8), tmp_path / "model")
    path = tmp_path / "model" / "mean_sorted.bin"
    profile = path.read_bytes()
    for wrong in (profile + bytes(4), profile[:-8]):  # 8q + 4 and 8(q - 1) bytes
        path.write_bytes(wrong)
        with pytest.raises(HarmonizeError, match=f"quantile_count 8, {len(wrong)} profile bytes"):
            load_model(tmp_path / "model")


def test_model_rejects_empty_mask():
    g = make_centered_geometry((2, 2, 2))
    mask = LabelVolume(g, np.zeros((2, 2, 2), dtype=np.uint16), 2)
    with pytest.raises(HarmonizeError, match="empty"):
        HarmonizationModel(np.array([2.0, 1.0]), mask)


@pytest.mark.parametrize("num_labels", [3, 300])
def test_profile_masks_must_have_two_labels(num_labels):
    # the profile reads a two-label mask's bytes as bools, so no other mask is taken
    g = make_centered_geometry((2, 2, 2))
    mask = LabelVolume(g, np.ones((2, 2, 2), dtype=np.uint16), num_labels)
    with pytest.raises(HarmonizeError, match="num_labels=2"):
        HarmonizationModel(np.array([2.0, 1.0]), mask)
    with pytest.raises(HarmonizeError, match="num_labels=2"):
        sorted_intensities(random_intensity((2, 2, 2), seed=1), mask, 2)


def test_model_save_load_round_trip(tmp_path):
    vols = [random_intensity((5, 4, 3), seed=s) for s in (1, 2)]
    mask = _full_mask(vols[0].geometry)
    model = fit_model(vols, [mask] * 2, quantile_count=16)
    save_model(model, tmp_path / "model")
    loaded = load_model(tmp_path / "model")
    npt.assert_array_equal(loaded.mean_sorted, model.mean_sorted)  # bitwise
    npt.assert_array_equal(loaded.mask.data, model.mask.data)
    assert loaded.quantile_count == model.quantile_count


def test_model_states_its_count_once(tmp_path):
    assert "quantile_count" not in inspect.signature(HarmonizationModel).parameters
    vol = random_intensity((4, 4, 4))
    model = fit_model([vol], [_full_mask(vol.geometry)], quantile_count=8)
    assert model.quantile_count == model.mean_sorted.size == 8
    save_model(model, tmp_path / "model")
    assert json.loads((tmp_path / "model" / "meta.json").read_text()) == {"quantile_count": 8}


@pytest.mark.parametrize("count", ['"8"', "8.0", "true", "1e400"])
def test_load_model_rejects_a_count_that_is_no_integer(tmp_path, count):
    vol = random_intensity((4, 4, 4))
    save_model(fit_model([vol], [_full_mask(vol.geometry)], quantile_count=8), tmp_path / "model")
    meta_path = tmp_path / "model" / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta_path.write_text(json.dumps({**meta, "quantile_count": None}).replace("null", count))
    with pytest.raises(HarmonizeError, match="malformed"):
        load_model(tmp_path / "model")


def test_a_model_in_the_older_format_loads_and_harmonizes_the_same(tmp_path):
    # the older meta.json also repeated mask.nii's dims and spacing; those keys
    # are ignored now, and harmonize checks the mask's grid against each scan's
    vol = random_intensity((5, 4, 3), seed=3)
    model = fit_model([random_intensity((5, 4, 3), seed=4)], [_full_mask(vol.geometry)], 16)
    save_model(model, tmp_path / "new")
    save_model(model, tmp_path / "old")
    meta = {"quantile_count": 16, "mask_dims": [5, 4, 3], "mask_spacing": [1.0, 1.0, 1.0]}
    (tmp_path / "old" / "meta.json").write_text(json.dumps(meta, indent=1))
    new, old = (harmonize(vol, load_model(tmp_path / name))[0] for name in ("new", "old"))
    assert old.data.tobytes() == new.data.tobytes()
    # a disagreeing spacing is not refused at load, only by harmonize on another grid
    meta["mask_spacing"] = [1.0, 1.0, 2.0]
    (tmp_path / "old" / "meta.json").write_text(json.dumps(meta, indent=1))
    loaded = load_model(tmp_path / "old")
    assert loaded.mask.geometry.spacing == (1.0, 1.0, 1.0)
    other = random_intensity((5, 4, 3), seed=3, spacing=(1.0, 1.0, 2.0))
    with pytest.raises(HarmonizeError, match="geometries differ"):
        harmonize(other, loaded)


# --- memory and bitwise contracts ---


def _full_interpolation(values, quantile_count):
    """The profile as np.interp over every rank of the descending sort."""
    ordered = np.sort(values)[::-1]
    positions = np.linspace(0.0, ordered.size - 1.0, quantile_count)
    return np.interp(positions, np.arange(ordered.size), ordered)


@pytest.mark.parametrize(
    "n, quantile_count, draw",
    [
        (2, 2, "normal"),
        (2, 1024, "normal"),
        (3, 7, "ties"),
        (5, 1024, "cauchy"),
        (17, 3, "normal"),
        (1023, 1024, "lognormal"),
        (1025, 1024, "ties"),
        (4097, 1024, "cauchy"),
        (20000, 1024, "normal"),
        (20000, 333, "lognormal"),
    ],
)
def test_sorted_profile_equals_full_interpolation_bitwise(n, quantile_count, draw):
    rng = np.random.default_rng(n * 7919 + quantile_count)
    values = {
        "normal": lambda: rng.normal(size=n),
        "ties": lambda: rng.integers(-3, 4, size=n).astype(np.float64),
        "cauchy": lambda: rng.standard_cauchy(size=n) * 1e150,
        "lognormal": lambda: np.exp(rng.normal(scale=30.0, size=n)),
    }[draw]()
    vol = _line_volume(values)
    got = sorted_intensities(vol, _full_mask(vol.geometry), quantile_count)
    assert got.tobytes() == _full_interpolation(values, quantile_count).tobytes()


def test_harmonize_holds_few_volume_sized_arrays():
    # std's temporary, then the masked values, then the output: never a z-scored copy
    vol = random_intensity((64, 64, 64), seed=21)
    mask = _full_mask(vol.geometry)
    model = HarmonizationModel(np.linspace(1.0, -1.0, 1024), mask)
    harmonize(vol, model)  # first calls of numpy routines allocate once
    peak, _ = peak_alloc(lambda: harmonize(vol, model))
    assert peak <= 1.3 * vol.data.nbytes



def test_the_profile_gathers_the_masked_values_without_a_volume_sized_mask():
    # the masked float32 values are the one volume-sized array: a bool mask of
    # the volume would add a quarter of their bytes
    geometry = make_centered_geometry((128, 128, 64))  # 1 Mi voxels
    data = np.random.default_rng(23).normal(50.0, 10.0, geometry.dims).astype(np.float32)
    vol = IntensityVolume(geometry, data)
    mask = _full_mask(geometry)
    sorted_intensities(vol, mask, 1024)  # first calls of numpy routines allocate once
    peak, got = peak_alloc(lambda: sorted_intensities(vol, mask, 1024))
    assert peak < 1.05 * vol.data.nbytes
    assert got.tobytes() == _full_interpolation(data.ravel().astype(np.float64), 1024).tobytes()


def test_harmonize_of_a_float32_volume_builds_no_float64_copy(tmp_path):
    # the masked values in float32, then the float32 output: a float64
    # widening of the volume alone would weigh 2x its float32 bytes
    rng = np.random.default_rng(22)
    geometry = make_centered_geometry((128, 128, 64))  # 1 Mi voxels
    tio.write_nifti(IntensityVolume(geometry, rng.normal(50.0, 10.0, geometry.dims)),
                    tmp_path / "scan.nii")
    vol, _ = tio.read_nifti(tmp_path / "scan.nii")
    assert vol.data.dtype == np.float32 and vol.data.size >= 1 << 20
    model = HarmonizationModel(np.linspace(1.0, -1.0, 1024), _full_mask(geometry))
    harmonize(vol, model)  # first calls of numpy routines allocate once
    peak, (out, _) = peak_alloc(lambda: harmonize(vol, model))
    assert out.data.dtype == np.float32
    assert peak < 1.5 * vol.data.nbytes
