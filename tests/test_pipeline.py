import importlib.util
import json
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from tileseg import io as tio
from tileseg.fusion import fuse_majority
from tileseg.geometry import (
    AffineTransform,
    GeometryError,
    LabelVolume,
    VolumeGeometry,
    compose,
    make_centered_geometry,
    resample_labels,
)
from tileseg.harmonize import fit_model, save_model
from tileseg.phantom import intensity_from_labels, make_blob_phantom
from tileseg.pipeline import (
    ConfigError,
    PipelineConfig,
    load_affine,
    load_config,
    run,
    save_affine,
)
from tileseg.segmenter import (
    AtlasPriorOracle,
    CorruptingWrapper,
    SegmenterBackend,
    segment_all,
)
from tileseg.tiling import build_grid, coverage_map, extract_tile
from conftest import random_labels


# --- configuration ---


def test_config_rejects_bad_jobs():
    with pytest.raises(ConfigError, match="jobs"):
        PipelineConfig(jobs=0)


def test_config_rejects_unknown_fusion_mode():
    with pytest.raises(ConfigError, match="fusion mode"):
        PipelineConfig(fusion_mode="vote")


def test_config_rejects_tiny_label_count():
    with pytest.raises(ConfigError, match="num_labels"):
        PipelineConfig(num_labels=1)


def test_config_rejects_unknown_tile_failure_policy():
    with pytest.raises(ConfigError, match="tile failure policy"):
        PipelineConfig(on_tile_failure="bogus")


@pytest.mark.parametrize(
    "field, value",
    [("grid", 3), ("tile_size", (8, 8)), ("atlas_spacing", "1,1,1"), ("jobs", "2"),
     ("num_labels", 2.5), ("background_fill", None)],
)
def test_config_rejects_wrongly_typed_values(field, value):
    with pytest.raises(ConfigError, match=field):
        PipelineConfig(**{field: value})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_config_rejects_non_finite_background_fill(value):
    with pytest.raises(ConfigError, match="background_fill must be finite"):
        PipelineConfig(background_fill=value)


def test_config_estimate_needs_reference():
    with pytest.raises(ConfigError, match="reference"):
        PipelineConfig(affine="estimate")


def test_config_concat_needs_partition_grid():
    config = PipelineConfig(
        atlas_dims=(10, 10, 10), grid=(2, 2, 2), tile_size=(6, 6, 6),
        fusion_mode="concat",
    )
    with pytest.raises(ConfigError, match="partition"):
        config.build_grid()


def test_load_config_rejects_unknown_keys(tmp_path):
    p = tmp_path / "config.json"
    p.write_text(json.dumps({"jobs": 2, "tile_shape": [8, 8, 8]}))
    with pytest.raises(ConfigError, match="tile_shape"):
        load_config(p)


def test_load_config_applies_overrides(tmp_path):
    p = tmp_path / "config.json"
    p.write_text(json.dumps({"jobs": 2, "num_labels": 10}))
    config = load_config(p, jobs=5, backend="constant:1")
    assert config.jobs == 5
    assert config.num_labels == 10
    assert config.backend == "constant:1"
    # None overrides fall back to the file values
    assert load_config(p, jobs=None).jobs == 2


# --- affine persistence ---


def test_affine_file_round_trip(tmp_path):
    t = AffineTransform.from_linear_translation(
        np.array([[0.9, 0.1, 0.0], [-0.1, 0.9, 0.0], [0.0, 0.0, 1.1]]),
        (3.5, -2.25, 0.125),
    )
    p = tmp_path / "affine.txt"
    save_affine(t, p)
    npt.assert_array_equal(load_affine(p).matrix, t.matrix)  # %.17g is lossless


def test_load_affine_rejects_wrong_shape(tmp_path):
    p = tmp_path / "affine.txt"
    p.write_text("1 0 0\n0 1 0\n0 0 1\n")
    with pytest.raises(ConfigError, match="4x4"):
        load_affine(p)


def test_load_affine_rejects_invalid_matrix(tmp_path):
    p = tmp_path / "affine.txt"
    m = np.eye(4)
    m[3, 3] = 2.0
    np.savetxt(p, m)
    with pytest.raises(GeometryError):
        load_affine(p)


# --- inverse mapping to native space ---


def test_inverse_transform_identity_is_bitwise():
    lab = random_labels((8, 8, 8), 5, seed=1)
    out = resample_labels(lab, AffineTransform.identity().inverse(), lab.geometry)
    npt.assert_array_equal(out.data, lab.data)


def test_inverse_transform_undoes_integer_shift():
    native = random_labels((8, 8, 8), 5, seed=2)
    atlas_geom = native.geometry
    forward = AffineTransform.translation((2.0, 0.0, 0.0))
    atlas = resample_labels(native, forward, atlas_geom)
    # forward reads source at index + 2, so atlas[i] = native[i + 2]
    npt.assert_array_equal(atlas.data[:6], native.data[2:])
    back = resample_labels(atlas, forward.inverse(), native.geometry)
    # voxels that stayed in bounds both ways return exactly
    npt.assert_array_equal(back.data[2:], native.data[2:])
    assert np.all(back.data[:2] == 0)


def _label_boundary(data):
    edge = np.zeros(data.shape, dtype=bool)
    for axis in range(3):
        lo = [slice(None)] * 3
        hi = [slice(None)] * 3
        lo[axis] = slice(0, -1)
        hi[axis] = slice(1, None)
        diff = data[tuple(lo)] != data[tuple(hi)]
        edge[tuple(lo)] |= diff
        edge[tuple(hi)] |= diff
    return edge


def _dilate(mask, steps):
    out = mask.copy()
    for _ in range(steps):
        grown = out.copy()
        for axis in range(3):
            lo = [slice(None)] * 3
            hi = [slice(None)] * 3
            lo[axis] = slice(0, -1)
            hi[axis] = slice(1, None)
            grown[tuple(lo)] |= out[tuple(hi)]
            grown[tuple(hi)] |= out[tuple(lo)]
        out = grown
    return out


def test_round_trip_errors_confined_to_label_boundaries():
    geom = make_centered_geometry((20, 20, 20))
    native = make_blob_phantom(geom, num_labels=4, seed=3)
    atlas_geom = make_centered_geometry((24, 24, 24))
    forward = AffineTransform.from_linear_translation(
        np.array(
            [
                [np.cos(0.09), -np.sin(0.09), 0.0],
                [np.sin(0.09), np.cos(0.09), 0.0],
                [0.0, 0.0, 1.0],
            ]
        ),
        (0.3, -0.2, 0.1),
    )
    atlas = resample_labels(native, forward, atlas_geom)
    back = resample_labels(atlas, forward.inverse(), native.geometry)
    diff = back.data != native.data
    # two nearest-neighbor roundings displace by under 2 voxels, so flips
    # can only happen near a label boundary; uniform interiors are stable
    allowed = _dilate(_label_boundary(native.data), 2)
    interior = np.zeros(native.dims, dtype=bool)
    interior[2:-2, 2:-2, 2:-2] = True
    assert not np.any(diff & interior & ~allowed)


# --- end-to-end runs on synthetic scans ---

DIMS = (24, 24, 24)


def _phantom_case(tmp_path, num_labels=5, seed=4):
    geom = make_centered_geometry(DIMS)
    truth = make_blob_phantom(geom, num_labels=num_labels, seed=seed)
    scan = intensity_from_labels(truth, seed=seed)
    scan_path = tmp_path / "scan.nii"
    tio.write_nifti(scan, scan_path)
    return truth, scan_path


def _base_config(tmp_path, truth, **kw):
    defaults = dict(
        atlas_dims=DIMS,
        grid=(2, 2, 2),
        tile_size=(14, 14, 14),
        backend=AtlasPriorOracle(truth),
        affine="identity",
        num_labels=truth.num_labels,
        output_dir=str(tmp_path / "out"),
    )
    defaults.update(kw)
    return PipelineConfig(**defaults)


def test_run_identity_phantom_reproduces_truth(tmp_path):
    truth, scan_path = _phantom_case(tmp_path)
    config = _base_config(tmp_path, truth)
    result = run(config, scan_path)
    npt.assert_array_equal(result.fused.data, truth.data)
    npt.assert_array_equal(result.native_labels.data, truth.data)

    out_dir = tmp_path / "out"
    for name in ("atlas_labels.nii", "native_labels.nii", "grid.json", "report.json"):
        assert (out_dir / name).exists()
    written, _ = tio.read_nifti(out_dir / "native_labels.nii", as_labels=True)
    npt.assert_array_equal(written.data, truth.data)
    report = json.loads((out_dir / "report.json").read_text())
    assert [s["name"] for s in report["stages"]] == [
        "read", "register", "harmonize", "segment", "fuse", "unregister", "write",
    ]
    assert report["fusion"]["tie_count"] == 0


def test_run_corrupted_tile_is_outvoted_in_deep_coverage(tmp_path):
    truth, scan_path = _phantom_case(tmp_path)
    backend = CorruptingWrapper(AtlasPriorOracle(truth), target_index=13, corruption_label=1)
    config = _base_config(
        tmp_path, truth, backend=backend, grid=(3, 3, 3), tile_size=(12, 12, 12)
    )
    result = run(config, scan_path)
    cov = coverage_map(config.build_grid())
    deep = cov >= 3
    npt.assert_array_equal(result.fused.data[deep], truth.data[deep])
    diff = result.fused.data != truth.data
    assert np.all(cov[diff] <= 2)


def test_run_concat_mode_on_partition(tmp_path):
    truth, scan_path = _phantom_case(tmp_path)
    config = _base_config(
        tmp_path, truth, fusion_mode="concat", grid=(2, 2, 2), tile_size=(12, 12, 12)
    )
    result = run(config, scan_path)
    npt.assert_array_equal(result.fused.data, truth.data)
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["fusion"]["mode"] == "concat"
    assert report["fusion"]["coverage_max"] == 1


@pytest.mark.parametrize(
    "mode, grid, tile_size",
    [("majority", (3, 3, 3), (12, 12, 12)), ("majority", (2, 3, 2), (13, 9, 16)),
     ("concat", (2, 2, 2), (12, 12, 12)), ("concat", (4, 1, 2), (6, 24, 12))],
)
def test_run_reports_the_coverage_of_painted_tiles(tmp_path, mode, grid, tile_size):
    truth, scan_path = _phantom_case(tmp_path)
    config = _base_config(tmp_path, truth, fusion_mode=mode, grid=grid, tile_size=tile_size)
    result = run(config, scan_path)
    painted = np.zeros(DIMS, dtype=np.int64)
    for tile in config.build_grid().tiles:
        painted[tile.slices()] += 1
    fusion = json.loads((tmp_path / "out" / "report.json").read_text())["fusion"]
    assert fusion == result.report["fusion"]
    assert (fusion["coverage_min"], fusion["coverage_max"], fusion["coverage_mean"]) == (
        int(painted.min()), int(painted.max()), float(painted.mean())
    )


def test_run_with_saved_affine_round_trips(tmp_path):
    truth, scan_path = _phantom_case(tmp_path)
    forward = AffineTransform.translation((2.0, -1.0, 0.0))
    affine_path = tmp_path / "fwd.txt"
    save_affine(forward, affine_path)
    config = _base_config(tmp_path, truth, affine=str(affine_path))
    result = run(config, scan_path)
    expected_native = resample_labels(result.fused, forward.inverse(), truth.geometry)
    npt.assert_array_equal(result.native_labels.data, expected_native.data)


def test_run_harmonization_self_model_is_neutral(tmp_path):
    truth, scan_path = _phantom_case(tmp_path)
    scan, _ = tio.read_nifti(scan_path)
    model = fit_model(
        [scan],
        [random_labels(DIMS, 2, seed=0).with_data(np.ones(DIMS, dtype=np.uint16))],
        quantile_count=64,
    )
    model_dir = tmp_path / "model"
    save_model(model, model_dir)
    config = _base_config(tmp_path, truth, harmonization_model=str(model_dir))
    result = run(config, scan_path)
    h = json.loads((tmp_path / "out" / "report.json").read_text())["harmonization"]
    assert abs(h["beta1"] - 1.0) <= 1e-6
    assert abs(h["beta0"]) <= 1e-6
    npt.assert_array_equal(result.fused.data, truth.data)


@pytest.mark.parametrize("source", ["api", "config_file"])
def test_run_skips_harmonization_given_skip(tmp_path, source):
    truth, scan_path = _phantom_case(tmp_path)
    if source == "api":
        config = _base_config(tmp_path, truth, harmonization_model="skip")
    else:
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"harmonization_model": "skip", "atlas_dims": list(DIMS)}))
        config = load_config(
            path, grid=(2, 2, 2), tile_size=(14, 14, 14), backend=AtlasPriorOracle(truth),
            num_labels=truth.num_labels, output_dir=str(tmp_path / "out"),
        )
    assert config.harmonization_model is None
    result = run(config, scan_path)
    assert result.report["harmonization"] is None
    npt.assert_array_equal(result.fused.data, truth.data)


def test_run_is_deterministic_across_parallelism(tmp_path):
    truth, scan_path = _phantom_case(tmp_path)
    backend = CorruptingWrapper(AtlasPriorOracle(truth), target_index=2, corruption_label=1)
    blobs = {}
    for jobs in (1, 8):
        config = _base_config(
            tmp_path, truth, backend=backend, jobs=jobs,
            output_dir=str(tmp_path / f"out_j{jobs}"),
        )
        run(config, scan_path)
        blobs[jobs] = {
            name: (tmp_path / f"out_j{jobs}" / name).read_bytes()
            for name in ("atlas_labels.nii", "native_labels.nii")
        }
    assert blobs[1] == blobs[8]


def test_run_failure_removes_partials_and_names_the_stage(tmp_path):
    truth, scan_path = _phantom_case(tmp_path)
    config = _base_config(tmp_path, truth, backend="external:false {input} {output}")
    with pytest.raises(Exception):
        run(config, scan_path)
    out_dir = tmp_path / "out"
    marker = out_dir / "FAILED"
    assert marker.exists()
    assert marker.read_text().startswith("stage: segment")
    for name in ("atlas_labels.nii", "native_labels.nii", "report.json"):
        assert not (out_dir / name).exists()
    # a subsequent successful run clears the marker
    ok = _base_config(tmp_path, truth)
    run(ok, scan_path)
    assert not marker.exists()


def test_resume_reuses_cached_tiles(tmp_path):
    truth, scan_path = _phantom_case(tmp_path)
    # partition grid: each voxel belongs to exactly one tile, so a poisoned
    # cache entry must show through if and only if the cache is honored
    config = _base_config(
        tmp_path, truth, grid=(2, 2, 2), tile_size=(12, 12, 12), resume=True
    )
    first = run(config, scan_path)
    npt.assert_array_equal(first.fused.data, truth.data)
    cache = tmp_path / "out" / "work" / "tiles"
    entries = sorted(p for p in cache.iterdir() if not p.name.endswith(".json"))
    assert len(entries) == 8

    poisoned = tio.read_raw(entries[0])
    tio.write_raw(poisoned.with_data(np.full(poisoned.dims, 1, dtype=np.uint16)), entries[0])
    second = run(config, scan_path)
    assert np.any(second.fused.data != truth.data)  # cache was read, not recomputed


class _FailingTile(SegmenterBackend):
    """Prior oracle whose answer for one tile fails ``failures`` times."""

    def __init__(self, prior, target_index, failures=None):
        self.inner = AtlasPriorOracle(prior)
        self.num_labels = prior.num_labels
        self.target_index = target_index
        self.failures = failures  # None: fail every time

    def segment(self, tile_input, tile):
        if tile.index == self.target_index and self.failures != 0:
            if self.failures is not None:
                self.failures -= 1
            raise RuntimeError("simulated backend failure")
        return self.inner.segment(tile_input, tile)

    def descriptor(self):
        return f"failing:{self.target_index}:{self.inner.descriptor()}"


def _outputs(out_dir):
    return {
        name: (Path(out_dir) / name).read_bytes()
        for name in ("atlas_labels.nii", "native_labels.nii")
    }


def _cache_entries(tmp_path):
    cache = tmp_path / "out" / "work" / "tiles"
    return sorted(p for p in cache.iterdir() if p.suffix != ".json")


@pytest.mark.filterwarnings("ignore:tile 3 failed")
@pytest.mark.parametrize("jobs", [1, 2])
def test_resume_keeps_the_background_failure_policy(tmp_path, jobs):
    truth, scan_path = _phantom_case(tmp_path)
    backend = _FailingTile(truth, target_index=3)
    outputs = {}
    for resume in (False, True):
        out_dir = tmp_path / f"out_{resume}"
        config = _base_config(
            tmp_path, truth, backend=backend, jobs=jobs, resume=resume,
            on_tile_failure="background", output_dir=str(out_dir),
        )
        run(config, scan_path)
        outputs[resume] = _outputs(out_dir)
    assert outputs[True] == outputs[False]


@pytest.mark.filterwarnings("ignore:tile 3 failed")
def test_resume_retries_a_substituted_tile(tmp_path):
    truth, scan_path = _phantom_case(tmp_path)
    backend = _FailingTile(truth, target_index=3, failures=1)
    config = _base_config(
        tmp_path, truth, backend=backend, grid=(2, 2, 2), tile_size=(12, 12, 12),
        resume=True, on_tile_failure="background",
    )
    first = run(config, scan_path)
    assert np.any(first.fused.data != truth.data)
    assert len(_cache_entries(tmp_path)) == 7  # the substitute is not stored
    second = run(config, scan_path)
    npt.assert_array_equal(second.fused.data, truth.data)
    assert len(_cache_entries(tmp_path)) == 8


def _drop_sidecar(entry):
    Path(str(entry) + ".json").unlink()


def _truncate_blob(entry):
    entry.write_bytes(entry.read_bytes()[:-2])


def _non_object_sidecar(entry):
    Path(str(entry) + ".json").write_text("[]")


def test_resume_sweeps_orphan_temp_files(tmp_path):
    truth, scan_path = _phantom_case(tmp_path)
    backend = CorruptingWrapper(AtlasPriorOracle(truth), target_index=2, corruption_label=1)
    fresh = _base_config(tmp_path, truth, backend=backend, output_dir=str(tmp_path / "fresh"))
    run(fresh, scan_path)
    config = _base_config(tmp_path, truth, backend=backend, resume=True)
    run(config, scan_path)
    entries = _cache_entries(tmp_path)
    # what a write killed between its open and its rename leaves behind
    orphan = entries[0].with_name(f"{entries[0].name}.{'0' * 32}.tmp")
    orphan.write_bytes(entries[0].read_bytes()[:5])
    run(config, scan_path)
    assert not orphan.exists()
    assert _cache_entries(tmp_path) == entries
    assert _outputs(tmp_path / "out") == _outputs(tmp_path / "fresh")


@pytest.mark.parametrize("damage", [_drop_sidecar, _truncate_blob, _non_object_sidecar])
def test_resume_recomputes_an_unreadable_entry(tmp_path, damage):
    truth, scan_path = _phantom_case(tmp_path)
    backend = CorruptingWrapper(AtlasPriorOracle(truth), target_index=2, corruption_label=1)
    fresh = _base_config(tmp_path, truth, backend=backend, output_dir=str(tmp_path / "fresh"))
    run(fresh, scan_path)
    config = _base_config(tmp_path, truth, backend=backend, resume=True)
    run(config, scan_path)
    entries = _cache_entries(tmp_path)
    for entry in entries[:2]:
        damage(entry)
    run(config, scan_path)
    assert _outputs(tmp_path / "out") == _outputs(tmp_path / "fresh")
    assert _cache_entries(tmp_path) == entries
    for entry in entries:
        tio.read_raw(entry)  # the damaged entries were rewritten


class _CountingPrior(AtlasPriorOracle):
    """Prior oracle that records the index of every tile it segments."""

    def __init__(self, prior):
        super().__init__(prior)
        self.calls = []

    def segment(self, tile_input, tile):
        self.calls.append(tile.index)
        return super().segment(tile_input, tile)


def _short_dims(vol):
    nx, ny, nz = vol.dims
    geometry = VolumeGeometry((nx, ny, nz - 1), vol.geometry.spacing, vol.geometry.index_to_world)
    return LabelVolume(geometry, vol.data[:, :, :-1], vol.num_labels)


def _shifted_geometry(vol):
    i2w = compose(AffineTransform.translation((5.0, 0.0, 0.0)), vol.geometry.index_to_world)
    return LabelVolume(VolumeGeometry(vol.dims, vol.geometry.spacing, i2w), vol.data, vol.num_labels)


def _label_out_of_range(vol):
    data = vol.data.copy()
    data[0, 0, 0] = vol.num_labels + 2
    return LabelVolume(vol.geometry, data, vol.num_labels + 5)


@pytest.mark.parametrize("rewrite", [_short_dims, _shifted_geometry, _label_out_of_range])
def test_resume_recomputes_an_entry_that_breaks_the_tile_contract(tmp_path, rewrite):
    # each rewritten entry reads back fine, but is not an answer for its tile
    truth, scan_path = _phantom_case(tmp_path)
    fresh = _base_config(tmp_path, truth, output_dir=str(tmp_path / "fresh"))
    run(fresh, scan_path)
    backend = _CountingPrior(truth)
    config = _base_config(tmp_path, truth, backend=backend, resume=True)
    run(config, scan_path)
    entry = _cache_entries(tmp_path)[0]
    tio.write_raw(rewrite(tio.read_raw(entry)), entry)
    backend.calls.clear()
    run(config, scan_path)
    assert _outputs(tmp_path / "out") == _outputs(tmp_path / "fresh")
    assert len(backend.calls) == 1  # only the rewritten tile ran again
    # and its entry now holds the backend's answer
    answer = extract_tile(truth, config.build_grid().tiles[backend.calls[0]])
    cached = tio.read_raw(entry)
    assert cached.geometry.matches(answer.geometry, tol=1e-6)
    npt.assert_array_equal(cached.data, answer.data)


def test_bench_tracing_targets_resolve():
    # bench/tracing.py wraps these attributes by name; a rename in src/
    # would otherwise only break traced benchmark runs
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, attr, _ in tracing.TARGETS:
        assert callable(getattr(module, attr)), f"{module.__name__}.{attr}"


def test_run_estimated_affine_on_translated_phantom(tmp_path):
    # scan grid sits 3 voxels off the atlas in world space; moments-based
    # estimation must recover the offset and the phantom exactly
    truth, _ = _phantom_case(tmp_path)
    shifted_geom = make_centered_geometry(DIMS)
    shifted_i2w = AffineTransform.from_linear_translation(
        np.eye(3), np.array(shifted_geom.index_to_world.offset) + (3.0, 0.0, 0.0)
    )
    from tileseg.geometry import IntensityVolume, VolumeGeometry

    native_geom = VolumeGeometry(DIMS, (1.0, 1.0, 1.0), shifted_i2w)
    native_truth = random_labels(DIMS, truth.num_labels, seed=9).with_data(truth.data)
    scan = IntensityVolume(native_geom, intensity_from_labels(truth, seed=4).data)
    scan_path = tmp_path / "moved.nii"
    tio.write_nifti(scan, scan_path)
    reference_path = tmp_path / "reference.nii"
    tio.write_nifti(intensity_from_labels(truth, seed=4), reference_path)

    config = _base_config(
        tmp_path, truth, affine="estimate", reference=str(reference_path)
    )
    result = run(config, scan_path)
    npt.assert_array_equal(result.fused.data, truth.data)
    assert result.native_labels.dims == DIMS
