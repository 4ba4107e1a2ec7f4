import hashlib
import importlib.util
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import tileseg
import tileseg.geometry as geometry_module
from tileseg import io as tio
from tileseg.cli import main
from tileseg.fusion import StreamingVote
from tileseg.geometry import (
    AffineTransform,
    GeometryError,
    LabelVolume,
    VolumeGeometry,
    estimate_affine_moments,
    make_centered_geometry,
    resample_intensity,
    resample_labels,
)
from tileseg.harmonize import fit_model, save_model
from tileseg.phantom import intensity_from_labels
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
    ConstantOracle,
    SegmentationError,
    SegmenterBackend,
)
from tileseg.tiling import build_grid, coverage_map, extract_tile
from conftest import CorruptingWrapper, NearestLevel, make_blob_phantom, peak_alloc, random_labels


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
     ("num_labels", 2.5), ("affine", None), ("backend", 5),
     ("backend", ["constant:0"]), ("backend", None)],
)
def test_config_rejects_wrongly_typed_values(field, value):
    with pytest.raises(ConfigError, match=field):
        PipelineConfig(**{field: value})


def test_config_rejects_a_backend_with_another_label_count():
    with pytest.raises(ConfigError, match="backend has 10 labels, num_labels is 133"):
        PipelineConfig(backend=ConstantOracle(3, 10))
    assert PipelineConfig(backend=ConstantOracle(3, 10), num_labels=10).num_labels == 10


def test_config_estimate_needs_reference():
    for affine in ("estimate", "estimate:"):
        with pytest.raises(ConfigError, match="needs a reference"):
            PipelineConfig(affine=affine)


@pytest.mark.parametrize("affine", ["identity", "affine.txt"])
def test_config_reference_needs_estimate(tmp_path, affine):
    # the reference is spelled inside affine, so a stray one is an unknown key
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"affine": affine, "reference": "reference.nii"}))
    with pytest.raises(ConfigError, match=r"unknown config keys: \['reference'\]"):
        load_config(path)


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
    entries = sorted(cache.iterdir())
    assert len(entries) == 8

    entries[0].write_bytes(np.full(12 ** 3, 1, dtype="<u2").tobytes())  # label 1 throughout
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
    return sorted(cache.iterdir())


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


def _voted_tiles(monkeypatch):
    """The indices of the answers ``StreamingVote.add`` takes, in arrival order."""
    voted, add = [], StreamingVote.add
    monkeypatch.setattr(
        StreamingVote, "add", lambda vote, tile, seg: voted.append(tile.index) or add(vote, tile, seg)
    )
    return voted


@pytest.mark.parametrize("jobs", [1, 2])
def test_abort_fails_the_run_on_the_tile_and_votes_no_later_tile(tmp_path, monkeypatch, jobs):
    truth, scan_path = _phantom_case(tmp_path)
    voted = _voted_tiles(monkeypatch)
    config = _base_config(tmp_path, truth, backend=_FailingTile(truth, target_index=3), jobs=jobs)
    with pytest.raises(SegmentationError, match="^tile 3: simulated backend failure$"):
        run(config, scan_path)
    out_dir = tmp_path / "out"
    assert (out_dir / "FAILED").read_text() == (
        "stage: segment\nerror: tile 3: simulated backend failure\n"
    )
    assert not any((out_dir / name).exists() for name in ("atlas_labels.nii", "report.json"))
    assert 3 not in voted
    if jobs == 1:  # no thread takes a tile after the failed one
        assert voted == [0, 1, 2]


@pytest.mark.parametrize("jobs", [1, 2])
def test_answers_read_from_the_cache_are_voted_like_fresh_ones(tmp_path, monkeypatch, jobs):
    # a corrupted tile makes the overlap vote and tie; half of the answers come
    # from the cache in the second resumed run, the other half from the backend
    truth, scan_path = _phantom_case(tmp_path)
    backend = CorruptingWrapper(AtlasPriorOracle(truth), target_index=5, corruption_label=1)
    fresh = run(_base_config(tmp_path, truth, backend=backend, jobs=jobs,
                             output_dir=str(tmp_path / "fresh")), scan_path)
    assert fresh.report["fusion"]["tie_count"] > 0
    config = _base_config(tmp_path, truth, backend=backend, jobs=jobs, resume=True)
    run(config, scan_path)
    for entry in _cache_entries(tmp_path)[::2]:
        entry.unlink()
    calls, segment = [], backend.segment
    backend.segment = lambda tile_input, tile: calls.append(tile.index) or segment(tile_input, tile)
    voted = _voted_tiles(monkeypatch)
    resumed = run(config, scan_path)
    assert len(calls) == 4 and sorted(voted) == list(range(8))
    assert _outputs(tmp_path / "out") == _outputs(tmp_path / "fresh")
    assert resumed.report["fusion"] == fresh.report["fusion"]


# An `external:` backend that answers tile i with answers/tile_<i>.nii, logs
# each call to $CALLS_LOG and, for tile $KILL_AT, SIGKILLs the run that started it.
_KILLING_BACKEND = r"""
i=$(sed -n 's/.*"index": \([0-9]*\).*/\1/p' "$1")
echo "$i" >> "$CALLS_LOG"
if [ "$i" = "$KILL_AT" ]; then kill -9 $PPID; exit 1; fi
cp "{answers}/tile_$(printf %03d "$i").nii" "$2"
"""


def _kill_resume_case(tmp_path):
    """A 3x3x3 grid of overlapping 6^3 tiles over a 12^3 atlas, noisy answers."""
    truth = make_blob_phantom(make_centered_geometry((12, 12, 12)), num_labels=5, seed=2)
    scan_path = tmp_path / "scan.nii"
    tio.write_nifti(intensity_from_labels(truth, seed=2), scan_path)
    answers = tmp_path / "answers"
    answers.mkdir()
    grid = build_grid(truth.dims, (3, 3, 3), (6, 6, 6))
    rng = np.random.default_rng(5)
    for tile in grid.tiles:
        answer = extract_tile(truth, tile)
        noisy = np.where(rng.random(tile.size) < 0.3, rng.integers(0, 5, tile.size), answer.data)
        tio.write_nifti(answer.with_data(noisy), answers / f"tile_{tile.index:03d}.nii")
    script = tmp_path / "backend.sh"
    script.write_text(_KILLING_BACKEND.format(answers=answers))
    args = [
        "--input", str(scan_path), "--backend", f"external:sh {script} {{spec}} {{output}} {{input}}",
        "--atlas-dims", "12,12,12", "--grid", "3,3,3", "--tile-size", "6,6,6",
        "--num-labels", "5", "--affine", "identity", "--harmonization", "skip",
    ]
    return args, grid


def _calls(log):
    return [int(line) for line in log.read_text().split()] if log.exists() else []


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "kill_at, stale", [(0, False), (13, False), (26, False), (13, True)],
    ids=["0", "13", "26", "13-stale"],
)
def test_resume_after_a_kill_matches_a_fresh_run(tmp_path, monkeypatch, kill_at, stale, jobs):
    args, grid = _kill_resume_case(tmp_path)
    k = grid.k
    monkeypatch.delenv("KILL_AT", raising=False)
    monkeypatch.setenv("CALLS_LOG", str(tmp_path / "fresh.log"))
    fresh = tmp_path / "fresh"
    assert main(["run", *args, "--output", str(fresh)]) == 0

    out = tmp_path / "out"
    if stale:  # the output directory holds a finished run's files
        shutil.copytree(fresh, out)
    resumed = ["run", *args, "--output", str(out), "--resume", "--jobs", str(jobs)]
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(tileseg.__file__).resolve().parents[1]),
        TMPDIR=str(tmp_path),  # the killed run's tile workspaces stay in here
        KILL_AT=str(kill_at),
        CALLS_LOG=str(tmp_path / "killed.log"),
    )
    killed = subprocess.run(
        [sys.executable, "-m", "tileseg.cli", *resumed], env=env, capture_output=True, timeout=120
    )
    assert killed.returncode == -signal.SIGKILL
    for name in ("atlas_labels.nii", "native_labels.nii", "report.json"):
        assert not (out / name).exists()
    cache = out / "work" / "tiles"
    # an entry is one file, renamed into place whole: every file left is an answer
    cached = sorted(cache.iterdir())
    got = sorted(tio.read_raw(entry, make_centered_geometry(grid.tiles[0].size), 5).data.tobytes()
                 for entry in cached)
    if jobs == 1:
        assert _calls(tmp_path / "killed.log") == list(range(kill_at + 1))
        assert len(cached) == kill_at
        answers = tmp_path / "answers"
        want = [tio.read_nifti(answers / f"tile_{i:03d}.nii", as_labels=True, num_labels=5)[0]
                for i in range(kill_at)]
        assert got == sorted(answer.data.tobytes() for answer in want)

    monkeypatch.setenv("CALLS_LOG", str(tmp_path / "resumed.log"))
    assert main(resumed) == 0
    calls = _calls(tmp_path / "resumed.log")
    assert len(calls) == len(set(calls)) == k - len(cached)
    assert kill_at in calls
    if jobs == 1:
        assert calls == list(range(kill_at, k))
    for name in ("atlas_labels.nii", "native_labels.nii"):
        assert (out / name).read_bytes() == (fresh / name).read_bytes()
    reports = [json.loads((d / "report.json").read_text()) for d in (fresh, out)]
    for report in reports:
        del report["stages"], report["outputs"]
    assert reports[0] == reports[1]
    assert len(list(cache.iterdir())) == k  # one file per tile, no .tmp or .json


def _truncate_blob(entry):
    entry.write_bytes(entry.read_bytes()[:-2])


def _ragged_blob(entry):
    entry.write_bytes(entry.read_bytes()[:-1])  # not a whole number of <u2 values


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



def test_resume_sweeps_what_a_killed_write_left_beside_the_cache(tmp_path):
    truth, scan_path = _phantom_case(tmp_path)
    config = _base_config(tmp_path, truth, backend=AtlasPriorOracle(truth), resume=True)
    run(config, scan_path)
    entries = _cache_entries(tmp_path)
    work = entries[0].parent.parent
    # an entry written beside the cache, before or after its own temp file was renamed
    left = [work / entries[0].name, work / f"{entries[1].name}.{'0' * 32}.tmp"]
    for path in left:
        path.write_bytes(entries[0].read_bytes())
    run(config, scan_path)
    assert not any(path.exists() for path in left)
    assert _cache_entries(tmp_path) == entries

class _Levels(NearestLevel):
    """``NearestLevel`` with a descriptor, so that a resumed run can cache it."""

    def descriptor(self):
        return f"levels:{self.levels.tolist()}"


def test_a_resumed_run_on_another_scan_keeps_only_its_own_entries(tmp_path):
    truth, scan_path = _phantom_case(tmp_path)
    # labels read off the intensities, so another scan gives other outputs
    backend = _Levels.fitted(intensity_from_labels(truth, seed=4), truth)
    config = _base_config(tmp_path, truth, backend=backend, resume=True)
    run(config, scan_path)
    before = _outputs(tmp_path / "out")
    first = _cache_entries(tmp_path)
    tio.write_nifti(intensity_from_labels(truth, seed=9), scan_path)
    run(config, scan_path)
    entries = _cache_entries(tmp_path)
    assert len(entries) == config.build_grid().k
    assert not set(entries) & set(first)
    run(_base_config(tmp_path, truth, backend=backend, output_dir=str(tmp_path / "fresh")), scan_path)
    assert _outputs(tmp_path / "out") == _outputs(tmp_path / "fresh") != before


def test_a_run_that_fails_in_segment_keeps_every_cache_entry(tmp_path):
    truth, scan_path = _phantom_case(tmp_path)
    backend = _FailingTile(truth, target_index=3, failures=1)
    config = _base_config(tmp_path, truth, backend=backend, resume=True)
    run(_base_config(tmp_path, truth, backend=_FailingTile(truth, target_index=3, failures=0),
                     resume=True), scan_path)
    stale = _cache_entries(tmp_path)  # the same backend, on the first scan
    tio.write_nifti(intensity_from_labels(truth, seed=9), scan_path)
    with pytest.raises(SegmentationError, match="^tile 3: "):
        run(config, scan_path)
    written = set(_cache_entries(tmp_path)) - set(stale)
    assert len(written) == 3 and set(stale) < set(_cache_entries(tmp_path))  # tiles 0, 1 and 2
    calls, segment = [], backend.inner.segment
    backend.inner.segment = lambda tile_input, tile: calls.append(tile.index) or segment(tile_input, tile)
    run(config, scan_path)
    assert calls == [3, 4, 5, 6, 7]
    entries = _cache_entries(tmp_path)
    assert len(entries) == 8 and written < set(entries)


@pytest.mark.parametrize("damage", [_truncate_blob, _ragged_blob])
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
    geometry = extract_tile(truth, config.build_grid().tiles[0]).geometry  # every tile is 14^3
    for entry in entries:
        tio.read_raw(entry, geometry, truth.num_labels)  # the damaged entries were rewritten


class _CountingPrior(AtlasPriorOracle):
    """Prior oracle that records the index of every tile it segments."""

    def __init__(self, prior):
        super().__init__(prior)
        self.calls = []

    def segment(self, tile_input, tile):
        self.calls.append(tile.index)
        return super().segment(tile_input, tile)


def test_a_cache_entry_in_the_older_format_is_a_miss(tmp_path):
    # earlier versions wrote a blob and a JSON sidecar under a key that left
    # out the tile's grid; such an entry, poisoned here, is never read
    truth, scan_path = _phantom_case(tmp_path)
    inputs = []

    class Recording(AtlasPriorOracle):
        def segment(self, tile_input, tile):
            inputs.append((tile_input, tile))
            return super().segment(tile_input, tile)

    backend = Recording(truth)
    run(_base_config(tmp_path, truth, backend=backend, output_dir=str(tmp_path / "fresh")), scan_path)
    cache = tmp_path / "out" / "work" / "tiles"
    cache.mkdir(parents=True)
    for tile_input, tile in inputs:
        key = hashlib.sha256(tile_input.data.ravel("F"))
        key.update(backend.descriptor().encode())
        key.update(json.dumps([tile.origin, tile.size, tile.index]).encode())
        entry = cache / key.hexdigest()
        entry.write_bytes(np.full(tile.size, 1, dtype="<u2").tobytes())
        g = tile_input.geometry
        meta = {"kind": "labels", "dtype": "<u2", "dims": list(g.dims), "spacing": list(g.spacing),
                "index_to_world": g.index_to_world.matrix.reshape(-1).tolist(),
                "num_labels": truth.num_labels}
        Path(f"{entry}.json").write_text(json.dumps(meta, indent=1))
    old = sorted(cache.iterdir())
    counting = _CountingPrior(truth)
    run(_base_config(tmp_path, truth, backend=counting, resume=True), scan_path)
    assert sorted(counting.calls) == list(range(8))
    assert _outputs(tmp_path / "out") == _outputs(tmp_path / "fresh")
    assert len(set(_cache_entries(tmp_path)) - set(old)) == 8


def test_a_scan_changed_in_one_voxel_misses_every_tile(tmp_path):
    # an entry is keyed on one digest of the whole atlas, not on its tile's
    # voxels: a voxel that only tile 0 holds changes every tile's key
    truth, scan_path = _phantom_case(tmp_path)
    counting = _CountingPrior(truth)
    config = _base_config(tmp_path, truth, backend=counting, resume=True)
    run(config, scan_path)
    first = _cache_entries(tmp_path)
    assert coverage_map(config.build_grid())[0, 0, 0] == 1
    scan, _ = tio.read_nifti(scan_path)
    data = np.array(scan.data, order="F")
    data[0, 0, 0] += 1.0
    tio.write_nifti(scan.with_data(data), scan_path)
    counting.calls.clear()
    run(config, scan_path)
    assert sorted(counting.calls) == list(range(8))
    assert len(_cache_entries(tmp_path)) == 8 and not set(_cache_entries(tmp_path)) & set(first)


def _short_dims(blob, num_labels):
    return blob[: -14 * 14]  # the 14^3 tile's labels, one z plane short


def _label_out_of_range(blob, num_labels):
    blob = blob.copy()
    blob[0] = num_labels + 2
    return blob


@pytest.mark.parametrize("rewrite", [_short_dims, _label_out_of_range])
def test_resume_recomputes_an_entry_that_breaks_the_tile_contract(tmp_path, rewrite):
    # each rewritten entry is a whole blob of <u2 labels, but not an answer for its tile
    truth, scan_path = _phantom_case(tmp_path)
    fresh = _base_config(tmp_path, truth, output_dir=str(tmp_path / "fresh"))
    run(fresh, scan_path)
    backend = _CountingPrior(truth)
    config = _base_config(tmp_path, truth, backend=backend, resume=True)
    run(config, scan_path)
    entry = _cache_entries(tmp_path)[0]
    entry.write_bytes(rewrite(np.frombuffer(entry.read_bytes(), "<u2"), truth.num_labels).tobytes())
    backend.calls.clear()
    run(config, scan_path)
    assert _outputs(tmp_path / "out") == _outputs(tmp_path / "fresh")
    assert len(backend.calls) == 1  # only the rewritten tile ran again
    # and its entry now holds the backend's answer
    answer = extract_tile(truth, config.build_grid().tiles[backend.calls[0]])
    npt.assert_array_equal(tio.read_raw(entry, answer.geometry, truth.num_labels).data, answer.data)


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

    config = _base_config(tmp_path, truth, affine=f"estimate:{reference_path}")
    result = run(config, scan_path)
    npt.assert_array_equal(result.fused.data, truth.data)
    assert result.native_labels.dims == DIMS


# --- a prior backend on another grid ---


@pytest.mark.parametrize("policy", ["abort", "background"])
@pytest.mark.parametrize(
    "dims, spacing, text",
    [((20, 20, 20), 1.0, "dims (20, 20, 20), spacing (1, 1, 1)"),
     (DIMS, 2.5, "dims (24, 24, 24), spacing (2.5, 2.5, 2.5)")],
    ids=["dims", "spacing"],
)
def test_prior_on_another_grid_fails_before_the_scan_is_read(tmp_path, policy, dims, spacing, text):
    # under "background" every tile used to be substituted and the run exited 0
    truth, _ = _phantom_case(tmp_path)
    geometry = make_centered_geometry(dims, (spacing,) * 3)
    prior = LabelVolume(geometry, np.ones(dims, dtype=np.uint8), truth.num_labels)
    config = _base_config(tmp_path, truth, backend=AtlasPriorOracle(prior), on_tile_failure=policy)
    with pytest.raises(ConfigError) as info:
        run(config, tmp_path / "absent.nii")  # never read
    message = str(info.value)
    assert f"prior backend's grid ({text}, origin" in message
    assert "is not the atlas grid (dims (24, 24, 24), spacing (1, 1, 1), origin (-11.5, -11.5, -11.5))" in message
    out_dir = tmp_path / "out"
    assert (out_dir / "FAILED").read_text().startswith("stage: setup")
    assert not (out_dir / "atlas_labels.nii").exists()


# --- the scan, read from its file a band of planes at a time ---


def _tilted_case(tmp_path, angle=0.4, dims=(20, 18, 96)):
    """A scan file and the affine file of a tilt about x: each atlas plane reaches many scan planes."""
    truth, _ = _phantom_case(tmp_path)
    scan = intensity_from_labels(make_blob_phantom(make_centered_geometry(dims), 5, seed=6), seed=6)
    scan_path = tmp_path / "tall.nii"
    tio.write_nifti(scan, scan_path)
    c, s = np.cos(angle), np.sin(angle)
    tilt = AffineTransform.from_linear_translation([[1, 0, 0], [0, c, -s], [0, s, c]], (0.5, -1.0, 2.0))
    affine_path = tmp_path / "tilt.txt"
    save_affine(tilt, affine_path)
    return truth, scan_path, affine_path


def _two_threads(monkeypatch):
    """At ``jobs=2`` the sweep runs two threads, whatever the host and the target size."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(geometry_module, "_SWEEP_VOXELS", 1)


def _record_reads(monkeypatch):
    """``(z0, z1, ring)`` of every band read from a scan file.

    ``ring`` is the ``_PlaneRing`` whose ``fill`` read the band, None for a
    read outside a ring.  One thread can fill two rings, one per z range it
    takes, so reads are told apart by ring, not by thread.
    """
    calls, filling = [], threading.local()
    band, fill = tio.NiftiScan.band, geometry_module._PlaneRing.fill

    def recording(self, z0, z1):
        calls.append((z0, z1, getattr(filling, "ring", None)))
        return band(self, z0, z1)

    def ring_fill(ring, lo, hi):
        filling.ring = ring
        try:
            return fill(ring, lo, hi)
        finally:
            filling.ring = None

    monkeypatch.setattr(tio.NiftiScan, "band", recording)
    monkeypatch.setattr(geometry_module._PlaneRing, "fill", ring_fill)
    return calls


def _rings_reading_each_plane_once(reads):
    """The plane rings that read ``reads``, each a single plane, none twice by one ring."""
    assert all(z1 == z0 + 1 and ring is not None for z0, z1, ring in reads)
    planes = {}
    for z0, _, ring in reads:
        planes.setdefault(ring, []).append(z0)
    assert all(len(zs) == len(set(zs)) for zs in planes.values())
    return len(planes)


def test_run_from_a_file_is_the_same_at_any_jobs_on_a_tilted_warp(tmp_path, monkeypatch):
    _two_threads(monkeypatch)
    truth, scan_path, affine_path = _tilted_case(tmp_path)
    blobs = {}
    for jobs in (1, 2):
        out_dir = tmp_path / f"out_j{jobs}"
        with monkeypatch.context() as patch:
            reads, windows = _record_reads(patch), []
            fill = geometry_module._PlaneRing.fill
            patch.setattr(geometry_module._PlaneRing, "fill",
                          lambda ring, lo, hi: windows.append(hi - lo + 1) or fill(ring, lo, hi))
            run(_base_config(tmp_path, truth, affine=str(affine_path), jobs=jobs,
                             output_dir=str(out_dir)), scan_path)
        # the read stage checks all 96 planes in one band; in register a target plane
        # reaches up to a dozen planes, and each z range's ring reads each plane once
        assert reads[0] == (0, 96, None)
        assert 8 <= max(windows) < 96
        assert _rings_reading_each_plane_once(reads[1:]) == jobs
        blobs[jobs] = [(out_dir / name).read_bytes() for name in ("atlas_labels.nii", "native_labels.nii")]
    assert blobs[1] == blobs[2]


@pytest.mark.parametrize("angle, nz", [(0.4, 96), (np.pi / 2, 24)], ids=["tilted", "reoriented"])
def test_register_from_the_file_is_bitwise_the_in_memory_resample(tmp_path, monkeypatch, angle, nz):
    _two_threads(monkeypatch)
    _, scan_path, affine_path = _tilted_case(tmp_path, angle, (20, 18, nz))
    target = make_centered_geometry(DIMS)
    forward = load_affine(affine_path)
    volume, _ = tio.read_nifti(scan_path)
    want = resample_intensity(volume, forward, target)
    for jobs in (1, 2):
        with tio.NiftiScan(scan_path) as scan, monkeypatch.context() as patch:
            reads = _record_reads(patch)
            got = resample_intensity(scan, forward, target, jobs=jobs)
        assert got.data.dtype == np.float32
        assert got.data.tobytes("F") == want.data.tobytes("F")
        rings = _rings_reading_each_plane_once(reads)
        if nz == 96:  # a ring of the dozen planes a target plane reaches, per z range
            assert rings == jobs
        else:  # at 90 degrees a target plane reaches every plane: one ring, one z range
            assert rings == 1
    reference = intensity_from_labels(make_blob_phantom(target, 5, seed=7), seed=7)
    with tio.NiftiScan(scan_path) as scan:
        est = estimate_affine_moments(scan, reference)
    assert est.matrix.tobytes() == estimate_affine_moments(volume, reference).matrix.tobytes()


def test_a_window_wider_than_the_ring_gets_a_wider_ring(tmp_path, monkeypatch):
    # the rounding of a warp can widen a window past `_ring_planes`; rings of
    # one plane make every window wider
    monkeypatch.setattr(geometry_module, "_ring_planes", lambda m, dims, nz: 1)
    _, scan_path, affine_path = _tilted_case(tmp_path)
    target = make_centered_geometry(DIMS)
    forward = load_affine(affine_path)
    want = resample_intensity(tio.read_nifti(scan_path)[0], forward, target)
    with tio.NiftiScan(scan_path) as scan:
        got = resample_intensity(scan, forward, target)
    assert got.data.tobytes("F") == want.data.tobytes("F")


def test_plane_ring_puts_plane_z_in_slot_z_mod_size():
    geometry = make_centered_geometry((3, 2, 10))
    volume = tileseg.IntensityVolume(geometry, np.arange(60.0).reshape(geometry.dims, order="F"))
    reads = []

    class Source:
        dims, dtype = volume.dims, volume.dtype

        def band(self, z0, z1):
            reads.append(z0)
            return volume.band(z0, z1)

    ring = geometry_module._PlaneRing(Source(), 3)
    for lo, hi in [(0, 2), (1, 3), (2, 4), (4, 6), (3, 5), (0, 5)]:
        flat, size, stride = ring.fill(lo, hi)
        slots = flat.reshape(size + 1, stride)
        for z in range(lo, hi + 1):
            npt.assert_array_equal(slots[z % size, :6], volume.data[:, :, z].ravel(order="F"))
        npt.assert_array_equal(slots[size], slots[0])  # the plane above the last slot's
    # plane 6 took plane 3's slot, and the window of six planes a new ring of six
    assert reads == [0, 1, 2, 3, 4, 5, 6, 3, 0, 1, 2, 3, 4, 5]
    assert size == 6 and stride == 6 + 8  # a plane and a cache line of float64


def test_big_endian_scan_gives_the_little_endian_outputs(tmp_path):
    truth, scan_path, affine_path = _tilted_case(tmp_path)
    raw = scan_path.read_bytes()
    header = np.frombuffer(raw[:348], tio._HEADER.newbyteorder("<")).astype(tio._HEADER.newbyteorder(">"))
    big_path = tmp_path / "big.nii"
    big_path.write_bytes(header.tobytes() + raw[348:352]
                         + np.frombuffer(raw[352:], "<f4").astype(">f4").tobytes())
    assert tio.read_nifti(big_path)[1].byte_order == "big"
    blobs = []
    for name, path in (("little", scan_path), ("big", big_path)):
        out_dir = tmp_path / name
        run(_base_config(tmp_path, truth, affine=str(affine_path), output_dir=str(out_dir)), path)
        blobs.append([(out_dir / n).read_bytes() for n in ("atlas_labels.nii", "native_labels.nii")])
    assert blobs[0] == blobs[1]


def test_scan_truncated_after_it_was_opened_is_a_format_error(tmp_path):
    _, scan_path, _ = _tilted_case(tmp_path)
    with tio.NiftiScan(scan_path) as scan:
        scan_path.write_bytes(scan_path.read_bytes()[:-1])
        assert scan.band(0, 2).shape == (20, 18, 2)
        with pytest.raises(tio.NiftiFormatError, match="short read"):
            scan.band(94, 96)


def test_a_nan_scan_fails_in_read_and_its_file_is_closed(tmp_path, monkeypatch):
    truth, scan_path, _ = _tilted_case(tmp_path)
    raw = bytearray(scan_path.read_bytes())
    raw[-4:] = np.array(np.nan, "<f4").tobytes()  # the last voxel
    scan_path.write_bytes(raw)
    scans = []
    init = tio.NiftiScan.__init__
    monkeypatch.setattr(tio.NiftiScan, "__init__", lambda scan, path: init(scan, path) or scans.append(scan))
    with pytest.raises(GeometryError, match="NaN or Inf"):
        run(_base_config(tmp_path, truth), scan_path)
    assert (tmp_path / "out" / "FAILED").read_text().startswith("stage: read")
    assert len(scans) == 1 and scans[0]._fd == -1


@pytest.mark.parametrize("angle, nz", [(0.2, 512), (np.pi / 2, 96)], ids=["tilted", "reoriented"])
def test_read_and_register_hold_a_few_planes_of_the_scan(tmp_path, monkeypatch, angle, nz):
    _two_threads(monkeypatch)
    dims = (64, 64, nz)  # 16 kB planes
    rng = np.random.default_rng(8)
    scan_path = tmp_path / "scan.nii"
    tio.write_nifti(tileseg.IntensityVolume(make_centered_geometry(dims), rng.uniform(1.0, 2.0, dims)), scan_path)
    scan_bytes = scan_path.stat().st_size - 352
    c, s = np.cos(angle), np.sin(angle)
    tilt = AffineTransform.from_linear_translation([[1, 0, 0], [0, c, -s], [0, s, c]], (0, 0, 0))
    target = make_centered_geometry((96, 96, 64))
    plane = 96 * 96 * np.dtype(np.float64).itemsize
    for jobs in (1, 2):
        def read_and_register():
            with tio.NiftiScan(scan_path) as scan:
                return resample_intensity(scan, tilt, target, jobs=jobs)

        peak, out = peak_alloc(read_and_register)
        if nz == 512:  # of an 8 MB scan, each thread holds the 21 planes a target plane reaches
            assert peak < out.data.nbytes + 24 * jobs * plane
            assert peak < scan_bytes
        else:  # a target plane reaches every plane: one thread holds them, once
            assert peak < out.data.nbytes + scan_bytes + 24 * plane
