"""Release gate: one test per contract, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py`` (add ``-s`` to see the
[acceptance] lines inline; they are printed outside capture either way).
"""

import struct
import time
from contextlib import contextmanager

import numpy as np
import numpy.testing as npt
import pytest

from tileseg import io as tio
from tileseg.evaluate import report as dice_report
from tileseg.fusion import fuse_concatenate, fuse_majority
from tileseg.geometry import (
    AffineTransform,
    IntensityVolume,
    LabelVolume,
    make_centered_geometry,
    resample_intensity,
    resample_labels,
)
from tileseg.harmonize import fit_model, harmonize
from tileseg.phantom import intensity_from_labels
from tileseg.pipeline import PipelineConfig, run, save_affine
from tileseg.segmenter import AtlasPriorOracle
from tileseg.tiling import build_grid, coverage_map, extract_tile
from conftest import CorruptingWrapper, defined, make_blob_phantom, segment_answers


@contextmanager
def criterion(capsys, name, budget_s=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[acceptance] {name}: FAIL ({time.perf_counter() - t0:.2f}s)")
        raise
    elapsed = time.perf_counter() - t0
    if budget_s is not None and elapsed >= budget_s:
        with capsys.disabled():
            print(f"[acceptance] {name}: FAIL ({elapsed:.2f}s over {budget_s}s budget)")
        raise AssertionError(f"{name} took {elapsed:.2f}s, budget {budget_s}s")
    with capsys.disabled():
        print(f"[acceptance] {name}: PASS ({elapsed:.2f}s)")


def _random_volume(geometry, seed, lo=0.0, hi=100.0):
    rng = np.random.default_rng(seed)
    return IntensityVolume(geometry, rng.uniform(lo, hi, size=geometry.dims))


def test_tiling_geometry(capsys):
    with criterion(capsys, "tiling geometry", budget_s=1.0):
        dims = (172, 220, 156)
        grid = build_grid(dims, (3, 3, 3), (96, 128, 88))
        assert grid.k == 27

        cov = coverage_map(grid)
        assert int(cov.min()) >= 1
        center = tuple(d // 2 for d in dims)
        assert int(cov[center]) == 27

        # independent oracle: count interval memberships per axis, then
        # multiply, because the boxes are axis-aligned products
        per_axis = []
        for axis in range(3):
            origins = sorted({t.origin[axis] for t in grid.tiles})
            size = grid.tile_size[axis]
            hits = [
                sum(1 for o in origins if o <= v < o + size)
                for v in range(dims[axis])
            ]
            per_axis.append(np.array(hits, dtype=np.int64))
        expected = np.einsum("i,j,k->ijk", *per_axis)
        npt.assert_array_equal(cov, expected)

        assert sorted({t.origin[0] for t in grid.tiles}) == [0, 38, 76]
        assert sorted({t.origin[1] for t in grid.tiles}) == [0, 46, 92]
        assert sorted({t.origin[2] for t in grid.tiles}) == [0, 34, 68]


def _dense_vote_oracle(tile_segs, grid, L):
    """Per-label dense accumulation; shares nothing with the region-wise vote."""
    counts = np.zeros((*grid.atlas_dims, L), dtype=np.int32)
    for seg, tile in zip(tile_segs, grid.tiles):
        sx, sy, sz = tile.slices()
        for label in range(L):
            counts[sx, sy, sz, label] += seg.data == label
    top = counts.max(axis=-1)
    winners = counts.argmax(axis=-1).astype(np.uint16)
    coverage = counts.sum(axis=-1, dtype=np.int32)
    ties = int((((counts == top[..., None]).sum(axis=-1) >= 2) & (top > 0)).sum())
    return winners, ties, coverage


def test_fusion_oracle_equivalence(capsys):
    with criterion(capsys, "fusion oracle equivalence (100 instances)", budget_s=30.0):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            dims = tuple(int(v) for v in rng.integers(4, 21, size=3))
            ks = tuple(int(v) for v in rng.integers(1, 4, size=3))
            size = tuple(
                int(rng.integers(-(-d // k), d + 1)) for d, k in zip(dims, ks)
            )
            grid = build_grid(dims, ks, size)
            L = int(rng.integers(2, 11))
            geometry = make_centered_geometry(dims)
            segs = [
                extract_tile(
                    LabelVolume(
                        geometry,
                        rng.integers(0, L, size=dims).astype(np.uint16),
                        L,
                    ),
                    t,
                ).with_data(rng.integers(0, L, size=t.size).astype(np.uint16))
                for t in grid.tiles
            ]
            result = fuse_majority(segs, grid, num_labels=L)
            winners, ties, coverage = _dense_vote_oracle(segs, grid, L)
            npt.assert_array_equal(result.fused.data, winners)
            assert result.tie_count == ties
            npt.assert_array_equal(result.coverage_used, coverage)


def test_single_corrupted_tile_is_corrected(capsys):
    # whichever single tile is corrupted, voxels under 3+ tiles outvote it
    with criterion(capsys, "error correction, each of 27 tiles corrupted", budget_s=10.0):
        dims = (64, 64, 64)
        geometry = make_centered_geometry(dims)
        truth = make_blob_phantom(geometry, num_labels=6, seed=2)
        scan = intensity_from_labels(truth, seed=2)
        grid = build_grid(dims, (3, 3, 3), (32, 32, 32))
        assert grid.k == 27

        cov = coverage_map(grid)
        deep = cov >= 3
        assert deep.any()
        for target in range(grid.k):
            backend = CorruptingWrapper(
                AtlasPriorOracle(truth), target_index=target, corruption_label=1
            )
            segs = segment_answers(backend, scan, grid)
            fused = fuse_majority(segs, grid, num_labels=6).fused
            npt.assert_array_equal(fused.data[deep], truth.data[deep], err_msg=f"tile {target}")


def test_partition_round_trip(capsys):
    with criterion(capsys, "partition extract/concatenate round trip"):
        dims = (64, 64, 64)
        geometry = make_centered_geometry(dims)
        truth = make_blob_phantom(geometry, num_labels=6, seed=3)
        grid = build_grid(dims, (2, 2, 2), (32, 32, 32))
        assert grid.is_partition()
        segs = [extract_tile(truth, t) for t in grid.tiles]
        rebuilt = fuse_concatenate(segs, grid)
        npt.assert_array_equal(rebuilt.data, truth.data)  # bitwise


def test_harmonization_invariance(capsys):
    with criterion(capsys, "harmonization affine invariance + self fit"):
        geometry = make_centered_geometry((16, 16, 16))
        mask = LabelVolume(geometry, np.ones((16, 16, 16), dtype=np.uint16), 2)
        reference = _random_volume(geometry, seed=5)
        model = fit_model([reference], [mask], quantile_count=256)

        rng = np.random.default_rng(6)
        scan = _random_volume(geometry, seed=7)
        base, _ = harmonize(scan, model)
        for _ in range(20):
            a = float(rng.uniform(0.1, 10.0))
            b = float(rng.uniform(-100.0, 100.0))
            out, _ = harmonize(scan.with_data(a * scan.data + b), model)
            npt.assert_allclose(out.data, base.data, atol=1e-6)

        _, fit = harmonize(reference, model)
        assert abs(fit.beta1 - 1.0) <= 1e-6
        assert abs(fit.beta0) <= 1e-6


def test_resampling_contracts(capsys):
    with criterion(capsys, "resampling identity/shift/label-closure"):
        geometry = make_centered_geometry((12, 12, 12))
        vol = _random_volume(geometry, seed=8)
        rng = np.random.default_rng(9)
        lab = LabelVolume(
            geometry, rng.integers(0, 7, size=(12, 12, 12)).astype(np.uint16), 7
        )

        out = resample_intensity(vol, AffineTransform.identity(), geometry)
        npt.assert_array_equal(out.data, vol.data)
        out_lab = resample_labels(lab, AffineTransform.identity(), geometry)
        npt.assert_array_equal(out_lab.data, lab.data)

        # pull-back reads the source one voxel lower: out[i] = src[i-1]
        shift = AffineTransform.translation((-1.0, 0.0, 0.0))
        shifted = resample_intensity(vol, shift, geometry)
        npt.assert_allclose(shifted.data[1:], vol.data[:-1], atol=1e-12)
        shifted_lab = resample_labels(lab, shift, geometry)
        npt.assert_array_equal(shifted_lab.data[1:], lab.data[:-1])

        allowed = set(np.unique(lab.data).tolist()) | {0}
        for seed in range(5):
            r = np.random.default_rng(seed)
            linear = np.eye(3) + r.uniform(-0.2, 0.2, size=(3, 3))
            t = AffineTransform.from_linear_translation(linear, r.uniform(-2, 2, 3))
            warped = resample_labels(lab, t, geometry)
            assert set(np.unique(warped.data).tolist()) <= allowed


NATIVE_DIMS = (128, 128, 128)
E2E_ATLAS_DIMS = (192, 192, 144)


def _e2e_fixture(tmp_path):
    """Rotated native grid, atlas-space truth, and a pipeline config."""
    native_geom = make_centered_geometry(NATIVE_DIMS)
    truth_native = make_blob_phantom(native_geom, num_labels=6, seed=11)
    scan = intensity_from_labels(truth_native, seed=11)

    angle = np.deg2rad(7.0)
    forward = AffineTransform.from_linear_translation(
        np.array(
            [
                [np.cos(angle), -np.sin(angle), 0.0],
                [np.sin(angle), np.cos(angle), 0.0],
                [0.0, 0.0, 1.0],
            ]
        ),
        (3.0, -2.0, 1.5),
    )
    atlas_geom = make_centered_geometry(E2E_ATLAS_DIMS)
    truth_atlas = resample_labels(truth_native, forward, atlas_geom)

    scan_path = tmp_path / "scan.nii"
    tio.write_nifti(scan, scan_path)
    affine_path = tmp_path / "forward.txt"
    save_affine(forward, affine_path)

    def config(output_dir, **kw):
        defaults = dict(
            atlas_dims=E2E_ATLAS_DIMS,
            grid=(3, 3, 3),
            tile_size=(112, 112, 88),
            backend=AtlasPriorOracle(truth_atlas),
            affine=str(affine_path),
            num_labels=6,
            output_dir=str(output_dir),
        )
        defaults.update(kw)
        return PipelineConfig(**defaults)

    return truth_native, truth_atlas, scan_path, config


def test_end_to_end_phantom(tmp_path, capsys):
    with criterion(capsys, "end-to-end phantom recovery", budget_s=120.0):
        truth_native, truth_atlas, scan_path, make_config = _e2e_fixture(tmp_path)
        result = run(make_config(tmp_path / "out"), scan_path)

        atlas_rep = dice_report(result.fused, truth_atlas)
        assert atlas_rep.labels_evaluated == 5
        assert all(v == 1.0 for v in defined(atlas_rep).values())

        native_rep = dice_report(result.native_labels, truth_native)
        assert native_rep.labels_evaluated == 5
        # two nearest-neighbor passes erode blob boundaries slightly
        assert min(defined(native_rep).values()) >= 0.95


def test_determinism_across_parallelism(tmp_path, capsys):
    with criterion(capsys, "bitwise determinism, 1 vs 8 jobs"):
        truth_native, truth_atlas, scan_path, make_config = _e2e_fixture(tmp_path)
        backend = CorruptingWrapper(
            AtlasPriorOracle(truth_atlas), target_index=4, corruption_label=2
        )
        outputs = {}
        for jobs in (1, 8):
            out_dir = tmp_path / f"out_jobs{jobs}"
            run(make_config(out_dir, backend=backend, jobs=jobs), scan_path)
            outputs[jobs] = {
                name: (out_dir / name).read_bytes()
                for name in ("atlas_labels.nii", "native_labels.nii")
            }
        assert outputs[1] == outputs[8]


def test_nifti_round_trip(tmp_path, capsys):
    with criterion(capsys, "volume file round trip, both byte orders"):
        geometry = make_centered_geometry((9, 7, 5), (0.8, 1.0, 1.25))
        rng = np.random.default_rng(12)
        lab = LabelVolume(
            geometry, rng.integers(0, 133, size=(9, 7, 5)).astype(np.uint16), 133
        )
        p = tmp_path / "labels.nii"
        tio.write_nifti(lab, p)
        back, summary = tio.read_nifti(p, as_labels=True, num_labels=133)
        npt.assert_array_equal(back.data, lab.data)  # bitwise
        assert summary.byte_order == "little"
        npt.assert_allclose(
            back.geometry.index_to_world.matrix,
            geometry.index_to_world.matrix,
            atol=1e-5,
        )

        # big-endian variant crafted by hand
        dims = (3, 2, 2)
        arr = np.arange(12, dtype=np.int64).reshape(dims)
        raw = bytearray(352)
        struct.pack_into(">i", raw, 0, 348)
        struct.pack_into(">8h", raw, 40, 3, *dims, 1, 1, 1, 1)
        struct.pack_into(">h", raw, 70, 4)
        struct.pack_into(">h", raw, 72, 16)
        struct.pack_into(">8f", raw, 76, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
        struct.pack_into(">f", raw, 108, 352.0)
        struct.pack_into(">h", raw, 254, 1)
        struct.pack_into(">12f", raw, 280, 1, 0, 0, -1, 0, 1, 0, -0.5, 0, 0, 1, -0.5)
        raw[344:348] = b"n+1\x00"
        pb = tmp_path / "big.nii"
        pb.write_bytes(bytes(raw) + arr.ravel(order="F").astype(">i2").tobytes())
        big, summary = tio.read_nifti(pb, as_labels=True)
        assert summary.byte_order == "big"
        npt.assert_array_equal(big.data, arr)
