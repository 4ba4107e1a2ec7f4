"""Deterministic benchmark fixture, built from a seed with numpy only.

The fixture is the paper's layout: a 256x256x170 native scan of blocky
random labels (8^3 blocks, 133 labels), a 7 degree rotation plus a
translation into the 172x220x156 atlas, the native truth mapped into the
atlas as a prior, a harmonization model fitted on the prior rendered as
an atlas-space scan, and one noisy answer per tile of the 3x3x3 overlap grid.  The reference
majority vote over those answers is computed here with plain counts, not
with ``tileseg.fusion``, so the benchmark checks the fusion kernel
against an independent oracle.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tileseg import io as tio
from tileseg.geometry import (
    AffineTransform,
    LabelVolume,
    make_centered_geometry,
    resample_labels,
)
from tileseg.harmonize import fit_model, save_model
from tileseg.phantom import intensity_from_labels
from tileseg.pipeline import save_affine
from tileseg.tiling import build_grid, extract_tile

WORKLOADS = ("overlap-noisy", "partition", "external-resume")

OVERLAP_GRID = (3, 3, 3)
PARTITION_GRID = (4, 4, 4)
NOISE_SHARE = 0.10          # share of each tile's voxels given a random label
SCAN_NOISE = 2.0            # std of the scan's Gaussian noise
ROTATION_DEG = 7.0          # forward affine: rotation about z ...
TRANSLATION = (3.0, -2.0, 1.5)  # ... plus this shift, in mm


@dataclass(frozen=True)
class Layout:
    """Sizes of one fixture; ``PAPER`` is the benchmark, ``SMALL`` the self-test."""

    native_dims: tuple = (256, 256, 170)
    atlas_dims: tuple = (172, 220, 156)
    num_labels: int = 133
    block: int = 8
    overlap_tile: tuple = (96, 128, 88)
    partition_tile: tuple = (43, 55, 39)


PAPER = Layout()
SMALL = Layout(
    native_dims=(72, 72, 48),
    atlas_dims=(48, 56, 40),
    num_labels=12,
    block=4,
    overlap_tile=(24, 32, 20),
    partition_tile=(12, 14, 10),
)


@dataclass
class Fixture:
    """The inputs of one workload, as the checking process keeps them."""

    workload: str
    manifest_path: Path
    truth_native: LabelVolume
    prior: LabelVolume
    grid: object                    # TileGrid the answers were cut from
    answers: list | None            # per-tile label boxes, None for the prior backend

    def expected(self) -> tuple:
        """Atlas labels and tie count every scan of this workload must produce."""
        if self.answers is None:
            return self.prior.data, 0
        return reference_vote(self.answers, self.grid, self.prior.num_labels)


def _forward() -> AffineTransform:
    a = np.deg2rad(ROTATION_DEG)
    rotation = np.array(
        [[np.cos(a), -np.sin(a), 0.0], [np.sin(a), np.cos(a), 0.0], [0.0, 0.0, 1.0]]
    )
    return AffineTransform.from_linear_translation(rotation, TRANSLATION)


def blocky_labels(layout: Layout, rng: np.random.Generator) -> np.ndarray:
    """Random labels constant over ``block``^3 cubes, cropped to the native dims."""
    coarse = [-(-d // layout.block) for d in layout.native_dims]
    blocks = rng.integers(0, layout.num_labels, size=coarse, dtype=np.uint16)
    full = blocks
    for axis in range(3):
        full = np.repeat(full, layout.block, axis=axis)
    nx, ny, nz = layout.native_dims
    return np.ascontiguousarray(full[:nx, :ny, :nz])


def noisy_answers(prior: LabelVolume, grid, seed: int) -> list:
    """Each tile's box of the prior with ~``NOISE_SHARE`` of its voxels relabelled.

    Every tile draws from its own stream seeded by ``(seed, tile.index)``,
    so tiles disagree where they overlap and the tie path of the vote runs.
    """
    answers = []
    for tile in grid.tiles:
        rng = np.random.default_rng((seed, tile.index))
        box = prior.data[tile.slices()].copy()
        flip = rng.random(tile.size) < NOISE_SHARE
        box[flip] = rng.integers(0, prior.num_labels, size=int(flip.sum()), dtype=np.uint16)
        answers.append(box)
    return answers


def reference_vote(answers: list, grid, num_labels: int, slab: int = 8):
    """Majority vote by explicit per-label counts, ties to the smallest label.

    Counts live in a ``(voxels of one z-slab, L)`` uint8 table; every tile
    adds one to the count of its label at each voxel it covers.  Returns the
    fused labels and the number of voxels whose top count is shared.
    """
    nx, ny, nz = grid.atlas_dims
    if len(answers) > np.iinfo(np.uint8).max:
        raise ValueError("too many tiles for uint8 vote counts")
    fused = np.empty(grid.atlas_dims, dtype=np.uint16)
    ties = 0
    for z0 in range(0, nz, slab):
        z1 = min(z0 + slab, nz)
        sz = z1 - z0
        counts = np.zeros((nx * ny * sz, num_labels), dtype=np.uint8)
        flat_counts = counts.reshape(-1)
        for tile, box in zip(grid.tiles, answers):
            (ox, oy, oz), (dx, dy, dz) = tile.origin, tile.size
            lo, hi = max(z0, oz), min(z1, oz + dz)
            if lo >= hi:
                continue
            ix = np.arange(ox, ox + dx)[:, None, None]
            iy = np.arange(oy, oy + dy)[None, :, None]
            iz = np.arange(lo - z0, hi - z0)[None, None, :]
            voxel = (ix * ny + iy) * sz + iz
            # a tile votes once per voxel, so no index repeats within one add
            flat_counts[voxel * num_labels + box[:, :, lo - oz : hi - oz]] += 1
        winner = counts.argmax(axis=1)
        top = counts[np.arange(counts.shape[0]), winner]
        counts[np.arange(counts.shape[0]), winner] = 0
        ties += int(np.count_nonzero((counts.max(axis=1) == top) & (top > 0)))
        fused[:, :, z0:z1] = winner.reshape(nx, ny, sz)
    return fused, ties


def build(workload: str, layout: Layout, seed: int, directory: Path) -> Fixture:
    """Write the inputs of ``workload`` into ``directory``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir(parents=True)
    rng = np.random.default_rng(seed)

    native_geom = make_centered_geometry(layout.native_dims)
    atlas_geom = make_centered_geometry(layout.atlas_dims)
    truth = LabelVolume(native_geom, blocky_labels(layout, rng), layout.num_labels)
    scan = intensity_from_labels(truth, seed=seed, noise=SCAN_NOISE)
    forward = _forward()
    prior = resample_labels(truth, forward, atlas_geom)

    scan_path = directory / "scan.nii"
    affine_path = directory / "forward_affine.txt"
    tio.write_nifti(scan, scan_path)
    save_affine(forward, affine_path)

    config = {
        "atlas_dims": list(layout.atlas_dims),
        "num_labels": layout.num_labels,
        "affine": str(affine_path),
        "fusion_mode": "majority",
        "grid": list(OVERLAP_GRID),
        "tile_size": list(layout.overlap_tile),
        "harmonization_model": None,
        "resume": False,
    }
    if workload in ("overlap-noisy", "partition"):
        # the prior rendered like the scan stands in for the registered scan,
        # which would cost a trilinear resample in every set-up
        atlas_scan = intensity_from_labels(prior, seed=seed, noise=SCAN_NOISE)
        mask = prior.with_data(prior.data > 0)
        model_dir = directory / "harmonization"
        save_model(fit_model([atlas_scan], [mask]), model_dir)
        config["harmonization_model"] = str(model_dir)

    if workload == "partition":
        config.update(
            fusion_mode="concat",
            grid=list(PARTITION_GRID),
            tile_size=list(layout.partition_tile),
        )
        prior_path = directory / "prior.nii"
        tio.write_nifti(prior, prior_path)
        backend = {"kind": "prior", "path": str(prior_path)}
        grid, answers = None, None
    else:
        grid = build_grid(layout.atlas_dims, OVERLAP_GRID, layout.overlap_tile)
        answers = noisy_answers(prior, grid, seed)
        answer_dir = directory / "answers"
        answer_dir.mkdir()
        for tile, box in zip(grid.tiles, answers):
            tile_vol = extract_tile(prior, tile).with_data(box)
            tio.write_nifti(tile_vol, answer_dir / f"tile_{tile.index:03d}.nii")
        backend = {"kind": "answers", "dir": str(answer_dir)}
        if workload == "external-resume":
            backend["kind"] = "external"
            config["resume"] = True

    manifest = {
        "workload": workload,
        "seed": seed,
        "scan": str(scan_path),
        "config": config,
        "backend": backend,
    }
    manifest_path = directory / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=1))
    return Fixture(workload, manifest_path, truth, prior, grid, answers)
