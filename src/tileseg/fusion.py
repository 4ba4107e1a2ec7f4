"""Majority-vote fusion of overlapped tile segmentations.

Every atlas voxel receives one vote from each tile whose box contains it;
the fused label maximizes the vote count, with ties broken toward the
smallest label value (which favors background at uncertain boundaries).

Each of the grid's regions (``TileGrid.regions``) is covered by one fixed
set of K tiles.  A region with K = 1 is a copy of that tile, so an abutting
partition is reassembled without voting.  Otherwise the K tile slices are
stacked, sorted along the tile axis, and the mode is read from the run
lengths: the first position that reaches the longest run holds the
smallest winning label.  The cost grows with the votes cast, not with the
label count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import AffineTransform, LabelVolume, VolumeGeometry, _labels, compose
from .tiling import TileGrid, coverage_map

__all__ = ["FusionError", "FusionResult", "fuse_majority", "fuse_concatenate"]


class FusionError(ValueError):
    """Inconsistent tile segmentations or an invalid fusion request."""


@dataclass(frozen=True)
class FusionResult:
    """``coverage_used`` equals ``coverage_map(grid)`` (int32, atlas dims); it
    stays because ``bench/tracing.py`` counts a fusion's votes from it."""

    fused: LabelVolume
    tie_count: int
    coverage_used: np.ndarray


def _atlas_geometry_from_tiles(tile_segs, grid: TileGrid) -> VolumeGeometry:
    """Recover the atlas geometry the tiles were extracted from."""
    first = tile_segs[0]
    origin = grid.tiles[0].origin
    back = AffineTransform.translation([-o for o in origin])
    atlas_i2w = compose(first.geometry.index_to_world, back)
    geometry = VolumeGeometry(grid.atlas_dims, first.geometry.spacing, atlas_i2w)
    for seg, tile in zip(tile_segs, grid.tiles):
        expected = compose(geometry.index_to_world, AffineTransform.translation(tile.origin))
        if not np.allclose(seg.geometry.index_to_world.matrix, expected.matrix, atol=1e-4):
            raise FusionError(f"tile {tile.index} geometry is inconsistent with the grid")
    return geometry


def _validate(tile_segs, grid: TileGrid, num_labels):
    if len(tile_segs) != grid.k:
        raise FusionError(f"got {len(tile_segs)} tiles for a grid of {grid.k}")
    if num_labels is None:
        num_labels = max(seg.num_labels for seg in tile_segs)
    for seg, tile in zip(tile_segs, grid.tiles):
        if seg.dims != tile.size:
            raise FusionError(
                f"tile {tile.index} dims {seg.dims} do not match size {tile.size}"
            )
        if int(seg.data.max(initial=0)) >= num_labels:
            raise FusionError(f"tile {tile.index} holds labels >= {num_labels}")
    return int(num_labels)


def _sorting_network(n: int) -> list[tuple[int, int]]:
    """Comparator pairs of Batcher's odd-even merge sort on ``n`` inputs.

    Applying ``(i, j)`` in order as ``min -> i, max -> j`` sorts ascending.
    A whole row of voxels goes through each comparator at once, which is
    far cheaper than ``np.sort`` for the short tile axis.
    """
    pairs = []
    p = 1
    while p < n:
        k = p
        while k >= 1:
            for j in range(k % p, n - k, 2 * k):
                for i in range(j, j + min(k, n - j - k)):
                    if i // (2 * p) == (i + k) // (2 * p):
                        pairs.append((i, i + k))
            k //= 2
        p *= 2
    return pairs


def fuse_majority(
    tile_segs: list[LabelVolume],
    grid: TileGrid,
    num_labels: int | None = None,
) -> FusionResult:
    """Per-voxel majority vote over the covering tiles.

    Returns the fused atlas-space label volume, the number of voxels where
    the top vote count was shared by several labels, and the per-voxel vote
    count (the grid's coverage map).  The fused map and the vote stacks are
    in the label type of ``num_labels`` (one byte per vote up to 256
    labels), whatever the types of the tiles, and x-fastest: each covering
    part is copied once into its row of the stack, in F order.
    """
    L = _validate(tile_segs, grid, num_labels)
    geometry = _atlas_geometry_from_tiles(tile_segs, grid)
    fused = _labels(grid.atlas_dims, 0, L)
    # 0-based run lengths reach K - 1, so this holds any K
    run_dtype = np.min_scalar_type(grid.k)

    ties = 0
    for box, covering in grid.regions():
        k = len(covering)
        parts = [
            tile_segs[i].data[
                tuple(slice(b.start - o, b.stop - o) for b, o in zip(box, grid.tiles[i].origin))
            ]
            for i in covering
        ]
        if k == 1:
            fused[box] = parts[0]
            continue
        # one x-fastest copy of each part, cast into L's type (its values are below L)
        stack = np.empty((k, parts[0].size), dtype=fused.dtype)
        for row, part in zip(stack, parts):
            np.copyto(row.reshape(part.shape, order="F"), part, casting="same_kind")
        low = np.empty_like(stack[0])
        for i, j in _sorting_network(k):
            np.minimum(stack[i], stack[j], out=low)
            np.maximum(stack[i], stack[j], out=stack[j])
            stack[i] = low
        runs = np.zeros(stack.shape, dtype=run_dtype)
        for j in range(1, k):
            np.multiply(runs[j - 1] + 1, stack[j] == stack[j - 1], out=runs[j])
        at_top = runs == runs.max(axis=0)
        winners = np.where(at_top, stack, np.iinfo(stack.dtype).max).min(axis=0)
        fused[box] = winners.reshape(parts[0].shape, order="F")
        ties += int(np.count_nonzero(np.count_nonzero(at_top, axis=0) > 1))

    return FusionResult(
        fused=LabelVolume._adopt(geometry, fused, L),
        tie_count=ties,
        coverage_used=coverage_map(grid),
    )


def fuse_concatenate(tile_segs: list[LabelVolume], grid: TileGrid) -> LabelVolume:
    """Reassemble an exact partition; every region is one tile's copy."""
    if not grid.is_partition():
        raise FusionError("concatenation needs a non-overlapped partition grid")
    return fuse_majority(tile_segs, grid).fused
