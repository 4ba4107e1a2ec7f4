"""Majority-vote fusion of overlapped tile segmentations.

Every atlas voxel receives one vote from each tile whose box contains it;
the fused label maximizes the vote count, with ties broken toward the
smallest label value (which favors background at uncertain boundaries).

The vote is taken while the answers arrive (``StreamingVote``), so no
more than the parts of the regions still waiting for a tile are held.
Each of the grid's regions (``TileGrid.regions``) is covered by one fixed
set of K tiles.  A region with K = 1 is a copy of that tile, made as the
tile arrives, so an abutting partition is reassembled without voting.
Otherwise each tile's part is kept x-fastest until the region's last part
arrives; then the K parts are stacked, sorted along the tile axis, and
the mode is read from the run lengths: the first position that reaches
the longest run holds the smallest winning label.  The winner is a plain
min-reduce over the stack or'ed with ``at_top - 1`` in the label type:
zero on the longest runs, all ones (the type's maximum) elsewhere, so no
per-voxel select is made.  The cost grows with the votes cast, not with
the label count.  ``fuse_majority`` on the answers in grid order feeds
them to one vote as they come and finishes it.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .geometry import AffineTransform, LabelVolume, VolumeGeometry, _labels, compose
from .tiling import TileGrid, TileSpec, coverage_map

__all__ = ["FusionError", "FusionResult", "StreamingVote", "fuse_majority", "fuse_concatenate"]


class FusionError(ValueError):
    """Inconsistent tile segmentations or an invalid fusion request."""


@dataclass(frozen=True)
class FusionResult:
    """The fused labels, the tied voxel count and the grid they were fused on."""

    fused: LabelVolume
    tie_count: int
    grid: TileGrid

    @property
    def coverage_used(self) -> np.ndarray:
        """``coverage_map(grid)`` (int32, atlas dims), built when read: only
        ``bench/tracing.py`` counts a fusion's votes from it."""
        return coverage_map(self.grid)


def _atlas_geometry(geometries, grid: TileGrid) -> VolumeGeometry:
    """Recover the atlas geometry from the first tile's answer; check the others against it."""
    back = AffineTransform.translation([-o for o in grid.tiles[0].origin])
    atlas_i2w = compose(geometries[0].index_to_world, back)
    geometry = VolumeGeometry(grid.atlas_dims, geometries[0].spacing, atlas_i2w)
    for got, tile in zip(geometries, grid.tiles):
        expected = compose(geometry.index_to_world, AffineTransform.translation(tile.origin))
        if not np.allclose(got.index_to_world.matrix, expected.matrix, atol=1e-4):
            raise FusionError(f"tile {tile.index} geometry is inconsistent with the grid")
    return geometry


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


class StreamingVote:
    """The majority vote over ``grid``'s tiles, taken as their answers arrive.

    ``add(tile, seg)`` takes each tile's answer once, in any order and from
    any thread.  It copies the tile's K = 1 regions into the fused map and
    keeps an x-fastest copy, in the label type of ``num_labels``, of its
    part of every other region; the thread that adds a region's last part
    votes it.  Only the regions' bookkeeping and the tie sum are locked.
    ``finish()`` checks that every tile arrived and returns the
    ``FusionResult``, its geometry derived from the first tile's answer.
    """

    def __init__(self, grid: TileGrid, num_labels: int):
        self.grid = grid
        self.num_labels = int(num_labels)
        self._fused = _labels(grid.atlas_dims, 0, self.num_labels)
        # holds the 0-based run lengths (up to K - 1) and the at-top counts (up to K)
        self._run_dtype = np.min_scalar_type(grid.k)
        self._position = {tile: i for i, tile in enumerate(grid.tiles)}
        self._geometries = [None] * grid.k
        self._ties = 0
        self._lock = threading.Lock()
        # per region, its box and the parts received so far (None once voted);
        # per tile, its regions and its row in each
        self._regions, self._parts = [], []
        self._rows = [[] for _ in grid.tiles]
        for r, (box, covering) in enumerate(grid.regions()):
            self._regions.append((box, len(covering)))
            self._parts.append({})
            for row, i in enumerate(covering):
                self._rows[i].append((r, row))

    def add(self, tile: TileSpec, seg: LabelVolume) -> None:
        i = self._position.get(tile)
        if i is None or self._geometries[i] is not None:
            raise FusionError(f"tile {tile.index} is not in the grid or was added twice")
        if seg.dims != tile.size:
            raise FusionError(f"tile {tile.index} dims {seg.dims} do not match size {tile.size}")
        if int(seg.data.max(initial=0)) >= self.num_labels:
            raise FusionError(f"tile {tile.index} holds labels >= {self.num_labels}")
        self._geometries[i] = seg.geometry
        for r, row in self._rows[i]:
            box, k = self._regions[r]
            part = seg.data[tuple(slice(b.start - o, b.stop - o) for b, o in zip(box, tile.origin))]
            if k == 1:
                self._fused[box] = part
                continue
            # an x-fastest copy, cast into the fused type (its values are below num_labels)
            flat = np.empty(part.size, dtype=self._fused.dtype)
            np.copyto(flat.reshape(part.shape, order="F"), part, casting="same_kind")
            with self._lock:
                parts = self._parts[r]
                parts[row] = flat
                if len(parts) < k:
                    continue
                self._parts[r] = None
            self._vote(box, part.shape, [parts.pop(j) for j in range(k)])

    def _vote(self, box, shape, rows) -> None:
        """Vote one region from its K rows, in covering order."""
        stack = np.stack(rows)
        rows.clear()  # the parts go before the kernel's temporaries come
        low = np.empty_like(stack[0])
        for i, j in _sorting_network(len(stack)):
            np.minimum(stack[i], stack[j], out=low)
            np.maximum(stack[i], stack[j], out=stack[j])
            stack[i] = low
        runs = np.zeros(stack.shape, dtype=self._run_dtype)
        for j in range(1, len(stack)):
            np.multiply(runs[j - 1] + 1, stack[j] == stack[j - 1], out=runs[j])
        at_top = runs == runs.max(axis=0)
        # 0 on the longest runs and all ones (the type's maximum) elsewhere
        top = at_top.astype(stack.dtype)
        top -= 1
        top |= stack
        self._fused[box] = top.min(axis=0).reshape(shape, order="F")
        ties = int(np.count_nonzero(at_top.sum(axis=0, dtype=self._run_dtype) > 1))
        with self._lock:
            self._ties += ties

    def finish(self) -> FusionResult:
        got = self.grid.k - self._geometries.count(None)
        if got != self.grid.k:
            raise FusionError(f"got {got} tiles for a grid of {self.grid.k}")
        geometry = _atlas_geometry(self._geometries, self.grid)
        fused = LabelVolume._adopt(geometry, self._fused, self.num_labels)
        return FusionResult(fused=fused, tie_count=self._ties, grid=self.grid)


def fuse_majority(
    tile_segs: Iterable[LabelVolume] | StreamingVote,
    grid: TileGrid,
    num_labels: int | None = None,
) -> FusionResult:
    """Per-voxel majority vote over the covering tiles.

    ``tile_segs`` is the k answers in grid order, any iterable, each fed to
    one ``StreamingVote`` in the label type of ``num_labels`` as it comes
    (by default the largest of the answers' counts, so they are listed
    first), or a ``StreamingVote`` on ``grid`` already fed every answer,
    which is finished as it is.

    Returns the fused atlas-space label volume, the number of voxels where
    the top vote count was shared by several labels, and the grid, whose
    per-voxel vote count ``coverage_used`` is built only when read.  The
    fused map and the vote stacks are in the label type of ``num_labels``
    (one byte per vote up to 256 labels), whatever the types of the tiles.
    """
    vote = tile_segs
    if isinstance(vote, StreamingVote):
        if vote.grid != grid:
            raise FusionError("the vote was taken on another grid")
        return vote.finish()
    if num_labels is None:
        tile_segs = list(tile_segs)
        num_labels = max((seg.num_labels for seg in tile_segs), default=2)
    vote = StreamingVote(grid, num_labels)
    segs = iter(tile_segs)
    for tile, seg in zip(grid.tiles, segs):  # takes no answer beyond the k-th
        vote.add(tile, seg)
    if extra := sum(1 for _ in segs):
        raise FusionError(f"got {grid.k + extra} tiles for a grid of {grid.k}")
    return vote.finish()  # fewer than k: "got N tiles for a grid of k"


def fuse_concatenate(
    tile_segs: Iterable[LabelVolume] | StreamingVote, grid: TileGrid, num_labels: int | None = None
) -> LabelVolume:
    """Reassemble an exact partition from what ``fuse_majority`` takes; each region is one tile's copy."""
    if not grid.is_partition():
        raise FusionError("concatenation needs a non-overlapped partition grid")
    return fuse_majority(tile_segs, grid, num_labels).fused
