"""Decomposition of the atlas grid into overlapped or abutting tiles.

A grid of ``k = kx * ky * kz`` axis-aligned boxes covers the atlas.  Per
axis the origins are evenly spaced between 0 and ``extent - size``; when
``k_axis * size`` exceeds the extent, adjacent tiles overlap, and when it
equals the extent they abut into an exact partition.  Tile order is fixed:
lexicographic in (z, y, x) grid position with x varying fastest.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from itertools import pairwise
from pathlib import Path

import numpy as np

from .geometry import (
    AffineTransform,
    IntensityVolume,
    VolumeGeometry,
    _intensity_dtype,
    compose,
)
from .io import write_atomic

__all__ = [
    "TilingError",
    "TileSpec",
    "TileGrid",
    "build_grid",
    "coverage_map",
    "extract_tile",
    "axis_origins",
    "MAX_TILES",
    "save_grid",
    "load_grid",
]


class TilingError(ValueError):
    """Invalid tile layout or extraction request."""


@dataclass(frozen=True)
class TileSpec:
    """One axis-aligned sub-space: half-open voxel box [origin, origin+size)."""

    origin: tuple
    size: tuple
    index: int

    def __post_init__(self):
        origin = tuple(int(v) for v in self.origin)
        size = tuple(int(v) for v in self.size)
        if len(origin) != 3 or len(size) != 3:
            raise TilingError("origin and size must be integer triples")
        if any(o < 0 for o in origin):
            raise TilingError(f"negative tile origin {origin}")
        if any(s <= 0 for s in size):
            raise TilingError(f"non-positive tile size {size}")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "size", size)

    @property
    def stop(self) -> tuple:
        return tuple(o + s for o, s in zip(self.origin, self.size))

    def slices(self) -> tuple:
        return tuple(slice(o, o + s) for o, s in zip(self.origin, self.size))


# tiles in one grid, at most.  Each tile is one backend call and one vote layer, and
# laying out 4 M tiles took 28 s, so a larger count is refused before any origin is
MAX_TILES = 4096


def axis_origins(extent: int, k: int, size: int) -> list[int]:
    """Evenly spaced tile origins along one axis.

    ``origin_j = round(j * (extent - size) / (k - 1))`` for j in 0..k-1;
    a single tile sits at 0.  Raises when the axis cannot be covered.
    Beyond ``extent - size + 1`` tiles the origins repeat.
    """
    if size > extent:
        raise TilingError(f"tile size {size} exceeds axis extent {extent}")
    if k < 1:
        raise TilingError(f"grid count must be >= 1, got {k}")
    if k * size < extent:
        raise TilingError(
            f"coverage impossible: {k} tiles of size {size} < extent {extent}"
        )
    if k == 1:
        return [0]
    # consecutive origins differ by at most ceil(step) <= size: no gaps
    step = (extent - size) / (k - 1)
    return [int(round(j * step)) for j in range(k)]


@dataclass(frozen=True)
class TileGrid:
    """An ordered set of tiles covering every voxel of the atlas grid."""

    atlas_dims: tuple
    grid: tuple
    tile_size: tuple
    tiles: tuple

    @property
    def k(self) -> int:
        return len(self.tiles)

    def regions(self):
        """Split the atlas at every tile origin and stop.

        Yields ``(box, covering)`` for each covered cell: its atlas slices
        and the indices of the tiles that hold all of it.  The candidate
        tiles narrow one axis at a time, x, then y, then z.
        """
        origins = np.array([t.origin for t in self.tiles])
        stops = np.array([t.stop for t in self.tiles])
        # per axis, the intervals between cuts clipped to the atlas, with the masks of
        # the tiles spanning them; a sorted set, as np.unique's first call adds 1.2 MB RSS
        xs, ys, zs = (
            [(slice(lo, hi), (o <= lo) & (hi <= s))
             for lo, hi in pairwise(sorted({min(c, n) for c in (0, n, *o.tolist(), *s.tolist())}))]
            for o, s, n in zip(origins.T, stops.T, self.atlas_dims)
        )
        for sx, mx in xs:
            on_x = np.flatnonzero(mx)
            for sy, my in ys:
                on_xy = on_x[my[on_x]]
                for sz, mz in zs:
                    covering = on_xy[mz[on_xy]]
                    if covering.size:
                        yield (sx, sy, sz), covering

    def coverage(self) -> dict:
        """``{covering tile count: voxels}`` in ascending count; 0 is uncovered."""
        voxels = Counter()
        for box, covering in self.regions():
            voxels[len(covering)] += math.prod(s.stop - s.start for s in box)
        voxels[0] = math.prod(self.atlas_dims) - voxels.total()
        return {n: v for n, v in sorted(voxels.items()) if v}

    def is_partition(self) -> bool:
        """True when every voxel is covered by exactly one tile."""
        return self.coverage() == {1: math.prod(self.atlas_dims)}

    def to_dict(self) -> dict:
        return {
            "atlas_dims": list(self.atlas_dims),
            "grid": list(self.grid),
            "tile_size": list(self.tile_size),
            "origins": [list(t.origin) for t in self.tiles],
        }


def build_grid(atlas_dims, grid, tile_size) -> TileGrid:
    """Lay out ``grid = (kx, ky, kz)`` tiles of ``tile_size`` over ``atlas_dims``.

    Raises ``TilingError`` for a layout ``axis_origins`` refuses, or for
    more than ``MAX_TILES`` tiles in all.
    """
    atlas_dims = tuple(int(v) for v in atlas_dims)
    grid = tuple(int(v) for v in grid)
    tile_size = tuple(int(v) for v in tile_size)
    if math.prod(max(k, 1) for k in grid) > MAX_TILES:
        raise TilingError(f"grid {grid} exceeds the limit of {MAX_TILES} tiles")
    per_axis = [
        axis_origins(atlas_dims[a], grid[a], tile_size[a]) for a in range(3)
    ]
    tiles = []
    n = 0
    for gz in range(grid[2]):          # z-major ordering, x fastest
        for gy in range(grid[1]):
            for gx in range(grid[0]):
                origin = (per_axis[0][gx], per_axis[1][gy], per_axis[2][gz])
                tiles.append(TileSpec(origin, tile_size, n))
                n += 1
    return TileGrid(atlas_dims, grid, tile_size, tuple(tiles))


def coverage_map(grid: TileGrid) -> np.ndarray:
    """Per-voxel count of covering tiles, shape ``atlas_dims``, int32."""
    cov = np.zeros(grid.atlas_dims, dtype=np.int32)
    for box, covering in grid.regions():
        cov[box] = len(covering)
    return cov


def extract_tile(vol, tile: TileSpec):
    """A tile's sub-volume, preserving world coordinates.

    Works for intensity and label volumes alike; the extracted geometry
    composes the parent affine with the tile-origin offset so voxel (0,0,0)
    of the tile maps to the same world point as the parent voxel at
    ``tile.origin``.  A tile holds ``vol``'s own element type, as a
    read-only view of ``vol.data`` with x-fastest strides (not contiguous
    unless the tile spans x and y): its voxels passed ``vol``'s checks when
    it was frozen, and are not checked again.  Only a stored-type (int16 or
    uint8) intensity volume's tile is a new x-fastest array, of float32
    (``_intensity_dtype``).
    """
    dims = vol.dims
    if any(o + s > d for o, s, d in zip(tile.origin, tile.size, dims)):
        raise TilingError(f"tile {tile.origin}+{tile.size} exceeds volume dims {dims}")
    sub = vol.data[tile.slices()]
    offset = AffineTransform.translation(tile.origin)
    geometry = VolumeGeometry(
        tile.size,
        vol.geometry.spacing,
        compose(vol.geometry.index_to_world, offset),
    )
    if isinstance(vol, IntensityVolume) and sub.dtype != _intensity_dtype(sub.dtype):
        return IntensityVolume._adopt(geometry, sub.astype(_intensity_dtype(sub.dtype), order="F"))
    view = object.__new__(type(vol))
    view.__dict__.update(vars(vol), geometry=geometry, data=sub)
    return view


def save_grid(grid: TileGrid, path) -> None:
    write_atomic(path, (json.dumps(grid.to_dict(), indent=1).encode(),))


def load_grid(path) -> TileGrid:
    try:
        doc = json.loads(Path(path).read_text())
        rebuilt = build_grid(doc["atlas_dims"], doc["grid"], doc["tile_size"])
        stored = [tuple(o) for o in doc["origins"]]
    except TilingError:
        raise
    except (ValueError, LookupError, TypeError, OverflowError) as exc:
        raise TilingError(f"grid file {path} is malformed: {exc!r}") from exc
    actual = [t.origin for t in rebuilt.tiles]
    if stored != actual:
        raise TilingError("stored tile origins do not match the layout rule")
    return rebuilt
