import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import apply_affine, random_intensity, random_labels
from tileseg.geometry import ATLAS_DIMS
from tileseg.tiling import (
    TileGrid,
    TileSpec,
    TilingError,
    axis_origins,
    build_grid,
    coverage_map,
    extract_tile,
    load_grid,
    save_grid,
)

DEFAULT_GRID = (3, 3, 3)
DEFAULT_TILE = (96, 128, 88)


def test_default_layout_origins():
    grid = build_grid(ATLAS_DIMS, DEFAULT_GRID, DEFAULT_TILE)
    assert sorted({t.origin[0] for t in grid.tiles}) == [0, 38, 76]
    assert sorted({t.origin[1] for t in grid.tiles}) == [0, 46, 92]
    assert sorted({t.origin[2] for t in grid.tiles}) == [0, 34, 68]
    assert grid.k == 27
    assert not grid.is_partition()


def test_halving_partition_layout():
    grid = build_grid(ATLAS_DIMS, (2, 2, 2), (86, 110, 78))
    assert sorted({t.origin[0] for t in grid.tiles}) == [0, 86]
    assert sorted({t.origin[1] for t in grid.tiles}) == [0, 110]
    assert sorted({t.origin[2] for t in grid.tiles}) == [0, 78]
    assert grid.is_partition()
    npt.assert_array_equal(coverage_map(grid), np.ones(ATLAS_DIMS, dtype=np.int32))


def test_single_tile_covers_everything():
    grid = build_grid((10, 12, 14), (1, 1, 1), (10, 12, 14))
    assert grid.k == 1
    assert grid.tiles[0].origin == (0, 0, 0)
    assert grid.is_partition()


def test_tile_order_is_z_major_x_fastest():
    grid = build_grid((4, 4, 4), (2, 2, 2), (2, 2, 2))
    origins = [t.origin for t in grid.tiles]
    assert origins == [
        (0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0),
        (0, 0, 2), (2, 0, 2), (0, 2, 2), (2, 2, 2),
    ]
    assert [t.index for t in grid.tiles] == list(range(8))


def _axis_coverage_oracle(extent, origins, size):
    covered = [0] * extent
    for o in origins:
        for v in range(o, o + size):
            covered[v] += 1
    return covered


def test_coverage_matches_interval_membership_oracle():
    grid = build_grid((20, 15, 12), (3, 2, 2), (9, 8, 7))
    cov = coverage_map(grid)
    # per-axis 1D coverage, combined as an outer product of counts
    per_axis = []
    for axis, (extent, k) in enumerate(zip((20, 15, 12), (3, 2, 2))):
        origins = sorted({t.origin[axis] for t in grid.tiles})
        per_axis.append(_axis_coverage_oracle(extent, origins, grid.tile_size[axis]))
    expected = np.einsum(
        "i,j,k->ijk",
        np.array(per_axis[0]),
        np.array(per_axis[1]),
        np.array(per_axis[2]),
    )
    npt.assert_array_equal(cov, expected)
    assert cov.min() >= 1


def _coverage_oracle(grid):
    """Per-voxel tile count of a built grid: the outer product of the axes' oracles."""
    per_axis = [
        _axis_coverage_oracle(extent, axis_origins(extent, k, size), size)
        for extent, k, size in zip(grid.atlas_dims, grid.grid, grid.tile_size)
    ]
    return np.einsum("i,j,k->ijk", *(np.array(c) for c in per_axis))


@st.composite
def _axis_layout(draw):
    """``(extent, k, size)`` of one coverable axis; slack 0 abuts into a partition."""
    k = draw(st.integers(1, 4))
    size = draw(st.integers(1, 9))
    slack = draw(st.one_of(st.just(0), st.integers(0, (k - 1) * size)))
    return k * size - slack, k, size


@given(st.tuples(_axis_layout(), _axis_layout(), _axis_layout()))
def test_regions_and_coverage_match_the_axis_oracle(layout):
    extents, ks, sizes = zip(*layout)
    grid = build_grid(extents, ks, sizes)
    expected = _coverage_oracle(grid)
    values, counts = np.unique(expected, return_counts=True)
    assert grid.coverage() == dict(zip(values.tolist(), counts.tolist()))
    assert grid.is_partition() == bool((expected == 1).all())
    npt.assert_array_equal(coverage_map(grid), expected)
    # the regions tile the atlas, and each names exactly the tiles holding it
    painted = np.zeros(extents, dtype=np.int32)
    for box, covering in grid.regions():
        painted[box] += 1
        corner = [s.start for s in box]
        holding = [
            t.index for t in grid.tiles
            if all(o <= c < e for o, c, e in zip(t.origin, corner, t.stop))
        ]
        assert list(covering) == holding
    assert (painted == 1).all()


def test_stacked_tiles_are_not_a_partition():
    # two tiles on the same two voxels: each voxel is covered twice
    tiles = (TileSpec((0, 0, 0), (2, 1, 1), 0), TileSpec((0, 0, 0), (2, 1, 1), 1))
    grid = TileGrid((2, 1, 1), (1, 1, 1), (2, 1, 1), tiles)
    assert grid.is_partition() is False
    assert grid.coverage() == {2: 2}
    npt.assert_array_equal(coverage_map(grid).reshape(-1), [2, 2])


def test_coverage_counts_only_atlas_voxels():
    # a hand-built tile reaching past the atlas covers only the voxels inside it
    grid = TileGrid((4, 1, 1), (1, 1, 1), (3, 1, 1), (TileSpec((2, 0, 0), (3, 1, 1), 0),))
    assert grid.coverage() == {0: 2, 1: 2}
    npt.assert_array_equal(coverage_map(grid).reshape(-1), [0, 0, 1, 1])
    assert [box for box, _ in grid.regions()] == [(slice(2, 4), slice(0, 1), slice(0, 1))]


def test_uncovered_voxels_count_under_zero():
    tiles = (TileSpec((0, 0, 0), (2, 1, 1), 0), TileSpec((3, 0, 0), (1, 1, 1), 1))
    grid = TileGrid((4, 1, 1), (2, 1, 1), (1, 1, 1), tiles)
    assert grid.coverage() == {0: 1, 1: 3}
    assert grid.is_partition() is False
    npt.assert_array_equal(coverage_map(grid).reshape(-1), [1, 1, 0, 1])
    assert [covering.tolist() for _, covering in grid.regions()] == [[0], [1]]


@given(
    st.integers(4, 60),
    st.integers(1, 6),
    st.integers(0, 200),
)
def test_axis_origins_span_and_cover(extent, k, seed):
    rng = np.random.default_rng(seed)
    lo = -(-extent // k)  # ceil: smallest size that can cover
    size = int(rng.integers(lo, extent + 1))
    origins = axis_origins(extent, k, size)
    assert len(origins) == k
    assert origins[0] == 0
    assert origins[-1] == extent - size
    assert _axis_coverage_oracle(extent, origins, size).count(0) == 0


@given(st.integers(4, 60), st.integers(2, 6))
def test_axis_origins_strictly_increase_given_room(extent, k):
    # distinct origins need at least k-1 voxels of slack
    size = extent - (k - 1)
    assume(size >= 1 and k * size >= extent)
    origins = axis_origins(extent, k, size)
    assert all(b > a for a, b in zip(origins, origins[1:]))


def test_axis_origins_symmetric_when_slack_is_even():
    origins = axis_origins(20, 3, 10)  # slack 10, even
    assert origins == [0, 5, 10]
    mirrored = [20 - 10 - o for o in reversed(origins)]
    assert mirrored == origins


def test_axis_origins_duplicate_when_no_room():
    # slack 1 across 3 tiles: pigeonhole forces a repeat, still valid coverage
    assert axis_origins(10, 3, 9) == [0, 0, 1]


def test_axis_origins_errors():
    with pytest.raises(TilingError, match="exceeds"):
        axis_origins(10, 2, 11)
    with pytest.raises(TilingError, match="count"):
        axis_origins(10, 0, 5)
    with pytest.raises(TilingError, match="coverage impossible"):
        axis_origins(10, 2, 4)


def test_tilespec_validation():
    with pytest.raises(TilingError, match="negative"):
        TileSpec((-1, 0, 0), (2, 2, 2), 0)
    with pytest.raises(TilingError, match="non-positive"):
        TileSpec((0, 0, 0), (2, 0, 2), 0)
    t = TileSpec((1, 2, 3), (4, 5, 6), 0)
    assert t.stop == (5, 7, 9)


def test_extract_preserves_world_coordinates():
    vol = random_intensity((12, 10, 8), seed=3, spacing=(1.0, 1.5, 2.0))
    tile = TileSpec((4, 2, 1), (5, 6, 7), 0)
    sub = extract_tile(vol, tile)
    assert sub.dims == (5, 6, 7)
    npt.assert_array_equal(sub.data, vol.data[4:9, 2:8, 1:8])
    # tile voxel (i,j,k) sits at the same world point as parent voxel origin+(i,j,k)
    probe = np.array([[0.0, 0.0, 0.0], [2.0, 3.0, 4.0]])
    shifted = probe + np.array([4.0, 2.0, 1.0])
    npt.assert_allclose(
        apply_affine(sub.geometry.index_to_world, probe),
        apply_affine(vol.geometry.index_to_world, shifted),
        atol=1e-12,
    )


def test_extract_labels_keeps_num_labels():
    lab = random_labels((8, 8, 8), 7, seed=1)
    sub = extract_tile(lab, TileSpec((2, 2, 2), (4, 4, 4), 0))
    assert sub.num_labels == 7
    npt.assert_array_equal(sub.data, lab.data[2:6, 2:6, 2:6])


def test_extract_rejects_out_of_bounds():
    vol = random_intensity((8, 8, 8))
    with pytest.raises(TilingError, match="exceeds"):
        extract_tile(vol, TileSpec((5, 0, 0), (4, 4, 4), 0))


def test_partition_tiles_reassemble_exactly():
    vol = random_labels((12, 10, 8), 6, seed=5)
    grid = build_grid((12, 10, 8), (2, 2, 2), (6, 5, 4))
    assert grid.is_partition()
    rebuilt = np.zeros((12, 10, 8), dtype=np.uint16)
    for tile in grid.tiles:
        rebuilt[tile.slices()] = extract_tile(vol, tile).data
    npt.assert_array_equal(rebuilt, vol.data)


def test_overlapping_grid_is_not_partition():
    grid = build_grid((10, 10, 10), (2, 2, 2), (6, 6, 6))
    assert not grid.is_partition()
    assert coverage_map(grid).max() == 8  # corner where all octants meet


def test_grid_save_load_round_trip(tmp_path):
    grid = build_grid(ATLAS_DIMS, DEFAULT_GRID, DEFAULT_TILE)
    path = tmp_path / "grid.json"
    save_grid(grid, path)
    loaded = load_grid(path)
    assert loaded == grid


def test_load_grid_rejects_tampered_origins(tmp_path):
    import json

    grid = build_grid((10, 10, 10), (2, 2, 2), (6, 6, 6))
    path = tmp_path / "grid.json"
    save_grid(grid, path)
    doc = json.loads(path.read_text())
    doc["origins"][0] = [1, 0, 0]
    path.write_text(json.dumps(doc))
    with pytest.raises(TilingError, match="origins"):
        load_grid(path)


def test_manual_tilegrid_construction_is_allowed():
    # fusion tests rely on hand-built grids; the dataclass itself must not
    # re-derive or reorder the tiles it was given
    tiles = (
        TileSpec((0, 0, 0), (2, 1, 1), 0),
        TileSpec((0, 0, 0), (2, 1, 1), 1),
    )
    grid = TileGrid((2, 1, 1), (1, 1, 1), (2, 1, 1), tiles)
    assert grid.k == 2
    assert grid.tiles == tiles
