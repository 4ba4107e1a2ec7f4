import sys
import threading

import numpy as np
import numpy.testing as npt
import pytest

from conftest import CorruptingWrapper, random_intensity, random_labels, segment_answers
from test_acceptance import _dense_vote_oracle
from tileseg.fusion import (
    FusionError,
    StreamingVote,
    _sorting_network,
    fuse_concatenate,
    fuse_majority,
)
from tileseg.geometry import (
    AffineTransform,
    LabelVolume,
    VolumeGeometry,
    compose,
    make_centered_geometry,
)
from tileseg.segmenter import AtlasPriorOracle
from tileseg.tiling import (
    TileGrid,
    TileSpec,
    build_grid,
    coverage_map,
    extract_tile,
)


def _stacked_tiles(values_per_tile, num_labels):
    """k full-volume tiles over an (n,1,1) atlas, each voting its own n labels."""
    dims = (len(values_per_tile[0]), 1, 1)
    g = make_centered_geometry(dims)
    tiles = tuple(
        TileSpec((0, 0, 0), dims, n) for n in range(len(values_per_tile))
    )
    grid = TileGrid(dims, (len(values_per_tile), 1, 1), dims, tiles)
    segs = [
        LabelVolume(g, np.array(v, dtype=np.uint16).reshape(dims), num_labels)
        for v in values_per_tile
    ]
    return segs, grid


def test_majority_hand_case():
    segs, grid = _stacked_tiles([[5, 5], [5, 7], [7, 5]], num_labels=8)
    result = fuse_majority(segs, grid)
    npt.assert_array_equal(result.fused.data.reshape(-1), [5, 5])
    assert result.tie_count == 0
    npt.assert_array_equal(result.coverage_used.reshape(-1), [3, 3])


def test_majority_tie_breaks_toward_smaller_label():
    segs, grid = _stacked_tiles([[5, 5], [7, 5]], num_labels=8)
    result = fuse_majority(segs, grid)
    # voxel 0 splits 1-1 between 5 and 7: tie, resolved to 5
    npt.assert_array_equal(result.fused.data.reshape(-1), [5, 5])
    assert result.tie_count == 1


def test_majority_counts_each_tied_voxel():
    segs, grid = _stacked_tiles([[1, 2], [3, 4]], num_labels=8)
    result = fuse_majority(segs, grid)
    npt.assert_array_equal(result.fused.data.reshape(-1), [1, 2])
    assert result.tie_count == 2


def _brute_force(tile_segs, grid, num_labels):
    """Reference fusion in plain python loops; no shared code with the library."""
    dims = grid.atlas_dims
    fused = np.zeros(dims, dtype=np.uint16)
    coverage = np.zeros(dims, dtype=np.int32)
    ties = 0
    for x in range(dims[0]):
        for y in range(dims[1]):
            for z in range(dims[2]):
                counts = [0] * num_labels
                for seg, tile in zip(tile_segs, grid.tiles):
                    ox, oy, oz = tile.origin
                    sx, sy, sz = tile.size
                    if ox <= x < ox + sx and oy <= y < oy + sy and oz <= z < oz + sz:
                        counts[int(seg.data[x - ox, y - oy, z - oz])] += 1
                top = max(counts)
                fused[x, y, z] = counts.index(top)
                coverage[x, y, z] = sum(counts)
                if top > 0 and counts.count(top) >= 2:
                    ties += 1
    return fused, ties, coverage


@pytest.mark.parametrize("seed", range(8))
def test_majority_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    dims = tuple(int(v) for v in rng.integers(3, 7, size=3))
    ks = tuple(int(v) for v in rng.integers(1, 4, size=3))
    size = tuple(
        int(rng.integers(-(-d // k), d + 1)) for d, k in zip(dims, ks)
    )
    grid = build_grid(dims, ks, size)
    L = int(rng.integers(2, 7))
    segs = [
        LabelVolume(
            extract_tile(random_labels(dims, L, seed=seed), t).geometry,
            rng.integers(0, L, size=t.size).astype(np.uint16),
            L,
        )
        for t in grid.tiles
    ]
    result = fuse_majority(segs, grid, num_labels=L)
    fused, ties, coverage = _brute_force(segs, grid, L)
    npt.assert_array_equal(result.fused.data, fused)
    assert result.tie_count == ties
    npt.assert_array_equal(result.coverage_used, coverage)


def test_agreeing_tiles_reproduce_the_prior():
    dims = (16, 16, 16)
    prior = random_labels(dims, 5, seed=3)
    grid = build_grid(dims, (2, 2, 2), (10, 10, 10))
    vol = random_intensity(dims, seed=3)
    segs = segment_answers(AtlasPriorOracle(prior), vol, grid)
    result = fuse_majority(segs, grid)
    npt.assert_array_equal(result.fused.data, prior.data)
    assert result.tie_count == 0
    npt.assert_array_equal(result.coverage_used, coverage_map(grid))
    assert result.fused.geometry.matches(prior.geometry, tol=1e-9)


def test_one_corrupted_tile_is_outvoted_where_coverage_is_deep():
    dims = (18, 18, 18)
    prior = random_labels(dims, 5, seed=4)
    grid = build_grid(dims, (3, 3, 3), (8, 8, 8))
    vol = random_intensity(dims, seed=4)
    backend = CorruptingWrapper(AtlasPriorOracle(prior), target_index=13, corruption_label=1)
    segs = segment_answers(backend, vol, grid)
    result = fuse_majority(segs, grid)
    cov = coverage_map(grid)
    deep = cov >= 3
    npt.assert_array_equal(result.fused.data[deep], prior.data[deep])
    # any damage that remains is confined to thin coverage
    diff = result.fused.data != prior.data
    assert np.all(cov[diff] <= 2)


def test_fusion_invariant_to_tile_order():
    dims = (12, 12, 12)
    prior = random_labels(dims, 6, seed=5)
    grid = build_grid(dims, (2, 2, 2), (7, 7, 7))
    vol = random_intensity(dims, seed=5)
    segs = segment_answers(AtlasPriorOracle(prior), vol, grid)
    base = fuse_majority(segs, grid)

    rng = np.random.default_rng(6)
    perm = rng.permutation(grid.k)
    permuted_grid = TileGrid(
        grid.atlas_dims,
        grid.grid,
        grid.tile_size,
        tuple(grid.tiles[i] for i in perm),
    )
    permuted = fuse_majority([segs[i] for i in perm], permuted_grid)
    npt.assert_array_equal(permuted.fused.data, base.fused.data)
    assert permuted.tie_count == base.tie_count


def test_majority_equals_concatenate_on_partition():
    dims = (12, 10, 8)
    prior = random_labels(dims, 6, seed=7)
    grid = build_grid(dims, (2, 2, 2), (6, 5, 4))
    segs = [extract_tile(prior, t) for t in grid.tiles]
    voted = fuse_majority(segs, grid)
    copied = fuse_concatenate(segs, grid)
    npt.assert_array_equal(voted.fused.data, copied.data)
    assert voted.tie_count == 0
    npt.assert_array_equal(voted.coverage_used, np.ones(dims, dtype=np.int32))


def test_concatenate_round_trip_is_bitwise():
    dims = (12, 10, 8)
    prior = random_labels(dims, 6, seed=8)
    grid = build_grid(dims, (2, 2, 2), (6, 5, 4))
    segs = [extract_tile(prior, t) for t in grid.tiles]
    out = fuse_concatenate(segs, grid)
    npt.assert_array_equal(out.data, prior.data)
    assert out.geometry.matches(prior.geometry, tol=1e-9)


def test_concatenate_rejects_overlapped_grid():
    dims = (10, 10, 10)
    prior = random_labels(dims, 4, seed=9)
    grid = build_grid(dims, (2, 2, 2), (6, 6, 6))
    segs = [extract_tile(prior, t) for t in grid.tiles]
    with pytest.raises(FusionError, match="partition"):
        fuse_concatenate(segs, grid)


def test_single_tile_grid_degenerates_to_identity():
    dims = (6, 6, 6)
    prior = random_labels(dims, 4, seed=10)
    grid = build_grid(dims, (1, 1, 1), dims)
    segs = [extract_tile(prior, grid.tiles[0])]
    result = fuse_majority(segs, grid)
    npt.assert_array_equal(result.fused.data, prior.data)
    assert result.tie_count == 0


def test_rejects_wrong_tile_count():
    segs, grid = _stacked_tiles([[1, 1], [2, 2]], num_labels=3)
    with pytest.raises(FusionError, match="tiles for a grid"):
        fuse_majority(segs[:1], grid)


@pytest.mark.parametrize("num_labels", [None, 8])
def test_the_tile_count_is_checked_on_any_iterable(num_labels):
    segs, grid = _stacked_tiles([[5, 5], [5, 7], [7, 5]], num_labels=8)
    for given in (segs[:2], segs + segs[:2], []):
        for form in (list, iter):
            with pytest.raises(FusionError, match=f"^got {len(given)} tiles for a grid of 3$"):
                fuse_majority(form(given), grid, num_labels)


@pytest.mark.parametrize("num_labels", [None, 8])
def test_answers_from_a_generator_fuse_as_from_a_list(num_labels):
    segs, grid = _stacked_tiles([[5, 5, 1], [5, 7, 2], [7, 5, 2]], num_labels=8)
    want = fuse_majority(segs, grid, num_labels)
    _same_result(fuse_majority(iter(segs), grid, num_labels), want)


def test_rejects_wrong_tile_dims():
    segs, grid = _stacked_tiles([[1, 1], [2, 2]], num_labels=3)
    g3 = make_centered_geometry((3, 1, 1))
    bad = LabelVolume(g3, np.zeros((3, 1, 1), dtype=np.uint16), 3)
    with pytest.raises(FusionError, match="dims"):
        fuse_majority([segs[0], bad], grid)


def test_rejects_labels_at_or_above_num_labels():
    segs, grid = _stacked_tiles([[1, 1], [2, 2]], num_labels=3)
    with pytest.raises(FusionError, match=">="):
        fuse_majority(segs, grid, num_labels=2)


def test_rejects_inconsistent_tile_geometry():
    segs, grid = _stacked_tiles([[1, 1], [2, 2]], num_labels=3)
    moved = LabelVolume(
        make_centered_geometry((2, 1, 1), (2.0, 2.0, 2.0)), segs[1].data, 3
    )
    with pytest.raises(FusionError, match="inconsistent"):
        fuse_majority([segs[0], moved], grid)


def test_region_boundaries_match_dense_oracle():
    # uneven cuts on x and z; on y, size == extent puts all three tiles at 0
    dims = (7, 9, 5)
    grid = build_grid(dims, (2, 3, 2), (4, 9, 3))
    assert sorted({t.origin[1] for t in grid.tiles}) == [0]
    L = 4
    rng = np.random.default_rng(11)
    geometry = make_centered_geometry(dims)
    segs = [
        extract_tile(LabelVolume(geometry, np.zeros(dims, dtype=np.uint16), L), t)
        .with_data(rng.integers(0, L, size=t.size).astype(np.uint16))
        for t in grid.tiles
    ]
    result = fuse_majority(segs, grid, num_labels=L)
    winners, ties, coverage = _dense_vote_oracle(segs, grid, L)
    npt.assert_array_equal(result.fused.data, winners)
    assert result.tie_count == ties > 0
    npt.assert_array_equal(result.coverage_used, coverage)
    assert int(coverage.max()) == 12


def test_run_lengths_hold_more_than_255_coincident_tiles():
    # 257 even-numbered tiles outvote 256 odd-numbered ones; an 8-bit run
    # counter would wrap both runs at 255 and report a tie for label 0
    segs, grid = _stacked_tiles(
        [[1, 2] if n % 2 == 0 else [0, 0] for n in range(513)], num_labels=3
    )
    result = fuse_majority(segs, grid)
    npt.assert_array_equal(result.fused.data.reshape(-1), [1, 2])
    assert result.tie_count == 0
    npt.assert_array_equal(result.coverage_used.reshape(-1), [513, 513])


@pytest.mark.parametrize("n", range(1, 65))
def test_sorting_network_sorts_every_length(n):
    rows = np.random.default_rng(n).integers(0, 3, size=(n, 500))
    expected = np.sort(rows, axis=0)
    for i, j in _sorting_network(n):
        rows[[i, j]] = np.sort(rows[[i, j]], axis=0)
    npt.assert_array_equal(rows, expected)


def test_num_labels_inferred_from_tiles():
    segs, grid = _stacked_tiles([[1, 1], [2, 2]], num_labels=9)
    result = fuse_majority(segs, grid)
    assert result.fused.num_labels == 9


@pytest.mark.parametrize(
    "num_labels, tile_labels, dtype",
    [(6, 6, np.uint8), (256, 256, np.uint8), (300, 300, np.uint16), (6, 300, np.uint8)],
)
def test_fused_map_takes_the_label_type(num_labels, tile_labels, dtype):
    # the last case: uint16 tiles voting below a one-byte label count
    dims = (7, 9, 5)
    grid = build_grid(dims, (2, 3, 2), (4, 9, 3))
    rng = np.random.default_rng(12)
    geometry = make_centered_geometry(dims)
    segs = [
        extract_tile(LabelVolume(geometry, np.zeros(dims, dtype=np.uint16), tile_labels), t)
        .with_data(rng.integers(0, num_labels, size=t.size))
        for t in grid.tiles
    ]
    assert segs[0].data.dtype == (np.uint8 if tile_labels <= 256 else np.uint16)
    result = fuse_majority(segs, grid, num_labels=num_labels)
    winners, ties, _ = _dense_vote_oracle(segs, grid, num_labels)
    assert result.fused.data.dtype == dtype
    assert result.fused.data.tobytes() == winners.astype(dtype).tobytes()
    assert result.tie_count == ties > 0


def test_the_top_one_byte_label_wins_its_votes():
    # 255 is also the fill of the one-byte winner search
    segs, grid = _stacked_tiles([[255, 255], [255, 0], [254, 255]], num_labels=256)
    result = fuse_majority(segs, grid)
    assert result.fused.data.dtype == np.uint8
    npt.assert_array_equal(result.fused.data.reshape(-1), [255, 255])
    assert result.tie_count == 0


def _stacked_votes(k, n, labels, p, num_labels, seed):
    """``k`` tiles over an ``(n, 1, 1)`` atlas, each voting ``labels`` with weights ``p``."""
    rng = np.random.default_rng(seed)
    return _stacked_tiles(rng.choice(labels, size=(k, n), p=p).tolist(), num_labels)


def _votes_for(segs, label):
    return sum((seg.data.reshape(-1) == label).astype(int) for seg in segs)


@pytest.mark.parametrize("k", range(2, 28))
def test_the_top_one_byte_label_wins_and_ties_for_every_tile_count(k):
    # 255 is all ones in one byte, the fill off the longest runs
    segs, grid = _stacked_votes(k, 600, [0, 1, 254, 255], [0.1, 0.1, 0.3, 0.5], 256, seed=k)
    result = fuse_majority(segs, grid)
    winners, ties, _ = _dense_vote_oracle(segs, grid, 256)
    assert result.fused.data.dtype == np.uint8
    assert result.fused.data.tobytes() == winners.astype(np.uint8).tobytes()
    assert result.tie_count == ties > 0
    top = np.max([_votes_for(segs, label) for label in (0, 1, 254, 255)], axis=0)
    at_top = _votes_for(segs, 255) == top
    fused = result.fused.data.reshape(-1)
    assert (at_top & (fused == 255)).any() and (at_top & (fused < 255)).any()


@pytest.mark.parametrize("k", [2, 5, 27])
def test_a_two_byte_stack_matches_the_dense_oracle(k):
    segs, grid = _stacked_votes(k, 600, [0, 7, 298, 299], [0.2, 0.2, 0.2, 0.4], 300, seed=k)
    result = fuse_majority(segs, grid)
    winners, ties, _ = _dense_vote_oracle(segs, grid, 300)
    assert result.fused.data.dtype == np.uint16
    assert result.fused.data.tobytes() == winners.astype(np.uint16).tobytes()
    assert result.tie_count == ties > 0
    assert (result.fused.data == 299).any()


def test_a_tie_among_256_labels_counts_past_one_byte():
    # 512 tiles: on voxel 0 each of 256 labels gets two votes, so 256 labels
    # share the top; a one-byte count of them would wrap to 0 and miss the tie
    votes = [[n // 2, n % 2, 3] for n in range(512)]
    segs, grid = _stacked_tiles(votes, 256)
    assert grid.k == 512
    result = fuse_majority(segs, grid)
    winners, ties, _ = _dense_vote_oracle(segs, grid, 256)
    assert result.fused.data.tobytes() == winners.astype(np.uint8).tobytes()
    npt.assert_array_equal(result.fused.data.reshape(-1), [0, 0, 3])
    assert result.tie_count == ties == 2


def test_the_coverage_map_is_built_only_when_read(monkeypatch):
    segs, grid = _stacked_tiles([[5, 5], [5, 7], [7, 5]], num_labels=8)
    built = []
    monkeypatch.setattr(
        "tileseg.fusion.coverage_map", lambda g: built.append(g) or coverage_map(g)
    )
    result = fuse_majority(segs, grid)
    assert built == []
    npt.assert_array_equal(result.coverage_used.reshape(-1), [3, 3])
    assert built == [grid]


# --- the vote taken as the answers arrive ---


def _noisy_answers(dims, grid, num_labels, seed):
    """Each tile's box of a prior, with a fifth of its voxels relabelled at random."""
    prior = random_labels(dims, num_labels, seed=seed)
    rng = np.random.default_rng(seed)
    segs = []
    for tile in grid.tiles:
        answer = extract_tile(prior, tile)
        data = answer.data.copy()
        flip = rng.random(data.shape) < 0.2
        data[flip] = rng.integers(0, num_labels, size=int(flip.sum()))
        segs.append(answer.with_data(data))
    return segs


def _same_result(got, want):
    assert got.fused.data.tobytes("F") == want.fused.data.tobytes("F")
    assert got.fused.num_labels == want.fused.num_labels
    assert got.tie_count == want.tie_count
    assert got.fused.geometry.index_to_world.matrix.tobytes() == (
        want.fused.geometry.index_to_world.matrix.tobytes()
    )
    assert got.fused.geometry.spacing == want.fused.geometry.spacing


# the paper's 3x3x3 overlap, uneven cuts, and an abutting partition
STREAM_LAYOUTS = [
    ((18, 20, 16), (3, 3, 3), (10, 11, 9)),
    ((7, 9, 5), (2, 3, 2), (4, 9, 3)),
    ((12, 10, 8), (2, 2, 2), (6, 5, 4)),
]


@pytest.mark.parametrize("dims, counts, size", STREAM_LAYOUTS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_streaming_vote_in_any_order_is_the_list_vote(dims, counts, size, seed):
    grid = build_grid(dims, counts, size)
    segs = _noisy_answers(dims, grid, 5, seed)
    want = fuse_majority(segs, grid)
    order = np.random.default_rng(seed).permutation(grid.k)
    vote = StreamingVote(grid, 5)
    for i in order:
        vote.add(grid.tiles[i], segs[i])
    _same_result(fuse_majority(vote, grid), want)
    if not grid.is_partition():
        assert want.tie_count > 0


@pytest.mark.parametrize("dims, counts, size", STREAM_LAYOUTS)
def test_streaming_vote_fed_from_many_threads_is_the_list_vote(dims, counts, size):
    # more threads than cores, switching as often as the interpreter allows: a
    # region voted twice or never, or a lost tie update, changes the result
    grid = build_grid(dims, counts, size)
    segs = _noisy_answers(dims, grid, 5, seed=3)
    want = fuse_majority(segs, grid)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(5):
            order = np.random.default_rng(seed).permutation(grid.k)
            vote = StreamingVote(grid, 5)
            start = threading.Barrier(4)

            def feed(share):
                start.wait()
                for i in share:
                    vote.add(grid.tiles[i], segs[i])

            threads = [threading.Thread(target=feed, args=(order[t::4],)) for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            _same_result(vote.finish(), want)
    finally:
        sys.setswitchinterval(interval)


def test_a_region_waits_for_its_home_part_to_land(monkeypatch):
    # the first part to claim a region is copied into the fused map outside the
    # lock: while that copy is held back, the region's other parts all arrive
    # from another thread, and the vote must still wait for it to land
    dims, counts, size = STREAM_LAYOUTS[0]
    grid = build_grid(dims, counts, size)
    segs = _noisy_answers(dims, grid, 5, seed=5)
    want = fuse_majority(segs, grid)
    vote = StreamingVote(grid, 5)
    held, release = threading.Event(), threading.Event()
    copyto = np.copyto

    def held_back(dst, src, **kwargs):
        if dst.base is vote._fused and not held.is_set():
            held.set()
            assert release.wait(timeout=30)
        copyto(dst, src, **kwargs)

    monkeypatch.setattr(np, "copyto", held_back)
    first = threading.Thread(target=vote.add, args=(grid.tiles[0], segs[0]))
    first.start()
    assert held.wait(timeout=30)
    for i in range(1, grid.k):
        vote.add(grid.tiles[i], segs[i])
    release.set()
    first.join(timeout=30)
    assert not first.is_alive()
    _same_result(vote.finish(), want)


def test_streaming_vote_takes_the_geometry_from_tile_0_not_the_first_to_arrive():
    # answers may disagree in their last bits within the check's tolerance; the
    # atlas geometry is tile 0's, whichever tile lands first
    dims = (18, 20, 16)
    grid = build_grid(dims, (3, 3, 3), (10, 11, 9))
    segs = _noisy_answers(dims, grid, 5, seed=4)
    last = segs[-1].geometry
    nudged = compose(AffineTransform.translation((3e-6, 0.0, 0.0)), last.index_to_world)
    segs[-1] = LabelVolume(VolumeGeometry(last.dims, last.spacing, nudged), segs[-1].data, 5)
    want = fuse_majority(segs, grid)
    vote = StreamingVote(grid, 5)
    for i in reversed(range(grid.k)):
        vote.add(grid.tiles[i], segs[i])
    _same_result(vote.finish(), want)
    from_last = compose(nudged, AffineTransform.translation([-o for o in grid.tiles[-1].origin]))
    assert from_last.matrix.tobytes() != want.fused.geometry.index_to_world.matrix.tobytes()


def test_streaming_vote_refuses_a_missing_or_repeated_tile():
    segs, grid = _stacked_tiles([[5, 5], [5, 7], [7, 5]], num_labels=8)
    vote = StreamingVote(grid, 8)
    vote.add(grid.tiles[0], segs[0])
    with pytest.raises(FusionError, match="added twice"):
        vote.add(grid.tiles[0], segs[0])
    vote.add(grid.tiles[2], segs[2])
    with pytest.raises(FusionError, match="got 2 tiles for a grid of 3"):
        vote.finish()
    other = build_grid((2, 1, 1), (1, 1, 1), (2, 1, 1))
    with pytest.raises(FusionError, match="another grid"):
        fuse_majority(vote, other)

