import hashlib
import json
import sys
import textwrap

import numpy as np
import numpy.testing as npt
import pytest

from conftest import NOT_LABELS, float32_nifti, peak_alloc, random_intensity, random_labels
from tileseg import io as tio
from tileseg.geometry import IntensityVolume, LabelVolume, make_centered_geometry
from tileseg.segmenter import (
    AtlasPriorOracle,
    ConstantOracle,
    CorruptingWrapper,
    ExternalProcessBackend,
    SegmentationError,
    _cache_key,
    parse_backend_spec,
    segment_all,
    segment_tile,
)
from tileseg.tiling import TileSpec, build_grid, extract_tile

DIMS = (8, 8, 8)
GRID = build_grid(DIMS, (2, 2, 2), (5, 5, 5))


def test_constant_oracle_fills_one_label():
    vol = random_intensity(DIMS, seed=1)
    backend = ConstantOracle(label=3, num_labels=5)
    outs = segment_all(backend, vol, GRID)
    assert len(outs) == GRID.k
    for out, tile in zip(outs, GRID.tiles):
        assert out.dims == tile.size
        assert out.num_labels == 5
        assert np.all(out.data == 3)


def test_constant_oracle_rejects_out_of_range_label():
    with pytest.raises(SegmentationError, match="out of range"):
        ConstantOracle(label=5, num_labels=5)


def test_prior_oracle_returns_prior_boxes():
    vol = random_intensity(DIMS, seed=2)
    prior = random_labels(DIMS, 6, seed=3)
    outs = segment_all(AtlasPriorOracle(prior), vol, GRID)
    for out, tile in zip(outs, GRID.tiles):
        npt.assert_array_equal(out.data, extract_tile(prior, tile).data)
        assert out.geometry.matches(extract_tile(vol, tile).geometry, tol=1e-9)


def test_corrupting_wrapper_hits_only_its_target():
    vol = random_intensity(DIMS, seed=2)
    prior = random_labels(DIMS, 6, seed=3)
    inner = AtlasPriorOracle(prior)
    wrapped = CorruptingWrapper(inner, target_index=3, corruption_label=2)
    outs = segment_all(wrapped, vol, GRID)
    clean = segment_all(inner, vol, GRID)
    for n, (got, want) in enumerate(zip(outs, clean)):
        if n == 3:
            assert np.all(got.data == 2)
        else:
            npt.assert_array_equal(got.data, want.data)


def test_corrupting_wrapper_rejects_bad_label():
    inner = ConstantOracle(0, num_labels=4)
    with pytest.raises(SegmentationError, match="out of range"):
        CorruptingWrapper(inner, 0, 4)


def test_parallel_matches_sequential():
    vol = random_intensity(DIMS, seed=4)
    prior = random_labels(DIMS, 6, seed=5)
    backend = AtlasPriorOracle(prior)
    seq = segment_all(backend, vol, GRID, jobs=1)
    par = segment_all(backend, vol, GRID, jobs=4)
    assert len(seq) == len(par)
    for a, b in zip(seq, par):
        npt.assert_array_equal(a.data, b.data)


def test_segment_all_rejects_dim_mismatch():
    vol = random_intensity((9, 8, 8))
    with pytest.raises(SegmentationError, match="do not match grid"):
        segment_all(ConstantOracle(0, 4), vol, GRID)


def test_segment_all_rejects_unknown_policy():
    vol = random_intensity(DIMS)
    with pytest.raises(SegmentationError, match="policy"):
        segment_all(ConstantOracle(0, 4), vol, GRID, on_tile_failure="retry")


def test_segment_tile_rejects_input_size_mismatch():
    vol = random_intensity((4, 4, 4))
    tile = TileSpec((0, 0, 0), (5, 5, 5), 0)
    with pytest.raises(SegmentationError, match="do not match tile size"):
        segment_tile(ConstantOracle(0, 4), vol, tile)


class _WrongDimsBackend(ConstantOracle):
    def segment(self, tile_input, tile):
        g = make_centered_geometry((2, 2, 2))
        return LabelVolume(g, np.zeros((2, 2, 2), dtype=np.uint16), self.num_labels)


class _MovedGeometryBackend(ConstantOracle):
    def segment(self, tile_input, tile):
        g = make_centered_geometry(tile_input.dims, (2.0, 2.0, 2.0))
        return LabelVolume(g, np.zeros(tile_input.dims, dtype=np.uint16), self.num_labels)


class _HotLabelBackend(ConstantOracle):
    def segment(self, tile_input, tile):
        data = np.full(tile_input.dims, self.num_labels, dtype=np.uint16)
        return LabelVolume(tile_input.geometry, data, self.num_labels + 1)


def _one_tile_case():
    vol = random_intensity((5, 5, 5), seed=6)
    return vol, TileSpec((0, 0, 0), (5, 5, 5), 0)


def test_segment_tile_rejects_wrong_output_dims():
    vol, tile = _one_tile_case()
    with pytest.raises(SegmentationError, match="dims"):
        segment_tile(_WrongDimsBackend(0, 4), vol, tile)


def test_segment_tile_rejects_changed_geometry():
    vol, tile = _one_tile_case()
    with pytest.raises(SegmentationError, match="geometry"):
        segment_tile(_MovedGeometryBackend(0, 4), vol, tile)


def test_segment_tile_rejects_out_of_range_output():
    vol, tile = _one_tile_case()
    with pytest.raises(SegmentationError, match="out of range"):
        segment_tile(_HotLabelBackend(0, 4), vol, tile)


# --- external process protocol ---


def _write_stub(tmp_path, prior_path):
    # copies the matching box of a fixed prior map, like a real model would
    # report its prediction; exercises input, output, and spec plumbing
    stub = tmp_path / "stub.py"
    stub.write_text(
        textwrap.dedent(
            f"""
            import json, sys
            from tileseg import io as tio
            from tileseg.geometry import LabelVolume

            inp, out, spec = sys.argv[1:4]
            doc = json.loads(open(spec).read())
            tile_in, _ = tio.read_nifti(inp)
            prior, _ = tio.read_nifti(
                {str(prior_path)!r}, as_labels=True, num_labels=doc["num_labels"]
            )
            o, s = doc["origin"], doc["size"]
            sub = prior.data[o[0]:o[0]+s[0], o[1]:o[1]+s[1], o[2]:o[2]+s[2]]
            tio.write_nifti(LabelVolume(tile_in.geometry, sub, doc["num_labels"]), out)
            """
        )
    )
    return stub


def test_external_backend_matches_prior_oracle(tmp_path):
    vol = random_intensity(DIMS, seed=7)
    prior = random_labels(DIMS, 6, seed=8)
    prior_path = tmp_path / "prior.nii"
    tio.write_nifti(prior, prior_path)
    stub = _write_stub(tmp_path, prior_path)

    backend = ExternalProcessBackend(
        f"{sys.executable} {stub} {{input}} {{output}} {{spec}}", num_labels=6
    )
    outs = segment_all(backend, vol, GRID, jobs=2)
    oracle = segment_all(AtlasPriorOracle(prior), vol, GRID)
    for got, want, tile in zip(outs, oracle, GRID.tiles):
        npt.assert_array_equal(got.data, want.data)
        # exact input geometry restored, not the float32 round trip
        assert got.geometry.matches(extract_tile(vol, tile).geometry, tol=0.0)


def test_external_backend_nonzero_exit_names_the_tile():
    vol = random_intensity(DIMS, seed=7)
    backend = ExternalProcessBackend("false {input} {output}", num_labels=4)
    with pytest.raises(SegmentationError, match=r"tile 0: .*exited 1"):
        segment_all(backend, vol, GRID)


def test_external_backend_missing_output_file():
    vol, tile = _one_tile_case()
    backend = ExternalProcessBackend("true {input} {output}", num_labels=4)
    with pytest.raises(SegmentationError, match="no output"):
        segment_tile(backend, vol, tile)


def test_external_backend_malformed_output():
    vol, tile = _one_tile_case()
    # write 4 junk bytes to {output}: not a parseable volume
    junk = (
        f"{sys.executable} -c "
        '"import sys; open(sys.argv[2], \'wb\').write(b\'junk\')" '
        "{input} {output}"
    )
    backend = ExternalProcessBackend(junk, num_labels=4)
    with pytest.raises(SegmentationError, match="malformed"):
        segment_tile(backend, vol, tile)


@pytest.mark.parametrize("value, reason", NOT_LABELS)
def test_external_backend_rejects_what_uint16_would_change(tmp_path, value, reason):
    vol, tile = _one_tile_case()
    answer = tmp_path / "answer.nii"
    float32_nifti(answer, tile.size, value)
    copy = (
        f"{sys.executable} -c "
        '"import shutil, sys; shutil.copy(sys.argv[1], sys.argv[3])" '
        f"{answer} {{input}} {{output}}"
    )
    backend = ExternalProcessBackend(copy, num_labels=4)
    with pytest.raises(SegmentationError, match=f"malformed backend output.*{reason}"):
        segment_tile(backend, vol, tile)


def test_external_backend_requires_placeholders():
    with pytest.raises(SegmentationError, match="placeholders"):
        ExternalProcessBackend("model {input}")
    with pytest.raises(SegmentationError, match="placeholders"):
        ExternalProcessBackend("model {output}")


def test_background_policy_substitutes_and_warns():
    vol = random_intensity(DIMS, seed=9)
    backend = ExternalProcessBackend("false {input} {output}", num_labels=4)
    with pytest.warns(UserWarning, match="substituting background"):
        outs = segment_all(backend, vol, GRID, on_tile_failure="background")
    assert len(outs) == GRID.k
    for out in outs:
        assert np.all(out.data == 0)
        assert out.num_labels == 4


# --- spec strings ---


def test_parse_constant_spec():
    b = parse_backend_spec("constant:7", num_labels=10)
    assert isinstance(b, ConstantOracle)
    assert b.label == 7 and b.num_labels == 10


def test_parse_constant_spec_defaults_to_background():
    assert parse_backend_spec("constant").label == 0


def test_parse_prior_spec(tmp_path):
    prior = random_labels(DIMS, 6, seed=10)
    path = tmp_path / "prior.nii"
    tio.write_nifti(prior, path)
    b = parse_backend_spec(f"prior:{path}", num_labels=6)
    assert isinstance(b, AtlasPriorOracle)
    npt.assert_array_equal(b.prior.data, prior.data)


def test_parse_prior_spec_requires_path():
    with pytest.raises(SegmentationError, match="path"):
        parse_backend_spec("prior:")


def test_parse_external_spec():
    b = parse_backend_spec("external:model --fast {input} {output}", num_labels=9)
    assert isinstance(b, ExternalProcessBackend)
    assert b.command_template == "model --fast {input} {output}"
    assert b.num_labels == 9


def test_parse_unknown_spec():
    with pytest.raises(SegmentationError, match="unknown backend"):
        parse_backend_spec("magic:wand")


@pytest.mark.parametrize("order", ["C", "F"])
def test_cache_key_hashes_the_c_order_bytes_without_a_copy(tmp_path, order):
    geometry = make_centered_geometry((40, 36, 32))
    data = np.random.default_rng(6).uniform(0.0, 1.0, geometry.dims)
    vol = IntensityVolume(geometry, np.asfortranarray(data) if order == "F" else data)
    grid = build_grid(geometry.dims, (2, 2, 2), (24, 20, 18))
    backend = ConstantOracle(label=1, num_labels=4)
    segment_all(backend, vol, grid, cache_dir=tmp_path)
    descriptor = backend.descriptor().encode()
    want = []
    for tile in grid.tiles:
        tile_input = extract_tile(vol, tile)
        assert tile_input.data.flags.c_contiguous == (order == "C")
        # the key as first defined: a hash of the C-order bytes copied out
        key = hashlib.sha256(tile_input.data.tobytes())
        key.update(descriptor)
        key.update(json.dumps([tile.origin, tile.size, tile.index]).encode())
        want.append(key.hexdigest())
        peak, got = peak_alloc(lambda: _cache_key(tile_input, tile, descriptor))
        assert got == key.hexdigest()
        if order == "C":
            assert peak < tile_input.data.nbytes / 20
    assert sorted(p.name for p in tmp_path.iterdir() if p.suffix != ".json") == sorted(want)
