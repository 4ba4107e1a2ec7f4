"""The package API that the benchmark's tracer reads, pinned at tier 1.

``bench/tracing.py`` wraps package functions by name and reads fields of
their results (``FusionResult.coverage_used``, ``VolumeGeometry.voxel_count``).
A rename that breaks ``bench/scan.py --trace 1`` fails here first.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from conftest import make_blob_phantom
from tileseg import io as tio
from tileseg import pipeline
from tileseg.fusion import fuse_majority
from tileseg.geometry import make_centered_geometry
from tileseg.phantom import intensity_from_labels
from tileseg.segmenter import AtlasPriorOracle
from tileseg.tiling import coverage_map

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
DIMS = (16, 16, 16)


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    for module, attr, _ in _tracing().TARGETS:
        assert callable(getattr(module, attr)), f"{module.__name__}.{attr}"


@pytest.mark.parametrize(
    "mode, grid, tile_size, fuse_span",
    [("majority", (2, 2, 2), (10, 10, 10), "fusion.fuse_majority"),
     ("concat", (2, 2, 1), (8, 8, 16), "fusion.fuse_concatenate")],
)
def test_tracer_counts_a_traced_run(tmp_path, mode, grid, tile_size, fuse_span):
    truth = make_blob_phantom(make_centered_geometry(DIMS), num_labels=4, seed=1)
    scan_path = tmp_path / "scan.nii"
    tio.write_nifti(intensity_from_labels(truth, seed=1), scan_path)
    config = pipeline.PipelineConfig(
        atlas_dims=DIMS, grid=grid, tile_size=tile_size, fusion_mode=mode,
        backend=AtlasPriorOracle(truth), num_labels=4, output_dir=str(tmp_path / "out"),
    )
    tracing = _tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.root(0, pipeline.run, config, str(scan_path))
    finally:
        tracer.uninstall()
    assert pipeline.fuse_majority is fuse_majority  # uninstalled

    spans = {}
    for span in tracer.spans:
        spans.setdefault(span["name"], []).append(span)
    assert not any(span.get("error") for span in tracer.spans)
    assert [s["voxels"] for s in spans["geometry.resample_intensity"]] == [np.prod(DIMS)]
    assert [s["voxels"] for s in spans["geometry.resample_labels"]] == [np.prod(DIMS)]
    assert len(spans["segmenter.segment_tile"]) == config.build_grid().k
    assert all(s["bytes"] > 0 for s in spans["tiling.extract_tile"])
    assert len(spans[fuse_span]) == 1
    if mode == "majority":
        votes = int(coverage_map(config.build_grid()).sum())
        assert spans[fuse_span][0]["votes"] == votes
        assert spans[fuse_span][0]["ties"] >= 0
        assert spans[fuse_span][0]["peak_alloc_bytes"] > 0
