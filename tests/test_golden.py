"""Golden digests of two benchmark workloads, run in process at tier 1.

The benchmark's ``SMALL`` fixtures for ``overlap-noisy`` and ``partition``
are built with ``bench/fixture.py`` and configured as ``bench/scan.py``
configures a scan; both files are imported read-only.  Each run pins the
sha256 of ``atlas_labels.nii``, ``native_labels.nii``, ``grid.json``,
``report.json`` without its ``stages``, ``input`` and ``outputs`` (timings
and paths), and of the tile inputs the backend receives: the registered
and harmonized atlas volume, tile by tile.  The digests are the same at
``jobs`` 1 and 2.

The digests hold for numpy 2.4.6.  A digest changes only with a stated
contract change: the change that moves it updates it here and says which
output changed, and why.
"""

import hashlib
import json

import pytest

from tileseg import pipeline
from tileseg.segmenter import SegmenterBackend
from conftest import bench_module

SEED = 2601

GOLDEN = {
    "overlap-noisy": {
        "atlas_labels.nii": "1f523e638d7eba817104819984d8e36cdcec463247a71ef6411aed6943eeec07",
        "native_labels.nii": "48d4f9239f3b06917eab31707463de3601c51c60b9fe24ee31eee9896bd66d5e",
        "grid.json": "3df523efa7c4c0c15dae6551cebfe12621878998504f037015c83364d7d8c1da",
        "report.json": "d5a196e054c10ce3bb7b83cddbb7e1c7911ba7f9e54c9da70086a8374818c1c6",
        "tile_inputs": "ab1e6fd84745b03f9d41bdcec5fc2b20af9e8de189d32cc6f636cbae0ec34f00",
    },
    "partition": {
        "atlas_labels.nii": "8a67731638dc8871bd615685b3549729c16a184be1eeced5eeb88fcae167e8cb",
        "native_labels.nii": "94114532d1e09ec6991a2fe2a9cbed858796f48d8c9dfa110fb83ea7d9ecee39",
        "grid.json": "d6eb90c48b4c6390d8ae8dfe12ab24eef577774ad7ceada464a977ed5fb2e0d5",
        "report.json": "209967a9c66b017f56f7db165dfd8ad7758315254aaaf6bb23fefbc162fef44f",
        "tile_inputs": "c299de6a028073e36db62788ccf0be470845ca47c9519c90cc33798185bf09f0",
    },
}


class _Recording(SegmenterBackend):
    """Answers with ``inner`` and keeps the sha256 of each tile input's voxels."""

    def __init__(self, inner):
        self.inner = inner
        self.num_labels = inner.num_labels
        self.inputs = {}

    def segment(self, tile_input, tile):
        self.inputs[tile.index] = hashlib.sha256(tile_input.data.tobytes("F")).digest()
        return self.inner.segment(tile_input, tile)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def manifests(tmp_path_factory):
    fixture = bench_module("fixture")
    root = tmp_path_factory.mktemp("golden")
    return {
        name: json.loads(fixture.build(name, fixture.SMALL, SEED, root / name).manifest_path.read_text())
        for name in GOLDEN
    }


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("workload", sorted(GOLDEN))
def test_outputs_match_their_golden_digests(tmp_path, manifests, workload, jobs):
    manifest = manifests[workload]
    backend = _Recording(bench_module("scan").make_backend(manifest))
    out = tmp_path / "out"
    config = pipeline.PipelineConfig(
        **manifest["config"], backend=backend, jobs=jobs, output_dir=str(out)
    )
    pipeline.run(config, manifest["scan"])
    report = json.loads((out / "report.json").read_text())
    for key in ("stages", "input", "outputs"):
        del report[key]
    got = {
        name: _sha((out / name).read_bytes())
        for name in ("atlas_labels.nii", "native_labels.nii", "grid.json")
    }
    got["report.json"] = _sha(json.dumps(report, indent=1, sort_keys=True).encode())
    got["tile_inputs"] = _sha(b"".join(backend.inputs[i] for i in sorted(backend.inputs)))
    assert len(backend.inputs) == len(config.build_grid().tiles)
    assert got == GOLDEN[workload]
