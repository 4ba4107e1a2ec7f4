"""What each stage of ``pipeline.run`` holds, pinned for a whole run.

The budget test runs the benchmark's paper-layout ``overlap-noisy`` and
``external-resume`` fixtures (``bench/fixture.py`` and ``bench/scan.py``,
imported read-only) at ``jobs=1``, and ``overlap-noisy`` at ``jobs=2``,
under tracemalloc, with ``_StageClock.time``
wrapped to read each stage's live set at its start and end and its peak in
between.  Budgets have the form ``a * atlas + SLACK``: one atlas is the
float32 atlas volume, and the slack covers what does not scale with the
volumes (Python objects, lazy imports).  tracemalloc sees numpy's
allocations, not the allocator's arenas, so these pins are on what the
program holds, not on its resident set.
"""

import contextlib
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import tileseg
from tileseg import pipeline
from tileseg.segmenter import SegmenterBackend
from conftest import bench_module

MiB = 2**20
SLACK = 2 * MiB

# per stage, in atlases: (peak above the stage's start, live set at its end)
BUDGETS = {
    "read": (0.05, 0.0),  # one 1 MB band of scan planes, then nothing
    "register": (1.3, 1.0),  # the registered volume and a few planes per thread
    # the profile and the output, written over the registered volume, rise
    # 0.14; the model's mask is packed to bits a band of its file at a time
    "harmonize": (0.2, 1.0),
    # the fused map, in whose box each pending region's first part waits
    # (only the others are held as copies), and a tile's answer; the tile
    # input is a view of the atlas
    "segment": (0.7, 1.25),
    "fuse": (0.0, 0.25),  # the fused map (uint8, a quarter atlas)
    "unregister": (0.7, 0.75),  # a few planes per thread; the native map (0.47 atlas) joins the fused
    "write": (0.05, 0.75),  # one z plane cast at a time
}
# at jobs=2 register, segment and unregister work in two threads at once;
# register and segment move with thread timing, so with the slack each
# budget here sits 0.15-0.2 atlas above the highest of 5 runs
BUDGETS_PAR = {
    **BUDGETS,
    "register": (1.6, 1.0),
    "segment": (0.95, 1.25),
    "unregister": (0.85, 0.75),
}


def _manifest(layout, seed, directory, workload="overlap-noisy"):
    """Build ``workload``'s fixture at ``layout``; its manifest."""
    fixture = bench_module("fixture")
    built = fixture.build(workload, getattr(fixture, layout), seed, directory)
    return json.loads(built.manifest_path.read_text())


def _stage_memory(monkeypatch, config, scan):
    """``{stage: (rise, end)}`` in bytes for one traced ``run``."""
    stages = {}
    time = pipeline._StageClock.time

    @contextlib.contextmanager
    def measured(clock, name):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        with time(clock, name):
            yield
        end, peak = tracemalloc.get_traced_memory()
        stages[name] = (peak - start, end)

    monkeypatch.setattr(pipeline._StageClock, "time", measured)
    tracemalloc.start()
    try:
        pipeline.run(config, scan)
    finally:
        tracemalloc.stop()
    return stages


def _over_budget(tmp_path, monkeypatch, jobs, budgets, workload="overlap-noisy"):
    """The stages of a paper-layout ``workload`` run at ``jobs`` that exceed ``budgets``."""
    manifest = _manifest("PAPER", 32001, tmp_path / "fx", workload)
    config = pipeline.PipelineConfig(
        **manifest["config"],
        backend=bench_module("scan").make_backend(manifest),
        output_dir=str(tmp_path / "out"),
        jobs=jobs,
    )
    atlas = np.prod(config.atlas_dims) * np.dtype(np.float32).itemsize
    stages = _stage_memory(monkeypatch, config, manifest["scan"])
    assert list(stages) == list(budgets)
    return [
        f"{name} {what} {got / atlas:.2f} atlas > {a} + {SLACK // MiB} MiB"
        for name, measured in stages.items()
        for what, got, a in zip(("rise", "end"), measured, budgets[name])
        if got > a * atlas + SLACK
    ]


@pytest.mark.parametrize("workload", ["overlap-noisy", "external-resume"])
def test_each_stage_keeps_to_its_memory_budget(tmp_path, monkeypatch, workload):
    assert not _over_budget(tmp_path, monkeypatch, 1, BUDGETS, workload)


def test_each_stage_keeps_to_its_memory_budget_at_two_jobs(tmp_path, monkeypatch):
    assert not _over_budget(tmp_path, monkeypatch, 2, BUDGETS_PAR)


def test_the_model_is_freed_when_harmonize_returns(tmp_path, monkeypatch):
    manifest = _manifest("SMALL", 5, tmp_path / "fx")
    models = []
    load_model = pipeline.load_model

    def watched(directory):
        model = load_model(directory)
        models.append(weakref.ref(model))
        return model

    class Probe(SegmenterBackend):
        """Asserts, in its first call, that no model is alive."""

        def __init__(self, inner):
            self.inner = inner
            self.num_labels = inner.num_labels
            self.calls = 0

        def segment(self, tile_input, tile):
            if self.calls == 0:
                alive = [ref() is not None for ref in models]
                assert alive == [False], "the model outlived harmonize"
            self.calls += 1
            return self.inner.segment(tile_input, tile)

    monkeypatch.setattr(pipeline, "load_model", watched)
    probe = Probe(bench_module("scan").make_backend(manifest))
    config = pipeline.PipelineConfig(
        **manifest["config"], backend=probe, output_dir=str(tmp_path / "out")
    )
    assert config.harmonization_model is not None
    pipeline.run(config, manifest["scan"])
    assert probe.calls == len(config.build_grid().tiles)


def test_the_backend_is_freed_when_segment_returns(tmp_path, monkeypatch):
    # the report and the vote take the label count from the config, so a
    # prior backend's prior does not live through unregister and write
    manifest = _manifest("SMALL", 5, tmp_path / "fx", workload="partition")
    backends = []
    parse_backend_spec = pipeline.parse_backend_spec
    resample_labels = pipeline.resample_labels

    def watched(spec, num_labels):
        backend = parse_backend_spec(spec, num_labels)
        backends.append(weakref.ref(backend))
        return backend

    def unregister(*args, **kwargs):
        alive = [ref() is not None for ref in backends]
        assert alive == [False], "the backend outlived segment"
        return resample_labels(*args, **kwargs)

    monkeypatch.setattr(pipeline, "parse_backend_spec", watched)
    monkeypatch.setattr(pipeline, "resample_labels", unregister)
    config = pipeline.PipelineConfig(
        **manifest["config"],
        backend=f"prior:{manifest['backend']['path']}",
        output_dir=str(tmp_path / "out"),
    )
    result = pipeline.run(config, manifest["scan"])
    assert result.report["num_labels"] == config.num_labels


def test_a_harmonized_run_does_not_import_numpy_ma(tmp_path):
    # numpy.ma is ~1 MB resident once imported; a run needs none of it
    manifest = _manifest("SMALL", 5, tmp_path / "fx", workload="partition")
    assert manifest["config"]["harmonization_model"] is not None
    script = (
        "import json, sys\n"
        "from tileseg import pipeline\n"
        "manifest, backend, out = json.loads(sys.argv[1])\n"
        "config = pipeline.PipelineConfig(**manifest['config'], backend=backend, output_dir=out)\n"
        "pipeline.run(config, manifest['scan'])\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    argument = json.dumps([manifest, f"prior:{manifest['backend']['path']}", str(tmp_path / "out")])
    env = dict(os.environ, PYTHONPATH=str(Path(tileseg.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script, argument], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
    assert (tmp_path / "out" / "native_labels.nii").exists()
