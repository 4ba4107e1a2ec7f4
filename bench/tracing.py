"""Spans around tileseg's public functions, recorded from outside ``src/``.

``Tracer.install`` replaces module attributes such as
``tileseg.pipeline.fuse_majority`` or ``tileseg.io.write_nifti`` with
wrappers that record one span per call: name, start, end, parent span and
run id.  Callers look these names up at call time, so the pipeline goes
through the wrappers without any change to its code.  Spans stay in
memory; the caller writes them out when the benchmark ends.

A call made on a worker thread whose own stack is empty takes the
innermost open span of the main thread as its parent, because the
pipeline's thread pools are started from inside a stage's public call.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import threading
import time
import tracemalloc

import tileseg.io
import tileseg.pipeline
import tileseg.segmenter
import tileseg.tiling

# (module, attribute, span name); the span name is "<layer>.<function>"
TARGETS = (
    (tileseg.pipeline, "load_affine", "pipeline.load_affine"),
    (tileseg.pipeline, "resample_intensity", "geometry.resample_intensity"),
    (tileseg.pipeline, "resample_labels", "geometry.resample_labels"),
    (tileseg.pipeline, "load_model", "harmonize.load_model"),
    (tileseg.pipeline, "apply_harmonization", "harmonize.harmonize"),
    (tileseg.pipeline, "segment_all", "segmenter.segment_all"),
    (tileseg.pipeline, "fuse_majority", "fusion.fuse_majority"),
    (tileseg.pipeline, "fuse_concatenate", "fusion.fuse_concatenate"),
    (tileseg.pipeline, "save_grid", "tiling.save_grid"),
    (tileseg.segmenter, "segment_tile", "segmenter.segment_tile"),
    (tileseg.segmenter, "extract_tile", "tiling.extract_tile"),
    (tileseg.tiling, "extract_tile", "tiling.extract_tile"),
    (tileseg.io, "read_nifti", "io.read_nifti"),
    (tileseg.io, "write_nifti", "io.write_nifti"),
    (tileseg.io, "read_raw", "io.read_raw"),
    (tileseg.io, "write_raw", "io.write_raw"),
)

ROOT = "pipeline.run"


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _count(name, call, result) -> dict:
    """Work done by one call, measured at the call boundary.

    ``call`` maps the called function's parameter names to their values.
    """
    if name.startswith("geometry.resample_"):
        return {"voxels": call["target"].voxel_count}
    if name == "tiling.extract_tile":
        return {"bytes": result.data.nbytes}
    if name.startswith("io."):
        return {"bytes": _file_bytes(call["path"])}
    if name == "fusion.fuse_majority":
        return {
            "votes": int(result.coverage_used.sum(dtype="int64")),
            "ties": result.tie_count,
        }
    if name == "harmonize.harmonize":
        return {"masked_voxels": int((call["model"].mask.data > 0).sum())}
    return {}


class Tracer:
    def __init__(self):
        self.spans = []
        self.run_id = None
        self._local = threading.local()
        self._main_stack = []
        self._main = threading.main_thread()
        self._originals = []
        self._ids = itertools.count()

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        main = self._main_stack
        return main[-1] if main else None

    def call(self, name, fn, args, kwargs):
        stack = self._stack()
        span_id = next(self._ids)  # atomic under the interpreter lock
        span = {"id": span_id, "name": name, "parent": self._parent(stack), "run": self.run_id}
        stack.append(span_id)
        track_alloc = name == "fusion.fuse_majority"
        if track_alloc:
            tracemalloc.start()
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span["error"] = True
            raise
        finally:
            span["end"] = time.perf_counter()
            stack.pop()
            if track_alloc:
                span["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self.spans.append(span)
        call = inspect.signature(fn).bind(*args, **kwargs).arguments
        span.update(_count(name, call, result))
        return result

    def root(self, run_id, fn, *args, **kwargs):
        """Call ``fn`` as the root span ``pipeline.run`` of run ``run_id``."""
        self.run_id = run_id
        return self.call(ROOT, fn, args, kwargs)

    def install(self):
        for module, attr, name in TARGETS:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))

            def wrapper(*args, _fn=original, _name=name, **kwargs):
                return self.call(_name, _fn, args, kwargs)

            setattr(module, attr, functools.wraps(original)(wrapper))

    def uninstall(self):
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()
