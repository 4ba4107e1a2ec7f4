"""Pluggable per-tile segmentation backends.

The per-tile model is a black box behind a small contract: given an
intensity tile it must return a label tile of identical dims and world
geometry with values below ``num_labels``.  An in-process backend gets the
tile in the atlas volume's element type: float32 for a scan read from a
file (float32, int16 or uint8 voxels), float64 for a float64 scan built in
memory (see ``geometry._intensity_dtype``).  Of a float32 or float64
atlas volume the tile is a read-only view (``tiling.extract_tile``), with
x-fastest strides that may not be contiguous: a backend that needs one
block copies it, and one that keeps the tile past its call keeps the whole
atlas alive.  Production models run as external processes through a
file-based protocol; deterministic built-in oracles cover testing and
phantom studies.  The wrapper that fakes one bad tile
(``CorruptingWrapper``) is a test double, kept in ``tests/conftest.py``.

External-process protocol, per tile:

1. the intensity tile is written as a float32 NIfTI-1 file,
2. the tile placement is written as a JSON document
   (``origin``, ``size``, ``index``, ``num_labels``),
3. the command template is split into arguments, each argument's
   ``{input}``, ``{output}`` and ``{spec}`` become paths, and the command
   is invoked (no shell), so a path with a space stays one argument,
4. the process must write a NIfTI-1 label file of identical dims to
   ``{output}`` and exit 0; anything else fails the tile.

Steps 1 and 2 prepare the tile in its own temporary workspace, step 3
launches the process in its own session, and the tile finishes when the
answer has been read and the workspace removed.  ``segment_all`` writes
the next tile's files while the previous tile's process runs.

A backend that internally resizes tiles to a fixed network input must
restore the original tile dims before writing its output.
"""

from __future__ import annotations

import codecs
import contextlib
import hashlib
import json
import os
import shlex
import shutil
import signal
import string
import subprocess
import tempfile
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path

from . import io as tio
from .geometry import IntensityVolume, LabelVolume, _each, _labels
from .tiling import TileGrid, TileSpec, extract_tile

__all__ = [
    "SegmentationError",
    "SegmenterBackend",
    "ConstantOracle",
    "AtlasPriorOracle",
    "ExternalProcessBackend",
    "segment_tile",
    "segment_all",
    "parse_backend_spec",
    "FAILURE_POLICIES",
]

DEFAULT_NUM_LABELS = 133
# what segment_all does when a tile's backend call fails
FAILURE_POLICIES = ("abort", "background")


class SegmentationError(RuntimeError):
    """A backend failed or returned an invalid tile segmentation."""


class SegmenterBackend:
    """Base class: per-tile label inference with a fixed label count."""

    num_labels: int

    def segment(self, tile_input: IntensityVolume, tile: TileSpec) -> LabelVolume:
        raise NotImplementedError

    def prepare(self, tile_input: IntensityVolume, tile: TileSpec):
        """A tile's first step: the job to ``launch``, then ``finish`` or ``discard``.

        ``None`` in process, where ``segment`` is the whole tile.
        """
        return None

    def descriptor(self) -> str:
        """Stable string identifying the backend configuration (cache key)."""
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantOracle(SegmenterBackend):
    """Labels every voxel with one constant value."""

    label: int = 0
    num_labels: int = DEFAULT_NUM_LABELS

    def __post_init__(self):
        if not 0 <= self.label < self.num_labels:
            raise SegmentationError(
                f"constant label {self.label} out of range [0, {self.num_labels})"
            )

    def segment(self, tile_input, tile):
        data = _labels(tile_input.dims, self.label, self.num_labels)
        return LabelVolume._adopt(tile_input.geometry, data, self.num_labels)

    def descriptor(self):
        return f"constant:{self.label}:{self.num_labels}"


class AtlasPriorOracle(SegmenterBackend):
    """Answers each tile with the corresponding box of a fixed prior map.

    The prior lives on the atlas grid; segmenting tile n returns exactly
    ``extract_tile(prior, tile)``, so fusing all tiles reproduces the prior.
    """

    def __init__(self, prior: LabelVolume):
        self.prior = prior
        self.num_labels = prior.num_labels

    def segment(self, tile_input, tile):
        return extract_tile(self.prior, tile)

    def descriptor(self):
        # the prior's x-fastest voxels as <u2, whatever its label type, 64 Ki at a time
        digest, flat, band = hashlib.sha256(), self.prior.data.ravel("F"), 1 << 16
        for start in range(0, flat.size, band):
            digest.update(flat[start : start + band].astype("<u2"))
        return f"prior:{digest.hexdigest()}:{self.num_labels}"


def _quote(stream, limit: int = 500) -> str:
    """``text.strip()[:limit]`` of a binary stream's text, whatever bytes it holds.

    The stream is decoded as UTF-8 (bad bytes replaced) a chunk at a time:
    past the quoted head, only whether anything but whitespace follows is kept.
    """
    decoder = codecs.getincrementaldecoder("utf-8")(errors="replace")
    head = ""
    while True:
        chunk = stream.read(1 << 16)
        text = decoder.decode(chunk, final=not chunk)
        if len(head) < limit:
            head = (head + text).lstrip()
            head, text = head[:limit], head[limit:]
        if text and not text.isspace():  # the quote runs on past its limit
            return head
        if not chunk:
            return head.rstrip()


class _Workspace:
    """One tile's run of an external backend, in three steps.

    Made, it holds the input and the spec in a fresh temporary directory;
    ``launch`` starts the process in its own session; ``finish`` waits for
    it and reads the answer.  A fault of the tile in any step is raised by
    ``finish``; ``finish`` and ``discard`` remove the directory.
    """

    def __init__(self, backend, tile_input, tile):
        self.backend, self.tile_input = backend, tile_input
        self.dir = self.proc = self.error = None
        try:
            self.dir = Path(tempfile.mkdtemp(prefix=f"tile{tile.index:03d}_"))
            tio.write_nifti(tile_input, self.dir / "input.nii")
            place = {"origin": list(tile.origin), "size": list(tile.size), "index": tile.index}
            (self.dir / "tile.json").write_text(json.dumps({**place, "num_labels": backend.num_labels}))
        except Exception as exc:
            self.error = exc
        except BaseException:
            self.discard()
            raise

    def launch(self) -> None:
        if self.error is not None:
            return
        paths = {"input": "input.nii", "output": "output.nii", "spec": "tile.json"}
        paths = {name: self.dir / file for name, file in paths.items()}
        # stdout is never read; stderr waits in a file, of which only the quoted head is read
        try:
            with open(self.dir / "stderr", "wb") as stderr:
                self.proc = subprocess.Popen(
                    [arg.format(**paths) for arg in self.backend._args],
                    stdout=subprocess.DEVNULL, stderr=stderr, start_new_session=True,
                )
        except Exception as exc:
            self.error = exc

    def finish(self) -> LabelVolume:
        num_labels = self.backend.num_labels
        try:
            if self.error is not None:
                raise self.error
            if self.proc.wait() != 0:
                with open(self.dir / "stderr", "rb") as stderr:
                    raise SegmentationError(f"backend exited {self.proc.returncode}: {_quote(stderr)}")
            if not (self.dir / "output.nii").exists():
                raise SegmentationError("backend wrote no output file")
            try:
                out, _ = tio.read_nifti(self.dir / "output.nii", as_labels=True, num_labels=num_labels)
            except (tio.NiftiFormatError, ValueError) as exc:
                raise SegmentationError(f"malformed backend output: {exc}") from exc
        finally:
            self.discard()
        # the float32 srow in the output file cannot carry the exact affine;
        # dims are checked here, the exact input geometry is restored below
        if out.dims != self.tile_input.dims:
            raise SegmentationError(
                f"backend output dims {out.dims} != tile dims {self.tile_input.dims}"
            )
        return LabelVolume._adopt(self.tile_input.geometry, out.data, num_labels)

    def kill(self) -> None:
        """SIGKILL the process group of a process still running; any thread may call it."""
        if self.proc is not None and self.proc.returncode is None:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(self.proc.pid, signal.SIGKILL)

    def discard(self) -> None:
        """Kill and reap the process if it still runs, and remove the directory."""
        self.kill()
        if self.proc is not None:
            self.proc.wait()
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)


class ExternalProcessBackend(SegmenterBackend):
    """Runs one subprocess per tile through the file protocol above.

    ``command_template`` must contain the ``{input}`` and ``{output}``
    placeholders, may contain ``{spec}`` and no other; a template that
    breaks this fails here, before any tile runs.  ``prepare`` makes a
    tile's ``_Workspace``, its own temporary directory, so tiles may run
    concurrently; ``segment`` runs its three steps in a row.
    """

    def __init__(self, command_template: str, num_labels: int = DEFAULT_NUM_LABELS):
        try:
            self._args = shlex.split(command_template)
            fields = {
                name for arg in self._args
                for _, name, _, _ in string.Formatter().parse(arg) if name is not None
            }
        except ValueError as exc:
            raise SegmentationError(f"malformed command template: {exc}") from exc
        if not {"input", "output"} <= fields <= {"input", "output", "spec"}:
            raise SegmentationError(
                "command template must contain {input} and {output} placeholders,"
                f" may contain {{spec}} and no other; got {sorted(fields)}"
            )
        self.command_template = command_template
        self.num_labels = int(num_labels)

    def prepare(self, tile_input, tile):
        return _Workspace(self, tile_input, tile)

    def segment(self, tile_input, tile):
        job = self.prepare(tile_input, tile)
        job.launch()
        return job.finish()

    def descriptor(self):
        return f"external:{self.command_template}:{self.num_labels}"


def segment_tile(
    backend: SegmenterBackend, tile_input: IntensityVolume, tile: TileSpec, job=None
) -> LabelVolume:
    """Run one tile through a backend; its answer must be labels below ``num_labels`` on its grid.

    ``job`` is the tile's launched ``backend.prepare(tile_input, tile)``,
    which this finishes; without one, ``backend.segment`` runs the tile.
    """
    if tile_input.dims != tile.size:
        raise SegmentationError(
            f"tile input dims {tile_input.dims} do not match tile size {tile.size}"
        )
    out = backend.segment(tile_input, tile) if job is None else job.finish()
    if not isinstance(out, LabelVolume):
        raise SegmentationError("backend returned a non-label volume")
    if out.dims != tile_input.dims:
        raise SegmentationError(
            f"backend output dims {out.dims} != tile dims {tile_input.dims}"
        )
    if not out.geometry.matches(tile_input.geometry, tol=1e-6):
        raise SegmentationError("backend changed the tile's world geometry")
    if int(out.data.max(initial=0)) >= backend.num_labels:
        raise SegmentationError("backend produced labels out of range")
    return out


def _atlas_digest(vol: IntensityVolume) -> bytes:
    """sha256 of an atlas volume: its dims, its element type and its voxels x-fastest.

    The dims and the type tell apart atlases whose voxels hold the same
    bytes; the voxels are hashed in place.
    """
    digest = hashlib.sha256(json.dumps([vol.dims, vol.dtype.str]).encode())
    digest.update(vol.data.ravel("F"))
    return digest.digest()


def _cache_key(atlas: bytes, tile_input: IntensityVolume, tile: TileSpec, descriptor: bytes) -> str:
    """sha256 of the atlas digest (``_atlas_digest``), the backend descriptor, the placement and the grid.

    The atlas and the placement fix the tile's voxels, so they are not read.
    The grid (spacing, index-to-world affine) is the one an entry is read on.
    """
    g = tile_input.geometry
    key = hashlib.sha256(atlas)
    key.update(descriptor)
    place = [tile.origin, tile.size, tile.index, g.spacing, g.index_to_world.matrix.tolist()]
    key.update(json.dumps(place).encode())
    return key.hexdigest()


def segment_all(
    backend: SegmenterBackend,
    atlas_vol: IntensityVolume,
    grid: TileGrid,
    on_tile,
    jobs: int = 1,
    on_tile_failure: str = "abort",
    cache_dir=None,
) -> set[str]:
    """Segment every tile of ``atlas_vol``, handing each answer to ``on_tile``.

    ``min(jobs, k)`` workers, at least one, the calling thread among them
    (``geometry._each``), take tiles in grid order, and each answer is
    identical to the sequential run's.  A tile runs in the backend's three
    steps (``SegmenterBackend.prepare``, then the job's ``launch`` and
    ``finish``), all on the worker that took it.  A worker takes and
    prepares tile k+1, finishes its tile k and stores its answer in the
    cache, launches k+1, then hands on k.  So at most ``jobs`` external
    processes run at once, and the vote and the next input write run
    alongside one.  A tile with no job (in process) or read from the cache
    has nothing to run alongside: it is finished and handed on as soon as
    it is taken.  Handing on calls ``on_tile(tile, answer)``
    (``fusion.StreamingVote.add`` votes it) and drops the answer.

    A failing tile aborts the run unless ``on_tile_failure="background"``,
    which warns and substitutes ``ConstantOracle(0, backend.num_labels)``'s
    answer, an all-background tile.  Once a tile has failed, no later tile
    (in grid order) is launched or handed on, and the process of each is
    killed; a later tile handed on by another worker before then stays
    handed on, and the run raises, naming the first failed tile in grid
    order.  On any exit by
    an exception, a ``KeyboardInterrupt`` too, every backend process still
    running is killed by its process group and reaped, and every workspace
    is removed.

    With ``cache_dir``, the atlas volume is hashed once (``_atlas_digest``),
    and each answer is stored there as one file of labels (``io.write_raw``)
    named by the sha256 of that digest, the backend descriptor, the
    placement and the tile's grid (``_cache_key``), and read back on that
    grid; an entry unreadable, of another size or off-range is recomputed.
    So an atlas changed in any voxel misses every entry.  An entry is
    written in the cache directory's parent, then renamed into it, so the
    directory holds whole entries alone whenever the run is killed.  A
    substituted background tile is never stored, so a later call retries
    it.  Returns the names of the entries read or written; none is removed
    here (``pipeline.run`` removes the rest, and what a killed write left).
    """
    if atlas_vol.dims != grid.atlas_dims:
        raise SegmentationError(
            f"volume dims {atlas_vol.dims} do not match grid dims {grid.atlas_dims}"
        )
    if on_tile_failure not in FAILURE_POLICIES:
        raise SegmentationError(f"unknown failure policy {on_tile_failure!r}")
    if cache_dir is not None:
        cache_dir = Path(cache_dir)
        cache_dir.mkdir(parents=True, exist_ok=True)
        descriptor = backend.descriptor().encode()
        atlas = _atlas_digest(atlas_vol)

    todo, lock = iter(grid.tiles), threading.Lock()  # next() on the iterator is atomic
    running, kept = {}, set()  # running: tile index -> launched job
    stop, failure = len(grid.tiles), None  # no tile from stop on is launched or handed on

    def halt(index: int, exc: BaseException) -> None:
        """Record a failure at ``index``; kill the process of every later tile."""
        nonlocal stop, failure
        with lock:
            if index < stop:  # the first failure in grid order is kept
                stop, failure = index, exc
                for i, job in running.items():
                    if i > index:
                        job.kill()

    def take():
        """The next tile, prepared: (tile, input, key, job, cached answer); ``None`` once the run stops."""
        tile = next(todo, None)
        if tile is None or tile.index >= stop:
            return None
        tile_input, key, out = extract_tile(atlas_vol, tile), None, None
        if cache_dir is not None:
            key = _cache_key(atlas, tile_input, tile, descriptor)
            try:
                out = tio.read_raw(cache_dir / key, tile_input.geometry, backend.num_labels)
                kept.add(key)
            except (OSError, ValueError):
                pass  # absent, of another size or off-range: recompute
        job = backend.prepare(tile_input, tile) if out is None else None
        return tile, tile_input, key, job, out

    def finish(tile, tile_input, key, job, out):
        """The tile and its answer, stored in the cache; ``None`` once the run stops at or before it."""
        if out is not None:
            return tile, out
        try:
            out = segment_tile(backend, tile_input, tile, job)
        except Exception as exc:
            if tile.index > stop:
                return None  # killed when an earlier tile failed
            if on_tile_failure == "abort":
                error = SegmentationError(f"tile {tile.index}: {exc}")
                error.__cause__ = exc
                halt(tile.index, error)
                return None
            warnings.warn(f"tile {tile.index} failed ({exc}); substituting background", stacklevel=2)
            return tile, ConstantOracle(0, backend.num_labels).segment(tile_input, tile)
        finally:  # the job removed its workspace when it finished
            with lock:
                running.pop(tile.index, None)
        if key is not None:  # before this worker launches again; written beside the cache and
            # renamed into it whole, so a killed run leaves whole entries alone in it
            tio.write_raw(out, cache_dir.parent / key)
            os.replace(cache_dir.parent / key, cache_dir / key)
            kept.add(key)
        return tile, out

    def hand_on(done) -> None:
        """``on_tile`` a tile and its answer, unless the run stops at or before the tile."""
        if done is not None and done[0].index < stop:
            on_tile(*done)

    def work(_):
        """Take and prepare tile k+1, finish tile k, launch k+1, then hand on k."""
        taken = launched = None  # each as ``take`` returns it
        try:
            while True:
                taken = take()
                done = None if launched is None else finish(*launched)
                launched = None
                # so that a halt sees every process launched; taken every cycle, in process too,
                # as taking it only to launch raised the jobs=2 peak RSS (ROADMAP, "Tried")
                with lock:
                    if taken is not None and taken[3] is not None and taken[0].index < stop:
                        taken[3].launch()
                        running[taken[0].index] = taken[3]
                        launched, taken = taken, None
                hand_on(done)
                done = None  # dropped before the next tile is taken
                if launched is None:
                    if taken is None or taken[3] is not None:
                        break  # no tile left, or the run stopped
                    # in process or cached: nothing runs alongside, so hand on at once
                    hand_on(finish(*taken))
                    taken = None
        except BaseException as exc:  # segment_all raises it
            halt(-1, exc)
        finally:
            for slot in (taken, launched):
                if slot is not None and slot[3] is not None:
                    slot[3].discard()

    workers = max(1, min(jobs, len(grid.tiles)))
    _each(work, range(workers), workers)
    if failure is not None:
        raise failure
    return kept


def parse_backend_spec(spec: str, num_labels: int = DEFAULT_NUM_LABELS) -> SegmenterBackend:
    """Build a backend from a CLI spec string.

    Forms: ``constant:<label>``, ``prior:<labels.nii>``,
    ``external:<command template>``.
    """
    kind, sep, rest = spec.partition(":")
    if kind == "constant":
        try:
            label = int(rest or 0)
        except ValueError:
            raise SegmentationError(f"constant label must be an integer, got {rest!r}") from None
        return ConstantOracle(label, num_labels)
    if kind == "prior":
        if not rest:
            raise SegmentationError("prior backend needs a label volume path")
        prior, _ = tio.read_nifti(rest, as_labels=True, num_labels=num_labels)
        return AtlasPriorOracle(prior)
    if kind == "external":
        if not rest:
            raise SegmentationError("external backend needs a command template")
        return ExternalProcessBackend(rest, num_labels)
    raise SegmentationError(f"unknown backend spec {spec!r}")
