"""Pluggable per-tile segmentation backends.

The per-tile model is a black box behind a small contract: given an
intensity tile it must return a label tile of identical dims and world
geometry with values below ``num_labels``.  An in-process backend gets the
tile x-fastest, like every volume, in the atlas volume's element type:
float32 for a scan read from a file (float32, int16 or uint8 voxels),
float64 for a float64 scan built in memory (see
``geometry._intensity_dtype``).  Production models run as
external processes through a file-based protocol; deterministic built-in
oracles cover testing and phantom studies.  The wrapper that fakes one bad
tile (``CorruptingWrapper``) is a test double, kept in ``tests/conftest.py``.

External-process protocol, per tile:

1. the intensity tile is written as a float32 NIfTI-1 file,
2. the tile placement is written as a JSON document
   (``origin``, ``size``, ``index``, ``num_labels``),
3. the command template is split into arguments, each argument's
   ``{input}``, ``{output}`` and ``{spec}`` become paths, and the command
   is invoked (no shell), so a path with a space stays one argument,
4. the process must write a NIfTI-1 label file of identical dims to
   ``{output}`` and exit 0; anything else fails the tile.

A backend that internally resizes tiles to a fixed network input must
restore the original tile dims before writing its output.
"""

from __future__ import annotations

import hashlib
import json
import shlex
import string
import subprocess
import tempfile
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


class ExternalProcessBackend(SegmenterBackend):
    """Runs one subprocess per tile through the file protocol above.

    ``command_template`` must contain the ``{input}`` and ``{output}``
    placeholders, may contain ``{spec}`` and no other; a template that
    breaks this fails here, before any tile runs.  Each invocation gets its
    own temporary workspace, so tiles may run concurrently.
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

    def segment(self, tile_input, tile):
        with tempfile.TemporaryDirectory(prefix=f"tile{tile.index:03d}_") as tmp:
            tmp = Path(tmp)
            input_path = tmp / "input.nii"
            output_path = tmp / "output.nii"
            spec_path = tmp / "tile.json"
            tio.write_nifti(tile_input, input_path)
            spec_path.write_text(
                json.dumps(
                    {
                        "origin": list(tile.origin),
                        "size": list(tile.size),
                        "index": tile.index,
                        "num_labels": self.num_labels,
                    }
                )
            )
            paths = {"input": str(input_path), "output": str(output_path), "spec": str(spec_path)}
            # stdout is never read; stderr is quoted, whatever bytes it holds
            proc = subprocess.run(
                [arg.format(**paths) for arg in self._args],
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            )
            if proc.returncode != 0:
                stderr = proc.stderr.decode(errors="replace").strip()
                raise SegmentationError(f"backend exited {proc.returncode}: {stderr[:500]}")
            if not output_path.exists():
                raise SegmentationError("backend wrote no output file")
            try:
                out, _ = tio.read_nifti(
                    output_path, as_labels=True, num_labels=self.num_labels
                )
            except (tio.NiftiFormatError, ValueError) as exc:
                raise SegmentationError(f"malformed backend output: {exc}") from exc
        # the float32 srow in the output file cannot carry the exact affine;
        # dims are checked here, the exact input geometry is restored below
        if out.dims != tile_input.dims:
            raise SegmentationError(
                f"backend output dims {out.dims} != tile dims {tile_input.dims}"
            )
        return LabelVolume._adopt(tile_input.geometry, out.data, self.num_labels)

    def descriptor(self):
        return f"external:{self.command_template}:{self.num_labels}"


def segment_tile(
    backend: SegmenterBackend, tile_input: IntensityVolume, tile: TileSpec
) -> LabelVolume:
    """Run one tile through a backend; its answer must be labels below ``num_labels`` on its grid."""
    if tile_input.dims != tile.size:
        raise SegmentationError(
            f"tile input dims {tile_input.dims} do not match tile size {tile.size}"
        )
    out = backend.segment(tile_input, tile)
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


def _cache_key(tile_input: IntensityVolume, tile: TileSpec, descriptor: bytes) -> str:
    """sha256 of the tile's input voxels, the backend descriptor, the placement and the grid.

    The voxels are hashed in place, in their x-fastest order: no copy.  The
    grid (spacing, index-to-world affine) is the one an entry is read on.
    """
    g = tile_input.geometry
    key = hashlib.sha256(tile_input.data.ravel("F"))
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
) -> None:
    """Segment every tile of ``atlas_vol``, handing each answer to ``on_tile``.

    Tiles are independent: ``geometry._each`` runs ``run_one`` on each, in
    grid order on ``min(jobs, k)`` threads, the calling thread among them,
    and each answer is identical to the sequential run's.  Each answer is
    handed to ``on_tile(tile, answer)`` on the thread that made it, as it
    lands (``fusion.StreamingVote.add`` votes it); none is held.
    A failing tile aborts the whole run (no thread takes another tile, and
    the first failed tile in grid order is named) unless
    ``on_tile_failure="background"``, which warns and substitutes
    ``ConstantOracle(0, backend.num_labels)``'s answer, an all-background tile.

    With ``cache_dir``, each answer is stored there as one file of labels
    (``io.write_raw``) named by the sha256 of the tile input bytes, the
    backend descriptor, the placement and the tile's grid, and read back on
    that grid; an entry unreadable, of another size or off-range is
    recomputed.  A substituted background tile is never stored, so a later
    call retries it.  Orphan ``*.tmp`` files of killed writes are deleted first.
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
        # temp files of writes killed before their rename (see io.write_atomic)
        for orphan in cache_dir.glob("*.tmp"):
            orphan.unlink(missing_ok=True)
        descriptor = backend.descriptor().encode()

    def answer(tile: TileSpec) -> LabelVolume:
        tile_input = extract_tile(atlas_vol, tile)
        entry = None
        if cache_dir is not None:
            entry = cache_dir / _cache_key(tile_input, tile, descriptor)
            try:
                return tio.read_raw(entry, tile_input.geometry, backend.num_labels)
            except (OSError, ValueError):
                pass  # absent, of another size or off-range: recompute
        try:
            out = segment_tile(backend, tile_input, tile)
        except Exception as exc:
            if on_tile_failure == "background":
                warnings.warn(
                    f"tile {tile.index} failed ({exc}); substituting background",
                    stacklevel=2,
                )
                return ConstantOracle(0, backend.num_labels).segment(tile_input, tile)
            raise SegmentationError(f"tile {tile.index}: {exc}") from exc
        if entry is not None:
            tio.write_raw(out, entry)
        return out

    def run_one(tile: TileSpec) -> None:
        on_tile(tile, answer(tile))

    _each(run_one, grid.tiles, jobs)


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
