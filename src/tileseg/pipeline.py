"""End-to-end orchestration: native scan in, native-space labels out.

Stage order is fixed: read, register (resample onto the atlas grid),
harmonize (optional), segment, fuse, map back to native space, write.
Every merge point is a deterministic reduction, so outputs are bitwise
identical for any parallelism degree.

Segment cuts the tiles and hands each answer, as it lands, to a
``fusion.StreamingVote``, which votes each region once its covering tiles
have answered, so no stage holds all the answers; fuse finishes that vote
(``fuse_majority``, or ``fuse_concatenate`` for a partition).

The read stage does not load the scan.  It opens it as an
``io.NiftiScan`` (header and file size) and checks its values, a band of
planes at a time, so a NaN or infinity fails in ``read`` before any
output.  Register then reads the scan planes each target plane reaches
from the open file into a ring per thread, each plane once at any tilt
(see ``resample_intensity``), and closes it; after that only the scan's
grid is needed.

The affine convention matches the resamplers: the "forward" transform is
the pull-back map used when resampling the native scan onto the atlas
grid, i.e. it takes atlas world coordinates into native world
coordinates.  Mapping the fused labels back uses its inverse.

Bias-field correction is an external preprocessing expectation, not a
stage; feed corrected scans in.
"""

from __future__ import annotations

import contextlib
import json
import math
import numbers
import os
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .harmonize import harmonize as apply_harmonization, load_model
from . import io as tio
from .fusion import StreamingVote, fuse_concatenate, fuse_majority
from .geometry import (
    ATLAS_DIMS,
    AffineTransform,
    LabelVolume,
    VolumeGeometry,
    estimate_affine_moments,
    make_centered_geometry,
    resample_intensity,
    resample_labels,
)
from .segmenter import AtlasPriorOracle, DEFAULT_NUM_LABELS, FAILURE_POLICIES, SegmenterBackend
from .segmenter import parse_backend_spec, segment_all
from .tiling import TileGrid, build_grid, save_grid

__all__ = [
    "ConfigError",
    "PipelineConfig",
    "RunResult",
    "load_config",
    "save_affine",
    "load_affine",
    "run",
]


class ConfigError(ValueError):
    """Invalid pipeline configuration."""


# what a field's annotation (a string, see the __future__ import) lets it hold
_KINDS = {
    "int": numbers.Integral, "float": numbers.Real, "bool": bool,
    "str": (str, os.PathLike), "str | None": (str, os.PathLike, type(None)),
    "str | SegmenterBackend": (str, SegmenterBackend),
}


def _float(value, name: str) -> float:
    """``float(value)``; a whole number beyond the float range is a ``ConfigError``."""
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{name} must be within the float range, got {value!r}") from None


def _is_a(value, kind) -> bool:
    """``isinstance``, except that a bool is no number (``True`` is an int)."""
    return isinstance(value, kind) and isinstance(value, bool) == (kind is bool)


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a full run needs besides the input scan.

    ``affine`` selects how the forward transform is obtained: the literal
    ``"identity"``, ``"estimate:<path>"`` (moments-based, against the
    atlas-space intensity volume at ``<path>``), or a path to a 4x4
    whitespace-separated matrix file.  ``atlas_spacing`` is finite and
    positive.  ``backend`` is a spec string (``constant:...``,
    ``prior:...``, ``external:...``) or a SegmenterBackend instance with
    ``num_labels`` labels.
    ``harmonization_model`` is a model directory; ``None`` or ``"skip"``
    (stored as ``None``) runs without harmonization.
    """

    grid: tuple = (3, 3, 3)
    tile_size: tuple = (96, 128, 88)
    atlas_dims: tuple = ATLAS_DIMS
    atlas_spacing: tuple = (1.0, 1.0, 1.0)
    harmonization_model: str | None = None
    backend: str | SegmenterBackend = "constant:0"
    affine: str = "identity"
    fusion_mode: str = "majority"
    num_labels: int = DEFAULT_NUM_LABELS
    jobs: int = 1
    on_tile_failure: str = "abort"
    resume: bool = False
    output_dir: str = "tileseg_out"

    def __post_init__(self):
        for name, kind in (
            ("grid", numbers.Integral), ("tile_size", numbers.Integral),
            ("atlas_dims", numbers.Integral), ("atlas_spacing", numbers.Real),
        ):
            value = getattr(self, name)
            try:
                triple = tuple(value)
            except TypeError:
                triple = ()
            if len(triple) != 3 or not all(_is_a(v, kind) for v in triple):
                raise ConfigError(f"{name} must be three numbers, got {value!r}")
            convert = int if kind is numbers.Integral else lambda v: _float(v, name)
            object.__setattr__(self, name, tuple(convert(v) for v in triple))
        if not all(math.isfinite(s) and s > 0 for s in self.atlas_spacing):
            raise ConfigError(f"atlas_spacing must be finite and positive, got {self.atlas_spacing}")
        if max(self.atlas_dims) > tio.MAX_DIM:  # the atlas labels are a NIfTI file
            raise ConfigError(f"atlas_dims {self.atlas_dims} exceed the NIfTI limit of {tio.MAX_DIM}")
        if self.harmonization_model == "skip":
            object.__setattr__(self, "harmonization_model", None)
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type in _KINDS and not _is_a(value, _KINDS[f.type]):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if self.fusion_mode not in ("majority", "concat"):
            raise ConfigError(f"unknown fusion mode {self.fusion_mode!r}")
        if self.on_tile_failure not in FAILURE_POLICIES:
            raise ConfigError(f"unknown tile failure policy {self.on_tile_failure!r}")
        if not 2 <= self.num_labels <= tio.MAX_LABELS:  # the label outputs are int16 files
            raise ConfigError(f"num_labels must be 2 .. {tio.MAX_LABELS}, got {self.num_labels}")
        if isinstance(self.backend, SegmenterBackend) and self.backend.num_labels != self.num_labels:
            raise ConfigError(
                f"backend has {self.backend.num_labels} labels, num_labels is {self.num_labels}"
            )
        mode, _, reference = str(self.affine).partition(":")
        if mode == "estimate" and not reference:
            raise ConfigError("affine=estimate needs a reference volume path: estimate:<path>")

    def atlas_geometry(self) -> VolumeGeometry:
        return make_centered_geometry(self.atlas_dims, self.atlas_spacing)

    def build_grid(self) -> TileGrid:
        grid = build_grid(self.atlas_dims, self.grid, self.tile_size)
        if self.fusion_mode == "concat" and not grid.is_partition():
            raise ConfigError(
                "fusion mode 'concat' requires a non-overlapped partition grid"
            )
        return grid

    def resolve_backend(self) -> SegmenterBackend:
        """The backend; a prior backend's prior must lie on the atlas grid."""
        backend = self.backend
        if not isinstance(backend, SegmenterBackend):
            backend = parse_backend_spec(backend, self.num_labels)
        if isinstance(backend, AtlasPriorOracle):
            # the tolerance of segment_tile's check of each answer's grid
            prior, atlas = backend.prior.geometry, self.atlas_geometry()
            if not prior.matches(atlas, tol=1e-6):
                raise ConfigError(
                    f"prior backend's grid ({_grid_text(prior)}) is not the atlas grid"
                    f" ({_grid_text(atlas)})"
                )
        return backend


def _grid_text(geometry: VolumeGeometry) -> str:
    spacing = ", ".join(f"{s:g}" for s in geometry.spacing)
    origin = ", ".join(f"{o:g}" for o in geometry.index_to_world.offset)
    return f"dims {geometry.dims}, spacing ({spacing}), origin ({origin})"


_CONFIG_KEYS = frozenset(f.name for f in fields(PipelineConfig))


def load_config(path, **overrides) -> PipelineConfig:
    """Load a JSON config file mirroring PipelineConfig; kwargs override."""
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:  # JSONDecodeError, an over-long integer, undecodable text
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    doc.update({k: v for k, v in overrides.items() if v is not None})
    return PipelineConfig(**doc)


def save_affine(transform: AffineTransform, path) -> None:
    rows = ("%.17g %.17g %.17g %.17g\n" % tuple(row) for row in transform.matrix)
    tio.write_atomic(path, ("".join(rows).encode(),))


def load_affine(path) -> AffineTransform:
    try:
        m = np.loadtxt(path)
    except ValueError as exc:
        raise ConfigError(f"affine file {path} is not a numeric matrix: {exc}") from exc
    if m.shape != (4, 4):
        raise ConfigError(f"affine file must hold a 4x4 matrix, got {m.shape}")
    return AffineTransform(m)


@dataclass
class RunResult:
    native_labels_path: str
    atlas_labels_path: str
    report: dict
    fused: LabelVolume
    native_labels: LabelVolume


class _StageClock:
    def __init__(self):
        self.stages = []
        self.stage = "setup"  # the stage entered last, which a FAILED marker names

    @contextlib.contextmanager
    def time(self, name):
        self.stage = name
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.stages.append({"name": name, "seconds": time.perf_counter() - t0})


def _forward_transform(config: PipelineConfig, scan: tio.NiftiScan):
    if config.affine == "identity":
        return AffineTransform.identity()
    mode, _, reference = str(config.affine).partition(":")
    if mode == "estimate":
        return estimate_affine_moments(scan, tio.read_nifti(reference)[0])
    return load_affine(config.affine)


def run(config: PipelineConfig, input_scan) -> RunResult:
    """Execute the full pipeline on one scan.

    Writes ``atlas_labels.nii``, ``native_labels.nii``, ``grid.json`` and
    ``report.json`` into ``config.output_dir``.  An earlier run's label
    files and report are removed before the first stage, so a run killed
    part way leaves none of them; on failure, partial outputs are removed
    and a ``FAILED`` marker names the broken stage.  With ``resume``, a run
    past segment leaves only its own entries in ``work/tiles``.
    """
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    atlas_path = out_dir / "atlas_labels.nii"
    native_path = out_dir / "native_labels.nii"
    outputs = (atlas_path, native_path, out_dir / "report.json")
    marker = out_dir / "FAILED"
    clock = _StageClock()
    try:
        for path in (marker, *outputs):
            path.unlink(missing_ok=True)
        atlas_geom = config.atlas_geometry()
        grid = config.build_grid()
        backend = config.resolve_backend()

        with clock.time("read"):
            scan = tio.NiftiScan(input_scan)
            try:
                scan.check_finite()
            except BaseException:
                scan.close()
                raise

        with scan, clock.time("register"):
            forward = _forward_transform(config, scan)
            atlas_input = resample_intensity(scan, forward, atlas_geom, jobs=config.jobs)

        fit = None
        with clock.time("harmonize"):
            if config.harmonization_model:
                atlas_input, fit = apply_harmonization(atlas_input, load_model(config.harmonization_model))

        with clock.time("segment"):
            vote = StreamingVote(grid, config.num_labels)
            cache = out_dir / "work" / "tiles" if config.resume else None
            kept = segment_all(
                backend, atlas_input, grid, jobs=config.jobs,
                on_tile_failure=config.on_tile_failure, cache_dir=cache, on_tile=vote.add,
            )
            if cache is not None:
                # what this run neither read nor wrote goes, *.tmp files too
                for path in cache.iterdir():
                    if path.name not in kept:
                        path.unlink(missing_ok=True)
        del atlas_input, backend, kept

        with clock.time("fuse"):
            if config.fusion_mode == "majority":
                result = fuse_majority(vote, grid)
                fused = result.fused
                tie_count = result.tie_count
            else:
                fused = fuse_concatenate(vote, grid)
                tie_count = 0
        del vote

        with clock.time("unregister"):
            native_labels = resample_labels(
                fused, forward.inverse(), scan.geometry, jobs=config.jobs
            )

        with clock.time("write"):
            tio.write_nifti(fused, atlas_path)
            tio.write_nifti(native_labels, native_path)
            save_grid(grid, out_dir / "grid.json")
        coverage = grid.coverage()
        report = {
            "input": str(input_scan),
            "stages": clock.stages,
            "harmonization": None
            if fit is None
            else {
                "beta1": fit.beta1,
                "beta0": fit.beta0,
                "residual_rms": fit.residual_rms,
            },
            "fusion": {
                "mode": config.fusion_mode,
                "tie_count": int(tie_count),
                "coverage_min": min(coverage),
                "coverage_max": max(coverage),
                "coverage_mean": sum(n * v for n, v in coverage.items()) / sum(coverage.values()),
            },
            "grid": grid.to_dict(),
            "num_labels": config.num_labels,
            "outputs": {
                "atlas_labels": str(atlas_path),
                "native_labels": str(native_path),
            },
        }
        tio.write_atomic(out_dir / "report.json", (json.dumps(report, indent=1).encode(),))
    except Exception as exc:
        for path in outputs:
            path.unlink(missing_ok=True)
        tio.write_atomic(marker, (f"stage: {clock.stage}\nerror: {exc}\n".encode(),))
        raise
    return RunResult(
        native_labels_path=str(native_path),
        atlas_labels_path=str(atlas_path),
        report=report,
        fused=fused,
        native_labels=native_labels,
    )
