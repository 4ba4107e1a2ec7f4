"""Atlas-space tiled whole-brain segmentation scaffolding.

Pipeline: affine-align a scan onto a canonical atlas grid, harmonize its
intensities against a sorted-intensity reference, split the atlas into
overlapped tiles, segment each tile with a pluggable backend, fuse the
tile label maps by majority vote, and map the result back to native
space.  A Dice harness (``evaluate.report``) evaluates the output against
reference labels.
"""

from .evaluate import DiceReport, report
from .fusion import FusionResult, fuse_concatenate, fuse_majority
from .geometry import (
    AffineTransform,
    IntensityVolume,
    LabelVolume,
    VolumeGeometry,
    compose,
    estimate_affine_moments,
    make_centered_geometry,
    resample_intensity,
    resample_labels,
)
from .harmonize import (
    HarmonizationModel,
    RegressionFit,
    fit_model,
    harmonize,
    sorted_intensities,
    standardize,
)
from .io import read_nifti, read_raw, write_nifti, write_raw
from .pipeline import PipelineConfig, RunResult, run
from .segmenter import (
    AtlasPriorOracle,
    ConstantOracle,
    ExternalProcessBackend,
    segment_all,
    segment_tile,
)
from .tiling import TileGrid, TileSpec, build_grid, coverage_map, extract_tile

__version__ = "0.1.0"

__all__ = [
    "AffineTransform",
    "AtlasPriorOracle",
    "ConstantOracle",
    "DiceReport",
    "ExternalProcessBackend",
    "FusionResult",
    "HarmonizationModel",
    "IntensityVolume",
    "LabelVolume",
    "PipelineConfig",
    "RegressionFit",
    "RunResult",
    "TileGrid",
    "TileSpec",
    "VolumeGeometry",
    "build_grid",
    "compose",
    "coverage_map",
    "estimate_affine_moments",
    "extract_tile",
    "fit_model",
    "fuse_concatenate",
    "fuse_majority",
    "harmonize",
    "make_centered_geometry",
    "read_nifti",
    "read_raw",
    "report",
    "resample_intensity",
    "resample_labels",
    "run",
    "segment_all",
    "segment_tile",
    "sorted_intensities",
    "standardize",
    "write_nifti",
    "write_raw",
]
