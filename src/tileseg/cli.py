"""Command line interface.

Subcommands: ``fit-harmonization``, ``run``, ``tile``, ``fuse``,
``evaluate``, ``grid-info``.  Exit codes identify the failing stage
family: 0 success, 2 configuration/usage, 3 file I/O and format, 4
geometry, 5 harmonization, 6 tiling, 7 segmentation, 8 fusion, 9
evaluation.

Inputs are uncompressed single-file NIfTI-1; decompress .nii.gz ahead of
time.  Scans are expected to be bias-corrected already.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import io as tio
from .harmonize import DEFAULT_QUANTILES, HarmonizeError, fit_model, save_model
from .evaluate import EvaluateError, report as dice_report
from .fusion import FusionError, fuse_concatenate, fuse_majority
from .geometry import GeometryError, LabelVolume
from .pipeline import _CONFIG_KEYS, ConfigError, PipelineConfig, load_config, run
from .segmenter import FAILURE_POLICIES, SegmentationError
from .tiling import TilingError, extract_tile, load_grid, save_grid

EXIT_CODES = [
    (ConfigError, 2),
    (tio.NiftiFormatError, 3),
    (OSError, 3),
    (HarmonizeError, 5),
    (TilingError, 6),
    (SegmentationError, 7),
    (FusionError, 8),
    (EvaluateError, 9),
    (GeometryError, 4),
]


def _triple(text: str, kind=int) -> tuple:
    parts = [kind(p) for p in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected 3 comma-separated values: {text!r}")
    return tuple(parts)


def _float_triple(text: str) -> tuple:
    return _triple(text, float)


def _add_grid_flags(p: argparse.ArgumentParser):
    p.add_argument("--grid", type=_triple, default=None, help="tiles per axis, e.g. 3,3,3")
    p.add_argument("--tile-size", type=_triple, default=None, help="tile dims, e.g. 96,128,88")
    p.add_argument("--atlas-dims", type=_triple, default=None, help="atlas grid dims")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tileseg",
        description="Atlas-space tiled segmentation: harmonize, tile, segment, fuse, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit-harmonization", help="fit an intensity reference model from atlas scans")
    p.add_argument("--atlases", nargs="+", required=True, help="atlas-space intensity volumes")
    p.add_argument("--masks", nargs="+", required=True, help="matching binary mask volumes")
    p.add_argument("--quantiles", type=int, default=DEFAULT_QUANTILES)
    p.add_argument("--output", required=True, help="model directory to create")

    p = sub.add_parser("run", help="full pipeline: scan in, native-space labels out")
    p.add_argument("--input", required=True)
    p.add_argument("--output", dest="output_dir", required=True, help="output directory")
    p.add_argument("--config", default=None, help="JSON config file; flags override")
    _add_grid_flags(p)
    p.add_argument("--atlas-spacing", type=_float_triple, default=None, help="atlas voxel mm")
    p.add_argument("--backend", default=None, help="constant:<l> | prior:<nii> | external:<cmd>")
    p.add_argument("--affine", default=None, help="identity | estimate:<reference nii> | <matrix file>")
    p.add_argument("--harmonization", dest="harmonization_model", help="model dir, or 'skip'")
    p.add_argument("--fusion", dest="fusion_mode", choices=["majority", "concat"], default=None)
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--num-labels", type=int, default=None)
    p.add_argument("--on-tile-failure", choices=FAILURE_POLICIES, default=None)
    p.add_argument("--resume", action="store_true", default=None)

    p = sub.add_parser("tile", help="extract tiles from an atlas-space volume")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True, help="directory for tiles + grid.json")
    p.add_argument("--labels", action="store_true", help="treat input as a label volume")
    p.add_argument("--num-labels", type=int, default=None, help="label count for --labels input")
    _add_grid_flags(p)

    p = sub.add_parser("fuse", help="fuse per-tile label volumes from a tile directory")
    p.add_argument("--tiles", required=True, help="directory with grid.json and tile_*.nii")
    p.add_argument("--output", required=True, help="fused label volume path")
    p.add_argument("--mode", choices=["majority", "concat"], default="majority")
    p.add_argument("--num-labels", type=int, default=None)

    p = sub.add_parser("evaluate", help="per-label Dice report, automatic vs manual")
    p.add_argument("--auto", required=True)
    p.add_argument("--manual", required=True)
    p.add_argument("--num-labels", type=int, default=None)
    p.add_argument("--output", default=None, help="directory for tsv + json report")

    p = sub.add_parser("grid-info", help="print tile origins and coverage statistics")
    _add_grid_flags(p)
    p.add_argument("--json", action="store_true", help="machine-readable output")

    return parser


def _grid_from_args(args):
    # unset flags fall back to the PipelineConfig defaults that `run` uses
    layout = dict(atlas_dims=args.atlas_dims, grid=args.grid, tile_size=args.tile_size)
    return PipelineConfig(**{k: v for k, v in layout.items() if v is not None}).build_grid()


def cmd_fit_harmonization(args) -> int:
    if len(args.atlases) != len(args.masks):
        raise ConfigError("--atlases and --masks must pair up")
    volumes = [tio.read_nifti(p)[0] for p in args.atlases]
    masks = [tio.read_nifti(p, as_labels=True, num_labels=2)[0] for p in args.masks]
    model = fit_model(volumes, masks, args.quantiles)
    save_model(model, args.output)
    print(f"model written to {args.output} (Q={model.quantile_count})")
    return 0


def cmd_run(args) -> int:
    # every run flag's dest is a PipelineConfig field; unset flags are None
    overrides = {k: v for k, v in vars(args).items() if k in _CONFIG_KEYS and v is not None}
    if args.config:
        config = load_config(args.config, **overrides)
    else:
        config = PipelineConfig(**overrides)
    result = run(config, args.input)
    fusion = result.report["fusion"]
    for entry in result.report["stages"]:
        print(f"stage {entry['name']:<10s} {entry['seconds']:8.3f} s")
    if result.report["harmonization"]:
        h = result.report["harmonization"]
        print(f"harmonization beta1={h['beta1']:.6g} beta0={h['beta0']:.6g}")
    print(
        f"fusion {fusion['mode']}: ties={fusion['tie_count']} "
        f"coverage {fusion['coverage_min']}..{fusion['coverage_max']}"
    )
    print(f"native labels: {result.native_labels_path}")
    return 0


def cmd_tile(args) -> int:
    vol, _ = tio.read_nifti(args.input, as_labels=args.labels, num_labels=args.num_labels)
    # grid extent defaults to the input's own dims, not the atlas constant
    if args.atlas_dims is None:
        args.atlas_dims = vol.dims
    grid = _grid_from_args(args)
    if vol.dims != grid.atlas_dims:
        raise TilingError(f"input dims {vol.dims} do not match grid {grid.atlas_dims}")
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    save_grid(grid, out / "grid.json")
    for tile in grid.tiles:
        tio.write_nifti(extract_tile(vol, tile), out / f"tile_{tile.index:03d}.nii")
    print(f"wrote {grid.k} tiles to {out}")
    return 0


def cmd_fuse(args) -> int:
    tiles_dir = Path(args.tiles)
    grid = load_grid(tiles_dir / "grid.json")
    paths = (tiles_dir / f"tile_{tile.index:03d}.nii" for tile in grid.tiles)
    # read as the vote takes them; without --num-labels fuse_majority lists them first
    segs = (tio.read_nifti(p, as_labels=True, num_labels=args.num_labels)[0] for p in paths)
    if args.mode == "majority":
        result = fuse_majority(segs, grid, num_labels=args.num_labels)
        tio.write_nifti(result.fused, args.output)
        cov = grid.coverage()
        print(f"fused {grid.k} tiles: ties={result.tie_count} coverage {min(cov)}..{max(cov)}")
    else:
        fused = fuse_concatenate(segs, grid, num_labels=args.num_labels)
        tio.write_nifti(fused, args.output)
        print(f"concatenated {grid.k} tiles")
    return 0


def cmd_evaluate(args) -> int:
    auto, _ = tio.read_nifti(args.auto, as_labels=True, num_labels=args.num_labels)
    manual, _ = tio.read_nifti(args.manual, as_labels=True, num_labels=args.num_labels)
    if args.num_labels is None:
        n = max(auto.num_labels, manual.num_labels)
        auto = LabelVolume(auto.geometry, auto.data, n)
        manual = LabelVolume(manual.geometry, manual.data, n)
    rep = dice_report(auto, manual)
    if args.output:
        rep.save(args.output)
    print(f"labels evaluated: {rep.labels_evaluated}")
    print(f"mean DSC:   {rep.mean_dsc:.6f}")
    print(f"median DSC: {rep.median_dsc:.6f}")
    return 0


def cmd_grid_info(args) -> int:
    grid = _grid_from_args(args)
    cov = grid.coverage()
    mean = sum(n * v for n, v in cov.items()) / sum(cov.values())
    axes = ["x", "y", "z"]
    origins = {
        axes[a]: sorted({t.origin[a] for t in grid.tiles}) for a in range(3)
    }
    if args.json:
        doc = grid.to_dict()
        doc["axis_origins"] = origins
        doc["coverage"] = {"min": min(cov), "max": max(cov), "mean": mean}
        print(json.dumps(doc, indent=1))
        return 0
    print(f"atlas dims {grid.atlas_dims}, grid {grid.grid}, tile size {grid.tile_size}")
    print(f"tiles: {grid.k} ({'partition' if set(cov) == {1} else 'overlapped'})")
    for axis in axes:
        print(f"  {axis}-origins: {origins[axis]}")
    print(f"coverage: min {min(cov)}, max {max(cov)}, mean {mean:.3f}")
    for n, voxels in cov.items():
        print(f"  coverage {n}: {voxels} voxels")
    return 0


_COMMANDS = {
    "fit-harmonization": cmd_fit_harmonization,
    "run": cmd_run,
    "tile": cmd_tile,
    "fuse": cmd_fuse,
    "evaluate": cmd_evaluate,
    "grid-info": cmd_grid_info,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # run, tile, fuse and evaluate take a label count, bound by the int16 label files
        n = getattr(args, "num_labels", None)
        if n is not None and not 2 <= n <= tio.MAX_LABELS:
            bound = "at least 2" if n < 2 else f"at most {tio.MAX_LABELS}"
            raise ConfigError(f"--num-labels must be {bound}, got {n}")
        return _COMMANDS[args.command](args)
    except Exception as exc:
        for exc_type, code in EXIT_CODES:
            if isinstance(exc, exc_type):
                print(f"error: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
