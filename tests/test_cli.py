import argparse
import dataclasses
import itertools
import json
import math
import os
import struct
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from conftest import random_intensity, random_labels
from tileseg import io as tio
import tileseg
from tileseg.cli import EXIT_CODES, build_parser, main
from tileseg.geometry import (
    AffineTransform, IntensityVolume, LabelVolume, VolumeGeometry, compose,
    make_centered_geometry,
)
from tileseg.harmonize import fit_model, save_model
from tileseg.phantom import intensity_from_labels, make_blob_phantom
from tileseg.pipeline import PipelineConfig, run
from tileseg.tiling import build_grid


def _write_phantom(tmp_path, dims=(16, 16, 16), num_labels=4, seed=1):
    truth = make_blob_phantom(make_centered_geometry(dims), num_labels, seed=seed)
    scan = intensity_from_labels(truth, seed=seed)
    truth_path = tmp_path / "truth.nii"
    scan_path = tmp_path / "scan.nii"
    tio.write_nifti(truth, truth_path)
    tio.write_nifti(scan, scan_path)
    return truth, truth_path, scan_path


def test_tile_then_fuse_round_trip(tmp_path, capsys):
    truth, truth_path, _ = _write_phantom(tmp_path)
    tiles_dir = tmp_path / "tiles"
    code = main(
        [
            "tile",
            "--input", str(truth_path),
            "--output", str(tiles_dir),
            "--labels", "--num-labels", "4",
            "--grid", "2,2,2", "--tile-size", "9,9,9",
        ]
    )
    assert code == 0
    assert "wrote 8 tiles" in capsys.readouterr().out
    assert (tiles_dir / "grid.json").exists()
    assert sorted(p.name for p in tiles_dir.glob("tile_*.nii")) == [
        f"tile_{i:03d}.nii" for i in range(8)
    ]

    fused_path = tmp_path / "fused.nii"
    code = main(
        [
            "fuse",
            "--tiles", str(tiles_dir),
            "--output", str(fused_path),
            "--num-labels", "4",
        ]
    )
    assert code == 0
    fused, _ = tio.read_nifti(fused_path, as_labels=True, num_labels=4)
    npt.assert_array_equal(fused.data, truth.data)


def test_fuse_concat_mode(tmp_path):
    truth, truth_path, _ = _write_phantom(tmp_path)
    tiles_dir = tmp_path / "tiles"
    assert main(
        [
            "tile", "--input", str(truth_path), "--output", str(tiles_dir),
            "--labels", "--num-labels", "4",
            "--grid", "2,2,2", "--tile-size", "8,8,8",
        ]
    ) == 0
    fused_path = tmp_path / "fused.nii"
    assert main(
        [
            "fuse", "--tiles", str(tiles_dir), "--output", str(fused_path),
            "--mode", "concat", "--num-labels", "4",
        ]
    ) == 0
    fused, _ = tio.read_nifti(fused_path, as_labels=True, num_labels=4)
    npt.assert_array_equal(fused.data, truth.data)


def test_run_subcommand_end_to_end(tmp_path, capsys):
    truth, truth_path, scan_path = _write_phantom(tmp_path)
    out_dir = tmp_path / "out"
    code = main(
        [
            "run",
            "--input", str(scan_path),
            "--output", str(out_dir),
            "--backend", f"prior:{truth_path}",
            "--num-labels", "4",
            "--atlas-dims", "16,16,16",
            "--grid", "2,2,2", "--tile-size", "9,9,9",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "native labels:" in out
    assert "ties=0" in out
    native, _ = tio.read_nifti(out_dir / "native_labels.nii", as_labels=True)
    npt.assert_array_equal(native.data, truth.data)


def test_prior_resume_hits_the_cache_in_a_new_process(tmp_path):
    # each run is a fresh interpreter with its own hash seed, so the cache
    # key must not depend on per-process state
    _, truth_path, scan_path = _write_phantom(tmp_path)
    out_dir = tmp_path / "out"
    argv = [
        "run", "--input", str(scan_path), "--output", str(out_dir),
        "--backend", f"prior:{truth_path}", "--num-labels", "4",
        "--atlas-dims", "16,16,16", "--grid", "2,2,2", "--tile-size", "9,9,9",
        "--resume",
    ]
    src = str(Path(tileseg.__file__).resolve().parent.parent)
    entries = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-m", "tileseg.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        entries.append(sorted(p.name for p in (out_dir / "work" / "tiles").iterdir()))
    assert len(entries[0]) == 16  # 8 blobs + 8 sidecars
    assert entries[1] == entries[0]


def test_grid_info_json(capsys):
    code = main(["grid-info", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    grid = build_grid((172, 220, 156), (3, 3, 3), (96, 128, 88))
    assert doc["axis_origins"]["x"] == [0, 38, 76]
    assert doc["axis_origins"]["y"] == [0, 46, 92]
    assert doc["axis_origins"]["z"] == [0, 34, 68]
    assert doc["origins"] == [list(t.origin) for t in grid.tiles]
    assert doc["coverage"]["min"] >= 1
    assert {k: doc[k] for k in grid.to_dict()} == PipelineConfig().build_grid().to_dict()


def test_grid_info_text(capsys):
    assert main(["grid-info"]) == 0
    out = capsys.readouterr().out
    assert "tiles: 27 (overlapped)" in out
    assert "x-origins: [0, 38, 76]" in out


def test_grid_info_rejects_atlas_spacing(capsys):
    # the grid layout is in voxels; only `run` builds an atlas geometry
    with pytest.raises(SystemExit) as exc:
        main(["grid-info", "--atlas-spacing", "5,5,5"])
    assert exc.value.code == 2
    assert "--atlas-spacing" in capsys.readouterr().err


def test_tile_rejects_atlas_spacing(tmp_path, capsys):
    _, truth_path, _ = _write_phantom(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "tile", "--input", str(truth_path), "--output", str(tmp_path / "tiles"),
                "--labels", "--grid", "2,2,2", "--tile-size", "9,9,9",
                "--atlas-spacing", "5,5,5",
            ]
        )
    assert exc.value.code == 2
    assert "--atlas-spacing" in capsys.readouterr().err
    assert not (tmp_path / "tiles").exists()


def test_evaluate_identical_volumes(tmp_path, capsys):
    _, truth_path, _ = _write_phantom(tmp_path)
    report_dir = tmp_path / "report"
    code = main(
        [
            "evaluate",
            "--auto", str(truth_path),
            "--manual", str(truth_path),
            "--num-labels", "4",
            "--output", str(report_dir),
        ]
    )
    assert code == 0
    assert "mean DSC:   1.000000" in capsys.readouterr().out
    assert (report_dir / "dice_per_label.tsv").exists()
    assert (report_dir / "dice_summary.json").exists()


def test_fit_harmonization_writes_model(tmp_path, capsys):
    g = make_centered_geometry((8, 8, 8))
    for n in range(2):
        vol = random_intensity((8, 8, 8), seed=n)
        tio.write_nifti(vol, tmp_path / f"atlas{n}.nii")
        mask = random_labels((8, 8, 8), 2, seed=n)
        tio.write_nifti(mask, tmp_path / f"mask{n}.nii")
    model_dir = tmp_path / "model"
    code = main(
        [
            "fit-harmonization",
            "--atlases", str(tmp_path / "atlas0.nii"), str(tmp_path / "atlas1.nii"),
            "--masks", str(tmp_path / "mask0.nii"), str(tmp_path / "mask1.nii"),
            "--quantiles", "32",
            "--output", str(model_dir),
        ]
    )
    assert code == 0
    assert "Q=32" in capsys.readouterr().out
    for name in ("meta.json", "mean_sorted.bin", "mask.nii"):
        assert (model_dir / name).exists()


# --- exit code families ---


def test_missing_input_exits_3(tmp_path, capsys):
    code = main(["evaluate", "--auto", str(tmp_path / "a.nii"), "--manual", str(tmp_path / "b.nii")])
    assert code == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "offset, value",
    [(108, float("nan")), (108, float("inf")), (280, float("nan"))],
    ids=["vox_offset_nan", "vox_offset_inf", "srow_x_nan"],
)
def test_non_finite_header_float_exits_3(tmp_path, capsys, offset, value):
    _, truth_path, _ = _write_phantom(tmp_path)
    raw = bytearray(truth_path.read_bytes())
    raw[offset : offset + 4] = struct.pack("<f", value)
    truth_path.write_bytes(raw)
    code = main(["tile", "--input", str(truth_path), "--output", str(tmp_path / "t"), "--labels"])
    assert code == 3
    assert "non-finite" in capsys.readouterr().err


def test_fractional_vox_offset_exits_3(tmp_path, capsys):
    _, _, scan_path = _write_phantom(tmp_path)
    raw = bytearray(scan_path.read_bytes())
    struct.pack_into("<f", raw, 108, 355.9)
    scan_path.write_bytes(bytes(raw) + bytes(4))  # enough bytes after byte 355
    out = tmp_path / "out"
    code = main(["run", "--input", str(scan_path), "--output", str(out), "--backend", "constant:1",
                 "--atlas-dims", "16,16,16", "--grid", "2,2,2", "--tile-size", "9,9,9"])
    assert code == 3
    assert "not a whole number of bytes" in capsys.readouterr().err
    assert not (out / "atlas_labels.nii").exists()


@pytest.mark.parametrize("order", ["C", "F"])
def test_float32_overflow_in_the_last_plane_exits_3(tmp_path, monkeypatch, capsys, order):
    # built in memory: the float32 voxels of a file cannot overflow float32
    data = np.ones((6, 5, 4), order=order)
    data[2, 3, -1] = 1e39
    vol = IntensityVolume(make_centered_geometry(data.shape), data)
    monkeypatch.setattr(tio, "read_nifti", lambda *args, **kwargs: (vol, None))
    out = tmp_path / "tiles"
    code = main(["tile", "--input", "scan.nii", "--output", str(out), "--grid", "1,1,1",
                 "--tile-size", "6,5,4"])
    assert code == 3
    assert "overflow float32" in capsys.readouterr().err
    # the planes before the last were written to a temp file, which is gone
    assert sorted(p.name for p in out.iterdir()) == ["grid.json"]


def test_impossible_grid_exits_6(tmp_path, capsys):
    _, truth_path, _ = _write_phantom(tmp_path)
    code = main(
        [
            "tile", "--input", str(truth_path), "--output", str(tmp_path / "t"),
            "--labels", "--grid", "2,2,2", "--tile-size", "4,4,4",
        ]
    )
    assert code == 6
    assert "coverage impossible" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    _, _, scan_path = _write_phantom(tmp_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"tile_shape": [8, 8, 8]}))
    code = main(
        [
            "run", "--input", str(scan_path), "--output", str(tmp_path / "out"),
            "--config", str(config_path),
        ]
    )
    assert code == 2
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("{bad", "not valid JSON"),
        ("[1, 2]", "must hold a JSON object"),
        ('{"grid": 3}', "grid must be three numbers"),
    ],
)
def test_malformed_config_exits_2(tmp_path, capsys, text, message):
    _, _, scan_path = _write_phantom(tmp_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(text)
    code = main(
        [
            "run", "--input", str(scan_path), "--output", str(tmp_path / "out"),
            "--config", str(config_path),
        ]
    )
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [("resume", "false"), ("grid", [2.7, 2, 2]), ("tile_size", ["12", 12, 12]),
     ("jobs", True), ("harmonization_model", 5), ("backend", 5), ("backend", ["constant:0"]),
     ("backend", None)],
)
def test_wrongly_typed_config_value_exits_2(tmp_path, capsys, field, value):
    _, _, scan_path = _write_phantom(tmp_path)
    config_path = tmp_path / "config.json"
    doc = {"atlas_dims": [16, 16, 16], "grid": [2, 2, 2], "tile_size": [12, 12, 12]}
    doc[field] = value
    config_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = main(["run", "--input", str(scan_path), "--output", str(out), "--config", str(config_path)])
    assert code == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["1", "0", "-3"])
@pytest.mark.parametrize("command", ["run", "tile", "fuse", "evaluate"])
def test_label_count_below_2_exits_2(tmp_path, capsys, command, value):
    truth, truth_path, scan_path = _write_phantom(tmp_path)
    tiles_dir = tmp_path / "tiles"
    assert main(
        ["tile", "--input", str(truth_path), "--output", str(tiles_dir), "--labels",
         "--grid", "2,2,2", "--tile-size", "9,9,9"]
    ) == 0
    out = tmp_path / "out"
    argv = {
        "run": ["run", "--input", str(scan_path), "--output", str(out),
                "--backend", f"prior:{truth_path}", *_SMALL_RUN],
        "tile": ["tile", "--input", str(truth_path), "--output", str(out), "--labels",
                 "--grid", "2,2,2", "--tile-size", "9,9,9"],
        "fuse": ["fuse", "--tiles", str(tiles_dir), "--output", str(out)],
        "evaluate": ["evaluate", "--auto", str(truth_path), "--manual", str(truth_path),
                     "--output", str(out)],
    }[command]
    capsys.readouterr()
    assert main([*argv, "--num-labels", value]) == 2
    assert f"--num-labels must be at least 2, got {value}" in capsys.readouterr().err
    assert not out.exists()


def test_tampered_grid_json_exits_6(tmp_path, capsys):
    _, truth_path, _ = _write_phantom(tmp_path)
    tiles_dir = tmp_path / "tiles"
    assert main(
        [
            "tile", "--input", str(truth_path), "--output", str(tiles_dir),
            "--labels", "--num-labels", "4",
            "--grid", "2,2,2", "--tile-size", "9,9,9",
        ]
    ) == 0
    doc = json.loads((tiles_dir / "grid.json").read_text())
    doc["origins"][0] = [1, 0, 0]
    (tiles_dir / "grid.json").write_text(json.dumps(doc))
    code = main(["fuse", "--tiles", str(tiles_dir), "--output", str(tmp_path / "f.nii")])
    assert code == 6


def test_tile_of_the_wrong_size_exits_8(tmp_path, capsys):
    _, truth_path, _ = _write_phantom(tmp_path)
    tiles_dir = tmp_path / "tiles"
    assert main(
        [
            "tile", "--input", str(truth_path), "--output", str(tiles_dir),
            "--labels", "--num-labels", "4",
            "--grid", "2,2,2", "--tile-size", "9,9,9",
        ]
    ) == 0
    tio.write_nifti(random_labels((9, 9, 8), 4, seed=2), tiles_dir / "tile_000.nii")
    code = main(["fuse", "--tiles", str(tiles_dir), "--output", str(tmp_path / "f.nii")])
    assert code == 8
    assert "tile 0 dims" in capsys.readouterr().err
    assert not (tmp_path / "f.nii").exists()


def _readme_exit_codes():
    """``{code: meaning}`` from the README's "Exit codes" table."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## Exit codes\n", 1)[1].split("\n## ", 1)[0]
    rows = (line.split("|") for line in section.splitlines() if line.startswith("|"))
    return {int(cells[1]): cells[2].strip() for cells in rows if cells[1].strip().isdigit()}


def test_readme_exit_code_table_matches_exit_codes():
    table = _readme_exit_codes()
    assert table[0] == "success"
    assert {code for code in table if 2 <= code <= 9} == {code for _, code in EXIT_CODES}
    assert set(table) <= {0, *range(2, 10)}


def test_evaluate_dim_mismatch_exits_9(tmp_path):
    a = random_labels((4, 4, 4), 3, seed=1)
    b = random_labels((4, 4, 5), 3, seed=1)
    tio.write_nifti(a, tmp_path / "a.nii")
    tio.write_nifti(b, tmp_path / "b.nii")
    code = main(
        [
            "evaluate", "--auto", str(tmp_path / "a.nii"),
            "--manual", str(tmp_path / "b.nii"), "--num-labels", "3",
        ]
    )
    assert code == 9


def test_backend_failure_exits_7(tmp_path, capsys):
    _, _, scan_path = _write_phantom(tmp_path)
    code = main(
        [
            "run", "--input", str(scan_path), "--output", str(tmp_path / "out"),
            "--backend", "external:false {input} {output}",
            "--atlas-dims", "16,16,16", "--grid", "2,2,2", "--tile-size", "9,9,9",
        ]
    )
    assert code == 7
    assert "tile 0" in capsys.readouterr().err


def test_unknown_template_placeholder_exits_7_before_any_tile(tmp_path, capsys):
    # were it left to the tiles, the background policy would turn every tile
    # into background and exit 0
    _, _, scan_path = _write_phantom(tmp_path)
    code = main(
        [
            "run", "--input", str(scan_path), "--output", str(tmp_path / "out"),
            "--backend", "external:cp {input} {output} {model}",
            "--on-tile-failure", "background",
            "--atlas-dims", "16,16,16", "--grid", "2,2,2", "--tile-size", "9,9,9",
        ]
    )
    assert code == 7
    assert "'model'" in capsys.readouterr().err
    assert not (tmp_path / "out" / "atlas_labels.nii").exists()


def test_invalid_affine_matrix_exits_4(tmp_path):
    _, truth_path, scan_path = _write_phantom(tmp_path)
    bad = tmp_path / "affine.txt"
    m = np.eye(4)
    m[3, 3] = 2.0
    np.savetxt(bad, m)
    code = main(
        [
            "run", "--input", str(scan_path), "--output", str(tmp_path / "out"),
            "--backend", f"prior:{truth_path}", "--num-labels", "4",
            "--affine", str(bad),
            "--atlas-dims", "16,16,16", "--grid", "2,2,2", "--tile-size", "9,9,9",
        ]
    )
    assert code == 4


def test_degenerate_harmonization_input_exits_5(tmp_path):
    g = make_centered_geometry((4, 4, 4))
    from tileseg.geometry import IntensityVolume

    flat = IntensityVolume(g, np.full((4, 4, 4), 3.0))
    tio.write_nifti(flat, tmp_path / "flat.nii")
    mask = random_labels((4, 4, 4), 2, seed=1)
    tio.write_nifti(mask, tmp_path / "mask.nii")
    code = main(
        [
            "fit-harmonization",
            "--atlases", str(tmp_path / "flat.nii"),
            "--masks", str(tmp_path / "mask.nii"),
            "--output", str(tmp_path / "model"),
        ]
    )
    assert code == 5


def test_mismatched_harmonization_args_exit_2(tmp_path):
    vol = random_intensity((4, 4, 4))
    tio.write_nifti(vol, tmp_path / "a.nii")
    code = main(
        [
            "fit-harmonization",
            "--atlases", str(tmp_path / "a.nii"),
            "--masks", str(tmp_path / "a.nii"), str(tmp_path / "a.nii"),
            "--output", str(tmp_path / "model"),
        ]
    )
    assert code == 2


_SMALL_RUN = ["--atlas-dims", "16,16,16", "--grid", "2,2,2", "--tile-size", "9,9,9"]


def _label_files(out):
    return sorted(p.name for p in out.glob("*.nii")) if out.exists() else []


def test_nan_in_a_scan_plane_no_atlas_voxel_reaches_exits_4(tmp_path, capsys):
    # the atlas reaches scan planes 4..19 of 24; plane 0 is still read and checked
    truth, truth_path, _ = _write_phantom(tmp_path)
    scan = intensity_from_labels(make_blob_phantom(make_centered_geometry((16, 16, 24)), 4, seed=2))
    scan_path = tmp_path / "tall.nii"
    tio.write_nifti(scan, scan_path)
    raw = bytearray(scan_path.read_bytes())
    struct.pack_into("<f", raw, 352 + 4 * (3 + 16 * 3), float("nan"))  # voxel (3, 3, 0)
    scan_path.write_bytes(raw)
    out = tmp_path / "out"
    code = main(["run", "--input", str(scan_path), "--output", str(out),
                 "--backend", f"prior:{truth_path}", "--num-labels", "4", *_SMALL_RUN])
    assert code == 4
    assert "NaN or Inf" in capsys.readouterr().err
    assert (out / "FAILED").read_text().startswith("stage: read")
    assert _label_files(out) == []


def test_scan_truncated_by_one_byte_exits_3(tmp_path, capsys):
    _, truth_path, scan_path = _write_phantom(tmp_path)
    scan_path.write_bytes(scan_path.read_bytes()[:-1])
    out = tmp_path / "out"
    code = main(["run", "--input", str(scan_path), "--output", str(out),
                 "--backend", f"prior:{truth_path}", "--num-labels", "4", *_SMALL_RUN])
    assert code == 3
    assert "truncated data section" in capsys.readouterr().err
    assert (out / "FAILED").read_text().startswith("stage: read")
    assert _label_files(out) == [] and not (out / "report.json").exists()


@pytest.mark.parametrize("policy", ["abort", "background"])
def test_prior_on_another_grid_exits_2(tmp_path, capsys, policy):
    _, truth_path, scan_path = _write_phantom(tmp_path, dims=(20, 20, 20))
    out = tmp_path / "out"
    code = main(["run", "--input", str(scan_path), "--output", str(out),
                 "--backend", f"prior:{truth_path}", "--num-labels", "4",
                 "--on-tile-failure", policy, *_SMALL_RUN])
    assert code == 2
    err = capsys.readouterr().err
    assert "prior backend's grid (dims (20, 20, 20)" in err
    assert "is not the atlas grid (dims (16, 16, 16)" in err
    assert _label_files(out) == []


@pytest.mark.parametrize("grid", ["1000000,2,2", "1099511627776,2,2"])
def test_runaway_grid_count_exits_6(capsys, grid):
    code = main(["grid-info", "--grid", grid, "--tile-size", "9,9,9", "--atlas-dims", "16,16,16"])
    assert code == 6
    assert "exceeds the limit of 4096" in capsys.readouterr().err


def test_non_numeric_affine_file_exits_2(tmp_path, capsys):
    _, truth_path, scan_path = _write_phantom(tmp_path)
    bad = tmp_path / "affine.txt"
    bad.write_text("1 0 0 0\n0 one 0 0\n0 0 1 0\n0 0 0 1\n")
    code = main(
        [
            "run", "--input", str(scan_path), "--output", str(tmp_path / "out"),
            "--backend", f"prior:{truth_path}", "--num-labels", "4",
            "--affine", str(bad), *_SMALL_RUN,
        ]
    )
    assert code == 2
    assert "not a numeric matrix" in capsys.readouterr().err


def test_non_integer_constant_backend_exits_7(tmp_path, capsys):
    _, _, scan_path = _write_phantom(tmp_path)
    code = main(
        [
            "run", "--input", str(scan_path), "--output", str(tmp_path / "out"),
            "--backend", "constant:x", *_SMALL_RUN,
        ]
    )
    assert code == 7
    assert "constant label must be an integer" in capsys.readouterr().err


def _estimate_case(tmp_path):
    """The translated phantom of the pipeline's estimate test: ``run`` argv, and its config."""
    dims = (24, 24, 24)
    truth = make_blob_phantom(make_centered_geometry(dims), num_labels=5, seed=4)
    reference = intensity_from_labels(truth, seed=4)
    base = make_centered_geometry(dims)
    shift = AffineTransform.translation((3.0, 0.0, 0.0))
    shifted = VolumeGeometry(dims, base.spacing, compose(shift, base.index_to_world))
    paths = {name: tmp_path / f"{name}.nii" for name in ("truth", "scan", "reference")}
    tio.write_nifti(truth, paths["truth"])
    tio.write_nifti(IntensityVolume(shifted, reference.data), paths["scan"])
    tio.write_nifti(reference, paths["reference"])
    config = dict(
        atlas_dims=dims, grid=(2, 2, 2), tile_size=(14, 14, 14),
        backend=f"prior:{paths['truth']}", num_labels=5,
        affine=f"estimate:{paths['reference']}",
    )
    argv = [
        "run", "--input", str(paths["scan"]), "--backend", config["backend"], "--num-labels", "5",
        "--atlas-dims", "24,24,24", "--grid", "2,2,2", "--tile-size", "14,14,14",
    ]
    return argv, config, paths


def test_run_estimated_affine_matches_the_python_run(tmp_path):
    argv, config, paths = _estimate_case(tmp_path)
    out = tmp_path / "cli"
    assert main([*argv, "--output", str(out), "--affine", f"estimate:{paths['reference']}"]) == 0
    result = run(PipelineConfig(**config, output_dir=str(tmp_path / "api")), paths["scan"])
    truth, _ = tio.read_nifti(paths["truth"], as_labels=True)
    npt.assert_array_equal(result.fused.data, truth.data)
    for name in ("atlas_labels.nii", "native_labels.nii"):
        assert (out / name).read_bytes() == (tmp_path / "api" / name).read_bytes()


def test_estimate_without_reference_exits_2(tmp_path, capsys):
    argv, _, _ = _estimate_case(tmp_path)
    assert main([*argv, "--output", str(tmp_path / "out"), "--affine", "estimate"]) == 2
    assert "needs a reference" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("affine", [None, "identity"])
def test_reference_without_estimate_exits_2(tmp_path, capsys, affine):
    # the reference is spelled inside --affine; there is no flag for a stray one
    argv, _, paths = _estimate_case(tmp_path)
    flags = ["--reference", str(paths["reference"])] + (["--affine", affine] if affine else [])
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--output", str(tmp_path / "out"), *flags])
    assert exc.value.code == 2
    assert "unrecognized arguments: --reference" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("background_fill", 0.0), ("reference", "reference.nii")])
def test_a_removed_config_key_exits_2(tmp_path, capsys, key, value):
    # neither is a PipelineConfig field: the fill is the resampler's 0, the reference is in affine
    argv, _, _ = _estimate_case(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps({key: value}))
    out = tmp_path / "out"
    assert main([*argv, "--output", str(out), "--config", str(tmp_path / "config.json")]) == 2
    assert f"unknown config keys: ['{key}']" in capsys.readouterr().err
    assert not out.exists()


def test_estimate_with_missing_reference_exits_3(tmp_path):
    argv, _, _ = _estimate_case(tmp_path)
    flags = ["--affine", f"estimate:{tmp_path / 'absent.nii'}"]
    assert main([*argv, "--output", str(tmp_path / "out"), *flags]) == 3


def test_estimate_with_all_zero_reference_exits_4(tmp_path, capsys):
    argv, _, paths = _estimate_case(tmp_path)
    zero = IntensityVolume(make_centered_geometry((24, 24, 24)), np.zeros((24, 24, 24)))
    tio.write_nifti(zero, paths["reference"])
    flags = ["--affine", f"estimate:{paths['reference']}"]
    assert main([*argv, "--output", str(tmp_path / "out"), *flags]) == 4
    assert "zero total intensity" in capsys.readouterr().err


def test_estimate_on_a_one_plane_scan_exits_4(tmp_path, capsys):
    # all intensity on one z plane: no z spread to scale by
    data = np.zeros((12, 12, 12))
    data[:, :, 1] = np.random.default_rng(0).uniform(1.0, 1000.0, (12, 12))
    geometry = make_centered_geometry((12, 12, 12), (1.0, 1.2, 0.9))
    tio.write_nifti(IntensityVolume(geometry, data), tmp_path / "flat.nii")
    tio.write_nifti(random_intensity((12, 12, 12), seed=3, lo=1.0, hi=10.0), tmp_path / "ref.nii")
    code = main([
        "run", "--input", str(tmp_path / "flat.nii"), "--output", str(tmp_path / "out"),
        "--affine", f"estimate:{tmp_path / 'ref.nii'}",
        "--atlas-dims", "12,12,12", "--grid", "2,2,2", "--tile-size", "7,7,7",
    ])
    assert code == 4
    assert "degenerate intensity spread" in capsys.readouterr().err


_LAYOUT = '"grid": [2, 2, 2], "tile_size": [9, 9, 9], "origins": []'


@pytest.mark.parametrize(
    "text",
    [
        "{bad",
        "[]",
        '{"grid": [2, 2, 2]}',
        '{"atlas_dims": "abc", ' + _LAYOUT + "}",
        '{"atlas_dims": [16, 16], ' + _LAYOUT + "}",
    ],
)
def test_malformed_grid_json_exits_6(tmp_path, capsys, text):
    _, truth_path, _ = _write_phantom(tmp_path)
    tiles_dir = tmp_path / "tiles"
    assert main(
        [
            "tile", "--input", str(truth_path), "--output", str(tiles_dir),
            "--labels", "--num-labels", "4", "--grid", "2,2,2", "--tile-size", "9,9,9",
        ]
    ) == 0
    (tiles_dir / "grid.json").write_text(text)
    code = main(["fuse", "--tiles", str(tiles_dir), "--output", str(tmp_path / "f.nii")])
    assert code == 6
    assert "malformed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    ["{bad", '{"mask_dims": [16, 16, 16]}', '{"mask_dims": [16, 16, 16], "quantile_count": "x"}'],
)
def test_malformed_harmonization_meta_exits_5(tmp_path, capsys, text):
    truth, truth_path, scan_path = _write_phantom(tmp_path)
    mask = truth.with_data((truth.data > 0).astype(np.uint16))
    model_dir = tmp_path / "model"
    save_model(fit_model([tio.read_nifti(scan_path)[0]], [mask], 16), model_dir)
    (model_dir / "meta.json").write_text(text)
    code = main(
        [
            "run", "--input", str(scan_path), "--output", str(tmp_path / "out"),
            "--backend", f"prior:{truth_path}", "--num-labels", "4",
            "--harmonization", str(model_dir), *_SMALL_RUN,
        ]
    )
    assert code == 5
    assert "malformed" in capsys.readouterr().err


@pytest.mark.parametrize("spacing", [(1.0, 1.0, 1.05), (1.0, 1.0, 1.0005)])
def test_harmonization_model_on_another_grid_exits_5(tmp_path, capsys, spacing):
    # 5e-4 off is another grid too: harmonize matches grids within 1e-4
    _, truth_path, scan_path = _write_phantom(tmp_path)
    atlas = random_intensity((16, 16, 16), seed=2, spacing=spacing)
    mask = random_labels((16, 16, 16), 2, seed=2, spacing=spacing)
    model_dir = tmp_path / "model"
    save_model(fit_model([atlas], [mask], 16), model_dir)
    out_dir = tmp_path / "out"
    code = main(
        [
            "run", "--input", str(scan_path), "--output", str(out_dir),
            "--backend", f"prior:{truth_path}", "--num-labels", "4",
            "--harmonization", str(model_dir), *_SMALL_RUN,
        ]
    )
    assert code == 5
    assert "geometries differ" in capsys.readouterr().err
    assert (out_dir / "FAILED").read_text().startswith("stage: harmonize\n")


@pytest.mark.parametrize(
    "in_config, flags",
    [("no_model", ["--harmonization", "skip"]), ("skip", [])],
    ids=["flag-over-config", "config"],
)
def test_harmonization_skip_runs_without_a_model(tmp_path, in_config, flags):
    _, truth_path, scan_path = _write_phantom(tmp_path)
    config_path = tmp_path / "config.json"
    model = in_config if in_config == "skip" else str(tmp_path / in_config)
    config_path.write_text(json.dumps({"harmonization_model": model}))
    out_dir = tmp_path / "out"
    code = main(
        [
            "run", "--input", str(scan_path), "--output", str(out_dir),
            "--config", str(config_path), "--backend", f"prior:{truth_path}",
            "--num-labels", "4", *flags, *_SMALL_RUN,
        ]
    )
    assert code == 0
    assert json.loads((out_dir / "report.json").read_text())["harmonization"] is None


def test_every_run_flag_is_a_pipeline_config_field():
    # cmd_run hands PipelineConfig each flag under its dest; any other dest would be dropped
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for a in sub.choices["run"]._actions} - {"help", "input", "config"}
    assert dests <= {f.name for f in dataclasses.fields(PipelineConfig)}


@pytest.mark.parametrize("status", [0, 1])
def test_external_backend_bytes_are_not_decoded_as_text(tmp_path, capsys, status):
    # a backend that prints a byte no UTF-8 text holds, to stdout and stderr
    truth, truth_path, scan_path = _write_phantom(tmp_path)
    stub = tmp_path / "stub.py"
    stub.write_text(textwrap.dedent(f"""
        import json, sys
        from tileseg import io as tio
        from tileseg.geometry import LabelVolume

        inp, out, spec = sys.argv[1:4]
        doc = json.loads(open(spec).read())
        tile_in, _ = tio.read_nifti(inp)
        prior, _ = tio.read_nifti({str(truth_path)!r}, as_labels=True, num_labels=4)
        box = tuple(slice(o, o + s) for o, s in zip(doc["origin"], doc["size"]))
        tio.write_nifti(LabelVolume(tile_in.geometry, prior.data[box], 4), out)
        sys.stdout.buffer.write(b"progress \\xff\\n")
        sys.stderr.buffer.write(b"model says \\xff\\n")
        sys.exit({status})
    """))
    out = tmp_path / "out"
    code = main(["run", "--input", str(scan_path), "--output", str(out), "--num-labels", "4",
                 "--backend", f"external:{sys.executable} {stub} {{input}} {{output}} {{spec}}",
                 *_SMALL_RUN])
    err = capsys.readouterr().err
    if status == 0:
        assert code == 0, err
        native, _ = tio.read_nifti(out / "native_labels.nii", as_labels=True)
        npt.assert_array_equal(native.data, truth.data)
    else:
        assert code == 7
        assert "tile 0: backend exited 1: model says \ufffd" in err
        assert _label_files(out) == []


@pytest.mark.parametrize(
    "field, value, code",
    [pytest.param("atlas_spacing", [10**400, 1, 1], 2, id="spacing-1e400"),
     pytest.param("background_fill", 10**400, 2, id="fill-1e400"),
     pytest.param("atlas_dims", [10**400, 16, 16], 2, id="dims-1e400"),
     pytest.param("atlas_dims", [32768, 16, 16], 2, id="dims-beyond-int16"),
     pytest.param("atlas_spacing", [0, 1, 1], 2, id="spacing-zero"),
     pytest.param("atlas_spacing", [-1, 1, 1], 2, id="spacing-negative"),
     pytest.param("atlas_spacing", [math.nan, 1, 1], 2, id="spacing-nan"),
     pytest.param("atlas_spacing", [1, math.inf, 1], 2, id="spacing-inf")],
)
def test_config_number_out_of_range_exits_with_its_code(tmp_path, capsys, field, value, code):
    _, truth_path, scan_path = _write_phantom(tmp_path)
    doc = {"atlas_dims": [16, 16, 16], "grid": [2, 2, 2], "tile_size": [9, 9, 9],
           "backend": f"prior:{truth_path}", "num_labels": 4, field: value}
    (tmp_path / "config.json").write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", "--input", str(scan_path), "--output", str(out),
                 "--config", str(tmp_path / "config.json")]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code:
        assert field.split("_")[0] in err or "background" in err
        assert _label_files(out) == []
        assert not out.exists()  # refused with the config, before the output directory


# odd values for every config key; "{missing}" and "{directory}" become paths
_ODD_VALUES = [
    None, True, False, -1, 0, 10**30, 10**400, math.nan, math.inf, -math.inf, "", [], {},
    [2, 2], [2, 2, 2, 2], [[2, 2, 2]], {"grid": [2, 2, 2]}, [10**30] * 3, [math.nan] * 3,
    "{missing}", "{directory}",
]


def test_config_fuzz_exits_with_a_documented_code(tmp_path, capsys):
    # each config key takes each odd value in turn, on a run that succeeds without it
    truth, truth_path, scan_path = _write_phantom(tmp_path)
    (tmp_path / "directory").mkdir()
    base = {"atlas_dims": [16, 16, 16], "grid": [2, 2, 2], "tile_size": [9, 9, 9],
            "backend": f"prior:{truth_path}", "num_labels": 4}
    codes = set(_readme_exit_codes())
    failures = []
    for n, (field, value) in enumerate(itertools.product(
        (f.name for f in dataclasses.fields(PipelineConfig)), _ODD_VALUES
    )):
        if field == "jobs" and isinstance(value, (int, float)) and value > 2:
            continue  # a thread count, not a check: never start many threads
        if value in ("{missing}", "{directory}"):
            value = str(tmp_path / value.strip("{}"))
        config, out = tmp_path / f"config{n}.json", tmp_path / f"out{n}"
        config.write_text(json.dumps({**base, field: value}))
        try:
            code = main(["run", "--input", str(scan_path), "--output", str(out),
                         "--config", str(config)])
        except Exception as exc:  # main lets an unmapped error out, traceback and all
            code = repr(exc)
        err = capsys.readouterr().err
        if code not in codes or "Traceback" in err or code != 0 and _label_files(out):
            failures.append((field, value, code, err[-200:]))
    assert failures == []


@pytest.mark.parametrize(
    "text", [b'{"num_labels": 1' + b"0" * 5000 + b"}", b"\xff\xfe{}"], ids=["5001-digits", "utf16-bom"]
)
def test_config_file_json_cannot_read_exits_2(tmp_path, capsys, text):
    _, _, scan_path = _write_phantom(tmp_path)
    (tmp_path / "config.json").write_bytes(text)
    assert main(["run", "--input", str(scan_path), "--output", str(tmp_path / "out"),
                 "--config", str(tmp_path / "config.json")]) == 2
    err = capsys.readouterr().err
    assert "is not valid JSON" in err and "Traceback" not in err



def _tile_fuse_evaluate_argv(tmp_path, truth_path, out):
    tiles_dir = tmp_path / "tiles"
    assert main(["tile", "--input", str(truth_path), "--output", str(tiles_dir), "--labels",
                 "--grid", "2,2,2", "--tile-size", "9,9,9"]) == 0
    return {
        "tile": ["tile", "--input", str(truth_path), "--output", str(out), "--labels",
                 "--grid", "2,2,2", "--tile-size", "9,9,9"],
        "fuse": ["fuse", "--tiles", str(tiles_dir), "--output", str(out)],
        "evaluate": ["evaluate", "--auto", str(truth_path), "--manual", str(truth_path),
                     "--output", str(out)],
    }


@pytest.mark.parametrize(
    "command, num_labels, backend",
    [("run", 1000000, "constant:0"), ("run", 70000, "constant:66000"),
     ("run", 50000, "constant:40000"), ("run-config", 50000, "constant:40000"),
     ("tile", 32769, None), ("fuse", 32769, None), ("evaluate", 32769, None)],
)
def test_label_count_beyond_the_int16_files_exits_2_before_any_stage(
    tmp_path, capsys, command, num_labels, backend
):
    # both label outputs are int16 NIfTI files, so labels run 0 .. 32767
    _, truth_path, scan_path = _write_phantom(tmp_path)
    out = tmp_path / "out"
    run_argv = ["run", "--input", str(scan_path), "--output", str(out), "--backend", backend,
                *_SMALL_RUN]
    if command == "run":
        argv = [*run_argv, "--num-labels", str(num_labels)]
    elif command == "run-config":
        (tmp_path / "config.json").write_text(json.dumps({"num_labels": num_labels}))
        argv = [*run_argv, "--config", str(tmp_path / "config.json")]
    else:
        argv = [*_tile_fuse_evaluate_argv(tmp_path, truth_path, out)[command],
                "--num-labels", str(num_labels)]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if command == "run-config":
        assert f"num_labels must be 2 .. 32768, got {num_labels}" in err
    else:
        assert f"--num-labels must be at most 32768, got {num_labels}" in err
    assert not out.exists()


def test_label_count_at_the_int16_limit_runs(tmp_path, capsys):
    _, _, scan_path = _write_phantom(tmp_path)
    out = tmp_path / "out"
    code = main(["run", "--input", str(scan_path), "--output", str(out),
                 "--num-labels", "32768", "--backend", "constant:32767", *_SMALL_RUN])
    assert code == 0, capsys.readouterr().err
    for name in ("atlas_labels.nii", "native_labels.nii"):
        labels, _ = tio.read_nifti(out / name, as_labels=True)
        assert np.all(labels.data == 32767)
    assert json.loads((out / "report.json").read_text())["num_labels"] == 32768


def _model_for(tmp_path, truth, scan_path, mask=None):
    if mask is None:
        mask = truth.with_data((truth.data > 0).astype(np.uint16))
    model_dir = tmp_path / "model"
    save_model(fit_model([tio.read_nifti(scan_path)[0]], [mask], 16), model_dir)
    return model_dir


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_harmonization_profile_exits_5(tmp_path, capsys, value):
    # NaN compares False, so a non-increasing check alone lets it through
    truth, truth_path, scan_path = _write_phantom(tmp_path)
    model_dir = _model_for(tmp_path, truth, scan_path)
    profile = np.fromfile(model_dir / "mean_sorted.bin", dtype="<f8")
    profile[5] = value
    (model_dir / "mean_sorted.bin").write_bytes(profile.astype("<f8").tobytes())
    out = tmp_path / "out"
    code = main(["run", "--input", str(scan_path), "--output", str(out),
                 "--backend", f"prior:{truth_path}", "--num-labels", "4",
                 "--harmonization", str(model_dir), *_SMALL_RUN])
    assert code == 5
    assert "mean_sorted must be finite and non-increasing" in capsys.readouterr().err
    assert (out / "FAILED").read_text().startswith("stage: harmonize\n")
    assert _label_files(out) == []


def test_scan_constant_inside_the_model_mask_exits_5(tmp_path, capsys):
    truth, truth_path, scan_path = _write_phantom(tmp_path)
    box = (slice(4, 12),) * 3
    inside = np.zeros(truth.dims, dtype=np.uint16)
    inside[box] = 1
    model_dir = _model_for(tmp_path, truth, scan_path, truth.with_data(inside))
    scan = tio.read_nifti(scan_path)[0]
    data = np.array(scan.data)
    data[box] = 5.0  # the scan varies, but not where the model looks
    tio.write_nifti(IntensityVolume(scan.geometry, data), scan_path)
    out = tmp_path / "out"
    code = main(["run", "--input", str(scan_path), "--output", str(out),
                 "--backend", f"prior:{truth_path}", "--num-labels", "4",
                 "--harmonization", str(model_dir), *_SMALL_RUN])
    assert code == 5
    assert "zero intensity variance inside the mask" in capsys.readouterr().err
    assert (out / "FAILED").read_text().startswith("stage: harmonize\n")


def test_run_with_a_model_prints_the_fit(tmp_path, capsys):
    truth, truth_path, scan_path = _write_phantom(tmp_path)
    model_dir = _model_for(tmp_path, truth, scan_path)
    out = tmp_path / "out"
    capsys.readouterr()
    code = main(["run", "--input", str(scan_path), "--output", str(out),
                 "--backend", f"prior:{truth_path}", "--num-labels", "4",
                 "--harmonization", str(model_dir), *_SMALL_RUN])
    assert code == 0
    fit = json.loads((out / "report.json").read_text())["harmonization"]
    line = f"harmonization beta1={fit['beta1']:.6g} beta0={fit['beta0']:.6g}\n"
    assert line in capsys.readouterr().out


def test_fit_harmonization_with_a_mask_off_the_atlas_grid_exits_5(tmp_path, capsys):
    tio.write_nifti(random_intensity((8, 8, 8), seed=1), tmp_path / "atlas.nii")
    tio.write_nifti(random_labels((8, 8, 8), 2, seed=1, spacing=(1.0, 1.0, 2.0)),
                    tmp_path / "mask.nii")
    code = main(["fit-harmonization", "--atlases", str(tmp_path / "atlas.nii"),
                 "--masks", str(tmp_path / "mask.nii"), "--output", str(tmp_path / "model")])
    assert code == 5
    assert "atlas mask is not on the common grid" in capsys.readouterr().err
    assert not (tmp_path / "model").exists()


def test_fit_harmonization_with_too_many_quantiles_exits_5(tmp_path, capsys):
    # refused before the profile's positions are allocated: 10**13 of them are 73 TiB
    tio.write_nifti(random_intensity((8, 8, 8), seed=1), tmp_path / "atlas.nii")
    tio.write_nifti(random_labels((8, 8, 8), 2, seed=1), tmp_path / "mask.nii")
    code = main(["fit-harmonization", "--atlases", str(tmp_path / "atlas.nii"),
                 "--masks", str(tmp_path / "mask.nii"), "--quantiles", "10000000000000",
                 "--output", str(tmp_path / "model")])
    assert code == 5
    assert "quantile_count must be in [2, 1048576]" in capsys.readouterr().err
    assert not (tmp_path / "model").exists()


def test_external_backend_output_of_the_wrong_dims_exits_7(tmp_path, capsys):
    _, _, scan_path = _write_phantom(tmp_path)
    stub = tmp_path / "stub.py"
    stub.write_text(textwrap.dedent("""
        import sys
        import numpy as np
        from tileseg import io as tio
        from tileseg.geometry import LabelVolume, make_centered_geometry

        geometry = make_centered_geometry((2, 2, 2))
        tio.write_nifti(LabelVolume(geometry, np.zeros((2, 2, 2), np.uint8), 4), sys.argv[2])
    """))
    out = tmp_path / "out"
    code = main(["run", "--input", str(scan_path), "--output", str(out), "--num-labels", "4",
                 "--backend", f"external:{sys.executable} {stub} {{input}} {{output}}",
                 *_SMALL_RUN])
    assert code == 7
    assert "tile 0: backend output dims (2, 2, 2) != tile dims (9, 9, 9)" in capsys.readouterr().err
    assert (out / "FAILED").read_text().startswith("stage: segment\n")
    assert _label_files(out) == []


def test_scan_without_sform_and_with_a_non_positive_pixdim_exits_3(tmp_path, capsys):
    _, _, scan_path = _write_phantom(tmp_path)
    raw = bytearray(scan_path.read_bytes())
    struct.pack_into("<h", raw, 254, 0)  # sform_code
    struct.pack_into("<f", raw, 80, 0.0)  # pixdim[1], the x spacing
    scan_path.write_bytes(bytes(raw))
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="no sform affine"):
        code = main(["run", "--input", str(scan_path), "--output", str(out),
                     "--backend", "constant:0", *_SMALL_RUN])
    assert code == 3
    assert "no sform and non-positive pixdim (0.0, 1.0, 1.0)" in capsys.readouterr().err
    assert (out / "FAILED").read_text().startswith("stage: read\n")


def test_evaluate_without_num_labels_takes_the_larger_inferred_count(tmp_path, capsys):
    truth, truth_path, _ = _write_phantom(tmp_path)  # labels 0 .. 3
    data = np.array(truth.data)
    data[0, 0, 0] = 5
    manual_path = tmp_path / "manual.nii"
    tio.write_nifti(LabelVolume(truth.geometry, data, 6), manual_path)
    argv = ["evaluate", "--auto", str(truth_path), "--manual", str(manual_path)]
    capsys.readouterr()
    assert main(argv) == 0
    inferred = capsys.readouterr().out
    assert main([*argv, "--num-labels", "6"]) == 0
    assert inferred == capsys.readouterr().out
    assert "labels evaluated: 4" in inferred


# --- CLI paths of their own: flag parsing, the tile grid, the atlas spacing ---


@pytest.mark.parametrize("spacing", ["0,1,1", "-1,1,1", "nan,1,1", "1,inf,1"])
def test_atlas_spacing_flag_out_of_range_exits_2(tmp_path, capsys, spacing):
    # each used to fail in setup with a geometry message that did not name it (exit 4)
    _, _, scan_path = _write_phantom(tmp_path)
    out = tmp_path / "out"
    code = main(["run", "--input", str(scan_path), "--output", str(out), "--num-labels", "4",
                 f"--atlas-spacing={spacing}", *_SMALL_RUN])
    assert code == 2
    assert "atlas_spacing must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


def test_run_with_atlas_spacing_writes_atlas_labels_on_that_spacing(tmp_path):
    truth, _, scan_path = _write_phantom(tmp_path)
    out = tmp_path / "out"
    code = main(["run", "--input", str(scan_path), "--output", str(out), "--num-labels", "4",
                 "--backend", "constant:2", "--atlas-spacing", "2,2,2", *_SMALL_RUN])
    assert code == 0
    atlas, _ = tio.read_nifti(out / "atlas_labels.nii", as_labels=True)
    assert atlas.dims == (16, 16, 16)
    assert atlas.geometry.spacing == (2.0, 2.0, 2.0)
    native, _ = tio.read_nifti(out / "native_labels.nii", as_labels=True)
    assert native.geometry.matches(truth.geometry)
    assert set(np.unique(native.data).tolist()) == {2}  # the scan lies inside the wider atlas


@pytest.mark.parametrize("flag", ["--grid", "--tile-size", "--atlas-dims"])
def test_a_malformed_triple_exits_2(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["grid-info", flag, "3,3"])
    assert exc.value.code == 2
    assert "expected 3 comma-separated values: '3,3'" in capsys.readouterr().err


def test_tile_with_other_atlas_dims_than_the_input_exits_6(tmp_path, capsys):
    _, truth_path, _ = _write_phantom(tmp_path)
    tiles_dir = tmp_path / "tiles"
    code = main(["tile", "--input", str(truth_path), "--output", str(tiles_dir), "--labels",
                 "--atlas-dims", "18,16,16", "--grid", "2,2,2", "--tile-size", "10,9,9"])
    assert code == 6
    assert "input dims (16, 16, 16) do not match grid (18, 16, 16)" in capsys.readouterr().err
    assert not tiles_dir.exists()


def test_external_backend_without_a_template_exits_7(tmp_path, capsys):
    _, _, scan_path = _write_phantom(tmp_path)
    code = main(["run", "--input", str(scan_path), "--output", str(tmp_path / "out"),
                 "--num-labels", "4", "--backend", "external:", *_SMALL_RUN])
    assert code == 7
    assert "external backend needs a command template" in capsys.readouterr().err
