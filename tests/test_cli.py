import argparse
import dataclasses
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from conftest import random_intensity, random_labels
from tileseg import io as tio
import tileseg
from tileseg.cli import EXIT_CODES, build_parser, main
from tileseg.geometry import (
    AffineTransform, IntensityVolume, VolumeGeometry, compose, make_centered_geometry,
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
     ("jobs", True), ("harmonization_model", 5)],
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


def test_non_finite_background_fill_exits_2(tmp_path, capsys):
    # the atlas reaches outside the scan, so a NaN fill would reach the output
    _, _, scan_path = _write_phantom(tmp_path, dims=(20, 20, 20))
    config_path = tmp_path / "config.json"
    config_path.write_text(
        '{"background_fill": NaN, "atlas_dims": [24, 24, 24], "grid": [2, 2, 2], '
        '"tile_size": [12, 12, 12], "num_labels": 4}'
    )
    code = main(
        [
            "run", "--input", str(scan_path), "--output", str(tmp_path / "out"),
            "--config", str(config_path),
        ]
    )
    assert code == 2
    assert "background_fill must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_background_fill_beyond_float32_exits_4(tmp_path, capsys):
    # a float32 scan registers into float32, which cannot hold a finite 1e39
    _, truth_path, scan_path = _write_phantom(tmp_path, dims=(20, 20, 20))
    config_path = tmp_path / "config.json"
    config_path.write_text(
        '{"background_fill": 1e39, "atlas_dims": [24, 24, 24], "grid": [2, 2, 2], '
        '"tile_size": [12, 12, 12], "num_labels": 4}'
    )
    out = tmp_path / "out"
    code = main(
        ["run", "--input", str(scan_path), "--output", str(out), "--config", str(config_path)]
    )
    assert code == 4
    err = capsys.readouterr().err
    assert "background 1e+39 does not fit the float32 output of a float32 source" in err
    assert "Traceback" not in err
    assert (out / "FAILED").read_text().startswith("stage: register\n")
    assert not (out / "atlas_labels.nii").exists()


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
        affine="estimate", reference=str(paths["reference"]),
    )
    argv = [
        "run", "--input", str(paths["scan"]), "--backend", config["backend"], "--num-labels", "5",
        "--atlas-dims", "24,24,24", "--grid", "2,2,2", "--tile-size", "14,14,14",
    ]
    return argv, config, paths


def test_run_estimated_affine_matches_the_python_run(tmp_path):
    argv, config, paths = _estimate_case(tmp_path)
    out = tmp_path / "cli"
    flags = ["--affine", "estimate", "--reference", str(paths["reference"])]
    assert main([*argv, "--output", str(out), *flags]) == 0
    result = run(PipelineConfig(**config, output_dir=str(tmp_path / "api")), paths["scan"])
    truth, _ = tio.read_nifti(paths["truth"], as_labels=True)
    npt.assert_array_equal(result.fused.data, truth.data)
    for name in ("atlas_labels.nii", "native_labels.nii"):
        assert (out / name).read_bytes() == (tmp_path / "api" / name).read_bytes()


def test_estimate_without_reference_exits_2(tmp_path, capsys):
    argv, _, _ = _estimate_case(tmp_path)
    assert main([*argv, "--output", str(tmp_path / "out"), "--affine", "estimate"]) == 2
    assert "needs a reference" in capsys.readouterr().err


@pytest.mark.parametrize("affine", [None, "identity"])
def test_reference_without_estimate_exits_2(tmp_path, capsys, affine):
    argv, _, paths = _estimate_case(tmp_path)
    flags = ["--reference", str(paths["reference"])] + (["--affine", affine] if affine else [])
    assert main([*argv, "--output", str(tmp_path / "out"), *flags]) == 2
    assert "read only by affine=estimate" in capsys.readouterr().err


def test_estimate_with_missing_reference_exits_3(tmp_path):
    argv, _, _ = _estimate_case(tmp_path)
    flags = ["--affine", "estimate", "--reference", str(tmp_path / "absent.nii")]
    assert main([*argv, "--output", str(tmp_path / "out"), *flags]) == 3


def test_estimate_with_all_zero_reference_exits_4(tmp_path, capsys):
    argv, _, paths = _estimate_case(tmp_path)
    zero = IntensityVolume(make_centered_geometry((24, 24, 24)), np.zeros((24, 24, 24)))
    tio.write_nifti(zero, paths["reference"])
    flags = ["--affine", "estimate", "--reference", str(paths["reference"])]
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
        "--affine", "estimate", "--reference", str(tmp_path / "ref.nii"),
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
