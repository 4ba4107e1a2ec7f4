"""Small-size self-test of the benchmark (not part of the tier-1 suite).

    python3 -m pytest -q bench/test_bench.py

Runs every workload once on a reduced fixture, with and without tracing,
and checks that each run is correct and reports exactly the metrics that
``BENCHMARK.json`` documents, with their units.
"""

import json
import shutil
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402  (puts src/ on sys.path)
import fixture  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload,trace", product(fixture.WORKLOADS, (0, 1)))
def test_run_reports_documented_metrics(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "5", "--seconds", "0.1", "--trace", str(trace)]
    assert run.main(argv, layout=fixture.SMALL) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    documented = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in documented
    }
    printed = {line.split()[0] for line in lines[:-1] if not line.startswith("#")}
    extra = {"error_rate"}
    if not trace:
        extra |= {"scan_s", "scan_par_s", "par_speedup", "calibration_s"}
    assert printed == set(result["metrics"]) | extra


def test_reference_vote_matches_dense_stack(tmp_path):
    fx = fixture.build("overlap-noisy", fixture.SMALL, 7, tmp_path / "fx")
    fused, ties = fx.expected()
    num_labels = fx.prior.num_labels
    # one layer per tile, num_labels where the tile does not reach
    stack = np.full((fx.grid.k, *fx.grid.atlas_dims), num_labels, dtype=np.int64)
    for layer, tile, box in zip(stack, fx.grid.tiles, fx.answers):
        layer[tile.slices()] = box
    counts = np.stack([(stack == label).sum(axis=0) for label in range(num_labels)])
    top = counts.max(axis=0)
    np.testing.assert_array_equal(fused, counts.argmax(axis=0))
    assert ties == int(((counts == top).sum(axis=0) >= 2).sum())
    assert 0 < ties < fused.size


def test_overlap_and_external_share_answers(tmp_path):
    noisy = fixture.build("overlap-noisy", fixture.SMALL, 3, tmp_path / "a")
    external = fixture.build("external-resume", fixture.SMALL, 3, tmp_path / "b")
    for a, b in zip(noisy.expected(), external.expected()):
        np.testing.assert_array_equal(a, b)


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "partition", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
