"""Paper-scale benchmark of the tileseg pipeline.

    python3 bench/run.py --workload overlap-noisy --seed 1 --seconds 20 --trace 0

Builds a deterministic fixture from ``--seed`` (see ``fixture.py``), then
runs ``pipeline.run`` in fresh processes (``scan.py``) at ``jobs=1`` and
``jobs=nproc``: once each, then as many more as fit in ``--seconds``.
Every scan is checked against an oracle computed here: the atlas labels
bitwise, the tie count, and the native labels bitwise against the first
scan of the run.  Each metric is printed as ``name value unit``; the last
line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` builds the
fixture once, runs one untraced scan at each job count, then one traced
scan at ``jobs=1`` (plus a warm resume pass on ``external-resume``), and
reports the per-layer metrics from the spans and ``report["stages"]``.
Spans and results are written to ``.bench_results/``.

Measurement limits: the page cache is warm (the fixture was just
written) and never dropped, and no process is pinned to a CPU.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_DIR = BENCH_DIR.parent
sys.path[:0] = [str(REPO_DIR / "src"), str(BENCH_DIR)]

import numpy as np  # noqa: E402

import tileseg  # noqa: E402
from tileseg import io as tio  # noqa: E402
from tileseg.evaluate import report as dice_report  # noqa: E402

import fixture  # noqa: E402
from tracing import ROOT  # noqa: E402

# measure the checkout's package, never an installed copy
if Path(tileseg.__file__).resolve().parent.parent != REPO_DIR / "src":
    raise SystemExit(f"tileseg comes from {tileseg.__file__}, not from {REPO_DIR / 'src'}")

WORK_ROOT = REPO_DIR / ".bench_work"
RESULTS_DIR = REPO_DIR / ".bench_results"
SCAN_SCRIPT = BENCH_DIR / "scan.py"
SETUP_REPEATS = 3
# every run must end within 180 s; children are killed at this budget
RUN_BUDGET_S = 170.0
STAGES = ("read", "register", "harmonize", "segment", "fuse", "unregister", "write")
LAYERS = ("pipeline", "geometry", "harmonize", "segmenter", "tiling", "fusion", "io")

END_TO_END = {
    "scan_rel": "x",
    "scan_par_rel": "x",
    "peak_rss_mb": "MB",
    "peak_rss_par_mb": "MB",
    "dice_native": "ratio",
    "setup_s": "s",
}


def per_layer_units() -> dict:
    # Wall seconds drift with the host (see calibration_s), so the bounded
    # scan metrics are the *_rel ratios and the seconds are reported here.
    # par_speedup sits here too: speeding up a parallel stage lowers it.
    units = {"scan_s": "s", "scan_par_s": "s", "calibration_s": "s", "par_speedup": "x"}
    for stage in STAGES:
        units[f"pipeline.{stage}_s"] = "s"
        units[f"pipeline.{stage}_par_s"] = "s"
    for kind in ("intensity", "labels"):
        units[f"geometry.resample_{kind}_s"] = "s"
        units[f"geometry.resample_{kind}_mvox_s"] = "Mvox/s"
    units.update({
        "fusion.fuse_majority_s": "s",
        "fusion.votes": "count",
        "fusion.mvotes_s": "Mvotes/s",
        "fusion.tie_count": "count",
        "fusion.peak_alloc_mb": "MB",
        "fusion.fuse_concatenate_s": "s",
        "tiling.extract_tile_s": "s",
        "tiling.extract_tile_calls": "count",
        "tiling.extract_tile_mb": "MB",
        "segmenter.segment_tile_s": "s",
        "segmenter.segment_tile_p50_s": "s",
        "segmenter.segment_tile_max_s": "s",
        "segmenter.tile_io_s": "s",
        "segmenter.tiles_failed": "count",
        "cache.misses": "count",
        "cache.hits": "count",
        "cache.hit_ratio": "ratio",
        "io.write_raw_s": "s",
        "io.read_raw_s": "s",
        "io.read_nifti_s": "s",
        "io.read_nifti_mb_s": "MB/s",
        "io.write_nifti_s": "s",
        "io.write_nifti_mb_s": "MB/s",
        "harmonize.harmonize_s": "s",
        "harmonize.masked_voxels": "count",
        "evaluate.report_s": "s",
    })
    for layer in LAYERS:
        units[f"self.{layer}_s"] = "s"
    units.update({"trace.scan_s": "s", "trace.self_sum_s": "s", "trace.overhead_s": "s"})
    return units


PER_LAYER = per_layer_units()
# every printed metric; with --trace 0 the raw seconds, par_speedup,
# calibration_s and error_rate are printed but left out of the result JSON,
# which holds END_TO_END only
UNITS = {**END_TO_END, **PER_LAYER, "error_rate": "ratio"}


def cache_sizes() -> dict:
    """Per-level CPU cache sizes of cpu0, as the kernel reports them."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        name = f"L{level}" + ({"Data": "d", "Instruction": "i"}.get(kind, ""))
        sizes[name] = size
    return sizes


def environment(layout: fixture.Layout, nproc: int) -> dict:
    nx, ny, nz = layout.native_dims
    ax, ay, az = layout.atlas_dims
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "tileseg": tileseg.__version__,
        "cpu_caches": cache_sizes(),
        "largest_arrays_mb": {
            "scan_float64": nx * ny * nz * 8 / 1e6,
            "atlas_float64": ax * ay * az * 8 / 1e6,
        },
        "limits": "warm page cache, no cache drop, no CPU pinning; "
        "arrays fit within 4x LLC, so bandwidth figures are computed bytes",
    }


def calibration_s() -> float:
    """Wall time of a fixed numpy kernel: gather, scatter-count, sort, arithmetic.

    The kernel does not call tileseg, so it measures how fast the host runs
    numpy code at the moment.  Each scan is bracketed by two of these, and
    ``scan_rel`` divides the scan's wall time by their mean: on a shared
    host the same scan drifted by up to 30 % over minutes, and the ratio
    cancels part of that drift.
    """
    rng = np.random.default_rng(0)
    data = rng.random(2_000_000)
    index = rng.integers(0, data.size, data.size)
    t0 = time.perf_counter()
    for _ in range(3):
        gathered = data[index] * 0.5 + 1.0
        np.bincount(index, minlength=data.size)
        np.sort(gathered)
    return time.perf_counter() - t0


def run_child(cmd: list, timeout: float, env=None) -> subprocess.CompletedProcess:
    """Run ``cmd`` as a process-group leader; on timeout kill the group and wait."""
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True, env=env,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += f"\nkilled after {timeout:.0f} s"
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


class Bench:
    """Runs checked scans of one fixture and keeps what they measured."""

    def __init__(self, fx: fixture.Fixture, work: Path, deadline: float):
        self.fx = fx
        self.work = work
        self.deadline = deadline
        self.expected, self.expected_ties = fx.expected()
        self.native = None
        self.dice = None
        self.report_s = None
        self.attempted = 0
        self.failures = []
        self.scans = []   # job count, wall time, calibration, peak RSS, error per scan
        # the external backend's per-tile temporary directories stay in the checkout
        tmp = work / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, TMPDIR=str(tmp))

    def scan(self, jobs: int, trace: bool = False, warm_pass: bool = False) -> dict:
        """One checked scan in a fresh process; returns the child's result."""
        self.attempted += 1
        out_dir = self.work / f"out{self.attempted:03d}"
        cmd = [sys.executable, str(SCAN_SCRIPT), str(self.fx.manifest_path), str(jobs),
               str(out_dir)]
        cmd += ["--trace"] * trace + ["--warm-pass"] * warm_pass
        before = calibration_s()
        t0 = time.perf_counter()
        proc = run_child(cmd, self.deadline - time.monotonic(), self.env)
        elapsed = time.perf_counter() - t0
        calibration = (before + calibration_s()) / 2
        result = {"runs": [{"wall_s": elapsed}], "peak_rss_mb": 0.0}
        if proc.returncode != 0:
            error = f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"
        else:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            try:
                error = self.check(out_dir, result)
            except (OSError, ValueError) as exc:
                error = f"unreadable output: {exc}"
        shutil.rmtree(out_dir, ignore_errors=True)
        result["calibration_s"] = calibration
        self.scans.append({"jobs": jobs, "wall_s": result["runs"][0]["wall_s"],
                           "calibration_s": calibration,
                           "peak_rss_mb": result["peak_rss_mb"], "error": error})
        if error:
            self.failures.append(f"scan {self.attempted} jobs={jobs}: {error}")
        return result

    def check(self, out_dir: Path, result: dict) -> str | None:
        if (out_dir / "FAILED").exists():
            return "FAILED marker: " + (out_dir / "FAILED").read_text().strip()
        num_labels = self.fx.prior.num_labels
        atlas, _ = tio.read_nifti(out_dir / "atlas_labels.nii", as_labels=True,
                                  num_labels=num_labels)
        if atlas.dims != self.expected.shape:
            return f"atlas labels have dims {atlas.dims}"
        wrong = int(np.count_nonzero(atlas.data != self.expected))
        if wrong:
            return f"{wrong} atlas voxels differ from the reference vote"
        ties = [r["tie_count"] for r in result["runs"]]
        if any(t != self.expected_ties for t in ties):
            return f"tie counts {ties} != reference {self.expected_ties}"
        native, _ = tio.read_nifti(out_dir / "native_labels.nii", as_labels=True,
                                   num_labels=num_labels)
        if self.native is None:
            t0 = time.perf_counter()
            self.dice = dice_report(native, self.fx.truth_native).mean_dsc
            self.report_s = time.perf_counter() - t0
            self.native = native.data
        elif not np.array_equal(native.data, self.native):
            return "native labels differ from the first scan of this run"
        return None


def build_fixture(args, layout, work: Path, repeats: int) -> tuple:
    """Build the workload's inputs ``repeats`` times; returns (fixture, seconds each)."""
    times = []
    fx = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        fx = fixture.build(args.workload, layout, args.seed, work / "fixture")
        # warm-up: compile and cache the scan process's imports
        warm = run_child([sys.executable, str(SCAN_SCRIPT), "--help"], 60.0)
        times.append(time.perf_counter() - t0)
        if warm.returncode != 0:
            raise RuntimeError(f"scan process does not start: {warm.stderr.strip()[-400:]}")
    # flush the fixture now; the kernel would otherwise write it back about
    # 30 s later, in the middle of the timed scans
    for path in (work / "fixture").rglob("*"):
        if path.is_file():
            with open(path, "rb") as f:
                os.fsync(f.fileno())
    return fx, times


def end_to_end(bench: Bench, seconds: float, nproc: int, setup_times: list) -> dict:
    """Scan at each job count at least once, then while another scan fits.

    Each next scan goes to the job count with fewer samples among those
    whose last scan would still end within ``seconds``.
    """
    last = {}
    t0 = time.monotonic()
    while True:
        left = seconds - (time.monotonic() - t0)
        done = {j: sum(s["jobs"] == j for s in bench.scans) for j in (1, nproc)}
        todo = [j for j in done if not done[j] or last[j] <= left]
        if not todo:
            break
        jobs = min(todo, key=done.get)
        start = time.monotonic()
        bench.scan(jobs)
        last[jobs] = time.monotonic() - start

    def median(value, jobs):
        return statistics.median(value(s) for s in bench.scans if s["jobs"] == jobs)

    def wall(scan):
        return scan["wall_s"]

    def rel(scan):
        return scan["wall_s"] / scan["calibration_s"]

    def rss(scan):
        return scan["peak_rss_mb"]

    return {
        "scan_rel": median(rel, 1),
        "scan_par_rel": median(rel, nproc),
        "peak_rss_mb": median(rss, 1),
        "peak_rss_par_mb": median(rss, nproc),
        "dice_native": bench.dice if bench.dice is not None else 0.0,
        "setup_s": statistics.median(setup_times),
        "scan_s": median(wall, 1),
        "scan_par_s": median(wall, nproc),
        "par_speedup": median(wall, 1) / median(wall, nproc),
        "calibration_s": statistics.median(s["calibration_s"] for s in bench.scans),
    }


def self_times(spans: list) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered, cursor = 0.0, s["start"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
            lo, hi = max(c["start"], cursor), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_metrics(spans: list, runs: list, untraced: dict, untraced_par: dict,
                  report_s: float) -> dict:
    """Per-layer metrics from the spans of the traced cold (and warm) pass."""
    cold = [s for s in spans if s["run"] == "cold"]
    warm = [s for s in spans if s["run"] == "warm"]
    by_id = {s["id"]: s for s in cold}

    def named(name, pool=cold):
        return [s for s in pool if s["name"] == name]

    def seconds(pool):
        return sum(s["end"] - s["start"] for s in pool)

    def under(span, name):
        parent = by_id.get(span["parent"])
        while parent is not None:
            if parent["name"] == name:
                return True
            parent = by_id.get(parent["parent"])
        return False

    def rate(amount, secs):
        return amount / secs if secs > 0 else 0.0

    scan_s, scan_par_s = untraced["runs"][0]["wall_s"], untraced_par["runs"][0]["wall_s"]
    m = {
        "scan_s": scan_s,
        "scan_par_s": scan_par_s,
        "calibration_s": (untraced["calibration_s"] + untraced_par["calibration_s"]) / 2,
        "par_speedup": scan_s / scan_par_s,
    }
    for stage in STAGES:
        m[f"pipeline.{stage}_s"] = untraced["runs"][0]["stages"].get(stage, 0.0)
        m[f"pipeline.{stage}_par_s"] = untraced_par["runs"][0]["stages"].get(stage, 0.0)
    for kind in ("intensity", "labels"):
        calls = named(f"geometry.resample_{kind}")
        secs = seconds(calls)
        m[f"geometry.resample_{kind}_s"] = secs
        m[f"geometry.resample_{kind}_mvox_s"] = rate(sum(s["voxels"] for s in calls) / 1e6, secs)

    fuse = named("fusion.fuse_majority")
    votes = sum(s["votes"] for s in fuse)
    m["fusion.fuse_majority_s"] = seconds(fuse)
    m["fusion.votes"] = votes
    m["fusion.mvotes_s"] = rate(votes / 1e6, seconds(fuse))
    m["fusion.tie_count"] = sum(s["ties"] for s in fuse)
    m["fusion.peak_alloc_mb"] = max((s["peak_alloc_bytes"] for s in fuse), default=0) / 1e6
    m["fusion.fuse_concatenate_s"] = seconds(named("fusion.fuse_concatenate"))

    extract = named("tiling.extract_tile")
    m["tiling.extract_tile_s"] = seconds(extract)
    m["tiling.extract_tile_calls"] = len(extract)
    m["tiling.extract_tile_mb"] = sum(s["bytes"] for s in extract) / 1e6

    tiles = [s["end"] - s["start"] for s in named("segmenter.segment_tile")]
    m["segmenter.segment_tile_s"] = sum(tiles)
    m["segmenter.segment_tile_p50_s"] = statistics.median(tiles) if tiles else 0.0
    m["segmenter.segment_tile_max_s"] = max(tiles, default=0.0)
    m["segmenter.tile_io_s"] = seconds(
        [s for s in cold if s["name"] in ("io.read_nifti", "io.write_nifti")
         and under(s, "segmenter.segment_tile")]
    )
    m["segmenter.tiles_failed"] = sum(1 for s in named("segmenter.segment_tile") if s.get("error"))

    misses = sum(r["cache_misses"] for r in runs)
    hits = sum(r["cache_hits"] for r in runs)
    m["cache.misses"] = misses
    m["cache.hits"] = hits
    m["cache.hit_ratio"] = rate(hits, hits + misses)
    m["io.write_raw_s"] = seconds(named("io.write_raw"))
    m["io.read_raw_s"] = seconds(named("io.read_raw", warm))

    root = named(ROOT)[0]
    for op in ("read", "write"):
        calls = [s for s in named(f"io.{op}_nifti") if s["parent"] == root["id"]]
        secs = seconds(calls)
        m[f"io.{op}_nifti_s"] = secs
        m[f"io.{op}_nifti_mb_s"] = rate(sum(s["bytes"] for s in calls) / 1e6, secs)

    harm = named("harmonize.harmonize")
    m["harmonize.harmonize_s"] = seconds(harm)
    m["harmonize.masked_voxels"] = sum(s["masked_voxels"] for s in harm)
    m["evaluate.report_s"] = report_s if report_s is not None else 0.0

    own = self_times(cold)
    for layer in LAYERS:
        m[f"self.{layer}_s"] = sum(t for i, t in own.items()
                                   if by_id[i]["name"].split(".")[0] == layer)
    traced_wall = runs[0]["wall_s"]
    m["trace.scan_s"] = traced_wall
    m["trace.self_sum_s"] = sum(own.values())
    m["trace.overhead_s"] = traced_wall - scan_s
    return m


def per_layer(bench: Bench, nproc: int, results: dict) -> dict:
    untraced = bench.scan(1)
    untraced_par = bench.scan(nproc)
    traced = bench.scan(1, trace=True, warm_pass=bench.fx.workload == "external-resume")
    results["spans"] = traced.get("spans", [])
    if "spans" not in traced:
        return {name: 0.0 for name in PER_LAYER}
    return layer_metrics(traced["spans"], traced["runs"], untraced, untraced_par,
                         bench.report_s)


def main(argv=None, layout: fixture.Layout = fixture.PAPER) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=fixture.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + RUN_BUDGET_S
    nproc = len(os.sched_getaffinity(0))
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "environment": environment(layout, nproc)}
    try:
        fx, setup_times = build_fixture(args, layout, work, 1 if args.trace else SETUP_REPEATS)
        bench = Bench(fx, work, deadline)
        if args.trace:
            metrics, reported = per_layer(bench, nproc, results), PER_LAYER
        else:
            metrics, reported = end_to_end(bench, args.seconds, nproc, setup_times), END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("# environment " + json.dumps(results["environment"]))
    for failure in bench.failures:
        print(f"# FAILED {failure}")
    metrics["error_rate"] = len(bench.failures) / bench.attempted
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {UNITS[name]}")
    summary = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in reported.items()},
    }
    results.update(summary, scans=bench.scans, setup_times=setup_times)
    RESULTS_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS_DIR / name).write_text(json.dumps(results))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
