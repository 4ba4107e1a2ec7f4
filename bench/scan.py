"""One timed ``pipeline.run`` in a fresh process.

    python3 bench/scan.py MANIFEST JOBS OUTPUT_DIR [--trace] [--warm-pass]

The run happens in its own process so that the peak RSS is that of this
one scan and not of the fixture build or of earlier scans.  The
last line of standard output is a JSON object with the wall time, the
peak RSS, the stage timings of ``report.json`` and, with ``--trace``, the
spans recorded around each layer's public functions.
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from tileseg import io as tio  # noqa: E402
from tileseg import pipeline  # noqa: E402
from tileseg.geometry import LabelVolume  # noqa: E402
from tileseg.segmenter import AtlasPriorOracle, SegmenterBackend  # noqa: E402


class ReplayBackend(SegmenterBackend):
    """In-process backend that answers each tile with its pre-cut label box."""

    def __init__(self, answer_dir: Path, num_labels: int):
        self.num_labels = num_labels
        self.answers = {}
        for path in sorted(answer_dir.glob("tile_*.nii")):
            vol, _ = tio.read_nifti(path, as_labels=True, num_labels=num_labels)
            self.answers[int(path.stem.split("_")[1])] = vol.data
        self.answer_dir = answer_dir

    def segment(self, tile_input, tile):
        return LabelVolume(tile_input.geometry, self.answers[tile.index], self.num_labels)

    def descriptor(self):
        return f"replay:{self.answer_dir}"


def make_backend(manifest: dict):
    spec = manifest["backend"]
    num_labels = manifest["config"]["num_labels"]
    if spec["kind"] == "prior":
        prior, _ = tio.read_nifti(spec["path"], as_labels=True, num_labels=num_labels)
        return AtlasPriorOracle(prior)
    if spec["kind"] == "answers":
        return ReplayBackend(Path(spec["dir"]), num_labels)
    if spec["kind"] == "external":
        script = BENCH_DIR / "replay_backend.py"
        command = shlex.join([sys.executable, str(script), spec["dir"]])
        return f"external:{command} {{input}} {{output}} {{spec}}"
    raise ValueError(f"unknown backend kind {spec['kind']!r}")


def cache_entries(output_dir: Path) -> set:
    tiles = output_dir / "work" / "tiles"
    if not tiles.is_dir():
        return set()
    return {p.name for p in tiles.iterdir() if p.suffix != ".json"}


def peak_rss_mb() -> float:
    """Peak resident set of this process image, in MB.

    Linux carries ``ru_maxrss`` over ``fork`` and ``exec``, so a scan
    started by the benchmark process (which holds the fixture) would report
    the benchmark's peak.  ``VmHWM`` belongs to this image alone.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def timed_run(config, scan_path: str, tracer=None, run_id=None) -> dict:
    before = cache_entries(Path(config.output_dir))
    t0 = time.perf_counter()
    if tracer is None:
        result = pipeline.run(config, scan_path)
    else:
        result = tracer.root(run_id, pipeline.run, config, scan_path)
    wall = time.perf_counter() - t0
    after = cache_entries(Path(config.output_dir))
    misses = len(after - before)
    return {
        "wall_s": wall,
        "stages": {s["name"]: s["seconds"] for s in result.report["stages"]},
        "tie_count": result.report["fusion"]["tie_count"],
        "cache_misses": misses if config.resume else 0,
        "cache_hits": len(config.build_grid().tiles) - misses if config.resume else 0,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("manifest", type=Path)
    ap.add_argument("jobs", type=int)
    ap.add_argument("output_dir", type=Path)
    ap.add_argument("--trace", action="store_true", help="record layer spans")
    ap.add_argument(
        "--warm-pass", action="store_true",
        help="run a second pass on the same output directory (cache hits)",
    )
    args = ap.parse_args(argv)

    manifest = json.loads(args.manifest.read_text())
    config = pipeline.PipelineConfig(
        **manifest["config"],
        backend=make_backend(manifest),
        jobs=args.jobs,
        output_dir=str(args.output_dir),
    )
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        passes = ("cold", "warm") if args.warm_pass else ("cold",)
        out = {"runs": [timed_run(config, manifest["scan"], tracer, p) for p in passes]}
    finally:
        if tracer is not None:
            tracer.uninstall()
    out["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        out["spans"] = tracer.spans
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
