import hashlib
import io
import itertools
import json
import subprocess
import sys
import tempfile
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from conftest import (
    NOT_LABELS, CorruptingWrapper, float32_nifti, peak_alloc, random_intensity, random_labels, segment_answers,
)
from tileseg import io as tio
from tileseg.fusion import StreamingVote, fuse_majority
from tileseg.geometry import (
    AffineTransform, IntensityVolume, LabelVolume, VolumeGeometry, compose, make_centered_geometry,
)
from tileseg.segmenter import (
    AtlasPriorOracle,
    ConstantOracle,
    ExternalProcessBackend,
    SegmentationError,
    SegmenterBackend,
    _atlas_digest,
    _cache_key,
    _quote,
    parse_backend_spec,
    segment_all,
    segment_tile,
)
from tileseg.tiling import TileSpec, build_grid, extract_tile

DIMS = (8, 8, 8)
GRID = build_grid(DIMS, (2, 2, 2), (5, 5, 5))


def test_constant_oracle_fills_one_label():
    vol = random_intensity(DIMS, seed=1)
    backend = ConstantOracle(label=3, num_labels=5)
    outs = segment_answers(backend, vol, GRID)
    assert len(outs) == GRID.k
    for out, tile in zip(outs, GRID.tiles):
        assert out.dims == tile.size
        assert out.num_labels == 5
        assert np.all(out.data == 3)


def test_constant_oracle_rejects_out_of_range_label():
    with pytest.raises(SegmentationError, match="out of range"):
        ConstantOracle(label=5, num_labels=5)


def test_prior_oracle_returns_prior_boxes():
    vol = random_intensity(DIMS, seed=2)
    prior = random_labels(DIMS, 6, seed=3)
    outs = segment_answers(AtlasPriorOracle(prior), vol, GRID)
    for out, tile in zip(outs, GRID.tiles):
        npt.assert_array_equal(out.data, extract_tile(prior, tile).data)
        assert out.geometry.matches(extract_tile(vol, tile).geometry, tol=1e-9)


def test_corrupting_wrapper_hits_only_its_target():
    vol = random_intensity(DIMS, seed=2)
    prior = random_labels(DIMS, 6, seed=3)
    inner = AtlasPriorOracle(prior)
    wrapped = CorruptingWrapper(inner, target_index=3, corruption_label=2)
    outs = segment_answers(wrapped, vol, GRID)
    clean = segment_answers(inner, vol, GRID)
    for n, (got, want) in enumerate(zip(outs, clean)):
        if n == 3:
            assert np.all(got.data == 2)
        else:
            npt.assert_array_equal(got.data, want.data)


def test_corrupting_wrapper_rejects_bad_label():
    inner = ConstantOracle(0, num_labels=4)
    with pytest.raises(SegmentationError, match="out of range"):
        CorruptingWrapper(inner, 0, 4)


def test_parallel_matches_sequential():
    vol = random_intensity(DIMS, seed=4)
    prior = random_labels(DIMS, 6, seed=5)
    backend = AtlasPriorOracle(prior)
    seq = segment_answers(backend, vol, GRID, jobs=1)
    par = segment_answers(backend, vol, GRID, jobs=4)
    assert len(seq) == len(par)
    for a, b in zip(seq, par):
        npt.assert_array_equal(a.data, b.data)


class _MeetingOracle(SegmenterBackend):
    """The prior's answers, noting each calling thread; its first two calls wait for each other.

    A thread that makes the first call cannot make the second, so two
    threads must take tiles, or the wait times out and the tile fails.
    """

    def __init__(self, prior):
        self.inner = AtlasPriorOracle(prior)
        self.num_labels = prior.num_labels
        self.threads = set()
        self.meet = threading.Barrier(2, timeout=30)
        self.calls = itertools.count()

    def segment(self, tile_input, tile):
        self.threads.add(threading.get_ident())
        if next(self.calls) < 2:
            self.meet.wait()
        return self.inner.segment(tile_input, tile)


def test_segment_all_runs_tiles_on_the_calling_thread_too():
    vol = random_intensity(DIMS, seed=4)
    prior = random_labels(DIMS, 6, seed=5)
    backend = _MeetingOracle(prior)
    outs = {2: segment_answers(backend, vol, GRID, jobs=2)}
    assert len(backend.threads) == 2 and threading.get_ident() in backend.threads
    outs[3] = segment_answers(AtlasPriorOracle(prior), vol, GRID, jobs=3)
    want = [o.data.tobytes() for o in segment_answers(AtlasPriorOracle(prior), vol, GRID, jobs=1)]
    for jobs, got in outs.items():
        assert [o.data.tobytes() for o in got] == want, jobs


@pytest.mark.parametrize("jobs", [0, -1])
def test_fewer_than_one_job_segments_every_tile_as_one_job_does(jobs):
    vol = random_intensity(DIMS, seed=4)
    backend = AtlasPriorOracle(random_labels(DIMS, 6, seed=5))
    want = [o.data.tobytes() for o in segment_answers(backend, vol, GRID, jobs=1)]
    # segment_answers fails on a tile handed on twice or never
    assert [o.data.tobytes() for o in segment_answers(backend, vol, GRID, jobs=jobs)] == want


class _CountingOracle(ConstantOracle):
    """Labels each tile with its index, noting each call (``list.append`` is atomic)."""

    def __init__(self, num_labels):
        super().__init__(0, num_labels)
        object.__setattr__(self, "calls", [])

    def segment(self, tile_input, tile):
        self.calls.append(tile.index)
        return ConstantOracle(tile.index, self.num_labels).segment(tile_input, tile)


def test_segment_all_threads_take_each_tile_once():
    # more threads than cores, switching as often as the interpreter allows
    grid = build_grid(DIMS, (8, 8, 8), (1, 1, 1))
    vol = random_intensity(DIMS, seed=4)
    backend = _CountingOracle(grid.k)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        outs = segment_answers(backend, vol, grid, jobs=8)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(backend.calls) == [t.index for t in grid.tiles]
    assert [int(o.data.max()) for o in outs] == [t.index for t in grid.tiles]


class _FailingOracle(ConstantOracle):
    """Fails tiles 3 and 5; tile 3 only after tile 5 has failed on the other thread."""

    def segment(self, tile_input, tile):
        if tile.index == 3:
            time.sleep(0.3)
        if tile.index in (3, 5):
            raise RuntimeError(f"no answer for tile {tile.index}")
        return super().segment(tile_input, tile)


@pytest.mark.parametrize("jobs", [1, 2])
def test_abort_raises_the_first_failed_tile_in_grid_order(jobs):
    vol = random_intensity(DIMS, seed=4)
    with pytest.raises(SegmentationError, match="^tile 3: no answer for tile 3$"):
        segment_answers(_FailingOracle(0, 4), vol, GRID, jobs=jobs)


def test_segment_all_rejects_dim_mismatch():
    vol = random_intensity((9, 8, 8))
    with pytest.raises(SegmentationError, match="do not match grid"):
        segment_answers(ConstantOracle(0, 4), vol, GRID)


def test_segment_all_rejects_unknown_policy():
    vol = random_intensity(DIMS)
    with pytest.raises(SegmentationError, match="policy"):
        segment_answers(ConstantOracle(0, 4), vol, GRID, on_tile_failure="retry")


def test_segment_tile_rejects_input_size_mismatch():
    vol = random_intensity((4, 4, 4))
    tile = TileSpec((0, 0, 0), (5, 5, 5), 0)
    with pytest.raises(SegmentationError, match="do not match tile size"):
        segment_tile(ConstantOracle(0, 4), vol, tile)


class _WrongDimsBackend(ConstantOracle):
    def segment(self, tile_input, tile):
        g = make_centered_geometry((2, 2, 2))
        return LabelVolume(g, np.zeros((2, 2, 2), dtype=np.uint16), self.num_labels)


class _MovedGeometryBackend(ConstantOracle):
    def segment(self, tile_input, tile):
        g = make_centered_geometry(tile_input.dims, (2.0, 2.0, 2.0))
        return LabelVolume(g, np.zeros(tile_input.dims, dtype=np.uint16), self.num_labels)


class _HotLabelBackend(ConstantOracle):
    def segment(self, tile_input, tile):
        data = np.full(tile_input.dims, self.num_labels, dtype=np.uint16)
        return LabelVolume(tile_input.geometry, data, self.num_labels + 1)


def _one_tile_case():
    vol = random_intensity((5, 5, 5), seed=6)
    return vol, TileSpec((0, 0, 0), (5, 5, 5), 0)


def test_segment_tile_rejects_wrong_output_dims():
    vol, tile = _one_tile_case()
    with pytest.raises(SegmentationError, match="dims"):
        segment_tile(_WrongDimsBackend(0, 4), vol, tile)


def test_segment_tile_rejects_changed_geometry():
    vol, tile = _one_tile_case()
    with pytest.raises(SegmentationError, match="geometry"):
        segment_tile(_MovedGeometryBackend(0, 4), vol, tile)


def test_segment_tile_rejects_out_of_range_output():
    vol, tile = _one_tile_case()
    with pytest.raises(SegmentationError, match="out of range"):
        segment_tile(_HotLabelBackend(0, 4), vol, tile)


class _IntensityBackend(ConstantOracle):
    """Answers with the tile's intensities, on the tile's grid: no label volume."""

    def segment(self, tile_input, tile):
        return tile_input


def test_a_non_label_answer_fails_the_tile():
    vol, tile = _one_tile_case()
    with pytest.raises(SegmentationError, match="non-label volume"):
        segment_tile(_IntensityBackend(0, 4), vol, tile)
    with pytest.raises(SegmentationError, match="^tile 0: backend returned a non-label volume$"):
        segment_answers(_IntensityBackend(0, 4), random_intensity(DIMS), GRID)


# --- external process protocol ---


def _write_stub(tmp_path, prior_path):
    # copies the matching box of a fixed prior map, like a real model would
    # report its prediction; exercises input, output, and spec plumbing
    stub = tmp_path / "stub.py"
    stub.write_text(
        textwrap.dedent(
            f"""
            import json, sys
            from tileseg import io as tio
            from tileseg.geometry import LabelVolume

            inp, out, spec = sys.argv[1:4]
            doc = json.loads(open(spec).read())
            tile_in, _ = tio.read_nifti(inp)
            prior, _ = tio.read_nifti(
                {str(prior_path)!r}, as_labels=True, num_labels=doc["num_labels"]
            )
            o, s = doc["origin"], doc["size"]
            sub = prior.data[o[0]:o[0]+s[0], o[1]:o[1]+s[1], o[2]:o[2]+s[2]]
            tio.write_nifti(LabelVolume(tile_in.geometry, sub, doc["num_labels"]), out)
            """
        )
    )
    return stub


def test_external_backend_matches_prior_oracle(tmp_path):
    vol = random_intensity(DIMS, seed=7)
    prior = random_labels(DIMS, 6, seed=8)
    prior_path = tmp_path / "prior.nii"
    tio.write_nifti(prior, prior_path)
    stub = _write_stub(tmp_path, prior_path)

    backend = ExternalProcessBackend(
        f"{sys.executable} {stub} {{input}} {{output}} {{spec}}", num_labels=6
    )
    outs = segment_answers(backend, vol, GRID, jobs=2)
    oracle = segment_answers(AtlasPriorOracle(prior), vol, GRID)
    for got, want, tile in zip(outs, oracle, GRID.tiles):
        npt.assert_array_equal(got.data, want.data)
        # exact input geometry restored, not the float32 round trip
        assert got.geometry.matches(extract_tile(vol, tile).geometry, tol=0.0)


def test_external_backend_nonzero_exit_names_the_tile():
    vol = random_intensity(DIMS, seed=7)
    backend = ExternalProcessBackend("false {input} {output}", num_labels=4)
    with pytest.raises(SegmentationError, match=r"tile 0: .*exited 1"):
        segment_answers(backend, vol, GRID)


def test_a_long_backend_stderr_is_quoted_from_its_head(tmp_path):
    # 50 MB of stderr after a blank start: the message quotes its first 500
    # characters, and the run holds none of the rest
    vol, tile = _one_tile_case()
    stub = tmp_path / "noisy.py"
    stub.write_text(
        "import sys\n"
        "sys.stderr.buffer.write(b' \\n' + b'\\xe2\\x82\\xac\\xff' * 12_500_000)\n"
        "sys.exit(1)\n"
    )
    backend = ExternalProcessBackend(f"{sys.executable} {stub} {{input}} {{output}}", num_labels=4)

    def fail():
        with pytest.raises(SegmentationError) as failed:
            segment_tile(backend, vol, tile)
        return str(failed.value)

    peak, message = peak_alloc(fail)
    assert message == "backend exited 1: " + "\u20ac\ufffd" * 250
    assert peak < 2**20


@pytest.mark.parametrize(
    "stderr",
    [
        b"",
        b" \n\t ",
        b"\n  model says \xff\n",
        b"\xc2\xa0\xe3\x80\x80" * 30_000 + b"late start",
        b"x" * 499 + b" \xc2\xa0" + b" " * 70_000,
        b"x" * 499 + b" \xc2\xa0" + b" " * 70_000 + b"y",
        b"e" * 1999 + b"\xf0\x9f\x98\x80" * 20_000,
        b"\xf0\x9f\x98" * 700,
    ],
)
def test_the_stderr_quote_is_the_whole_text_stripped_and_cut(stderr):
    # read a chunk at a time, the quote still sees whitespace, multi-byte and
    # bad bytes exactly as one decode of the whole text would
    assert _quote(io.BytesIO(stderr)) == stderr.decode(errors="replace").strip()[:500]


def test_external_backend_missing_output_file():
    vol, tile = _one_tile_case()
    backend = ExternalProcessBackend("true {input} {output}", num_labels=4)
    with pytest.raises(SegmentationError, match="no output"):
        segment_tile(backend, vol, tile)


def test_external_backend_malformed_output():
    vol, tile = _one_tile_case()
    # write 4 junk bytes to {output}: not a parseable volume
    junk = (
        f"{sys.executable} -c "
        '"import sys; open(sys.argv[2], \'wb\').write(b\'junk\')" '
        "{input} {output}"
    )
    backend = ExternalProcessBackend(junk, num_labels=4)
    with pytest.raises(SegmentationError, match="malformed"):
        segment_tile(backend, vol, tile)


@pytest.mark.parametrize("value, reason", NOT_LABELS)
def test_external_backend_rejects_what_uint16_would_change(tmp_path, value, reason):
    vol, tile = _one_tile_case()
    answer = tmp_path / "answer.nii"
    float32_nifti(answer, tile.size, value)
    copy = (
        f"{sys.executable} -c "
        '"import shutil, sys; shutil.copy(sys.argv[1], sys.argv[3])" '
        f"{answer} {{input}} {{output}}"
    )
    backend = ExternalProcessBackend(copy, num_labels=4)
    with pytest.raises(SegmentationError, match=f"malformed backend output.*{reason}"):
        segment_tile(backend, vol, tile)


def test_external_backend_requires_placeholders():
    with pytest.raises(SegmentationError, match="placeholders"):
        ExternalProcessBackend("model {input}")
    with pytest.raises(SegmentationError, match="placeholders"):
        ExternalProcessBackend("model {output}")


@pytest.mark.parametrize(
    "template, message",
    [
        ("cp {input} {output} {model}", "placeholders"),
        ("cp {input} {output} {}", "placeholders"),
        ("cp {input.name} {output}", "placeholders"),
        ("cp {input} {output} {", "malformed command template"),
        ("cp '{input} {output}", "malformed command template"),
    ],
)
def test_external_backend_rejects_a_template_no_tile_could_run(template, message):
    with pytest.raises(SegmentationError, match=message):
        ExternalProcessBackend(template)


def test_external_backend_passes_paths_with_spaces_as_one_argument(tmp_path, monkeypatch):
    spaced = tmp_path / "tmp dir"
    spaced.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(spaced))
    vol, tile = _one_tile_case()
    prior = random_labels(vol.dims, 6, seed=8)
    prior_path = spaced / "prior.nii"
    tio.write_nifti(prior, prior_path)
    stub = _write_stub(spaced, prior_path)
    backend = ExternalProcessBackend(
        f"{sys.executable} '{stub}' {{input}} {{output}} {{spec}}", num_labels=6
    )
    npt.assert_array_equal(segment_tile(backend, vol, tile).data, prior.data)
    assert backend.descriptor() == f"external:{backend.command_template}:6"


def test_background_policy_substitutes_and_warns():
    vol = random_intensity(DIMS, seed=9)
    backend = ExternalProcessBackend("false {input} {output}", num_labels=4)
    with pytest.warns(UserWarning, match="substituting background"):
        outs = segment_answers(backend, vol, GRID, on_tile_failure="background")
    assert len(outs) == GRID.k
    for out in outs:
        assert np.all(out.data == 0)
        assert out.num_labels == 4


# --- external tiles: one process per worker, launched while the last answer is handed on ---

# A stdlib-only `external:` backend, run as `python -S` (no site start-up):
# it answers tile i with the prior's box in answers/tile_<i>.nii, unless the
# mode in argv[4] fails tile i or makes it hang.
_REPLAY = r"""
import json, os, shutil, subprocess, sys, time
answers, output, spec, mode, arg = sys.argv[1:6]
i = json.load(open(spec))["index"]
if mode == "fail" and i == int(arg):
    sys.exit(1)
if mode == "limit":  # fail a tile that runs alongside more than arg others
    live = os.path.join(answers, "live")
    marker = os.path.join(live, str(i))
    open(marker, "w").close()
    running = len(os.listdir(live))
    time.sleep(0.1)
    os.remove(marker)
    if running > int(arg):
        sys.exit(f"{running} backend processes at once")
pids = os.path.join(answers, "pids")
if mode == "hang" and i > 0:  # note the pids of this process and of a child, then wait on it
    child = subprocess.Popen(["sleep", "60"])
    with open(os.path.join(pids, f"{i}.tmp"), "w") as f:
        f.write(f"{os.getpid()} {child.pid}")
    os.rename(os.path.join(pids, f"{i}.tmp"), os.path.join(pids, str(i)))
    child.wait()
if mode == "hang" and arg == "fail":  # tile 0 fails once another tile hangs
    for _ in range(3000):
        if os.listdir(pids):
            break
        time.sleep(0.01)
    sys.exit(1)
shutil.copyfile(os.path.join(answers, f"tile_{i:03d}.nii"), output)
"""


def _replay(tmp_path, monkeypatch, mode="answer", arg="0"):
    """The replay backend, its answers (the prior's), and ``TMPDIR`` in ``tmp_path/tmp``."""
    prior = random_labels(DIMS, 6, seed=8)
    answers = tmp_path / "answers"
    for name in ("live", "pids"):
        (answers / name).mkdir(parents=True)
    for tile in GRID.tiles:
        tio.write_nifti(extract_tile(prior, tile), answers / f"tile_{tile.index:03d}.nii")
    script = tmp_path / "replay.py"
    script.write_text(_REPLAY)
    workspaces = tmp_path / "tmp"
    workspaces.mkdir()
    monkeypatch.setenv("TMPDIR", str(workspaces))
    monkeypatch.setattr(tempfile, "tempdir", None)  # read TMPDIR again
    backend = ExternalProcessBackend(
        f"{sys.executable} -S {script} {answers} {{output}} {{spec}} {mode} {arg} {{input}}", 6
    )
    return backend, AtlasPriorOracle(prior), workspaces


def _launches(monkeypatch, log):
    """Log ``("launch", tile index)`` for each backend process started."""
    popen = subprocess.Popen

    def logged(args, **kwargs):
        log.append(("launch", json.loads(Path(args[5]).read_text())["index"]))
        return popen(args, **kwargs)

    monkeypatch.setattr(subprocess, "Popen", logged)


def test_a_worker_launches_a_tile_then_hands_on_the_last_and_writes_the_next(tmp_path, monkeypatch):
    backend, _, _ = _replay(tmp_path, monkeypatch)
    log = []
    _launches(monkeypatch, log)
    write, add = tio.write_nifti, StreamingVote.add
    monkeypatch.setattr(
        tio, "write_nifti",
        lambda vol, path: log.append(("write", int(Path(path).parent.name[4:7]))) or write(vol, path),
    )
    monkeypatch.setattr(
        StreamingVote, "add", lambda vote, tile, out: log.append(("vote", tile.index)) or add(vote, tile, out)
    )
    segment_all(backend, random_intensity(DIMS, seed=7), GRID, StreamingVote(GRID, 6).add)
    want = [("write", 0)]
    for k in range(GRID.k):
        want += [("launch", k)] + [("vote", k - 1)] * (k > 0) + [("write", k + 1)] * (k + 1 < GRID.k)
    assert log == want + [("vote", GRID.k - 1)]


def test_a_worker_launches_only_the_tiles_it_prepared(tmp_path, monkeypatch):
    backend, oracle, _ = _replay(tmp_path, monkeypatch)
    threads = {}  # (step, tile index) -> the thread that took the step
    popen, write = subprocess.Popen, tio.write_nifti

    def launch(args, **kwargs):
        threads["launch", json.loads(Path(args[5]).read_text())["index"]] = threading.get_ident()
        return popen(args, **kwargs)

    def write_input(vol, path):
        threads["write", int(Path(path).parent.name[4:7])] = threading.get_ident()
        write(vol, path)

    monkeypatch.setattr(subprocess, "Popen", launch)
    monkeypatch.setattr(tio, "write_nifti", write_input)
    vol = random_intensity(DIMS, seed=7)
    outs = segment_answers(backend, vol, GRID, jobs=2)
    assert [o.data.tobytes() for o in outs] == [o.data.tobytes() for o in segment_answers(oracle, vol, GRID)]
    assert len(threads) == 2 * GRID.k and len(set(threads.values())) == 2
    assert all(threads["launch", k] == threads["write", k] for k in range(GRID.k))


def test_a_tile_in_process_or_cached_is_handed_on_before_the_next_is_taken(tmp_path, monkeypatch):
    # nothing runs alongside such a tile, so no answer waits for the next one
    log = []
    read = tio.read_raw
    monkeypatch.setattr(tio, "read_raw", lambda path, *args: log.append("read") or read(path, *args))
    backend = AtlasPriorOracle(random_labels(DIMS, 6, seed=8))
    segment = backend.segment
    backend.segment = lambda tile_input, tile: log.append("segment") or segment(tile_input, tile)
    vol = random_intensity(DIMS, seed=7)
    for steps in (["read", "segment", "vote"], ["read", "vote"]):  # a cold cache, then a warm one
        log.clear()
        segment_all(backend, vol, GRID, lambda tile, out: log.append("vote"), cache_dir=tmp_path)
        assert log == steps * GRID.k


@pytest.mark.parametrize("jobs", [1, 2])
def test_at_most_jobs_backend_processes_run_at_once(tmp_path, monkeypatch, jobs):
    backend, oracle, workspaces = _replay(tmp_path, monkeypatch, "limit", str(jobs))
    vol = random_intensity(DIMS, seed=7)
    outs = segment_answers(backend, vol, GRID, jobs=jobs)
    assert [o.data.tobytes() for o in outs] == [o.data.tobytes() for o in segment_answers(oracle, vol, GRID)]
    assert not list(workspaces.iterdir())


def test_more_workers_than_cores_hand_on_and_cache_each_tile_once(tmp_path, monkeypatch):
    # the workers share the tile iterator, the running jobs and the cache's names
    backend, oracle, workspaces = _replay(tmp_path, monkeypatch)
    vol = random_intensity(DIMS, seed=7)
    want = [o.data.tobytes() for o in segment_answers(oracle, vol, GRID)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(2):  # a cold cache, then a warm one
            start = time.monotonic()
            outs = segment_answers(backend, vol, GRID, jobs=4, cache_dir=tmp_path / "cache")
            assert time.monotonic() - start < 60
            assert [o.data.tobytes() for o in outs] == want
    finally:
        sys.setswitchinterval(interval)
    kept = segment_all(backend, vol, GRID, lambda tile, out: None, jobs=4, cache_dir=tmp_path / "cache")
    assert sorted(kept) == sorted(path.name for path in (tmp_path / "cache").iterdir())
    assert len(kept) == GRID.k and not list(workspaces.iterdir())


def test_an_external_tile_failure_under_abort_launches_and_votes_no_later_tile(tmp_path, monkeypatch):
    backend, _, workspaces = _replay(tmp_path, monkeypatch, "fail", "3")
    log = []
    _launches(monkeypatch, log)
    voted = []
    with pytest.raises(SegmentationError, match="^tile 3: backend exited 1"):
        segment_all(backend, random_intensity(DIMS, seed=7), GRID, lambda tile, out: voted.append(tile.index))
    assert voted == [0, 1, 2]
    assert log == [("launch", i) for i in range(4)]
    assert not list(workspaces.iterdir())  # tile 4, prepared ahead, too


def test_a_resume_stops_at_a_failed_external_tile_among_cached_ones(tmp_path, monkeypatch):
    backend, _, workspaces = _replay(tmp_path, monkeypatch, "fail", "3")
    vol, cache = random_intensity(DIMS, seed=7), tmp_path / "cache"
    with pytest.warns(UserWarning, match="^tile 3 failed"):  # caches every tile but 3
        segment_all(backend, vol, GRID, lambda tile, out: None, on_tile_failure="background", cache_dir=cache)
    atlas, descriptor = _atlas_digest(vol), backend.descriptor().encode()
    for tile in GRID.tiles[:3]:
        (cache / _cache_key(atlas, extract_tile(vol, tile), tile, descriptor)).unlink()
    assert len(list(cache.iterdir())) == GRID.k - 4  # tiles 4 on
    voted = []
    with pytest.raises(SegmentationError, match="^tile 3: backend exited 1"):
        segment_all(backend, vol, GRID, lambda tile, out: voted.append(tile.index), cache_dir=cache)
    assert voted == [0, 1, 2]
    assert not list(workspaces.iterdir())


def test_an_external_tile_failure_under_background_is_the_same_at_any_jobs(tmp_path, monkeypatch):
    backend, oracle, workspaces = _replay(tmp_path, monkeypatch, "fail", "3")
    vol = random_intensity(DIMS, seed=7)
    want = [o.data.tobytes() for o in segment_answers(oracle, vol, GRID)]
    want[3] = bytes(len(want[3]))  # the background tile
    for jobs in (1, 2):
        with pytest.warns(UserWarning, match="^tile 3 failed .*substituting background"):
            outs = segment_answers(backend, vol, GRID, jobs=jobs, on_tile_failure="background")
        assert [o.data.tobytes() for o in outs] == want
        assert not list(workspaces.iterdir())


@pytest.mark.parametrize("policy", ["abort", "background"])
def test_a_tile_whose_input_cannot_be_written_fails_and_starts_no_process(tmp_path, monkeypatch, policy):
    backend, oracle, workspaces = _replay(tmp_path, monkeypatch)
    log = []
    _launches(monkeypatch, log)
    write = tio.write_nifti

    def full_at_tile_2(vol, path):
        if Path(path).parent.name.startswith("tile002_"):
            raise OSError("no space left")
        write(vol, path)

    monkeypatch.setattr(tio, "write_nifti", full_at_tile_2)
    vol = random_intensity(DIMS, seed=7)
    if policy == "abort":
        with pytest.raises(SegmentationError, match="^tile 2: no space left$"):
            segment_answers(backend, vol, GRID)
        assert log == [("launch", 0), ("launch", 1)]
    else:
        with pytest.warns(UserWarning, match="^tile 2 failed"):
            outs = segment_answers(backend, vol, GRID, on_tile_failure="background")
        assert not outs[2].data.any()
        assert [i for _, i in log] == [0, 1] + list(range(3, GRID.k))
    assert not list(workspaces.iterdir())

def _gone(pid: int) -> bool:
    """Whether a process has exited (a zombie left to init counts)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] in ("Z", "X")


def _left_running(answers) -> list:
    """The backend processes and their children, of those that noted their pids, still running."""
    pids = [int(p) for f in (answers / "pids").iterdir() for p in f.read_text().split()]
    assert pids, "no tile hung"
    deadline = time.monotonic() + 5  # a killed grandchild exits soon after its group's leader
    while any(not _gone(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    return [pid for pid in pids if not _gone(pid)]


def test_a_failed_tile_kills_the_hung_process_of_the_other_worker(tmp_path, monkeypatch):
    backend, _, workspaces = _replay(tmp_path, monkeypatch, "hang", "fail")
    start = time.monotonic()
    with pytest.raises(SegmentationError, match="^tile 0: backend exited 1"):
        segment_answers(backend, random_intensity(DIMS, seed=7), GRID, jobs=2)
    assert time.monotonic() - start < 20  # each hung tile would sleep 60 s
    assert not _left_running(tmp_path / "answers")
    assert not list(workspaces.iterdir())


@pytest.mark.parametrize("jobs", [1, 2])
def test_an_interrupt_kills_every_backend_process(tmp_path, monkeypatch, jobs):
    backend, _, workspaces = _replay(tmp_path, monkeypatch, "hang")
    pids = tmp_path / "answers" / "pids"

    def interrupt(tile, out):  # once tile 1's process (and its child) runs
        for _ in range(3000):
            if (pids / "1").exists():
                raise KeyboardInterrupt
            time.sleep(0.01)

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        segment_all(backend, random_intensity(DIMS, seed=7), GRID, interrupt, jobs=jobs)
    assert time.monotonic() - start < 20
    assert not _left_running(tmp_path / "answers")
    assert not list(workspaces.iterdir())


# --- spec strings ---


def test_parse_constant_spec():
    b = parse_backend_spec("constant:7", num_labels=10)
    assert isinstance(b, ConstantOracle)
    assert b.label == 7 and b.num_labels == 10


def test_parse_constant_spec_defaults_to_background():
    assert parse_backend_spec("constant").label == 0


def test_parse_prior_spec(tmp_path):
    prior = random_labels(DIMS, 6, seed=10)
    path = tmp_path / "prior.nii"
    tio.write_nifti(prior, path)
    b = parse_backend_spec(f"prior:{path}", num_labels=6)
    assert isinstance(b, AtlasPriorOracle)
    npt.assert_array_equal(b.prior.data, prior.data)


def test_parse_prior_spec_requires_path():
    with pytest.raises(SegmentationError, match="path"):
        parse_backend_spec("prior:")


def test_parse_external_spec():
    b = parse_backend_spec("external:model --fast {input} {output}", num_labels=9)
    assert isinstance(b, ExternalProcessBackend)
    assert b.command_template == "model --fast {input} {output}"
    assert b.num_labels == 9


def test_parse_unknown_spec():
    with pytest.raises(SegmentationError, match="unknown backend"):
        parse_backend_spec("magic:wand")


@pytest.mark.parametrize("order", ["C", "F"])
def test_cache_key_hashes_the_x_fastest_bytes_without_a_copy(tmp_path, order):
    # the user array's layout does not matter: the atlas is hashed once,
    # x-fastest and in place, and no key reads a tile's voxels
    geometry = make_centered_geometry((40, 36, 32))
    data = np.random.default_rng(6).uniform(0.0, 1.0, geometry.dims)
    vol = IntensityVolume(geometry, np.asfortranarray(data) if order == "F" else data)
    grid = build_grid(geometry.dims, (2, 2, 2), (24, 20, 18))
    backend = ConstantOracle(label=1, num_labels=4)
    segment_answers(backend, vol, grid, cache_dir=tmp_path)
    descriptor = backend.descriptor().encode()
    atlas = hashlib.sha256(json.dumps([[40, 36, 32], "<f8"]).encode())
    atlas.update(data.tobytes(order="F"))
    peak, got = peak_alloc(lambda: _atlas_digest(vol))
    assert got == atlas.digest()
    assert peak < vol.data.nbytes / 20
    want = []
    for tile in grid.tiles:
        tile_input = extract_tile(vol, tile)
        assert tile_input.data.strides == vol.data.strides
        key = hashlib.sha256(atlas.digest())
        key.update(descriptor)
        g = tile_input.geometry
        place = [tile.origin, tile.size, tile.index, g.spacing, g.index_to_world.matrix.tolist()]
        key.update(json.dumps(place).encode())
        want.append(key.hexdigest())
        peak, got = peak_alloc(lambda: _cache_key(atlas.digest(), tile_input, tile, descriptor))
        assert got == key.hexdigest()
        assert peak < tile_input.data.nbytes / 20
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(want)


def test_atlases_of_the_same_bytes_key_other_entries():
    # one tile on atlases whose voxels hold the same bytes: on permuted dims,
    # in another element type, and on another grid; the first three put the
    # tile on one grid, so only the atlas digest tells their keys apart
    raw = np.random.default_rng(8).uniform(0.0, 1.0, 120).astype(np.float32)
    i2w = make_centered_geometry((6, 4, 5)).index_to_world
    shifted = compose(AffineTransform.translation((5.0, 0.0, 0.0)), i2w)

    def atlas(dims, dtype=np.float32, affine=i2w):
        data = raw.copy().view(dtype).reshape(dims, order="F")
        return IntensityVolume._adopt(VolumeGeometry(dims, (1.0, 1.0, 1.0), affine), data)

    atlases = [atlas((6, 4, 5)), atlas((4, 6, 5)), atlas((3, 4, 5), np.float64), atlas((6, 4, 5), affine=shifted)]
    tile = TileSpec((0, 0, 0), (3, 4, 5), 0)
    inputs = [extract_tile(vol, tile) for vol in atlases]
    assert all(t.geometry.matches(inputs[0].geometry, tol=0.0) for t in inputs[:3])
    assert len({vol.data.tobytes(order="F") for vol in atlases}) == 1
    keys = {_cache_key(_atlas_digest(vol), t, tile, b"constant:0:4") for vol, t in zip(atlases, inputs)}
    assert len(keys) == len(atlases)


def test_a_cache_entry_is_keyed_on_the_tile_grid(tmp_path):
    # the same voxels on a grid shifted by 5 mm are other tiles: each grid
    # keeps its own entries, and neither overwrites the other's
    vol = random_intensity(DIMS, seed=5)
    i2w = compose(AffineTransform.translation((5.0, 0.0, 0.0)), vol.geometry.index_to_world)
    shifted = IntensityVolume(VolumeGeometry(DIMS, vol.geometry.spacing, i2w), vol.data)
    calls = []
    for atlas_vol in (vol, shifted, vol):
        backend = _CountingOracle(GRID.k)
        outs = segment_answers(backend, atlas_vol, GRID, cache_dir=tmp_path)
        calls.append(len(backend.calls))
        for out, tile in zip(outs, GRID.tiles):
            assert out.geometry.matches(extract_tile(atlas_vol, tile).geometry, tol=1e-9)
    assert calls == [GRID.k, GRID.k, 0]
    assert len(list(tmp_path.iterdir())) == 2 * GRID.k


@pytest.mark.parametrize("order", ["C", "F"])
def test_prior_descriptor_is_pinned(order):
    # the prior's voxels x-fastest as <u2, whatever its label type or the
    # caller's layout, so resume caches keyed on it match across both
    data = (np.arange(120).reshape(4, 5, 6) * 7) % 11
    prior = LabelVolume(make_centered_geometry((4, 5, 6)), np.asarray(data, order=order), 11)
    assert prior.data.dtype == np.uint8
    digest = "153c7e66e3a25c288bbf3d17c753a9c480d20febb80fda62cf599672ab619b76"
    assert hashlib.sha256(data.astype("<u2").tobytes(order="F")).hexdigest() == digest
    assert AtlasPriorOracle(prior).descriptor() == f"prior:{digest}:11"


def test_prior_descriptor_casts_no_copy_of_the_whole_prior():
    # a <u2 copy of a uint8 prior would weigh twice the prior
    geometry = make_centered_geometry((128, 128, 64))  # 1 Mi voxels
    data = np.random.default_rng(5).integers(0, 133, geometry.dims, dtype=np.uint8)
    backend = AtlasPriorOracle(LabelVolume(geometry, data, 133))
    backend.descriptor()  # first calls of numpy routines allocate once
    peak, got = peak_alloc(backend.descriptor)
    assert peak < 0.25 * data.nbytes
    digest = hashlib.sha256(data.astype("<u2").tobytes(order="F")).hexdigest()
    assert got == f"prior:{digest}:133"


@pytest.mark.parametrize("num_labels, dtype", [(4, np.uint8), (300, np.uint16)])
def test_built_in_answers_take_the_label_type(num_labels, dtype):
    vol = random_intensity(DIMS, seed=11)
    size = GRID.tiles[0].size
    corrupt = CorruptingWrapper(ConstantOracle(1, num_labels), 0, num_labels - 1)
    failing = ExternalProcessBackend("false {input} {output}", num_labels=num_labels)
    with pytest.warns(UserWarning, match="substituting background"):
        substituted = segment_answers(failing, vol, GRID, on_tile_failure="background")[0]
    corrupted, constant = segment_answers(corrupt, vol, GRID)[:2]
    for out, value in ((corrupted, num_labels - 1), (constant, 1), (substituted, 0)):
        assert out.data.dtype == dtype
        assert out.data.tobytes() == np.full(size, value, dtype).tobytes()


# --- answers handed to a vote as they land ---


class _PriorFailingTile(AtlasPriorOracle):
    """The prior's answers, except that tile 3 fails."""

    def segment(self, tile_input, tile):
        if tile.index == 3:
            raise RuntimeError("no answer for tile 3")
        return super().segment(tile_input, tile)


@pytest.mark.filterwarnings("ignore:tile 3 failed")
@pytest.mark.parametrize("jobs", [1, 2])
def test_a_substituted_tile_is_voted_like_any_answer(jobs):
    grid = build_grid((12, 12, 12), (3, 3, 3), (6, 6, 6))
    prior = random_labels(grid.atlas_dims, 4, seed=12)
    vol = random_intensity(grid.atlas_dims, seed=12)
    backend = _PriorFailingTile(prior)
    answers = segment_answers(backend, vol, grid, jobs=jobs, on_tile_failure="background")
    want = fuse_majority(answers, grid)
    vote, handed = StreamingVote(grid, 4), []

    def on_tile(tile, answer):
        handed.append(tile.index)
        vote.add(tile, answer)

    # no answer comes back, and without a cache no entry name either
    assert segment_all(backend, vol, grid, jobs=jobs, on_tile_failure="background",
                       on_tile=on_tile) == set()
    assert sorted(handed) == list(range(grid.k))
    got = fuse_majority(vote, grid)
    assert got.fused.data.tobytes() == want.fused.data.tobytes()
    assert got.tie_count == want.tie_count > 0
    assert np.any(got.fused.data != prior.data)  # the background tile took part


def test_segmenting_into_a_vote_holds_less_than_the_answers():
    # the benchmark's SMALL layout (3x3x3 overlapping tiles): pending parts
    # peak near 0.31 of the 27 answers' bytes, which a list of answers holds
    # all at once (1.38 of them with the tile inputs)
    grid = build_grid((48, 56, 40), (3, 3, 3), (24, 32, 20))
    prior = random_labels(grid.atlas_dims, 12, seed=13)
    vol = IntensityVolume(prior.geometry, random_intensity(grid.atlas_dims, seed=13).data.astype(np.float32))
    backend = AtlasPriorOracle(prior)
    answers = grid.k * int(np.prod(grid.tile_size)) * prior.data.itemsize
    segment_all(backend, vol, grid, on_tile=StreamingVote(grid, 12).add)  # first calls allocate once
    vote = StreamingVote(grid, 12)
    peak, _ = peak_alloc(lambda: segment_all(backend, vol, grid, on_tile=vote.add))
    assert peak < answers
    assert fuse_majority(vote, grid).fused.data.tobytes() == prior.data.tobytes()
