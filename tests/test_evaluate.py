import json
import math

import numpy as np
import numpy.testing as npt
import pytest

from conftest import peak_alloc, random_labels
from tileseg.evaluate import EvaluateError, dice, report
from tileseg.geometry import LabelVolume, make_centered_geometry


def _labels(values, num_labels):
    values = np.asarray(values, dtype=np.uint16)
    g = make_centered_geometry((values.size, 1, 1))
    return LabelVolume(g, values.reshape(values.size, 1, 1), num_labels)


def test_identical_volumes_score_one():
    vol = random_labels((6, 6, 6), 5, seed=1)
    rep = report(vol, vol)
    for label, value in rep.defined().items():
        assert value == 1.0
    assert rep.mean_dsc == 1.0
    assert rep.median_dsc == 1.0


def test_disjoint_masks_score_zero():
    a = _labels([1, 1, 0, 0], 2)
    b = _labels([0, 0, 1, 1], 2)
    assert dice(a, b, 1) == 0.0


def test_half_overlap_by_hand():
    # |A| = 2, |B| = 2, |A ∩ B| = 1: DSC = 2*1/4 = 0.5
    a = _labels([1, 1, 0, 0], 2)
    b = _labels([0, 1, 1, 0], 2)
    assert dice(a, b, 1) == 0.5
    rep = report(a, b)
    assert rep.per_label[1] == 0.5
    assert rep.labels_evaluated == 1


def test_dice_is_symmetric():
    a = random_labels((5, 5, 5), 4, seed=2)
    b = random_labels((5, 5, 5), 4, seed=3)
    for label in range(1, 4):
        assert dice(a, b, label) == dice(b, a, label)


def test_label_absent_from_both_is_undefined():
    a = _labels([0, 1, 1, 0], 3)
    b = _labels([0, 1, 0, 0], 3)
    assert dice(a, b, 2) is None
    rep = report(a, b)
    assert rep.per_label[2] is None
    assert 2 not in rep.defined()
    assert rep.labels_evaluated == 1


def test_mean_and_median_over_defined_labels_only():
    # label 1 scores 1.0, label 2 scores 0.5, label 3 undefined
    a = _labels([1, 1, 2, 2, 0, 0], 4)
    b = _labels([1, 1, 2, 0, 2, 0], 4)
    rep = report(a, b)
    assert rep.per_label[1] == 1.0
    assert rep.per_label[2] == 0.5
    assert rep.per_label[3] is None
    assert rep.labels_evaluated == 2
    npt.assert_allclose(rep.mean_dsc, 0.75)
    npt.assert_allclose(rep.median_dsc, 0.75)


def test_label_present_on_one_side_scores_zero():
    a = _labels([2, 0], 3)
    b = _labels([0, 0], 3)
    assert dice(a, b, 2) == 0.0


def test_all_background_volumes_have_no_defined_scores():
    g = make_centered_geometry((3, 3, 3))
    a = LabelVolume(g, np.zeros((3, 3, 3), dtype=np.uint16), 4)
    rep = report(a, a)
    assert rep.labels_evaluated == 0
    assert math.isnan(rep.mean_dsc)
    assert math.isnan(rep.median_dsc)
    assert all(v is None for v in rep.per_label.values())


def test_background_never_enters_the_summary():
    a = _labels([0, 0, 0, 1], 2)
    b = _labels([0, 0, 1, 1], 2)
    rep = report(a, b)
    assert set(rep.per_label) == {1}


def test_swapping_two_labels_consistently_keeps_scores():
    a = random_labels((6, 6, 6), 4, seed=5)
    b = random_labels((6, 6, 6), 4, seed=6)
    swap = np.array([0, 2, 1, 3], dtype=np.uint16)
    a2 = LabelVolume(a.geometry, swap[a.data], 4)
    b2 = LabelVolume(b.geometry, swap[b.data], 4)
    rep = report(a, b)
    rep2 = report(a2, b2)
    assert rep2.per_label[1] == rep.per_label[2]
    assert rep2.per_label[2] == rep.per_label[1]
    assert rep2.mean_dsc == rep.mean_dsc


def test_report_agrees_with_per_label_dice():
    a = random_labels((7, 6, 5), 5, seed=7)
    b = random_labels((7, 6, 5), 5, seed=8)
    rep = report(a, b)
    for label in range(1, 5):
        assert rep.per_label[label] == dice(a, b, label)


def _int64_report(auto, manual):
    """The per-label counts over both volumes widened whole to int64."""
    L = auto.num_labels
    a = auto.data.reshape(-1).astype(np.int64)
    b = manual.data.reshape(-1).astype(np.int64)
    count_a = np.bincount(a, minlength=L)
    count_b = np.bincount(b, minlength=L)
    count_both = np.bincount(a[a == b], minlength=L)
    per_label = {}
    for label in range(1, L):
        denom = int(count_a[label]) + int(count_b[label])
        per_label[label] = 2.0 * int(count_both[label]) / denom if denom else None
    scores = [v for v in per_label.values() if v is not None]
    return per_label, float(np.mean(scores)), float(np.median(scores)), len(scores)


@pytest.mark.parametrize("num_labels", [133, 300])
@pytest.mark.parametrize("orders", ["FF", "CC", "FC"])
def test_report_counts_without_widening_the_volumes(orders, num_labels):
    # 580,545 voxels: nine whole counting chunks and a partial one
    g = make_centered_geometry((97, 95, 63))
    rng = np.random.default_rng(21)
    truth = rng.integers(0, num_labels, g.dims)
    auto = np.where(rng.random(g.dims) < 0.7, truth, rng.integers(0, num_labels, g.dims))
    a = LabelVolume(g, np.asarray(auto, order=orders[0]), num_labels)
    m = LabelVolume(g, np.asarray(truth, order=orders[1]), num_labels)
    peak, got = peak_alloc(lambda: report(a, m))
    assert (got.per_label, got.mean_dsc, got.median_dsc, got.labels_evaluated) == _int64_report(a, m)
    # int64 copies of both volumes were 16 bytes a voxel; what is left is one
    # copy of a volume whose memory order differs, and chunk-sized counts
    copy = a.data.nbytes if orders == "FC" else 0
    assert peak < copy + 1.5 * 2**20


def test_rejects_dim_mismatch():
    a = random_labels((4, 4, 4), 3)
    b = random_labels((4, 4, 5), 3)
    with pytest.raises(EvaluateError, match="dims"):
        report(a, b)
    with pytest.raises(EvaluateError, match="dims"):
        dice(a, b, 1)


def test_rejects_label_count_mismatch():
    a = random_labels((4, 4, 4), 3, seed=1)
    b = LabelVolume(a.geometry, a.data, 4)
    with pytest.raises(EvaluateError, match="label counts"):
        report(a, b)


def test_text_rendering_marks_undefined():
    a = _labels([0, 1, 1, 0], 3)
    b = _labels([0, 1, 0, 0], 3)
    text = report(a, b).to_text()
    lines = text.splitlines()
    assert lines[0] == "label\tdsc"
    assert "2\tundefined" in lines
    assert any(line.startswith("# mean_dsc") for line in lines)


def test_save_writes_table_and_summary(tmp_path):
    a = random_labels((5, 5, 5), 4, seed=9)
    b = random_labels((5, 5, 5), 4, seed=10)
    rep = report(a, b)
    rep.save(tmp_path / "eval")
    table = (tmp_path / "eval" / "dice_per_label.tsv").read_text()
    assert table == rep.to_text()
    summary = json.loads((tmp_path / "eval" / "dice_summary.json").read_text())
    assert summary["labels_evaluated"] == rep.labels_evaluated
    npt.assert_allclose(summary["mean_dsc"], rep.mean_dsc)
