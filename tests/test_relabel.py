"""Relabeling-workflow and grader-analysis tests."""

import dataclasses
import hashlib

import numpy as np
import pytest

from sncv import (
    default_grader_pool,
    default_scheme,
    grader_mismatch_analysis,
    run_relabel_experiment,
    specialist_labels,
)
from sncv.dataset import Dataset
from sncv.scoring import ScoredDataset
from sncv.synth import POOL_ROLES


def make_scored_with_truth(labels, truths, qs_values, graders=None, model_sides=None):
    scheme = default_scheme()
    n = len(labels)
    probs = np.zeros((n, 4))
    for i in range(n):
        if model_sides is not None:
            target = 2 if model_sides[i] else 0
        else:
            side_pos = scheme.is_positive(labels[i])
            agree = qs_values[i] > 0
            target = (2 if side_pos else 0) if agree else (0 if side_pos else 2)
        probs[i, target] = abs(qs_values[i])
        rest = (1.0 - abs(qs_values[i])) / 3
        for c in range(4):
            if c != target:
                probs[i, c] = rest
    ds = Dataset(scheme, ids=[f"r{i:04d}" for i in range(n)], X=np.zeros((n, 2)), y=labels,
                 true_y=truths, grader=graders)
    fold = ["D1" if i % 2 == 0 else "D2" for i in range(n)]
    return ScoredDataset(ds, fold, qs_values, probs)


def per_row_specialist_label(example_id, true_label, n_classes, error_rate, seed):
    """The specialist's label as it was drawn one row at a time, kept as a
    bitwise reference for specialist_labels."""
    digest = hashlib.blake2s(f"{seed}:{example_id}".encode(), digest_size=8).digest()
    rng = np.random.default_rng(int.from_bytes(digest, "big"))
    if error_rate == 0 or rng.random() >= error_rate:
        return true_label
    row = np.full(n_classes, 1.0 / (n_classes - 1))
    row[true_label] = 0.0
    draw = int(np.searchsorted(np.cumsum(row), rng.random(), side="right"))
    return min(draw, n_classes - 1)


class TestSpecialistOracle:
    def test_zero_error_rate_reproduces_truth(self):
        labels = specialist_labels([f"e{i}" for i in range(50)], [2] * 50, 4, 0.0, seed=1)
        assert labels.tolist() == [2] * 50

    def test_deterministic_under_seed(self):
        ids = [f"e{i}" for i in range(100)]
        labels_a = specialist_labels(ids, [1] * 100, 4, 0.5, seed=9)
        labels_b = specialist_labels(ids, [1] * 100, 4, 0.5, seed=9)
        np.testing.assert_array_equal(labels_a, labels_b)

    def test_noisy_labels_pinned(self):
        # the per-id draws at a nonzero error rate, which the golden study
        # (error rate 0) never makes
        labels = specialist_labels([f"ex{i:06d}" for i in range(500)],
                                   [i % 4 for i in range(500)], 4, 0.3, seed=2024)
        assert hashlib.sha256(",".join(map(str, labels)).encode()).hexdigest() == \
            "19c6fc84f13d73bb1be0c5f8e06d99e8dee13ea40520bff4722b487c4340bb8f"

    @pytest.mark.parametrize("n_classes", [2, 4])
    @pytest.mark.parametrize("error_rate", [0.2, 0.5, 0.9])
    def test_equals_per_row_reference(self, n_classes, error_rate):
        ids = [f"ex{i:06d}" for i in range(1500)]
        truths = [i % n_classes for i in range(1500)]
        labels = specialist_labels(ids, truths, n_classes, error_rate, seed=31)
        expected = [per_row_specialist_label(i, t, n_classes, error_rate, 31)
                    for i, t in zip(ids, truths)]
        assert labels.tolist() == expected
        assert (labels != truths).any()

    def test_reversed_rows_reverse_the_labels(self):
        ids = [f"ex{i:06d}" for i in range(400)]
        truths = [i % 4 for i in range(400)]
        forward = specialist_labels(ids, truths, 4, 0.5, seed=5)
        backward = specialist_labels(ids[::-1], truths[::-1], 4, 0.5, seed=5)
        np.testing.assert_array_equal(backward[::-1], forward)

    def test_error_rate_bounds(self):
        with pytest.raises(ValueError, match="error_rate"):
            specialist_labels(["e0"], [0], 4, 1.0, seed=0)


class TestRunRelabelExperiment:
    def test_noiseless_dataset_zero_relabel_rate(self):
        labels = [0, 1, 2, 3] * 10
        scored = make_scored_with_truth(labels, labels, [0.8] * 40)
        report = run_relabel_experiment(scored, 10, 0.0, seed=0)
        assert report.relabel_rate == 0.0
        assert report.binarized_relabel_rate == 0.0

    def test_flipped_tranche_sides_with_model(self):
        # 90% of the low-QS tranche carries flipped labels: the zero-error
        # oracle overwhelmingly sides with the model over the original label
        n = 200
        truths = [2] * n
        labels = [1] * 180 + [2] * 20           # 180 flipped to low-risk
        qs = [-0.9] * 180 + [-0.5] * 20         # model disputes everything
        model_sides = [True] * n                 # model says referable
        scored = make_scored_with_truth(labels, truths, qs, model_sides=model_sides)
        report = run_relabel_experiment(scored, n, 0.0, seed=3)
        assert report.relabel_rate == pytest.approx(0.9)
        assert report.model_agreement_rate > 0.85

    def test_confusion_layout_matches_binarized_counts(self):
        labels = [0, 0, 2, 2]
        truths = [0, 2, 0, 2]
        scored = make_scored_with_truth(labels, truths, [-0.5, -0.6, -0.7, -0.8])
        report = run_relabel_experiment(scored, 4, 0.0, seed=0)
        np.testing.assert_array_equal(report.confusion, [[1, 1], [1, 1]])
        assert report.n_relabeled == 4

    def test_agreement_denominator_excludes_positive_qs(self):
        # two boundary disagreements (qs<0) where truth sides with the model,
        # plus two agreements (qs>0): primary rate uses only the first two
        labels = [1, 1, 0, 0]
        truths = [2, 2, 0, 0]
        qs = [-0.9, -0.8, 0.9, 0.8]
        model_sides = [True, True, False, False]
        scored = make_scored_with_truth(labels, truths, qs, model_sides=model_sides)
        report = run_relabel_experiment(scored, 4, 0.0, seed=0)
        assert report.n_boundary_disagreements == 2
        assert report.model_agreement_rate == 1.0
        # unconditional rate counts the agreements' side-match too
        assert report.model_agreement_rate_all == 1.0

    def test_missing_truth_errors(self):
        ds = Dataset(default_scheme(), ids=["x"], X=np.zeros((1, 2)), y=[0])
        scored = ScoredDataset(ds, fold=["D1"], qs=[0.5], probs=[[0.7, 0.1, 0.1, 0.1]])
        with pytest.raises(ValueError, match="no-ground-truth"):
            run_relabel_experiment(scored, 1, 0.0, seed=0)

    def test_deterministic_report(self):
        rng = np.random.default_rng(5)
        truths = rng.integers(0, 4, size=100)
        labels = truths.copy()
        labels[:30] = (truths[:30] + 2) % 4
        qs = np.where(np.arange(100) < 30, -0.8, 0.6)
        scored = make_scored_with_truth(labels, truths, qs)
        a = run_relabel_experiment(scored, 40, 0.2, seed=11)
        b = run_relabel_experiment(scored, 40, 0.2, seed=11)
        assert dataclasses.asdict(a) == dataclasses.asdict(b)


class TestGraderMismatchAnalysis:
    def test_mismatch_rates_and_flags(self):
        labels = [0] * 10
        truths = [0] * 10
        qs = [-0.5] * 4 + [0.5] * 6
        graders = ["bad"] * 4 + ["good"] * 6
        scored = make_scored_with_truth(labels, truths, qs, graders=graders)
        report = grader_mismatch_analysis(scored, pool=None, threshold=0.30)
        by_id = {g.grader_id: g for g in report.graders}
        assert by_id["bad"].mismatch_rate == 1.0 and by_id["bad"].flagged
        assert by_id["good"].mismatch_rate == 0.0 and not by_id["good"].flagged

    def test_single_overcaller_flagged_when_positive_rate_high(self):
        # one grader labels everything class 0 on a half-positive set: the
        # model disputes about half their labels, above the 0.30 threshold
        truths = [2] * 25 + [0] * 25
        labels = [0] * 50
        qs = [-0.8] * 25 + [0.8] * 25
        model_sides = [True] * 25 + [False] * 25
        scored = make_scored_with_truth(labels, truths, qs, graders=["mono"] * 50,
                                        model_sides=model_sides)
        report = grader_mismatch_analysis(scored, threshold=0.30)
        assert report.graders[0].mismatch_rate == pytest.approx(0.5)
        assert report.graders[0].flagged

    def test_no_grader_ids_errors(self):
        labels = [0, 2]
        scored = make_scored_with_truth(labels, labels, [0.5, 0.6])
        with pytest.raises(ValueError, match="no grader ids"):
            grader_mismatch_analysis(scored)

    def test_role_shares_from_reference_pool(self, small_scored):
        report = grader_mismatch_analysis(small_scored["scored"],
                                          small_scored["pool"], threshold=0.30)
        shares = report.flagged_role_shares
        assert shares["glaucoma-specialist"] == 0.0
        assert shares["trainee-fellow"] == max(shares.values())
        assert report.pool_role_shares["glaucoma-specialist"] == pytest.approx(5 / 14)

    def test_pool_shares_count_a_grader_without_rows(self):
        # of the default pool's 14 graders, the first glaucoma specialist
        # labels no row of the file; the pool still holds 5 of them
        pool = default_grader_pool()
        absent = pool[0]
        assert absent.role == "glaucoma-specialist"
        graders = [p.grader_id for p in pool[1:]] * 2
        n = len(graders)
        scored = make_scored_with_truth([0] * n, [0] * n, [0.5] * n, graders=graders)
        report = grader_mismatch_analysis(scored, pool, threshold=0.30)
        assert absent.grader_id not in {g.grader_id for g in report.graders}
        assert len(report.graders) == 13
        assert report.pool_role_shares == {
            role: sum(p.role == role for p in pool) / 14 for role in POOL_ROLES}
        assert report.pool_role_shares["glaucoma-specialist"] == 5 / 14


class TestFilterByGraderRole:
    def test_specialist_share_matches_workload(self, small_noisy_setup):
        # the rows whose grader has a role make up that role's workload share
        ds = small_noisy_setup["train"]
        pool = small_noisy_setup["pool"]
        specialists = [p.grader_id for p in pool if p.role == "glaucoma-specialist"]
        share = np.isin(ds.grader, specialists).mean()
        expected = sum(p.workload_weight for p in pool
                       if p.role == "glaucoma-specialist")
        assert share == pytest.approx(expected, abs=0.03)
