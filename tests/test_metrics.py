"""ROC/AUC and test-statistics checks against independent oracles."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import norm

from sncv import (
    bootstrap_auc_ci,
    confusion_matrix,
    default_scheme,
    delong_noninferiority,
    delong_two_tailed,
    roc_auc,
)
from sncv.metrics import _upper_tail


def pair_counting_auc(scores, labels):
    """O(n^2) oracle: fraction of positive/negative pairs correctly ordered,
    ties counted one half. Single final division mirrors exact arithmetic."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (float(wins) + 0.5 * float(ties)) / (len(pos) * len(neg))


def paired_bootstrap_ps(a, b, labels, inst, n_boot=20000):
    """Paired (stratified) bootstrap of delta-AUC under the seeded [552, inst]
    draws; returns the percentile two-tailed p (ties half-weighted) and the
    bootstrap-SE normal p. Each replicate's AUC is counted from its draw
    counts: twice its numerator is the positive counts times the doubled
    pair-outcome matrix (2 ordered, 1 tied) times the negative counts, in
    exact integers, over all replicates at once."""
    pos_idx = np.flatnonzero(labels == 1)
    neg_idx = np.flatnonzero(labels == 0)
    m, n = len(pos_idx), len(neg_idx)
    brng = np.random.default_rng([552, inst])
    draws = [(brng.integers(0, m, m), brng.integers(0, n, n)) for _ in range(n_boot)]
    pos_draws, neg_draws = (np.array(side) for side in zip(*draws))
    rows = np.arange(n_boot)[:, None]
    pos_w = np.bincount((rows * m + pos_draws).ravel(), minlength=n_boot * m).reshape(n_boot, m)
    neg_w = np.bincount((rows * n + neg_draws).ravel(), minlength=n_boot * n).reshape(n_boot, n)

    def aucs(scores):
        pos, neg = scores[pos_idx][:, None], scores[neg_idx][None, :]
        outcome = 2 * (pos > neg) + (pos == neg)
        return ((pos_w @ outcome) * neg_w).sum(axis=1) / (2 * m * n)

    deltas = aucs(a) - aucs(b)
    tie_half = 0.5 * (deltas == 0).mean()
    p_pct = min(1.0, 2 * min((deltas < 0).mean() + tie_half,
                             (deltas > 0).mean() + tie_half))
    delta_obs = pair_counting_auc(a, labels) - pair_counting_auc(b, labels)
    p_se = float(2 * norm.sf(abs(delta_obs) / deltas.std(ddof=1)))
    return p_pct, p_se


def _midrank(x):
    order = np.argsort(x, kind="mergesort")
    z = x[order]
    n = len(z)
    starts = np.flatnonzero(np.r_[True, z[1:] != z[:-1]])
    ends = np.r_[starts[1:], n]
    mids = 0.5 * (starts + ends - 1) + 1.0
    out = np.empty(n)
    out[order] = np.repeat(mids, ends - starts)
    return out


def reference_roc_auc(scores, labels):
    """Three-sort reference: midranks of the joint scores, of the positives and
    of the negatives. Returns (auc, pos_placements, neg_placements)."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    m, n = len(pos), len(neg)
    tz = _midrank(np.concatenate([pos, neg]))
    tx = _midrank(pos)
    ty = _midrank(neg)
    return float((tz[:m] - tx).sum()) / (m * n), (tz[:m] - tx) / n, (tz[m:] - ty) / m


def reference_bootstrap_auc_ci(scores, labels, n_boot, seed, level=0.95):
    """Per-replicate reference: resample each class with the same seeded
    draws, concatenate and run the reference AUC on the resample."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    m, n = len(pos), len(neg)
    lab = np.r_[np.ones(m, dtype=int), np.zeros(n, dtype=int)]
    reps = np.empty(n_boot)
    for b in range(n_boot):
        rng = np.random.default_rng([seed, b])
        sample = np.concatenate([pos[rng.integers(0, m, size=m)],
                                 neg[rng.integers(0, n, size=n)]])
        reps[b] = reference_roc_auc(sample, lab)[0]
    tail = (1.0 - level) / 2.0
    lo, hi = np.quantile(reps, [tail, 1.0 - tail])
    return float(lo), float(hi)


def float_numerator_bootstrap_auc_ci(scores, labels, n_boot, seed):
    """The same replicates with the numerator as a float dot product: both
    classes' tie-group counts, and the negatives' half-below counts in float64."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    values, group = np.unique(scores, return_inverse=True)
    gp, gn, k = group[labels == 1], group[labels == 0], len(values)
    m, n = len(gp), len(gn)
    reps = np.empty(n_boot)
    for b in range(n_boot):
        rng = np.random.default_rng([seed, b])
        pos_w = np.bincount(gp[rng.integers(0, m, size=m)], minlength=k)
        neg_w = np.bincount(gn[rng.integers(0, n, size=n)], minlength=k)
        reps[b] = float(pos_w @ (np.cumsum(neg_w) - 0.5 * neg_w)) / (m * n)
    tail = (1.0 - 0.95) / 2.0
    lo, hi = np.quantile(reps, [tail, 1.0 - tail])
    return float(lo), float(hi)


# few distinct values (heavy ties), both zeros, and arbitrary finite floats
SCORES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
                   st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))


@st.composite
def scored_labels(draw):
    pos = draw(st.lists(SCORES, min_size=1, max_size=30))
    neg = draw(st.lists(SCORES, min_size=1, max_size=30))
    order = draw(st.permutations(range(len(pos) + len(neg))))
    scores = np.array(pos + neg)[order]
    labels = np.r_[np.ones(len(pos), dtype=int), np.zeros(len(neg), dtype=int)][order]
    return scores, labels


def random_instance(rng, n_max=200, tie_prob=0.5):
    n = int(rng.integers(4, n_max + 1))
    labels = np.zeros(n, dtype=int)
    labels[: max(1, int(rng.integers(1, n)))] = 1
    rng.shuffle(labels)
    if labels.sum() == 0:
        labels[0] = 1
    if labels.sum() == n:
        labels[0] = 0
    if rng.random() < tie_prob:
        scores = rng.integers(0, 8, size=n).astype(float)  # heavy ties
    else:
        scores = rng.standard_normal(n)
    return scores, labels


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([1.0, 2.0, 3.0, 10.0, 11.0], [0, 0, 0, 1, 1]).auc == 1.0

    def test_hand_counted_example(self):
        # pairs (pos, neg): (0.35,0.1)+, (0.35,0.4)-, (0.8,0.1)+, (0.8,0.4)+ -> 3/4
        res = roc_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
        assert res.auc == pytest.approx(0.75)

    def test_all_ties_is_half(self):
        assert roc_auc([3.0] * 10, [0, 1] * 5).auc == 0.5

    def test_placement_structure(self):
        res = roc_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
        assert res.pos_placements.mean() == pytest.approx(res.auc)
        assert res.neg_placements.mean() == pytest.approx(1.0 - res.auc)

    def test_matches_pair_counting_oracle_exactly(self, rng):
        for _ in range(300):
            scores, labels = random_instance(rng)
            assert roc_auc(scores, labels).auc == pair_counting_auc(scores, labels)

    def test_midrank_symmetry_exact(self, rng):
        for _ in range(300):
            scores, labels = random_instance(rng)
            assert roc_auc(scores, labels).auc + roc_auc(-scores, labels).auc == 1.0

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_monotone_transform_invariance(self, seed):
        rng = np.random.default_rng(seed)
        scores, labels = random_instance(rng, n_max=60)
        transformed = np.exp(0.5 * scores) + 3.0
        assert roc_auc(scores, labels).auc == roc_auc(transformed, labels).auc

    def test_single_class_errors(self):
        with pytest.raises(ValueError, match="degenerate-labels"):
            roc_auc([0.1, 0.2], [1, 1])

    def test_nan_score_errors(self):
        with pytest.raises(ValueError, match="finite"):
            roc_auc([0.1, np.nan], [0, 1])


class TestAgainstThreeSortReference:
    @given(scored_labels(), st.integers(min_value=0, max_value=2**32 - 1))
    @example((np.array([0.0, -0.0, -0.0, 0.0]), np.array([1, 1, 0, 0])), 0)
    @example((np.array([1.0, 0.5, 0.5, 1.0]), np.array([0, 1, 0, 1])), 1)
    @settings(max_examples=150, deadline=None)
    def test_bitwise_equal(self, data, seed):
        scores, labels = data
        auc, pos_placements, neg_placements = reference_roc_auc(scores, labels)
        res = roc_auc(scores, labels)
        assert res.auc == auc
        assert np.array_equal(res.pos_placements, pos_placements)
        assert np.array_equal(res.neg_placements, neg_placements)
        assert bootstrap_auc_ci(scores, labels, 100, seed) == \
            reference_bootstrap_auc_ci(scores, labels, 100, seed)

    def test_bitwise_equal_at_20k(self):
        rng = np.random.default_rng(20_000)
        labels = (rng.random(20_000) < 0.25).astype(int)
        scores = np.round(rng.standard_normal(20_000) + labels, 2)  # ties included
        auc, pos_placements, neg_placements = reference_roc_auc(scores, labels)
        res = roc_auc(scores, labels)
        assert res.auc == auc
        assert np.array_equal(res.pos_placements, pos_placements)
        assert np.array_equal(res.neg_placements, neg_placements)
        assert bootstrap_auc_ci(scores, labels, 200, 4) == \
            reference_bootstrap_auc_ci(scores, labels, 200, 4)


def test_upper_tail_is_norm_sf_bitwise():
    rng = np.random.default_rng(31)
    z = np.r_[np.linspace(-40.0, 40.0, 8001), 0.0, -0.0, 5.0 * rng.standard_normal(4000),
              1e-3 * rng.standard_normal(1000)]
    assert [_upper_tail(v).hex() for v in z] == [p.hex() for p in norm.sf(z).tolist()]


class TestDelongTwoTailed:
    def test_identical_scores_give_p_one(self, rng):
        labels = np.array([0, 1] * 30)
        scores = rng.standard_normal(60)
        comp = delong_two_tailed(scores, scores, labels)
        assert comp.delta == 0.0
        assert comp.p_two_tailed == 1.0
        assert comp.variance_of_delta == 0.0

    def test_zero_variance_nonzero_delta_errors(self):
        # constant shifts with ties engineered so placements are constant
        labels = np.array([0, 0, 1, 1])
        a = np.array([0.0, 0.0, 1.0, 1.0])
        b = np.array([1.0, 1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="degenerate-variance"):
            delong_two_tailed(a, b, labels)

    def test_strong_vs_weak_marker_significant(self, rng):
        n = 200
        labels = np.array([0] * 100 + [1] * 100)
        strong = np.r_[rng.normal(0, 1, 100), rng.normal(2.5, 1, 100)]
        weak = np.r_[rng.normal(0, 1, 100), rng.normal(0.5, 1.5, 100)]
        comp = delong_two_tailed(strong, weak, labels)
        assert comp.delta > 0
        assert comp.p_two_tailed < 0.01

    def test_agrees_with_paired_bootstrap_single_small_instance(self):
        # the fixed 30-example paired instance: DeLong p within 0.03 of the
        # 20000-resample paired bootstrap under both p-value formulations
        rng = np.random.default_rng([551, 0])
        labels = np.r_[np.zeros(18, dtype=int), np.ones(12, dtype=int)]
        base = rng.standard_normal(30) + labels * 1.2
        a = base + 0.35 * rng.standard_normal(30)
        b = base + 0.35 * rng.standard_normal(30)
        comp = delong_two_tailed(a, b, labels)
        p_pct, p_se = paired_bootstrap_ps(a, b, labels, inst=0)
        assert abs(comp.p_two_tailed - p_pct) < 0.03
        assert abs(comp.p_two_tailed - p_se) < 0.03


class TestDelongNoninferiority:
    def test_identical_scores_noninferior(self, rng):
        labels = np.array([0, 1] * 40)
        scores = rng.standard_normal(80)
        comp = delong_noninferiority(scores, scores, labels, margin=0.02)
        assert comp.p_noninferiority < 0.05
        assert comp.non_inferior

    def test_worse_by_exactly_margin_gives_half(self, rng):
        # when the candidate trails the reference by exactly the margin,
        # the shifted statistic sits at zero and p lands at one half
        labels = np.array([0] * 60 + [1] * 40)
        reference = rng.standard_normal(100) + 1.5 * labels
        candidate = reference + 0.4 * rng.standard_normal(100)
        delta = delong_two_tailed(candidate, reference, labels).delta
        if delta >= 0:
            candidate, reference = reference, candidate
            delta = -delta
        comp = delong_noninferiority(candidate, reference, labels, margin=-delta)
        assert comp.p_noninferiority == pytest.approx(0.5, abs=1e-9)
        assert not comp.non_inferior

    def test_monotone_in_margin(self, rng):
        labels = np.array([0] * 50 + [1] * 50)
        a = rng.standard_normal(100) + labels
        b = rng.standard_normal(100) + labels
        p_small = delong_noninferiority(a, b, labels, margin=0.01).p_noninferiority
        p_big = delong_noninferiority(a, b, labels, margin=0.5).p_noninferiority
        assert p_big < p_small
        assert delong_noninferiority(a, b, labels, margin=50.0).p_noninferiority < 1e-12

    def test_margin_must_be_positive(self, rng):
        labels = np.array([0, 1] * 10)
        s = rng.standard_normal(20)
        with pytest.raises(ValueError, match="margin"):
            delong_noninferiority(s, s, labels, margin=0.0)


class TestBootstrapCI:
    def test_perfect_separation_collapses(self, rng):
        labels = np.r_[np.zeros(500, dtype=int), np.ones(500, dtype=int)]
        scores = labels * 10.0 + rng.random(1000)
        lo, hi = bootstrap_auc_ci(scores, labels, n_boot=200, seed=3)
        assert hi - lo < 0.01
        assert hi == pytest.approx(1.0, abs=1e-9)

    def test_interval_contains_point_estimate(self, rng):
        for trial in range(5):
            labels = (rng.random(300) < 0.3).astype(int)
            labels[:2] = [0, 1]
            scores = rng.standard_normal(300) + labels
            lo, hi = bootstrap_auc_ci(scores, labels, n_boot=300, seed=trial)
            point = roc_auc(scores, labels).auc
            assert lo <= point <= hi

    def test_seeded_reproducible(self, rng):
        labels = (rng.random(200) < 0.4).astype(int)
        labels[:2] = [0, 1]
        scores = rng.standard_normal(200) + labels
        assert bootstrap_auc_ci(scores, labels, 150, seed=9) == \
            bootstrap_auc_ci(scores, labels, 150, seed=9)

    @pytest.mark.parametrize("n_pos, n_neg, layout", [
        (2500, 2500, None),  # distinct scores
        (2500, 2500, 0),     # a handful of tie groups: scores rounded to 0 decimals
        (600, 4400, 1),      # m != n, ties
        (4400, 600, None),   # m != n, distinct
        (300, 700, "every_score_tied"),
        (300, 700, "positives_above"),  # above every negative
        (300, 700, "negatives_above"),  # above every positive
        (1, 999, 1),         # a single positive, tied with some negatives
    ])
    @pytest.mark.parametrize("seed", [0, 17, 2**31 + 5])
    def test_integer_numerator_matches_float_numerator(self, n_pos, n_neg, layout, seed):
        rng = np.random.default_rng([n_pos, seed])
        labels = rng.permutation(np.r_[np.ones(n_pos, dtype=int), np.zeros(n_neg, dtype=int)])
        scores = rng.standard_normal(n_pos + n_neg) + labels
        if isinstance(layout, int):
            scores = np.round(scores, layout)
        elif layout == "every_score_tied":
            scores = np.full(n_pos + n_neg, 0.25)
        elif layout is not None:
            scores += {"positives_above": 20.0, "negatives_above": -20.0}[layout] * labels
            assert abs(roc_auc(scores, labels).auc - 0.5) == 0.5
        assert bootstrap_auc_ci(scores, labels, 200, seed) == \
            float_numerator_bootstrap_auc_ci(scores, labels, 200, seed)

    def test_requires_minimum_replicates(self, rng):
        labels = np.array([0, 1] * 10)
        with pytest.raises(ValueError, match="n_boot"):
            bootstrap_auc_ci(rng.standard_normal(20), labels, n_boot=50, seed=0)

    def test_coverage_near_nominal(self):
        # true AUC for the binormal design: P(X1 + Z1 > Z0) with Z iid N(0,1)
        # equals Phi(mu / sqrt(2)); coverage over repetitions should be ~95%
        mu = 1.466  # Phi(1.466/sqrt(2)) ~ 0.85
        true_auc = float(norm.cdf(mu / np.sqrt(2)))
        reps = 500
        hits = 0
        for r in range(reps):
            rng = np.random.default_rng([7700, r])
            labels = np.r_[np.zeros(350, dtype=int), np.ones(150, dtype=int)]
            scores = rng.standard_normal(500) + mu * labels
            lo, hi = bootstrap_auc_ci(scores, labels, n_boot=200, seed=r)
            hits += lo <= true_auc <= hi
        assert 0.92 <= hits / reps <= 0.98


class TestConfusionMatrix:
    def test_relabel_layout(self):
        # original non-refer -> [144 non-refer, 372 refer];
        # original refer -> [667 non-refer, 94 refer]
        scheme = default_scheme()
        a = [0] * (144 + 372) + [2] * (667 + 94)
        b = [0] * 144 + [2] * 372 + [0] * 667 + [2] * 94
        out = confusion_matrix(a, b, scheme)
        np.testing.assert_array_equal(out, [[144, 372], [667, 94]])
        assert out.sum() == 1277

    def test_identical_labels_diagonal(self):
        scheme = default_scheme()
        labels = [0, 1, 2, 3, 2, 0]
        out = confusion_matrix(labels, labels, scheme)
        assert out[0, 1] == 0 and out[1, 0] == 0

    def test_complementary_labels_antidiagonal(self):
        scheme = default_scheme()
        a = [0, 0, 2, 2]
        b = [2, 2, 0, 0]
        out = confusion_matrix(a, b, scheme)
        assert out[0, 0] == 0 and out[1, 1] == 0
        assert out[0, 1] == 2 and out[1, 0] == 2

    def test_length_mismatch_errors(self):
        with pytest.raises(ValueError, match="equal length"):
            confusion_matrix([0, 1], [0], default_scheme())
