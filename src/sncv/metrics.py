"""ROC/AUC statistics: midrank AUC with retained placement components, variance
and covariance of correlated AUCs, two-tailed and non-inferiority z-tests, and
stratified bootstrap confidence intervals.

Both the AUC and each bootstrap replicate come from one count: how many
positives and negatives fall in each tie group of the sorted scores (the
midrank placements of Sun & Xu 2014). A replicate reweights those counts, so
the scores are sorted once per call. The AUC numerator is a sum of
half-integers, exact in float64 up to the sizes used here, and is divided by
n_pos*n_neg in a single operation; this makes the estimate match exhaustive
pair counting bitwise and gives exact midrank symmetry under score negation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import record


@dataclass(frozen=True)
class RocResult:
    auc: float
    n_positive: int
    n_negative: int
    # per-example structural components: positive placements average to auc,
    # negative placements average to 1 - auc
    pos_placements: np.ndarray
    neg_placements: np.ndarray


@dataclass(frozen=True)
class DelongComparison:
    auc_a: float
    auc_b: float
    delta: float
    variance_of_delta: float
    z: float
    p_two_tailed: float | None = None
    p_noninferiority: float | None = None
    margin: float | None = None
    non_inferior: bool | None = None


def _validate(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scores as floats and the mask of positive labels."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be aligned 1-d arrays")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    pos, neg = labels == 1, labels == 0
    if not (pos | neg).all():
        raise ValueError(f"labels must be binary 0/1, got {np.unique(labels).tolist()}")
    if not (pos.any() and neg.any()):
        raise ValueError("degenerate-labels: need at least one positive and one negative")
    return scores, pos


def _tie_groups(scores, labels) -> tuple[np.ndarray, np.ndarray, int]:
    """Tie-group index (rank of the distinct score) of each positive and of
    each negative, in input order, and the number of groups; one sort."""
    scores, pos = _validate(scores, labels)
    values, group = np.unique(scores, return_inverse=True)
    return group[pos], group[~pos], len(values)


def _half_below(counts: np.ndarray) -> np.ndarray:
    """Per tie group: how many of the counted class lie below it, plus half of
    those tied in it (the placement numerator of the other class there)."""
    return np.cumsum(counts) - 0.5 * counts


def roc_auc(scores, labels) -> RocResult:
    """Mann-Whitney midrank AUC with ties counted 1/2, O(n log n)."""
    gp, gn, k = _tie_groups(scores, labels)
    m, n = len(gp), len(gn)
    pos_below = _half_below(np.bincount(gn, minlength=k))[gp]
    neg_below = _half_below(np.bincount(gp, minlength=k))[gn]
    auc = float(pos_below.sum()) / (m * n)
    return RocResult(auc=auc, n_positive=m, n_negative=n,
                     pos_placements=pos_below / n, neg_placements=neg_below / m)


def _upper_tail(z: float) -> float:
    """P(Z > z) for a standard normal Z; scipy's norm.sf(z) computes the same ndtr(-z)."""
    # Imported here: scipy costs every other command about a second to load.
    from scipy.special import ndtr
    return float(ndtr(-z))


def _delong(scores_a, scores_b, labels) -> tuple[RocResult, RocResult, float, float]:
    """Both AUCs, their difference a - b and its DeLong variance."""
    ra = roc_auc(scores_a, labels)
    rb = roc_auc(scores_b, labels)
    m, n = ra.n_positive, ra.n_negative
    if m < 2 or n < 2:
        raise ValueError("degenerate-labels: need >= 2 positives and >= 2 negatives")
    s_pos = np.cov(np.stack([ra.pos_placements, rb.pos_placements]))
    s_neg = np.cov(np.stack([ra.neg_placements, rb.neg_placements]))
    s = s_pos / m + s_neg / n
    return ra, rb, ra.auc - rb.auc, float(s[0, 0] + s[1, 1] - 2.0 * s[0, 1])


def delong_two_tailed(scores_a, scores_b, labels) -> DelongComparison:
    """Two-tailed test of equal AUC for two score vectors on the same labels."""
    ra, rb, delta, var = _delong(scores_a, scores_b, labels)
    if var <= 0:
        if delta == 0:
            return DelongComparison(auc_a=ra.auc, auc_b=rb.auc, delta=0.0,
                                    variance_of_delta=0.0, z=0.0, p_two_tailed=1.0)
        raise ValueError("degenerate-variance: zero variance with nonzero AUC difference")
    z = delta / np.sqrt(var)
    p = 2.0 * _upper_tail(abs(z))
    return DelongComparison(auc_a=ra.auc, auc_b=rb.auc, delta=delta,
                            variance_of_delta=var, z=float(z), p_two_tailed=p)


def delong_noninferiority(scores_candidate, scores_reference, labels,
                          margin: float, alpha: float = 0.05) -> DelongComparison:
    """One-sided test of H0: AUC_candidate <= AUC_reference - margin.

    Rejecting H0 (p < alpha) declares the candidate non-inferior. With zero
    variance the continuity limit applies: p = 0 when delta + margin > 0,
    p = 1/2 at the boundary, p = 1 below it.
    """
    if margin <= 0:
        raise ValueError("margin must be positive")
    ra, rb, delta, var = _delong(scores_candidate, scores_reference, labels)
    if var <= 0:
        shifted = delta + margin
        p = 0.0 if shifted > 0 else (0.5 if shifted == 0 else 1.0)
        z = float("inf") if shifted > 0 else (0.0 if shifted == 0 else float("-inf"))
    else:
        z = float((delta + margin) / np.sqrt(var))
        p = _upper_tail(z)
    return DelongComparison(auc_a=ra.auc, auc_b=rb.auc, delta=delta,
                            variance_of_delta=max(var, 0.0), z=z,
                            p_noninferiority=p, margin=margin, non_inferior=p < alpha)


def bootstrap_auc_ci(scores, labels, n_boot: int, seed: int) -> tuple[float, float]:
    """95% percentile CI from seeded stratified resamples (class counts preserved).

    A replicate draws positives and negatives with replacement; its AUC needs
    only how many drawn negatives lie below, and tie with, each tie group that
    holds a positive, so the scores are sorted once. With p such groups, the
    negatives fall in 2p+1 buckets: bucket 2r below the r-th group (and above
    the one before), bucket 2r+1 tied with it, the last above every positive.
    The numerator is counted in integers, twice the placements, and halved
    exactly before the one division."""
    if n_boot < 100:
        raise ValueError("n_boot must be >= 100")
    gp, gn, _ = _tie_groups(scores, labels)
    m, n = len(gp), len(gn)
    pos_groups, rp = np.unique(gp, return_inverse=True)
    p = len(pos_groups)
    r = np.searchsorted(pos_groups, gn)
    bucket = 2 * r + (pos_groups[np.minimum(r, p - 1)] == gn)
    reps = np.empty(n_boot)
    for b in range(n_boot):
        rng = np.random.default_rng([seed, b])
        pos_draw = rng.integers(0, m, size=m)
        neg_w = np.bincount(bucket[rng.integers(0, n, size=n)], minlength=2 * p + 1)
        twice_below = np.cumsum(neg_w)[:-1:2]
        twice_below *= 2
        twice_below += neg_w[1::2]
        reps[b] = twice_below[rp[pos_draw]].sum() * 0.5 / (m * n)
    tail = (1.0 - 0.95) / 2.0  # 0.025000000000000022; the literal 0.025 would move every CI
    lo, hi = np.quantile(reps, [tail, 1.0 - tail])
    return float(lo), float(hi)


def confusion_matrix(labels_a, labels_b, scheme) -> np.ndarray:
    """2x2 counts of binarized labels_a (rows) against binarized labels_b (columns)."""
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.shape != b.shape:
        raise ValueError("label lists must have equal length")
    a_bin = scheme.positive_mask(a).astype(int)
    b_bin = scheme.positive_mask(b).astype(int)
    return np.bincount(2 * a_bin + b_bin, minlength=4).reshape(2, 2)


def comparison_record(name_a: str, name_b: str, comp: DelongComparison) -> dict:
    """JSON-ready summary of one model-pair comparison: the comparison's
    fields that are not None, with non_inferior written as its decision and
    the infinite z of a difference without variance written as null."""
    summary = {"model_a": name_a, "model_b": name_b,
               **{name: v for name, v in record(comp).items() if v is not None}}
    if np.isinf(summary["z"]):
        summary["z"] = None
    if "non_inferior" in summary:
        summary["decision"] = "non-inferior" if summary.pop("non_inferior") else "-"
    return summary
