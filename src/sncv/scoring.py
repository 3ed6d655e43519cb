"""Quality scores from cross-fold predictions.

Each example's quality score is the opposite-fold model's maximum softmax
probability, signed positive when the predicted class and the observed label
fall on the same side of the referability boundary and negative otherwise.
For K classes the magnitude is therefore confined to [1/K, 1], leaving an
empty gap around zero.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .dataset import FOLD_NAMES, ClassScheme, Dataset, _read_csv, _write_csv, split_mask
from .trainer import Hyperparams, Model, predict_proba, train_many


@dataclass(eq=False)
class ScoredDataset:
    """A dataset plus its cross-fold columns: the fold each row trained in, its
    quality score and the scoring model's probability row."""

    dataset: Dataset
    fold: np.ndarray
    qs: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        n, k = len(self.dataset), self.dataset.scheme.n_classes
        self.fold = np.asarray(self.fold, dtype=str)
        self.qs = np.asarray(self.qs, dtype=float)
        self.probs = np.asarray(self.probs, dtype=float)
        if self.fold.shape != (n,) or self.qs.shape != (n,):
            raise ValueError("fold and qs must hold one entry per example")
        if self.probs.shape != (n, k):
            raise ValueError("probs must be (n_examples, n_classes)")
        if not np.isin(self.fold, FOLD_NAMES).all():
            raise ValueError(f"fold must be one of {FOLD_NAMES}")

    def __len__(self) -> int:
        return len(self.dataset)

    @property
    def scheme(self) -> ClassScheme:
        return self.dataset.scheme


def quality_scores_batch(probs: np.ndarray, labels: np.ndarray, scheme: ClassScheme) -> np.ndarray:
    """Each row's signed max probability; the sign is set at the referability
    boundary. Argmax ties break toward the lowest class index."""
    i = probs.argmax(axis=1)
    top = probs[np.arange(len(labels)), i]
    same = scheme.positive_mask(i) == scheme.positive_mask(labels)
    return np.where(same, top, -top)


def fold_jobs(dataset: Dataset, seed: int) -> tuple[np.ndarray, list[tuple[Dataset, int, str]]]:
    """The split of cross_fold_score, as the mask of the D1 rows, and its two
    fit jobs, fold-D1 and fold-D2, for `train_many`."""
    in_d1 = split_mask(dataset, derive_seed(seed, "split"))
    return in_d1, [(dataset.take(np.flatnonzero(in_d1)), derive_seed(seed, "train-d1"), "fold-D1"),
                   (dataset.take(np.flatnonzero(~in_d1)), derive_seed(seed, "train-d2"), "fold-D2")]


def score_folds(dataset: Dataset, in_d1: np.ndarray, m1: Model, m2: Model) -> ScoredDataset:
    """Score every example with the model of the fold it was not trained in."""
    d1_rows, d2_rows = np.flatnonzero(in_d1), np.flatnonzero(~in_d1)
    probs = np.empty((len(dataset), dataset.scheme.n_classes))
    probs[d1_rows] = predict_proba(m2, dataset.X[d1_rows])  # opposite-fold model
    probs[d2_rows] = predict_proba(m1, dataset.X[d2_rows])
    qs = quality_scores_batch(probs, dataset.y, dataset.scheme)
    return ScoredDataset(dataset, np.where(in_d1, *FOLD_NAMES), qs, probs)


def cross_fold_score(dataset: Dataset, tune_set: Dataset, hp: Hyperparams,
                     seed: int) -> tuple[ScoredDataset, Model, Model]:
    """Split, train one model per fold, score every example with the opposite fold.

    No example is ever scored by a model that saw it in training. Returns the
    scored dataset plus both fold models for downstream comparability checks.
    """
    in_d1, jobs = fold_jobs(dataset, seed)
    m1, m2 = train_many(jobs, tune_set, hp)
    return score_folds(dataset, in_d1, m1, m2), m1, m2


def derive_seed(seed: int, stage: str) -> int:
    """Stable sub-seed for a named pipeline stage."""
    digest = hashlib.blake2s(f"{seed}:{stage}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") % (2**63)


def qs_histogram(scored: ScoredDataset, bin_width: float) -> list[tuple[float, float, int, int]]:
    """Binned counts over [-1, 1], split by the observed binarized label.

    Returns rows (bin_lo, bin_hi, count_nonreferable, count_referable).
    """
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    qs = scored.qs
    referable = scored.dataset.binary_labels().astype(bool)
    n_bins = max(1, int(np.ceil(2.0 / bin_width - 1e-9)))  # one bin, however wide
    edges = -1.0 + bin_width * np.arange(n_bins + 1)
    edges[-1] = max(edges[-1], 1.0)
    c_non, _ = np.histogram(qs[~referable], bins=edges)
    c_ref, _ = np.histogram(qs[referable], bins=edges)
    return [
        (float(edges[i]), float(edges[i + 1]), int(c_non[i]), int(c_ref[i]))
        for i in range(n_bins)
    ]


def write_scored_dataset(scored: ScoredDataset, path) -> None:
    """The dataset's id and label columns plus fold, quality_score and the
    cross-fold probability columns; the features stay in the dataset that was scored."""
    _write_csv(path, scored.dataset, (scored.fold, scored.qs, scored.probs))


def read_scored_dataset(path, scheme: ClassScheme) -> ScoredDataset:
    """Read a scored CSV; the fold, quality_score and p0..p{K-1} columns are
    required. A file write_scored_dataset wrote reads back with feature_dim 0."""
    dataset, (fold, qs, probs) = _read_csv(path, scheme, scored=True)
    return ScoredDataset(dataset, fold, qs, probs)
