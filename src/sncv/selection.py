"""Quality-ranked sample selection and the full two-fold selection pipeline.

Stratified selection keeps the observed positive-label fraction tau: round
(half away from zero) tau*k positives and the remaining k - round(tau*k)
negatives, each taken from the top of the per-class quality ranking. When a
class runs short the shortfall is reported, never back-filled from the other
class. The plain agreement filter (quality score > 0, no stratification, no k)
is kept as the unstratified baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, InputError, positive_rate, record
from .scoring import ScoredDataset, cross_fold_score, derive_seed
from .trainer import Hyperparams, Model, train_many


@dataclass(frozen=True)
class SelectionResult:
    selected_ids: tuple[str, ...]
    n_positive_selected: int
    n_negative_selected: int
    tau_used: float | None
    k_requested: int | None
    positive_shortfall: int = 0
    negative_shortfall: int = 0
    mode: str = "stratified"

    def __post_init__(self):
        if self.n_positive_selected + self.n_negative_selected != len(self.selected_ids):
            raise ValueError("selection counts inconsistent with id list")


def stratified_positives(tau: float, k: int) -> int:
    """The number of positives a stratified selection of k keeps at positive
    rate tau: tau * k, which is never negative, rounded half away from zero."""
    return int(math.floor(tau * k + 0.5))


def _ranked_class_rows(scored: ScoredDataset, lowest: bool) -> tuple[np.ndarray, np.ndarray]:
    """Row indices of the positives and of the negatives, each ordered by
    quality score (descending, or ascending when lowest) with ties by id."""
    order = np.lexsort((scored.dataset.ids, scored.qs if lowest else -scored.qs))
    positive = scored.scheme.positive_mask(scored.dataset.y[order])
    return order[positive], order[~positive]


def _select_by_rank(scored: ScoredDataset, k: int, lowest: bool) -> SelectionResult:
    n = len(scored)
    if not 1 <= k <= n:
        raise InputError(f"k must be in [1, {n}], got {k}")
    tau = positive_rate(scored.dataset)
    n_pos_req = stratified_positives(tau, k)
    n_neg_req = k - n_pos_req
    pos_rows, neg_rows = _ranked_class_rows(scored, lowest)
    take_pos = pos_rows[:n_pos_req]
    take_neg = neg_rows[:n_neg_req]
    return SelectionResult(
        selected_ids=tuple(scored.dataset.ids[np.concatenate([take_pos, take_neg])].tolist()),
        n_positive_selected=len(take_pos),
        n_negative_selected=len(take_neg),
        tau_used=tau,
        k_requested=k,
        positive_shortfall=n_pos_req - len(take_pos),
        negative_shortfall=n_neg_req - len(take_neg),
        mode="lowest-stratified" if lowest else "stratified",
    )


def select_stratified(scored: ScoredDataset, k: int) -> SelectionResult:
    """Top round(tau*k) positives and k - round(tau*k) negatives by quality score."""
    return _select_by_rank(scored, k, lowest=False)


def select_lowest_stratified(scored: ScoredDataset, k: int) -> SelectionResult:
    """Same stratification but ranking ascending by quality score."""
    return _select_by_rank(scored, k, lowest=True)


def select_ncv(scored: ScoredDataset, match: str = "binary") -> SelectionResult:
    """Agreement filter: keep examples whose opposite-fold prediction matches the label.

    match="binary" keeps quality score > 0 (same side of the referability
    boundary); match="exact" requires the argmax class to equal the label.
    """
    if match not in ("binary", "exact"):
        raise ValueError("match must be 'binary' or 'exact'")
    ds = scored.dataset
    keep = scored.qs > 0 if match == "binary" else scored.probs.argmax(axis=1) == ds.y
    positive = scored.scheme.positive_mask(ds.y)
    return SelectionResult(
        selected_ids=tuple(ds.ids[keep].tolist()),
        n_positive_selected=int((keep & positive).sum()),
        n_negative_selected=int((keep & ~positive).sum()),
        tau_used=None, k_requested=None, mode=f"ncv-{match}",
    )


@dataclass
class PipelineResult:
    model: Model
    scored: ScoredDataset
    selection: SelectionResult
    fold_models: tuple[Model, Model]
    k_used: int
    k_grid_tune_auc: dict[int, float]


def run_sncv_pipeline(dataset: Dataset, tune_set: Dataset, k_values: list[int], hp: Hyperparams,
                      seed: int, min_fold_size: int) -> PipelineResult:
    """Cross-fold score, stratified-select, train the final model on the kept set.

    With several candidate sizes in k_values, the size whose final model
    scores best on the tune set wins.
    """
    scored, m1, m2 = cross_fold_score(dataset, tune_set, hp, seed, min_fold_size)
    if not k_values:
        raise ValueError("k grid is empty")
    selections = [select_stratified(scored, k_val) for k_val in k_values]
    models = train_many([(dataset.subset(s.selected_ids), derive_seed(seed, f"train-final-{j}"),
                          f"final k={s.k_requested}") for j, s in enumerate(selections)],
                        tune_set, hp)
    # max keeps the first of equal maxima, as a strict > over the grid would
    best = max(range(len(models)), key=lambda j: models[j].tune_auc_at_stop)
    return PipelineResult(model=models[best], scored=scored, selection=selections[best],
                          fold_models=(m1, m2), k_used=k_values[best],
                          k_grid_tune_auc={k: m.tune_auc_at_stop for k, m in zip(k_values, models)})


def selection_summary(result: SelectionResult) -> dict:
    """The result's fields for a report, with the id list replaced by its length."""
    summary = record(result)
    summary["n_selected"] = len(summary.pop("selected_ids"))
    return summary
