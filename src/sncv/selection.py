"""Quality-ranked sample selection and the full two-fold selection pipeline.

Stratified selection keeps the observed positive-label fraction tau: round
(half away from zero) tau*k positives and the remaining k - round(tau*k)
negatives, each taken from the top of the per-class quality ranking. Since
tau is the set's own rate n_pos/n and 1 <= k <= n, round(tau*k) lies between
k - (n - n_pos) and n_pos, so neither class ever runs short. The plain
agreement filter (quality score > 0, no stratification, no k) is kept as the
unstratified baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, InputError, positive_rate, record
from .scoring import ScoredDataset, cross_fold_score, derive_seed
from .trainer import Hyperparams, Model, train_many


# the --select-mode names; `select` makes the selection each one names
MODES = ("stratified", "lowest", "ncv", "ncv-exact")


@dataclass(frozen=True)
class SelectionResult:
    selected_ids: tuple[str, ...]
    n_positive_selected: int
    n_negative_selected: int
    tau_used: float | None
    k_requested: int | None
    mode: str  # the MODES name

    def __post_init__(self):
        if self.n_positive_selected + self.n_negative_selected != len(self.selected_ids):
            raise ValueError("selection counts inconsistent with id list")


def stratified_positives(tau: float, k: int) -> int:
    """The number of positives a stratified selection of k keeps at positive
    rate tau: tau * k, which is never negative, rounded half away from zero."""
    return int(math.floor(tau * k + 0.5))


def quality_order(scored: ScoredDataset, lowest: bool = False) -> np.ndarray:
    """Row indices by quality score, descending (ascending when lowest), with
    ties broken by ascending id: the one ranking every selection uses."""
    return np.lexsort((scored.dataset.ids, scored.qs if lowest else -scored.qs))


def _select_by_rank(scored: ScoredDataset, k: int, lowest: bool) -> SelectionResult:
    n = len(scored)
    if not 1 <= k <= n:
        raise InputError(f"k must be in [1, {n}], got {k}")
    tau = positive_rate(scored.dataset)
    n_pos = stratified_positives(tau, k)
    order = quality_order(scored, lowest)
    positive = scored.scheme.positive_mask(scored.dataset.y[order])
    # neither class runs short (see the module docstring); if one did, the
    # counts would disagree with the ids and SelectionResult would raise
    take = np.concatenate([order[positive][:n_pos], order[~positive][:k - n_pos]])
    return SelectionResult(
        selected_ids=tuple(scored.dataset.ids[take].tolist()),
        n_positive_selected=n_pos,
        n_negative_selected=k - n_pos,
        tau_used=tau,
        k_requested=k,
        mode="lowest" if lowest else "stratified",
    )


def select_stratified(scored: ScoredDataset, k: int) -> SelectionResult:
    """Top round(tau*k) positives and k - round(tau*k) negatives by quality score."""
    return _select_by_rank(scored, k, lowest=False)


def select_lowest_stratified(scored: ScoredDataset, k: int) -> SelectionResult:
    """Same stratification but ranking ascending by quality score."""
    return _select_by_rank(scored, k, lowest=True)


def select_ncv(scored: ScoredDataset, exact: bool = False) -> SelectionResult:
    """Agreement filter: keep examples whose opposite-fold prediction matches the label.

    By default it keeps quality score > 0 (same side of the referability
    boundary); with exact, the argmax class must equal the label.
    """
    ds = scored.dataset
    keep = scored.probs.argmax(axis=1) == ds.y if exact else scored.qs > 0
    positive = scored.scheme.positive_mask(ds.y)
    return SelectionResult(
        selected_ids=tuple(ds.ids[keep].tolist()),
        n_positive_selected=int((keep & positive).sum()),
        n_negative_selected=int((keep & ~positive).sum()),
        tau_used=None, k_requested=None, mode="ncv-exact" if exact else "ncv",
    )


def select(scored: ScoredDataset, mode: str, k: int | None) -> SelectionResult:
    """The selection of one of MODES; the stratified modes need k."""
    if mode in ("ncv", "ncv-exact"):
        return select_ncv(scored, exact=mode == "ncv-exact")
    if k is None:
        raise InputError(f"select: k required for {mode} mode")
    return (select_lowest_stratified if mode == "lowest" else select_stratified)(scored, k)


@dataclass
class PipelineResult:
    model: Model
    scored: ScoredDataset
    selection: SelectionResult
    fold_models: tuple[Model, Model]
    k_used: int
    k_grid_tune_auc: dict[int, float]


def final_jobs(dataset: Dataset, scored: ScoredDataset, k_values: list[int],
               seed: int) -> tuple[list[SelectionResult], list[tuple[Dataset, int, str]]]:
    """The stratified selection of each candidate size and its final fit job
    for `train_many`, in k_values order."""
    selections = [select_stratified(scored, k_val) for k_val in k_values]
    return selections, [(dataset.subset(s.selected_ids), derive_seed(seed, f"train-final-{j}"),
                         f"final k={s.k_requested}") for j, s in enumerate(selections)]


def best_final(scored: ScoredDataset, fold_models: tuple[Model, Model],
               selections: list[SelectionResult], models: list[Model]) -> PipelineResult:
    """The pipeline's result from the fits of final_jobs: the size whose final
    model scores best on the tune set wins."""
    # max keeps the first of equal maxima, as a strict > over the grid would
    best = max(range(len(models)), key=lambda j: models[j].tune_auc_at_stop)
    return PipelineResult(model=models[best], scored=scored, selection=selections[best],
                          fold_models=fold_models, k_used=selections[best].k_requested,
                          k_grid_tune_auc={s.k_requested: m.tune_auc_at_stop
                                           for s, m in zip(selections, models)})


def run_sncv_pipeline(dataset: Dataset, tune_set: Dataset, k_values: list[int], hp: Hyperparams,
                      seed: int) -> PipelineResult:
    """Cross-fold score, stratified-select, train the final model on the kept set.

    With several candidate sizes in k_values, the size whose final model
    scores best on the tune set wins.
    """
    if not k_values:
        raise ValueError("k grid is empty")
    scored, m1, m2 = cross_fold_score(dataset, tune_set, hp, seed)
    selections, jobs = final_jobs(dataset, scored, k_values, seed)
    return best_final(scored, (m1, m2), selections, train_many(jobs, tune_set, hp))


def selection_summary(result: SelectionResult) -> dict:
    """The result's fields for a report, with the id list replaced by its length."""
    summary = record(result)
    summary["n_selected"] = len(summary.pop("selected_ids"))
    return summary
