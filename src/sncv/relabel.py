"""Simulated relabeling of low-quality-score examples and grader-background analysis.

A specialist oracle re-annotates the globally lowest-scored tranche; with a
zero error rate it reproduces the hidden true labels. Reports include the
binarized confusion of original versus oracle labels, four-class and binarized
relabel rates, and how often the oracle sides with the cross-fold model over
the original label on boundary disagreements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import InputError
from .metrics import confusion_matrix
from .scoring import ScoredDataset
from .selection import quality_order
from .synth import GRADER_ROLES, GraderProfile, draw_category, example_draws


def specialist_labels(ids, true_labels, n_classes: int, error_rate: float,
                      seed: int) -> np.ndarray:
    """The specialist's label per example: the true label, except that with
    probability error_rate it is one of the other classes, picked uniformly."""
    if not 0 <= error_rate < 1:
        raise ValueError("error_rate must be in [0, 1)")
    true_labels = np.asarray(true_labels, dtype=int)
    u = example_draws(seed, ids)
    wrong = np.full((len(true_labels), n_classes), 1.0 / (n_classes - 1))
    wrong[np.arange(len(true_labels)), true_labels] = 0.0
    return np.where(u[:, 0] >= error_rate, true_labels,
                    draw_category(np.cumsum(wrong, axis=1), u[:, 1]))


@dataclass
class RelabelReport:
    n_relabeled: int
    confusion: list[list[int]]
    relabel_rate: float
    binarized_relabel_rate: float
    model_agreement_rate: float | None  # None without a negative quality score
    model_agreement_rate_all: float
    n_boundary_disagreements: int
    # the per-row table, one list per column, is too long for a repr and for
    # the JSON report
    rows: dict[str, list] = field(default_factory=dict, repr=False)


def run_relabel_experiment(scored: ScoredDataset, n_lowest: int, error_rate: float,
                           seed: int) -> RelabelReport:
    """Send the n_lowest globally lowest-scored examples to a specialist who
    errs at error_rate (see specialist_labels).

    The primary agreement rate is computed over tranche members whose quality
    score is negative (model and label disagree at the boundary); the
    unconditional rate over the whole tranche is also reported.
    """
    n = len(scored)
    if not 1 <= n_lowest <= n:
        raise InputError(f"n_lowest must be in [1, {n}], got {n_lowest}")
    scheme = scored.scheme
    ds = scored.dataset
    if (ds.true_y < 0).any():
        raise InputError("no-ground-truth: relabel experiment needs true labels")

    tranche = quality_order(scored, lowest=True)[:n_lowest]
    ids, qs = ds.ids[tranche].tolist(), scored.qs[tranche].tolist()
    originals, truths = ds.y[tranche], ds.true_y[tranche].tolist()
    oracles = specialist_labels(ids, truths, scheme.n_classes, error_rate, seed)
    model_side = scheme.positive_mask(scored.probs[tranche].argmax(axis=1))
    side_win = scheme.positive_mask(oracles) == model_side
    boundary = scored.qs[tranche] < 0
    n_boundary = int(boundary.sum())
    n_model_wins = int((boundary & side_win).sum())
    return RelabelReport(
        n_relabeled=n_lowest,
        confusion=confusion_matrix(originals, oracles, scheme).tolist(),
        relabel_rate=float((originals != oracles).mean()),
        binarized_relabel_rate=float(
            (scheme.positive_mask(originals) != scheme.positive_mask(oracles)).mean()
        ),
        model_agreement_rate=(n_model_wins / n_boundary) if n_boundary else None,
        model_agreement_rate_all=int(side_win.sum()) / n_lowest,
        n_boundary_disagreements=n_boundary,
        rows={"id": ids, "qs": qs, "original_label": originals.tolist(),
              "oracle_label": oracles.tolist(), "true_label": truths,
              "model_side_win": side_win.astype(int).tolist()},
    )


@dataclass(frozen=True)
class GraderStats:
    grader_id: str
    role: str | None
    n_examples: int
    mismatch_rate: float
    flagged: bool


@dataclass
class GraderReport:
    threshold: float
    graders: list[GraderStats]
    flagged_role_shares: dict[str, float]
    pool_role_shares: dict[str, float]


def grader_mismatch_analysis(scored: ScoredDataset, pool: list[GraderProfile] | None = None,
                             threshold: float = 0.30) -> GraderReport:
    """Per-grader share of labels the cross-fold model disputed (quality score < 0).

    Graders above the threshold are flagged; role shares compare the flagged
    group's composition against the whole pool's, each grader counted once:
    every entry of pool when one is given, else the graders in the file.
    """
    role_by_grader = {p.grader_id: p.role for p in pool} if pool else {}
    graded = scored.dataset.grader != ""
    if not graded.any():
        raise InputError("no grader ids present in scored dataset")
    graders, member = np.unique(scored.dataset.grader[graded], return_inverse=True)
    counts = np.bincount(member)
    rates = np.bincount(member, weights=scored.qs[graded] < 0) / counts
    stats = [
        GraderStats(grader_id=gid, role=role_by_grader.get(gid), n_examples=n,
                    mismatch_rate=rate, flagged=rate > threshold)
        for gid, n, rate in zip(graders.tolist(), counts.tolist(), rates.tolist())
    ]

    def role_shares(roles: list[str | None]) -> dict[str, float]:
        return {role: roles.count(role) / len(roles) if roles else 0.0 for role in GRADER_ROLES}

    return GraderReport(
        threshold=threshold,
        graders=stats,
        flagged_role_shares=role_shares([g.role for g in stats if g.flagged]),
        pool_role_shares=role_shares([p.role for p in pool] if pool else [g.role for g in stats]),
    )

