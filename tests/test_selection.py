"""Stratified, lowest-band, and agreement-filter selection tests."""

import dataclasses
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sncv import (
    Dataset,
    default_scheme,
    positive_rate,
    run_relabel_experiment,
    run_sncv_pipeline,
    scoring,
    select_lowest_stratified,
    select_ncv,
    select_stratified,
    trainer,
    write_dataset,
)
from sncv.cli import main
from sncv.scoring import ScoredDataset
from sncv.selection import quality_order


def make_scored(labels, qs_values, probs=None):
    """Hand-built scored dataset with explicit quality scores."""
    scheme = default_scheme()
    labels = list(labels)
    n = len(labels)
    if probs is None:
        probs = np.zeros((n, 4))
        for i, (lab, q) in enumerate(zip(labels, qs_values)):
            # any argmax consistent with the sign works for selection tests
            side_pos = scheme.is_positive(lab)
            target = (2 if side_pos else 0) if q > 0 else (0 if side_pos else 2)
            probs[i, target] = abs(q)
            rest = (1.0 - abs(q)) / 3
            for c in range(4):
                if c != target:
                    probs[i, c] = rest
    ds = Dataset(scheme, ids=[f"s{i:04d}" for i in range(n)], X=np.zeros((n, 2)), y=labels)
    fold = ["D1" if i % 2 == 0 else "D2" for i in range(n)]
    return ScoredDataset(ds, fold, qs_values, probs)


def row_loop_selection(scored, k, lowest):
    """Reference: rank each class with a Python sort on (-qs, id), or (qs, id)
    for the lowest band, and take the stratified quotas from the top."""
    tau = positive_rate(scored.dataset)
    n_pos = int(np.floor(tau * k + 0.5))
    rows = list(zip(scored.qs.tolist(), scored.dataset.ids.tolist(),
                    scored.scheme.positive_mask(scored.dataset.y).tolist()))
    key = (lambda r: (r[0], r[1])) if lowest else (lambda r: (-r[0], r[1]))
    pos = [i for _, i, p in sorted(rows, key=key) if p]
    neg = [i for _, i, p in sorted(rows, key=key) if not p]
    return tuple(pos[:n_pos] + neg[:k - n_pos])


def test_quality_ties_break_by_id_in_selection_relabel_and_bands(tmp_path, monkeypatch):
    # two distinct scores over 40 rows stored out of id order: every ranking
    # by quality score must break its ties by id, not by storage position
    rng = np.random.default_rng(21)
    base = make_scored(rng.choice([0, 1, 2, 3], size=40), rng.choice([-0.5, 0.5], size=40))
    perm = rng.permutation(40)
    stored = Dataset(base.scheme, base.dataset.ids[perm], rng.standard_normal((40, 2)),
                     base.dataset.y[perm], true_y=base.dataset.y[perm])
    scored = ScoredDataset(stored, base.fold[perm], base.qs[perm], base.probs[perm])
    ids, qs = stored.ids.tolist(), scored.qs.tolist()
    high = sorted(range(40), key=lambda i: (-qs[i], ids[i]))
    low = sorted(range(40), key=lambda i: (qs[i], ids[i]))
    assert quality_order(scored).tolist() == high
    assert quality_order(scored, lowest=True).tolist() == low

    for k in (5, 17):
        assert select_stratified(scored, k).selected_ids == row_loop_selection(scored, k, False)
        assert (select_lowest_stratified(scored, k).selected_ids
                == row_loop_selection(scored, k, True))
    tranche = run_relabel_experiment(scored, 17, 0.0, seed=1).rows["id"]
    assert tranche == [ids[i] for i in low[:17]]

    # bands' unstratified composition, from a stub scoring in storage order
    # and stub fits
    write_dataset(stored, tmp_path / "train.csv")
    write_dataset(stored, tmp_path / "tune.csv")
    (tmp_path / "tiny.cfg").write_text("[experiment]\nmin_fold_size = 10\n")
    by_id = {i: row for row, i in enumerate(ids)}

    def stub_score(dataset, tune_set, hp, seed):
        rows = [by_id[i] for i in dataset.ids.tolist()]
        return (ScoredDataset(dataset, scored.fold[rows], scored.qs[rows], scored.probs[rows]),
                None, None)

    monkeypatch.setattr(scoring, "cross_fold_score", stub_score)
    monkeypatch.setattr(trainer, "train_many", lambda jobs, tune_set, hp: [
        types.SimpleNamespace(tune_auc_at_stop=0.5) for _ in jobs])
    rc = main(["--config", str(tmp_path / "tiny.cfg"), "--seed", "3", "--out",
               str(tmp_path / "bands"), "bands", "--train", str(tmp_path / "train.csv"),
               "--tune", str(tmp_path / "tune.csv"), "--k-grid", "0.25,0.5"])
    assert rc == 0
    lines = (tmp_path / "bands" / "bands_composition.csv").read_text().splitlines()[1:]
    positive = stored.binary_labels()

    def shares(high, low):
        return [(k, float(positive[high[:k]].mean()), float(positive[low[:k]].mean()))
                for k in (10, 20, 40)]

    assert [(int(k), float(top), float(bottom)) for k, top, bottom in
            (line.split(",") for line in lines)] == shares(high, low)
    # ties broken by storage position, or the bottom band taken as the tail
    # of the top ranking, would give other shares on these rows
    by_position = np.argsort(-scored.qs, kind="stable")
    assert shares(by_position, by_position[::-1]) != shares(high, low)
    assert shares(high, high[::-1]) != shares(high, low)


class TestSelectStratified:
    def test_thousand_example_quota_split(self):
        # tau = 0.236, k = 1000 -> 236 positives + 764 negatives
        labels = [2] * 236 + [0] * 764
        qs = np.linspace(0.3, 1.0, 1000)
        scored = make_scored(labels, qs)
        res = select_stratified(scored, 1000)
        assert res.n_positive_selected == 236
        assert res.n_negative_selected == 764
        assert res.tau_used == pytest.approx(0.236)

    def test_select_all(self):
        labels = [2] * 5 + [0] * 15
        qs = np.linspace(-0.9, 0.9, 20)
        scored = make_scored(labels, qs)
        res = select_stratified(scored, 20)
        assert set(res.selected_ids) == set(scored.dataset.ids)
        assert res.n_positive_selected == 5
        assert res.n_negative_selected == 15

    def test_small_forced_ranking(self):
        # tau = 0.25, k = 4: the single highest-QS positive plus the three
        # highest-QS negatives
        labels = [2, 2, 0, 0, 0, 0, 0, 0, 3, 0]
        qs = [0.9, 0.5, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.95, 0.99]
        scored = make_scored(labels, qs)
        res = select_stratified(scored, 4)
        assert res.n_positive_selected == 1
        assert res.n_negative_selected == 3
        ids = scored.dataset.ids
        assert set(res.selected_ids) == {ids[8], ids[9], ids[2], ids[3]}

    def test_quota_always_satisfiable_with_data_derived_tau(self, rng):
        # with tau computed from the data, round(tau*k) never exceeds either
        # class's inventory, so every k keeps exactly its quota of each class
        for _ in range(30):
            n = int(rng.integers(4, 60))
            labels = rng.choice([0, 2], size=n, p=[0.7, 0.3])
            if (labels == 2).sum() == 0:
                labels[0] = 2
            if (labels == 0).sum() == 0:
                labels[0] = 0
            qs = rng.uniform(0.25, 1.0, size=n)
            scored = make_scored(labels, qs)
            tau = positive_rate(scored.dataset)
            positive = dict(zip(scored.dataset.ids.tolist(), (labels == 2).tolist()))
            for k in range(1, n + 1):
                res = select_stratified(scored, k)
                n_pos = sum(positive[i] for i in res.selected_ids)
                want = int(np.floor(tau * k + 0.5))
                assert len(set(res.selected_ids)) == len(res.selected_ids) == k
                assert (n_pos, k - n_pos) == (want, k - want)
                assert (res.n_positive_selected, res.n_negative_selected) == (want, k - want)

    def test_ties_break_by_ascending_id(self):
        labels = [0, 0, 0, 0]
        qs = [0.5, 0.5, 0.5, 0.5]
        scored = make_scored(labels, qs)
        res = select_stratified(scored, 2)
        assert list(res.selected_ids) == ["s0000", "s0001"]

    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=30))
    @settings(max_examples=60, deadline=None)
    def test_matches_row_loop_reference_under_ties(self, seed, k):
        # few distinct scores and rows stored out of id order: ties must
        # break by id, not by storage position
        rng = np.random.default_rng(seed)
        labels = rng.choice([0, 1, 2, 3], size=30)
        qs = rng.choice([-0.9, -0.5, 0.5, 0.9], size=30)
        base = make_scored(labels, qs)
        perm = rng.permutation(30)
        scored = ScoredDataset(base.dataset.take(perm), base.fold[perm], base.qs[perm],
                               base.probs[perm])
        for lowest, select in ((False, select_stratified), (True, select_lowest_stratified)):
            assert select(scored, k).selected_ids == row_loop_selection(scored, k, lowest)

    def test_k_out_of_range(self):
        scored = make_scored([0, 2], [0.5, 0.5])
        with pytest.raises(ValueError, match="k must be"):
            select_stratified(scored, 0)
        with pytest.raises(ValueError, match="k must be"):
            select_stratified(scored, 3)

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_monotone_containment(self, k, seed):
        rng = np.random.default_rng(seed)
        labels = rng.choice([0, 1, 2, 3], size=40, p=[0.4, 0.3, 0.2, 0.1])
        signs = np.where(rng.random(40) < 0.7, 1.0, -1.0)
        qs = signs * rng.uniform(0.25, 1.0, size=40)
        scored = make_scored(labels, qs)
        if k >= 40:
            return
        small = set(select_stratified(scored, k).selected_ids)
        big = set(select_stratified(scored, k + 1).selected_ids)
        assert small <= big

    def test_exact_count_equals_rounded_tau_k(self, small_scored):
        scored = small_scored["scored"]
        tau = positive_rate(scored.dataset)
        for k in (500, 1000, 2777):
            res = select_stratified(scored, k)
            expected_pos = int(np.floor(tau * k + 0.5))
            assert res.n_positive_selected == expected_pos
            assert res.n_negative_selected == k - expected_pos


class TestSelectLowestStratified:
    def test_select_all(self):
        labels = [2] * 5 + [0] * 15
        scored = make_scored(labels, np.linspace(-0.9, 0.9, 20))
        res = select_lowest_stratified(scored, 20)
        assert set(res.selected_ids) == set(scored.dataset.ids)

    def test_disjoint_from_highest_for_half(self):
        labels = [2] * 10 + [0] * 30
        qs = np.linspace(-0.95, 0.95, 40)
        scored = make_scored(labels, qs)
        hi = set(select_stratified(scored, 20).selected_ids)
        lo = set(select_lowest_stratified(scored, 20).selected_ids)
        assert hi & lo == set()

    def test_noisy_labels_concentrate_in_lowest_band(self, small_scored):
        scored = small_scored["scored"]
        noisy = scored.dataset.y != scored.dataset.true_y
        res = select_lowest_stratified(scored, len(scored) // 10)
        picked = np.isin(scored.dataset.ids, res.selected_ids)
        assert noisy[picked].mean() >= 2 * noisy.mean()


class TestSelectNcv:
    def test_all_positive_qs_selected(self):
        labels = [0, 2, 0, 3]
        scored = make_scored(labels, [0.5, 0.6, 0.7, 0.8])
        res = select_ncv(scored)
        assert set(res.selected_ids) == set(scored.dataset.ids)

    def test_equals_direct_filter(self, small_scored):
        scored = small_scored["scored"]
        res = select_ncv(scored)
        direct = set(scored.dataset.ids[scored.qs > 0])
        assert set(res.selected_ids) == direct

    def test_exact_match_variant(self, small_scored):
        scored = small_scored["scored"]
        res = select_ncv(scored, exact=True)
        argmax = scored.probs.argmax(axis=1)
        direct = set(scored.dataset.ids[argmax == scored.dataset.y])
        assert set(res.selected_ids) == direct
        # exact agreement is a subset of boundary agreement
        assert set(res.selected_ids) <= set(select_ncv(scored).selected_ids)

    def test_exacerbates_imbalance_on_noisy_data(self, small_scored):
        scored = small_scored["scored"]
        res = select_ncv(scored)
        selected = scored.dataset.subset(res.selected_ids)
        assert positive_rate(selected) < positive_rate(scored.dataset)


class TestRunPipeline:
    def test_full_selection_on_noiseless_data_matches_baseline(self):
        import numpy as np
        from sncv import (PopulationConfig, generate_population, Hyperparams,
                          train, referable_scores, roc_auc, bootstrap_auc_ci)

        scheme = default_scheme()
        cfg = PopulationConfig(n=800, feature_dim=4, class_priors=(0.4, 0.3, 0.2, 0.1),
                               class_spread=0.4, ambiguity_overlap=0.0)
        ds = generate_population(cfg, 13, scheme)
        tune = generate_population(dataclasses.replace(cfg, n=400), 14, scheme)
        hp = Hyperparams(hidden_units=4, max_epochs=30, patience=6, learning_rate=0.2)
        result = run_sncv_pipeline(ds, tune, [len(ds)], hp, seed=15)
        assert len(result.selection.selected_ids) == len(ds)
        baseline = train(ds, tune, hp, seed=5)
        s = referable_scores(result.model, tune.X)
        y = tune.binary_labels()
        auc_m3 = roc_auc(s, y).auc
        lo, hi = bootstrap_auc_ci(referable_scores(baseline, tune.X), y,
                                  n_boot=300, seed=16)
        assert lo - 0.02 <= auc_m3 <= hi + 0.02

    def test_grid_reports_chosen_k(self, small_noisy_setup):
        from sncv import Hyperparams

        hp = Hyperparams(hidden_units=16, max_epochs=15, patience=4)
        n = len(small_noisy_setup["train"])
        grid = [int(0.625 * n), int(0.75 * n), int(0.875 * n)]
        result = run_sncv_pipeline(small_noisy_setup["train"], small_noisy_setup["tune"],
                                   grid, hp, seed=4)
        assert result.k_used in grid
        assert set(result.k_grid_tune_auc) == set(grid)
        best = max(result.k_grid_tune_auc.values())
        assert result.k_grid_tune_auc[result.k_used] == best

    def test_empty_grid_raises_before_any_fit(self, small_noisy_setup, fit_sizes):
        from sncv import Hyperparams

        with pytest.raises(ValueError, match="k grid is empty"):
            run_sncv_pipeline(small_noisy_setup["train"], small_noisy_setup["tune"], [],
                              Hyperparams(), seed=4)
        assert fit_sizes == []
