"""Quality-score computation, cross-fold scoring, and histogram tests."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sncv import (
    Hyperparams,
    PopulationConfig,
    cross_fold_score,
    default_scheme,
    generate_population,
    qs_histogram,
    read_scored_dataset,
    write_scored_dataset,
)
from sncv.dataset import Dataset
from sncv.scoring import derive_seed, quality_scores_batch


def quality_score(probs, label: int, scheme) -> float:
    """One row's quality score, through the batch function."""
    return float(quality_scores_batch(np.array([probs], dtype=float), np.array([label]),
                                      scheme)[0])


def row_loop_quality_score(probs, label: int, scheme) -> float:
    """Reference: signed max probability, one row at a time."""
    i = int(np.argmax(probs))
    same_side = scheme.is_positive(i) == scheme.is_positive(label)
    return float(probs[i]) if same_side else -float(probs[i])


class TestQualityScore:
    def test_confident_cross_boundary_disagreement(self):
        # model says high-risk with 0.95 against a non-glaucomatous label
        scheme = default_scheme()
        probs = [0.02, 0.02, 0.95, 0.01]
        assert quality_score(probs, 0, scheme) == pytest.approx(-0.95)

    def test_moderate_cross_boundary_disagreement(self):
        scheme = default_scheme()
        probs = [0.2, 0.15, 0.60, 0.05]
        assert quality_score(probs, 0, scheme) == pytest.approx(-0.60)

    def test_same_side_four_class_disagreement_scores_positive(self):
        # argmax is class 0, label is low-risk: both on the no-refer side
        scheme = default_scheme()
        probs = [0.4, 0.3, 0.2, 0.1]
        assert quality_score(probs, 1, scheme) == pytest.approx(0.4)

    def test_uniform_tie_breaks_to_lowest_index(self):
        scheme = default_scheme()
        probs = [0.25, 0.25, 0.25, 0.25]
        assert quality_score(probs, 0, scheme) == pytest.approx(0.25)
        assert quality_score(probs, 1, scheme) == pytest.approx(0.25)
        assert quality_score(probs, 2, scheme) == pytest.approx(-0.25)

    @given(st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=4, max_size=4),
           st.integers(min_value=0, max_value=3))
    @settings(max_examples=200, deadline=None)
    def test_range_gap_and_sign_properties(self, raw, label):
        scheme = default_scheme()
        probs = np.array(raw) / np.sum(raw)
        qs = quality_score(probs, label, scheme)
        assert 0.25 - 1e-9 <= abs(qs) <= 1.0 + 1e-12
        i = int(np.argmax(probs))
        same_side = scheme.is_positive(i) == scheme.is_positive(label)
        assert (qs > 0) == same_side

    def test_batch_matches_scalar(self, rng):
        scheme = default_scheme()
        probs = rng.dirichlet(np.ones(4), size=50)
        labels = rng.integers(0, 4, size=50)
        batch = quality_scores_batch(probs, labels, scheme)
        for i in range(50):
            assert batch[i] == pytest.approx(row_loop_quality_score(probs[i], labels[i], scheme))


class TestCrossFoldScore:
    def test_every_example_scored_and_gap_respected(self, small_scored):
        scored = small_scored["scored"]
        qs = scored.qs
        assert len(qs) == len(small_scored["train"])
        assert np.all(np.abs(qs) >= 0.25 - 1e-9)
        assert np.all(np.abs(qs) <= 1.0 + 1e-12)

    def test_sign_recomputable_from_stored_probs(self, small_scored):
        scored = small_scored["scored"]
        labels = scored.dataset.y
        recomputed = quality_scores_batch(scored.probs, labels, scored.scheme)
        np.testing.assert_allclose(scored.qs, recomputed, atol=1e-12)

    def test_leakage_freedom(self, small_scored):
        # the model that scored each example trained on the opposite fold:
        # regenerate each fold model's predictions and confirm bytes match
        from sncv.trainer import predict_proba

        scored = small_scored["scored"]
        m1, m2 = small_scored["m1"], small_scored["m2"]
        X = scored.dataset.X
        folds = scored.fold
        np.testing.assert_allclose(scored.probs[folds == "D2"],
                                   predict_proba(m1, X[folds == "D2"]), atol=0)
        np.testing.assert_allclose(scored.probs[folds == "D1"],
                                   predict_proba(m2, X[folds == "D1"]), atol=0)

    def test_noiseless_separable_set_all_positive_qs(self):
        # both fold models are perfect on a widely separated two-class set,
        # so no example is ever disputed
        from sncv.dataset import ClassScheme

        scheme = ClassScheme(("neg", "pos"), frozenset({1}))
        cfg = PopulationConfig(n=600, feature_dim=4, class_priors=(0.6, 0.4),
                               class_spread=0.05, ambiguity_overlap=0.0)
        ds = generate_population(cfg, 5, scheme)
        tune = generate_population(dataclasses.replace(cfg, n=300), 6, scheme)
        hp = Hyperparams(hidden_units=4, batch_size=8, max_epochs=40, patience=8,
                         learning_rate=1.0)
        scored, _, _ = cross_fold_score(ds, tune, hp, seed=2)
        assert (scored.qs > 0).all()

    def test_bottom_decile_is_mostly_flipped_under_heavy_noise(self):
        # crisp geometry with ~30% boundary-crossing flips: ground truth says
        # at least 70% of the bottom-decile quality scores are real label errors
        from sncv.synth import GraderProfile, confusion_from_flip_rates
        from sncv import apply_grader_noise

        scheme = default_scheme()
        cfg = PopulationConfig(n=6000, feature_dim=6, class_priors=(0.4, 0.3, 0.2, 0.1),
                               class_spread=0.5, ambiguity_overlap=0.0)
        population = generate_population(cfg, 31, scheme)
        conf = confusion_from_flip_rates((0.3, 0.3, 0.3, 0.3), scheme, within_rate=0.0)
        pool = [GraderProfile("g", "trainee-fellow", 1.0, conf)]
        noisy = apply_grader_noise(population, pool, seed=32)
        tune = generate_population(dataclasses.replace(cfg, n=1000), 33, scheme)
        hp = Hyperparams(hidden_units=16, max_epochs=40, patience=6)
        scored, _, _ = cross_fold_score(noisy, tune, hp, seed=34)
        flipped = noisy.y != population.y
        order = np.argsort(scored.qs)
        bottom = order[: len(order) // 10]
        assert flipped[bottom].mean() >= 0.70

    def test_fold_errors_are_tagged(self, small_noisy_setup):
        tune = small_noisy_setup["tune"]
        bad_tune = Dataset(tune.scheme, ids=tune.ids[:50], X=tune.X[:50], y=np.zeros(50))
        with pytest.raises(ValueError, match="fold-D1"):
            cross_fold_score(small_noisy_setup["train"], bad_tune, Hyperparams(), seed=1)


class TestDeriveSeed:
    def test_stable_and_stage_dependent(self):
        assert derive_seed(7, "split") == derive_seed(7, "split")
        assert derive_seed(7, "split") != derive_seed(7, "train-d1")
        assert derive_seed(7, "split") != derive_seed(8, "split")


class TestQsHistogram:
    def test_gap_bins_are_empty(self, small_scored):
        rows = qs_histogram(small_scored["scored"], bin_width=0.05)
        for lo, hi, c_non, c_ref in rows:
            if lo >= -0.25 + 1e-9 and hi <= 0.25 - 1e-9:
                assert c_non == 0 and c_ref == 0

    def test_counts_total(self, small_scored):
        rows = qs_histogram(small_scored["scored"], bin_width=0.05)
        total = sum(c_non + c_ref for _, _, c_non, c_ref in rows)
        assert total == len(small_scored["scored"])

    def test_nonreferable_high_mode_asymmetry(self, small_scored):
        # the non-referable side shows a strong mode of near-one scores that
        # the referable side lacks
        rows = qs_histogram(small_scored["scored"], bin_width=0.05)
        non_total = sum(c for _, _, c, _ in rows)
        ref_total = sum(c for _, _, _, c in rows)
        non_top = sum(c for lo, _, c, _ in rows if lo >= 0.90)
        ref_top = sum(c for lo, _, _, c in rows if lo >= 0.90)
        assert non_top / non_total > 2 * (ref_top / ref_total)

    def test_noiseless_separable_mass_near_one(self):
        from sncv.dataset import ClassScheme

        scheme = ClassScheme(("neg", "pos"), frozenset({1}))
        cfg = PopulationConfig(n=600, feature_dim=4, class_priors=(0.6, 0.4),
                               class_spread=0.05, ambiguity_overlap=0.0)
        ds = generate_population(cfg, 7, scheme)
        tune = generate_population(dataclasses.replace(cfg, n=300), 8, scheme)
        hp = Hyperparams(hidden_units=4, batch_size=8, max_epochs=40, patience=8,
                         learning_rate=1.0)
        scored, _, _ = cross_fold_score(ds, tune, hp, seed=2)
        assert (scored.qs > 0).all()
        rows = qs_histogram(scored, bin_width=0.1)
        counts = [c_non + c_ref for _, _, c_non, c_ref in rows]
        assert int(np.argmax(counts)) == len(rows) - 1
        assert counts[-1] / len(scored) > 0.9

    def test_bin_width_must_be_positive(self, small_scored):
        with pytest.raises(ValueError, match="bin_width"):
            qs_histogram(small_scored["scored"], bin_width=0.0)


class TestScoredIO:
    def test_round_trip(self, tmp_path, small_scored):
        scored = small_scored["scored"]
        path = tmp_path / "scored.csv"
        write_scored_dataset(scored, path)
        back = read_scored_dataset(path, scored.scheme)
        # the features stay in the dataset that was scored
        assert back.dataset.feature_dim == 0
        pairs = [(getattr(back, c), getattr(scored, c)) for c in ("fold", "qs", "probs")]
        pairs += [(getattr(back.dataset, c), getattr(scored.dataset, c))
                  for c in ("ids", "y", "true_y", "grader")]
        for got, want in pairs:
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
