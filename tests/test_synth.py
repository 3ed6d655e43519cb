"""Population generation and grader-noise tests."""

import hashlib

import numpy as np
import pytest
from scipy.stats import chisquare

from sncv import (
    ClassScheme,
    GraderProfile,
    Hyperparams,
    PopulationConfig,
    apply_grader_noise,
    default_grader_pool,
    default_scheme,
    generate_population,
    marginal_flip_rates,
    positive_rate,
    read_grader_pool,
    roc_auc,
    referable_scores,
    train,
    write_grader_pool,
)
from sncv.dataset import CHUNK_ROWS, Dataset, InputError
from sncv.synth import confusion_from_flip_rates, draw_category, example_draws, seeded_uniforms


def simple_config(n=500, d=4, **kw):
    defaults = dict(
        n=n, feature_dim=d, class_priors=(0.4, 0.3, 0.2, 0.1),
        class_spread=1.0, ambiguity_overlap=0.0,
    )
    defaults.update(kw)
    return PopulationConfig(**defaults)


def identity_pool(scheme, n_graders=2):
    eye = np.eye(scheme.n_classes)
    return [
        GraderProfile(grader_id=f"id{i}", role="glaucoma-specialist",
                      confusion=eye, workload_weight=1.0)
        for i in range(n_graders)
    ]


def per_row_grader_noise(dataset, pool, seed):
    """The grader labels and ids as apply_grader_noise drew them one row at a
    time, kept as a bitwise reference for the array code."""
    k = dataset.scheme.n_classes
    weights = np.array([p.workload_weight for p in pool], dtype=float)
    cum = np.cumsum(weights / weights.sum())
    cum_rows = [np.cumsum(p.confusion, axis=1) for p in pool]
    labels, graders = [], []
    for example_id, true_label in zip(dataset.ids.tolist(), dataset.true_y.tolist()):
        digest = hashlib.blake2s(f"{seed}:{example_id}".encode(), digest_size=8).digest()
        rng = np.random.default_rng(int.from_bytes(digest, "big"))
        g = min(int(np.searchsorted(cum, rng.random(), side="right")), len(pool) - 1)
        new_label = int(np.searchsorted(cum_rows[g][true_label], rng.random(), side="right"))
        labels.append(min(new_label, k - 1))
        graders.append(pool[g].grader_id)
    return labels, graders


def per_id_draws(seed, ids):
    """example_draws as it was computed one id at a time, one default_rng per
    id, kept as the bitwise reference for the bulk computation."""
    digests = (hashlib.blake2s(f"{seed}:{i}".encode(), digest_size=8).digest() for i in ids)
    return np.fromiter((np.random.default_rng(int.from_bytes(d, "big")).random(2) for d in digests),
                       dtype=(float, 2), count=len(ids))


def assert_bitwise_equal(a, b):
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def uneven_pool():
    # the last confusion row's cumulative sum ends at 0.9999999999999999
    conf = confusion_from_flip_rates((0.1, 0.15, 0.2, 0.3), default_scheme())
    conf[3] = [0.7, 0.1, 0.1, 0.1]
    assert np.cumsum(conf[3])[-1] < 1.0
    return [GraderProfile(f"g{i}", role, weight, conf if i % 2 else np.eye(4))
            for i, (role, weight) in enumerate([("glaucoma-specialist", 5.0),
                                                ("trainee-fellow", 0.3),
                                                ("optometrist", 1.7),
                                                ("ophthalmologist", 0.01)])]


ONE_POSITIVE = ClassScheme(("a", "b", "c", "d"), frozenset({3}))
TWO_CLASS = ClassScheme(("neg", "pos"), frozenset({1}))


class TestPopulationConfig:
    def test_priors_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            simple_config(class_priors=(0.5, 0.2, 0.2, 0.2))

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(ValueError):
            simple_config(n=0)
        with pytest.raises(ValueError):
            simple_config(d=0)


class TestGeneratePopulation:
    def test_deterministic_under_seed(self):
        a = generate_population(simple_config(), 5)
        b = generate_population(simple_config(), 5)
        np.testing.assert_array_equal(a.ids, b.ids)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.X, b.X)

    def test_labels_start_noiseless(self):
        ds = generate_population(simple_config(), 0)
        np.testing.assert_array_equal(ds.y, ds.true_y)

    def test_positive_rate_matches_priors(self):
        # priors tuned to the 24.6% referable share at n=20000
        cfg = simple_config(n=20000, class_priors=(0.508, 0.246, 0.160, 0.086))
        ds = generate_population(cfg, 3)
        assert positive_rate(ds) == pytest.approx(0.246, abs=0.01)

    def test_separable_limit_trains_to_high_auc(self):
        # tight clusters far apart: a trained classifier nails the tune set
        cfg = simple_config(n=800, d=4, class_spread=0.05)
        tune = generate_population(simple_config(n=400, d=4, class_spread=0.05), 2)
        model = train(generate_population(cfg, 1), tune,
                      Hyperparams(hidden_units=4, max_epochs=30, patience=5), seed=0)
        scores = referable_scores(model, tune.X)
        assert roc_auc(scores, tune.binary_labels()).auc > 0.99

    def test_cluster_extension_reduces_to_line_when_disabled(self):
        base = generate_population(simple_config(), 9)
        ext = generate_population(simple_config(clusters_per_class=1, cluster_scatter=0.0), 9)
        np.testing.assert_array_equal(base.X, ext.X)


class TestGraderProfiles:
    def test_rows_must_be_stochastic(self):
        bad = np.full((4, 4), 0.3)
        with pytest.raises(ValueError, match="sum to 1"):
            GraderProfile("g", "optometrist", 1.0, bad)

    @pytest.mark.parametrize("weight, conf, match", [
        (float("nan"), np.eye(4), "workload_weight must be positive"),
        (float("inf"), np.eye(4), "workload_weight must be positive and finite"),
        (1.0, np.full((4, 4), np.nan), "confusion entries must be non-negative"),
    ])
    def test_non_finite_weight_or_confusion_rejected(self, weight, conf, match):
        with pytest.raises(ValueError, match=match):
            GraderProfile("g", "optometrist", weight, conf)

    def test_unknown_role_rejected(self):
        with pytest.raises(ValueError, match="unknown grader role"):
            GraderProfile("g", "barista", 1.0, np.eye(4))

    @pytest.mark.parametrize("n_classes", [2, 5])
    def test_default_pool_needs_one_class_per_flip_rate(self, n_classes):
        scheme = ClassScheme(tuple(f"c{i}" for i in range(n_classes)), frozenset({1}))
        with pytest.raises(InputError) as err:
            default_grader_pool(scheme)
        assert str(err.value) == (f"the default grader pool has 4 classes and the scheme "
                                  f"{n_classes}: pass --pool")

    def test_confusion_from_flip_rates_rows_stochastic(self):
        conf = confusion_from_flip_rates((0.1, 0.2, 0.3, 0.4), default_scheme())
        np.testing.assert_allclose(conf.sum(axis=1), 1.0, atol=1e-12)
        assert (conf >= 0).all()

    @pytest.mark.parametrize("scheme", [TWO_CLASS, ONE_POSITIVE], ids=["2-class", "one-positive"])
    def test_class_without_same_side_partner_keeps_rows_stochastic(self, scheme):
        # no same-side class receives the within-side rate, so none is taken
        conf = confusion_from_flip_rates([0.2] * scheme.n_classes, scheme)
        np.testing.assert_allclose(conf.sum(axis=1), 1.0, atol=1e-12)
        assert (conf >= 0).all()

    def test_confusion_crossing_mass_matches_rates(self):
        scheme = default_scheme()
        rates = (0.09, 0.09, 0.18, 0.40)
        conf = confusion_from_flip_rates(rates, scheme)
        for c, rate in enumerate(rates):
            cross = [t for t in range(4) if scheme.is_positive(t) != scheme.is_positive(c)]
            assert conf[c, cross].sum() == pytest.approx(rate, abs=1e-12)


class TestApplyGraderNoise:
    def test_identity_pool_is_noiseless(self):
        scheme = default_scheme()
        ds = generate_population(simple_config(n=300), 0, scheme)
        noisy = apply_grader_noise(ds, identity_pool(scheme), seed=0)
        np.testing.assert_array_equal(noisy.y, ds.y)
        assert (noisy.grader != "").all()

    def test_never_mutates_features_or_truth(self):
        scheme = default_scheme()
        ds = generate_population(simple_config(n=300), 0, scheme)
        noisy = apply_grader_noise(ds, default_grader_pool(scheme), seed=1)
        np.testing.assert_array_equal(noisy.X, ds.X)
        np.testing.assert_array_equal(noisy.true_y, ds.true_y)

    def test_deterministic_and_order_independent(self):
        scheme = default_scheme()
        ds = generate_population(simple_config(n=200), 0, scheme)
        pool = default_grader_pool(scheme)
        a = apply_grader_noise(ds, pool, seed=3)
        b = apply_grader_noise(ds.take(np.arange(len(ds))[::-1]), pool, seed=3)
        np.testing.assert_array_equal(b.ids[::-1], a.ids)
        np.testing.assert_array_equal(b.y[::-1], a.y)
        np.testing.assert_array_equal(b.grader[::-1], a.grader)

    def test_missing_true_label_errors(self):
        scheme = default_scheme()
        ds = Dataset(scheme, ids=["a"], X=np.zeros((1, 2)), y=[0])
        with pytest.raises(ValueError, match="true_label"):
            apply_grader_noise(ds, identity_pool(scheme), seed=0)

    def test_empty_pool_errors(self):
        scheme = default_scheme()
        ds = generate_population(simple_config(n=10), 0, scheme)
        with pytest.raises(ValueError, match="empty"):
            apply_grader_noise(ds, [], seed=0)

    def test_uniform_row_distributes_uniformly(self):
        # a confusion row of all 1/K spreads true-class-c labels uniformly
        scheme = default_scheme()
        conf = np.eye(4)
        conf[1] = 0.25
        pool = [GraderProfile("u", "ophthalmologist", 1.0, conf)]
        cfg = simple_config(n=20000, class_priors=(0.0, 1.0, 0.0, 0.0))
        ds = generate_population(cfg, 11, scheme)
        noisy = apply_grader_noise(ds, pool, seed=12)
        counts = np.bincount(noisy.y, minlength=4)
        assert chisquare(counts).pvalue > 0.01

    def test_empirical_confusion_converges_to_configured(self):
        scheme = default_scheme()
        conf = confusion_from_flip_rates((0.1, 0.15, 0.2, 0.3), scheme)
        pool = [GraderProfile("g", "trainee-fellow", 1.0, conf)]
        cfg = simple_config(n=24000, class_priors=(0.25, 0.25, 0.25, 0.25))
        ds = generate_population(cfg, 21, scheme)
        noisy = apply_grader_noise(ds, pool, seed=22)
        y_true = noisy.true_y
        y_obs = noisy.y
        for c in range(4):
            rows = y_obs[y_true == c]
            emp = np.bincount(rows, minlength=4) / len(rows)
            assert np.abs(emp - conf[c]).max() < 0.03

    def test_marginal_noise_matches_workload_weighted_mixture(self):
        scheme = default_scheme()
        pool = default_grader_pool(scheme)
        cfg = simple_config(n=20000, class_priors=(0.508, 0.246, 0.160, 0.086))
        ds = generate_population(cfg, 31, scheme)
        noisy = apply_grader_noise(ds, pool, seed=32)
        y_true = ds.y
        crossed = scheme.positive_mask(noisy.y) != scheme.positive_mask(y_true)
        expected = marginal_flip_rates(pool, scheme)
        prior = np.array(cfg.class_priors)
        expected_marginal = float((prior * expected).sum())
        assert abs(crossed.mean() - expected_marginal) < 0.01

    def test_trainee_noise_exceeds_specialist_noise_downstream(self):
        scheme = default_scheme()
        pool = default_grader_pool(scheme)
        cfg = simple_config(n=20000, class_priors=(0.508, 0.246, 0.160, 0.086))
        ds = generate_population(cfg, 41, scheme)
        noisy = apply_grader_noise(ds, pool, seed=42)
        role_by_grader = {p.grader_id: p.role for p in pool}
        mismatch = {}
        y_true = ds.y
        crossed = scheme.positive_mask(noisy.y) != scheme.positive_mask(y_true)
        graders = noisy.grader
        for role in ("trainee-fellow", "glaucoma-specialist"):
            mask = np.array([role_by_grader[g] == role for g in graders])
            mismatch[role] = crossed[mask].mean()
        assert mismatch["trainee-fellow"] > 2 * mismatch["glaucoma-specialist"]


class TestDrawsMatchPerRowCode:
    @pytest.mark.parametrize("seed", [0, 2024])
    def test_example_draws_equal_per_id_loop(self, seed):
        # more than 20k ids, so that the bulk computation crosses CHUNK_ROWS
        # block boundaries, among them a last block that is not full
        ids = [f"ex{i:06d}" for i in range(20_000 + 77)]
        assert len(ids) > 4 * CHUNK_ROWS and len(ids) % CHUNK_ROWS
        assert_bitwise_equal(example_draws(seed, ids), per_id_draws(seed, ids))

    def test_example_draws_of_no_ids(self):
        assert_bitwise_equal(example_draws(5, []), per_id_draws(5, []))

    def test_seeded_uniforms_on_edge_keys(self):
        # one-word and two-word SeedSequence entropies, the all-zero and
        # all-one words among them
        keys = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
        expected = np.array([np.random.default_rng(key).random(2) for key in keys])
        assert_bitwise_equal(seeded_uniforms(np.array(keys, dtype=np.uint64)), expected)
        assert_bitwise_equal(seeded_uniforms(np.array([], dtype=np.uint64)), np.empty((0, 2)))

    def test_uneven_pool_matches(self):
        scheme = default_scheme()
        ds = generate_population(simple_config(n=3000), 4, scheme)
        pool = uneven_pool()
        noisy = apply_grader_noise(ds, pool, seed=17)
        labels, graders = per_row_grader_noise(ds, pool, 17)
        assert noisy.y.tolist() == labels
        assert noisy.grader.tolist() == graders
        assert len(set(graders)) == len(pool)

    def test_reversed_rows_match(self):
        scheme = default_scheme()
        ds = generate_population(simple_config(n=1000), 6, scheme)
        reversed_ds = ds.take(np.arange(len(ds))[::-1])
        pool = default_grader_pool(scheme)
        noisy = apply_grader_noise(reversed_ds, pool, seed=8)
        labels, graders = per_row_grader_noise(reversed_ds, pool, 8)
        assert noisy.y.tolist() == labels
        assert noisy.grader.tolist() == graders

    def test_two_class_scheme_matches(self):
        ds = generate_population(simple_config(n=1000, class_priors=(0.7, 0.3)), 2, TWO_CLASS)
        pool = [GraderProfile("g0", "optometrist", 1.0,
                              confusion_from_flip_rates((0.2, 0.3), TWO_CLASS))]
        noisy = apply_grader_noise(ds, pool, seed=9)
        assert noisy.y.tolist() == per_row_grader_noise(ds, pool, 9)[0]
        assert (noisy.y != ds.y).any()

    def test_draw_category_caps_at_last_category(self):
        # uniforms at and beyond a CDF that ends below 1, for a shared CDF and
        # for one CDF row per uniform
        cdf = np.cumsum([0.7, 0.1, 0.1, 0.1])
        u = np.array([0.0, 0.7, 0.75, cdf[-1], np.nextafter(cdf[-1], 1), 1 - 2**-53])
        expected = [min(int(np.searchsorted(cdf, x, side="right")), 3) for x in u]
        assert draw_category(cdf, u).tolist() == expected
        assert draw_category(np.tile(cdf, (len(u), 1)), u).tolist() == expected
        assert expected[-2:] == [3, 3]


class TestPoolIO:
    def test_round_trip(self, tmp_path):
        scheme = default_scheme()
        pool = default_grader_pool(scheme)
        path = tmp_path / "pool.json"
        write_grader_pool(pool, path)
        back = read_grader_pool(path, scheme)
        assert [p.grader_id for p in back] == [p.grader_id for p in pool]
        for a, b in zip(pool, back):
            np.testing.assert_allclose(a.confusion, b.confusion, atol=1e-15)
            assert a.role == b.role
            assert a.workload_weight == b.workload_weight

    def test_flip_to_adjacent_shorthand(self, tmp_path):
        path = tmp_path / "pool.json"
        path.write_text(
            '[{"grader_id": "g", "role": "optometrist", "workload_weight": 1.0,'
            ' "confusion": {"flip_to_adjacent": 0.2}}]'
        )
        pool = read_grader_pool(path, default_scheme())
        conf = pool[0].confusion
        np.testing.assert_allclose(conf.sum(axis=1), 1.0)
        assert conf[0, 1] == pytest.approx(0.2)      # edge class: single neighbor
        assert conf[1, 0] == pytest.approx(0.1)      # interior: split between two
        assert conf[1, 2] == pytest.approx(0.1)
        assert conf[0, 0] == pytest.approx(0.8)
