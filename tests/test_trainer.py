"""Trainer tests: optimization behavior, prediction semantics, gradient oracle,
determinism and serialization."""

import contextlib
import os
import time

import numpy as np
import pytest

from sncv import (
    ClassScheme,
    Dataset,
    Hyperparams,
    Model,
    default_scheme,
    predict_proba,
    read_model,
    referable_scores,
    roc_auc,
    train,
    write_model,
)
from sncv import trainer, workers
from sncv.trainer import _init_weights

from conftest import analytic_gradients, gradient_check, max_relative_error, numeric_gradients
from test_workers import in_process


def toy_dataset(n, d, n_classes=2, seed=0, separation=4.0):
    rng = np.random.default_rng(seed)
    scheme = (ClassScheme(("neg", "pos"), frozenset({1})) if n_classes == 2
              else default_scheme())
    y = np.empty(n, dtype=int)
    X = np.empty((n, d))
    for i in range(n):
        y[i] = rng.integers(0, n_classes)
        X[i] = rng.standard_normal(d) * 0.5
        X[i, 0] += separation * y[i]
    return Dataset(scheme, ids=[f"t{i:04d}" for i in range(n)], X=X, y=y)


def small_random_model(d=5, hidden=8, seed=0, scheme=None):
    scheme = scheme or default_scheme()
    rng = np.random.default_rng(seed)
    weights = _init_weights(d, scheme.n_classes, hidden, rng)
    return Model(scheme=scheme, feature_dim=d, hidden_units=hidden, weights=weights)


def _reference_softmax(z):
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _reference_forward(weights, X):
    H = np.tanh(X @ weights["w1"] + weights["b1"])
    return H, H @ weights["w2"] + weights["b2"]


def _reference_forward_backward(weights, X, y):
    n = len(X)
    H, Z = _reference_forward(weights, X)
    P = _reference_softmax(Z)
    loss = float(-np.log(P[np.arange(n), y] + 1e-12).mean())
    G = P
    G[np.arange(n), y] -= 1.0
    G /= n
    GH = (G @ weights["w2"].T) * (1.0 - H * H)
    grads = {"w2": H.T @ G, "b2": G.sum(axis=0), "w1": X.T @ GH, "b1": GH.sum(axis=0)}
    return loss, grads


def reference_train(train_set, tune_set, hp, seed):
    """The per-batch loop `train` replaced: a gradient dict and one
    `w -= lr * g` per weight array, the loss and its finiteness checked after
    every batch. Returns what `train` reports, for a bitwise comparison."""
    k = train_set.scheme.n_classes
    order = np.argsort(train_set.ids)
    X, y = train_set.X[order], train_set.y[order]
    n, d = X.shape
    positive = sorted(train_set.scheme.positive_indices)
    tune_bin = tune_set.binary_labels()
    rng = np.random.default_rng(seed)
    weights = _init_weights(d, k, hp.hidden_units, rng)
    losses, aucs = [], []
    best_auc, best_weights, best_epoch, bad_epochs = -np.inf, None, 0, 0
    for epoch in range(1, hp.max_epochs + 1):
        perm = rng.permutation(n)
        X_epoch, y_epoch = X[perm], y[perm]
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n, hp.batch_size):
            end = start + hp.batch_size
            loss, grads = _reference_forward_backward(weights, X_epoch[start:end],
                                                      y_epoch[start:end])
            if not np.isfinite(loss):
                raise ValueError(f"diverged: non-finite loss at epoch {epoch}")
            for key, g in grads.items():
                weights[key] -= hp.learning_rate * g
            epoch_loss += loss
            n_batches += 1
        losses.append(epoch_loss / n_batches)
        probs = _reference_softmax(_reference_forward(weights, tune_set.X)[1])
        auc = roc_auc(probs[:, positive].sum(axis=1), tune_bin).auc
        aucs.append(auc)
        if auc > best_auc:
            best_auc, best_epoch, bad_epochs = auc, epoch, 0
            best_weights = {key: w.copy() for key, w in weights.items()}
        else:
            bad_epochs += 1
            if bad_epochs >= hp.patience:
                break
    return {"weights": best_weights, "train_loss_by_epoch": losses, "tune_auc_by_epoch": aucs,
            "stopped_epoch": best_epoch, "tune_auc_at_stop": best_auc, "epochs_run": len(losses)}


class TestTrainMatchesReferenceLoop:
    """`train` against the per-batch reference loop, bit for bit: weight
    bytes, loss and AUC curves, and where and why it stopped."""

    N_ROWS = 90  # ragged last batch for sizes 7, 32 and 128

    # hidden width 1 is the narrowest model `Hyperparams` accepts; each seed
    # draws its own initial weights and batch order
    @pytest.mark.parametrize("hidden", [1, 8])
    @pytest.mark.parametrize("seed", [5, 6])
    @pytest.mark.parametrize("batch_size", [1, 7, 32, 128])
    @pytest.mark.parametrize("stop", ["patience", "max_epochs"])
    def test_bitwise_equal(self, batch_size, stop, seed, hidden):
        ds = toy_dataset(self.N_ROWS, 4, n_classes=4, seed=31, separation=0.7)
        tune = toy_dataset(60, 4, n_classes=4, seed=32, separation=0.7)
        max_epochs, patience = (40, 2) if stop == "patience" else (5, 40)
        hp = Hyperparams(learning_rate=0.3, batch_size=batch_size, max_epochs=max_epochs,
                         patience=patience, hidden_units=hidden)
        got = train(ds, tune, hp, seed=seed)
        want = reference_train(ds, tune, hp, seed=seed)
        if stop == "patience":
            assert got.epochs_run < max_epochs
        else:
            assert got.epochs_run == max_epochs
        assert got.weights.keys() == want["weights"].keys()
        for key, w in want["weights"].items():
            assert got.weights[key].shape == w.shape
            assert got.weights[key].tobytes() == w.tobytes()
        for name in ("train_loss_by_epoch", "tune_auc_by_epoch", "stopped_epoch",
                     "tune_auc_at_stop", "epochs_run"):
            assert getattr(got, name) == want[name], name


class TestTrain:
    def test_separable_two_class_reaches_full_accuracy(self):
        ds = toy_dataset(200, 3, seed=1)
        tune = toy_dataset(80, 3, seed=2)
        hp = Hyperparams(hidden_units=4, max_epochs=60, patience=60, learning_rate=1.0)
        model = train(ds, tune, hp, seed=0)
        probs = predict_proba(model, ds.X)
        acc = (probs.argmax(axis=1) == ds.y).mean()
        assert acc == 1.0

    def test_bitwise_deterministic(self):
        ds = toy_dataset(150, 4, n_classes=4, seed=3, separation=1.0)
        tune = toy_dataset(60, 4, n_classes=4, seed=4, separation=1.0)
        hp = Hyperparams(max_epochs=10, patience=3)
        a = train(ds, tune, hp, seed=77)
        b = train(ds, tune, hp, seed=77)
        for key in a.weights:
            np.testing.assert_array_equal(a.weights[key], b.weights[key])
        assert a.stopped_epoch == b.stopped_epoch
        assert a.tune_auc_at_stop == b.tune_auc_at_stop

    def test_deterministic_across_example_order(self):
        ds = toy_dataset(150, 4, n_classes=4, seed=3, separation=1.0)
        reordered = ds.take(np.arange(len(ds))[::-1])
        tune = toy_dataset(60, 4, n_classes=4, seed=4, separation=1.0)
        hp = Hyperparams(max_epochs=8, patience=3)
        a = train(ds, tune, hp, seed=77)
        b = train(reordered, tune, hp, seed=77)
        for key in a.weights:
            np.testing.assert_array_equal(a.weights[key], b.weights[key])

    def test_fold_models_comparable_within_two_points(self, small_scored):
        # the two half-trained models agree on tune-set correct-classification
        # rate (referable binarization) to within 2 percentage points
        m1, m2 = small_scored["m1"], small_scored["m2"]
        tune = small_scored["tune"]
        y = tune.binary_labels()
        X = tune.X
        acc1 = ((referable_scores(m1, X) >= 0.5).astype(int) == y).mean()
        acc2 = ((referable_scores(m2, X) >= 0.5).astype(int) == y).mean()
        assert abs(acc1 - acc2) <= 0.02

    def test_training_loss_decreases(self):
        ds = toy_dataset(300, 4, n_classes=4, seed=5, separation=1.5)
        tune = toy_dataset(100, 4, n_classes=4, seed=6, separation=1.5)
        model = train(ds, tune, Hyperparams(max_epochs=15, patience=15), seed=0)
        assert model.train_loss_by_epoch[-1] < model.train_loss_by_epoch[0]

    def test_snapshot_beats_final_epoch(self):
        ds = toy_dataset(300, 4, n_classes=4, seed=7, separation=0.8)
        tune = toy_dataset(100, 4, n_classes=4, seed=8, separation=0.8)
        model = train(ds, tune, Hyperparams(max_epochs=25, patience=5), seed=1)
        assert model.tune_auc_at_stop >= model.tune_auc_by_epoch[-1]
        assert model.tune_auc_at_stop == max(model.tune_auc_by_epoch)

    def test_degenerate_tune_set_errors(self):
        ds = toy_dataset(50, 3, seed=9)
        all_neg = Dataset(ds.scheme, ids=ds.ids, X=ds.X, y=np.zeros(len(ds)))
        with pytest.raises(ValueError, match="degenerate-tune-set"):
            train(ds, all_neg, Hyperparams(), seed=0)

    def test_one_class_train_set_errors_before_training(self, monkeypatch):
        # every observed label on the non-referable side; a batch step would
        # fail with TypeError, so the error must come before the epoch loop
        tune = toy_dataset(50, 3, seed=9)
        all_neg = Dataset(tune.scheme, ids=tune.ids, X=tune.X, y=np.zeros(len(tune)))
        monkeypatch.setattr(trainer, "_batch_step", None)
        with pytest.raises(ValueError, match="degenerate-train-set"):
            train(all_neg, tune, Hyperparams(), seed=0)

    # four batches, or one of batch_size 32
    @pytest.mark.parametrize("hidden, n_rows", [
        pytest.param(1, 100, id="1"), pytest.param(8, 100, id="8"),
        pytest.param(1, 32, id="1-one-batch"), pytest.param(8, 32, id="8-one-batch")])
    def test_overflowing_weights_raise_diverged_at_epoch_1(self, hidden, n_rows):
        # the softmax stays finite at learning_rate 1e300, so only the weights'
        # overflow can flag the divergence, in the epoch whose step overflowed
        ds = toy_dataset(n_rows, 3, n_classes=4, seed=3, separation=1.0)
        tune = toy_dataset(60, 3, n_classes=4, seed=4, separation=1.0)
        hp = Hyperparams(learning_rate=1e300, hidden_units=hidden, max_epochs=5)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=r"^diverged: non-finite loss at epoch 1$"):
                train(ds, tune, hp, seed=0)

    def test_empty_train_set_errors(self):
        tune = toy_dataset(20, 3, seed=10)
        empty = tune.take([])
        with pytest.raises(ValueError, match="empty-train-set"):
            train(empty, tune, Hyperparams(), seed=0)

    def test_mismatched_feature_dim_errors(self):
        ds = toy_dataset(50, 3, seed=9)
        tune = toy_dataset(20, 4, seed=10)
        with pytest.raises(ValueError, match="feature_dim"):
            train(ds, tune, Hyperparams(), seed=0)


@contextlib.contextmanager
def blas_threads(n: int):
    """numpy's OpenBLAS at n threads in this process, read back, and the count
    it had restored afterwards; a forked plan caps this process at one."""
    blas = workers._blas_threads()
    if blas is None:
        yield
        return
    get, set_ = blas
    before = get()
    set_(n)
    try:
        assert get() == n
        yield
    finally:
        set_(before)


class TestTrainMany:
    HP = Hyperparams(hidden_units=4, max_epochs=3, patience=2)

    @staticmethod
    def one_class(ds):
        return Dataset(ds.scheme, ids=ds.ids, X=ds.X, y=np.zeros(len(ds)))

    @pytest.mark.parametrize("n_jobs", [2, 3, 4])
    def test_a_forked_plan_matches_sequential_train_bit_for_bit(self, forks, n_jobs):
        # the per-epoch prediction of the 2000-row tune set is a product large
        # enough (2000 x 8 x 32) for OpenBLAS to thread it in this process,
        # where the reference fits run at two threads
        tune = toy_dataset(2000, 8, n_classes=4, seed=10)
        sets = [toy_dataset(n, 8, n_classes=4, seed=n) for n in (150, 120, 210, 180)[:n_jobs]]
        hp = Hyperparams(hidden_units=32, max_epochs=6, patience=3)
        models = trainer.train_many([(ds, 100 + i, f"job-{i}") for i, ds in enumerate(sets)],
                                    tune, hp)
        assert len(forks) == n_jobs
        with blas_threads(2):
            alone_models = [train(ds, tune, hp, seed=100 + i) for i, ds in enumerate(sets)]
        for model, alone in zip(models, alone_models):
            assert model.weights.keys() == alone.weights.keys()
            for key in alone.weights:
                np.testing.assert_array_equal(model.weights[key], alone.weights[key])
            assert model.tune_auc_by_epoch == alone.tune_auc_by_epoch
            assert model.train_loss_by_epoch == alone.train_loss_by_epoch
            assert (model.epochs_run, model.stopped_epoch) == (alone.epochs_run,
                                                               alone.stopped_epoch)

    def test_labelled_error_names_the_job(self):
        ds, tune = toy_dataset(50, 3, seed=9), toy_dataset(60, 3, seed=10)
        with pytest.raises(ValueError, match=r"^fold-D2: degenerate-train-set: ") as err:
            trainer.train_many([(ds, 1, "fold-D1"), (self.one_class(ds), 2, "fold-D2")],
                               tune, self.HP)
        assert str(err.value.__cause__).startswith("degenerate-train-set: ")

    @pytest.mark.parametrize("slow", ["a", "b"])
    def test_the_first_failing_job_in_job_order_raises_whatever_order_they_end_in(
            self, forks, monkeypatch, slow):
        # a and b, the two largest jobs, fit at once and both fail, the slow
        # one last; c would start after the first failure, so it never does
        fit = trainer.train

        def failing_train(train_set, tune_set, hp, seed):
            if seed in (1, 2):
                if "ab"[seed - 1] == slow:
                    time.sleep(0.5)
                raise ValueError(f"job {seed} failed")
            return fit(train_set, tune_set, hp, seed)

        monkeypatch.setattr(trainer, "train", failing_train)
        tune = toy_dataset(60, 3, seed=10)
        jobs = [(toy_dataset(n, 3, seed=n), seed, label)
                for n, seed, label in ((70, 1, "a"), (60, 2, "b"), (50, 3, "c"))]
        with pytest.raises(ValueError, match=r"^a: job 1 failed$") as err:
            trainer.train_many(jobs, tune, self.HP)
        assert str(err.value.__cause__) == "job 1 failed"
        assert len(forks) == 2

    def test_one_cpu_fits_one_job_at_a_time_and_raises_the_in_process_failure(
            self, forks, monkeypatch, tmp_path):
        # each forked fit appends to a log, which shows one fit at a time,
        # the largest train set first
        log = tmp_path / "fits.log"
        fit = trainer.train

        def logging_train(train_set, tune_set, hp, seed):
            with open(log, "a") as fh:
                fh.write(f"start {seed}\n")
            try:
                return fit(train_set, tune_set, hp, seed)
            finally:
                with open(log, "a") as fh:
                    fh.write(f"end {seed}\n")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(trainer, "train", logging_train)
        tune = toy_dataset(60, 3, seed=10)
        jobs = [(toy_dataset(50, 3, seed=1), 1, "a"),
                (self.one_class(toy_dataset(40, 3, seed=2)), 2, "b"),
                (toy_dataset(70, 3, seed=3), 3, "c")]
        with monkeypatch.context() as patch:
            patch.setattr(trainer, "run_tasks", in_process)
            with pytest.raises(ValueError) as reference:
                trainer.train_many(jobs, tune, self.HP)
        log.unlink()
        with pytest.raises(ValueError, match="^b: degenerate-train-set") as forked:
            trainer.train_many(jobs, tune, self.HP)
        assert str(forked.value) == str(reference.value)
        assert str(forked.value.__cause__) == str(reference.value.__cause__)
        assert len(forks) == 3
        assert log.read_text().splitlines() == ["start 3", "end 3", "start 1", "end 1",
                                                "start 2", "end 2"]


def logit_model(d, b2, hidden=3):
    """A model whose logits are b2 for every input: w1 and b1 are zero, so
    every hidden activation is tanh(0) = 0."""
    model = small_random_model(d=d, hidden=hidden)
    model.weights = {"w1": np.zeros((d, hidden)), "b1": np.zeros(hidden),
                     "w2": np.ones((hidden, len(b2))), "b2": np.asarray(b2, dtype=float)}
    return model


class TestPredict:
    def test_zero_weight_model_is_uniform(self):
        model = logit_model(3, np.zeros(4))
        np.testing.assert_allclose(predict_proba(model, np.ones((1, 3)))[0], [0.25] * 4, atol=1e-15)

    def test_softmax_shift_invariance(self):
        model = small_random_model(d=3, seed=4)
        x = np.array([0.3, -1.0, 2.0])
        base = predict_proba(model, x[None])[0]
        model.weights["b2"] = model.weights["b2"] + 7.5
        np.testing.assert_allclose(predict_proba(model, x[None])[0], base, atol=1e-12)

    def test_matches_hand_computed_softmax(self):
        # 2-feature, 3-hidden, 4-class model checked against manual tanh and exp/normalize
        w1 = np.array([[0.5, -0.25, 1.0],
                       [1.5, 0.75, -0.5]])
        b1 = np.array([0.1, -0.2, 0.0])
        w2 = np.array([[0.3, -1.0, 0.5, 0.0],
                       [-0.4, 0.2, 1.5, 0.25],
                       [1.0, 0.0, -0.75, 0.5]])
        b2 = np.array([0.1, -0.2, 0.0, 0.3])
        model = small_random_model(d=2, hidden=3)
        model.weights = {"w1": w1, "b1": b1, "w2": w2, "b2": b2}
        x = np.array([0.8, -1.2])
        logits = np.tanh(x @ w1 + b1) @ w2 + b2
        expected = np.exp(logits) / np.exp(logits).sum()
        np.testing.assert_allclose(predict_proba(model, x[None])[0], expected, atol=1e-12)

    def test_outputs_sum_to_one(self):
        model = small_random_model(seed=5)
        p = predict_proba(model, np.linspace(-1, 1, 5)[None])[0]
        assert p.sum() == pytest.approx(1.0, abs=1e-9)
        assert (p > 0).all()

    def test_dimension_mismatch_errors(self):
        model = small_random_model(d=5)
        with pytest.raises(ValueError, match="dimension mismatch"):
            predict_proba(model, np.zeros((1, 4)))


class TestReferableScore:
    def test_summed_positive_mass_example(self):
        # probability vector [0.05, 0.4, 0.3, 0.25]: argmax is the no-refer
        # side but the referable mass 0.3 + 0.25 = 0.55 says refer
        model = logit_model(4, np.log([0.05, 0.4, 0.3, 0.25]))
        assert referable_scores(model, np.zeros((1, 4)))[0] == pytest.approx(0.55, abs=1e-12)

    def test_high_negative_mass_example(self):
        model = logit_model(4, np.log([0.9, 1e-9, 0.1 - 2e-9, 1e-9]))
        assert referable_scores(model, np.zeros((1, 4)))[0] == pytest.approx(0.1, abs=1e-6)

    def test_uniform_prediction_gives_half(self):
        model = logit_model(4, np.zeros(4))
        assert referable_scores(model, np.zeros((1, 4)))[0] == pytest.approx(0.5, abs=1e-12)


class TestGradientCheck:
    def test_random_small_models_pass(self, rng):
        for trial in range(5):
            model = small_random_model(d=5, hidden=8, seed=trial)
            X = rng.standard_normal((6, 5))
            y = rng.integers(0, 4, size=6)
            assert gradient_check(model, X, y) < 1e-5

    def test_near_zero_gradient_point(self):
        # hugely confident correct logits: gradient is essentially zero and
        # the comparison stays clean
        model = logit_model(2, [30.0, -30.0, 0.0, 0.0])
        X = np.array([[1.0, 0.0]])
        y = np.array([0])
        numeric = numeric_gradients(model, X, y)
        assert max(np.abs(g).max() for g in numeric.values()) < 1e-4
        assert gradient_check(model, X, y) < 1e-3

    def test_corrupted_gradient_detected(self, rng):
        model = small_random_model(d=5, hidden=8, seed=11)
        X = rng.standard_normal((6, 5))
        y = rng.integers(0, 4, size=6)
        analytic = analytic_gradients(model, X, y)
        numeric = numeric_gradients(model, X, y)
        analytic["w2"] = analytic["w2"] * 2.0
        assert max_relative_error(analytic, numeric) > 0.1


class TestSerialization:
    def test_round_trip_preserves_predictions(self, tmp_path, rng):
        ds = toy_dataset(120, 4, n_classes=4, seed=20, separation=1.0)
        tune = toy_dataset(60, 4, n_classes=4, seed=21, separation=1.0)
        model = train(ds, tune, Hyperparams(max_epochs=6, patience=3), seed=2)
        path = tmp_path / "model.json"
        write_model(model, path)
        back = read_model(path)
        X = rng.standard_normal((20, 4))
        np.testing.assert_allclose(predict_proba(back, X), predict_proba(model, X), atol=1e-12, rtol=0)
        assert back.stopped_epoch == model.stopped_epoch
        assert back.tune_auc_at_stop == model.tune_auc_at_stop
        assert back.seed == model.seed

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format_version": 999}')
        with pytest.raises(ValueError, match="format version"):
            read_model(path)
