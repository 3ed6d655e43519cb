"""Multinomial softmax classifier with one tanh hidden layer, trained by
seeded mini-batch gradient descent with early stopping on tune-set referable AUC.

Determinism contract: identical (data content, hyperparameters, seed) produce
bitwise-identical models. Example order never matters because training sorts by
example id before the seeded per-epoch shuffles.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .dataset import (ClassScheme, Dataset, check_record, record, scheme_from_payload,
                      scheme_payload)
from .metrics import roc_auc
from .workers import run_tasks

MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class Hyperparams:
    learning_rate: float = 0.05
    batch_size: int = 32
    max_epochs: int = 100
    patience: int = 8
    hidden_units: int = 16

    def __post_init__(self):
        # written as `not x > 0` rather than `x <= 0` so that NaN fails too
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.hidden_units < 1:
            raise ValueError("hidden_units must be >= 1")
        if not np.isfinite(self.learning_rate):
            raise ValueError("learning_rate must be finite")


@dataclass
class Model:
    scheme: ClassScheme
    feature_dim: int
    hidden_units: int
    weights: dict[str, np.ndarray]
    seed: int = 0
    stopped_epoch: int = 0
    tune_auc_at_stop: float = float("nan")
    epochs_run: int = 0
    train_loss_by_epoch: list[float] = field(default_factory=list)
    tune_auc_by_epoch: list[float] = field(default_factory=list)


def _softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, in place; returns z."""
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _forward(weights: dict[str, np.ndarray], X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hidden activations H and logits Z, both new arrays."""
    H = X @ weights["w1"]
    H += weights["b1"]
    np.tanh(H, out=H)
    Z = H @ weights["w2"]
    Z += weights["b2"]
    return H, Z


def predict_proba(model: Model, X: np.ndarray) -> np.ndarray:
    """Probability matrix (n, K) for a feature matrix."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.feature_dim:
        raise ValueError(f"feature dimension mismatch: got {X.shape}, expected (*, {model.feature_dim})")
    return _softmax(_forward(model.weights, X)[1])


def referable_scores(model: Model, X: np.ndarray) -> np.ndarray:
    probs = predict_proba(model, X)
    return probs[:, sorted(model.scheme.positive_indices)].sum(axis=1)


def _weight_shapes(d: int, k: int, hidden: int) -> dict[str, tuple[int, ...]]:
    """The shape of each weight array for d features, k classes and a hidden
    layer of that width."""
    return {"w1": (d, hidden), "b1": (hidden,), "w2": (hidden, k), "b2": (k,)}


def _init_weights(d: int, k: int, hidden: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    # seeded uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)], drawn in _weight_shapes order;
    # a bias shares the fan-in of its layer's matrix (b1 of w1, b2 of w2)
    shapes = _weight_shapes(d, k, hidden)
    weights = {}
    for key, shape in shapes.items():
        bound = 1.0 / np.sqrt(shapes["w" + key[1:]][0])
        weights[key] = rng.uniform(-bound, bound, size=shape)
    return weights


def _flat_views(flat: np.ndarray, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """The weight arrays of `shapes` as views of one flat buffer, in `shapes` order."""
    views, start = {}, 0
    for key, shape in shapes.items():
        size = math.prod(shape)
        views[key] = flat[start:start + size].reshape(shape)
        start += size
    return views


def _batch_step(weights, grads, X, Y, label_at, label_prob) -> None:
    """Forward and backward pass of one batch, without the update.

    Y holds each row's one-hot label and label_at its flat index into the
    batch's (n, K) probabilities. Each row's probability of its label goes to
    label_prob, and the gradient of the mean cross-entropy goes into the
    arrays of grads.
    """
    H, G = _forward(weights, X)
    _softmax(G)
    np.take(G, label_at, out=label_prob)
    G -= Y
    G /= len(X)
    np.matmul(H.T, G, out=grads["w2"])
    G.sum(axis=0, out=grads["b2"])
    GH = G @ weights["w2"].T
    H *= H
    np.subtract(1.0, H, out=H)
    GH *= H
    np.matmul(X.T, GH, out=grads["w1"])
    GH.sum(axis=0, out=grads["b1"])


def train(train_set: Dataset, tune_set: Dataset, hp: Hyperparams, seed: int) -> Model:
    """Minimize cross-entropy on observed labels; return the best-tune-AUC snapshot.

    Tune AUC is the referable-score AUC against the tune set's binarized
    labels, evaluated after every epoch; ties count as non-improving.
    """
    if len(train_set) == 0:
        raise ValueError("empty-train-set")
    if train_set.scheme != tune_set.scheme:
        raise ValueError("train and tune sets must share a class scheme")
    if train_set.feature_dim != tune_set.feature_dim:
        raise ValueError("train and tune sets must share feature_dim")
    if len(np.unique(train_set.binary_labels())) < 2:
        raise ValueError("degenerate-train-set: training set must contain both classes under "
                         "binarization")
    tune_bin = tune_set.binary_labels()
    if len(np.unique(tune_bin)) < 2:
        raise ValueError("degenerate-tune-set: tune set must contain both classes under binarization")

    k = train_set.scheme.n_classes
    order = np.argsort(train_set.ids)
    X = train_set.X[order]
    y = train_set.y[order]
    X_tune = tune_set.X
    n, d = X.shape

    # the weights and their gradients are views of two flat buffers, so one
    # in-place update and one copy per snapshot cover every array
    shapes = _weight_shapes(d, k, hp.hidden_units)
    rng = np.random.default_rng(seed)
    initial = _init_weights(d, k, hp.hidden_units, rng)
    flat_w = np.empty(sum(w.size for w in initial.values()))
    flat_g = np.empty_like(flat_w)
    weights, grads = _flat_views(flat_w, shapes), _flat_views(flat_g, shapes)
    for key, w in initial.items():
        weights[key][...] = w
    model = Model(scheme=train_set.scheme, feature_dim=d, hidden_units=hp.hidden_units,
                  weights=weights, seed=seed)

    b = hp.batch_size
    n_full = n // b
    n_batches = -(-n // b)
    one_hot = np.eye(k)[y]
    row_at = np.arange(n) % b * k
    label_prob = np.empty(n)
    best_auc = -np.inf
    best_flat = None
    best_epoch = 0
    bad_epochs = 0
    for epoch in range(1, hp.max_epochs + 1):
        perm = rng.permutation(n)
        X_epoch, Y_epoch, label_at = X[perm], one_hot[perm], row_at + y[perm]
        for start in range(0, n, b):
            end = start + b
            _batch_step(weights, grads, X_epoch[start:end], Y_epoch[start:end],
                        label_at[start:end], label_prob[start:end])
            flat_g *= hp.learning_rate
            flat_w -= flat_g
        log_p = np.log(label_prob + 1e-12)
        mean_log_p = log_p[:n_full * b].reshape(n_full, b).mean(axis=1)
        if n % b:
            mean_log_p = np.append(mean_log_p, log_p[n_full * b:].mean())
        epoch_loss = 0.0
        # summed in batch order, as a running total, without compensation
        for loss in (-mean_log_p).tolist():
            epoch_loss += loss
        # the weights' squared norm turns non-finite once they overflow, which
        # flags a diverged fit even while the softmax, and so the loss, stays finite
        with np.errstate(over="ignore", invalid="ignore"):
            sq_norm = flat_w @ flat_w
        if not (math.isfinite(epoch_loss) and math.isfinite(sq_norm)):
            raise ValueError(f"diverged: non-finite loss at epoch {epoch}")
        model.train_loss_by_epoch.append(epoch_loss / n_batches)

        auc = roc_auc(referable_scores(model, X_tune), tune_bin).auc
        model.tune_auc_by_epoch.append(auc)
        if auc > best_auc:
            best_auc = auc
            best_flat = flat_w.copy()
            best_epoch = epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= hp.patience:
                break

    model.weights = {key: w.copy() for key, w in _flat_views(best_flat, shapes).items()}
    model.stopped_epoch = best_epoch
    model.tune_auc_at_stop = best_auc
    model.epochs_run = len(model.train_loss_by_epoch)
    return model


def train_many(jobs: list[tuple[Dataset, int, str]], tune_set: Dataset,
               hp: Hyperparams) -> list[Model]:
    """Fit each (train_set, seed, label) job, one `train` call each, and return
    the models in job order. The jobs are independent, so `workers.run_tasks`
    fits each in its own forked process, the largest train set first, one at
    a time without an OpenBLAS thread cap. A job's ValueError is raised again
    as "label: error", so the message names the fit that failed; when several
    fail, the first in job order is raised."""
    return run_tasks(lambda job: train(job[0], tune_set, hp, job[1]), jobs,
                     labels=[label for _, _, label in jobs],
                     costs=[len(train_set) for train_set, _, _ in jobs])


def write_model(model: Model, path) -> None:
    payload = record(model)
    payload.update(format_version=MODEL_FORMAT_VERSION, scheme=scheme_payload(model.scheme),
                   weights={key: w.tolist() for key, w in model.weights.items()})
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")


def read_model(path) -> Model:
    """Load a model file. Its keys must be exactly the Model fields plus
    format_version, each field must have its JSON type, and its weights must
    be an object of finite arrays with the shapes that feature_dim,
    hidden_units (at least 1) and the scheme's class count give them."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    version = payload.pop("format_version", None) if isinstance(payload, dict) else None
    if type(version) is not int or version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version}")
    check_record(payload, {f.name: f.type for f in fields(Model)})
    payload["scheme"] = scheme = scheme_from_payload(payload["scheme"])
    if payload["hidden_units"] < 1:
        raise ValueError(f"hidden_units must be >= 1, got {payload['hidden_units']}")
    shapes = _weight_shapes(payload["feature_dim"], scheme.n_classes, payload["hidden_units"])
    if not isinstance(payload["weights"], dict):
        raise ValueError(f"weights must be an object, got {type(payload['weights']).__name__}")
    weights = {key: np.array(w) for key, w in payload["weights"].items()}
    got = {key: w.shape for key, w in weights.items()}
    if got != shapes:
        raise ValueError(f"weight shapes {got} do not match {shapes}")
    for key, w in weights.items():
        if w.dtype.kind not in "if" or not np.isfinite(w).all():
            raise ValueError(f"weights {key} must be finite numbers")
    payload["weights"] = {key: w.astype(float) for key, w in weights.items()}
    return Model(**payload)
