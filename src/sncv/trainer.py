"""Multinomial softmax classifier (optional single tanh hidden layer), trained by
seeded mini-batch gradient descent with early stopping on tune-set referable AUC.

Determinism contract: identical (data content, hyperparameters, seed) produce
bitwise-identical models. Example order never matters because training sorts by
example id before the seeded per-epoch shuffles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataset import ClassScheme, Dataset
from .metrics import roc_auc

MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class Hyperparams:
    learning_rate: float = 0.05
    batch_size: int = 32
    max_epochs: int = 100
    patience: int = 8
    hidden_units: int = 16
    l2: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.hidden_units < 0:
            raise ValueError("hidden_units must be >= 0")
        if self.l2 < 0:
            raise ValueError("l2 must be >= 0")


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
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _forward(weights: dict[str, np.ndarray], X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hidden activations H (X itself without a hidden layer) and logits Z."""
    if "w1" in weights:
        H = np.tanh(X @ weights["w1"] + weights["b1"])
        return H, H @ weights["w2"] + weights["b2"]
    return X, X @ weights["w"] + weights["b"]


def predict_proba(model: Model, X: np.ndarray) -> np.ndarray:
    """Probability matrix (n, K) for a feature matrix."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.feature_dim:
        raise ValueError(f"feature dimension mismatch: got {X.shape}, expected (*, {model.feature_dim})")
    return _softmax(_forward(model.weights, X)[1])


def referable_scores(model: Model, X: np.ndarray) -> np.ndarray:
    probs = predict_proba(model, X)
    return probs[:, sorted(model.scheme.positive_indices)].sum(axis=1)


def _init_weights(d: int, k: int, hidden: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    # seeded uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)]
    if hidden > 0:
        b1 = 1.0 / np.sqrt(d)
        b2 = 1.0 / np.sqrt(hidden)
        return {
            "w1": rng.uniform(-b1, b1, size=(d, hidden)),
            "b1": rng.uniform(-b1, b1, size=hidden),
            "w2": rng.uniform(-b2, b2, size=(hidden, k)),
            "b2": rng.uniform(-b2, b2, size=k),
        }
    b = 1.0 / np.sqrt(d)
    return {"w": rng.uniform(-b, b, size=(d, k)), "b": rng.uniform(-b, b, size=k)}


def _forward_backward(weights, X, y, l2):
    """Mean cross-entropy loss and gradients for one batch."""
    n = len(X)
    H, Z = _forward(weights, X)
    P = _softmax(Z)
    loss = float(-np.log(P[np.arange(n), y] + 1e-12).mean())
    G = P
    G[np.arange(n), y] -= 1.0
    G /= n
    w, b = ("w2", "b2") if "w1" in weights else ("w", "b")
    grads = {w: H.T @ G + l2 * weights[w], b: G.sum(axis=0)}
    if "w1" in weights:
        GH = (G @ weights["w2"].T) * (1.0 - H * H)
        grads["w1"] = X.T @ GH + l2 * weights["w1"]
        grads["b1"] = GH.sum(axis=0)
    loss += 0.5 * l2 * sum(np.sum(weights[key] ** 2) for key in ("w1", w) if key in weights)
    return loss, grads


def train(train_set: Dataset, tune_set: Dataset, hp: Hyperparams) -> Model:
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

    rng = np.random.default_rng(hp.seed)
    weights = _init_weights(d, k, hp.hidden_units, rng)
    model = Model(scheme=train_set.scheme, feature_dim=d, hidden_units=hp.hidden_units,
                  weights=weights, seed=hp.seed)

    best_auc = -np.inf
    best_weights = None
    best_epoch = 0
    bad_epochs = 0
    for epoch in range(1, hp.max_epochs + 1):
        perm = rng.permutation(n)
        X_epoch, y_epoch = X[perm], y[perm]
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n, hp.batch_size):
            end = start + hp.batch_size
            loss, grads = _forward_backward(weights, X_epoch[start:end], y_epoch[start:end], hp.l2)
            if not np.isfinite(loss):
                raise ValueError(f"diverged: non-finite loss at epoch {epoch}")
            for key, g in grads.items():
                weights[key] -= hp.learning_rate * g
            epoch_loss += loss
            n_batches += 1
        model.train_loss_by_epoch.append(epoch_loss / n_batches)

        auc = roc_auc(referable_scores(model, X_tune), tune_bin).auc
        model.tune_auc_by_epoch.append(auc)
        if auc > best_auc:
            best_auc = auc
            best_weights = {key: w.copy() for key, w in weights.items()}
            best_epoch = epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= hp.patience:
                break

    model.weights = best_weights
    model.stopped_epoch = best_epoch
    model.tune_auc_at_stop = best_auc
    model.epochs_run = len(model.train_loss_by_epoch)
    return model


def write_model(model: Model, path) -> None:
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "scheme": {
            "classes": list(model.scheme.class_names),
            "positive": sorted(model.scheme.positive_indices),
        },
        "feature_dim": model.feature_dim,
        "hidden_units": model.hidden_units,
        "weights": {key: w.tolist() for key, w in model.weights.items()},
        "seed": model.seed,
        "stopped_epoch": model.stopped_epoch,
        "tune_auc_at_stop": model.tune_auc_at_stop,
        "epochs_run": model.epochs_run,
        "train_loss_by_epoch": model.train_loss_by_epoch,
        "tune_auc_by_epoch": model.tune_auc_by_epoch,
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")


def read_model(path) -> Model:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("format_version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {payload.get('format_version')}")
    scheme = ClassScheme(
        class_names=tuple(payload["scheme"]["classes"]),
        positive_indices=frozenset(payload["scheme"]["positive"]),
    )
    return Model(
        scheme=scheme,
        feature_dim=payload["feature_dim"],
        hidden_units=payload["hidden_units"],
        weights={key: np.array(w, dtype=float) for key, w in payload["weights"].items()},
        seed=payload["seed"],
        stopped_epoch=payload["stopped_epoch"],
        tune_auc_at_stop=payload["tune_auc_at_stop"],
        epochs_run=payload["epochs_run"],
        train_loss_by_epoch=list(payload["train_loss_by_epoch"]),
        tune_auc_by_epoch=list(payload["tune_auc_by_epoch"]),
    )
