"""Multinomial softmax classifier (optional single tanh hidden layer), trained by
seeded mini-batch gradient descent with early stopping on tune-set referable AUC.

Determinism contract: identical (data content, hyperparameters, seed) produce
bitwise-identical models. Example order never matters because training sorts by
example id before the seeded per-epoch shuffles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .dataset import ClassScheme, Dataset, scheme_from_payload, scheme_payload
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
        if self.hidden_units < 0:
            raise ValueError("hidden_units must be >= 0")
        if not self.l2 >= 0:
            raise ValueError("l2 must be >= 0")
        for name in ("learning_rate", "l2"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


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


def _weight_shapes(d: int, k: int, hidden: int) -> dict[str, tuple[int, ...]]:
    """The shape of each weight array for d features, k classes and a hidden
    layer of that width (none when hidden is 0)."""
    if hidden > 0:
        return {"w1": (d, hidden), "b1": (hidden,), "w2": (hidden, k), "b2": (k,)}
    return {"w": (d, k), "b": (k,)}


def _init_weights(d: int, k: int, hidden: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    # seeded uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)], drawn in _weight_shapes order;
    # a bias shares the fan-in of its layer's matrix (b1 of w1, b of w)
    shapes = _weight_shapes(d, k, hidden)
    weights = {}
    for key, shape in shapes.items():
        bound = 1.0 / np.sqrt(shapes["w" + key[1:]][0])
        weights[key] = rng.uniform(-bound, bound, size=shape)
    return weights


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

    rng = np.random.default_rng(seed)
    weights = _init_weights(d, k, hp.hidden_units, rng)
    model = Model(scheme=train_set.scheme, feature_dim=d, hidden_units=hp.hidden_units,
                  weights=weights, seed=seed)

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
    payload = {f.name: getattr(model, f.name) for f in fields(Model)}
    payload.update(format_version=MODEL_FORMAT_VERSION, scheme=scheme_payload(model.scheme),
                   weights={key: w.tolist() for key, w in model.weights.items()})
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")


def read_model(path) -> Model:
    """Load a model file. Its keys must be exactly the Model fields plus
    format_version, and its weights must have the shapes that feature_dim,
    hidden_units and the scheme's class count give them."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("format_version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {payload.get('format_version')}")
    del payload["format_version"]
    names = {f.name for f in fields(Model)}
    if payload.keys() != names:
        raise ValueError(f"missing keys {sorted(names - payload.keys())}, "
                         f"unknown keys {sorted(payload.keys() - names)}")
    payload["scheme"] = scheme = scheme_from_payload(payload["scheme"])
    shapes = _weight_shapes(payload["feature_dim"], scheme.n_classes, payload["hidden_units"])
    weights = {key: np.array(w, dtype=float) for key, w in payload["weights"].items()}
    got = {key: w.shape for key, w in weights.items()}
    if got != shapes:
        raise ValueError(f"weight shapes {got} do not match {shapes}")
    payload["weights"] = weights
    return Model(**payload)
