"""Shared fixtures: small synthetic datasets plus the cached reference runs
used by the experiment-level tests and the acceptance suite, and the gradient
check that tests the trainer's analytic gradients."""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest

from sncv import (
    Hyperparams,
    apply_grader_noise,
    cross_fold_score,
    default_grader_pool,
    default_scheme,
    generate_population,
    select_lowest_stratified,
    select_stratified,
)
from sncv import scoring, selection, trainer
from sncv.config import RunConfig
from sncv.scoring import derive_seed
from sncv.trainer import Model, _batch_step

REFERENCE_SEEDS = (0, 1, 2, 3, 4)


def make_reference_data(seed: int, n_train: int = 20000, n_tune: int = 2000,
                        n_test: int = 20000):
    """Noisy train set plus clean tune/test sets for one reference seed."""
    scheme = default_scheme()
    pool = default_grader_pool(scheme)
    cfg = RunConfig()
    population = generate_population(
        cfg.population(n_train), derive_seed(seed, "gen-train"), scheme)
    noisy = apply_grader_noise(population, pool, derive_seed(seed, "gen-noise"))
    tune = generate_population(cfg.population(n_tune), derive_seed(seed, "gen-tune"), scheme)
    test = generate_population(cfg.population(n_test), derive_seed(seed, "gen-test"), scheme)
    return {"population": population, "train": noisy, "tune": tune, "test": test,
            "pool": pool, "scheme": scheme}


def reference_hyperparams() -> Hyperparams:
    return RunConfig().hyperparams


class ReferenceRuns:
    """Lazily computed, cached per-seed artifacts of the reference experiment."""

    def __init__(self):
        self._data = {}
        self._scored = {}
        self._models = {}

    def data(self, seed: int):
        if seed not in self._data:
            self._data[seed] = make_reference_data(seed)
        return self._data[seed]

    def scored(self, seed: int):
        if seed not in self._scored:
            d = self.data(seed)
            hp = reference_hyperparams()
            self._scored[seed] = cross_fold_score(
                d["train"], d["tune"], hp, derive_seed(seed, "score"))
        return self._scored[seed]

    def model(self, seed: int, which: str):
        """The seed's model fitted on all its rows ("all"), on its lowest-QS 15%
        ("low15") or on its highest-QS 45% ("high45"); the first call for a
        seed fits all three, in one plan of independent fits."""
        if seed not in self._models:
            d = self.data(seed)
            scored, _, _ = self.scored(seed)
            n = len(d["train"])
            subsets = {
                "all": d["train"],
                "low15": d["train"].subset(
                    select_lowest_stratified(scored, int(round(0.15 * n))).selected_ids),
                "high45": d["train"].subset(
                    select_stratified(scored, int(round(0.45 * n))).selected_ids),
            }
            models = trainer.train_many(
                [(subset, derive_seed(seed, f"model-{name}"), name)
                 for name, subset in subsets.items()], d["tune"], reference_hyperparams())
            self._models[seed] = dict(zip(subsets, models))
        return self._models[seed][which]


@pytest.fixture(scope="session")
def reference_runs() -> ReferenceRuns:
    return ReferenceRuns()


@pytest.fixture(scope="session")
def small_noisy_setup():
    """A 4000-example noisy set with tune data, for mid-cost integration tests."""
    scheme = default_scheme()
    pool = default_grader_pool(scheme)
    population = generate_population(RunConfig().population(4000), 101, scheme)
    noisy = apply_grader_noise(population, pool, seed=102)
    tune = generate_population(RunConfig().population(1200), 103, scheme)
    return {"population": population, "train": noisy, "tune": tune,
            "pool": pool, "scheme": scheme}


@pytest.fixture(scope="session")
def small_scored(small_noisy_setup):
    hp = dataclasses.replace(reference_hyperparams(), max_epochs=40)
    scored, m1, m2 = cross_fold_score(
        small_noisy_setup["train"], small_noisy_setup["tune"], hp, seed=7)
    return {"scored": scored, "m1": m1, "m2": m2, **small_noisy_setup}


@pytest.fixture
def fit_sizes(monkeypatch):
    """The train-set size of each job given to `trainer.train_many`, in job
    order, recorded in this process: a count taken in a forked fit is lost."""
    sizes = []
    train_many = trainer.train_many

    def counting_train_many(jobs, *args, **kwargs):
        sizes.extend(len(train_set) for train_set, _, _ in jobs)
        return train_many(jobs, *args, **kwargs)

    # scoring and selection bind the name on import
    for module in (trainer, scoring, selection):
        monkeypatch.setattr(module, "train_many", counting_train_many)
    return sizes


@pytest.fixture
def forks(monkeypatch):
    """The parent pid of each `os.fork` call, with two CPUs allowed, so that
    two children may run at once on any machine."""
    calls = []
    fork = os.fork

    def counting_fork():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    return calls


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process {'running' if pid == 0 else f'{pid} unreaped'}")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def _step(model: Model, X: np.ndarray, y: np.ndarray):
    """The trainer's batch step on one batch: label probabilities and gradients."""
    k = model.scheme.n_classes
    label_prob = np.empty(len(X))
    grads = {key: np.empty_like(w) for key, w in model.weights.items()}
    _batch_step(model.weights, grads, X, np.eye(k)[y], np.arange(len(X)) * k + y, label_prob)
    return label_prob, grads


def batch_loss(model: Model, X: np.ndarray, y: np.ndarray) -> float:
    label_prob, _ = _step(model, X, y)
    return float(-np.log(label_prob + 1e-12).mean())


def analytic_gradients(model: Model, X: np.ndarray, y: np.ndarray) -> dict[str, np.ndarray]:
    return _step(model, X, y)[1]


def numeric_gradients(model: Model, X: np.ndarray, y: np.ndarray,
                      step: float = 1e-5) -> dict[str, np.ndarray]:
    """Central finite differences on every parameter."""
    grads = {}
    for key, w in model.weights.items():
        g = np.zeros_like(w)
        flat = w.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = batch_loss(model, X, y)
            flat[i] = orig - step
            down = batch_loss(model, X, y)
            flat[i] = orig
            gflat[i] = (up - down) / (2 * step)
        grads[key] = g
    return grads


def max_relative_error(analytic: dict[str, np.ndarray], numeric: dict[str, np.ndarray]) -> float:
    worst = 0.0
    for key in analytic:
        a = analytic[key].reshape(-1)
        b = numeric[key].reshape(-1)
        rel = np.abs(a - b) / np.maximum(np.abs(a) + np.abs(b), 1e-8)
        worst = max(worst, float(rel.max()))
    return worst


def gradient_check(model: Model, X: np.ndarray, y: np.ndarray, step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients."""
    if len(X) == 0:
        raise ValueError("gradient check needs a non-empty batch")
    return max_relative_error(analytic_gradients(model, X, y),
                              numeric_gradients(model, X, y, step))
