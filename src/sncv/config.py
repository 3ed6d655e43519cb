"""Run configuration: flat INI-style config files with command-line overrides.

One pipeline seed reproduces everything; each stochastic stage derives its own
sub-seed from (seed, stage name) via a stable hash, so stages stay independent
of one another and of execution order.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, replace
from pathlib import Path

from .dataset import InputError
from .scoring import derive_seed
from .synth import PopulationConfig
from .trainer import Hyperparams

DEFAULT_PRIORS = (0.508, 0.246, 0.160, 0.086)
DEFAULT_K_GRID = (0.625, 0.75, 0.875)


@dataclass
class RunConfig:
    # paths
    scheme_path: str | None = None
    train_path: str | None = None
    tune_path: str | None = None
    test_path: str | None = None
    pool_path: str | None = None
    out_dir: str = "runs/out"
    # population
    n_train: int = 20000
    n_tune: int = 2000
    n_test: int = 20000
    feature_dim: int = 12
    class_priors: tuple[float, ...] = DEFAULT_PRIORS
    class_spread: float = 1.0
    ambiguity_overlap: float = 2.0 / 1.2 - 1.0
    clusters_per_class: int = 24
    cluster_scatter: float = 8.0
    cluster_bulk_shares: tuple[float, ...] = (0.5, 0.5, 0.7, 1.0)
    cluster_region_offsets: tuple | None = ((0.0, 0.0), (20.0, 0.0), (0.0, 0.0), (20.0, 0.0))
    structure_seed: int = 0
    # training
    hyperparams: Hyperparams = field(default_factory=lambda: Hyperparams(
        learning_rate=0.05, batch_size=32, max_epochs=100, patience=8,
        hidden_units=48, l2=0.0, seed=0,
    ))
    # experiment
    k: int | None = None
    k_grid: tuple[float, ...] = DEFAULT_K_GRID
    subsample_fraction: float = 4.0 / 7.0
    margin: float = 0.02
    alpha: float = 0.05
    n_boot: int = 1000
    n_lowest: int = 800
    oracle_error_rate: float = 0.0
    mismatch_threshold: float = 0.30
    bin_width: float = 0.05
    min_fold_size: int = 100
    high_band: float = 0.45
    low_band: float = 0.15
    select_mode: str = "stratified"
    seed: int | None = None
    model_paths: list[str] = field(default_factory=list)

    def stage_seed(self, stage: str) -> int:
        if self.seed is None:
            raise InputError("seed required: pass --seed or set [experiment] seed")
        return derive_seed(self.seed, stage)

    def hp_for_stage(self, stage: str) -> Hyperparams:
        return replace(self.hyperparams, seed=self.stage_seed(stage))

    def population(self, n: int, seed: int) -> PopulationConfig:
        """Generator settings for an n-example draw under this run's population config."""
        return PopulationConfig(
            n=n, feature_dim=self.feature_dim, class_priors=self.class_priors,
            class_spread=self.class_spread, ambiguity_overlap=self.ambiguity_overlap,
            seed=seed, clusters_per_class=self.clusters_per_class,
            cluster_scatter=self.cluster_scatter, cluster_bulk_shares=self.cluster_bulk_shares,
            cluster_region_offsets=self.cluster_region_offsets,
            structure_seed=self.structure_seed,
        )

    def to_dict(self) -> dict:
        hp = self.hyperparams
        return {
            "paths": {
                "scheme": self.scheme_path, "train": self.train_path,
                "tune": self.tune_path, "test": self.test_path,
                "pool": self.pool_path, "out": self.out_dir,
            },
            "population": {
                "n_train": self.n_train, "n_tune": self.n_tune, "n_test": self.n_test,
                "feature_dim": self.feature_dim, "class_priors": list(self.class_priors),
                "class_spread": self.class_spread, "ambiguity_overlap": self.ambiguity_overlap,
                "clusters_per_class": self.clusters_per_class,
                "cluster_scatter": self.cluster_scatter,
                "cluster_bulk_shares": list(self.cluster_bulk_shares),
                "cluster_region_offsets": (None if self.cluster_region_offsets is None
                                           else [list(r) for r in self.cluster_region_offsets]),
                "structure_seed": self.structure_seed,
            },
            "train": {
                "learning_rate": hp.learning_rate, "batch_size": hp.batch_size,
                "max_epochs": hp.max_epochs, "patience": hp.patience,
                "hidden_units": hp.hidden_units, "l2": hp.l2,
            },
            "experiment": {
                "k": self.k, "k_grid": list(self.k_grid),
                "subsample_fraction": self.subsample_fraction,
                "margin": self.margin, "alpha": self.alpha, "n_boot": self.n_boot,
                "n_lowest": self.n_lowest, "oracle_error_rate": self.oracle_error_rate,
                "mismatch_threshold": self.mismatch_threshold, "bin_width": self.bin_width,
                "min_fold_size": self.min_fold_size, "high_band": self.high_band,
                "low_band": self.low_band, "select_mode": self.select_mode,
                "seed": self.seed,
            },
        }


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.replace(";", ",").split(",") if v.strip())


def load_config(path=None) -> RunConfig:
    """Read a config file; missing sections/keys keep the reference defaults."""
    cfg = RunConfig()
    if path is None:
        return cfg
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")

    if parser.has_section("paths"):
        sec = parser["paths"]
        cfg.scheme_path = sec.get("scheme", cfg.scheme_path)
        cfg.train_path = sec.get("train", cfg.train_path)
        cfg.tune_path = sec.get("tune", cfg.tune_path)
        cfg.test_path = sec.get("test", cfg.test_path)
        cfg.pool_path = sec.get("pool", cfg.pool_path)
        cfg.out_dir = sec.get("out", cfg.out_dir)
    if parser.has_section("population"):
        sec = parser["population"]
        cfg.n_train = sec.getint("n_train", cfg.n_train)
        cfg.n_tune = sec.getint("n_tune", cfg.n_tune)
        cfg.n_test = sec.getint("n_test", cfg.n_test)
        cfg.feature_dim = sec.getint("feature_dim", cfg.feature_dim)
        if "class_priors" in sec:
            cfg.class_priors = _floats(sec["class_priors"])
        cfg.class_spread = sec.getfloat("class_spread", cfg.class_spread)
        cfg.ambiguity_overlap = sec.getfloat("ambiguity_overlap", cfg.ambiguity_overlap)
        cfg.clusters_per_class = sec.getint("clusters_per_class", cfg.clusters_per_class)
        cfg.cluster_scatter = sec.getfloat("cluster_scatter", cfg.cluster_scatter)
        if "cluster_bulk_shares" in sec:
            cfg.cluster_bulk_shares = _floats(sec["cluster_bulk_shares"])
        cfg.structure_seed = sec.getint("structure_seed", cfg.structure_seed)
    if parser.has_section("train"):
        sec = parser["train"]
        hp = cfg.hyperparams
        cfg.hyperparams = Hyperparams(
            learning_rate=sec.getfloat("learning_rate", hp.learning_rate),
            batch_size=sec.getint("batch_size", hp.batch_size),
            max_epochs=sec.getint("max_epochs", hp.max_epochs),
            patience=sec.getint("patience", hp.patience),
            hidden_units=sec.getint("hidden_units", hp.hidden_units),
            l2=sec.getfloat("l2", hp.l2),
            seed=hp.seed,
        )
    if parser.has_section("experiment"):
        sec = parser["experiment"]
        if "k" in sec:
            cfg.k = sec.getint("k")
        if "k_grid" in sec:
            cfg.k_grid = _floats(sec["k_grid"])
        cfg.subsample_fraction = sec.getfloat("subsample_fraction", cfg.subsample_fraction)
        cfg.margin = sec.getfloat("margin", cfg.margin)
        cfg.alpha = sec.getfloat("alpha", cfg.alpha)
        cfg.n_boot = sec.getint("n_boot", cfg.n_boot)
        cfg.n_lowest = sec.getint("n_lowest", cfg.n_lowest)
        cfg.oracle_error_rate = sec.getfloat("oracle_error_rate", cfg.oracle_error_rate)
        cfg.mismatch_threshold = sec.getfloat("mismatch_threshold", cfg.mismatch_threshold)
        cfg.bin_width = sec.getfloat("bin_width", cfg.bin_width)
        cfg.min_fold_size = sec.getint("min_fold_size", cfg.min_fold_size)
        cfg.high_band = sec.getfloat("high_band", cfg.high_band)
        cfg.low_band = sec.getfloat("low_band", cfg.low_band)
        cfg.select_mode = sec.get("select_mode", cfg.select_mode)
        if "seed" in sec:
            cfg.seed = sec.getint("seed")
    return cfg


def require_paths(cfg: RunConfig, *names: str) -> None:
    for name in names:
        value = getattr(cfg, f"{name}_path")
        if value is None:
            raise InputError(f"{name} path is required for this command")
        if not Path(value).exists():
            raise InputError(f"{name} file not found: {value}")
