"""Run configuration: flat INI-style config files with command-line overrides.

Each config key is declared once, as a `RunConfig` field: its section, its
type (the annotation), its default and its flag, if any. Loading, the report
dump, the flags and the trainer and generator settings all loop over KEYS.

One pipeline seed reproduces everything; each stochastic stage derives its own
sub-seed from (seed, stage name) via a stable hash, so stages stay independent
of one another and of execution order.
"""

from __future__ import annotations

import configparser
import operator
from dataclasses import dataclass, field, fields

from .dataset import InputError, record
from .scoring import derive_seed
from .selection import MODES
from .synth import PopulationConfig
from .trainer import Hyperparams

def float_list(text: str) -> tuple[float, ...]:
    """Parse a float list separated by commas or semicolons."""
    return tuple(float(v) for v in text.replace(";", ",").split(",") if v.strip())


def _key(section: str, default, flag: str | tuple[str, ...] | None = None,
         help: str | None = None, *, key: str | None = None,
         choices: tuple[str, ...] | None = None, interval: str | None = None):
    """Declare a config key stored in a RunConfig field. `flag` places its
    `--key-name` flag before the command ("main"), after every command
    ("command") or after just the commands that read the key (their names);
    `key` names it in the file and the report when the field name does not;
    `interval`, such as "(0, 1]", is the range its value (or, for a list,
    each of at least one value) must lie in."""
    return field(default=default, metadata={"section": section, "key": key, "flag": flag,
                                            "help": help, "choices": choices,
                                            "interval": interval})


def _in_interval(value, interval: str) -> bool:
    lo, hi = (float(v) for v in interval[1:-1].split(","))
    above = operator.gt if interval[0] == "(" else operator.ge
    below = operator.lt if interval[-1] == ")" else operator.le
    values = value if isinstance(value, tuple) else (value,)
    return bool(values) and all(above(v, lo) and below(v, hi) for v in values)


@dataclass
class RunConfig:
    scheme_path: str | None = _key("paths", None, "command", "class scheme JSON", key="scheme")
    train_path: str | None = _key("paths", None, "command", key="train",
                                  help="dataset CSV (scored CSV for select/relabel/graders)")
    tune_path: str | None = _key("paths", None, "command", "tune dataset CSV", key="tune")
    test_path: str | None = _key("paths", None, "command", "test dataset CSV", key="test")
    pool_path: str | None = _key("paths", None, "command", "grader pool JSON", key="pool")
    out_dir: str = _key("paths", "runs/out", "main", "output directory (overrides config)",
                        key="out")

    n_train: int = _key("population", 20000)
    n_tune: int = _key("population", 2000)
    n_test: int = _key("population", 20000)
    feature_dim: int = _key("population", 12)
    class_priors: tuple[float, ...] = _key("population", (0.508, 0.246, 0.160, 0.086))
    class_spread: float = _key("population", 1.0)
    ambiguity_overlap: float = _key("population", 2.0 / 1.2 - 1.0)
    clusters_per_class: int = _key("population", 24)
    cluster_scatter: float = _key("population", 8.0)
    cluster_bulk_shares: tuple[float, ...] = _key("population", (0.5, 0.5, 0.7, 1.0))
    structure_seed: int = _key("population", 0)

    learning_rate: float = _key("train", 0.05)
    batch_size: int = _key("train", 32)
    max_epochs: int = _key("train", 100)
    patience: int = _key("train", 8)
    hidden_units: int = _key("train", 48)

    k: int | None = _key("experiment", None, ("select", "pipeline", "burden"), "selection size")
    k_grid: tuple[float, ...] = _key("experiment", (0.625, 0.75, 0.875),
                                     ("pipeline", "bands", "burden"),
                                     "k fractions, separated by ',' or ';'", interval="(0, 1]")
    subsample_fraction: float = _key("experiment", 4.0 / 7.0, ("burden",), interval="(0, 1]")
    margin: float = _key("experiment", 0.02, ("burden", "eval"), interval="(0, inf)")
    alpha: float = _key("experiment", 0.05, interval="(0, 1)")
    n_boot: int = _key("experiment", 1000, interval="[100, inf)")
    n_lowest: int = _key("experiment", 800, ("relabel",), "relabel tranche size")
    oracle_error_rate: float = _key("experiment", 0.0, ("relabel",), interval="[0, 1)")
    mismatch_threshold: float = _key("experiment", 0.30, ("graders",), interval="[0, 1)")
    # at most 20,000 histogram bins, one per row of the reference train set
    bin_width: float = _key("experiment", 0.05, interval="[0.0001, inf)")
    min_fold_size: int = _key("experiment", 100, interval="[1, inf)")
    select_mode: str = _key("experiment", "stratified", ("select",), choices=MODES)
    seed: int | None = _key("experiment", None, "main", "pipeline seed (overrides config)")

    model_paths: list[str] = field(default_factory=list)

    def _section(self, section: str) -> dict:
        values = record(self)
        return {f.name: values[f.name] for (s, _), f in KEYS.items() if s == section}

    @property
    def hyperparams(self) -> Hyperparams:
        return Hyperparams(**self._section("train"))

    def stage_seed(self, stage: str) -> int:
        if self.seed is None:
            raise InputError("seed required: pass --seed or set [experiment] seed")
        return derive_seed(self.seed, stage)

    @property
    def cluster_region_offsets(self) -> tuple[tuple[float, float], ...]:
        """Per-class (x, y) offsets of the cluster regions, not settable but
        reported: class c is shifted by 20 * (c % 2) along x."""
        return tuple((20.0 * (c % 2), 0.0) for c in range(len(self.class_priors)))

    def population(self, n: int) -> PopulationConfig:
        """Generator settings for an n-example draw under this run's population config."""
        generator = {f.name for f in fields(PopulationConfig)}
        return PopulationConfig(n=n, cluster_region_offsets=self.cluster_region_offsets, **{
            k: v for k, v in self._section("population").items() if k in generator})

    def to_dict(self) -> dict:
        report = {section: {} for section, _ in KEYS}
        for (section, key), f in KEYS.items():
            value = getattr(self, f.name)
            report[section][key] = list(value) if isinstance(value, tuple) else value
        report["population"]["cluster_region_offsets"] = [
            list(r) for r in self.cluster_region_offsets]
        return report


# (section, key) -> the RunConfig field that declares it
KEYS = {(f.metadata["section"], f.metadata["key"] or f.name): f
        for f in fields(RunConfig) if f.metadata}
_PARSERS = {"int": int, "float": float, "str": str, "tuple[float, ...]": float_list}


def value_parser(f):
    """The function that turns a key's text into a value of its declared type."""
    return _PARSERS[f.type.removesuffix(" | None")]


def load_config(path=None) -> RunConfig:
    """Read a config file; keys it leaves out keep the reference defaults.

    Values are read literally. Unknown sections and keys, keys under
    [DEFAULT], values outside their key's interval and values the parser,
    trainer or generator reject raise InputError naming the file and, where
    there is one, the key."""
    cfg = RunConfig()
    if path is None:
        return cfg
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as err:  # its message may span lines
        raise InputError(f"{path}: {' '.join(str(err).split())}") from None
    if not read:
        raise InputError(f"config file not found: {path}")
    for key in parser.defaults():
        raise InputError(f"{path}: [DEFAULT] {key}: keys under [DEFAULT] are not allowed")
    for section in parser.sections():
        if section not in {s for s, _ in KEYS}:
            raise InputError(f"{path}: unknown section [{section}]")
        for key, text in parser[section].items():
            f = KEYS.get((section, key))
            if f is None:
                raise InputError(f"{path}: unknown key [{section}] {key}")
            try:
                value = value_parser(f)(text)
            except ValueError as err:
                raise InputError(f"{path}: [{section}] {key}: {err}") from None
            choices = f.metadata["choices"]
            if choices and value not in choices:
                raise InputError(f"{path}: [{section}] {key} must be one of "
                                 f"{', '.join(choices)}, got {value!r}")
            setattr(cfg, f.name, value)
    check(cfg, path)
    return cfg


def check(cfg: RunConfig, source) -> None:
    """Fail before any command runs, not mid-run, on values out of their
    declared range and on settings the trainer or generator reject.
    `source` (the file, or the flags) starts the message."""
    for (section, key), f in KEYS.items():
        interval, value = f.metadata["interval"], getattr(cfg, f.name)
        if interval is None or _in_interval(value, interval):
            continue
        if isinstance(value, tuple):
            raise InputError(f"{source}: [{section}] {key} must list at least one value, "
                             f"each in {interval}, got {list(value)}")
        raise InputError(f"{source}: [{section}] {key} must be in {interval}, got {value!r}")
    try:
        cfg.hyperparams
    except ValueError as err:
        raise InputError(f"{source}: [train] {err}") from None
    for name in ("n_train", "n_tune", "n_test"):
        try:
            cfg.population(getattr(cfg, name))
        except ValueError as err:
            raise InputError(f"{source}: [population] {err} (building the {name} draw)") from None

