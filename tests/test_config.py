"""Config loading: every key round-trips through a file, flags override the
file, and anything the loader does not know is rejected."""

import importlib.util
from dataclasses import fields
from pathlib import Path

import pytest

from sncv.cli import COMMANDS, _apply_overrides, build_parser
from sncv.config import KEYS, RunConfig, load_config
from sncv.dataset import InputError
from sncv.synth import PopulationConfig
from sncv.trainer import Hyperparams

from test_acceptance import MINI_CONFIG as ACCEPTANCE_CONFIG
from test_cli import MINI_CONFIG as CLI_CONFIG
from test_golden import GOLDEN_CONFIG

ROOT = Path(__file__).resolve().parents[1]
NOT_A_KEY = {("population", "cluster_region_offsets")}  # reported, not settable


def ini_text(value) -> str:
    if isinstance(value, list):
        return ", ".join(repr(v) for v in value)
    return value if isinstance(value, str) else repr(value)


def write_ini(path: Path, sections: dict) -> Path:
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {ini_text(value)}" for key, value in values.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def settable(report: dict) -> dict:
    return {section: {k: v for k, v in values.items() if (section, k) not in NOT_A_KEY}
            for section, values in report.items()}


def changed(section, key, value):
    """A valid value of the key's type that differs from the default `value`."""
    if section == "paths":
        return f"elsewhere/{key}"
    if value is None:  # k and seed
        return 5
    if isinstance(value, list):
        return value[::-1]  # priors and bulk shares keep their sum and length
    if isinstance(value, str):
        return "lowest"  # select_mode
    return value + 1 if isinstance(value, int) else value / 2 + 0.25  # fractions stay in range


def test_defaults_round_trip(tmp_path):
    report = RunConfig().to_dict()
    values = {section: {k: v for k, v in keys.items() if v is not None}
              for section, keys in settable(report).items()}
    assert load_config(write_ini(tmp_path / "d.cfg", values)).to_dict() == report


def test_every_key_round_trips_with_its_type(tmp_path):
    default = settable(RunConfig().to_dict())
    values = {section: {k: changed(section, k, v) for k, v in keys.items()}
              for section, keys in default.items()}
    loaded = settable(load_config(write_ini(tmp_path / "c.cfg", values)).to_dict())
    assert loaded == values
    for section, keys in values.items():
        for key, value in keys.items():
            assert loaded[section][key] != default[section][key], (section, key)
            assert type(loaded[section][key]) is type(value), (section, key)


def test_float_keys_written_as_integers_stay_floats(tmp_path):
    path = tmp_path / "f.cfg"
    path.write_text("[population]\ncluster_scatter = 8\n[experiment]\nk_grid = 1; 0.5\n")
    report = load_config(path).to_dict()
    assert repr(report["population"]["cluster_scatter"]) == "8.0"
    assert report["experiment"]["k_grid"] == [1.0, 0.5]


def test_settings_types_match_the_config_table():
    # each [train] key is one Hyperparams field, and each [population] key
    # one PopulationConfig field, but for the draw sizes that become `n`
    def keys(section):
        return {f.name for (s, _), f in KEYS.items() if s == section}

    assert {f.name for f in fields(Hyperparams)} == keys("train")
    assert {f.name for f in fields(PopulationConfig)} == (
        keys("population") - {"n_train", "n_tune", "n_test"} | {"n", "cluster_region_offsets"})


FILE = {"paths": {"scheme": "f/scheme.json", "train": "f/train.csv", "tune": "f/tune.csv",
                  "test": "f/test.csv", "pool": "f/pool.json", "out": "f/out"},
        "experiment": {"k": 7, "k_grid": [0.5, 0.6], "select_mode": "ncv", "n_lowest": 11,
                       "mismatch_threshold": 0.4, "margin": 0.03,
                       "subsample_fraction": 0.6, "oracle_error_rate": 0.1, "seed": 3}}

FLAGS = [  # (flag, value, section, key, expected)
    ("--seed", "9", "experiment", "seed", 9),
    ("--out", "g/out", "paths", "out", "g/out"),
    ("--train", "g/train.csv", "paths", "train", "g/train.csv"),
    ("--tune", "g/tune.csv", "paths", "tune", "g/tune.csv"),
    ("--test", "g/test.csv", "paths", "test", "g/test.csv"),
    ("--scheme", "g/scheme.json", "paths", "scheme", "g/scheme.json"),
    ("--pool", "g/pool.json", "paths", "pool", "g/pool.json"),
    ("--k", "8", "experiment", "k", 8),
    ("--k-grid", "0.7;0.8", "experiment", "k_grid", [0.7, 0.8]),
    ("--select-mode", "lowest", "experiment", "select_mode", "lowest"),
    ("--n-lowest", "12", "experiment", "n_lowest", 12),
    ("--mismatch-threshold", "0.5", "experiment", "mismatch_threshold", 0.5),
    ("--margin", "0.04", "experiment", "margin", 0.04),
    ("--subsample-fraction", "0.7", "experiment", "subsample_fraction", 0.7),
    ("--oracle-error-rate", "0.2", "experiment", "oracle_error_rate", 0.2),
]


def commands_taking(flag: str) -> set[str]:
    """The commands that accept `flag` after them."""
    [f] = [f for (_, key), f in KEYS.items() if "--" + key.replace("_", "-") == flag]
    commands = f.metadata["flag"]
    return set(commands) if isinstance(commands, tuple) else set(COMMANDS)


def resolve(cfg_path, *flags):
    """The config of `sncv --config cfg_path <flags> <command>`, with --seed and
    --out placed before the command and every other flag after it, under the
    first command (by name) that accepts all of those."""
    before = [f for f in flags if f.split("=")[0] in ("--seed", "--out")]
    after = [f for f in flags if f not in before]
    command = min(set(COMMANDS).intersection(*(commands_taking(f.split("=")[0]) for f in after)))
    args = build_parser().parse_args(["--config", str(cfg_path), *before, command, *after])
    return _apply_overrides(load_config(args.config), args).to_dict()


@pytest.mark.parametrize("flag, value, section, key, expected", FLAGS,
                         ids=[case[0] for case in FLAGS])
def test_flag_overrides_file(tmp_path, flag, value, section, key, expected):
    path = write_ini(tmp_path / "f.cfg", FILE)
    assert resolve(path)[section][key] == FILE[section][key]
    report = resolve(path, f"{flag}={value}")
    assert report[section][key] == expected
    untouched = {(s, k) for s, keys in FILE.items() for k in keys} - {(section, key)}
    if flag == "--k-grid":
        untouched.discard(("experiment", "k"))
    for s, k in untouched:
        assert report[s][k] == FILE[s][k], (s, k)


def test_k_precedence(tmp_path):
    path = write_ini(tmp_path / "f.cfg", FILE)
    assert resolve(path)["experiment"]["k"] == 7  # a file k wins over the file k_grid
    assert resolve(path, "--k-grid=0.5")["experiment"]["k"] is None
    assert resolve(path, "--k=9", "--k-grid=0.5")["experiment"]["k"] is None
    bare = write_ini(tmp_path / "g.cfg", {"experiment": {"k_grid": [0.5]}})
    assert resolve(bare, "--k=9")["experiment"]["k"] == 9


def fast_overrides() -> str:
    spec = importlib.util.spec_from_file_location("run_full_study",
                                                  ROOT / "scripts" / "run_full_study.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.FAST_OVERRIDES


COMMITTED = {
    "configs/reference.cfg": (ROOT / "configs" / "reference.cfg").read_text(encoding="utf-8"),
    "run_full_study.py --fast": fast_overrides(),
    "test_cli.py": CLI_CONFIG,
    "test_golden.py": GOLDEN_CONFIG,
    "test_acceptance.py": ACCEPTANCE_CONFIG,
}


@pytest.mark.parametrize("name", sorted(COMMITTED))
def test_committed_configs_load(tmp_path, name):
    path = tmp_path / "committed.cfg"
    path.write_text(COMMITTED[name], encoding="utf-8")
    load_config(path)


REJECTED = {
    "unknown key": ("[train]\nhiden_units = 3\n", r"unknown key \[train\] hiden_units"),
    "unknown section": ("[trian]\n", r"unknown section \[trian\]"),
    "key under DEFAULT": ("[DEFAULT]\nseed = 3\n", r"\[DEFAULT\] seed"),
    "key of another section": ("[experiment]\nhidden_units = 3\n",
                               r"unknown key \[experiment\] hidden_units"),
    "bad select mode": ("[experiment]\nselect_mode = best\n",
                        r"\[experiment\] select_mode must be one of .*'best'"),
    "bad int": ("[experiment]\nn_boot = 1.5\n", r"\[experiment\] n_boot: .*'1.5'"),
    "bad float list": ("[experiment]\nk_grid = 0.5, x\n", r"\[experiment\] k_grid: .*x'"),
    "priors not summing to 1": ("[population]\nclass_priors = 0.5, 0.4\n",
                                r"\[population\] class priors must sum to 1"),
    "empty draw": ("[population]\nn_tune = 0\n",
                   r"\[population\] population size must be positive .*n_tune"),
    "bad training setting": ("[train]\nlearning_rate = 0\n",
                             r"\[train\] learning_rate must be positive"),
    "not an INI file": ("seed = 3\n", r"no section headers"),
    "empty k grid": ("[experiment]\nk_grid =\n",
                     r"\[experiment\] k_grid must list at least one value, each in \(0, 1\], got \[\]"),
    "k fraction above 1": ("[experiment]\nk_grid = 0.5, 1.5\n",
                           r"\[experiment\] k_grid must list .* in \(0, 1\], got \[0.5, 1.5\]"),
    "k fraction of 0": ("[experiment]\nk_grid = 0\n", r"\[experiment\] k_grid must list"),
    "subsample fraction of 0": ("[experiment]\nsubsample_fraction = 0\n",
                                r"\[experiment\] subsample_fraction must be in \(0, 1\], got 0.0"),
    "negative subsample fraction": ("[experiment]\nsubsample_fraction = -0.1\n",
                                    r"\[experiment\] subsample_fraction must be in \(0, 1\]"),
    "subsample fraction above 1": ("[experiment]\nsubsample_fraction = 1.5\n",
                                   r"\[experiment\] subsample_fraction must be in \(0, 1\]"),
    "negative margin": ("[experiment]\nmargin = -1\n",
                        r"\[experiment\] margin must be in \(0, inf\), got -1.0"),
    "zero margin": ("[experiment]\nmargin = 0\n", r"\[experiment\] margin must be in \(0, inf\)"),
    "alpha of 1": ("[experiment]\nalpha = 1\n", r"\[experiment\] alpha must be in \(0, 1\), got 1.0"),
    "alpha of 0": ("[experiment]\nalpha = 0\n", r"\[experiment\] alpha must be in \(0, 1\)"),
    "too few bootstrap replicates": ("[experiment]\nn_boot = 99\n",
                                     r"\[experiment\] n_boot must be in \[100, inf\), got 99"),
    "zero bin width": ("[experiment]\nbin_width = 0\n",
                       r"\[experiment\] bin_width must be in \[0.0001, inf\), got 0.0"),
    "nan bin width": ("[experiment]\nbin_width = nan\n", r"\[experiment\] bin_width must be in"),
    "bin width of infinitely many bins": ("[experiment]\nbin_width = 5e-324\n",
                                          r"\[experiment\] bin_width must be in \[0.0001, inf\), "
                                          r"got 5e-324"),
    "bin width of too many bins": ("[experiment]\nbin_width = 1e-300\n",
                                   r"\[experiment\] bin_width must be in \[0.0001, inf\), "
                                   r"got 1e-300"),
    "bin width of more bins than rows": ("[experiment]\nbin_width = 1e-12\n",
                                         r"\[experiment\] bin_width must be in \[0.0001, inf\), "
                                         r"got 1e-12"),
    "oracle error rate of 1": ("[experiment]\noracle_error_rate = 1\n",
                               r"\[experiment\] oracle_error_rate must be in \[0, 1\), got 1.0"),
    "negative oracle error rate": ("[experiment]\noracle_error_rate = -0.1\n",
                                   r"\[experiment\] oracle_error_rate must be in \[0, 1\)"),
    "negative mismatch threshold": ("[experiment]\nmismatch_threshold = -1\n",
                                    r"\[experiment\] mismatch_threshold must be in \[0, 1\), got -1.0"),
    "mismatch threshold of 1": ("[experiment]\nmismatch_threshold = 1\n",
                                r"\[experiment\] mismatch_threshold must be in \[0, 1\)"),
    "negative min fold size": ("[experiment]\nmin_fold_size = -5\n",
                               r"\[experiment\] min_fold_size must be in \[1, inf\), got -5"),
    "nan learning rate": ("[train]\nlearning_rate = nan\n", r"\[train\] learning_rate must be positive"),
    "l2 key of an older config": ("[train]\nl2 = 0.0\n", r"unknown key \[train\] l2"),
    "no hidden layer": ("[train]\nhidden_units = 0\n", r"\[train\] hidden_units must be >= 1"),
    "nan class spread": ("[population]\nclass_spread = nan\n",
                         r"\[population\] class_spread must be positive"),
    "nan ambiguity overlap": ("[population]\nambiguity_overlap = nan\n",
                              r"\[population\] ambiguity_overlap must be >= 0"),
    "nan cluster scatter": ("[population]\ncluster_scatter = nan\n",
                            r"\[population\] cluster_scatter must be >= 0"),
    "infinite cluster scatter": ("[population]\ncluster_scatter = inf\n",
                                 r"\[population\] cluster_scatter must be finite"),
    "infinite class spread": ("[population]\nclass_spread = inf\n",
                              r"\[population\] class_spread must be finite"),
    "infinite learning rate": ("[train]\nlearning_rate = inf\n",
                               r"\[train\] learning_rate must be finite"),
    "nan class prior": ("[population]\nclass_priors = nan, 0.5, 0.25, 0.25\n",
                        r"\[population\] class priors must be non-negative"),
    "bulk share above 1": ("[population]\ncluster_bulk_shares = 1.5, 0.5, 0.7, 1.0\n",
                           r"\[population\] cluster_bulk_shares must each be in \[0, 1\], "
                           r"got \[1.5, 0.5, 0.7, 1.0\]"),
    "negative structure seed": ("[population]\nstructure_seed = -1\n",
                                r"\[population\] structure_seed must be >= 0"),
    "draw size beyond an array index": (f"[population]\nn_train = {'9' * 30}\n",
                                        r"\[population\] .* fit a 64-bit index .*n_train"),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_rejected_config(tmp_path, case):
    text, match = REJECTED[case]
    path = tmp_path / "bad.cfg"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(InputError, match=match):
        load_config(path)


def test_unparsable_config_is_named_on_one_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[population]\nn_tr\n", encoding="utf-8")
    with pytest.raises(InputError, match="parsing errors") as info:
        load_config(path)
    assert "\n" not in str(info.value)


def test_missing_config_file(tmp_path):
    with pytest.raises(InputError, match="config file not found"):
        load_config(tmp_path / "nope.cfg")
