"""Property test: no input file a user passes ends in a traceback.

From a miniature `gen`, one input file (the INI config among them) is
written mutated (truncated, a directory in its place, a value of the wrong
type, a NaN or infinite value, an oversized value, an unknown key, section or
header) and a command that reads it runs in-process through `main`. Whatever
the mutation, no exception escapes, the exit code is 0, 1 or 2, and a failing
run's last stderr line says why. A command that fits models, given a mutated
train, tune or test set, exits 0, or exits 2 before it forks any fit.
Permission errors are not tested: the suite may run as root.
"""

import contextlib
import io
import json
import shutil

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sncv.cli import main

TINY_CONFIG = """
[population]
n_train = 240
n_tune = 200
n_test = 200
feature_dim = 4
clusters_per_class = 4

[train]
hidden_units = 4
max_epochs = 3
patience = 2

[experiment]
n_boot = 100
n_lowest = 20
min_fold_size = 50
"""

# The commands that read each input file, with the mutated file as "X"; a
# name ending in .csv or .json is that file of the generated set. Every
# command reads the config.
READERS = {
    "tiny.cfg": [["gen"], ["split", "--train", "train.csv"]],
    "scheme.json": [["gen", "--scheme", "X"], ["split", "--train", "train.csv", "--scheme", "X"]],
    "pool.json": [["gen", "--pool", "X"], ["graders", "--train", "scored.csv", "--pool", "X"]],
    "model.json": [["eval", "--train", "test.csv", "--model", "X"]],
    "train.csv": [["split", "--train", "X"], ["eval", "--train", "X", "--model", "model.json"]],
    "scored.csv": [["select", "--train", "X", "--k", "20"], ["relabel", "--train", "X"],
                   ["graders", "--train", "X"]],
}
# The commands that fit models. Given any of the inputs a fit reads, mutated,
# each exits 0, or exits 2 before it forks a fit.
FITTING = [["train"], ["score"], ["pipeline", "--k", "150"], ["burden"]]
FIT_INPUTS = ["train.csv", "tune.csv", "test.csv"]
MUTATIONS = ["truncate", "directory", "wrong-type", "non-finite", "oversized", "bad-header"]
# One more character than csv's default field size limit.
OVERSIZED = "x" * (2**17 + 1)
WRONG_TYPES = [None, True, "x", 1.5, -1, 10**400, [], {}]  # 10**400 overflows a float


def run(config, *args):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(["--config", str(config), "--seed", "3", *args])
    return rc, err.getvalue()


def assert_clean_exit(rc, err):
    assert rc in (0, 1, 2)
    if rc:
        assert err.splitlines()[-1].startswith("error:" if rc == 2 else "failure:"), err


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    (root / "tiny.cfg").write_text(TINY_CONFIG)
    train = ["--train", str(root / "train.csv"), "--tune", str(root / "tune.csv")]
    for args in (["gen"], ["score", *train], ["train", *train]):
        rc, _ = run(root / "tiny.cfg", "--out", str(root), *args)
        assert rc == 0
    return root


def json_paths(node, path=()):
    """The path of every value in a JSON document, the root's included."""
    yield path
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from json_paths(child, path + (key,))


def mutate_json(text, mutation, data):
    doc = json.loads(text)
    if mutation == "bad-header":
        dicts = [p for p in json_paths(doc) if isinstance(lookup(doc, p), dict)]
        path = data.draw(st.sampled_from(dicts), label="object")
        node = lookup(doc, path)
        key = data.draw(st.sampled_from(sorted(node)), label="key")
        node["bogus"] = node.pop(key)
        return json.dumps(doc)
    value = {"wrong-type": st.sampled_from(WRONG_TYPES),
             "non-finite": st.sampled_from([float("nan"), float("inf"), float("-inf")]),
             "oversized": st.just(OVERSIZED)}[mutation]
    path = data.draw(st.sampled_from(list(json_paths(doc))), label="path")
    new = data.draw(value, label="value")
    if not path:
        return json.dumps(new)
    lookup(doc, path[:-1])[path[-1]] = new
    return json.dumps(doc)


def lookup(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def mutate_csv(text, mutation, data):
    rows = [line.split(",") for line in text.splitlines()]
    column = data.draw(st.integers(0, len(rows[0]) - 1), label="column")
    if mutation == "bad-header":
        rows[0][column] = data.draw(st.sampled_from(["", "bogus", "f9", "label", "fold"]),
                                    label="name")
    else:
        row = data.draw(st.integers(1, len(rows) - 1), label="row")
        rows[row][column] = data.draw({
            "wrong-type": st.sampled_from(["", "x", "1.5", "-1", "true", "1e999", "9" * 30]),
            "non-finite": st.sampled_from(["nan", "inf", "-inf"]),
            "oversized": st.just(OVERSIZED)}[mutation], label="cell")
    return "".join(",".join(row) + "\n" for row in rows)


def mutate_ini(text, mutation, data):
    lines = text.splitlines()
    if mutation == "bad-header":  # an unknown section or key
        i = data.draw(st.sampled_from([i for i, line in enumerate(lines) if line]), label="line")
        line = lines[i]
        lines[i] = "[bogus]" if line.startswith("[") else "bogus" + line[line.index(" "):]
    else:
        i = data.draw(st.sampled_from([i for i, line in enumerate(lines) if " = " in line]),
                      label="line")
        value = data.draw({
            "wrong-type": st.sampled_from(["", "x", "1.5", "-1", "0", "true", "1,2"]),
            "non-finite": st.sampled_from(["nan", "inf", "-inf"]),
            "oversized": st.sampled_from(["9" * 30, "1e999", "9" * 5000])}[mutation],
            label="value")
        lines[i] = lines[i].split(" = ")[0] + " = " + value
    return "".join(line + "\n" for line in lines)


def write_mutated(good, bad, mutation, data):
    """Write the good file at path bad with the mutation applied."""
    text = good.read_text()
    if mutation == "truncate":
        bad.write_text(text[:data.draw(st.integers(0, len(text) - 1), label="length")])
    elif mutation == "directory":
        bad.mkdir()
    else:
        mutate = {".json": mutate_json, ".csv": mutate_csv, ".cfg": mutate_ini}[bad.suffix]
        bad.write_text(mutate(text, mutation, data))


@given(data=st.data(), name=st.sampled_from(sorted(READERS)),
       mutation=st.sampled_from(MUTATIONS))
@settings(max_examples=80, derandomize=True, deadline=None, database=None)
def test_mutated_input_never_escapes_main(inputs, tmp_path_factory, data, name, mutation):
    work = tmp_path_factory.mktemp("case")
    bad = work / name
    write_mutated(inputs / name, bad, mutation, data)
    command = data.draw(st.sampled_from(READERS[name]), label="command")
    args = [str(bad) if a == "X" else str(inputs / a) if "." in a else a for a in command]
    config = bad if name == "tiny.cfg" else inputs / "tiny.cfg"
    assert_clean_exit(*run(config, "--out", str(work / "out"), *args))
    shutil.rmtree(work)


@pytest.mark.parametrize("classes", [2, 5])
def test_scheme_of_another_class_count_never_escapes_gen(inputs, tmp_path, classes):
    # the config's class_priors list 4 classes
    scheme = tmp_path / "scheme.json"
    scheme.write_text(json.dumps({"classes": [f"c{i}" for i in range(classes)],
                                  "positive": [classes - 1]}))
    rc, err = run(inputs / "tiny.cfg", "--out", str(tmp_path / "out"), "gen",
                  "--scheme", str(scheme))
    assert_clean_exit(rc, err)


@given(data=st.data(), name=st.sampled_from(FIT_INPUTS), mutation=st.sampled_from(MUTATIONS),
       command=st.sampled_from(FITTING))
@settings(max_examples=100, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_fit_input_exits_2_before_any_fork(inputs, tmp_path_factory, forks, data, name,
                                                   mutation, command):
    work = tmp_path_factory.mktemp("fit")
    write_mutated(inputs / name, work / name, mutation, data)
    args = [arg for n in FIT_INPUTS
            for arg in (f"--{n[:-4]}", str(work / n if n == name else inputs / n))]
    forks.clear()
    rc, err = run(inputs / "tiny.cfg", "--out", str(work / "out"), *command, *args)
    assert rc == 0 or (rc == 2 and forks == []), err
    assert_clean_exit(rc, err)
    shutil.rmtree(work)
