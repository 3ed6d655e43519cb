"""Output checks behind ``failed``: each takes (bench, command) after the
command's first repetition and returns (facts, problems).

The checks read the artifacts with their own parsing, not with sncv code, so
a defect in sncv's codec cannot hide itself. Facts feed the quality metrics.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.stats import rankdata


def read_scheme(path: Path) -> dict:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return {"k": len(payload["classes"]), "positive": set(payload["positive"])}


def read_scored(path: Path) -> dict:
    """Columns of a scored CSV: ids, labels, true labels, qs and argmax of p*."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        columns = dict(zip(header, zip(*reader)))
    probs = np.array([columns[c] for c in header if c.startswith("p") and c[1:].isdigit()],
                     dtype=float)
    return {
        "id": list(columns["id"]),
        "label": np.array(columns["label"], dtype=int),
        "true_label": np.array(columns["true_label"], dtype=int),
        "qs": np.array(columns["quality_score"], dtype=float),
        "argmax": probs.argmax(axis=0),
    }


def _positive(scheme: dict, labels: np.ndarray) -> np.ndarray:
    return np.isin(labels, list(scheme["positive"]))


def _boundary_errors(scheme: dict, scored: dict) -> np.ndarray:
    """Observed label on the other side of the referable boundary from the truth."""
    return _positive(scheme, scored["label"]) != _positive(scheme, scored["true_label"])


def auc(scores: np.ndarray, is_positive: np.ndarray) -> float:
    """Mann-Whitney AUC with midranks for ties."""
    ranks = rankdata(scores)
    m = int(is_positive.sum())
    n = len(scores) - m
    return float((ranks[is_positive].sum() - m * (m + 1) / 2) / (m * n))


def _round_half_away(x: float) -> int:
    return int(math.floor(x + 0.5))


def _scored_input(bench, command) -> dict:
    """The scored CSV a select/relabel/graders command read, parsed once."""
    path = command.args[command.args.index("--train") + 1]
    if path not in bench.scored_inputs:
        bench.scored_inputs[path] = read_scored(Path(path))
    return bench.scored_inputs[path]


def check_score(bench, command):
    scheme = bench.scheme
    scored = read_scored(command.out / "scored.csv")
    problems = []
    n = bench.scale["n_train"]
    if len(scored["qs"]) != n:
        problems.append(f"scored.csv has {len(scored['qs'])} rows, expected {n}")
    magnitude = np.abs(scored["qs"])
    if not ((magnitude >= 1.0 / scheme["k"]) & (magnitude <= 1.0)).all():
        problems.append(f"quality scores outside [-1, -1/K] u [1/K, 1] for K={scheme['k']}")
    errors = _boundary_errors(scheme, scored)
    return {"noise_detect_auc": auc(-scored["qs"], errors)}, problems


def check_select(bench, command):
    scheme = bench.scheme
    scored = _scored_input(bench, command)
    out = command.out
    with open(out / "selected_ids.csv", newline="", encoding="utf-8") as fh:
        ids = [row[0] for row in list(csv.reader(fh))[1:]]
    summary = json.loads((out / "selection_summary.json").read_text(encoding="utf-8"))
    index = {i: j for j, i in enumerate(scored["id"])}
    if len(set(ids)) != len(ids) or not all(i in index for i in ids):
        return {}, ["selected ids are not distinct ids of the scored input"]
    rows = np.array([index[i] for i in ids], dtype=int)
    positive = _positive(scheme, scored["label"])
    n_pos = int(positive[rows].sum())
    n_neg = len(rows) - n_pos
    problems = []
    if summary["n_positive_selected"] != n_pos or summary["n_negative_selected"] != n_neg:
        problems.append("selection summary counts disagree with the selected ids")
    mode = command.args[command.args.index("--select-mode") + 1]
    facts = {}
    if mode in ("stratified", "lowest"):
        k = int(command.args[command.args.index("--k") + 1])
        want_pos = _round_half_away(positive.mean() * k)
        if (n_pos, n_neg) != (want_pos, k - want_pos):
            problems.append(f"{mode} select kept {n_pos}+/{n_neg}-, expected "
                            f"{want_pos}+/{k - want_pos}-")
    else:
        keep = scored["qs"] > 0 if mode == "ncv" else scored["argmax"] == scored["label"]
        if set(ids) != {scored["id"][j] for j in np.flatnonzero(keep)}:
            problems.append(f"{mode} select does not keep exactly the agreeing examples")
    if mode == "stratified":
        errors = _boundary_errors(scheme, scored)
        facts = {"kept_noise_rate": float(errors[rows].mean()),
                 "train_noise_rate": float(errors.mean())}
    return facts, problems


def check_gen(bench, command):
    scale = bench.scale
    expected = {"population.csv": scale["n_train"], "train.csv": scale["n_train"],
                "tune.csv": scale["n_tune"], "test.csv": scale["n_test"]}
    problems = []
    for name, n in expected.items():
        with open(command.out / name, "rb") as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != n:
            problems.append(f"{name} has {rows} rows, expected {n}")
    for name in ("scheme.json", "pool.json", "gen_report.json"):
        if not (command.out / name).is_file():
            problems.append(f"gen wrote no {name}")
    return {}, problems


def check_relabel(bench, command):
    report = json.loads((command.out / "relabel_report.json").read_text(encoding="utf-8"))
    n = bench.scale["n_lowest"]
    with open(command.out / "relabel_rows.csv", "rb") as fh:
        rows = sum(1 for _ in fh) - 1
    problems = []
    if report["n_relabeled"] != n or rows != n:
        problems.append(f"relabel covered {report['n_relabeled']} ids ({rows} rows), expected {n}")
    if not 0.0 <= report["relabel_rate"] <= 1.0:
        problems.append("relabel_rate outside [0, 1]")
    return {}, problems


def check_graders(bench, command):
    report = json.loads((command.out / "grader_report.json").read_text(encoding="utf-8"))
    graders = report["graders"]
    problems = []
    if sum(g["n_examples"] for g in graders) != bench.scale["n_train"]:
        problems.append("grader example counts do not add up to the training set")
    if not all(0.0 <= g["mismatch_rate"] <= 1.0 for g in graders):
        problems.append("grader mismatch rate outside [0, 1]")
    return {}, problems


def check_burden(bench, command):
    report = json.loads((command.out / "burden_report.json").read_text(encoding="utf-8"))
    problems = []
    for name, arm in report["arms"].items():
        lo, hi = arm["test_auc_ci95"]
        if not lo <= arm["test_auc"] <= hi:
            problems.append(f"{name}: CI [{lo}, {hi}] does not bracket AUC {arm['test_auc']}")
    tests = report["noninferiority_tests"] + report["two_tailed_tests"]
    for test in tests:
        p = test.get("p_noninferiority", test.get("p_two_tailed"))
        if p is None or not 0.0 <= p <= 1.0:
            problems.append(f"{test['model_a']} vs {test['model_b']}: p-value {p} outside [0, 1]")
    if len(tests) != 6:
        problems.append(f"burden reported {len(tests)} hypothesis tests, expected 6")
    return {"sncv_test_auc": report["arms"]["subsample_sncv"]["test_auc"]}, problems
