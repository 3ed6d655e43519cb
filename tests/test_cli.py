"""End-to-end command-line tests on a miniature configuration."""

import dataclasses
import errno
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sncv import (Dataset, cli, read_dataset, read_scheme, scoring, selection,
                  synth, trainer, workers, write_dataset)
from sncv.scoring import derive_seed
from sncv.cli import COMMANDS, build_parser, main
from sncv.config import RunConfig

from test_workers import in_process

MINI_CONFIG = """
[population]
n_train = 1200
n_tune = 400
n_test = 600
feature_dim = 6
clusters_per_class = 8
cluster_scatter = 5.0

[train]
hidden_units = 16
max_epochs = 12
patience = 4

[experiment]
n_boot = 150
n_lowest = 60
min_fold_size = 50
"""


@pytest.fixture(scope="module")
def mini_config(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "mini.cfg"
    cfg.write_text(MINI_CONFIG)
    return cfg


@pytest.fixture(scope="module")
def generated(mini_config, tmp_path_factory):
    out = tmp_path_factory.mktemp("gen")
    rc = main(["--config", str(mini_config), "--seed", "7", "--out", str(out), "gen"])
    assert rc == 0
    return out


def run_cli(mini_config, out, *args, seed="7"):
    return main(["--config", str(mini_config), "--seed", seed, "--out", str(out), *args])


# Edits of a generated pool.json that gen and graders must refuse, with the
# message after "malformed grader pool file: ".
MALFORMED_POOLS = [
    (lambda p: p[0].update(grader_id=1), "grader entry 0: grader_id must be a string, got 1"),
    (lambda p: p[0].update(role=None), "grader entry 0: role must be a string, got None"),
    (lambda p: p[3].update(workload_weight=True),
     "grader entry 3: workload_weight must be a number, got True"),
    (lambda p: p[3].update(workload_weight="0.5"),
     "grader entry 3: workload_weight must be a number, got '0.5'"),
    (lambda p: p[1].update(confusion={"flip_to_adjacent": 0.2, "flip_to_adjecent": 0.9}),
     "grader entry 1: confusion: missing keys [], unknown keys ['flip_to_adjecent']"),
    (lambda p: p[1].update(confusion={"flip_to_adjacent": True}),
     "grader entry 1: confusion: flip_to_adjacent must be a number, got True"),
    (lambda p: p.__setitem__(2, list(p[2].values())),
     "grader entry 2: expected a JSON object, got list"),
    (lambda p: p.clear(), "grader pool: expected a list of grader entries, got an empty list"),
    # an edit that returns a payload writes it in place of the pool
    (lambda p: {"a": p[0]}, "grader pool: expected a list of grader entries, got dict"),
    (lambda p: p[0].update(confusion=[[r == c for c in range(4)] for r in range(4)]),
     "grader entry 0: confusion row 0 must be a list of numbers, "
     "got [True, False, False, False]"),
    (lambda p: p[0].update(confusion="identity"),
     "grader entry 0: confusion must be a list, got 'identity'"),
    (lambda p: p[0].update(confusion=[[1, 0, 0, 0], [1]]),
     "grader entry 0: confusion row 1 must have 4 entries, got 1"),
    (lambda p: p[0].update(confusion=[[1, 0, 0, 0]] * 3),
     "grader entry 0: confusion must have 4 rows, got 3"),
]
MALFORMED_POOL_IDS = ["int-grader-id", "null-role", "bool-weight", "string-weight",
                      "misspelt-shorthand-key", "bool-shorthand", "entry-a-list", "empty-pool",
                      "object-pool", "bool-confusion-rows", "string-confusion",
                      "ragged-confusion-rows", "three-confusion-rows"]


class TestGen:
    def test_outputs_exist_and_tau_reasonable(self, generated):
        for name in ("scheme.json", "pool.json", "population.csv", "train.csv",
                     "tune.csv", "test.csv", "gen_report.json"):
            assert (generated / name).exists()
        report = json.loads((generated / "gen_report.json").read_text())
        assert abs(report["tau"] - 0.246) < 0.04  # small-n draw tolerance
        assert report["seed"] == 7

    def test_byte_identical_across_runs(self, mini_config, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run_cli(mini_config, out_a, "gen") == 0
        assert run_cli(mini_config, out_b, "gen") == 0
        for name in ("train.csv", "tune.csv", "pool.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_population_csv_holds_the_true_labels_without_features(self, generated):
        with open(generated / "population.csv", newline="", encoding="utf-8") as fh:
            assert fh.readline() == "id,label,true_label,grader_id\r\n"
        scheme = read_scheme(generated / "scheme.json")
        population = read_dataset(generated / "population.csv", scheme)
        train = read_dataset(generated / "train.csv", scheme)
        assert population.feature_dim == 0
        assert population.ids.tolist() == train.ids.tolist()
        assert population.y.tolist() == population.true_y.tolist() == train.true_y.tolist()
        assert (population.grader == "").all()

    def test_every_dataset_file_goes_through_write_dataset(self, mini_config, tmp_path,
                                                          monkeypatch):
        # perfbench's trace counts gen's written rows at write_dataset
        rows, write = [], cli.write_dataset

        def counting_write(dataset, path):
            rows.append(len(dataset))
            write(dataset, path)

        monkeypatch.setattr(cli, "write_dataset", counting_write)
        assert run_cli(mini_config, tmp_path, "gen") == 0
        sizes = json.loads((tmp_path / "gen_report.json").read_text())["config"]["population"]
        assert len(rows) == 4
        assert sum(rows) == 2 * sizes["n_train"] + sizes["n_tune"] + sizes["n_test"]

    def test_missing_scheme_file_exits_2(self, mini_config, tmp_path, capsys):
        rc = main(["--config", str(mini_config), "--seed", "7",
                   "--out", str(tmp_path), "gen", "--scheme", "/nope/missing.json"])
        assert rc == 2
        assert "missing.json" in capsys.readouterr().err

    def test_malformed_config_value_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[experiment]\nn_boot = many\n")
        rc = main(["--config", str(bad), "--seed", "7", "--out", str(tmp_path), "gen"])
        assert rc == 2
        assert "'many'" in capsys.readouterr().err

    def test_pool_not_matching_scheme_exits_2(self, mini_config, tmp_path, capsys):
        pool = tmp_path / "pool.json"
        pool.write_text(json.dumps([{"grader_id": "g0", "role": "ophthalmologist",
                                     "workload_weight": 1.0,
                                     "confusion": [[0.9, 0.1], [0.1, 0.9]]}]))
        rc = run_cli(mini_config, tmp_path / "out", "gen", "--pool", str(pool))
        assert rc == 2
        assert "pool.json: malformed grader pool file: grader entry 0: confusion row 0 must " \
            "have 4 entries, got 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_pool_repeating_a_grader_id_exits_2(self, mini_config, generated, tmp_path, capsys):
        entries = json.loads((generated / "pool.json").read_text())
        pool = tmp_path / "pool.json"
        pool.write_text(json.dumps(entries + [dict(entries[0], role="optometrist")]))
        rc = run_cli(mini_config, tmp_path / "out", "gen", "--pool", str(pool))
        assert rc == 2
        assert f"malformed grader pool file: duplicate grader id {entries[0]['grader_id']!r}" \
            in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_pool_with_unknown_key_exits_2_naming_it(self, mini_config, generated, tmp_path,
                                                     capsys):
        entries = json.loads((generated / "pool.json").read_text())
        entries[1]["workload_wieght"] = 5.0
        pool = tmp_path / "pool.json"
        pool.write_text(json.dumps(entries))
        rc = run_cli(mini_config, tmp_path / "out", "gen", "--pool", str(pool))
        assert rc == 2
        assert "malformed grader pool file: grader entry 1: missing keys [], " \
            "unknown keys ['workload_wieght']" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_pool_weight_beyond_float_range_exits_2(self, mini_config, generated, tmp_path,
                                                    capsys):
        entries = json.loads((generated / "pool.json").read_text())
        entries[0]["workload_weight"] = 10**400
        pool = tmp_path / "pool.json"
        pool.write_text(json.dumps(entries))
        rc = run_cli(mini_config, tmp_path / "out", "gen", "--pool", str(pool))
        assert rc == 2
        assert f"{pool}: malformed grader pool file: int too large to convert to float" \
            in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("command", ["gen", "graders"])
    @pytest.mark.parametrize("edit, message", MALFORMED_POOLS, ids=MALFORMED_POOL_IDS)
    def test_malformed_pool_exits_2_naming_file_and_entry(self, mini_config, generated,
                                                          scored_csv, tmp_path, capsys,
                                                          command, edit, message):
        entries = json.loads((generated / "pool.json").read_text())
        replaced = edit(entries)
        pool = tmp_path / "pool.json"
        pool.write_text(json.dumps(entries if replaced is None else replaced))
        scored = ["--train", str(scored_csv)] if command == "graders" else []
        rc = run_cli(mini_config, tmp_path / "out", command, *scored, "--pool", str(pool))
        assert rc == 2
        assert capsys.readouterr().err.splitlines()[-1] == \
            f"error: {pool}: malformed grader pool file: {message}"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["gen", "split"])
    def test_scheme_with_a_misspelt_key_exits_2_naming_it(self, mini_config, generated,
                                                          tmp_path, capsys, command):
        scheme = tmp_path / "scheme.json"
        scheme.write_text('{"classes": ["a", "b", "c", "d"], "positive": [3], "positve": [2]}')
        train = ["--train", str(generated / "train.csv")] if command == "split" else []
        rc = run_cli(mini_config, tmp_path / "out", command, *train, "--scheme", str(scheme))
        assert rc == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: {scheme}: malformed scheme file: scheme: missing keys [], "
            "unknown keys ['positve']")
        assert not (tmp_path / "out").exists()

    def test_scheme_with_one_positive_class_generates(self, mini_config, tmp_path):
        # class d has no other positive class to take within-side confusion
        scheme = tmp_path / "scheme.json"
        scheme.write_text('{"classes": ["a", "b", "c", "d"], "positive": [3]}')
        assert run_cli(mini_config, tmp_path / "out", "gen", "--scheme", str(scheme)) == 0
        assert read_scheme(tmp_path / "out" / "scheme.json") == read_scheme(scheme)

    @pytest.mark.parametrize("classes", [2, 5])
    def test_scheme_not_matching_class_priors_exits_2(self, mini_config, tmp_path, capsys,
                                                       classes):
        scheme = tmp_path / "scheme.json"
        scheme.write_text(json.dumps({"classes": [f"c{i}" for i in range(classes)],
                                      "positive": [classes - 1]}))
        rc = run_cli(mini_config, tmp_path / "out", "gen", "--scheme", str(scheme))
        assert rc == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: the scheme has {classes} classes, but [population] class_priors lists 4: "
            "gen needs one per class")
        assert not (tmp_path / "out").exists()


class TestSplitTrainScore:
    def test_split(self, mini_config, generated, tmp_path):
        rc = run_cli(mini_config, tmp_path, "split",
                     "--train", str(generated / "train.csv"),
                     "--scheme", str(generated / "scheme.json"))
        assert rc == 0
        d1 = (tmp_path / "d1.csv").read_text().strip().splitlines()
        d2 = (tmp_path / "d2.csv").read_text().strip().splitlines()
        assert len(d1) - 1 == 600 and len(d2) - 1 == 600

    def test_train_writes_model(self, mini_config, generated, tmp_path):
        rc = run_cli(mini_config, tmp_path, "train",
                     "--train", str(generated / "train.csv"),
                     "--tune", str(generated / "tune.csv"),
                     "--scheme", str(generated / "scheme.json"))
        assert rc == 0
        assert (tmp_path / "model.json").exists()
        report = json.loads((tmp_path / "train_report.json").read_text())
        assert 0.5 < report["tune_auc_at_stop"] <= 1.0

    def test_score_then_select_modes(self, mini_config, generated, tmp_path):
        score_dir = tmp_path / "score"
        rc = run_cli(mini_config, score_dir, "score",
                     "--train", str(generated / "train.csv"),
                     "--tune", str(generated / "tune.csv"),
                     "--scheme", str(generated / "scheme.json"))
        assert rc == 0
        scored = score_dir / "scored.csv"
        assert scored.exists()

        sel_dir = tmp_path / "sel"
        rc = run_cli(mini_config, sel_dir, "select",
                     "--train", str(scored), "--scheme", str(generated / "scheme.json"),
                     "--k", "400")
        assert rc == 0
        summary = json.loads((sel_dir / "selection_summary.json").read_text())
        assert summary["n_selected"] == 400
        assert summary["mode"] == "stratified"

        ncv_dir = tmp_path / "ncv"
        rc = run_cli(mini_config, ncv_dir, "select",
                     "--train", str(scored), "--scheme", str(generated / "scheme.json"),
                     "--select-mode", "ncv")
        assert rc == 0
        summary = json.loads((ncv_dir / "selection_summary.json").read_text())
        assert summary["mode"] == "ncv"
        assert summary["k_requested"] is None

    @pytest.mark.parametrize("command, extra", [("score", []), ("pipeline", ["--k", "900"])])
    def test_scored_csv_leaves_out_the_features(self, mini_config, generated, tmp_path,
                                                command, extra):
        rc = run_cli(mini_config, tmp_path, command,
                     "--train", str(generated / "train.csv"),
                     "--tune", str(generated / "tune.csv"),
                     "--scheme", str(generated / "scheme.json"), *extra)
        assert rc == 0
        with open(tmp_path / "scored.csv", newline="", encoding="utf-8") as fh:
            assert fh.readline() == \
                "id,label,true_label,grader_id,fold,quality_score,p0,p1,p2,p3\r\n"

    @pytest.mark.parametrize("command", ["train", "score", "split"])
    def test_scored_csv_as_train_set_exits_2_before_any_fit(self, mini_config, generated,
                                                           scored_csv, tmp_path, capsys,
                                                           command):
        tune = generated / "tune.csv"
        inputs = [] if command == "split" else ["--tune", str(tune)]
        rc = run_cli(mini_config, tmp_path / "out", command, "--train", str(scored_csv),
                     *inputs, "--scheme", str(generated / "scheme.json"))
        assert rc == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: {scored_csv}: the train set has no feature columns" if command == "split"
            else f"error: {tune}: the tune set has 6 features, the train set 0")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("rows", ["negatives", "none"])
    @pytest.mark.parametrize("command", ["train", "score", "bands", "pipeline", "burden"])
    def test_one_sided_or_empty_train_set_exits_2_before_any_fit(
            self, mini_config, generated, tmp_path, fit_sizes, capsys, command, rows):
        scheme = read_scheme(generated / "scheme.json")
        train = read_dataset(generated / "train.csv", scheme)
        bad = tmp_path / f"{rows}.csv"
        keep = train.binary_labels() == 0 if rows == "negatives" else np.zeros(len(train), bool)
        write_dataset(train.take(np.flatnonzero(keep)), bad)
        rc = run_cli(mini_config, tmp_path / "out", command, "--train", str(bad),
                     "--tune", str(generated / "tune.csv"),
                     "--test", str(generated / "test.csv"),
                     "--scheme", str(generated / "scheme.json"))
        assert rc == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: {bad}: the train set needs labels on both sides of the referability "
            "boundary")
        assert not (tmp_path / "out").exists()
        assert fit_sizes == []

    def test_diverged_one_batch_fit_names_epoch_1_without_a_warning(self, mini_config,
                                                                   generated, tmp_path):
        # a fresh interpreter, as the CLI runs: pytest's own capture would hide
        # numpy's RuntimeWarning from stderr
        scheme = read_scheme(generated / "scheme.json")
        train = read_dataset(generated / "train.csv", scheme)
        side = train.binary_labels()
        rows = np.concatenate([np.flatnonzero(side == 0)[:16], np.flatnonzero(side == 1)[:16]])
        write_dataset(train.take(rows), tmp_path / "one_batch.csv")
        config = tmp_path / "overflow.cfg"
        config.write_text(MINI_CONFIG.replace("[train]", "[train]\nlearning_rate = 1e300"))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                          os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "sncv", "--config", str(config), "--seed", "7", "--out",
             str(tmp_path / "out"), "train", "--train", str(tmp_path / "one_batch.csv"),
             "--tune", str(generated / "tune.csv"), "--scheme", str(generated / "scheme.json")],
            capture_output=True, text=True, env=env, check=False)
        assert proc.returncode == 1
        assert proc.stderr == "failure: train: diverged: non-finite loss at epoch 1\n"


class TestPipeline:
    def test_one_class_final_selection_exits_1_naming_its_k(self, mini_config, generated,
                                                            tmp_path, capsys, monkeypatch):
        def negatives_only(scored, k):
            ids = scored.dataset.ids[scored.dataset.binary_labels() == 0][:k]
            return selection.SelectionResult(tuple(ids.tolist()), 0, len(ids),
                                             tau_used=None, k_requested=k, mode="stratified")

        monkeypatch.setattr(selection, "select_stratified", negatives_only)
        rc = run_cli(mini_config, tmp_path / "out", "pipeline",
                     "--train", str(generated / "train.csv"),
                     "--tune", str(generated / "tune.csv"),
                     "--scheme", str(generated / "scheme.json"), "--k", "300")
        assert rc == 1
        assert capsys.readouterr().err.splitlines()[-1].startswith(
            "failure: final k=300: degenerate-train-set: ")

    def test_pipeline_artifacts_and_k_grid(self, mini_config, generated, tmp_path):
        rc = run_cli(mini_config, tmp_path, "pipeline",
                     "--train", str(generated / "train.csv"),
                     "--tune", str(generated / "tune.csv"),
                     "--scheme", str(generated / "scheme.json"),
                     "--k-grid", "0.625,0.75,0.875")
        assert rc == 0
        for name in ("model_final.json", "scored.csv", "qs_histogram.csv",
                     "pipeline_report.json"):
            assert (tmp_path / name).exists()
        report = json.loads((tmp_path / "pipeline_report.json").read_text())
        assert len(report["k_grid_tune_auc"]) == 3
        assert str(report["k_used"]) in report["k_grid_tune_auc"]
        best = max(report["k_grid_tune_auc"].values())
        assert report["k_grid_tune_auc"][str(report["k_used"])] == best

    def test_histogram_gap_zero(self, mini_config, generated, tmp_path):
        rc = run_cli(mini_config, tmp_path, "pipeline",
                     "--train", str(generated / "train.csv"),
                     "--tune", str(generated / "tune.csv"),
                     "--scheme", str(generated / "scheme.json"), "--k", "900")
        assert rc == 0
        rows = (tmp_path / "qs_histogram.csv").read_text().strip().splitlines()[1:]
        for row in rows:
            lo, hi, c_non, c_ref = row.split(",")
            if float(lo) >= -0.25 + 1e-9 and float(hi) <= 0.25 - 1e-9:
                assert c_non == "0" and c_ref == "0"


@pytest.fixture(scope="module")
def scored_csv(mini_config, generated, tmp_path_factory):
    out = tmp_path_factory.mktemp("scored")
    rc = run_cli(mini_config, out, "score",
                 "--train", str(generated / "train.csv"),
                 "--tune", str(generated / "tune.csv"),
                 "--scheme", str(generated / "scheme.json"))
    assert rc == 0
    return out / "scored.csv"


@pytest.fixture(scope="module")
def model_json(mini_config, generated, tmp_path_factory):
    out = tmp_path_factory.mktemp("model")
    rc = run_cli(mini_config, out, "train",
                 "--train", str(generated / "train.csv"),
                 "--tune", str(generated / "tune.csv"),
                 "--scheme", str(generated / "scheme.json"))
    assert rc == 0
    return out / "model.json"


class TestRelabelAndGraders:
    def test_relabel_report(self, mini_config, generated, scored_csv, tmp_path):
        rc = run_cli(mini_config, tmp_path, "relabel",
                     "--train", str(scored_csv),
                     "--scheme", str(generated / "scheme.json"))
        assert rc == 0
        report = json.loads((tmp_path / "relabel_report.json").read_text())
        assert report["n_relabeled"] == 60
        confusion = report["confusion"]
        assert sum(sum(row) for row in confusion) == 60
        rows = (tmp_path / "relabel_rows.csv").read_text().strip().splitlines()
        assert len(rows) - 1 == 60

    def test_a_tranche_without_a_negative_quality_score_writes_a_null_agreement_rate(
            self, mini_config, generated, scored_csv, tmp_path, capsys):
        scored = scoring.read_scored_dataset(scored_csv, read_scheme(generated / "scheme.json"))
        agreeing = tmp_path / "agreeing.csv"
        scoring.write_scored_dataset(scoring.ScoredDataset(
            scored.dataset, scored.fold, np.abs(scored.qs), scored.probs), agreeing)
        rc = run_cli(mini_config, tmp_path / "out", "relabel", "--train", str(agreeing),
                     "--scheme", str(generated / "scheme.json"))
        assert rc == 0
        report = strict_json((tmp_path / "out" / "relabel_report.json").read_text())
        assert (report["model_agreement_rate"], report["n_boundary_disagreements"]) == (None, 0)
        assert capsys.readouterr().out.splitlines()[-1].endswith(" model_agreement=null")

    def test_graders_threshold_flag_matches_default(self, mini_config, generated,
                                                    scored_csv, tmp_path):
        out_a = tmp_path / "default"
        out_b = tmp_path / "explicit"
        rc = run_cli(mini_config, out_a, "graders",
                     "--train", str(scored_csv),
                     "--scheme", str(generated / "scheme.json"),
                     "--pool", str(generated / "pool.json"))
        assert rc == 0
        rc = run_cli(mini_config, out_b, "graders",
                     "--train", str(scored_csv),
                     "--scheme", str(generated / "scheme.json"),
                     "--pool", str(generated / "pool.json"),
                     "--mismatch-threshold", "0.3")
        assert rc == 0
        a = json.loads((out_a / "grader_report.json").read_text())
        b = json.loads((out_b / "grader_report.json").read_text())
        assert a["graders"] == b["graders"]
        assert a["flagged_role_shares"] == b["flagged_role_shares"]


class TestBandsAndBurden:
    def test_bands_reports(self, mini_config, generated, tmp_path):
        rc = run_cli(mini_config, tmp_path, "bands",
                     "--train", str(generated / "train.csv"),
                     "--tune", str(generated / "tune.csv"),
                     "--scheme", str(generated / "scheme.json"),
                     "--k-grid", "0.5,0.75")
        assert rc == 0
        auc_rows = (tmp_path / "bands_auc.csv").read_text().strip().splitlines()
        comp_rows = (tmp_path / "bands_composition.csv").read_text().strip().splitlines()
        assert len(auc_rows) - 1 == 3  # 0.5, 0.75 and the full band
        assert len(comp_rows) - 1 == 3
        # full band: high and low selections coincide, delta is zero
        last = auc_rows[-1].split(",")
        assert float(last[3]) == 0.0
        # unstratified top band holds a smaller positive share than the bottom
        first_comp = comp_rows[1].split(",")
        assert float(first_comp[1]) < float(first_comp[2])

    def test_burden_report(self, mini_config, generated, tmp_path):
        rc = run_cli(mini_config, tmp_path, "burden",
                     "--train", str(generated / "train.csv"),
                     "--tune", str(generated / "tune.csv"),
                     "--test", str(generated / "test.csv"),
                     "--scheme", str(generated / "scheme.json"),
                     "--subsample-fraction", "1.0")
        assert rc == 0
        report = json.loads((tmp_path / "burden_report.json").read_text())
        assert set(report["arms"]) == {"full_baseline", "subsample_baseline",
                                       "subsample_sncv", "subsample_ncv"}
        assert len(report["noninferiority_tests"]) == 3
        assert len(report["two_tailed_tests"]) == 3
        # f = 1.0 makes the subsample the full set: identical training data
        assert report["n_subsample"] == 1200

    def test_one_class_ncv_selection_exits_1_naming_the_ncv_fit(self, small_generated, tmp_path,
                                                                capsys, monkeypatch):
        # the agreement filter needs the fold models, so the ncv fit's own
        # check is the first that can see a one-sided selection
        def negatives_only(scored, exact=False):
            ids = scored.dataset.ids[scored.dataset.binary_labels() == 0]
            return selection.SelectionResult(tuple(ids.tolist()), 0, len(ids),
                                             tau_used=None, k_requested=None, mode="ncv")

        monkeypatch.setattr(selection, "select_ncv", negatives_only)
        rc = run_cli(small_generated / "small.cfg", tmp_path / "out", "burden",
                     "--train", str(small_generated / "train.csv"),
                     "--tune", str(small_generated / "tune.csv"),
                     "--test", str(small_generated / "test.csv"))
        assert rc == 1
        assert capsys.readouterr().err.splitlines()[-1].startswith(
            "failure: ncv: degenerate-train-set: ")
        assert not (tmp_path / "out" / "burden_report.json").exists()


SMALL_CONFIG = MINI_CONFIG.replace("n_train = 1200", "n_train = 180").replace(
    "n_tune = 400", "n_tune = 200").replace("n_test = 600", "n_test = 200")


@pytest.fixture(scope="module")
def small_generated(tmp_path_factory):
    """A 180-row train set: below 2 x 100 rows, above 2 x min_fold_size (50)."""
    out = tmp_path_factory.mktemp("small")
    (out / "small.cfg").write_text(SMALL_CONFIG)
    assert run_cli(out / "small.cfg", out, "gen") == 0
    return out


class TestMinFoldSize:
    @pytest.mark.parametrize("command", ["pipeline", "burden"])
    def test_config_min_fold_size_reaches_cross_fold_scoring(self, small_generated, tmp_path,
                                                              command):
        # pipeline scores all 180 rows, burden its 103-row subsample
        rc = run_cli(small_generated / "small.cfg", tmp_path, command,
                     "--train", str(small_generated / "train.csv"),
                     "--tune", str(small_generated / "tune.csv"),
                     "--test", str(small_generated / "test.csv"),
                     "--scheme", str(small_generated / "scheme.json"))
        assert rc == 0


def test_bands_trains_the_full_band_once(small_generated, tmp_path, fit_sizes):
    rc = run_cli(small_generated / "small.cfg", tmp_path, "bands",
                 "--train", str(small_generated / "train.csv"),
                 "--tune", str(small_generated / "tune.csv"),
                 "--scheme", str(small_generated / "scheme.json"), "--k-grid", "0.5,0.75")
    assert rc == 0
    # the two fold fits, then two arms per band size but one for the full band
    assert fit_sizes[2:] == [90, 90, 135, 135, 180]
    assert sum(fit_sizes[:2]) == 180


@pytest.mark.parametrize("command, n, tau", [("pipeline", 180, "0.2889"),
                                           ("burden", 103, "0.2816")])
@pytest.mark.parametrize("k", ["5000", "1"])
def test_k_beyond_the_rows_exits_2_before_any_fit(small_generated, tmp_path, fit_sizes,
                                                  capsys, command, n, tau, k):
    # burden's k selects from its 103-row subsample of the 180 rows; a k of 1
    # is in range but keeps one side of the boundary only
    rc = run_cli(small_generated / "small.cfg", tmp_path / "out", command,
                 "--train", str(small_generated / "train.csv"),
                 "--tune", str(small_generated / "tune.csv"),
                 "--test", str(small_generated / "test.csv"), "--k", k)
    assert rc == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"error: k must be in [1, {n}], got 5000" if k == "5000" else
        f"error: k 1 selects 0 positives at tau {tau}; a final fit needs both sides of the "
        "boundary")
    assert not (tmp_path / "out").exists()
    assert fit_sizes == []


def test_a_one_sided_band_exits_2_before_any_fit(small_generated, tmp_path, fit_sizes, capsys):
    # 0.006 of the 180 rows keeps one, a negative at the set's positive rate
    rc = run_cli(small_generated / "small.cfg", tmp_path / "out", "bands",
                 "--train", str(small_generated / "train.csv"),
                 "--tune", str(small_generated / "tune.csv"), "--k-grid", "0.006")
    assert rc == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "error: k 1 selects 0 positives at tau 0.2889; a final fit needs both sides of the "
        "boundary")
    assert not (tmp_path / "out").exists()
    assert fit_sizes == []


@pytest.mark.parametrize("command, n", [("score", 180), ("pipeline", 180), ("bands", 180),
                                        ("burden", 103)])
def test_too_few_rows_for_the_folds_exits_2_before_any_fit(small_generated, tmp_path,
                                                            fit_sizes, capsys, command, n):
    # 2 x min_fold_size = 200 rows; burden scores its 103-row subsample of the 180
    config = tmp_path / "folds.cfg"
    config.write_text(SMALL_CONFIG.replace("min_fold_size = 50", "min_fold_size = 100"))
    rc = run_cli(config, tmp_path / "out", command,
                 "--train", str(small_generated / "train.csv"),
                 "--tune", str(small_generated / "tune.csv"),
                 "--test", str(small_generated / "test.csv"))
    assert rc == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"error: {n} rows are too few for cross-fold scoring: "
        "[experiment] min_fold_size 100 needs 200")
    assert not (tmp_path / "out").exists()
    assert fit_sizes == []


def _narrower(dataset):
    return Dataset(dataset.scheme, ids=dataset.ids, X=dataset.X[:, :-1], y=dataset.y)


def _one_class(dataset):
    return Dataset(dataset.scheme, ids=dataset.ids, X=dataset.X, y=np.zeros(len(dataset)))


@pytest.mark.parametrize("command, flag", [("train", "--tune"), ("score", "--tune"),
                                           ("pipeline", "--tune"), ("burden", "--tune"),
                                           ("burden", "--test")])
@pytest.mark.parametrize("mutate, reason", [
    (_narrower, "the {name} set has 5 features, the train set 6"),
    (_one_class, "the {name} set needs labels on both sides of the referability boundary"),
])
def test_inputs_that_do_not_fit_the_train_set_exit_2_before_any_fit(
        mini_config, generated, tmp_path, fit_sizes, capsys, command, flag, mutate, reason):
    name = flag[2:]
    scheme = read_scheme(generated / "scheme.json")
    bad = tmp_path / f"bad-{name}.csv"
    write_dataset(mutate(read_dataset(generated / f"{name}.csv", scheme)), bad)
    paths = {"--train": "train.csv", "--tune": "tune.csv", "--test": "test.csv"}
    args = [a for f, file in paths.items()
            for a in (f, str(bad) if f == flag else str(generated / file))]
    rc = run_cli(mini_config, tmp_path / "out", command, *args)
    assert rc == 2
    assert capsys.readouterr().err.splitlines()[-1] == \
        f"error: {bad}: " + reason.format(name=name)
    assert not (tmp_path / "out").exists()
    assert fit_sizes == []


# Class priors, bulk shares and the positive classes of a K-class study.
OTHER_CLASS_COUNTS = {
    2: ("0.7, 0.3", "0.5, 0.5", [1]),
    5: ("0.4, 0.25, 0.15, 0.12, 0.08", "0.5, 0.5, 0.7, 1.0, 1.0", [3, 4]),
}


# one feature is narrower than the 2-component cluster region offsets
@pytest.mark.parametrize("classes, feature_dim", [
    pytest.param(2, 6, id="2"), pytest.param(5, 6, id="5"),
    pytest.param(2, 1, id="2-one-feature")])
def test_study_of_another_class_count_runs(tmp_path, capsys, classes, feature_dim):
    priors, shares, positive = OTHER_CLASS_COUNTS[classes]
    config = tmp_path / "k.cfg"
    config.write_text(MINI_CONFIG.replace("feature_dim = 6", f"feature_dim = {feature_dim}").replace(
        "[population]", f"[population]\nclass_priors = {priors}\ncluster_bulk_shares = {shares}"))
    (tmp_path / "scheme.json").write_text(json.dumps(
        {"classes": [f"c{i}" for i in range(classes)], "positive": positive}))
    (tmp_path / "adjacent.json").write_text(json.dumps(
        [{"grader_id": "g0", "role": "ophthalmologist", "workload_weight": 1.0,
          "confusion": {"flip_to_adjacent": 0.1}}]))
    scheme = ["--scheme", str(tmp_path / "scheme.json")]
    # the default grader pool has a flip rate for each of 4 classes only
    assert run_cli(config, tmp_path / "none", "gen", *scheme) == 2
    assert capsys.readouterr().err.splitlines()[-1] == \
        f"error: the default grader pool has 4 classes and the scheme {classes}: pass --pool"
    gen = tmp_path / "gen"
    assert run_cli(config, gen, "gen", *scheme, "--pool", str(tmp_path / "adjacent.json")) == 0
    report = json.loads((gen / "gen_report.json").read_text())
    assert report["config"]["population"]["cluster_region_offsets"] == [
        [20.0 * (c % 2), 0.0] for c in range(classes)]
    data = ["--train", str(gen / "train.csv"), "--tune", str(gen / "tune.csv"),
            "--test", str(gen / "test.csv"), *scheme]
    assert run_cli(config, tmp_path / "score", "score", *data) == 0
    assert run_cli(config, tmp_path / "select", "select", "--k", "500", *scheme,
                   "--train", str(tmp_path / "score" / "scored.csv")) == 0
    assert run_cli(config, tmp_path / "pipeline", "pipeline", *data) == 0
    assert run_cli(config, tmp_path / "burden", "burden", *data) == 0


def test_split_of_one_row_exits_2(mini_config, generated, tmp_path, capsys):
    one_row = tmp_path / "one.csv"
    one_row.write_text("".join((generated / "train.csv").read_text().splitlines(True)[:2]))
    rc = run_cli(mini_config, tmp_path / "out", "split", "--train", str(one_row))
    assert rc == 2
    assert capsys.readouterr().err.splitlines()[-1] == \
        "error: too-small-to-split: 1 row(s), a split needs 2"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, column, message", [
    ("relabel", "true_label", "no-ground-truth: relabel experiment needs true labels"),
    ("graders", "grader_id", "no grader ids present in scored dataset"),
])
def test_scored_file_without_needed_column_exits_2(mini_config, scored_csv, tmp_path, capsys,
                                                   command, column, message):
    rows = [line.split(",") for line in scored_csv.read_text().splitlines()]
    drop = rows[0].index(column)
    bad = tmp_path / "scored.csv"
    bad.write_text("".join(",".join(r[:drop] + r[drop + 1:]) + "\n" for r in rows))
    rc = run_cli(mini_config, tmp_path / "out", command, "--train", str(bad))
    assert rc == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"error: {message}"
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def other_model_json(mini_config, generated, tmp_path_factory):
    """A second model of the same data, trained under another seed."""
    out = tmp_path_factory.mktemp("other-model")
    rc = run_cli(mini_config, out, "train",
                 "--train", str(generated / "train.csv"),
                 "--tune", str(generated / "tune.csv"),
                 "--scheme", str(generated / "scheme.json"), seed="8")
    assert rc == 0
    return out / "model.json"


def strict_json(text: str):
    """json.loads, refusing the NaN and Infinity that the JSON standard lacks."""
    def refuse(constant):
        raise AssertionError(f"not valid JSON: {constant}")
    return json.loads(text, parse_constant=refuse)


def test_a_report_refuses_a_value_json_lacks(tmp_path):
    cfg = RunConfig()
    cfg.out_dir = str(tmp_path)
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli._write_report(cfg, "report.json", {"rate": float("nan")})


class TestEval:
    def test_single_and_pair_eval(self, mini_config, generated, model_json, other_model_json,
                                  tmp_path):
        out = tmp_path / "eval"
        rc = run_cli(mini_config, out, "eval",
                     "--train", str(generated / "test.csv"),
                     "--scheme", str(generated / "scheme.json"),
                     "--model", str(model_json),
                     "--model", str(other_model_json))
        assert rc == 0
        report = strict_json((out / "eval_report.json").read_text())
        a, b = report["models"][str(model_json)], report["models"][str(other_model_json)]
        assert len(report["models"]) == 2
        for test in ("two_tailed", "noninferiority"):
            assert report[test]["model_a"] == str(model_json)
            assert report[test]["delta"] == a["auc"] - b["auc"]
        assert 0 <= report["two_tailed"]["p_two_tailed"] <= 1
        assert report["noninferiority"]["decision"] in ("non-inferior", "-")

    @pytest.mark.parametrize("spelling", ["same", "dotted"])
    def test_a_repeated_model_exits_2_before_any_bootstrap(self, mini_config, generated,
                                                           model_json, tmp_path, capsys,
                                                           forks, spelling):
        again = str(model_json) if spelling == "same" else \
            f"{model_json.parent}/./{model_json.name}"
        rc = run_cli(mini_config, tmp_path / "out", "eval",
                     "--train", str(generated / "test.csv"),
                     "--model", str(model_json), "--model", again)
        assert rc == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: {again}: eval got this model twice; each --model must be another file")
        assert forks == []  # every bootstrap runs in a forked child
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bad", ["malformed", "feature_dim"])
    def test_a_bad_second_model_exits_2_before_any_bootstrap(self, mini_config, generated,
                                                             model_json, tmp_path, capsys,
                                                             forks, bad):
        second = tmp_path / "second.json"
        if bad == "malformed":
            second.write_text('{"format_version": 1}')
        else:
            model = trainer.read_model(model_json)
            weights = {**model.weights, "w1": model.weights["w1"][:-1]}
            trainer.write_model(dataclasses.replace(
                model, feature_dim=model.feature_dim - 1, weights=weights), second)
        rc = run_cli(mini_config, tmp_path / "out", "eval",
                     "--train", str(generated / "test.csv"),
                     "--model", str(model_json), "--model", str(second))
        assert rc == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith(f"error: {second}: ")
        assert forks == []
        assert not (tmp_path / "out").exists()

    def test_two_copies_of_a_model_write_a_null_z(self, mini_config, generated, model_json,
                                                  tmp_path):
        # a difference without variance has no finite z
        copy = tmp_path / "copy.json"
        copy.write_text(model_json.read_text())
        rc = run_cli(mini_config, tmp_path / "out", "eval",
                     "--train", str(generated / "test.csv"),
                     "--model", str(model_json), "--model", str(copy))
        assert rc == 0
        noninferiority = strict_json((tmp_path / "out" / "eval_report.json").read_text())[
            "noninferiority"]
        assert noninferiority["z"] is None
        assert (noninferiority["delta"], noninferiority["variance_of_delta"]) == (0.0, 0.0)
        assert (noninferiority["p_noninferiority"], noninferiority["decision"]) == \
            (0.0, "non-inferior")

    def test_eval_without_model_exits_2(self, mini_config, generated, tmp_path, capsys):
        rc = run_cli(mini_config, tmp_path, "eval",
                     "--train", str(generated / "test.csv"),
                     "--scheme", str(generated / "scheme.json"))
        assert rc == 2

    def test_one_class_set_exits_2_before_any_bootstrap(self, mini_config, generated,
                                                         model_json, tmp_path, capsys,
                                                         forks):
        bad = tmp_path / "one-class.csv"
        write_dataset(_one_class(read_dataset(generated / "test.csv",
                                              read_scheme(generated / "scheme.json"))), bad)
        rc = run_cli(mini_config, tmp_path / "out", "eval", "--train", str(bad),
                     "--model", str(model_json))
        assert rc == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: {bad}: the evaluation set needs labels on both sides of the "
            "referability boundary")
        assert forks == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mismatch", ["feature_dim", "scheme"])
    def test_model_not_fitting_dataset_exits_2_naming_model(self, mini_config, generated,
                                                            model_json, tmp_path, capsys,
                                                            mismatch):
        test = read_dataset(generated / "test.csv", read_scheme(generated / "scheme.json"))
        scheme = tmp_path / "scheme.json"
        if mismatch == "feature_dim":
            scheme.write_text((generated / "scheme.json").read_text())
            test = Dataset(test.scheme, test.ids, test.X[:, :-1], test.y, test.true_y)
        else:  # the 4-class model under a 2-class scheme
            scheme.write_text('{"classes": ["refer-not", "refer"], "positive": [1]}')
            binary = read_scheme(scheme)
            test = Dataset(binary, test.ids, test.X, test.binary_labels(),
                           test.scheme.positive_mask(test.true_y).astype(int))
        write_dataset(test, tmp_path / "test.csv")
        rc = run_cli(mini_config, tmp_path / "out", "eval", "--train", str(tmp_path / "test.csv"),
                     "--scheme", str(scheme), "--model", str(model_json))
        assert rc == 2
        assert f"{model_json}: model does not fit the dataset" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


# (command, the path flag under test, the command's other inputs: a name ending
# in .csv is that file of the generated set)
PATH_FLAGS = [
    ("split", "--train", []),
    ("select", "--train", ["--k", "10"]),  # a scored dataset
    ("train", "--tune", ["--train", "train.csv"]),
    ("burden", "--test", ["--train", "train.csv", "--tune", "tune.csv"]),
    ("gen", "--scheme", []),
    ("gen", "--pool", []),
    ("eval", "--model", ["--train", "test.csv"]),
]
PATH_FLAG_IDS = [f"{command}{flag}" for command, flag, _ in PATH_FLAGS]


def with_files(generated, args):
    return [str(generated / a) if a.endswith(".csv") else a for a in args]


class TestPathErrors:
    """A path that is not given, missing or a directory, and an --out that is
    a file, exit 2 naming the path, before any --out directory is made."""

    @pytest.mark.parametrize("command, flag, others", PATH_FLAGS[:4], ids=PATH_FLAG_IDS[:4])
    def test_path_not_given_exits_2_naming_it(self, mini_config, generated, tmp_path, capsys,
                                              command, flag, others):
        rc = run_cli(mini_config, tmp_path / "out", command, *with_files(generated, others))
        assert rc == 2
        name = {"select": "scored train"}.get(command, flag[2:])
        assert capsys.readouterr().err.splitlines()[-1] == \
            f"error: {name} path is required for this command"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    @pytest.mark.parametrize("command, flag, others", PATH_FLAGS, ids=PATH_FLAG_IDS)
    def test_unreadable_path_exits_2_naming_it(self, mini_config, generated, tmp_path, capsys,
                                               command, flag, others, kind):
        path = tmp_path / "input"
        if kind == "directory":
            path.mkdir()
        rc = run_cli(mini_config, tmp_path / "out", command, flag, str(path),
                     *with_files(generated, others))
        assert rc == 2
        reason = os.strerror(errno.EISDIR if kind == "directory" else errno.ENOENT)
        assert capsys.readouterr().err.splitlines()[-1] == f"error: {path}: {reason}"
        assert not (tmp_path / "out").exists()

    def test_out_naming_an_existing_file_exits_2(self, mini_config, generated, tmp_path,
                                                 capsys):
        out = tmp_path / "out"
        out.write_text("kept\n")
        rc = run_cli(mini_config, out, "split", "--train", str(generated / "train.csv"))
        assert rc == 2
        assert capsys.readouterr().err.splitlines()[-1] == \
            f"error: {out}: {os.strerror(errno.EEXIST)}"
        assert out.read_text() == "kept\n"

    def test_out_naming_an_existing_file_exits_2_before_any_fit(self, mini_config, generated,
                                                                tmp_path, fit_sizes, capsys):
        out = tmp_path / "out"
        out.write_text("kept\n")
        rc = run_cli(mini_config, out, "score", "--train", str(generated / "train.csv"),
                     "--tune", str(generated / "tune.csv"))
        assert rc == 2
        assert capsys.readouterr().err.splitlines()[-1] == \
            f"error: {out}: {os.strerror(errno.EEXIST)}"
        assert out.read_text() == "kept\n"
        assert fit_sizes == []


def test_out_of_memory_exits_1_naming_it(mini_config, tmp_path, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.11 PiB for an array")
    monkeypatch.setattr(synth, "generate_population", exhausted)
    rc = run_cli(mini_config, tmp_path / "out", "gen")
    assert rc == 1
    assert capsys.readouterr().err.splitlines()[-1] == \
        "failure: out of memory: Unable to allocate 7.11 PiB for an array"


def _score_args(generated):
    return ["score", "--train", str(generated / "train.csv"),
            "--tune", str(generated / "tune.csv"), "--scheme", str(generated / "scheme.json")]


def _in_forked_fits(monkeypatch, action):
    """Make trainer.train run action(seed) first, in a forked fit only."""
    fit, parent = trainer.train, os.getpid()

    def train(train_set, tune_set, hp, seed):
        if os.getpid() != parent:
            action(seed)
        return fit(train_set, tune_set, hp, seed)

    monkeypatch.setattr(trainer, "train", train)


def test_a_killed_fit_exits_1_naming_it(mini_config, generated, tmp_path, monkeypatch, capsys,
                                        forks):
    d2_seed = derive_seed(derive_seed(7, "score"), "train-d2")

    def kill_fold_d2(seed):
        if seed == d2_seed:
            os.kill(os.getpid(), signal.SIGKILL)

    _in_forked_fits(monkeypatch, kill_fold_d2)
    rc = run_cli(mini_config, tmp_path / "out", *_score_args(generated))
    assert rc == 1
    assert capsys.readouterr().err.splitlines()[-1] == \
        "failure: fold-D2: worker process ended by SIGKILL"
    assert not (tmp_path / "out" / "scored.csv").exists()


def test_out_of_memory_in_a_forked_fit_exits_1_naming_it(mini_config, generated, tmp_path,
                                                         monkeypatch, capsys, forks):
    def exhausted(seed):
        raise MemoryError("Unable to allocate 7.11 PiB for an array")

    _in_forked_fits(monkeypatch, exhausted)
    rc = run_cli(mini_config, tmp_path / "out", *_score_args(generated))
    assert rc == 1
    assert capsys.readouterr().err.splitlines()[-1] == \
        "failure: out of memory: Unable to allocate 7.11 PiB for an array"


def test_burden_reads_the_same_forked_and_in_process(small_generated, mini_config, generated,
                                                     model_json, other_model_json, tmp_path,
                                                     monkeypatch, forks):
    # every fit, score and bootstrap CI of a forked burden, two-model eval or
    # pipeline, on two CPUs or on one, matches the in-process reference
    small = ["--train", str(small_generated / "train.csv"),
             "--tune", str(small_generated / "tune.csv")]
    runs = {  # command: (config, inputs, forks)
        # both fit plans (three k-grid finals plus ncv) and the arms fork 4 times each
        "burden": (small_generated / "small.cfg",
                   [*small, "--test", str(small_generated / "test.csv")], 12),
        "eval": (mini_config, ["--train", str(generated / "test.csv"), "--model", str(model_json),
                               "--model", str(other_model_json)], 2),
        # the fold pair, the three k-grid finals, then the final model's evaluation
        "pipeline": (small_generated / "small.cfg", small, 2 + 3 + 1),
    }
    for command, (config, inputs, n_forks) in runs.items():
        reports = {}
        for run in ("two CPUs", "one CPU", "in process"):
            forks.clear()
            out = tmp_path / command / run.replace(" ", "-")
            with monkeypatch.context() as patch:
                if run == "one CPU":
                    patch.setattr(os, "sched_getaffinity", lambda pid: {0})
                elif run == "in process":
                    patch.setattr(workers, "run_tasks", in_process)
                    patch.setattr(trainer, "run_tasks", in_process)
                assert run_cli(config, out, command, *inputs) == 0
            reports[run] = json.loads((out / f"{command}_report.json").read_text())
            assert reports[run]["config"]["paths"].pop("out") == str(out)
            assert len(forks) == (0 if run == "in process" else n_forks)
        assert reports["two CPUs"] == reports["one CPU"] == reports["in process"]


OUT_OF_RANGE_FLAGS = [  # (command, flag, value, message)
    ("pipeline", "--k-grid", ";",
     "[experiment] k_grid must list at least one value, each in (0, 1], got []"),
    ("burden", "--k-grid", "0.5,1.5", "[experiment] k_grid must list"),
    ("burden", "--margin", "-1", "[experiment] margin must be in (0, inf), got -1.0"),
    ("burden", "--subsample-fraction", "-0.1",
     "[experiment] subsample_fraction must be in (0, 1], got -0.1"),
    ("burden", "--subsample-fraction", "0", "[experiment] subsample_fraction must be in"),
    ("burden", "--subsample-fraction", "0.0001", "subsample_fraction 0.0001 keeps 0 of 1200 rows"),
    ("relabel", "--oracle-error-rate", "1",
     "[experiment] oracle_error_rate must be in [0, 1), got 1.0"),
    ("graders", "--mismatch-threshold", "-1",
     "[experiment] mismatch_threshold must be in [0, 1), got -1.0"),
    ("pipeline", "--k-grid", "0.0001", "[experiment] k_grid 0.0001 keeps 0 of 1200 rows"),
    ("burden", "--k-grid", "0.0001", "[experiment] k_grid 0.0001 keeps 0 of 686 rows"),
    ("bands", "--k-grid", "0.0001", "[experiment] k_grid 0.0001 keeps 0 of 1200 rows"),
    ("pipeline", "--k-grid", "0.5,0.5001,0.75",
     "[experiment] k_grid 0.5 and 0.5001 both keep 600 of 1200 rows"),
    ("burden", "--k-grid", "0.5,0.5001", "[experiment] k_grid 0.5 and 0.5001 both keep 343 of 686"),
    ("bands", "--k-grid", "0.5,0.5001", "[experiment] k_grid 0.5 and 0.5001 both keep 600 of 1200"),
    # bands always fits the full band, as fraction 1.0
    ("bands", "--k-grid", "0.9999", "[experiment] k_grid 0.9999 and 1.0 both keep 1200 of 1200"),
]


# The commands that read each [experiment] flag; every other command rejects it.
READERS = {
    "--k": {"select", "pipeline", "burden"},
    "--k-grid": {"pipeline", "bands", "burden"},
    "--subsample-fraction": {"burden"},
    "--margin": {"burden", "eval"},
    "--n-lowest": {"relabel"},
    "--oracle-error-rate": {"relabel"},
    "--mismatch-threshold": {"graders"},
    "--select-mode": {"select"},
}
FOREIGN_FLAGS = [  # (command, a flag it does not read, value)
    ("gen", "--k", "5"), ("split", "--k-grid", "0.5"), ("train", "--margin", "0.1"),
    ("score", "--k", "5"), ("select", "--k-grid", "0.5"), ("pipeline", "--margin", "0.1"),
    ("bands", "--k", "5"), ("burden", "--n-lowest", "20"), ("relabel", "--margin", "9"),
    ("graders", "--select-mode", "ncv"), ("eval", "--subsample-fraction", "0.5"),
]


@pytest.mark.parametrize("flag", sorted(READERS))
def test_experiment_flag_only_on_reading_commands(flag):
    value = {"--k": "5", "--n-lowest": "5", "--select-mode": "ncv"}.get(flag, "0.5")
    parser = build_parser()
    accepting = {command for command in COMMANDS
                 if not parser.parse_known_args([command, flag, value])[1]}
    assert accepting == READERS[flag]


class TestInputErrors:
    @pytest.mark.parametrize("command, flag, value", FOREIGN_FLAGS,
                             ids=[f"{c}{f}" for c, f, _ in FOREIGN_FLAGS])
    def test_foreign_flag_exits_2(self, mini_config, tmp_path, capsys, command, flag, value):
        with pytest.raises(SystemExit) as exit_info:
            run_cli(mini_config, tmp_path / "out", command, flag, value)
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_malformed_scored_csv_exits_2_naming_row(self, mini_config, generated,
                                                     scored_csv, tmp_path, capsys):
        lines = scored_csv.read_text().splitlines()
        cells = lines[3].split(",")
        cells[lines[0].split(",").index("quality_score")] = "nan"
        lines[3] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        for path, message in ((bad, "row 4: non-finite score in column quality_score"),
                              (generated / "train.csv", "missing column 'fold'")):
            rc = run_cli(mini_config, tmp_path / "sel", "select", "--train", str(path),
                         "--scheme", str(generated / "scheme.json"), "--k", "10")
            assert rc == 2
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value", [("select", "--k", "0"),
                                                      ("select", "--k", "1201"),
                                                      ("relabel", "--n-lowest", "5000")])
    def test_out_of_range_size_exits_2_naming_bound(self, mini_config, generated, scored_csv,
                                                    tmp_path, capsys, command, flag, value):
        rc = run_cli(mini_config, tmp_path, command, "--train", str(scored_csv),
                     "--scheme", str(generated / "scheme.json"), flag, value)
        assert rc == 2
        assert f"must be in [1, 1200], got {value}" in capsys.readouterr().err

    def test_stratified_mode_without_k_exits_2(self, mini_config, generated, scored_csv,
                                              tmp_path, capsys):
        rc = run_cli(mini_config, tmp_path / "out", "select", "--train", str(scored_csv),
                     "--scheme", str(generated / "scheme.json"), "--select-mode", "lowest")
        assert rc == 2
        assert capsys.readouterr().err.splitlines()[-1] == \
            "error: select: k required for lowest mode"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["abc", "0.5;x"])
    def test_malformed_k_grid_exits_2_naming_flag(self, mini_config, tmp_path, capsys, value):
        with pytest.raises(SystemExit) as exit_info:
            run_cli(mini_config, tmp_path, "pipeline", "--k-grid", value)
        assert exit_info.value.code == 2
        assert "--k-grid" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda m: m["weights"].update(w1=[row[:-1] for row in m["weights"]["w1"]]),
         "weight shapes"),
        (lambda m: m.update(hiden_units=3), "unknown keys ['hiden_units']"),
        (lambda m: m.pop("seed"), "missing keys ['seed']"),
        (lambda m: m.update(weights=[]), "weights must be an object, got list"),
        (lambda m: m["weights"]["b2"].__setitem__(0, float("nan")),
         "weights b2 must be finite numbers"),
        (lambda m: m.update(stopped_epoch=None), "stopped_epoch must be an integer, got None"),
        (lambda m: m.update(train_loss_by_epoch="x"),
         "train_loss_by_epoch must be a list of numbers, got 'x'"),
        (lambda m: m.update(hidden_units=float(m["hidden_units"])),
         "hidden_units must be an integer, got 16.0"),
        (lambda m: m.update(epochs_run=True), "epochs_run must be an integer, got True"),
        (lambda m: m.update(hidden_units=0, weights={"w": [[0.0] * 4] * 6, "b": [0.0] * 4}),
         "hidden_units must be >= 1, got 0"),
    ], ids=["w1-one-column-short", "unknown-key", "missing-key", "weights-not-an-object",
            "nan-weight", "null-stopped-epoch", "string-loss-curve", "float-hidden-units",
            "bool-epochs-run", "no-hidden-layer"])
    def test_malformed_model_file_exits_2(self, mini_config, generated, model_json, tmp_path,
                                          capsys, edit, message):
        model = json.loads(model_json.read_text())
        edit(model)
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(model))
        rc = run_cli(mini_config, tmp_path / "out", "eval", "--train", str(generated / "test.csv"),
                     "--scheme", str(generated / "scheme.json"), "--model", str(bad))
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{bad}: malformed model file" in err and message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, message", [
        ("[train]\nhiden_units = 3\n", "unknown key [train] hiden_units"),
        ("[trian]\nhidden_units = 3\n", "unknown section [trian]"),
        ("[DEFAULT]\nseed = 3\n", "[DEFAULT] seed"),
        ("[experiment]\nselect_mode = best\n", "[experiment] select_mode must be one of"),
        ("[population]\nclass_priors = 0.5, 0.4\n", "class priors must sum to 1"),
        ("[population]\nn_train = 0\n", "population size must be positive"),
    ])
    def test_bad_config_exits_2_before_running(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        rc = main(["--config", str(bad), "--seed", "7", "--out", str(tmp_path / "out"), "gen"])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flag, value, message", OUT_OF_RANGE_FLAGS,
                             ids=[f"{c}{f}={v}" for c, f, v, _ in OUT_OF_RANGE_FLAGS])
    def test_out_of_range_flag_exits_2_before_running(self, mini_config, generated, scored_csv,
                                                      tmp_path, fit_sizes, capsys, command, flag,
                                                      value, message):
        train = scored_csv if command in ("relabel", "graders") else generated / "train.csv"
        rc = run_cli(mini_config, tmp_path / "out", command, "--train", str(train),
                     "--tune", str(generated / "tune.csv"), "--test", str(generated / "test.csv"),
                     "--scheme", str(generated / "scheme.json"), flag, value)
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert fit_sizes == []

    @pytest.mark.parametrize("command", ["gen", "split", "train", "score", "pipeline", "bands",
                                         "burden", "relabel", "eval"])
    def test_missing_seed_exits_2(self, mini_config, generated, scored_csv, model_json,
                                  tmp_path, capsys, command):
        train, tune, test = (str(generated / f"{name}.csv") for name in ("train", "tune", "test"))
        inputs = {"gen": [], "split": ["--train", train], "relabel": ["--train", str(scored_csv)],
                  "burden": ["--train", train, "--tune", tune, "--test", test],
                  "eval": ["--train", test, "--model", str(model_json)]}
        out = tmp_path / "out"
        rc = main(["--config", str(mini_config), "--out", str(out), command,
                   *inputs.get(command, ["--train", train, "--tune", tune]),
                   "--scheme", str(generated / "scheme.json")])
        assert rc == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()
