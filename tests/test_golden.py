"""Golden fingerprint: every artifact of a fixed mini study, byte for byte.

The whole command line runs in-process on a small configuration, from a
temporary working directory with relative paths (reports embed the config
paths, so absolute paths would change their bytes). The sha256 of every file
written must equal the committed value. The digests are tied to this numpy
and BLAS build; only a change that declares new numerics may update them.
"""

import hashlib
from pathlib import Path

from sncv.cli import main

GOLDEN_CONFIG = """
[population]
n_train = 800
n_tune = 300
n_test = 400
feature_dim = 6
clusters_per_class = 8

[train]
hidden_units = 8
max_epochs = 6
patience = 3

[experiment]
n_boot = 100
n_lowest = 60
min_fold_size = 50
seed = 11
"""

DATA = ["--scheme", "gen/scheme.json"]
TRAIN_TUNE = ["--train", "gen/train.csv", "--tune", "gen/tune.csv", *DATA]
SCORED = ["--train", "score/scored.csv", *DATA]

STUDY = [
    ("gen", "gen", []),
    ("split", "split", ["--train", "gen/train.csv", *DATA]),
    ("model", "train", TRAIN_TUNE),
    ("score", "score", TRAIN_TUNE),
    ("sel-stratified", "select", [*SCORED, "--k", "400", "--select-mode", "stratified"]),
    ("sel-lowest", "select", [*SCORED, "--k", "400", "--select-mode", "lowest"]),
    ("sel-ncv", "select", [*SCORED, "--k", "400", "--select-mode", "ncv"]),
    ("sel-ncv-exact", "select", [*SCORED, "--k", "400", "--select-mode", "ncv-exact"]),
    ("pipeline", "pipeline", TRAIN_TUNE),
    ("bands", "bands", TRAIN_TUNE),
    ("burden", "burden", [*TRAIN_TUNE, "--test", "gen/test.csv"]),
    ("relabel", "relabel", SCORED),
    ("graders", "graders", [*SCORED, "--pool", "gen/pool.json"]),
    ("eval", "eval", ["--train", "gen/test.csv", *DATA, "--model", "model/model.json",
                      "--model", "pipeline/model_final.json"]),
]

GOLDEN = {
    "bands/bands_auc.csv":
        "a1869e45b755e4532e9c2034d42c2e3099e27bc963a2ca1779b3b90e44d30540",
    "bands/bands_composition.csv":
        "0c53afc81dd61aa67668721ce358a4b1cb74dc740b84023000f7e15a08624615",
    "bands/bands_report.json":
        "b8db16be389b92ce2b848f0c1d94f7ad7666b90646d06ce06de90d6e36265a50",
    "burden/burden_report.json":
        "1cbc9952b3f45a299b709bf4b9340003e24ba608212946777c14b6dea95d3270",
    "eval/eval_report.json":
        "fc912a82d653ab179edc63e37c103d1183f06962cf5ee21dc4ed61484f5eeb3a",
    "gen/gen_report.json":
        "a2b46fc8df9ee42f6d2e9b9ac3d51188d35099bfdb58395ed15d146ef750798d",
    "gen/pool.json":
        "31996043ec27561e1d04a8d7184c4294e86912b36f3cd9f94a2d63532f28ac7b",
    "gen/population.csv":
        "8d0e646b20d3f11f8839ef14b91fc4a119f2c1f0650b9b4f8df027f487a0beb1",
    "gen/scheme.json":
        "556d40017b08341d9903c5e13cfe5ab9810f7de6a757ca552b40f9ac0aea7cfe",
    "gen/test.csv":
        "8826cec9ad003e8dd67f77b6d565c368760ca64f538655e3f2630a52ee69a44f",
    "gen/train.csv":
        "d34859917baf37a28404d67aa3b00042ae4380e07b94ca82ede3a95a0367daf6",
    "gen/tune.csv":
        "798326c83d08d98228e400561f5f639997aa09fefcd25834af10268edf7ed479",
    "graders/grader_report.json":
        "0c85c9d2cd3f5bfe75eca63834a7733015c9d1b076f11e939af8b10f277cac58",
    "model/model.json":
        "c2d5177400705367a49bccf5273963e7bd8387dfe5067ac43e6f062d3bbd1364",
    "model/train_report.json":
        "f1f1159300214950818893e306ae4bc39ee17bd45ac11ffd045840139f6b4c46",
    "pipeline/model_final.json":
        "2ca79f8c50485d5ed60e3727ec633b511bb8fd9a60a33c12edab12a199a08f93",
    "pipeline/pipeline_report.json":
        "f740d2459466d6c691c2ec1dc4ba7582d132c0c5e66e072f88c9fc078cb46399",
    "pipeline/qs_histogram.csv":
        "0f671298035e88f7704434ee47c338ac93c725d6e5a828bd3a0541ea255497e1",
    "pipeline/scored.csv":
        "1c7ff9e526e3555d5ecf43fe97492b56a6bff3031ffbdd3c4e4118b328b6daf1",
    "relabel/relabel_report.json":
        "018286037bff3215a51befe7caba4f7178b8dc110f84170ad6006806ffad10e5",
    "relabel/relabel_rows.csv":
        "92cf1c447bf9dbc55b8bb18bacc3096106eff17d20e7082bc2af666a854892c1",
    "score/score_report.json":
        "74dc78df1e545bbb6ef08a655b8b690e270513ec8465f58783d76dbfd8b85203",
    "score/scored.csv":
        "bba0b8c3349e489e2ce4c433b8d6da2ec17e0329113f3d71f94d180017dcfcb6",
    "sel-lowest/selected_ids.csv":
        "62e2125823dbf97f6b585369f4d94c343cd12ad956461a4ef853cb04f9af9002",
    "sel-lowest/selection_summary.json":
        "63df7a04e7f845f5d440ef1e4b7443ae5afb1d4d88fb888f750686d7f9f601fe",
    "sel-ncv-exact/selected_ids.csv":
        "6d0183b6a015d30d598b2659e6ddd6ea156151077016081a5695639a2ff29a07",
    "sel-ncv-exact/selection_summary.json":
        "3777a5e1171e5e6bbdd489bd6048246a01629a56b3cf37f1cb6990915ded0924",
    "sel-ncv/selected_ids.csv":
        "30f5bbbde06e9380ddaae7e8804ed258b899bfcf813a6ea2aa0febeb8db902c1",
    "sel-ncv/selection_summary.json":
        "6bc55d8929feb66fb40fb518fa1a254568aa0db561e82fb78b87d4b4a8f415d0",
    "sel-stratified/selected_ids.csv":
        "7316056dd51eccd6f2b4c9af858ffbfa7898cd75bec9eb1fa2b471716ee4cf5f",
    "sel-stratified/selection_summary.json":
        "e4688303c52b7c8658937e7dc7b94ecb94c5a05e6bcf336931605483b2b34ba0",
    "split/d1.csv":
        "738d76e1ad09e912c8cc67e157c6026d534692ff7b4dc6b5383f47d589e37888",
    "split/d2.csv":
        "ebafd965e419f0ec460d2c8f5e6a5e1efcfa4bc75b4a426fd3b0350a0599afbd",
}


def test_mini_study_artifacts_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("golden.cfg").write_text(GOLDEN_CONFIG, encoding="utf-8")
    for out, command, args in STUDY:
        assert main(["--config", "golden.cfg", "--out", out, command, *args]) == 0, command
    digests = {
        p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.rglob("*")) if p.is_file() and p.name != "golden.cfg"
    }
    assert len(digests) == 33
    assert digests == GOLDEN
