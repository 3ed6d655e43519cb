"""Golden fingerprint: every artifact of a fixed mini study, byte for byte.

The whole command line runs in-process on a small configuration, from a
temporary working directory with relative paths (reports embed the config
paths, so absolute paths would change their bytes). The sha256 of every file
written must equal the committed value, and every JSON file must be strict
JSON, without NaN or Infinity. A second run, in a fresh interpreter held to
one CPU and one OpenBLAS thread, must write the same bytes. The digests are
tied to this numpy and BLAS build; only a change that declares new numerics
may update them.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from sncv.cli import main

from test_cli import strict_json

TESTS = Path(__file__).resolve().parent

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
        "9d50b9bb04b7cb74b75c48f4c4d39515ca47755faceba38f913e67836544aa8c",
    "burden/burden_report.json":
        "78ace36a63238a0206887d8cb5d296a7ee05288a5eee08b22232209ab527d5c0",
    "eval/eval_report.json":
        "c8277b42294e607cafbc5698494a9780f146f1720b71b253c32e74ac2c947e00",
    "gen/gen_report.json":
        "84d23dd12115ac7bc886023b65d4ca8dccf1e3caa909d8d0d8c04e02681b816a",
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
        "992da784c9da30a85fa66eb0af836b351407c82952ec4cd369e7f057f8ef337c",
    "model/model.json":
        "c2d5177400705367a49bccf5273963e7bd8387dfe5067ac43e6f062d3bbd1364",
    "model/train_report.json":
        "37107ee41f2f164b8328532835874cea3b476224cdb1c847d18aa0785b773b64",
    "pipeline/model_final.json":
        "2ca79f8c50485d5ed60e3727ec633b511bb8fd9a60a33c12edab12a199a08f93",
    "pipeline/pipeline_report.json":
        "32d0aec9a5d0902d9f705491894094bee3be4a3e306dc9e72b1d5c6f6f098dae",
    "pipeline/qs_histogram.csv":
        "0f671298035e88f7704434ee47c338ac93c725d6e5a828bd3a0541ea255497e1",
    "pipeline/scored.csv":
        "1b8651d9da214b8161d35809bb569dd93a4ddcc54f64d193bb3140800ca079e5",
    "relabel/relabel_report.json":
        "a296685e0f3666c58df29ece0ae497cd981cf5c32d82a0e08476b96b0c727ed2",
    "relabel/relabel_rows.csv":
        "92cf1c447bf9dbc55b8bb18bacc3096106eff17d20e7082bc2af666a854892c1",
    "score/score_report.json":
        "cc4051e8ab69642c18c444faf9680c05aa23ed46f18c0c854e2f8e6e727932e8",
    "score/scored.csv":
        "4a100eb2b78364a0947ce711803ffc2ca2bc8c8662be7e9cd8d603d6e313bb10",
    "sel-lowest/selected_ids.csv":
        "62e2125823dbf97f6b585369f4d94c343cd12ad956461a4ef853cb04f9af9002",
    "sel-lowest/selection_summary.json":
        "cad0267596c7b0ca6105d01c55a6266927ce9465474db875112f5a3b9110278e",
    "sel-ncv-exact/selected_ids.csv":
        "6d0183b6a015d30d598b2659e6ddd6ea156151077016081a5695639a2ff29a07",
    "sel-ncv-exact/selection_summary.json":
        "84c5b5a30cd83cadea37aa2e9508f9abd5dcfb779293a2ec766f30ab09518051",
    "sel-ncv/selected_ids.csv":
        "30f5bbbde06e9380ddaae7e8804ed258b899bfcf813a6ea2aa0febeb8db902c1",
    "sel-ncv/selection_summary.json":
        "77e92f407d20bccab022327a45c1e4955e88111c0466e15e0ee06207d1b7bb0a",
    "sel-stratified/selected_ids.csv":
        "7316056dd51eccd6f2b4c9af858ffbfa7898cd75bec9eb1fa2b471716ee4cf5f",
    "sel-stratified/selection_summary.json":
        "c1fb6181f3dafaa64f2114bbd7eae8fac6d77206e91ac79530b35fffb9cd76d4",
    "split/d1.csv":
        "738d76e1ad09e912c8cc67e157c6026d534692ff7b4dc6b5383f47d589e37888",
    "split/d2.csv":
        "ebafd965e419f0ec460d2c8f5e6a5e1efcfa4bc75b4a426fd3b0350a0599afbd",
}


def study_digests(root: Path) -> dict[str, str]:
    """Run the study in root, the working directory, and return the sha256 of
    each file it wrote, keyed by its path under root."""
    (root / "golden.cfg").write_text(GOLDEN_CONFIG, encoding="utf-8")
    for out, command, args in STUDY:
        assert main(["--config", "golden.cfg", "--out", out, command, *args]) == 0, command
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file() and p.name != "golden.cfg"
    }


def test_mini_study_artifacts_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    digests = study_digests(tmp_path)
    assert len(digests) == 33
    for path in tmp_path.rglob("*.json"):
        strict_json(path.read_text(encoding="utf-8"))
    assert digests == GOLDEN


ONE_CPU = """
import json, os
from pathlib import Path
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from test_golden import study_digests
print(json.dumps(study_digests(Path.cwd())))
"""


def test_one_cpu_and_one_blas_thread_give_the_golden_bytes(tmp_path):
    # the same seed gives the same bytes on any CPU count or BLAS thread count:
    # here one of each, set before numpy loads, in a fresh interpreter
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
        filter(None, [str(TESTS.parent / "src"), str(TESTS), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", ONE_CPU], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == GOLDEN
