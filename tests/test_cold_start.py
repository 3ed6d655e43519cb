"""Cold start: the commands load no scipy, and burden loads only its normal tail.

One fresh interpreter runs gen, split, score and select on a tiny config
through `sncv.cli.main`, then burden, and reports the scipy modules loaded
after each stage. scipy.stats alone costs a command about a second to import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

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
min_fold_size = 50
"""

SCRIPT = """
import json, sys
import sncv.cli

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

def run(*args):
    rc = sncv.cli.main(["--config", "tiny.cfg", "--seed", "3", "--out", ".", *args])
    assert rc == 0, args

stages = {"import": loaded()}
run("gen")
run("split", "--train", "train.csv")
run("score", "--train", "train.csv", "--tune", "tune.csv")
run("select", "--train", "scored.csv", "--k", "20")
stages["select"] = loaded()
run("burden", "--train", "train.csv", "--tune", "tune.csv", "--test", "test.csv")
stages["burden"] = loaded()
print(json.dumps(stages))
"""


def test_only_burden_loads_scipy_and_not_scipy_stats(tmp_path):
    (tmp_path / "tiny.cfg").write_text(TINY_CONFIG)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    stages = json.loads(proc.stdout.splitlines()[-1])
    assert stages["import"] == []
    assert stages["select"] == []
    assert "scipy.special" in stages["burden"]
    assert "scipy.stats" not in stages["burden"]
