#!/usr/bin/env python3
"""Run the whole reference study end to end into one output directory:
generate data, score it, run the selection pipeline, the band sweep, the
labeling-burden comparison, the relabeling experiment, and the grader report.

Usage:
    python scripts/run_full_study.py --out runs/study --seed 7
    python scripts/run_full_study.py --out runs/quick --seed 7 --fast
"""

import argparse
import sys
import time
from pathlib import Path

from sncv.cli import main as sncv_main

FAST_OVERRIDES = """
[population]
n_train = 4000
n_tune = 1000
n_test = 4000

[train]
max_epochs = 40
patience = 6

[experiment]
n_boot = 300
n_lowest = 200
"""


def run(args_list):
    print(f"$ sncv {' '.join(args_list)}", flush=True)
    rc = sncv_main(args_list)
    if rc != 0:
        sys.exit(rc)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="runs/study")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--config", default=str(Path(__file__).resolve().parents[1]
                                            / "configs" / "reference.cfg"))
    ap.add_argument("--fast", action="store_true",
                    help="small population for a quick smoke run")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config = args.config
    if args.fast:
        config = out / "fast.cfg"
        Path(config).write_text(FAST_OVERRIDES)
    base = ["--config", str(config), "--seed", str(args.seed)]
    data = out / "data"

    t0 = time.time()
    run(base + ["--out", str(data), "gen"])
    common = ["--scheme", str(data / "scheme.json")]
    train_tune = ["--train", str(data / "train.csv"), "--tune", str(data / "tune.csv")]

    run(base + ["--out", str(out / "pipeline"), "pipeline"] + train_tune + common)
    run(base + ["--out", str(out / "bands"), "bands"] + train_tune + common)
    run(base + ["--out", str(out / "burden"), "burden"] + train_tune + common
        + ["--test", str(data / "test.csv")])
    scored = out / "pipeline" / "scored.csv"
    run(base + ["--out", str(out / "relabel"), "relabel", "--train", str(scored)] + common)
    run(base + ["--out", str(out / "graders"), "graders", "--train", str(scored)] + common
        + ["--pool", str(data / "pool.json")])
    print(f"done in {time.time() - t0:.0f}s; reports under {out}/")


if __name__ == "__main__":
    main()
