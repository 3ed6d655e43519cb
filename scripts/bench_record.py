#!/usr/bin/env python3
"""Write one parent-versus-change benchmark record from perfbench result files.

    python3 scripts/bench_record.py PARENT_CHECKOUT CHANGE_CHECKOUT OUT.json \\
        --suite-s PARENT_SECONDS:TESTS[,...] CHANGE_SECONDS:TESTS[,...]

Each checkout holds the `.bench_work/<workload>-s<seed>-t0/result.json` files
of `perfbench/run.py --trace 0`, one per seed (two or more). Per workload and
side it holds each end-to-end metric's median, IQR over median and per-seed
values, and the environment. Per workload and metric it counts the seeds that
both sides passed on which the change won, lost or tied, in the direction
(`better`) that the change checkout's BENCHMARK.json declares, and states the
two tests a claimed gain must pass: the share of those pairs the change won
(at least 0.9), and the gap between the medians in that direction over the
parent's IQR (more than 1; null where that IQR is 0). It also states the
no-regression test of each metric: how much worse the change's median is than
the parent's, relative to the parent's, against the metric's `bound` in
BENCHMARK.json, and whether the parent's runs spread too widely to tell.
Suite wall times and test counts are pytest's, one or more runs per side,
in the order they ran. Each side's median wall time is written as
`tier1_suite_s`, its every run as `tier1_suite_runs` and its test count as
`tier1_suite_tests`; it times nothing. A side whose runs list different test
counts exits 2, and so does a workload with fewer than two passing seeds on
either side, or whose runs on one side differ in `config`, `scale` or
`seconds` (a stray run, such as the self-test's, left in the checkout).
"""

import argparse
import json
import statistics
import sys
from pathlib import Path


def suite_runs(text: str) -> tuple[list[float], int]:
    """One side's Tier-1 suite runs given as SECONDS:TESTS, comma-separated,
    e.g. 169.6:508,172.1:508: the wall times and their one test count."""
    runs = [run.split(":") for run in text.split(",")]
    seconds = [float(seconds) for seconds, _ in runs]
    counts = {int(tests) for _, tests in runs}
    if len(counts) > 1:
        raise argparse.ArgumentTypeError(f"{text}: the runs list different test counts")
    return seconds, counts.pop()


RUN_SETTINGS = ("config", "scale", "seconds")  # the same in every run of a workload


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "iqr": q3 - q1, "iqr_over_median": (q3 - q1) / median,
            "per_seed": values}


def side(checkout: Path, metrics) -> dict:
    runs: dict[str, list[dict]] = {}
    for path in sorted(checkout.glob(".bench_work/*-t0/result.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        runs.setdefault(record["workload"], []).append(record)
    out = {}
    for workload, records in sorted(runs.items()):
        records.sort(key=lambda r: r["seed"])
        settings = {}
        for r in records:
            setting = json.dumps({key: r[key] for key in RUN_SETTINGS}, sort_keys=True)
            settings.setdefault(setting, []).append(r["seed"])
        if len(settings) > 1:
            runs_by = "; ".join(f"seeds {seeds} ran {setting}"
                                for setting, seeds in settings.items())
            print(f"error: {checkout}: {workload} runs differ: {runs_by}", file=sys.stderr)
            sys.exit(2)
        ok = [r for r in records if not (r["failures"] or r["problems"])]
        failed = [r["seed"] for r in records if r not in ok]
        if len(ok) < 2:
            print(f"error: {checkout}: {workload} has {len(ok)} passing seed(s), needs 2; "
                  f"failed seeds {failed}", file=sys.stderr)
            sys.exit(2)
        out[workload] = {
            "seeds": [r["seed"] for r in ok],
            "failed_seeds": failed,
            **{name: summary([r["named"][name]["value"] for r in ok]) for name in metrics},
            "environment": {k: v for k, v in records[0]["environment"].items() if k != "seed"}}
    return out


def pair_wins(parent: dict, change: dict, name: str, better: str) -> dict:
    """How many seeds that both sides passed the change won, lost and tied on
    one metric, given the two sides' records of one workload."""
    sign = {"lower": -1, "higher": 1}[better]
    before = dict(zip(parent["seeds"], parent[name]["per_seed"]))
    counts = {"won": 0, "lost": 0, "tied": 0}
    for seed, value in zip(change["seeds"], change[name]["per_seed"]):
        if seed in before:
            diff = sign * (value - before[seed])
            counts["won" if diff > 0 else "lost" if diff < 0 else "tied"] += 1
    return counts


def claim_tests(parent: dict, change: dict, name: str, better: str, counts: dict) -> dict:
    """The two tests of a claimed gain on one metric, given the two sides'
    records of one workload and its pair_wins counts: the share of shared seeds
    the change won, and the median gap in the better direction over the
    parent's IQR."""
    pairs = sum(counts.values())
    sign = {"lower": -1, "higher": 1}[better]
    gap = sign * (change[name]["median"] - parent[name]["median"])
    iqr = parent[name]["iqr"]
    return {"won_share": counts["won"] / pairs if pairs else None,
            "median_gap_over_parent_iqr": gap / iqr if iqr else None}


def regression_test(parent: dict, change: dict, name: str, better: str, bound: float) -> dict:
    """The no-regression test on one metric, given the two sides' records of
    one workload: the median change in the metric's worse direction relative
    to the parent's median, whether it is within the bound, and whether the
    result is unresolved, as it is when the parent's IQR over median exceeds
    the bound and not every change run beats every parent run."""
    sign = {"lower": -1, "higher": 1}[better]
    before, after = parent[name], change[name]
    worse_by = sign * (before["median"] - after["median"]) / before["median"]
    beats_every_run = (min(sign * v for v in after["per_seed"])
                       > max(sign * v for v in before["per_seed"]))
    return {"worse_by": worse_by, "bound": bound, "within_bound": worse_by <= bound,
            "unresolved": before["iqr_over_median"] > bound and not beats_every_run}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("out", type=Path)
    parser.add_argument("--suite-s", type=suite_runs, nargs=2, required=True,
                        metavar=("PARENT", "CHANGE"))
    args = parser.parse_args(argv)
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {metric["name"]: metric["better"] for metric in benchmark["end_to_end"]}
    bound = {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}
    parent, change = side(args.parent, better), side(args.change, better)
    (parent_runs, parent_tests), (change_runs, change_tests) = args.suite_s
    shared = [w for w in parent if w in change]
    ratios = {w: {m: change[w][m]["median"] / parent[w][m]["median"] for m in better}
              for w in shared}
    wins = {w: {m: pair_wins(parent[w], change[w], m, b) for m, b in better.items()}
            for w in shared}
    tests = {w: {m: claim_tests(parent[w], change[w], m, b, wins[w][m])
                 for m, b in better.items()} for w in shared}
    regressions = {w: {m: regression_test(parent[w], change[w], m, b, bound[m])
                       for m, b in better.items()} for w in shared}
    record = {"parent": parent, "change": change, "change_over_parent": ratios,
              "change_pair_wins": wins, "claim_tests": tests, "regression_tests": regressions,
              "tier1_suite_s": {"parent": statistics.median(parent_runs),
                                "change": statistics.median(change_runs)},
              "tier1_suite_runs": {"parent": parent_runs, "change": change_runs},
              "tier1_suite_tests": {"parent": parent_tests, "change": change_tests}}
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
