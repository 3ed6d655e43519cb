"""scripts/bench_record.py on synthetic perfbench result files."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
METRICS = ("setup_s", "cycle_s", "peak_rss_mb", "quality")


def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record",
                                                  ROOT / "scripts" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_results(checkout: Path, workload: str, seeds, failed=(),
                  value=lambda seed, name: 1.0 + seed / 100, config="configs/reference.cfg",
                  scale=None, seconds=20.0) -> Path:
    """One `result.json` per seed, as `perfbench/run.py --trace 0` leaves them,
    beside a copy of the repository's BENCHMARK.json."""
    checkout.mkdir(parents=True, exist_ok=True)
    shutil.copy(ROOT / "BENCHMARK.json", checkout)
    for seed in [*seeds, *failed]:
        run = checkout / ".bench_work" / f"{workload}-s{seed}-t0"
        run.mkdir(parents=True)
        (run / "result.json").write_text(json.dumps({
            "workload": workload, "seed": seed, "seconds": seconds, "config": config,
            "scale": scale or {"n_train": 20000, "n_boot": 1000},
            "failures": ["exit 1"] if seed in failed else [], "problems": [],
            "named": {name: {"value": value(seed, name)} for name in METRICS},
            "environment": {"seed": seed, "python": "3"},
        }))
    return checkout


def test_two_passing_seeds_per_side_write_a_record(tmp_path):
    parent = write_results(tmp_path / "parent", "score-ref", [1, 2])
    change = write_results(tmp_path / "change", "score-ref", [1, 2, 3], failed=[4])
    out = tmp_path / "bench.json"
    bench_record().main([str(parent), str(change), str(out), "--suite-s", "10:496", "9:519"])
    record = json.loads(out.read_text())
    assert record["change"]["score-ref"]["seeds"] == [1, 2, 3]
    assert record["change"]["score-ref"]["failed_seeds"] == [4]
    assert record["tier1_suite_s"] == {"parent": 10.0, "change": 9.0}
    assert record["tier1_suite_tests"] == {"parent": 496, "change": 519}


@pytest.mark.parametrize("suite", ["10", "10:496.5", "10:496,"])
def test_suite_run_without_seconds_and_test_count_exits_2(tmp_path, suite):
    parent = write_results(tmp_path / "parent", "score-ref", [1, 2])
    change = write_results(tmp_path / "change", "score-ref", [1, 2])
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exit_info:
        bench_record().main([str(parent), str(change), str(out), "--suite-s", suite, "9:519"])
    assert exit_info.value.code == 2
    assert not out.exists()


def test_every_suite_run_is_kept_beside_each_sides_median(tmp_path):
    parent = write_results(tmp_path / "parent", "score-ref", [1, 2])
    change = write_results(tmp_path / "change", "score-ref", [1, 2])
    out = tmp_path / "bench.json"
    bench_record().main([str(parent), str(change), str(out), "--suite-s",
                         "120.9:563,112.5:563,118.0:563", "62.5:561,64.2:561"])
    record = json.loads(out.read_text())
    assert record["tier1_suite_s"] == {"parent": 118.0, "change": 63.35}
    assert record["tier1_suite_runs"] == {"parent": [120.9, 112.5, 118.0],
                                          "change": [62.5, 64.2]}
    assert record["tier1_suite_tests"] == {"parent": 563, "change": 561}


def test_suite_runs_of_different_test_counts_exit_2(tmp_path, capsys):
    parent = write_results(tmp_path / "parent", "score-ref", [1, 2])
    change = write_results(tmp_path / "change", "score-ref", [1, 2])
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exit_info:
        bench_record().main([str(parent), str(change), str(out), "--suite-s",
                             "10:496", "9:519,9.5:518"])
    assert exit_info.value.code == 2
    assert "9:519,9.5:518: the runs list different test counts" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("side", ["parent", "change"])
def test_fewer_than_two_passing_seeds_exits_2_naming_them(tmp_path, capsys, side):
    checkouts = {name: write_results(tmp_path / name, "burden-ref", [1, 2])
                 for name in ("parent", "change")}
    write_results(checkouts[side], "curate-ref", [5], failed=[6, 7])
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exit_info:
        bench_record().main([str(checkouts["parent"]), str(checkouts["change"]), str(out),
                             "--suite-s", "10:496", "9:519"])
    assert exit_info.value.code == 2
    assert (f"{checkouts[side]}: curate-ref has 1 passing seed(s), needs 2; failed seeds [6, 7]"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("setting, stray, shown", [
    ("config", "configs/other.cfg", '"config": "configs/other.cfg"'),
    ("scale", {"n_train": 2000, "n_boot": 200}, '"scale": {"n_boot": 200, "n_train": 2000}'),
    ("seconds", 5.0, '"seconds": 5.0'),
])
def test_runs_of_one_workload_that_differ_in_a_setting_exit_2_naming_the_seeds(
        tmp_path, capsys, setting, stray, shown):
    # a stray seed-1 run, as the self-test leaves one, beside a batch of seeds 11-12
    parent = write_results(tmp_path / "parent", "score-ref", [11, 12])
    change = write_results(tmp_path / "change", "score-ref", [11, 12])
    write_results(change, "score-ref", [1], **{setting: stray})
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exit_info:
        bench_record().main([str(parent), str(change), str(out), "--suite-s", "10:496", "9:519"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"error: {change}: score-ref runs differ: seeds [1] ran " in err
    assert shown in err
    assert "seeds [11, 12] ran " in err
    assert not out.exists()


def test_pair_wins_count_shared_seeds_in_each_metrics_direction(tmp_path):
    # cycle_s is lower-is-better and quality higher-is-better in BENCHMARK.json;
    # seed 4 ran only on the parent and seed 5 only on the change
    parent_values = {"cycle_s": 10.0, "quality": 0.5}
    change_values = {1: {"cycle_s": 9.0, "quality": 0.6},
                     2: {"cycle_s": 8.0, "quality": 0.7},
                     3: {"cycle_s": 11.0, "quality": 0.5},
                     5: {"cycle_s": 1.0, "quality": 0.1}}
    parent = write_results(tmp_path / "parent", "burden-ref", [1, 2, 3, 4],
                           value=lambda seed, name: parent_values.get(name, 1.0))
    change = write_results(tmp_path / "change", "burden-ref", [1, 2, 3, 5],
                           value=lambda seed, name: change_values[seed].get(name, 1.0))
    out = tmp_path / "bench.json"
    bench_record().main([str(parent), str(change), str(out), "--suite-s", "10:496", "9:519"])
    wins = json.loads(out.read_text())["change_pair_wins"]["burden-ref"]
    assert wins["cycle_s"] == {"won": 2, "lost": 1, "tied": 0}
    assert wins["quality"] == {"won": 2, "lost": 0, "tied": 1}
    assert wins["peak_rss_mb"] == {"won": 0, "lost": 0, "tied": 3}


def test_claim_tests_state_won_share_and_median_gap_over_parent_iqr(tmp_path):
    # parent cycle_s 10..13: median 11.5, inclusive quartiles 10.75 and 12.25;
    # the change wins seeds 1-3 and loses seed 4
    parent_values = {"cycle_s": {1: 10.0, 2: 11.0, 3: 12.0, 4: 13.0},
                     "quality": {1: 0.5, 2: 0.6, 3: 0.7, 4: 0.8}}
    change_values = {"cycle_s": {1: 9.0, 2: 9.5, 3: 10.0, 4: 14.0},
                     "quality": {1: 0.5, 2: 0.6, 3: 0.7, 4: 0.8}}
    parent = write_results(tmp_path / "parent", "curate-ref", [1, 2, 3, 4],
                           value=lambda seed, name: parent_values.get(name, {}).get(seed, 1.0))
    change = write_results(tmp_path / "change", "curate-ref", [1, 2, 3, 4],
                           value=lambda seed, name: change_values.get(name, {}).get(seed, 1.0))
    out = tmp_path / "bench.json"
    bench_record().main([str(parent), str(change), str(out), "--suite-s", "10:496", "9:519"])
    record = json.loads(out.read_text())
    tests = record["claim_tests"]["curate-ref"]
    assert record["parent"]["curate-ref"]["cycle_s"]["iqr"] == pytest.approx(1.5)
    # change median 9.75 against 11.5: a 1.75 s gain over a 1.5 s IQR, won on 3 of 4
    assert tests["cycle_s"] == {"won_share": 0.75,
                                "median_gap_over_parent_iqr": pytest.approx(1.75 / 1.5)}
    assert tests["quality"] == {"won_share": 0.0, "median_gap_over_parent_iqr": 0.0}
    # equal values on every seed: no pair won, and the parent's IQR is 0
    assert tests["peak_rss_mb"] == {"won_share": 0.0, "median_gap_over_parent_iqr": None}


def test_regression_tests_state_worse_by_against_the_bound(tmp_path):
    # BENCHMARK.json bounds: cycle_s 0.25 (lower is better), peak_rss_mb 0.1,
    # quality 0.1 (higher is better), setup_s 0.25
    parent_values = {"cycle_s": {1: 10.0, 2: 10.0, 3: 10.0},
                     "peak_rss_mb": {1: 100.0, 2: 100.0, 3: 100.0},
                     "quality": {1: 0.8, 2: 0.8, 3: 0.8},
                     "setup_s": {1: 4.0, 2: 10.0, 3: 16.0}}
    change_values = {"cycle_s": {1: 12.0, 2: 12.0, 3: 12.0},
                     "peak_rss_mb": {1: 120.0, 2: 120.0, 3: 120.0},
                     "quality": {1: 0.9, 2: 0.9, 3: 0.9},
                     "setup_s": {1: 9.0, 2: 9.0, 3: 9.0}}
    parent = write_results(tmp_path / "parent", "score-ref", [1, 2, 3],
                           value=lambda seed, name: parent_values[name][seed])
    change = write_results(tmp_path / "change", "score-ref", [1, 2, 3],
                           value=lambda seed, name: change_values[name][seed])
    out = tmp_path / "bench.json"
    bench_record().main([str(parent), str(change), str(out), "--suite-s", "10:496", "9:519"])
    tests = json.loads(out.read_text())["regression_tests"]["score-ref"]
    # 20% slower against a 25% bound; 20% more memory against a 10% bound
    assert tests["cycle_s"] == {"worse_by": pytest.approx(0.2), "bound": 0.25,
                                "within_bound": True, "unresolved": False}
    assert tests["peak_rss_mb"] == {"worse_by": pytest.approx(0.2), "bound": 0.1,
                                    "within_bound": False, "unresolved": False}
    # a higher quality is a negative worse_by
    assert tests["quality"]["worse_by"] == pytest.approx(-0.125)
    assert tests["quality"]["within_bound"] is True
    # the parent's setup_s spreads by 6 / 10 > 0.25, and the change's 9 s does
    # not beat the parent's 4 s run, so the 10% gain cannot be told apart
    assert tests["setup_s"] == {"worse_by": pytest.approx(-0.1), "bound": 0.25,
                                "within_bound": True, "unresolved": True}


def test_a_change_beating_every_parent_run_is_resolved_despite_the_spread(tmp_path):
    parent = write_results(tmp_path / "parent", "burden-ref", [1, 2, 3],
                           value=lambda seed, name: {1: 4.0, 2: 10.0, 3: 16.0}[seed])
    change = write_results(tmp_path / "change", "burden-ref", [1, 2, 3],
                           value=lambda seed, name: 3.0)
    out = tmp_path / "bench.json"
    bench_record().main([str(parent), str(change), str(out), "--suite-s", "10:496", "9:519"])
    tests = json.loads(out.read_text())["regression_tests"]["burden-ref"]
    assert tests["cycle_s"]["unresolved"] is False
    # quality is higher-is-better, so a change at 3.0 loses to every parent run
    assert tests["quality"] == {"worse_by": pytest.approx(0.7), "bound": 0.1,
                                "within_bound": False, "unresolved": True}
