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
                  value=lambda seed, name: 1.0 + seed / 100) -> Path:
    """One `result.json` per seed, as `perfbench/run.py --trace 0` leaves them,
    beside a copy of the repository's BENCHMARK.json."""
    checkout.mkdir(parents=True, exist_ok=True)
    shutil.copy(ROOT / "BENCHMARK.json", checkout)
    for seed in [*seeds, *failed]:
        run = checkout / ".bench_work" / f"{workload}-s{seed}-t0"
        run.mkdir(parents=True)
        (run / "result.json").write_text(json.dumps({
            "workload": workload, "seed": seed,
            "failures": ["exit 1"] if seed in failed else [], "problems": [],
            "named": {name: {"value": value(seed, name)} for name in METRICS},
            "environment": {"seed": seed, "python": "3"},
        }))
    return checkout


def test_two_passing_seeds_per_side_write_a_record(tmp_path):
    parent = write_results(tmp_path / "parent", "score-ref", [1, 2])
    change = write_results(tmp_path / "change", "score-ref", [1, 2, 3], failed=[4])
    out = tmp_path / "bench.json"
    bench_record().main([str(parent), str(change), str(out), "--suite-s", "10", "9"])
    record = json.loads(out.read_text())
    assert record["change"]["score-ref"]["seeds"] == [1, 2, 3]
    assert record["change"]["score-ref"]["failed_seeds"] == [4]
    assert record["tier1_suite_s"] == {"parent": 10.0, "change": 9.0}


@pytest.mark.parametrize("side", ["parent", "change"])
def test_fewer_than_two_passing_seeds_exits_2_naming_them(tmp_path, capsys, side):
    checkouts = {name: write_results(tmp_path / name, "burden-ref", [1, 2])
                 for name in ("parent", "change")}
    write_results(checkouts[side], "curate-ref", [5], failed=[6, 7])
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exit_info:
        bench_record().main([str(checkouts["parent"]), str(checkouts["change"]), str(out),
                             "--suite-s", "10", "9"])
    assert exit_info.value.code == 2
    assert (f"{checkouts[side]}: curate-ref has 1 passing seed(s), needs 2; failed seeds [6, 7]"
            in capsys.readouterr().err)
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
    bench_record().main([str(parent), str(change), str(out), "--suite-s", "10", "9"])
    wins = json.loads(out.read_text())["change_pair_wins"]["burden-ref"]
    assert wins["cycle_s"] == {"won": 2, "lost": 1, "tied": 0}
    assert wins["quality"] == {"won": 2, "lost": 0, "tied": 1}
    assert wins["peak_rss_mb"] == {"won": 0, "lost": 0, "tied": 3}
