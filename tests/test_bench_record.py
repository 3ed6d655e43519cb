"""scripts/bench_record.py on synthetic perfbench result files."""

import importlib.util
import json
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


def write_results(checkout: Path, workload: str, seeds, failed=()) -> Path:
    """One `result.json` per seed, as `perfbench/run.py --trace 0` leaves them."""
    for seed in [*seeds, *failed]:
        run = checkout / ".bench_work" / f"{workload}-s{seed}-t0"
        run.mkdir(parents=True)
        (run / "result.json").write_text(json.dumps({
            "workload": workload, "seed": seed,
            "failures": ["exit 1"] if seed in failed else [], "problems": [],
            "named": {name: {"value": 1.0 + seed / 100} for name in METRICS},
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
