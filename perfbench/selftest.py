#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark (2k training rows instead of 20k).

    python3 perfbench/selftest.py

Runs each workload once untraced and once traced on a scaled-down copy of
configs/reference.cfg, and checks that every metric is emitted with its unit
on the right workloads, that no command failed, that the exact layer counts
match their formulas and that the coverage check held. Last, it runs the
benchmark in a directory holding only BENCHMARK.json and perfbench/, where it
must exit non-zero without printing a result. Exits 0 when all checks pass.
"""

from __future__ import annotations

import configparser
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

TINY = {"population": {"n_train": "2000", "n_tune": "500", "n_test": "2000"},
        "experiment": {"n_boot": "200", "n_lowest": "200"}}


def tiny_config(work: Path) -> Path:
    parser = configparser.ConfigParser()
    parser.read(ROOT / run.REFERENCE_CONFIG)
    for section, values in TINY.items():
        parser[section].update(values)
    path = work / "tiny.cfg"
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
    return path


def bench(cwd: Path, workload: str, trace: int, config: str | None):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", str(trace)]
    if config:
        argv += ["--config", config]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_run(spec: dict, workload: str, trace: int, proc) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-1000:]}"]
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    record = json.loads("\n".join(lines[:-1]))
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}: {record['problems']} "
                        f"{record['failures']}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    if emitted != declared:
        problems.append(f"metrics differ from BENCHMARK.json: "
                        f"{sorted(set(emitted.items()) ^ set(declared.items()))}")
    if trace:
        for name, pair in record["layers"]["expected_counts"].items():
            if pair["expected"] != pair["measured"]:
                problems.append(f"{name}: expected {pair['expected']}, measured {pair['measured']}")
    else:
        named = record["named"]
        for name, unit in {**run.COMMON, **run.NAMED[workload]}.items():
            if named.get(name, {}).get("unit") != unit:
                problems.append(f"named metric {name} missing or not in {unit}")
        if named.get("failed_frac", {}).get("value") != 0:
            problems.append("failed_frac is not 0")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = ROOT / run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = str(tiny_config(work).relative_to(ROOT))
    failed = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check_run(spec, workload, trace, bench(ROOT, workload, trace, config))
            failed += bool(problems)
            print(f"{'FAIL' if problems else 'PASS'} {workload} trace={trace}")
            for problem in problems:
                print(f"    {problem}")

    bare = work / "bare"
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = bench(bare, spec["workloads"][0]["name"], 0, None)
    bare_ok = proc.returncode != 0 and '"metrics"' not in proc.stdout
    failed += not bare_ok
    print(f"{'PASS' if bare_ok else 'FAIL'} bare directory exits {proc.returncode} "
          f"without a result")
    shutil.rmtree(work, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
