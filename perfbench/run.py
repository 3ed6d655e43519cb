#!/usr/bin/env python3
"""Benchmark of the sncv command line at reference scale.

Run from the root of a checkout:

    python3 perfbench/run.py --workload score-ref --seed 1 --seconds 20 --trace 0

It drives ``sncv.cli.main`` in-process from this one process and starts no
threads. Set-up generates the inputs with ``sncv gen`` from ``--seed``, then
the workload's command cycle repeats for ``--seconds``. Every command must
exit 0, write the same bytes on every repetition and pass the output checks
in ``checks.py``. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` -- the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
lines before it hold the full record: every named timing with its sample
count, the output digests, the exact layer counts and the environment.

With ``--trace 1`` half of the time runs untraced and half traced (see
``tracer.py``), and the difference is reported as the tracing overhead.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

WORK = Path(".bench_work")
REFERENCE_CONFIG = "configs/reference.cfg"
SETUP_REPS = 3
# score-ref runs `score` under this many CLI seeds derived from --seed: its
# run time follows the early-stopping epoch count, which varies from seed to
# seed (30 to 73 epochs per fold model), and a median over several seeds
# keeps one run's figure steady.
SCORE_PANEL = 6
SELECT_K_SHARE = 0.75
SELECT_MODES = ("stratified", "lowest", "ncv", "ncv-exact")
COVERAGE_TOLERANCE = 0.01

END_TO_END = {"setup_s": "s", "cycle_s": "s", "peak_rss_mb": "MB", "quality": "ratio"}

# Named figures of the full record, per workload: name -> unit.
NAMED = {
    "score-ref": {"score_s": "s", "noise_detect_auc": "ratio"},
    "burden-ref": {"burden_s": "s", "sncv_test_auc": "ratio"},
    "curate-ref": {"gen_s": "s", "analyze_s": "s", "kept_noise_rate": "ratio",
                   "train_noise_rate": "ratio"},
}
COMMON = {"setup_s": "s", "cycle_s": "s", "peak_rss_mb": "MB", "failed_frac": "ratio"}


class SetupError(RuntimeError):
    """The inputs could not be prepared, so nothing can be measured."""


def load_scale(path: str) -> dict:
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise SetupError(f"config not found: {path}")
    pop, exp = parser["population"], parser["experiment"]
    return {"n_train": pop.getint("n_train"), "n_tune": pop.getint("n_tune"),
            "n_test": pop.getint("n_test"), "n_boot": exp.getint("n_boot"),
            "n_lowest": exp.getint("n_lowest"),
            "k_grid": len([v for v in exp["k_grid"].split(",") if v.strip()])}


class Command:
    """One sncv invocation; the same argv, and so the same bytes, every rep."""

    def __init__(self, label: str, name: str, seed: int, out: Path, args: list[str],
                 check):
        self.label, self.name, self.seed, self.out = label, name, seed, out
        self.args, self.check = args, check
        self.digests: dict[str, str] | None = None
        self.facts: dict = {}

    def argv(self, config: str) -> list[str]:
        return ["--config", config, "--seed", str(self.seed), "--out", str(self.out),
                self.name, *self.args]


def run_cli(cli, argv: list[str]) -> tuple[object, str]:
    """Call sncv's entry point; returns (exit code, captured stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # the benchmark keeps going and counts the failure
            traceback.print_exc(file=err)
            code = "exception"
    return code, err.getvalue()


def digest_dir(path: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.iterdir()) if p.is_file()}


class Bench:
    def __init__(self, args, cli, import_s: float):
        self.args = args
        self.cli = cli
        self.config = args.config
        self.scale = load_scale(args.config)
        self.run_dir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}"
        self.inputs = self.run_dir / "data" / "inputs"
        self.warm = self.run_dir / "data" / "warm"
        self.import_s = import_s
        self.attempted = 0
        self.failures: list[dict] = []
        self.setup_samples: list[float] = []
        self.setup_digests: dict[str, str] = {}
        self.warmup_s = 0.0
        self.scheme = None
        self.scored_inputs: dict[str, dict] = {}

    # -- set-up ---------------------------------------------------------------

    def setup(self) -> None:
        gen = Command("setup-gen", "gen", self.args.seed, self.inputs, [], None)
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            code, err = run_cli(self.cli, gen.argv(self.config))
            self.setup_samples.append(time.perf_counter() - t0)
            if code != 0:
                raise SetupError(f"gen exited {code}: {err.strip()}")
            digests = digest_dir(self.inputs)
            if gen.digests not in (None, digests):
                raise SetupError("gen wrote different bytes on a repeat with the same seed")
            gen.digests = digests
        self.setup_digests = gen.digests
        self.scheme = checks.read_scheme(self.inputs / "scheme.json")
        # Warm-up: one command that reads the 20k train set and grows the heap
        # to its size. On curate-ref it is the `score` that makes the scored
        # CSV the workload reads; elsewhere a cheaper `split` does.
        if self.args.workload == "curate-ref":
            warm = self.score_command("warmup", self.args.seed, self.warm)
        else:
            warm = Command("warmup", "split", self.args.seed, self.warm,
                           ["--train", self.inp("train.csv")], None)
        t0 = time.perf_counter()
        code, err = run_cli(self.cli, warm.argv(self.config))
        self.warmup_s = time.perf_counter() - t0
        if code != 0:
            raise SetupError(f"warm-up {warm.name} exited {code}: {err.strip()}")

    def setup_s(self) -> float:
        return self.import_s + statistics.median(self.setup_samples) + self.warmup_s

    # -- workloads ------------------------------------------------------------

    def inp(self, name: str) -> str:
        return str(self.inputs / name)

    def score_command(self, label: str, seed: int, out: Path) -> Command:
        return Command(label, "score", seed, out,
                       ["--train", self.inp("train.csv"), "--tune", self.inp("tune.csv"),
                        "--scheme", self.inp("scheme.json")], checks.check_score)

    def cycles(self) -> list[list[Command]]:
        """The workload's measured cycles; each cycle is a list of commands."""
        out = self.run_dir / "data" / "out"
        seed = self.args.seed
        if self.args.workload == "score-ref":
            return [[self.score_command(f"score-{i}", seed * SCORE_PANEL + i, out / f"score-{i}")]
                    for i in range(SCORE_PANEL)]
        if self.args.workload == "burden-ref":
            return [[Command("burden", "burden", seed, out / "burden",
                             ["--train", self.inp("train.csv"), "--tune", self.inp("tune.csv"),
                              "--test", self.inp("test.csv"), "--scheme", self.inp("scheme.json")],
                             checks.check_burden)]]
        scored = str(self.warm / "scored.csv")
        k = str(round(SELECT_K_SHARE * self.scale["n_train"]))
        cycle = [Command("gen", "gen", seed, out / "gen", [], checks.check_gen)]
        for mode in SELECT_MODES:
            extra = ["--k", k] if mode in ("stratified", "lowest") else []
            cycle.append(Command(f"select-{mode}", "select", seed, out / f"select-{mode}",
                                 ["--train", scored, "--scheme", self.inp("scheme.json"),
                                  "--select-mode", mode, *extra], checks.check_select))
        for name, check in (("relabel", checks.check_relabel),
                            ("graders", checks.check_graders)):
            cycle.append(Command(name, name, seed, out / name,
                                 ["--train", scored, "--scheme", self.inp("scheme.json"),
                                  "--pool", self.inp("pool.json")], check))
        return [cycle]

    # -- measurement ------------------------------------------------------------

    def execute(self, command: Command, tracer=None, command_id: int = -1) -> float:
        """Run one command and check it; returns its wall time."""
        argv = command.argv(self.config)
        gc.collect()
        t0 = time.perf_counter()
        if tracer is None:
            code, err = run_cli(self.cli, argv)
        else:
            code, err = tracer.run_command(command_id, command.name,
                                           lambda: run_cli(self.cli, argv))
        wall = time.perf_counter() - t0
        self.attempted += 1
        problems = [] if code == 0 else [f"exit code {code}: {err.strip()[-2000:]}"]
        if not problems:
            digests = digest_dir(command.out)
            if command.digests is None:
                command.digests = digests
                command.facts, found = command.check(self, command)
                problems += found
            elif digests != command.digests:
                problems.append("output bytes differ from the first repetition")
        if problems:
            self.failures.append({"command": command.label, "problems": problems})
        return wall

    def measure(self, cycles, seconds: float, tracer=None) -> list[list[dict]]:
        """Repeat the cycles round-robin, each at least once, while the next
        cycle is expected to end within `seconds`.

        Returns, per cycle, one record per repetition: the wall of each
        command and, when traced, the command ids of the repetition.
        """
        reps: list[list[dict]] = [[] for _ in cycles]
        start = time.perf_counter()
        i = 0
        while True:
            j = i % len(cycles)
            walls, ids = {}, set()
            for command in cycles[j]:
                command_id = len(tracer.spans) if tracer else -1
                walls[command.label] = self.execute(command, tracer, command_id)
                ids.add(command_id)
            reps[j].append({"walls": walls, "ids": ids})
            i += 1
            elapsed = time.perf_counter() - start
            if all(reps) and elapsed + elapsed / i > seconds:
                return reps


# -- statistics -------------------------------------------------------------------


def timing(samples: list[float], unit: str = "s") -> dict:
    """Median with its sample count, plus the highest percentile that has at
    least ten samples beyond it, when there are enough samples for one."""
    record = {"value": statistics.median(samples), "unit": unit, "n": len(samples)}
    ordered = sorted(samples)
    for pct in (99, 95, 90, 75, 50):
        if len(ordered) * (100 - pct) / 100 >= 10:
            record[f"p{pct}"] = ordered[min(len(ordered) - 1,
                                            int(round(pct / 100 * (len(ordered) - 1))))]
            break
    return record


def cycle_walls(reps: list[list[dict]]) -> list[float]:
    """The wall of every repetition of every cycle, pooled."""
    return [sum(rep["walls"].values()) for cycle_reps in reps for rep in cycle_reps]


# -- environment ------------------------------------------------------------------


def environment(seed: int) -> dict:
    import numpy
    import scipy

    with contextlib.redirect_stdout(io.StringIO()):
        config = numpy.show_config(mode="dicts")
    dep = config.get("Build Dependencies", {}).get("blas", {})
    blas = {"name": dep.get("name"), "version": dep.get("version")}
    cpu_model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    git = {"commit": None, "dirty": None}
    # The ceiling keeps git from reporting a repository that encloses the checkout.
    git_env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env,
                              capture_output=True, text=True, timeout=30)
        if head.returncode == 0:
            status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                    cwd=ROOT, env=git_env, capture_output=True, text=True,
                                    timeout=30)
            git = {"commit": head.stdout.strip(), "dirty": bool(status.stdout.strip())}
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sncv").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "git": git,
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


# -- reporting --------------------------------------------------------------------


def end_to_end(bench: Bench, cycles, reps) -> tuple[dict, dict]:
    """The BENCHMARK.json end-to-end metrics, and the named figures of the record."""
    workload = bench.args.workload
    walls = timing(cycle_walls(reps))
    named = {"setup_s": {"value": bench.setup_s(), "unit": "s", "n": len(bench.setup_samples),
                         "import_s": bench.import_s, "gen_s": bench.setup_samples,
                         "warmup_s": bench.warmup_s},
             "cycle_s": walls,
             "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                             "unit": "MB"}}
    facts = [c.facts for cycle in cycles for c in cycle]
    if workload == "score-ref":
        named["score_s"] = {**walls, "per_seed": [timing(cycle_walls([c])) for c in reps]}
        quality = statistics.fmean(f["noise_detect_auc"] for f in facts)
        named["noise_detect_auc"] = {"value": quality, "unit": "ratio",
                                     "per_seed": [f["noise_detect_auc"] for f in facts]}
    elif workload == "burden-ref":
        named["burden_s"] = walls
        quality = facts[0]["sncv_test_auc"]
        named["sncv_test_auc"] = {"value": quality, "unit": "ratio"}
    else:
        named["gen_s"] = timing([r["walls"]["gen"] for r in reps[0]])
        named["analyze_s"] = timing([sum(r["walls"].values()) - r["walls"]["gen"]
                                     for r in reps[0]])
        stratified = next(f for f in facts if "kept_noise_rate" in f)
        named["kept_noise_rate"] = {"value": stratified["kept_noise_rate"], "unit": "ratio"}
        named["train_noise_rate"] = {"value": stratified["train_noise_rate"], "unit": "ratio"}
        quality = 1.0 - stratified["kept_noise_rate"] / stratified["train_noise_rate"]
    named["quality"] = {"value": quality, "unit": "ratio"}
    named["failed_frac"] = {"value": len(bench.failures) / bench.attempted, "unit": "ratio",
                            "failed": len(bench.failures), "attempted": bench.attempted}
    metrics = {name: {"value": named[name]["value"], "unit": unit}
               for name, unit in END_TO_END.items()}
    return metrics, named


def per_layer(tracer, reps_untraced, reps_traced) -> tuple[dict, dict, list[str]]:
    """Per-layer metrics per cycle, averaged over the panel, with their checks.

    Times are the median over a cycle's traced repetitions; counts must be
    the same in every repetition of a cycle.
    """
    units = tracing.metric_names()
    problems: list[str] = []
    coverage: list[dict] = []
    per_cycle: list[dict] = []
    for cycle_reps in reps_traced:
        rows = []
        for rep in cycle_reps:
            acc, cov = tracer.command_metrics(rep["ids"])
            rows.append(acc)
            coverage += cov
        values = {}
        names = {**units, **{k: "s" for row in rows for k in row if k.startswith("layer.")}}
        for name, unit in names.items():
            if name.startswith("trace."):
                continue
            samples = [row.get(name, 0.0) for row in rows]
            if unit == "s":
                values[name] = statistics.median(samples)
            else:
                if len(set(samples)) > 1:
                    problems.append(f"count {name} differs between repetitions: {samples}")
                values[name] = samples[0]
        per_cycle.append(values)
    layer = {name: statistics.fmean(v.get(name, 0.0) for v in per_cycle)
             for name in {k for v in per_cycle for k in v}}
    modules = {k.split(".")[1]: v for k, v in layer.items() if k.startswith("layer.")}
    untraced = statistics.median(cycle_walls(reps_untraced))
    traced = statistics.median(cycle_walls(reps_traced))
    layer["trace.overhead_s"] = traced - untraced
    layer["trace.overhead_frac"] = (traced - untraced) / untraced
    for row in coverage:
        if row["gap_frac"] > COVERAGE_TOLERANCE:
            problems.append(f"coverage: {row['command']} self times sum to {row['self_sum_s']:.6f}"
                            f" s of a {row['wall_s']:.6f} s wall")
    metrics = {name: {"value": layer[name], "unit": units[name]} for name in units}
    record = {"coverage_tolerance": COVERAGE_TOLERANCE,
              "coverage_max_gap_frac": max(r["gap_frac"] for r in coverage),
              "traced_cycle_s": traced, "untraced_cycle_s": untraced,
              "layer_self_s": modules,
              "layer_share": {k: v / sum(modules.values()) for k, v in modules.items()}}
    return metrics, record, problems


def expected_counts(workload: str, scale: dict) -> dict:
    """Exact per-cycle layer counts this workload makes at the given scale."""
    n_train, n_tune, n_test = scale["n_train"], scale["n_tune"], scale["n_test"]
    if workload == "score-ref":
        return {"trainer.train.calls": 2, "metrics.bootstrap_auc_ci.calls": 0,
                "dataset.read_dataset.rows": n_train + n_tune,
                "scoring.write_scored_dataset.rows": n_train,
                "scoring.read_scored_dataset.calls": 0, "synth.generate_population.rows": 0}
    if workload == "burden-ref":
        return {"trainer.train.calls": 5 + scale["k_grid"],
                "metrics.bootstrap_auc_ci.calls": 4,
                "metrics.bootstrap_auc_ci.replicates": 4 * scale["n_boot"],
                "dataset.read_dataset.rows": n_train + n_tune + n_test,
                "dataset.write_dataset.rows": 0, "scoring.read_scored_dataset.calls": 0}
    return {"trainer.train.calls": 0, "metrics.bootstrap_auc_ci.calls": 0,
            "metrics.roc_auc.calls": 0,
            "synth.generate_population.rows": n_train + n_tune + n_test,
            "synth.apply_grader_noise.rows": n_train,
            "dataset.write_dataset.rows": 2 * n_train + n_tune + n_test,
            "scoring.read_scored_dataset.calls": len(SELECT_MODES) + 2,
            "scoring.read_scored_dataset.rows": (len(SELECT_MODES) + 2) * n_train}


def import_sncv():
    """Import sncv from this checkout's src/; returns (sncv.cli, seconds taken).

    The time covers numpy and scipy too, as a user's first command pays them.
    Returns None when the sources are missing.
    """
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    try:
        import sncv
        import sncv.cli as cli
    except ImportError as err:
        print(f"error: cannot import sncv from {src}: {err}", file=sys.stderr)
        return None
    import_s = time.perf_counter() - t0
    if Path(sncv.__file__).resolve().parent != (src / "sncv").resolve():
        print(f"error: sncv imported from {sncv.__file__}, not from {src}", file=sys.stderr)
        return None
    return cli, import_s


def run(bench: Bench) -> tuple[dict, dict]:
    """Measure the workload; returns the full record and the result line."""
    args = bench.args
    cycles = bench.cycles()
    if args.trace:
        reps = bench.measure(cycles, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            reps_traced = bench.measure(cycles, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
    else:
        reps = bench.measure(cycles, args.seconds)
    problems: list[str] = []
    metrics, named, layers = {}, {}, {}
    if bench.failures:  # no figure of a failed run is reported as measured
        named["failed_frac"] = {"value": len(bench.failures) / bench.attempted,
                                "unit": "ratio"}
    else:
        metrics, named = end_to_end(bench, cycles, reps)
        if args.trace:
            metrics, layers, problems = per_layer(tracer, reps, reps_traced)
            layers["untraced_functions"] = tracer.missing
            layers["expected_counts"] = {
                name: {"expected": value, "measured": metrics[name]["value"]}
                for name, value in expected_counts(args.workload, bench.scale).items()}
            tracer.write(bench.run_dir / "spans.jsonl")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "config": args.config, "scale": bench.scale,
        "named": named, "layers": layers, "problems": problems,
        "failures": bench.failures,
        "digests": {"setup": bench.setup_digests,
                    **{c.label: c.digests for cycle in cycles for c in cycle}},
        "environment": environment(args.seed),
    }
    result = {"correct": not bench.failures and not problems, "attempted": bench.attempted,
              "failed": len(bench.failures), "metrics": metrics}
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(NAMED))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--config", default=REFERENCE_CONFIG,
                        help="sncv config that sets the scale (default: %(default)s)")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    imported = import_sncv()
    if imported is None:
        return 2
    # Imported after sncv, so that import_s above also covers numpy and scipy.
    global checks, tracing
    import checks
    import tracer as tracing

    try:
        bench = Bench(args, *imported)
    except SetupError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    shutil.rmtree(bench.run_dir, ignore_errors=True)
    bench.run_dir.mkdir(parents=True)
    try:
        bench.setup()
        record, result = run(bench)
    except SetupError as err:
        print(f"error: set-up failed: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.run_dir / "data", ignore_errors=True)
    text = json.dumps(record, indent=1)
    (bench.run_dir / "result.json").write_text(text + "\n", encoding="utf-8")
    print(text)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
