"""Outside-in layer trace for the sncv package.

Each public layer function is replaced, in every ``sncv`` module namespace
that binds it, by one wrapper that records a span: name, start, end, parent
span and command id. ``train`` is from-imported into ``scoring`` and
``selection`` and ``roc_auc`` into ``trainer``, so patching only the defining
module would miss most calls. Spans are kept in memory and written out once,
when the benchmark ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
import time
from collections import defaultdict

# (module, attribute, metric suffixes emitted). Every function also gets
# ".errors". "self_s" is the span time minus its traced children; "s" is the
# whole span.
LAYER_FUNCTIONS = (
    ("trainer", "train", ("self_s", "calls", "epochs", "batches", "useful_epoch_ratio")),
    ("trainer", "predict_proba", ("s", "calls")),
    ("trainer", "referable_scores", ("s", "calls")),
    ("metrics", "roc_auc", ("self_s", "calls")),
    ("metrics", "bootstrap_auc_ci", ("self_s", "calls", "replicates")),
    ("metrics", "delong_two_tailed", ("s",)),
    ("metrics", "delong_noninferiority", ("s",)),
    ("dataset", "read_dataset", ("s", "rows")),
    ("dataset", "write_dataset", ("s", "rows", "bytes")),
    ("dataset", "split_random", ("s",)),
    ("dataset", "Dataset.subset", ("s",)),
    ("scoring", "cross_fold_score", ("self_s",)),
    ("scoring", "read_scored_dataset", ("s", "calls", "rows")),
    ("scoring", "write_scored_dataset", ("s", "rows", "bytes")),
    ("synth", "generate_population", ("s", "rows")),
    ("synth", "apply_grader_noise", ("s", "rows")),
    ("selection", "select_stratified", ("s",)),
    ("selection", "select_lowest_stratified", ("s",)),
    ("selection", "select_ncv", ("s",)),
    ("selection", "run_sncv_pipeline", ("self_s",)),
    ("relabel", "run_relabel_experiment", ("s",)),
    ("relabel", "grader_mismatch_analysis", ("s",)),
)

CLI_COMMANDS = ("gen", "score", "burden", "select", "relabel", "graders")

UNITS = {"s": "s", "self_s": "s", "calls": "count", "epochs": "count", "batches": "count",
         "useful_epoch_ratio": "ratio", "replicates": "count", "rows": "rows",
         "bytes": "bytes", "errors": "count"}


def _train_counts(args, model):
    n = len(args["train_set"])
    return {"epochs": model.epochs_run, "stopped": model.stopped_epoch,
            "batches": model.epochs_run * math.ceil(n / args["hp"].batch_size)}


def _rows_out(args, result):
    return {"rows": len(result)}


def _rows_written(arg):
    def counts(args, _result):
        return {"rows": len(args[arg]), "bytes": os.path.getsize(args["path"])}
    return counts


# Counts read from a call's arguments and result, after its span has ended.
COUNTS = {
    "trainer.train": _train_counts,
    "metrics.bootstrap_auc_ci": lambda args, _r: {"replicates": args["n_boot"]},
    "dataset.read_dataset": _rows_out,
    "dataset.write_dataset": _rows_written("dataset"),
    "scoring.read_scored_dataset": _rows_out,
    "scoring.write_scored_dataset": _rows_written("scored"),
    "synth.generate_population": _rows_out,
    "synth.apply_grader_noise": _rows_out,
}


def metric_names() -> dict[str, str]:
    """Every per-layer metric the traced run emits, with its unit."""
    names = {}
    for module, attr, suffixes in LAYER_FUNCTIONS:
        for suffix in suffixes + ("errors",):
            names[f"{module}.{attr}.{suffix}"] = UNITS[suffix]
    for command in CLI_COMMANDS:
        names[f"cli.{command}.self_s"] = "s"
    names["trace.overhead_s"] = "s"
    names["trace.overhead_frac"] = "ratio"
    return names


class Tracer:
    """Records spans as [name, start, end, parent, command, counts, failed]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._command = -1
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, self._command, None, False]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _wrap(self, name: str, fn):
        counts = COUNTS.get(name)
        signature = inspect.signature(fn) if counts else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[6] = True
                raise
            finally:
                rec[2] = clock()
                self._stack.pop()
            if counts:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                rec[5] = counts(bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap each layer function in every sncv namespace that binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "sncv" or n.startswith("sncv.")) and m is not None]
        for module_name, attr, _ in LAYER_FUNCTIONS:
            owner = sys.modules.get(f"sncv.{module_name}")
            name = f"{module_name}.{attr}"
            if "." in attr:  # a method: patch the class attribute
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                if meth not in getattr(cls, "__dict__", {}):
                    self.missing.append(name)
                    continue
                self._patch(cls, meth, self._wrap(name, cls.__dict__[meth]))
                continue
            original = getattr(owner, attr, None)
            if original is None:  # gone from the package: its metrics read 0
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, namespace, key: str, wrapper) -> None:
        self._restore.append((namespace, key, getattr(namespace, key)))
        setattr(namespace, key, wrapper)

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._restore):
            setattr(namespace, key, original)
        self._restore.clear()

    def run_command(self, command_id: int, name: str, fn):
        """Run fn under a root span ``cli.<name>``, timing it from outside too."""
        self._command = command_id
        t0 = time.perf_counter()
        rec = self._open(f"cli.{name}")
        rec[1] = time.perf_counter()
        try:
            return fn()
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
            rec[5] = {"wall": time.perf_counter() - t0}
            self._command = -1

    def command_metrics(self, command_ids: set[int]) -> tuple[dict, list[dict]]:
        """Per-layer totals over the given commands, plus one coverage row each.

        Coverage: the self times of every span of a command, the root's
        included, must add up to the wall measured around the command.
        """
        child_time = defaultdict(float)
        for rec in self.spans:
            if rec[4] in command_ids and rec[3] >= 0:
                child_time[rec[3]] += rec[2] - rec[1]
        acc = defaultdict(float)
        coverage = {}
        for idx, rec in enumerate(self.spans):
            name, start, end, parent, command, counts, failed = rec
            if command not in command_ids:
                continue
            self_s = end - start - child_time[idx]
            row = coverage.setdefault(command, {"self_sum_s": 0.0})
            row["self_sum_s"] += self_s
            acc[f"layer.{name.split('.')[0]}"] += self_s
            if parent < 0:
                acc[f"{name}.self_s"] += self_s
                row.update(command=name, wall_s=counts["wall"])
                continue
            acc[f"{name}.s"] += end - start
            acc[f"{name}.self_s"] += self_s
            acc[f"{name}.calls"] += 1
            acc[f"{name}.errors"] += failed
            for key, value in (counts or {}).items():
                acc[f"{name}.{key}"] += value
        epochs = acc["trainer.train.epochs"]
        acc["trainer.train.useful_epoch_ratio"] = (
            acc["trainer.train.stopped"] / epochs if epochs else 0.0)
        rows = []
        for command, row in sorted(coverage.items()):
            row["gap_frac"] = abs(row["wall_s"] - row["self_sum_s"]) / row["wall_s"]
            rows.append(row)
        return acc, rows

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, command, counts, failed in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "command": command,
                                     "counts": counts, "failed": failed}) + "\n")
