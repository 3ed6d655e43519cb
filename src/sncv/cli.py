"""Command-line front end: dataset generation, training, scoring, selection,
and the experiment runners that produce the CSV/JSON reports.

Every command that takes --seed writes byte-identical artifacts across
repeated runs; each report embeds the fully resolved config for provenance.
Exit codes: 0 success, 1 computational failure (running out of memory
among them), 2 configuration, usage or input-file error (an InputError).
"""

from __future__ import annotations

import argparse
import csv
import errno
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import metrics, relabel, scoring, selection, synth, trainer, workers
from .config import KEYS, RunConfig, check, load_config, value_parser
from .dataset import (
    Dataset,
    InputError,
    default_scheme,
    draw_mask,
    positive_rate,
    read_dataset,
    read_scheme,
    record,
    split_random,
    write_dataset,
    write_datasets,
    write_scheme,
)


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_report(cfg: RunConfig, name: str, body: dict) -> None:
    """Write the JSON report `name`: body plus the resolved config and seed.
    A dataclass anywhere in body is written as its fields. A NaN or infinity,
    which JSON lacks, is a ValueError."""
    report = {"config": cfg.to_dict(), "seed": cfg.seed, **body}
    (_out_dir(cfg) / name).write_text(
        json.dumps(report, indent=2, sort_keys=True, default=record, allow_nan=False) + "\n",
        encoding="utf-8")


def _write_table(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _load(kind: str, path, read, *args):
    """read(path, *args), the one way a command reads an input file. A path
    not given, or a file that does not parse, is an InputError naming it; the
    reader's own open() reports a file it cannot read, as an OSError."""
    if path is None:
        raise InputError(f"{kind} path is required for this command")
    try:
        return read(path, *args)
    except (ValueError, KeyError, TypeError, AttributeError, OverflowError) as err:
        raise InputError(f"{path}: malformed {kind} file: {err}") from None


def _load_scheme(cfg: RunConfig):
    if cfg.scheme_path is None:
        return default_scheme()
    return _load("scheme", cfg.scheme_path, read_scheme)


def _load_pool(cfg: RunConfig, scheme):
    if cfg.pool_path is None:
        return synth.default_grader_pool(scheme)
    return _load("grader pool", cfg.pool_path, synth.read_grader_pool, scheme)


def _check_both_sides(path, name: str, dataset: Dataset) -> None:
    """A set that an AUC is taken on needs labels on both sides of the boundary."""
    if len(np.unique(dataset.binary_labels())) < 2:
        raise InputError(f"{path}: the {name} set needs labels on both sides of the "
                         "referability boundary")


def _inputs(cfg: RunConfig, *names: str) -> list[Dataset]:
    """The datasets at the named paths ("train", "tune", "test") under the run's
    scheme. Before any fit, each must have the first one's feature_dim, which
    is not 0 (as in a scored file), and a tune or test set, and a train set
    read with a tune set and so fitted, must pass _check_both_sides."""
    scheme = _load_scheme(cfg)
    paths = [getattr(cfg, f"{name}_path") for name in names]
    datasets = [_load(name, path, read_dataset, scheme) for name, path in zip(names, paths)]
    for name, path, dataset in zip(names, paths, datasets):
        if dataset.feature_dim != datasets[0].feature_dim:
            raise InputError(f"{path}: the {name} set has {dataset.feature_dim} features, "
                             f"the {names[0]} set {datasets[0].feature_dim}")
        if name != "train" or "tune" in names:
            _check_both_sides(path, name, dataset)
    if datasets[0].feature_dim == 0:
        raise InputError(f"{paths[0]}: the {names[0]} set has no feature columns")
    return datasets


def _scored_input(cfg: RunConfig) -> scoring.ScoredDataset:
    """The scored dataset at the train path under the run's scheme."""
    return _load("scored train", cfg.train_path, scoring.read_scored_dataset, _load_scheme(cfg))


def _rows_kept(key: str, fraction: float, n: int) -> int:
    """The number of rows an [experiment] fraction keeps of n; keeping none is an InputError."""
    kept = int(round(fraction * n))
    if kept == 0:
        raise InputError(f"[experiment] {key} {fraction} keeps 0 of {n} rows")
    return kept


def _selection_sizes(dataset: Dataset, fractions, k: int | None = None) -> list[int]:
    """The selection sizes to fit on the dataset: k, or else the rows each k_grid
    fraction keeps. Checked before any fit: each size is kept by one fraction only,
    and keeps positives and negatives both, or its fit could not run."""
    n = len(dataset)
    if k is None:
        sizes = [_rows_kept("k_grid", f, n) for f in fractions]
    elif not 1 <= k <= n:
        raise InputError(f"k must be in [1, {n}], got {k}")
    else:
        sizes = [k]
    for j, size in enumerate(sizes):
        if size in sizes[:j]:
            raise InputError(f"[experiment] k_grid {fractions[sizes.index(size)]} and "
                             f"{fractions[j]} both keep {size} of {n} rows")
    tau = positive_rate(dataset)
    for size in sizes:
        n_pos = selection.stratified_positives(tau, size)
        if n_pos in (0, size):
            raise InputError(f"k {size} selects {n_pos} positives at tau {tau:.4g}; "
                             "a final fit needs both sides of the boundary")
    return sizes


def _evaluate(models: dict, dataset: Dataset, n_boot: int, seeds: list[int]) -> dict:
    """Each named model's referable scores on the dataset, with their AUC and
    their bootstrap CI under the model's seed: {name: (scores, auc, ci95)}.
    Each model runs in its own forked child, which keeps the dataset's hidden
    layer out of this process; the caller resolves the seeds before the fork."""
    y = dataset.binary_labels()

    def evaluate(item):
        model, seed = item
        s = trainer.referable_scores(model, dataset.X)
        return s, metrics.roc_auc(s, y).auc, list(metrics.bootstrap_auc_ci(s, y, n_boot, seed))

    return dict(zip(models, workers.run_tasks(evaluate, list(zip(models.values(), seeds)),
                                              labels=list(models), costs=[1] * len(models))))


def _delong_records(evaluated: dict, labels, cfg: RunConfig, two_tailed, noninferiority):
    """The DeLong records, in this process and so with its scipy import, of models
    that _evaluate scored: a two-tailed test of each (a, b) pair in two_tailed,
    and a test that a is non-inferior to b for each pair in noninferiority."""
    return ([metrics.comparison_record(a, b, metrics.delong_two_tailed(
                evaluated[a][0], evaluated[b][0], labels)) for a, b in two_tailed],
            [metrics.comparison_record(a, b, metrics.delong_noninferiority(
                evaluated[a][0], evaluated[b][0], labels, cfg.margin, cfg.alpha))
             for a, b in noninferiority])


def _check_fold_size(cfg: RunConfig, n: int) -> None:
    """Cross-fold scoring of n rows needs two folds of min_fold_size; checked before any fit."""
    if n < 2 * cfg.min_fold_size:
        raise InputError(f"{n} rows are too few for cross-fold scoring: [experiment] "
                         f"min_fold_size {cfg.min_fold_size} needs {2 * cfg.min_fold_size}")


def cmd_gen(cfg: RunConfig) -> int:
    """Write scheme, grader pool, noisy train set, clean tune and test sets."""
    scheme = _load_scheme(cfg)
    if scheme.n_classes != len(cfg.class_priors):
        raise InputError(f"the scheme has {scheme.n_classes} classes, but [population] "
                         f"class_priors lists {len(cfg.class_priors)}: gen needs one per class")
    pool = _load_pool(cfg, scheme)
    population = synth.generate_population(
        cfg.population(cfg.n_train), cfg.stage_seed("gen-train"), scheme)
    noisy = synth.apply_grader_noise(population, pool, cfg.stage_seed("gen-noise"))
    tune = synth.generate_population(cfg.population(cfg.n_tune), cfg.stage_seed("gen-tune"), scheme)
    test = synth.generate_population(cfg.population(cfg.n_test), cfg.stage_seed("gen-test"), scheme)

    out = _out_dir(cfg)
    write_scheme(scheme, out / "scheme.json")
    synth.write_grader_pool(pool, out / "pool.json")
    write_datasets({out / "population.csv": population, out / "train.csv": noisy})
    write_dataset(tune, out / "tune.csv")
    write_dataset(test, out / "test.csv")

    tau = positive_rate(noisy)
    noise_rate = float((noisy.y != population.y).mean())
    _write_report(cfg, "gen_report.json", {
        "tau": tau,
        "marginal_noise_rate": noise_rate,
        "marginal_flip_rates_by_class": synth.marginal_flip_rates(pool, scheme).tolist(),
        "files": ["scheme.json", "pool.json", "population.csv", "train.csv", "tune.csv",
                  "test.csv"],
    })
    print(f"tau={tau:.4f} marginal_noise_rate={noise_rate:.4f}")
    return 0


def cmd_split(cfg: RunConfig) -> int:
    [dataset] = _inputs(cfg, "train")
    d1, d2 = split_random(dataset, cfg.stage_seed("split"))
    out = _out_dir(cfg)
    write_dataset(d1, out / "d1.csv")
    write_dataset(d2, out / "d2.csv")
    print(f"|D1|={len(d1)} |D2|={len(d2)}")
    return 0


def cmd_train(cfg: RunConfig) -> int:
    train_set, tune_set = _inputs(cfg, "train", "tune")
    [model] = trainer.train_many([(train_set, cfg.stage_seed("train"), "train")], tune_set,
                                 cfg.hyperparams)
    trainer.write_model(model, _out_dir(cfg) / "model.json")
    _write_report(cfg, "train_report.json", {
        "stopped_epoch": model.stopped_epoch,
        "epochs_run": model.epochs_run,
        "tune_auc_at_stop": model.tune_auc_at_stop,
    })
    print(f"tune_auc={model.tune_auc_at_stop:.4f} stopped_epoch={model.stopped_epoch}")
    return 0


def cmd_score(cfg: RunConfig) -> int:
    dataset, tune_set = _inputs(cfg, "train", "tune")
    _check_fold_size(cfg, len(dataset))
    scored, m1, m2 = scoring.cross_fold_score(
        dataset, tune_set, cfg.hyperparams, cfg.stage_seed("score"))
    scoring.write_scored_dataset(scored, _out_dir(cfg) / "scored.csv")
    _write_report(cfg, "score_report.json", {
        "tau": positive_rate(dataset),
        "fold_tune_auc": {"m1": m1.tune_auc_at_stop, "m2": m2.tune_auc_at_stop},
        "n_negative_qs": int((scored.qs < 0).sum()),
    })
    print(f"scored {len(scored)} examples; m1={m1.tune_auc_at_stop:.4f} m2={m2.tune_auc_at_stop:.4f}")
    return 0


def cmd_select(cfg: RunConfig) -> int:
    result = selection.select(_scored_input(cfg), cfg.select_mode, cfg.k)
    _write_table(_out_dir(cfg) / "selected_ids.csv", ["id"], ([i] for i in result.selected_ids))
    _write_report(cfg, "selection_summary.json", selection.selection_summary(result))
    print(f"selected {len(result.selected_ids)} "
          f"({result.n_positive_selected} positive / {result.n_negative_selected} negative)")
    return 0


def cmd_pipeline(cfg: RunConfig) -> int:
    dataset, tune_set = _inputs(cfg, "train", "tune")
    _check_fold_size(cfg, len(dataset))
    result = selection.run_sncv_pipeline(
        dataset, tune_set, _selection_sizes(dataset, cfg.k_grid, cfg.k), cfg.hyperparams,
        cfg.stage_seed("pipeline"))
    histogram = scoring.qs_histogram(result.scored, cfg.bin_width)
    [(_, tune_auc, ci)] = _evaluate({"model_final": result.model}, tune_set, cfg.n_boot,
                                    [cfg.stage_seed("pipeline-ci")]).values()
    out = _out_dir(cfg)
    trainer.write_model(result.model, out / "model_final.json")
    scoring.write_scored_dataset(result.scored, out / "scored.csv")
    _write_table(out / "qs_histogram.csv",
                 ["bin_lo", "bin_hi", "count_nonreferable", "count_referable"],
                 ([f"{lo:.10g}", f"{hi:.10g}", c_non, c_ref] for lo, hi, c_non, c_ref in histogram))
    _write_report(cfg, "pipeline_report.json", {
        "k_used": result.k_used,
        "k_grid_tune_auc": {str(k): v for k, v in result.k_grid_tune_auc.items()},
        "selection": selection.selection_summary(result.selection),
        "fold_tune_auc": {"m1": result.fold_models[0].tune_auc_at_stop,
                          "m2": result.fold_models[1].tune_auc_at_stop},
        "final_tune_auc": tune_auc,
        "final_tune_auc_ci95": ci,
    })
    print(f"k={result.k_used} final_tune_auc={tune_auc:.4f}")
    return 0


def cmd_bands(cfg: RunConfig) -> int:
    """Tune AUC of high-band and low-band selected models across band sizes,
    plus the class composition of unstratified top/bottom rankings."""
    dataset, tune_set = _inputs(cfg, "train", "tune")
    sizes = _selection_sizes(dataset, sorted(set(cfg.k_grid) | {1.0}))
    _check_fold_size(cfg, len(dataset))
    scored, _, _ = scoring.cross_fold_score(
        dataset, tune_set, cfg.hyperparams, cfg.stage_seed("bands-score"))

    jobs, arm_jobs = [], []
    for j, k in enumerate(sizes):
        hi = selection.select_stratified(scored, k)
        lo = selection.select_lowest_stratified(scored, k)
        # paired design: both arms share the band's training seed, so
        # coinciding selections (the full band) share one model
        band_seed = cfg.stage_seed(f"bands-{j}")
        arms = [hi] if set(lo.selected_ids) == set(hi.selected_ids) else [hi, lo]
        arm_jobs.append((len(jobs), len(jobs) + len(arms) - 1))
        jobs += [(dataset.subset(arm.selected_ids), band_seed, f"band {k} {side}")
                 for arm, side in zip(arms, ("high", "low"))]
    models = trainer.train_many(jobs, tune_set, cfg.hyperparams)
    band_rows = [(k, models[hi].tune_auc_at_stop, models[lo].tune_auc_at_stop)
                 for k, (hi, lo) in zip(sizes, arm_jobs)]
    # unstratified composition: positive share of the top-k and bottom-k by QS
    positive = scored.dataset.binary_labels()
    top = positive[selection.quality_order(scored)]
    bottom = positive[selection.quality_order(scored, lowest=True)]

    out = _out_dir(cfg)
    _write_table(out / "bands_auc.csv", ["band_size", "auc_high_qs", "auc_low_qs", "delta"],
                 ([k, repr(a_hi), repr(a_lo), repr(a_hi - a_lo)] for k, a_hi, a_lo in band_rows))
    _write_table(out / "bands_composition.csv", ["band_size", "pos_share_top", "pos_share_bottom"],
                 ([k, repr(float(top[:k].mean())), repr(float(bottom[:k].mean()))]
                  for k in sizes))
    _write_report(cfg, "bands_report.json", {
        "bands": [{"band_size": k, "auc_high_qs": a_hi, "auc_low_qs": a_lo,
                   "delta": a_hi - a_lo} for k, a_hi, a_lo in band_rows],
    })
    print("bands:", " ".join(f"{k}:{a_hi:.3f}/{a_lo:.3f}" for k, a_hi, a_lo in band_rows))
    return 0


def _fit_arms(full_train: Dataset, sub_train: Dataset, tune_set: Dataset, k_grid: list[int],
              cfg: RunConfig, seed: int):
    """The four arms' models by name, the SNCV pipeline's result and the NCV
    selection, from two plans of independent fits: the two baselines with the
    fold pair, then the k grid's final fits with the NCV fit. The jobs' train
    sets are freed when it returns."""
    sncv_seed = scoring.derive_seed(seed, "sncv")
    in_d1, fold_jobs = scoring.fold_jobs(sub_train, sncv_seed)
    full_model, sub_model, m1, m2 = trainer.train_many(
        [(full_train, cfg.stage_seed("burden-full"), "full"),
         (sub_train, cfg.stage_seed("burden-sub"), "subsample"), *fold_jobs],
        tune_set, cfg.hyperparams)
    scored = scoring.score_folds(sub_train, in_d1, m1, m2)
    selections, final_jobs = selection.final_jobs(sub_train, scored, k_grid, sncv_seed)
    ncv_sel = selection.select_ncv(scored)
    ncv_job = (sub_train.subset(ncv_sel.selected_ids), cfg.stage_seed("burden-ncv"), "ncv")
    *finals, ncv_model = trainer.train_many([*final_jobs, ncv_job], tune_set, cfg.hyperparams)
    sncv_result = selection.best_final(scored, (m1, m2), selections, finals)
    models = {
        "full_baseline": full_model,
        "subsample_baseline": sub_model,
        "subsample_sncv": sncv_result.model,
        "subsample_ncv": ncv_model,
    }
    return models, sncv_result, ncv_sel


def run_burden_study(full_train: Dataset, tune_set: Dataset, test_set: Dataset,
                     cfg: RunConfig) -> dict:
    """Train the four arms and run the labeling-burden hypothesis tests."""
    seed = cfg.stage_seed("burden")
    n_sub = _rows_kept("subsample_fraction", cfg.subsample_fraction, len(full_train))
    sub_train = full_train.take(np.flatnonzero(
        draw_mask(full_train, n_sub, scoring.derive_seed(seed, "subsample"))))
    _check_fold_size(cfg, n_sub)
    k_grid = _selection_sizes(sub_train, cfg.k_grid, cfg.k)
    models, sncv_result, ncv_sel = _fit_arms(full_train, sub_train, tune_set, k_grid, cfg, seed)
    evaluated = _evaluate(models, test_set, cfg.n_boot,
                          [scoring.derive_seed(seed, f"ci-{name}") for name in models])
    arms = {name: {"test_auc": auc, "test_auc_ci95": ci, "tune_auc": models[name].tune_auc_at_stop}
            for name, (_, auc, ci) in evaluated.items()}
    arms["subsample_sncv"]["k_used"] = sncv_result.k_used
    arms["subsample_ncv"]["n_selected"] = len(ncv_sel.selected_ids)
    two_tailed, noninferiority = _delong_records(
        evaluated, test_set.binary_labels(), cfg,
        two_tailed=[("full_baseline", "subsample_baseline"),
                    ("subsample_sncv", "subsample_baseline"),
                    ("subsample_sncv", "subsample_ncv")],
        noninferiority=[("subsample_baseline", "subsample_sncv"),
                        ("subsample_sncv", "full_baseline"),
                        ("subsample_baseline", "full_baseline")])
    return {
        "subsample_fraction": cfg.subsample_fraction,
        "n_subsample": n_sub,
        "arms": arms,
        "noninferiority_tests": noninferiority,
        "two_tailed_tests": two_tailed,
    }


def cmd_burden(cfg: RunConfig) -> int:
    body = run_burden_study(*_inputs(cfg, "train", "tune", "test"), cfg)
    _write_report(cfg, "burden_report.json", body)
    for rec in body["two_tailed_tests"]:
        print(f"{rec['model_a']} vs {rec['model_b']}: "
              f"delta={rec['delta']:+.4f} p={rec['p_two_tailed']:.4f}")
    for rec in body["noninferiority_tests"]:
        print(f"{rec['model_a']} noninf. to {rec['model_b']} @ {rec['margin']}: "
              f"p={rec['p_noninferiority']:.4f} -> {rec['decision']}")
    return 0


def cmd_relabel(cfg: RunConfig) -> int:
    scored = _scored_input(cfg)
    report = relabel.run_relabel_experiment(scored, cfg.n_lowest, cfg.oracle_error_rate,
                                            cfg.stage_seed("relabel-oracle"))
    _write_report(cfg, "relabel_report.json", record(report))
    _write_table(_out_dir(cfg) / "relabel_rows.csv", list(report.rows),
                 zip(*report.rows.values()))
    agreement = report.model_agreement_rate
    print(f"relabeled {report.n_relabeled}: relabel_rate={report.relabel_rate:.4f} "
          f"model_agreement={'null' if agreement is None else f'{agreement:.4f}'}")
    return 0


def cmd_graders(cfg: RunConfig) -> int:
    scored = _scored_input(cfg)
    pool = _load_pool(cfg, scored.dataset.scheme)
    report = relabel.grader_mismatch_analysis(scored, pool, cfg.mismatch_threshold)
    _write_report(cfg, "grader_report.json", record(report))
    flagged = [g.grader_id for g in report.graders if g.flagged]
    print(f"flagged {len(flagged)}/{len(report.graders)} graders: {flagged}")
    return 0


def cmd_eval(cfg: RunConfig) -> int:
    """AUC + bootstrap CI for one model on a dataset; DeLong tests for two."""
    [dataset] = _inputs(cfg, "train")
    _check_both_sides(cfg.train_path, "evaluation", dataset)
    if not cfg.model_paths:
        raise InputError("eval: at least one --model is required")
    seen = set()
    models = {}
    for path in cfg.model_paths:
        if Path(path).resolve() in seen:
            raise InputError(f"{path}: eval got this model twice; each --model must be "
                             "another file")
        seen.add(Path(path).resolve())
        model = models[path] = _load("model", path, trainer.read_model)
        if model.scheme != dataset.scheme or model.feature_dim != dataset.feature_dim:
            raise InputError(f"{path}: model does not fit the dataset: its scheme "
                             f"{model.scheme} and feature_dim {model.feature_dim} against "
                             f"{dataset.scheme} and {dataset.feature_dim}")
    evaluated = _evaluate(models, dataset, cfg.n_boot,
                          [cfg.stage_seed(f"eval-{Path(path).name}") for path in models])
    records = {path: {"auc": auc, "auc_ci95": ci} for path, (_, auc, ci) in evaluated.items()}
    body: dict = {"models": records}
    if len(models) == 2:
        pair = [tuple(models)]
        [body["two_tailed"]], [body["noninferiority"]] = _delong_records(
            evaluated, dataset.binary_labels(), cfg, pair, pair)
    _write_report(cfg, "eval_report.json", body)
    for path, rec in records.items():
        print(f"{path}: auc={rec['auc']:.4f} ci95=({rec['auc_ci95'][0]:.4f}, {rec['auc_ci95'][1]:.4f})")
    return 0


COMMANDS = {
    "gen": cmd_gen,
    "split": cmd_split,
    "train": cmd_train,
    "score": cmd_score,
    "select": cmd_select,
    "pipeline": cmd_pipeline,
    "bands": cmd_bands,
    "burden": cmd_burden,
    "relabel": cmd_relabel,
    "graders": cmd_graders,
    "eval": cmd_eval,
}

def build_parser() -> argparse.ArgumentParser:
    # no abbreviations: `bands --k` must not pass for `bands --k-grid`
    parser = argparse.ArgumentParser(prog="sncv", allow_abbrev=False,
                                     description="Label-quality scoring and selection toolkit")
    parser.add_argument("--config", help="INI config file")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name, allow_abbrev=False) for name in COMMANDS}
    for (_, key), f in KEYS.items():
        flag = f.metadata["flag"] or ()
        targets = ([parser] if flag == "main" else commands.values() if flag == "command"
                   else [commands[name] for name in flag])
        for p in targets:
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=value_parser(f),
                           help=f.metadata["help"], choices=f.metadata["choices"])
    commands["eval"].add_argument("--model", action="append", dest="models",
                                   help="model JSON (repeat for a pair comparison)")
    return parser


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    """Flags override the config; --k-grid also clears a k from anywhere."""
    for (_, key), f in KEYS.items():
        if getattr(args, key, None) is not None:
            setattr(cfg, f.name, getattr(args, key))
    if getattr(args, "k_grid", None) is not None:
        cfg.k = None
    cfg.model_paths = list(getattr(args, "models", None) or [])
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        check(cfg, "command line")
        out = Path(cfg.out_dir)
        if out.exists() and not out.is_dir():  # found before any work, not at the first write
            raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), str(out))
        return COMMANDS[args.command](cfg)
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:  # an input file or --out that cannot be read or written
        print(f"error: {err.filename}: {err.strerror}" if err.filename else f"error: {err}",
              file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"failure: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:
        print(f"failure: out of memory: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
