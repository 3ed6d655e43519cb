"""Acceptance suite: every exit criterion at its stated tolerance, one
pass/fail line per criterion.

Statistical criteria run on the seeded reference configuration: 20,000
training examples, 12 features, 4 classes, observed positive rate near 0.246,
grader-pool noise about 25% boundary-crossing on positives and 9% on
negatives, five seeds unless a criterion says otherwise.
"""

import shutil

import numpy as np
import pytest

from sncv import (
    confusion_matrix,
    default_scheme,
    delong_two_tailed,
    grader_mismatch_analysis,
    positive_rate,
    roc_auc,
    run_relabel_experiment,
    select_ncv,
    select_stratified,
    workers,
)
from sncv.cli import main, run_burden_study
from sncv.config import RunConfig
from sncv.dataset import Dataset
from sncv.scoring import ScoredDataset, quality_scores_batch
from sncv.trainer import Model, _init_weights

from conftest import REFERENCE_SEEDS, gradient_check
from test_metrics import pair_counting_auc, paired_bootstrap_ps

N_LOWEST = RunConfig().n_lowest
MINI_CONFIG = (
    "[population]\n"
    "n_train = 1500\nn_tune = 500\nn_test = 500\nfeature_dim = 6\n"
    "clusters_per_class = 8\ncluster_scatter = 5.0\n"
    "[train]\nhidden_units = 16\nmax_epochs = 10\npatience = 4\n"
    "[experiment]\nn_boot = 150\nmin_fold_size = 50\n"
)


def report(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:02d} {status} - {description}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def burden_results(reference_runs):
    out = {}
    for seed in REFERENCE_SEEDS:
        d = reference_runs.data(seed)
        cfg = RunConfig()
        cfg.seed = seed
        out[seed] = run_burden_study(d["train"], d["tune"], d["test"], cfg)
    return out


class TestAcceptance:
    def test_01_qs_range_and_gap(self, reference_runs):
        scored, _, _ = reference_runs.scored(REFERENCE_SEEDS[0])
        qs = scored.qs
        magnitudes = np.abs(qs)
        ok = (len(qs) >= 10000
              and bool((magnitudes >= 0.25).all())
              and bool((magnitudes <= 1.0).all()))
        report(1, "quality scores confined to [-1,-0.25] U [0.25,1]", ok,
               f"n={len(qs)}, |qs| in [{magnitudes.min():.4f}, {magnitudes.max():.4f}]")

    def test_02_worked_quality_score_examples(self):
        scheme = default_scheme()
        qs_a, qs_b = quality_scores_batch(
            np.array([[0.02, 0.02, 0.95, 0.01], [0.20, 0.15, 0.60, 0.05]]), np.array([0, 0]),
            scheme)
        ok = qs_a == -0.95 and qs_b == -0.60
        report(2, "confident and moderate cross-boundary disagreements score -0.95 / -0.60",
               ok, f"got {qs_a}, {qs_b}")

    def test_03_stratification_exactness(self):
        scheme = default_scheme()
        n = 2000
        labels = [2] * 472 + [0] * 1528           # tau = 0.236 exactly
        rng = np.random.default_rng(3)
        qs = [float(np.round(rng.uniform(0.3, 1.0), 6)) for _ in range(n)]
        ds = Dataset(scheme, ids=[f"a{i:05d}" for i in range(n)], X=np.zeros((n, 2)), y=labels)
        scored = ScoredDataset(ds, fold=["D1", "D2"] * (n // 2), qs=qs,
                               probs=np.tile([0.7, 0.1, 0.1, 0.1], (n, 1)))
        res = select_stratified(scored, 1000)
        ok = (res.n_positive_selected == 236 and res.n_negative_selected == 764
              and res.tau_used == 0.236)
        report(3, "tau=0.236, k=1000 selects exactly 236 positives and 764 negatives",
               ok, f"got {res.n_positive_selected}/{res.n_negative_selected}")

    def test_04_auc_matches_pair_counting_oracle(self):
        rng = np.random.default_rng(4040)
        mismatches = 0
        for _ in range(1000):
            n = int(rng.integers(4, 201))
            labels = np.zeros(n, dtype=int)
            labels[: int(rng.integers(1, n))] = 1
            rng.shuffle(labels)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            if rng.random() < 0.5:
                scores = rng.integers(0, 10, size=n).astype(float)
            else:
                scores = rng.standard_normal(n)
            if roc_auc(scores, labels).auc != pair_counting_auc(scores, labels):
                mismatches += 1
        report(4, "midrank AUC equals exhaustive pair counting on 1000 instances",
               mismatches == 0, f"{mismatches} mismatches")

    def test_05_gradient_check(self):
        worst = 0.0
        scheme = default_scheme()
        for trial in range(20):
            rng = np.random.default_rng([505, trial])
            hidden = int(rng.integers(4, 12))
            d = int(rng.integers(3, 8))
            model = Model(scheme=scheme, feature_dim=d, hidden_units=hidden,
                          weights=_init_weights(d, 4, hidden, rng))
            X = rng.standard_normal((6, d))
            y = rng.integers(0, 4, size=6)
            worst = max(worst, gradient_check(model, X, y))
        report(5, "analytic gradients match central differences to 1e-5 on 20 models",
               worst < 1e-5, f"max relative error {worst:.2e}")

    def test_06_delong_calibration_and_bootstrap_agreement(self):
        reps, n = 1000, 500
        rejections = 0
        for r in range(reps):
            rng = np.random.default_rng([991, r])
            labels = (rng.random(n) < 0.3).astype(int)
            if labels.sum() < 2 or labels.sum() > n - 2:
                labels[:2] = [0, 1]
            a = rng.standard_normal(n)
            b = rng.standard_normal(n)
            if delong_two_tailed(a, b, labels).p_two_tailed < 0.05:
                rejections += 1
        rate = rejections / reps

        def agreement_gap(inst):
            rng = np.random.default_rng([551, inst])
            labels = np.r_[np.zeros(36, dtype=int), np.ones(24, dtype=int)]
            base = rng.standard_normal(60) + labels * 1.2
            a = base + 0.35 * rng.standard_normal(60)
            b = base + 0.35 * rng.standard_normal(60)
            _, p_boot = paired_bootstrap_ps(a, b, labels, inst)
            return abs(delong_two_tailed(a, b, labels).p_two_tailed - p_boot)

        # the 20 independent instances on both CPUs
        instances = list(range(20))
        worst = max(workers.run_tasks(agreement_gap, instances,
                                      [f"instance {i}" for i in instances],
                                      [1.0] * len(instances)))

        ok = 0.03 <= rate <= 0.07 and worst < 0.03
        report(6, "null rejection rate in [0.03,0.07] and bootstrap agreement within 0.03",
               ok, f"rate={rate:.3f}, worst |p-p_boot|={worst:.4f}")

    def test_07_low_qs_inversion(self, reference_runs):
        hits = 0
        aucs = []
        for seed in REFERENCE_SEEDS:
            model = reference_runs.model(seed, "low15")
            aucs.append(model.tune_auc_at_stop)
            hits += model.tune_auc_at_stop < 0.5
        report(7, "lowest-QS 15% model scores tune AUC < 0.5 in >= 4 of 5 seeds",
               hits >= 4, "aucs=" + ",".join(f"{a:.3f}" for a in aucs))

    def test_08_high_qs_efficiency(self, reference_runs):
        deltas = []
        for seed in REFERENCE_SEEDS:
            high = reference_runs.model(seed, "high45")
            full = reference_runs.model(seed, "all")
            deltas.append(high.tune_auc_at_stop - full.tune_auc_at_stop)
        mean_delta = float(np.mean(deltas))
        report(8, "highest-QS 45% model within 0.01 of all-data tune AUC on average",
               abs(mean_delta) <= 0.01,
               f"mean delta={mean_delta:+.4f}, per-seed=" +
               ",".join(f"{d:+.4f}" for d in deltas))

    def test_09_relabel_agreement(self, reference_runs):
        hits = 0
        rates = []
        for seed in REFERENCE_SEEDS:
            scored, _, _ = reference_runs.scored(seed)
            rep = run_relabel_experiment(scored, N_LOWEST, 0.0, seed)
            rates.append(rep.model_agreement_rate)
            hits += rep.model_agreement_rate >= 0.80
        report(9, "zero-error oracle sides with the model >= 80% in >= 4 of 5 seeds",
               hits >= 4, "rates=" + ",".join(f"{r:.3f}" for r in rates))

    def test_10_labeling_burden(self, burden_results):
        hits_a = hits_b = hits_c = 0
        details = []
        for seed in REFERENCE_SEEDS:
            body = burden_results[seed]
            two = {(r["model_a"], r["model_b"]): r for r in body["two_tailed_tests"]}
            noninf = {(r["model_a"], r["model_b"]): r for r in body["noninferiority_tests"]}
            rec_a = two[("full_baseline", "subsample_baseline")]
            ok_a = rec_a["p_two_tailed"] < 0.05 and rec_a["delta"] > 0
            rec_b = noninf[("subsample_sncv", "full_baseline")]
            ok_b = rec_b["p_noninferiority"] < 0.05
            rec_c = two[("subsample_sncv", "subsample_baseline")]
            ok_c = rec_c["p_two_tailed"] < 0.05 and rec_c["delta"] > 0
            hits_a += ok_a
            hits_b += ok_b
            hits_c += ok_c
            details.append(f"s{seed}:a(d={rec_a['delta']:+.4f},p={rec_a['p_two_tailed']:.3f})"
                           f"b(p={rec_b['p_noninferiority']:.3f})"
                           f"c(d={rec_c['delta']:+.4f},p={rec_c['p_two_tailed']:.3f})")
        ok = hits_a >= 4 and hits_b >= 4 and hits_c >= 4
        report(10, "subsample inferior, SNCV non-inferior to full, SNCV beats subsample"
                   " (each >= 4/5 seeds)",
               ok, f"a={hits_a}/5 b={hits_b}/5 c={hits_c}/5 " + " ".join(details))

    def test_11_ncv_imbalance_and_sncv_advantage(self, reference_runs, burden_results):
        shrink_every_seed = True
        tune_deltas = []
        for seed in REFERENCE_SEEDS:
            scored, _, _ = reference_runs.scored(seed)
            res = select_ncv(scored)
            subset = scored.dataset.subset(res.selected_ids)
            if positive_rate(subset) >= positive_rate(scored.dataset):
                shrink_every_seed = False
            arms = burden_results[seed]["arms"]
            tune_deltas.append(arms["subsample_sncv"]["tune_auc"]
                               - arms["subsample_ncv"]["tune_auc"])
        mean_delta = float(np.mean(tune_deltas))
        ok = shrink_every_seed and mean_delta >= 0.0
        report(11, "plain agreement filter shrinks the positive rate; SNCV >= NCV on tune",
               ok, f"shrinks={shrink_every_seed}, mean tune delta={mean_delta:+.4f}")

    def test_12_grader_role_analysis(self, reference_runs):
        ok = True
        details = []
        for seed in REFERENCE_SEEDS:
            scored, _, _ = reference_runs.scored(seed)
            pool = reference_runs.data(seed)["pool"]
            rep = grader_mismatch_analysis(scored, pool, threshold=0.30)
            shares = rep.flagged_role_shares
            top_role = max(shares, key=shares.get)
            if shares["glaucoma-specialist"] != 0.0 or top_role != "trainee-fellow":
                ok = False
            details.append(f"s{seed}:{top_role}={shares[top_role]:.2f},"
                           f"spec={shares['glaucoma-specialist']:.2f}")
        report(12, "flagged graders rank trainee-fellow highest with specialists at 0%",
               ok, " ".join(details))

    def test_13_pipeline_determinism(self, tmp_path):
        cfg_path = tmp_path / "mini.cfg"
        cfg_path.write_text(MINI_CONFIG)
        gen_dir = tmp_path / "gen"
        assert main(["--config", str(cfg_path), "--seed", "11",
                     "--out", str(gen_dir), "gen"]) == 0
        out = tmp_path / "run"

        def run_pipeline():
            rc = main(["--config", str(cfg_path), "--seed", "11", "--out", str(out),
                       "pipeline",
                       "--train", str(gen_dir / "train.csv"),
                       "--tune", str(gen_dir / "tune.csv"),
                       "--scheme", str(gen_dir / "scheme.json")])
            assert rc == 0
            return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

        first = run_pipeline()
        shutil.rmtree(out)
        second = run_pipeline()
        identical = set(first) == set(second) and all(
            first[name] == second[name] for name in first)
        report(13, "pipeline command run twice produces byte-identical artifacts",
               identical, f"files={sorted(first)}")

    def test_14_confusion_matrix_layout(self):
        scheme = default_scheme()
        original = [0] * (144 + 372) + [2] * (667 + 94)
        specialist = [0] * 144 + [2] * 372 + [0] * 667 + [2] * 94
        out = confusion_matrix(original, specialist, scheme)
        expected = np.array([[144, 372], [667, 94]])
        ok = bool((out == expected).all()) and out.sum() == 1277
        report(14, "relabel confusion table reproduces the published cell layout",
               ok, f"got {out.tolist()}")
