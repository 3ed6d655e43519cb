"""Stratified noisy cross-validation: label-quality scoring, quality-ranked
selection under class imbalance, and the ROC statistics to evaluate both."""

from .dataset import (
    ClassScheme,
    Dataset,
    InputError,
    default_scheme,
    positive_rate,
    read_dataset,
    read_scheme,
    split_random,
    write_dataset,
    write_scheme,
)
from .metrics import (
    DelongComparison,
    RocResult,
    bootstrap_auc_ci,
    confusion_matrix,
    delong_noninferiority,
    delong_two_tailed,
    roc_auc,
)
from .relabel import (
    GraderReport,
    RelabelReport,
    grader_mismatch_analysis,
    run_relabel_experiment,
    specialist_labels,
)
from .scoring import (
    ScoredDataset,
    cross_fold_score,
    derive_seed,
    qs_histogram,
    read_scored_dataset,
    write_scored_dataset,
)
from .selection import (
    PipelineResult,
    SelectionResult,
    run_sncv_pipeline,
    select_lowest_stratified,
    select_ncv,
    select_stratified,
)
from .synth import (
    GraderProfile,
    PopulationConfig,
    apply_grader_noise,
    default_grader_pool,
    generate_population,
    marginal_flip_rates,
    read_grader_pool,
    write_grader_pool,
)
from .trainer import (
    Hyperparams,
    Model,
    predict_proba,
    read_model,
    referable_scores,
    train,
    train_many,
    write_model,
)

__version__ = "0.1.0"
