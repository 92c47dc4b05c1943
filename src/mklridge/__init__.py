"""Multiple kernel learning for kernel ridge regression.

Learns a nonnegative combination of base kernels under an L2 ball
constraint on the combination weights, with a damped-Newton solver of
the closed-form fixed-point equation that certifies its result by a
Frank-Wolfe gap, an independent projected-gradient reference solver, an
L1-budget baseline, and numerical verification of the underlying
identities and stability bounds.
"""

from .data import (Dataset, FoldPlan, NgramVocabulary, apply_vocabulary,
                   build_ngram_features, load_delimited, load_text_corpus,
                   make_folds, tokenize)
from .diagnostics import (BoundValues, StabilityReport, bound_values,
                          kkt_residuals, orthogonality_check, stability_trial,
                          weight_shift_identity_gap)
from .errors import ConfigError, DataError, MklError, NumericalError, ShapeError
from .experiment import (ExperimentConfig, emit_tables, metric_misclassification,
                         metric_rmse, run_experiment)
from .kernels import (KernelFamily, KernelSpec, build_gram, combine,
                      compute_kappa, cross_gram)
from .solver import (L1Model, MklModel, MuWeights, OracleResult, SolveReport,
                     fit_l1, fit_l2, krr_solve, objective, oracle_fit, predict,
                     predict_weighted, quad_forms)

__version__ = "0.1.0"

__all__ = [
    "BoundValues", "ConfigError", "DataError", "Dataset", "ExperimentConfig",
    "FoldPlan", "KernelFamily", "KernelSpec", "L1Model", "MklError",
    "MklModel", "MuWeights", "NgramVocabulary", "NumericalError",
    "OracleResult", "ShapeError", "SolveReport", "StabilityReport",
    "apply_vocabulary", "bound_values", "build_gram", "build_ngram_features",
    "combine", "compute_kappa", "cross_gram", "emit_tables", "fit_l1",
    "fit_l2", "kkt_residuals", "krr_solve", "load_delimited",
    "load_text_corpus", "make_folds", "metric_misclassification",
    "metric_rmse", "objective", "oracle_fit", "orthogonality_check",
    "predict", "predict_weighted", "quad_forms", "run_experiment",
    "stability_trial", "tokenize", "weight_shift_identity_gap",
]
