"""Seeded workload generators for the benchmark.

Each workload turns the benchmark's ``--seed`` into an experiment config
(and, for ``ngram_cv``, a corpus file). The program under test receives
only these generated inputs; nothing is downloaded.

Why these three workloads:

- ``rank1_cv`` is the acceptance suite's criterion-7 experiment with
  fewer trials: 200 rank-one coordinate kernels plus the offset kernel
  (p = 201 against 160 rows per fold). The L1 baseline's projected
  gradient loop dominates, through ``combined_entries`` and the
  Cholesky solve. It never evaluates a Gram matrix in Python.
- ``dense_cv`` uses explicit Gaussian, linear and polynomial kernels on
  10-dimensional points. Python-loop kernel evaluation (``build_gram``,
  ``cross_gram``) dominates, and ``combined_entries`` takes its dense
  per-kernel path.
- ``ngram_cv`` is the paper's n-gram workload: rank-one bigram-count
  kernels over a generated +/-1 corpus (p = 31 against 320 rows per
  fold). It is the only workload that reaches the text-data layer, and
  it runs no L1 fit, so an L1-only change should leave it unchanged.
"""

from __future__ import annotations

import numpy as np

GRIDS = {
    "lambda0_grid": [0.001, 0.01, 0.1],
    "radius_grid": [1.0, 10.0, 100.0],
    "budget_grid": [1.0, 10.0, 100.0],
    "cv_folds": 5,
    "l1_max_iters": 300,
    "l1_tol": 1e-6,
}

NAMES = ("rank1_cv", "dense_cv", "ngram_cv")

# Trials per run_experiment call; one call is one timed sample.
TRIALS = 1

CORPUS_DOCS = 800
CORPUS_WORDS = 300
NGRAM_TOP = 30


def config_seed(seed: int) -> int:
    """Map any integer benchmark seed to a valid experiment seed."""
    return seed % (2**32)


def make_config(name: str, seed: int, corpus_path=None) -> dict:
    """Experiment config for workload ``name`` (without ``out``)."""
    common = dict(GRIDS, trials=TRIALS, seed=config_seed(seed), metrics=["rmse"])
    if name == "rank1_cv":
        return dict(
            common,
            dataset={"kind": "synthetic_sparse", "n_features": 200, "n_informative": 10,
                     "coef": 1.0, "noise_sigma": 0.5, "train_size": 200, "test_size": 200},
            kernels={"kind": "rank1_all", "include_offset": True},
            methods=["l2mkl", "l1mkl", "uniform"],
        )
    if name == "dense_cv":
        return dict(
            common,
            dataset={"kind": "synthetic_sparse", "n_features": 10, "n_informative": 3,
                     "coef": 1.0, "noise_sigma": 0.5, "train_size": 300, "test_size": 300},
            kernels={"kind": "explicit", "specs": [
                {"kind": "gaussian", "bandwidth": 1.0},
                {"kind": "gaussian", "bandwidth": 3.0},
                {"kind": "gaussian", "bandwidth": 10.0},
                {"kind": "linear"},
                {"kind": "polynomial", "degree": 2},
                {"kind": "polynomial", "degree": 3},
            ]},
            methods=["l2mkl", "l1mkl", "uniform", "best_single"],
        )
    if name == "ngram_cv":
        if corpus_path is None:
            raise ValueError("ngram_cv needs a generated corpus file")
        return dict(
            common,
            dataset={"kind": "text", "path": str(corpus_path),
                     "task": "classification_pm1", "split_fraction": 0.5},
            kernels={"kind": "ngram_rank1", "n": 2, "top": NGRAM_TOP, "include_offset": True},
            methods=["l2mkl", "uniform", "best_single"],
        )
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")


def write_corpus(path, seed: int) -> None:
    """Write a labelled +/-1 corpus, one 'label<TAB>text' document a line.

    Tokens follow a Zipf law over ``CORPUS_WORDS`` words. Four key
    bigrams of mid-frequency words are planted at random; a document's
    label is the sign of their weighted counts plus noise, so the label
    depends on a few bigrams that the top-30 vocabulary retains.
    """
    rng = np.random.default_rng([config_seed(seed), 0x6E6772])
    ranks = np.arange(1, CORPUS_WORDS + 1)
    probs = ranks ** -1.1
    probs /= probs.sum()
    words = [f"w{i}" for i in range(CORPUS_WORDS)]
    key_bigrams = [("w40", "w41"), ("w42", "w43"), ("w44", "w45"), ("w46", "w47")]
    key_weights = np.array([1.0, -1.0, 0.7, -0.7])
    lines = []
    for _ in range(CORPUS_DOCS):
        tokens = [words[i] for i in rng.choice(CORPUS_WORDS, size=int(rng.integers(20, 60)), p=probs)]
        counts = rng.binomial(2, 0.35, size=len(key_bigrams))
        for bigram, count in zip(key_bigrams, counts):
            for _ in range(count):
                at = int(rng.integers(0, len(tokens) + 1))
                tokens[at:at] = bigram
        score = float(key_weights @ counts) + rng.normal(scale=0.3)
        label = 1 if score >= 0.0 else -1
        lines.append(f"{label}\t{' '.join(tokens)}\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def fit_cells(config: dict) -> int:
    """Fits the config asks for: per method, grid combos x folds plus one
    refit, times trials. Computed from the config, not from what ran."""
    second_axis = {
        "l2mkl": len(config["radius_grid"]),
        "l1mkl": len(config["budget_grid"]),
        "uniform": 1,
        "best_single": kernel_count(config),
    }
    per_trial = sum(
        len(config["lambda0_grid"]) * second_axis[method] * config["cv_folds"] + 1
        for method in config["methods"]
    )
    return per_trial * config["trials"]


def kernel_count(config: dict) -> int:
    kernels = config["kernels"]
    if kernels["kind"] == "explicit":
        return len(kernels["specs"])
    offset = 1 if kernels.get("include_offset", True) else 0
    if kernels["kind"] == "ngram_rank1":
        return kernels["top"] + offset
    return config["dataset"]["n_features"] + offset
