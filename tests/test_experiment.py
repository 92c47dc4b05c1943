import ast
import importlib.util
import json
import math
import os
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mklridge as mk
from mklridge import ConfigError, DataError, NumericalError, ShapeError
from mklridge import cli, experiment, solver
from mklridge.cli import main
from mklridge.data import split_indices
from mklridge.experiment import (DEFAULT_BUDGET_GRID, DEFAULT_LAMBDA0_GRID,
                                 ExperimentConfig, _combo_grid, _Source, build_family,
                                 dumps_canonical, emit_tables, format_float,
                                 run_diagnose, run_experiment, run_fit,
                                 write_json_atomic)

from helpers import (counter_apply_vocabulary, counter_build_ngram_features,
                     fit_l2_radius0_grid, kernel_stack, method_major_run_trial)


# --- metrics ---------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 7, 80, 129, 1000])
def test_grid_scores_equal_each_row_scored_alone(n):
    # A fold's whole grid is scored in one array operation; every row must
    # get the bits of the one-vector formula, so cv_score does not move.
    rng = np.random.default_rng(n)
    P = rng.standard_normal((93, n)) * 10.0 ** rng.uniform(-3, 3, (93, 1))
    y = rng.choice([-1.0, 1.0], n)
    for row, rmse, miss in zip(P, experiment._rmse(P, y), experiment._misclassification(P, y)):
        assert rmse == float(np.sqrt(np.mean((row - y) ** 2)))
        assert miss == float(np.mean(np.where(row >= 0.0, 1.0, -1.0) != y))


def test_rmse_perfect():
    assert mk.metric_rmse([1.0, -1.0], [1.0, -1.0]) == 0.0


def test_rmse_unit():
    assert mk.metric_rmse([0.0, 0.0], [1.0, 1.0]) == 1.0


def test_misclassification_sign_agreement():
    assert mk.metric_misclassification([0.5, -2.0], [1.0, -1.0]) == 0.0


def test_misclassification_zero_counts_as_positive():
    assert mk.metric_misclassification([0.0], [1.0]) == 0.0
    assert mk.metric_misclassification([0.0], [-1.0]) == 1.0


def test_misclassification_requires_pm1():
    with pytest.raises(DataError):
        mk.metric_misclassification([0.5], [0.7])


def test_metrics_reject_empty():
    with pytest.raises(ConfigError):
        mk.metric_rmse([], [])


# --- config ------------------------------------------------------------------

def _tiny_config(**overrides):
    base = {
        "dataset": {"kind": "synthetic_sparse", "n_features": 6, "n_informative": 2,
                    "noise_sigma": 0.2, "train_size": 24, "test_size": 24},
        "kernels": {"kind": "rank1_all", "include_offset": True},
        "methods": ["l2mkl", "l1mkl", "uniform", "best_single"],
        "lambda0_grid": [0.01, 0.1],
        "radius_grid": [0.0, 1.0],
        "budget_grid": [1.0],
        "cv_folds": 3,
        "trials": 2,
        "seed": 7,
        "metrics": ["rmse"],
    }
    base.update(overrides)
    return base


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        ExperimentConfig.from_dict(_tiny_config(extra_knob=1))


def test_config_requires_seed_for_repeated_trials():
    with pytest.raises(ConfigError, match="seed"):
        ExperimentConfig.from_dict(_tiny_config(seed=None))


def test_config_grid_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_tiny_config(lambda0_grid=[]))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_tiny_config(budget_grid=[-1.0]))
    with pytest.raises(ConfigError, match="radius_grid"):
        ExperimentConfig.from_dict(_tiny_config(radius_grid=[1.0, float("nan")]))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_tiny_config(methods=["svm"]))


@pytest.mark.parametrize("key, bad", [
    ("lambda0_grid", math.nan), ("lambda0_grid", math.inf),
    ("budget_grid", math.nan), ("budget_grid", math.inf),
    ("radius_grid", math.inf),
])
def test_config_rejects_non_finite_grid_entries(key, bad):
    with pytest.raises(ConfigError, match=key):
        ExperimentConfig.from_dict(_tiny_config(**{key: [1.0, bad]}))


@pytest.mark.parametrize("key", ["eta", "max_iters"])
def test_config_rejects_removed_l2_settings(key):
    with pytest.raises(ConfigError, match="unknown config keys"):
        ExperimentConfig.from_dict(_tiny_config(**{key: 1}))


@pytest.mark.parametrize("key, bad", [
    ("l1_tol", math.nan), ("l1_tol", math.inf), ("l1_tol", 0.0), ("l1_max_iters", 0),
])
def test_config_rejects_bad_l1_settings(key, bad):
    with pytest.raises(ConfigError, match=key):
        ExperimentConfig.from_dict(_tiny_config(**{key: bad}))


_EXPLICIT = {"kind": "explicit", "specs": [{"kind": "linear"}]}
_TEXT = {"kind": "text", "path": "corpus.txt"}


@pytest.mark.parametrize("overrides, match", [
    ({"dataset": {**_tiny_config()["dataset"], "n_feature": 5}}, r"dataset keys.*n_feature"),
    ({"kernels": {"kind": "rank1_all", "include_ofset": False}}, r"kernels keys.*include_ofset"),
    ({"kernels": {**_EXPLICIT, "include_offset": True}}, r"kernels keys.*include_offset"),
    ({"dataset": {"kind": "synthetic_sparse", "task": "regression"}}, r"dataset keys.*task"),
    ({"dataset": {"kind": "nope"}}, "unknown dataset kind 'nope'"),
    ({"kernels": {"kind": "nope"}}, "unknown kernels kind 'nope'"),
    ({"dataset": _TEXT}, "ngram_rank1"),
    ({"dataset": _TEXT, "kernels": _EXPLICIT}, "ngram_rank1"),
    ({"kernels": {"kind": "ngram_rank1"}}, "ngram_rank1"),
    ({"kernels": {"kind": "explicit", "specs": [{"kind": "linear", "gamma": 2.0}]}},
     r"kernel spec keys.*gamma"),
    # Only fit reads the fit section, but every command checks it.
    ({"fit": {"method": "bogus"}}, "unknown fit method 'bogus'"),
    ({"fit": {"lambda0": 0.1, "budget": 1.0}}, r"unknown fit keys.*budget"),
])
def test_config_rejects_bad_sections_at_load(tmp_path, overrides, match):
    cfg = _tiny_config(trials=1, **overrides)
    with pytest.raises(ConfigError, match=match):
        ExperimentConfig.from_dict(cfg)
    result = CliRunner().invoke(main, ["experiment", "--config", _write_config(tmp_path, cfg)])
    assert result.exit_code == 1
    assert "config error" in result.output


# Each rule's boundary on both sides, and values of the wrong type.
_SPEC_VALUES = st.sampled_from([0, 1, 2, 0.0, 0.5, -1, -0.5, 1.5, True, math.nan, math.inf, "1"])
_SPEC_FIELDS = ("bandwidth", "degree", "offset", "feature_index")


@st.composite
def _spec_dicts(draw):
    # Any subset of the fields a kind takes, and at times one more field.
    kind = draw(st.sampled_from(mk.kernels.KINDS + ("sigmoid", 1)))
    own = {"gaussian": ["bandwidth"], "polynomial": ["degree", "offset"],
           "rank1_feature": ["feature_index"]}.get(kind)
    fields = draw(st.dictionaries(st.sampled_from(own), _SPEC_VALUES)) if own else {}
    extra = draw(st.dictionaries(st.sampled_from(_SPEC_FIELDS), _SPEC_VALUES, max_size=1))
    return {"kind": kind, **fields, **extra}


@settings(max_examples=400, deadline=None)
@example(spec={"kind": "linear", "offset": 3.0})
@example(spec={"kind": "polynomial", "degree": 1, "offset": 0.0})
@given(spec=_spec_dicts())
def test_kernel_spec_accepts_what_a_config_spec_accepts(spec):
    # One table checks both, so they cannot drift apart. None is left out:
    # it is how KernelSpec leaves a field unset, and a config has no null spec field.
    def rejects(make):
        try:
            make()
        except ConfigError:
            return True
        return False

    cfg = _tiny_config(trials=1, kernels={"kind": "explicit", "specs": [spec]})
    config_rejects = rejects(lambda: ExperimentConfig.from_dict(cfg))
    assert rejects(lambda: mk.KernelSpec(**spec)) == config_rejects


@pytest.mark.parametrize("overrides, match", [
    ({"cv_folds": 2.5}, "cv_folds must be an integer"),
    ({"cv_folds": True}, "cv_folds must be an integer"),
    ({"trials": 1.5}, "trials must be an integer"),
    ({"seed": 1.5}, "seed must be an integer"),
    ({"seed": "abc"}, "seed must be an integer"),
    ({"l1_max_iters": 2.5}, "l1_max_iters must be an integer"),
    ({"dataset": {**_tiny_config()["dataset"], "n_features": 6.5}},
     "dataset.n_features must be an integer"),
    ({"methods": "uniform"}, "methods must be a list"),
    ({"metrics": "rmse"}, "metrics must be a list"),
    ({"lambda0_grid": 0.1}, "lambda0_grid must be a list"),
])
def test_config_requires_ints_and_lists(tmp_path, overrides, match):
    cfg = _tiny_config(**overrides)
    with pytest.raises(ConfigError, match=match):
        ExperimentConfig.from_dict(cfg)
    result = CliRunner().invoke(main, ["experiment", "--config", _write_config(tmp_path, cfg)])
    assert result.exit_code == 1
    assert "config error" in result.output


_DELIMITED = {"kind": "delimited", "path": "d.csv", "label_column": 0, "delimiter": ";",
              "task": "regression", "label_map": None, "header": True, "split_fraction": 0.5}
_NGRAM_TEXT = {"dataset": {**_TEXT, "task": "classification_pm1", "split_fraction": 0.5},
               "kernels": {"kind": "ngram_rank1", "n": 2, "top": 10, "include_offset": False}}


@pytest.mark.parametrize("overrides, section", [
    ({"dataset": _DELIMITED}, "dataset"),
    ({"dataset": {**_tiny_config()["dataset"], "coef": 2.0}}, "dataset"),
    (_NGRAM_TEXT, "dataset"),
    (_NGRAM_TEXT, "kernels"),
    ({"kernels": _EXPLICIT}, "kernels"),
    ({"kernels": {"kind": "rank1_all", "include_offset": False}}, "kernels"),
])
def test_config_section_takes_exactly_its_recipe_keys(overrides, section):
    cfg = _tiny_config(trials=1, seed=None, **overrides)
    ExperimentConfig.from_dict(cfg)
    cfg[section] = {**cfg[section], "extra": 1}
    with pytest.raises(ConfigError, match=f"unknown {section} keys"):
        ExperimentConfig.from_dict(cfg)


def _regression_csv(tmp_path):
    path = tmp_path / "reg.csv"
    rows = np.random.default_rng(3).standard_normal((12, 3))
    path.write_text("".join(",".join(map(str, r)) + "\n" for r in rows))
    return str(path)


@pytest.mark.parametrize("dataset", ["synthetic_sparse", "delimited"])
@pytest.mark.parametrize("metrics", [["rmse", "misclassification"], ["misclassification"]])
def test_misclassification_needs_pm1_task(tmp_path, monkeypatch, dataset, metrics):
    def no_fit(*args, **kwargs):
        raise AssertionError("fit_l2 called")

    monkeypatch.setattr(experiment, "fit_l2", no_fit)
    cfg = _tiny_config(trials=1, methods=["uniform"], metrics=metrics)
    if dataset == "delimited":
        cfg["dataset"] = {"kind": "delimited", "path": _regression_csv(tmp_path)}
    with pytest.raises(ConfigError, match="classification_pm1"):
        run_experiment(cfg)
    result = CliRunner().invoke(main, ["experiment", "--config", _write_config(tmp_path, cfg)])
    assert result.exit_code == 1
    assert "classification_pm1" in result.output


def test_config_file_non_finite_constants_rejected(tmp_path):
    # json.load parses NaN and Infinity; validation must still see them.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_tiny_config(lambda0_grid=[0.1, math.inf])))
    assert "Infinity" in path.read_text()
    with pytest.raises(ConfigError, match="lambda0_grid"):
        ExperimentConfig.from_json(path)
    result = CliRunner().invoke(main, ["experiment", "--config", str(path)])
    assert result.exit_code == 1
    assert "lambda0_grid" in result.output


# --- run_experiment -----------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_report():
    cfg = ExperimentConfig.from_dict(_tiny_config())
    return cfg, run_experiment(cfg)


def test_experiment_trial_counts(tiny_report):
    cfg, report = tiny_report
    assert report["trials"] == cfg.trials
    for method in cfg.methods:
        assert len(report["methods"][method]["trials"]) == cfg.trials


def test_experiment_mean_matches_listed_trials(tiny_report):
    _, report = tiny_report
    for entry in report["methods"].values():
        ok = [t for t in entry["trials"] if "failed" not in t]
        for name, mean in entry["mean"].items():
            vals = [t["metrics"][name] for t in ok]
            assert mean == pytest.approx(float(np.mean(vals)), rel=1e-15)


def test_experiment_audit_no_overlap(tiny_report):
    _, report = tiny_report
    for row in report["audit"]:
        assert row["overlap"] == 0


def test_experiment_reports_convergence_and_kkt(tiny_report):
    _, report = tiny_report
    rec = report["methods"]["l2mkl"]["trials"][0]
    assert rec["converged"]
    assert rec["kkt"]["alpha_residual"] <= 1e-8
    assert "certificate_gap" in report["methods"]["l1mkl"]["trials"][0]


def test_experiment_record_layout_per_method(tiny_report):
    cfg, report = tiny_report
    second = {"l2mkl": ["radius"], "l1mkl": ["budget"], "uniform": [], "best_single": ["kernel"]}
    src = _Source(cfg)
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.trials)
    for method in cfg.methods:
        for t, rec in enumerate(report["methods"][method]["trials"]):
            assert list(rec["chosen"]) == ["lambda0"] + second[method]
            assert ("kkt" in rec) == (method != "l1mkl")
            if method != "best_single":
                continue
            kernel = rec["chosen"]["kernel"]
            assert type(kernel) is int
            # The recorded residuals are those of the one-kernel refit.
            train, _, _ = src.trial_data(seeds[t])
            sub = build_family(cfg.kernels, train).select_kernels([kernel])
            model, _ = mk.fit_l2(sub, train.y, rec["chosen"]["lambda0"], 0.0)
            r_alpha, r_mu = mk.kkt_residuals(model, sub, train.y)
            assert rec["kkt"] == {"alpha_residual": r_alpha, "mu_residual": r_mu}


def test_experiment_records_cv_fit_outcomes(tiny_report):
    cfg, report = tiny_report
    for method in cfg.methods:
        n_combos = len(_combo_grid(method, cfg, 7))  # 6 features + offset
        for rec in report["methods"][method]["trials"]:
            outcomes = rec["cv_fits"]
            assert list(outcomes) == ["fits", "unconverged", "iterations"]
            assert outcomes["fits"] == n_combos * cfg.cv_folds
            assert 0 <= outcomes["unconverged"] <= outcomes["fits"]
            low, median, high = outcomes["iterations"]
            assert 0 <= low <= median <= high


def test_experiment_counts_unconverged_cv_fits():
    # One projected-gradient step cannot certify these L1 fits. With one
    # combo, each fold's only fit on the Gram family starts from uniform
    # weights; a rank-one family's path start would be certified before
    # any step.
    kernels = {"kind": "explicit", "specs": [{"kind": "gaussian", "bandwidth": 1.0},
                                             {"kind": "linear"}]}
    cfg = ExperimentConfig.from_dict(_tiny_config(methods=["l1mkl"], trials=1,
                                                  kernels=kernels, l1_max_iters=1,
                                                  lambda0_grid=[0.01]))
    rec = run_experiment(cfg)["methods"]["l1mkl"]["trials"][0]
    assert rec["converged"] is False
    assert rec["cv_fits"] == {"fits": cfg.cv_folds, "unconverged": cfg.cv_folds,
                              "iterations": [1, 1.0, 1]}


@pytest.mark.parametrize("method, solver_fn", [("l2mkl", "fit_l2"), ("l1mkl", "fit_l1")])
def test_each_fold_grid_starts_cold_then_chains(monkeypatch, method, solver_fn):
    # A fold's first combo starts from the solver's default. A later l2mkl
    # combo starts from the alpha of the same radius at the previous
    # lambda0, or in the first lambda0 row from the previous combo's; a
    # later l1mkl combo on a Gram family from the previous combo's mu
    # scaled to its budget. The refit on the whole training set starts cold.
    starts, fits = [], []
    fit = getattr(experiment, solver_fn)

    def recording_fit(*args, start=None, **kwargs):
        starts.append(start)
        result = fit(*args, start=start, **kwargs)
        fits.append((args[3], result[0].alpha if method == "l2mkl" else result.mu))
        return result

    monkeypatch.setattr(experiment, solver_fn, recording_fit)
    kernels = {"kind": "explicit", "specs": [{"kind": "gaussian", "bandwidth": 1.0},
                                             {"kind": "linear"}]}
    cfg = ExperimentConfig.from_dict(_tiny_config(
        methods=[method], trials=1, kernels=kernels, radius_grid=[1.0, 10.0],
        budget_grid=[1.0, 3.0]))
    run_experiment(cfg)
    n_combos = len(_combo_grid(method, cfg, 2))
    assert n_combos == 4
    assert len(starts) == n_combos * cfg.cv_folds + 1
    row = len(cfg.radius_grid)
    for f in range(cfg.cv_folds):
        fold = starts[f * n_combos:(f + 1) * n_combos]
        done = fits[f * n_combos:(f + 1) * n_combos]
        assert fold[0] is None
        for n in range(1, n_combos):
            if method == "l2mkl":
                assert fold[n] is done[n - row if n >= row else n - 1][1]
            else:
                (budget, mu), knots = done[n - 1], fold[n][1]
                assert np.array_equal(fold[n][0], mu * (done[n][0] / budget))
                assert knots == 0
    assert starts[-1] is None


def test_l1_grid_fits_one_combo_per_scale_class(monkeypatch):
    calls = []

    def counting_fit_l1(*args, **kwargs):
        calls.append(args[2:4])
        return mk.fit_l1(*args, **kwargs)

    monkeypatch.setattr(experiment, "fit_l1", counting_fit_l1)
    lambda0_grid, budget_grid = [0.001, 0.01, 0.1], [1.0, 10.0, 100.0]
    cfg = ExperimentConfig.from_dict(_tiny_config(
        methods=["l1mkl"], lambda0_grid=lambda0_grid, budget_grid=budget_grid, trials=1))
    chosen = run_experiment(cfg)["methods"]["l1mkl"]["trials"][0]["chosen"]
    # Budget/lambda0 ratios 1e1..1e5: five classes out of nine combos.
    assert len(calls) == 5 * cfg.cv_folds + 1
    assert calls[-1] == (chosen["lambda0"], chosen["budget"])
    ratio = chosen["budget"] / chosen["lambda0"]
    members = [l0 for l0 in lambda0_grid for b in budget_grid
               if abs(b / l0 - ratio) <= 1e-12 * ratio]
    assert chosen["lambda0"] == min(members)


def test_l1_walks_one_lasso_path_per_fold(monkeypatch):
    walks, starts = [], []
    path_stops = solver._l1_path_stops

    def counting_stops(F, y, classes):
        walks.append(len(classes))
        return path_stops(F, y, classes)

    def counting_fit_l1(*args, **kwargs):
        starts.append(kwargs.get("start"))
        return mk.fit_l1(*args, **kwargs)

    monkeypatch.setattr(solver, "_l1_path_stops", counting_stops)
    monkeypatch.setattr(experiment, "fit_l1", counting_fit_l1)
    cfg = ExperimentConfig.from_dict(_tiny_config(
        methods=["l1mkl"], lambda0_grid=[0.001, 0.01, 0.1], budget_grid=[1.0, 10.0, 100.0],
        trials=1))
    run_experiment(cfg)
    n_combos = len(_combo_grid("l1mkl", cfg, 7))
    # One walk per fold for the whole grid, then the refit's own walk.
    assert walks == [n_combos] * cfg.cv_folds + [1]
    assert len(starts) == n_combos * cfg.cv_folds + 1
    assert None not in starts[:-1] and starts[-1] is None
    # Gram families have no path: every fit starts from uniform weights.
    walks.clear()
    kernels = {"kind": "explicit", "specs": [{"kind": "linear"}, {"kind": "polynomial",
                                                                  "degree": 2}]}
    run_experiment(ExperimentConfig.from_dict(_tiny_config(methods=["l1mkl"], trials=1,
                                                           kernels=kernels)))
    assert walks == []


def test_experiment_rejects_more_folds_than_training_rows(tmp_path):
    cfg = _tiny_config(dataset={**_tiny_config()["dataset"], "train_size": 5}, cv_folds=10,
                       methods=["uniform"], trials=1)
    with pytest.raises(ConfigError, match="cv_folds is 10 but the training set has only 5 rows"):
        run_experiment(ExperimentConfig.from_dict(cfg))
    result = CliRunner().invoke(main, ["experiment", "--config", _write_config(tmp_path, cfg)])
    assert result.exit_code == 1, result.output
    assert "config error" in result.output


def test_l1_combo_grid_default_grids():
    cfg = ExperimentConfig.from_dict(_tiny_config(lambda0_grid=list(DEFAULT_LAMBDA0_GRID),
                                                  budget_grid=list(DEFAULT_BUDGET_GRID)))
    combos = _combo_grid("l1mkl", cfg, 7)
    assert len(combos) == 10
    ratios = [c["budget"] / c["lambda0"] for c in combos]
    assert len({round(math.log10(r)) for r in ratios}) == 10
    # Search order is kept: lambda0 ascending, then budget ascending.
    keys = [(c["lambda0"], c["budget"]) for c in combos]
    assert keys == sorted(keys)


def test_trial_folds_shared_by_all_methods(monkeypatch):
    calls = []
    subset = mk.KernelFamily.subset

    def counting_subset(self, indices):
        calls.append(indices)
        return subset(self, indices)

    monkeypatch.setattr(mk.KernelFamily, "subset", counting_subset)
    cfg = ExperimentConfig.from_dict(_tiny_config())
    assert len(cfg.methods) == 4
    run_experiment(cfg)
    assert len(calls) == cfg.cv_folds * cfg.trials


_GRAM_KERNELS = {"kind": "explicit", "specs": [{"kind": "gaussian", "bandwidth": 2.0},
                                                {"kind": "polynomial", "degree": 2}]}


@pytest.mark.parametrize("kernels", [_GRAM_KERNELS, {"kind": "rank1_all"}])
def test_fold_major_cv_matches_method_major_reference(monkeypatch, kernels):
    cfg = ExperimentConfig.from_dict(_tiny_config(kernels=kernels, radius_grid=[1.0, 10.0],
                                                  budget_grid=[1.0, 10.0]))
    assert len(cfg.methods) == 4
    report = dumps_canonical(run_experiment(cfg))
    monkeypatch.setattr(experiment, "_run_trial", method_major_run_trial)
    assert report == dumps_canonical(run_experiment(cfg))


def test_a_trial_evaluates_each_weighted_test_kernel_once(monkeypatch):
    # Four methods on three Gram kernels: uniform and l2mkl weight every
    # kernel, so scoring each method by its own predict_weighted call would
    # evaluate some test cross kernels two to four times. The trial's one
    # stacked call evaluates each kernel that some method weights once, in
    # kernel order; CV predicts from the family's stack and evaluates none.
    specs = [{"kind": "gaussian", "bandwidth": 2.0}, {"kind": "linear"},
             {"kind": "polynomial", "degree": 2}]
    cfg = ExperimentConfig.from_dict(_tiny_config(kernels={"kind": "explicit", "specs": specs},
                                                  trials=1, radius_grid=[1.0, 10.0]))
    assert len(cfg.methods) == 4
    evaluated, weights = [], []
    cross_gram, predict_weighted = mk.kernels.cross_gram, experiment.predict_weighted

    def counting_cross_gram(spec, A, B):
        evaluated.append(spec)
        return cross_gram(spec, A, B)

    def recording_predict_weighted(specs_, mu, *args):
        weights.append(np.atleast_2d(mu))
        return predict_weighted(specs_, mu, *args)

    monkeypatch.setattr(mk.kernels, "cross_gram", counting_cross_gram)
    monkeypatch.setattr(experiment, "predict_weighted", recording_predict_weighted)
    report = run_experiment(cfg)
    assert all(entry["failed"] == 0 for entry in report["methods"].values())
    weighted = np.flatnonzero(np.vstack(weights).any(axis=0))
    assert len(weights) == 1 and len(weights[0]) == 4
    assert evaluated == [mk.KernelSpec(**specs[k]) for k in weighted]


def test_fold_failure_skips_the_method_s_later_folds(monkeypatch):
    # l2mkl is the only method fitting at a positive radius; its first fit
    # on fold 2 (of 0-3) fails. Fold-major and method-major runs record the
    # same failure after the same fits, and no other method notices.
    cfg = ExperimentConfig.from_dict(_tiny_config(kernels=_GRAM_KERNELS, trials=1, cv_folds=4,
                                                  radius_grid=[1.0, 10.0]))
    clean = run_experiment(cfg)["methods"]
    n_combos = len(_combo_grid("l2mkl", cfg, 2))
    fail_at = 2 * n_combos + 1
    calls = []

    def fit_l2_failing_on_fold_2(family, y, lambda0, radius, **kwargs):
        if radius > 0.0:
            calls.append(radius)
            if len(calls) == fail_at:
                raise NumericalError("injected failure on fold 2")
        return mk.fit_l2(family, y, lambda0, radius, **kwargs)

    monkeypatch.setattr(experiment, "fit_l2", fit_l2_failing_on_fold_2)
    reports = []
    for run_trial in (experiment._run_trial, method_major_run_trial):
        monkeypatch.setattr(experiment, "_run_trial", run_trial)
        calls.clear()
        reports.append(run_experiment(cfg)["methods"])
        assert len(calls) == fail_at  # nothing on fold 3, and no refit
    fold_major, method_major = reports
    assert dumps_canonical(fold_major) == dumps_canonical(method_major)
    assert fold_major["l2mkl"]["trials"] == [{"failed": "injected failure on fold 2",
                                              "trial": 0}]
    assert fold_major["l2mkl"]["failed"] == 1
    for method in ("l1mkl", "uniform", "best_single"):
        assert dumps_canonical(fold_major[method]) == dumps_canonical(clean[method])


def test_cv_holds_one_fold_family_at_a_time(monkeypatch):
    # 200 training rows, 4 Gram kernels, 10 folds of 180 rows: holding
    # every fold's stack at once costs about 8 fold stacks; the fold loop
    # holds one.
    alive = []
    subset = mk.KernelFamily.subset

    def tracked_subset(self, indices):
        assert all(ref() is None for ref in alive), "two fold families alive at once"
        fold = subset(self, indices)
        alive.append(weakref.ref(fold))
        return fold

    monkeypatch.setattr(mk.KernelFamily, "subset", tracked_subset)
    specs = [{"kind": "gaussian", "bandwidth": 1.0}, {"kind": "gaussian", "bandwidth": 3.0},
             {"kind": "linear"}, {"kind": "polynomial", "degree": 2}]
    cfg = ExperimentConfig.from_dict(_tiny_config(
        dataset={"kind": "synthetic_sparse", "n_features": 4, "n_informative": 2,
                 "train_size": 200, "test_size": 50},
        kernels={"kind": "explicit", "specs": specs}, methods=["l2mkl", "uniform"],
        lambda0_grid=[0.1], radius_grid=[1.0], cv_folds=10, trials=1))
    tracemalloc.start()
    try:
        report = run_experiment(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(alive) == cfg.cv_folds
    assert all(m["failed"] == 0 for m in report["methods"].values())
    trial_stack, fold_stack = (4 * rows * rows * 8 for rows in (200, 180))
    assert peak < trial_stack + 3 * fold_stack


def test_experiment_deterministic_bytes(tiny_report, tmp_path):
    cfg, report = tiny_report
    again = run_experiment(cfg)
    p1 = write_json_atomic(report, tmp_path / "a.json")
    p2 = write_json_atomic(again, tmp_path / "b.json")
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_delimited_experiment_splits_the_file_per_trial(tmp_path):
    rng = np.random.default_rng(4)
    X = rng.standard_normal((30, 3))
    y = X @ np.array([1.0, -1.0, 0.5]) + 0.1 * rng.standard_normal(30)
    path = tmp_path / "d.csv"
    path.write_text("".join(";".join(map(repr, [*row.tolist(), t])) + "\n"
                            for row, t in zip(X, y.tolist())))
    cfg = ExperimentConfig.from_dict(_tiny_config(
        dataset={"kind": "delimited", "path": str(path), "delimiter": ";", "split_fraction": 0.6},
        methods=["l2mkl", "uniform"]))
    report = run_experiment(cfg)
    base = mk.load_delimited(path, delimiter=";")
    source = _Source(cfg)
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.trials)
    splits = []
    for audit, seed in zip(report["audit"], seeds):
        tr, te = split_indices(30, 0.6, int(seed.generate_state(1)[0]))
        assert (audit["train_rows"], audit["test_rows"], audit["overlap"]) == (18, 12, 0)
        assert audit["train_checksum"] == experiment._index_checksum(tr)
        assert audit["test_checksum"] == experiment._index_checksum(te)
        train, test, _ = source.trial_data(seed)
        np.testing.assert_array_equal(train.X, base.X[tr])
        np.testing.assert_array_equal(test.y, base.y[te])
        splits.append(tuple(tr))
    assert splits[0] != splits[1]
    for entry in report["methods"].values():
        assert entry["failed"] == 0 and math.isfinite(entry["mean"]["rmse"])


def test_failed_method_trial_is_recorded_and_left_out_of_mean(monkeypatch):
    cfg = ExperimentConfig.from_dict(_tiny_config(methods=["l1mkl", "uniform"]))
    clean = run_experiment(cfg)
    fits_per_trial = len(_combo_grid("l1mkl", cfg, 7)) * cfg.cv_folds + 1
    calls = []

    def fit_l1_failing_in_trial_1(*args, **kwargs):
        calls.append(args)
        if len(calls) > fits_per_trial:
            raise NumericalError("injected failure")
        return mk.fit_l1(*args, **kwargs)

    monkeypatch.setattr(experiment, "fit_l1", fit_l1_failing_in_trial_1)
    report = run_experiment(cfg)
    l1 = report["methods"]["l1mkl"]
    assert l1["failed"] == 1
    assert l1["trials"] == [clean["methods"]["l1mkl"]["trials"][0],
                            {"failed": "injected failure", "trial": 1}]
    assert l1["mean"] == l1["trials"][0]["metrics"]
    assert l1["std"] == {"rmse": 0.0}
    assert report["methods"]["uniform"] == clean["methods"]["uniform"]


@pytest.mark.parametrize("jobs", [0, 2])
def test_experiment_runs_trials_in_order_only(tmp_path, monkeypatch, jobs):
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(experiment, "_run_trial", no_trial)
    cfg = ExperimentConfig.from_dict(_tiny_config(out=str(tmp_path / "out")))
    with pytest.raises(ConfigError, match="jobs must be 1"):
        run_experiment(cfg, jobs=jobs)
    assert not (tmp_path / "out" / "report.json").exists()


def test_uniform_on_single_kernel_family_is_plain_krr():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((30, 3))
    y = X @ np.array([1.0, -0.5, 0.2]) + 0.1 * rng.standard_normal(30)
    path_free_cfg = {
        "dataset": {"kind": "synthetic_sparse", "n_features": 3, "n_informative": 3,
                    "noise_sigma": 0.1, "train_size": 30, "test_size": 30},
        "kernels": {"kind": "explicit", "specs": [{"kind": "linear"}]},
        "methods": ["uniform"],
        "lambda0_grid": [0.05, 0.5],
        "cv_folds": 3,
        "trials": 1,
        "seed": 3,
        "metrics": ["rmse"],
    }
    cfg = ExperimentConfig.from_dict(path_free_cfg)
    report = run_experiment(cfg)
    rec = report["methods"]["uniform"]["trials"][0]

    # Replay the same trial by hand with a plain ridge fit per grid point.
    from mklridge.experiment import _Source, build_family
    from mklridge.data import make_folds
    src = _Source(cfg)
    seeds = np.random.SeedSequence(cfg.seed).spawn(1)
    train, test, _ = src.trial_data(seeds[0])
    fold_seed = int(seeds[0].generate_state(2)[1])
    fam = build_family(cfg.kernels, train)
    plan = make_folds(train.m, cfg.cv_folds, fold_seed)
    best = None
    for lam0 in sorted(cfg.lambda0_grid):
        scores = []
        for f in range(cfg.cv_folds):
            tr, va = plan.fold_indices(f)
            alpha = mk.krr_solve(fam.stack[0][np.ix_(tr, tr)], train.y[tr],
                                 lam0 * len(tr))
            preds = fam.stack[0][np.ix_(va, tr)] @ alpha
            scores.append(mk.metric_rmse(preds, train.y[va]))
        score = float(np.mean(scores))
        if best is None or score < best[0]:
            best = (score, lam0)
    alpha = mk.krr_solve(fam.stack[0], train.y, best[1] * train.m)
    preds = mk.predict_weighted(fam.specs, np.ones(1), alpha, train.X, test.X)
    assert rec["chosen"]["lambda0"] == best[1]
    assert rec["metrics"]["rmse"] == pytest.approx(mk.metric_rmse(preds, test.y), rel=1e-12)


def test_best_single_on_rank1_family_is_plain_krr_per_kernel():
    # On a rank-one family best_single's CV grid is scored in closed form;
    # replay every (lambda0, kernel, fold) with a plain ridge fit.
    cfg = ExperimentConfig.from_dict({
        "dataset": {"kind": "synthetic_sparse", "n_features": 4, "n_informative": 2,
                    "noise_sigma": 0.3, "train_size": 30, "test_size": 30},
        "kernels": {"kind": "rank1_all"},
        "methods": ["best_single"],
        "lambda0_grid": [0.5, 0.02],
        "cv_folds": 3,
        "trials": 1,
        "seed": 5,
        "metrics": ["rmse"],
    })
    rec = run_experiment(cfg)["methods"]["best_single"]["trials"][0]

    from mklridge.data import make_folds
    seeds = np.random.SeedSequence(cfg.seed).spawn(1)
    train, _, _ = _Source(cfg).trial_data(seeds[0])
    fam = build_family(cfg.kernels, train)
    plan = make_folds(train.m, cfg.cv_folds, int(seeds[0].generate_state(2)[1]))
    best = None
    for lam0 in sorted(cfg.lambda0_grid):
        for k, K in enumerate(kernel_stack(fam)):
            scores = []
            for f in range(cfg.cv_folds):
                tr, va = plan.fold_indices(f)
                alpha = mk.krr_solve(K[np.ix_(tr, tr)], train.y[tr], lam0 * len(tr))
                scores.append(mk.metric_rmse(K[np.ix_(va, tr)] @ alpha, train.y[va]))
            score = float(np.mean(scores))
            if best is None or score < best[0]:
                best = (score, {"lambda0": lam0, "kernel": k})
    assert rec["chosen"] == best[1]
    assert rec["cv_score"] == pytest.approx(best[0], rel=1e-12)
    assert rec["cv_fits"] == {"fits": fam.p * 2 * 3, "unconverged": 0,
                              "iterations": [1, 1.0, 1]}


def _outcome(fn):
    try:
        return fn()
    except NumericalError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), layout=st.sampled_from(["features", "gram"]),
       m=st.integers(3, 24), p=st.integers(1, 30), zero=st.booleans(), twin=st.booleans(),
       lambda0s=st.lists(st.sampled_from([1e-4, 1e-3, 0.01, 0.1, 1.0]), min_size=1,
                         max_size=3, unique=True))
def test_radius0_fold_grid_matches_fit_l2_bit_for_bit(seed, layout, m, p, zero, twin, lambda0s):
    # Each uniform and best_single combo is one ridge solve: its predictions
    # and info are those of fit_l2 at radius 0, bit for bit, on rank-one
    # families with p < m and p >= m and on Gram families, with a zero and
    # a duplicate column. A rank-one best_single grid keeps its closed form
    # (test_best_single_on_rank1_family_is_plain_krr_per_kernel).
    rng = np.random.default_rng(seed)
    F = rng.standard_normal((m, p)) * rng.uniform(0.1, 10.0, p)
    if zero:
        F[:, rng.integers(p)] = 0.0
    if twin:
        F = np.column_stack([F, F[:, 0]])
    if layout == "features":
        fam = mk.KernelFamily(F)
    else:
        A = rng.standard_normal((m, m))
        fam = mk.KernelFamily.from_grams([np.outer(f, f) for f in F.T] + [A @ A.T / m])
    y = rng.standard_normal(m)
    perm = rng.permutation(m)
    n_tr = int(rng.integers(2, m))
    tr, va = np.sort(perm[:n_tr]), np.sort(perm[n_tr:])
    fold = (tr, va, fam.subset(tr))
    cfg = ExperimentConfig.from_dict(_tiny_config(lambda0_grid=lambda0s))
    for method in ["uniform"] + ["best_single"] * (layout == "gram"):
        combos = _combo_grid(method, cfg, fam.p)
        got = _outcome(lambda: experiment._fold_grid(method, fam, fold, y, combos, cfg))
        want = _outcome(lambda: fit_l2_radius0_grid(method, fam, fold, y, combos))
        assert type(got) is type(want)
        if isinstance(got, str):
            assert got == want
            continue
        assert len(got) == len(want) == len(combos)
        for (pred, info), (want_pred, want_info) in zip(got, want):
            assert pred.tobytes() == want_pred.tobytes()
            assert info == want_info == {"iterations": 1, "converged": True}


def test_radius0_fold_grid_keeps_fit_l2_s_psd_check():
    # A from_grams kernel that is slightly indefinite on the training rows
    # (eigenvalue -1e-3), with the training targets along that eigenvector:
    # the ridge solve succeeds, and the quadratic form is no roundoff.
    n, m = 20, 26
    Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((n, n)))
    K = np.eye(m)
    K[:n, :n] = (Q * np.append(1.0 / np.arange(1, n), -1e-3)) @ Q.T
    fam = mk.KernelFamily.from_grams([(K + K.T) / 2.0, np.eye(m)])
    tr, va = np.arange(n), np.arange(n, m)
    y = np.append(Q[:, -1], np.zeros(m - n))
    fold = (tr, va, fam.subset(tr))
    cfg = ExperimentConfig.from_dict(_tiny_config(lambda0_grid=[0.01]))
    for method in ("uniform", "best_single"):
        combos = _combo_grid(method, cfg, fam.p)
        with pytest.raises(NumericalError, match=r"kernel not PSD\?") as new:
            experiment._fold_grid(method, fam, fold, y, combos, cfg)
        with pytest.raises(NumericalError) as old:
            fit_l2_radius0_grid(method, fam, fold, y, combos)
        assert str(new.value) == str(old.value)


@pytest.mark.parametrize("method", ["l2mkl", "l1mkl"])
@pytest.mark.parametrize("kernels", [
    {"kind": "explicit", "specs": [{"kind": "gaussian", "bandwidth": 2.0}, {"kind": "linear"}]},
    {"kind": "rank1_all"},
])
def test_weight_learner_selection_replays_every_fit(method, kernels):
    # Replay every (combo, fold) with the public fits and score the grid.
    cfg = ExperimentConfig.from_dict({
        "dataset": {"kind": "synthetic_sparse", "n_features": 4, "n_informative": 2,
                    "noise_sigma": 0.3, "train_size": 24, "test_size": 24},
        "kernels": kernels,
        "methods": [method],
        "lambda0_grid": [0.1, 0.01],
        "radius_grid": [1.0, 0.0, 10.0],
        "budget_grid": [10.0, 1.0],
        "cv_folds": 3,
        "trials": 1,
        "seed": 11,
        "metrics": ["rmse"],
    })
    rec = run_experiment(cfg)["methods"][method]["trials"][0]

    from mklridge.data import make_folds
    seeds = np.random.SeedSequence(cfg.seed).spawn(1)
    train, _, _ = _Source(cfg).trial_data(seeds[0])
    fam = build_family(cfg.kernels, train)
    plan = make_folds(train.m, cfg.cv_folds, int(seeds[0].generate_state(2)[1]))
    # Each fold walks the grid in order, and each combo after the first
    # starts from an earlier fit on that fold: l2mkl from the alpha of the
    # same radius at the previous lambda0 (in the first lambda0 row, the
    # previous combo's), l1mkl on a Gram family from the previous combo's
    # mu scaled to the new budget. A rank-one l1mkl fit starts from its own
    # lasso-path stop.
    combos = _combo_grid(method, cfg, fam.p)
    fold_scores, fits = [], []
    for f in range(cfg.cv_folds):
        tr, va = plan.fold_indices(f)
        sub = fam.subset(tr)
        scores, done = [], []  # (combo, mu, alpha) of each fit so far, in grid order
        for combo in combos:
            if method == "l2mkl":
                same_radius = [d for d in done if d[0]["radius"] == combo["radius"]]
                prev = (same_radius or done or [None])[-1]
                start = None if prev is None else prev[2]
                model, _ = mk.fit_l2(sub, train.y[tr], combo["lambda0"], combo["radius"],
                                     start=start)
                mu, alpha = model.weights.mu, model.alpha
            else:
                start = None
                if done and fam.features is None:
                    prev_combo, prev_mu, _ = done[-1]
                    start = (prev_mu * (combo["budget"] / prev_combo["budget"]), 0)
                model = mk.fit_l1(sub, train.y[tr], combo["lambda0"], combo["budget"],
                                  tol=cfg.l1_tol, max_iters=cfg.l1_max_iters, start=start)
                mu, alpha = model.mu, model.alpha
            fits.append((model.iterations, model.converged))
            preds = experiment._predict_rows(fam, (tr, va, sub), mu, alpha)
            scores.append(mk.metric_rmse(preds, train.y[va]))
            done.append((combo, mu, alpha))
        fold_scores.append(scores)
    best = None
    for combo, scores in zip(combos, zip(*fold_scores)):
        score = float(np.mean(scores))
        if best is None or score < best[0]:
            best = (score, combo)
    iterations = [i for i, _ in fits]
    assert rec["chosen"] == best[1]
    assert rec["cv_score"] == best[0]  # the same fits, from the same starts
    assert rec["cv_fits"] == {
        "fits": len(fits), "unconverged": sum(not c for _, c in fits),
        "iterations": [min(iterations), float(np.median(iterations)), max(iterations)]}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_best_single_fails_when_a_feature_column_overflows(tmp_path):
    # A column near 1e200 overflows f'f. The closed form would score that
    # kernel as a zero predictor; the method must fail visibly instead.
    rows = np.random.default_rng(4).standard_normal((24, 4))
    rows[:, 1] *= 1e200
    path = tmp_path / "huge.csv"
    path.write_text("".join(",".join(map(str, r)) + "\n" for r in rows))
    cfg = _tiny_config(dataset={"kind": "delimited", "path": str(path)},
                       methods=["best_single"], lambda0_grid=[0.1], trials=1)
    out = run_experiment(ExperimentConfig.from_dict(cfg))["methods"]["best_single"]
    assert out["failed"] == 1
    assert "non-finite" in out["trials"][0]["failed"]


def test_tie_break_prefers_smallest_lambda0():
    # A dataset with zero targets makes every combo identical; the tie
    # should resolve to the smallest lambda0 and radius.
    cfg = ExperimentConfig.from_dict(_tiny_config(
        dataset={"kind": "synthetic_sparse", "n_features": 3, "n_informative": 1,
                 "coef": 0.0, "noise_sigma": 0.0, "train_size": 12, "test_size": 12},
        methods=["l2mkl"],
        lambda0_grid=[0.9, 0.1, 0.5],
        radius_grid=[2.0, 0.0],
        trials=1,
    ))
    report = run_experiment(cfg)
    chosen = report["methods"]["l2mkl"]["trials"][0]["chosen"]
    assert chosen == {"lambda0": 0.1, "radius": 0.0}


# --- tables ---------------------------------------------------------------------

def test_tables_normalized_baseline_is_one(tiny_report, tmp_path):
    _, report = tiny_report
    written = emit_tables(report, tmp_path, fmt="json")
    rows = json.loads(Path(written["normalized_metrics"]).read_text())
    uniform_rows = [r for r in rows if r["method"] == "uniform"]
    assert uniform_rows and all(r["normalized_mean"] == 1.0 for r in uniform_rows)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_tables_failed_replace_leaves_no_temp_file(fmt, tmp_path, monkeypatch):
    report = {"methods": {"uniform": {"mean": {"rmse": 1.0}, "std": {"rmse": 0.0}}}}

    def fail(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError):
        emit_tables(report, tmp_path, fmt=fmt)
    assert list(tmp_path.iterdir()) == []


def test_tables_csv_json_identical_content(tiny_report, tmp_path):
    _, report = tiny_report
    w_csv = emit_tables(report, tmp_path / "c", fmt="csv")
    w_json = emit_tables(report, tmp_path / "j", fmt="json")
    for name in ("absolute_metrics", "normalized_metrics"):
        jrows = json.loads(Path(w_json[name]).read_text())
        lines = Path(w_csv[name]).read_text().strip().splitlines()
        header = lines[0].split(",")
        crows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert len(crows) == len(jrows)
        for cr, jr in zip(crows, jrows):
            for key, val in jr.items():
                if isinstance(val, float):
                    assert float(cr[key]) == val
                else:
                    assert cr[key] == str(val)


def test_tables_missing_baseline_note(tiny_report, tmp_path):
    _, report = tiny_report
    pruned = {
        "config": report["config"],
        "trials": report["trials"],
        "methods": {k: v for k, v in report["methods"].items() if k != "uniform"},
        "audit": report["audit"],
    }
    written = emit_tables(pruned, tmp_path, fmt="csv")
    assert "note" in written
    assert "normalized_metrics" not in written


def test_format_float_round_trip():
    for val in (0.1, 1.0, -5.0, 1e-17, 123456.789, 3.141592653589793):
        assert float(format_float(val)) == val
    assert format_float(1.0) == "1.0"


def test_dumps_canonical_rejects_unknown_types():
    with pytest.raises(ConfigError):
        dumps_canonical({"x": object()})


# --- CLI -------------------------------------------------------------------------

def _write_config(tmp_path, cfg_dict, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg_dict))
    return str(path)


def test_cli_experiment_and_emit(tmp_path):
    cfg_path = _write_config(tmp_path, _tiny_config(trials=1, methods=["l2mkl", "uniform"]))
    out_dir = str(tmp_path / "out")
    runner = CliRunner()
    result = runner.invoke(main, ["experiment", "--config", cfg_path, "--out", out_dir])
    assert result.exit_code == 0, result.output
    report_path = os.path.join(out_dir, "report.json")
    assert os.path.exists(report_path)
    result = runner.invoke(main, ["emit", "--report", report_path,
                                  "--out", str(tmp_path / "tables"), "--format", "csv"])
    assert result.exit_code == 0, result.output
    assert os.path.exists(tmp_path / "tables" / "absolute_metrics.csv")


def test_cli_fit(tmp_path):
    cfg = _tiny_config(trials=1)
    cfg["fit"] = {"method": "l2mkl", "lambda0": 0.1, "radius": 1.0}
    cfg_path = _write_config(tmp_path, cfg)
    runner = CliRunner()
    result = runner.invoke(main, ["fit", "--config", cfg_path, "--out", str(tmp_path / "fit_out")])
    assert result.exit_code == 0, result.output
    summary = json.loads((tmp_path / "fit_out" / "fit.json").read_text())
    assert summary["converged"] is True
    assert summary["orthogonality"] is True


def test_cli_diagnose(tmp_path):
    diag = {
        "identity": {"cases": 50, "dim": 5, "radius": 1.0, "seed": 1},
        "stability": {"m": 10, "d": 10, "trials": 10, "lambda0": 0.5, "seed": 2},
        "bounds": {"kappa": 1.0, "max_error": 1.0, "radius": 1.0,
                   "lambda0": 1.0, "p": 1, "m": 1, "delta": 0.5},
    }
    cfg_path = _write_config(tmp_path, diag, name="diag.json")
    runner = CliRunner()
    result = runner.invoke(main, ["diagnose", "--config", cfg_path, "--out", str(tmp_path / "d")])
    assert result.exit_code == 0, result.output
    payload = json.loads((tmp_path / "d" / "diagnose.json").read_text())
    assert payload["identity"]["max_gap"] <= 1e-10
    assert payload["stability"]["violations"] == 0
    assert payload["bounds"]["beta"] == 52.0


@pytest.mark.parametrize("diag", [
    {"identity": {"cases": 3, "radius": float("nan")}},
    {"identity": {"cases": 3, "radius": -1.0}},
    {"stability": {"m": 0}},
])
def test_cli_diagnose_bad_section_values_exit_code(tmp_path, diag):
    cfg_path = _write_config(tmp_path, diag, name="diag.json")
    result = CliRunner().invoke(main, ["diagnose", "--config", cfg_path,
                                       "--out", str(tmp_path / "d")])
    assert result.exit_code == 1
    assert "config error" in result.output


@pytest.mark.parametrize("args, message", [
    (["fit"], "Missing option '--config'"),
    (["experiment", "--config", "{cfg}", "--jobs", "2"], "No such option '--jobs'"),
    (["experiment", "--config", "{cfg}", "--seed", "abc"], "'abc' is not a valid integer"),
    (["emit", "--report", "{cfg}", "--out", "tables", "--format", "xml"],
     "'xml' is not one of"),
    (["bogus"], "No such command 'bogus'"),
])
def test_cli_usage_error_is_a_config_error(tmp_path, args, message):
    cfg_path = _write_config(tmp_path, _tiny_config(trials=1))
    result = CliRunner().invoke(main, [a.format(cfg=cfg_path) for a in args])
    # CliRunner also reads 1 for an uncaught exception; click's exit is a SystemExit.
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert message in result.output


def test_cli_help_still_exits_0():
    assert CliRunner().invoke(main, ["--help"]).exit_code == 0
    assert CliRunner().invoke(main, ["experiment", "--help"]).exit_code == 0


@pytest.mark.parametrize("error, code, kind", [
    (ConfigError, 1, "config"), (ShapeError, 1, "config"),
    (DataError, 2, "data"), (NumericalError, 3, "numerical"),
])
@pytest.mark.parametrize("command, backend", [
    ("fit", "run_fit"), ("experiment", "run_experiment"),
    ("diagnose", "run_diagnose"), ("emit", "emit_tables"),
])
def test_cli_exit_code_matrix(tmp_path, monkeypatch, command, backend, error, code, kind):
    def fail(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(cli, backend, fail)
    path = _write_config(tmp_path, _tiny_config(trials=1))
    opts = ["--report", path, "--out", str(tmp_path / "t")] if command == "emit" else ["--config", path]
    result = CliRunner().invoke(main, [command, *opts])
    assert result.exit_code == code and isinstance(result.exception, SystemExit)
    assert result.output == f"{kind} error: injected\n"


def test_cli_config_error_exit_code(tmp_path):
    cfg_path = _write_config(tmp_path, {"dataset": {"kind": "nope"}, "kernels": {"kind": "x"}})
    result = CliRunner().invoke(main, ["experiment", "--config", cfg_path])
    assert result.exit_code == 1


def test_cli_data_error_exit_code(tmp_path):
    cfg = _tiny_config(trials=1)
    cfg["dataset"] = {"kind": "delimited", "path": str(tmp_path / "missing.csv")}
    cfg_path = _write_config(tmp_path, cfg)
    result = CliRunner().invoke(main, ["experiment", "--config", cfg_path])
    assert result.exit_code == 2


def test_cli_invalid_json_config(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    result = CliRunner().invoke(main, ["experiment", "--config", str(path)])
    assert result.exit_code == 1


def test_cli_diagnose_invalid_json_config(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    result = CliRunner().invoke(main, ["diagnose", "--config", str(path)])
    assert result.exit_code == 1
    assert "config error" in result.output and "not valid JSON" in result.output


def test_cli_emit_invalid_report(tmp_path):
    path = tmp_path / "report.json"
    path.write_text("{not json")
    result = CliRunner().invoke(main, ["emit", "--report", str(path),
                                       "--out", str(tmp_path / "tables")])
    assert result.exit_code == 2
    assert "data error" in result.output and "not valid JSON" in result.output
    missing = CliRunner().invoke(main, ["emit", "--report", str(tmp_path / "none.json"),
                                        "--out", str(tmp_path / "tables")])
    assert missing.exit_code == 2


@pytest.mark.parametrize("report", [
    {},
    [1],
    {"methods": []},
    {"methods": {"uniform": {}}},
    {"methods": {"uniform": {"mean": "rmse", "std": {}}}},
    {"methods": {"uniform": {"mean": {"rmse": "0.5"}, "std": {"rmse": 0.0}}}},
])
def test_cli_emit_malformed_report(tmp_path, report):
    path = _write_config(tmp_path, report, name="report.json")
    result = CliRunner().invoke(main, ["emit", "--report", path, "--out", str(tmp_path / "t")])
    assert result.exit_code == 2
    assert "data error: malformed report" in result.output
    assert not (tmp_path / "t").exists()


def test_cli_without_out_prints_to_stdout(tmp_path):
    cfg = _tiny_config(trials=1, methods=["uniform"], fit={"method": "uniform"})
    cfg_path = _write_config(tmp_path, cfg)
    diag_path = _write_config(tmp_path, {"bounds": BOUNDS}, name="diag.json")
    runner = CliRunner()
    entry = run_experiment(ExperimentConfig.from_dict(cfg))["methods"]["uniform"]
    result = runner.invoke(main, ["experiment", "--config", cfg_path])
    assert result.exit_code == 0
    assert result.output == f"uniform: mean={entry['mean']} std={entry['std']}\n"
    summary = run_fit(ExperimentConfig.from_dict(cfg))
    result = runner.invoke(main, ["fit", "--config", cfg_path])
    assert result.exit_code == 0
    assert json.loads(result.output) == {"converged": summary["converged"],
                                         "objective": summary["objective"]}
    result = runner.invoke(main, ["diagnose", "--config", diag_path])
    assert result.exit_code == 0
    assert json.loads(result.output) == {"bounds": "ok"}
    assert sorted(os.listdir(tmp_path)) == ["config.json", "diag.json"]


def test_cli_overrides_apply_to_config(tmp_path):
    cfg_path = _write_config(tmp_path, _tiny_config())
    cfg = cli._load_config(cfg_path, seed=3, out=str(tmp_path / "o"))
    assert (cfg.seed, cfg.out) == (3, str(tmp_path / "o"))
    assert cfg == ExperimentConfig.from_dict(_tiny_config(seed=3, out=str(tmp_path / "o")))
    assert cli._load_config(cfg_path) == ExperimentConfig.from_json(cfg_path)


# --- text pipeline end to end -----------------------------------------------------

def test_text_experiment_pipeline(tmp_path):
    rng = np.random.default_rng(11)
    pos_words = ["good", "great", "fine"]
    neg_words = ["bad", "awful", "poor"]
    lines = []
    for i in range(40):
        label = 1 if i % 2 == 0 else -1
        vocab = pos_words if label == 1 else neg_words
        words = [vocab[int(rng.integers(3))] for _ in range(8)]
        lines.append(f"{label}\t{' '.join(words)}")
    corpus = tmp_path / "reviews.txt"
    corpus.write_text("\n".join(lines) + "\n")
    cfg = ExperimentConfig.from_dict({
        "dataset": {"kind": "text", "path": str(corpus), "split_fraction": 0.5,
                    "task": "classification_pm1"},
        "kernels": {"kind": "ngram_rank1", "n": 2, "top": 12, "include_offset": True},
        "methods": ["l2mkl", "uniform"],
        "lambda0_grid": [0.01, 0.1],
        "radius_grid": [0.0, 1.0, 10.0],
        "cv_folds": 4,
        "trials": 2,
        "seed": 5,
        "metrics": ["rmse", "misclassification"],
    })
    report = run_experiment(cfg)
    miscls = report["methods"]["l2mkl"]["mean"]["misclassification"]
    assert miscls <= 0.2  # separable vocabularies should classify well
    for row in report["audit"]:
        assert row["overlap"] == 0
        assert row["orthogonality"] is True


def test_text_report_matches_counter_reference(tmp_path, monkeypatch):
    rng = np.random.default_rng(4)
    words = ["good", "Great", "caf\u00e9", "bad", "Bad", "awful", "a", "ab"]
    lines = [f"{1 if i % 3 else -1}\t{' '.join(rng.choice(words, size=int(rng.integers(0, 9))))}"
             for i in range(30)]
    corpus = tmp_path / "reviews.txt"
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = ExperimentConfig.from_dict({
        "dataset": {"kind": "text", "path": str(corpus), "task": "classification_pm1"},
        "kernels": {"kind": "ngram_rank1", "n": 2, "top": 10, "include_offset": True},
        "methods": ["l2mkl", "uniform", "best_single"],
        "lambda0_grid": [0.01, 0.1], "radius_grid": [1.0, 10.0],
        "cv_folds": 3, "trials": 2, "seed": 5,
    })
    report = dumps_canonical(run_experiment(cfg))
    monkeypatch.setattr(experiment, "build_ngram_features", counter_build_ngram_features)
    monkeypatch.setattr(experiment, "apply_vocabulary", counter_apply_vocabulary)
    assert dumps_canonical(run_experiment(cfg)) == report


def test_run_fit_l1_summary():
    cfg = ExperimentConfig.from_dict(_tiny_config(
        trials=1, fit={"method": "l1mkl", "lambda0": 0.1, "budget": 2.0}))
    summary = run_fit(cfg)
    assert summary["method"] == "l1mkl"
    assert len(summary["mu"]) == 7  # 6 features + offset


@pytest.mark.parametrize("method", ["l2mkl", "uniform", "l1mkl"])
def test_run_fit_summary_layout(method):
    fit = {"method": method, "lambda0": 0.05,
           **{"l2mkl": {"radius": 2.0}, "uniform": {}, "l1mkl": {"budget": 3.0}}[method]}
    cfg = ExperimentConfig.from_dict(_tiny_config(trials=1, fit=fit))
    summary = run_fit(cfg)
    head = ["method", "lambda0", "rows", "kernels", "orthogonality"]
    if method == "l1mkl":
        tail = ["budget", "iterations", "converged", "certificate_gap", "objective", "mu"]
    else:
        tail = ["radius", "iterations", "converged", "final_step", "certificate_gap",
                "objective", "kkt", "mu"]
    assert list(summary) == head + tail
    if method == "l1mkl":
        return
    # The L2 routes report the plain fit_l2 model and its KKT residuals.
    train, _, _ = _Source(cfg).trial_data(np.random.SeedSequence(cfg.seed).spawn(1)[0])
    family = build_family(cfg.kernels, train)
    radius = 2.0 if method == "l2mkl" else 0.0
    model, fit_report = mk.fit_l2(family, train.y, 0.05, radius)
    r_alpha, r_mu = mk.kkt_residuals(model, family, train.y)
    assert summary["radius"] == radius
    assert summary["iterations"] == model.iterations
    assert summary["objective"] == fit_report.objective_value
    assert summary["kkt"] == {"alpha_residual": r_alpha, "mu_residual": r_mu}
    assert summary["mu"] == model.weights.mu.tolist()


@pytest.mark.parametrize("fit", [
    {"method": "l2mkl", "lamda0": 5.0, "budget": 9.0},
    {"method": "l2mkl", "lambda0": 0.1, "budget": 9.0},
    {"method": "l1mkl", "lambda0": 0.1, "radius": 1.0},
    {"method": "uniform", "radius": 1.0},
    {"method": "uniform", "budget": 1.0},
])
def test_run_fit_rejects_unknown_or_inapplicable_keys(fit):
    # The config rejects them at load, so every command does, not only fit.
    with pytest.raises(ConfigError, match="unknown fit keys"):
        ExperimentConfig.from_dict(_tiny_config(trials=1, fit=fit))


def test_run_diagnose_validates_sections():
    with pytest.raises(ConfigError):
        run_diagnose({"unknown_section": {}})
    with pytest.raises(ConfigError):
        run_diagnose({})


BOUNDS = {"kappa": 1.0, "max_error": 1.0, "radius": 1.0,
          "lambda0": 1.0, "p": 1, "m": 1, "delta": 0.5}


@pytest.mark.parametrize("diag, match", [
    ({"identity": {"casess": 3}}, "unknown identity keys"),
    ({"stability": {"m": 10, "lamda0": 0.5}}, "unknown stability keys"),
    ({"bounds": {**BOUNDS, "beta": 1.0}}, "unknown bounds keys"),
    ({"bounds": {k: v for k, v in BOUNDS.items() if k != "delta"}}, "missing bounds keys"),
    ({"identity": {"cases": 0}}, "at least 1"),
    ({"identity": {"dim": 0}}, "at least 1"),
    ({"identity": [1]}, "JSON object"),
    ({"identity": {"cases": 3, "radius": float("nan")}}, "radius"),
    ({"identity": {"cases": 3, "radius": float("inf")}}, "radius"),
    ({"identity": {"cases": 3, "radius": -1.0}}, "radius"),
    ({"stability": {"m": 0}}, "at least 1"),
    ({"stability": {"m": 5, "d": 0}}, "at least 1"),
    ({"identity": {"cases": 2.5}}, "identity.cases must be an integer"),
    ({"stability": {"m": 5, "seed": "1"}}, "stability.seed must be an integer"),
    ({"bounds": {**BOUNDS, "p": 2.5}}, "bounds.p must be an integer"),
])
def test_run_diagnose_rejects_bad_section_keys(tmp_path, diag, match):
    with pytest.raises(ConfigError, match=match):
        run_diagnose(diag)
    path = _write_config(tmp_path, diag, name="diag.json")
    result = CliRunner().invoke(main, ["diagnose", "--config", path])
    assert result.exit_code == 1
    assert "config error" in result.output


_SYNTHETIC = _tiny_config()["dataset"]
_LABELLED_CSV = {"kind": "delimited", "path": "labelled.csv"}


def _specs(*specs):
    return {"kernels": {"kind": "explicit", "specs": list(specs)}}


# Each of these once passed load and then ended in a raw traceback, a
# misleading exit code or a run with the wrong meaning.
@pytest.mark.parametrize("command, overrides", [
    ("experiment", {"dataset": {"kind": "delimited"}}),
    ("experiment", {"dataset": {"kind": "text"}, "kernels": {"kind": "ngram_rank1"}}),
    ("experiment", {"kernels": {"kind": "explicit"}}),
    ("experiment", {"l1_tol": "x"}),
    ("experiment", {"lambda0_grid": ["0.1"]}),
    ("experiment", {"radius_grid": ["a"]}),
    ("experiment", {"seed": -1}),
    ("experiment", {"out": 5}),
    ("experiment", {"methods": ["uniform", "uniform"]}),
    ("experiment", _specs({"kind": "polynomial", "degree": 2.5})),
    ("experiment", _specs({"kind": "gaussian", "bandwidth": "1"})),
    ("experiment", _specs({"kind": "rank1_feature", "feature_index": 1.5})),
    ("experiment", {"dataset": {**_SYNTHETIC, "coef": "x"}}),
    ("experiment", {"dataset": {**_SYNTHETIC, "noise_sigma": -1}}),
    ("experiment", {"dataset": {**_SYNTHETIC, "train_size": -1}}),
    ("experiment", {"kernels": {"kind": "rank1_all", "include_offset": "no"}}),
    ("experiment", {"dataset": {"kind": "delimited", "path": 0}}),
    ("experiment", {"dataset": {**_LABELLED_CSV, "delimiter": ""}}),
    ("experiment", {"dataset": {**_LABELLED_CSV, "label_map": {"x": "a", "y": 1}}}),
    ("fit", {"fit": {"method": "l2mkl", "lambda0": "x"}}),
    ("diagnose", {"stability": {"lambda0": "x"}}),
    ("diagnose", {"bounds": {**BOUNDS, "kappa": "x"}}),
])
def test_cli_rejects_bad_config_values_at_load(tmp_path, monkeypatch, command, overrides):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "labelled.csv").write_text("".join(f"{i},{i % 3},{'xy'[i % 2]}\n"
                                                   for i in range(12)))
    cfg = overrides if command == "diagnose" else _tiny_config(**overrides)
    result = CliRunner().invoke(main, [command, "--config", _write_config(tmp_path, cfg)])
    assert result.exit_code == 1, result.output
    assert "config error" in result.output
    assert isinstance(result.exception, SystemExit)  # an error message, not a traceback


# --- benchmark tracer ------------------------------------------------------------

def _load_tracer():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_finds_every_site():
    # The benchmark patches these names and reads these return shapes.
    tracer = _load_tracer()
    cfg = ExperimentConfig.from_dict(_tiny_config(trials=1))
    trace = tracer.Tracer()
    trace.install()
    try:
        experiment.run_experiment(cfg, jobs=1)
    finally:
        trace.uninstall()
    assert trace.absent == []
    assert not [s for s in trace.spans if s[4] and "raised" in s[4]]
    # One method-trial span per method and trial: it covers selection and
    # the refit; the CV grids run outside it, fold by fold, and so does the
    # trial's one test-scoring predict_weighted call.
    method_spans = [s[0] for s in trace.spans if s[0].startswith("experiment.method_trial.")]
    assert sorted(method_spans) == sorted(f"experiment.method_trial.{m}" for m in cfg.methods)
    fits = tracer.fit_outcomes(trace.spans)
    assert fits["solver.fit_l1"]["calls"] > 0 and fits["solver.fit_l1"]["iters"] > 0
    assert fits["solver.fit_l2"]["calls"] > 0 and fits["solver.fit_l2"]["iters"] > 0
    assert experiment.fit_l2 is mk.fit_l2


def test_every_public_name_resolves():
    # A definition deleted from src/ must leave __all__ too, or the
    # star import below fails.
    assert [name for name in mk.__all__ if not hasattr(mk, name)] == []
    namespace = {}
    exec("from mklridge import *", namespace)
    assert set(mk.__all__) <= namespace.keys()


def test_no_module_imports_a_name_it_never_uses():
    # CI runs no linter, and names move between modules: an import left
    # behind by a move is caught here. __init__.py imports to re-export.
    unused = []
    for path in sorted(Path(mk.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(
                    node, "module", None) != "__future__":
                for alias in node.names:
                    # "import scipy.linalg.blas" binds the name scipy.
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []
