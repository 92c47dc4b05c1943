"""Config-driven experiment runner.

Fits and evaluates the L2 weight learner, the L1 baseline, the uniform
kernel sum, and the best single kernel under a cross-validated
hyperparameter search, then writes machine-readable reports with full
seed-level reproducibility: the same config and seed produce the same
bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

import numpy as np

from . import diagnostics, solver
from .data import (TASKS, Dataset, _DELIMITED_RULES, apply_vocabulary, build_ngram_features,
                   load_delimited, load_text_corpus, make_folds, split_indices)
from .diagnostics import _BOUND_RULES
from .errors import ConfigError, DataError, NumericalError
from .kernels import (KernelFamily, KernelSpec, _BOOL, _FRACTION, _NONNEGATIVE, _POSITIVE, _Rule,
                      _SPEC_RULES, _as_vector, _check, _int, _is_number, _one_of, _required)
from .solver import MuWeights, fit_l1, fit_l2, predict_weighted

METHODS = ("l2mkl", "l1mkl", "uniform", "best_single")
METRICS = ("rmse", "misclassification")

DEFAULT_LAMBDA0_GRID = (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)
DEFAULT_RADIUS_GRID = (0.0, 0.01, 0.1, 1.0, 10.0, 100.0)
DEFAULT_BUDGET_GRID = (0.01, 0.1, 1.0, 10.0, 100.0)


def _score_inputs(pred, y):
    pred = _as_vector(pred, "prediction", finite=DataError)
    y = _as_vector(y, "target", pred.shape[0], DataError)
    if pred.size == 0:
        raise ConfigError("cannot score an empty prediction vector")
    return pred, y


def _rmse(P, y):
    # Along the last axis of P, so a stack of prediction rows is scored at
    # once; each row takes the reduction a 1-d vector would, bit for bit.
    return np.sqrt(np.mean((P - y) ** 2, axis=-1))


def _misclassification(P, y):
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise DataError("misclassification requires exact +/-1 targets")
    return np.mean(np.where(P >= 0.0, 1.0, -1.0) != y, axis=-1)


def metric_rmse(pred, y) -> float:
    """Root mean squared error."""
    return float(_rmse(*_score_inputs(pred, y)))


def metric_misclassification(pred, y) -> float:
    """Fraction of sign disagreements against +/-1 targets; sign(0) is +1."""
    return float(_misclassification(*_score_inputs(pred, y)))


_ROW_METRICS = {"rmse": _rmse, "misclassification": _misclassification}


def _optional(rule: _Rule) -> _Rule:
    return _Rule(f"{rule.text} or null", lambda v: v is None or rule.test(v))


def _list_of(item: _Rule, nonempty=False, distinct=False) -> _Rule:
    text = f"a list of {'one or more ' * nonempty}{'distinct ' * distinct}values, each {item.text}"
    return _Rule(text, lambda v: isinstance(v, (list, tuple)) and len(v) >= nonempty
                 and all(map(item.test, v)) and not (distinct and len(set(v)) < len(v)))


_TEXT = _Rule("a nonempty string", lambda v: isinstance(v, str) and v != "")
_OBJECT = _Rule("a JSON object", lambda v: isinstance(v, dict))

# Every key each config section reads, with the rule for its value. A
# section with a selector is (selector key, its default, rules per value).
_RULES = {
    "config": {
        "dataset": _required(_OBJECT), "kernels": _required(_OBJECT),
        "methods": _list_of(_one_of(METHODS), nonempty=True, distinct=True),
        "lambda0_grid": _list_of(_POSITIVE, nonempty=True),
        "radius_grid": _list_of(_NONNEGATIVE), "budget_grid": _list_of(_POSITIVE),
        "cv_folds": _int(2), "trials": _int(1), "seed": _optional(_int(0)),
        "metrics": _list_of(_one_of(METRICS), nonempty=True, distinct=True),
        "l1_max_iters": _int(1), "l1_tol": _POSITIVE, "out": _optional(_TEXT), "fit": _OBJECT,
    },
    "dataset": ("kind", None, {
        "delimited": {"path": _required(_TEXT), **_DELIMITED_RULES, "split_fraction": _FRACTION},
        "text": {"path": _required(_TEXT), "task": _one_of(TASKS), "split_fraction": _FRACTION},
        "synthetic_sparse": {"n_features": _int(1), "n_informative": _int(1),
                             "coef": _Rule("a finite number", _is_number),
                             "noise_sigma": _NONNEGATIVE, "train_size": _int(1),
                             "test_size": _int(1)},
    }),
    "kernels": ("kind", None, {
        "explicit": {"specs": _required(_list_of(_OBJECT, nonempty=True))},
        "rank1_all": {"include_offset": _BOOL},
        "ngram_rank1": {"n": _int(1), "top": _int(1), "include_offset": _BOOL},
    }),
    "kernel spec": _SPEC_RULES,
    "fit": ("method", "l2mkl", {
        "l2mkl": {"lambda0": _POSITIVE, "radius": _NONNEGATIVE},
        "l1mkl": {"lambda0": _POSITIVE, "budget": _POSITIVE},
        "uniform": {"lambda0": _POSITIVE},
    }),
    "diagnose": {"identity": _OBJECT, "stability": _OBJECT, "bounds": _OBJECT},
    "identity": {"cases": _int(1), "dim": _int(1), "radius": _NONNEGATIVE, "seed": _int(0)},
    "stability": {"m": _int(1), "d": _int(1), "trials": _int(1), "lambda0": _POSITIVE,
                  "seed": _int(0)},
    "bounds": _BOUND_RULES,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; see README for the key schema."""

    dataset: dict
    kernels: dict
    methods: tuple = ("l2mkl", "uniform")
    lambda0_grid: tuple = DEFAULT_LAMBDA0_GRID
    radius_grid: tuple = DEFAULT_RADIUS_GRID
    budget_grid: tuple = DEFAULT_BUDGET_GRID
    cv_folds: int = 10
    trials: int = 1
    seed: Optional[int] = None
    metrics: tuple = ("rmse",)
    l1_max_iters: int = 2000
    l1_tol: float = 1e-8
    out: Optional[str] = None
    fit: dict = field(default_factory=dict)

    def __post_init__(self):
        _check("config", _RULES["config"], self.to_dict())
        _check("dataset", _RULES["dataset"], self.dataset, "dataset.")
        if _check("kernels", _RULES["kernels"], self.kernels, "kernels.") == "explicit":
            for i, spec in enumerate(self.kernels["specs"]):
                _check("kernel spec", _RULES["kernel spec"], spec, f"kernels.specs[{i}].")
        _check("fit", _RULES["fit"], self.fit, "fit.")
        if (self.dataset["kind"] == "text") != (self.kernels["kind"] == "ngram_rank1"):
            raise ConfigError("text datasets need the ngram_rank1 kernel recipe, "
                              "and ngram_rank1 needs a text dataset")
        task = self.dataset.get("task", "regression")  # synthetic_sparse has no task key
        if "misclassification" in self.metrics and task != "classification_pm1":
            raise ConfigError("misclassification needs a dataset with task classification_pm1")
        for method, grid in (("l2mkl", "radius_grid"), ("l1mkl", "budget_grid")):
            if method in self.methods and not getattr(self, grid):
                raise ConfigError(f"{grid} must be nonempty when {method} is selected")
        if self.trials > 1 and self.seed is None:
            raise ConfigError("a seed is required when trials > 1")
        for name in ("methods", "metrics", "lambda0_grid", "radius_grid", "budget_grid"):
            values = getattr(self, name)
            object.__setattr__(self, name, tuple(map(float, values) if "grid" in name else values))

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        _check("config", _RULES["config"], d)  # cls(**d) cannot take an unknown or a missing key
        return cls(**d)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        return cls.from_dict(read_json(path, ConfigError, "config"))

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


# ---------------------------------------------------------------------------
# JSON input and canonical JSON output
# ---------------------------------------------------------------------------

def read_json(path, error, what: str):
    """Parse a JSON file; an unreadable or malformed one raises ``error``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise error(f"cannot open {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc


def format_float(x: float) -> str:
    """Serialize a float with 17 significant digits (round-trip exact)."""
    if not np.isfinite(x):
        return "null"
    s = format(float(x), ".17g")
    if "." not in s and "e" not in s:
        s += ".0"  # keep floats typed as floats across JSON round trips
    return s


def dumps_canonical(obj, indent: int = 0) -> str:
    """Deterministic JSON with 17-significant-digit floats."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [dumps_canonical(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(inner + s for s in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {dumps_canonical(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise ConfigError(f"cannot serialize value of type {type(obj).__name__}")


def write_json_atomic(obj, path) -> str:
    """Write canonical JSON via a temp file and rename."""
    return _write_text_atomic(dumps_canonical(obj) + "\n", path)


def _write_text_atomic(text: str, path) -> str:
    """Write text via a temp file and rename; the temp file never outlives a failure."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


# ---------------------------------------------------------------------------
# Trial data and kernel recipes
# ---------------------------------------------------------------------------

def synthetic_sparse(dataset_cfg: dict, rng: np.random.Generator):
    """Sparse linear signal: a few unit-coefficient features plus noise."""
    d = dataset_cfg.get("n_features", 200)
    ni = dataset_cfg.get("n_informative", 10)
    coef = dataset_cfg.get("coef", 1.0)
    sigma = dataset_cfg.get("noise_sigma", 0.5)
    n_train = dataset_cfg.get("train_size", 200)
    n_test = dataset_cfg.get("test_size", 200)
    if ni > d:
        raise ConfigError("n_informative must not exceed n_features")
    total = n_train + n_test
    X = rng.standard_normal((total, d))
    y = coef * X[:, :ni].sum(axis=1) + rng.normal(scale=sigma, size=total)
    train = Dataset(X=X[:n_train], y=y[:n_train])
    test = Dataset(X=X[n_train:], y=y[n_train:])
    return train, test


def _set_keys(section: dict, keys) -> dict:
    """The settings among ``keys`` that ``section`` sets, so that an unset
    one takes its default from the signature of the function they go to."""
    return {key: section[key] for key in keys if key in section}


class _Source:
    """Loads the raw data once and materializes per-trial train/test splits."""

    def __init__(self, config: ExperimentConfig):
        self.cfg = config
        ds = config.dataset
        self.kind = ds["kind"]
        self.fraction = ds.get("split_fraction", 0.5)
        if self.kind == "delimited":
            self.base = load_delimited(ds["path"], **_set_keys(ds, _DELIMITED_RULES))
        elif self.kind == "text":
            self.docs, self.labels = load_text_corpus(ds["path"])
            self.dataset_keys = _set_keys(ds, ("task",))

    def trial_data(self, trial_seed: np.random.SeedSequence):
        """Returns (train, test, audit) for one trial."""
        if self.kind == "synthetic_sparse":
            rng = np.random.default_rng(trial_seed)
            train, test = synthetic_sparse(self.cfg.dataset, rng)
            audit = {
                "train_rows": train.m, "test_rows": test.m, "overlap": 0,
                "train_checksum": "fresh-draw", "test_checksum": "fresh-draw",
            }
            return train, test, audit
        split_seed = int(trial_seed.generate_state(1)[0])
        if self.kind == "delimited":
            tr, te = split_indices(self.base.m, self.fraction, split_seed)
            train, test = self.base.take(tr), self.base.take(te)
        else:  # text
            n_docs = len(self.docs)
            tr, te = split_indices(n_docs, self.fraction, split_seed)
            counts_tr, vocab = build_ngram_features([self.docs[i] for i in tr],
                                                    **_set_keys(self.cfg.kernels, ("n", "top")))
            counts_te = apply_vocabulary([self.docs[i] for i in te], vocab)
            train = Dataset(X=counts_tr, y=self.labels[tr], **self.dataset_keys)
            test = Dataset(X=counts_te, y=self.labels[te], **self.dataset_keys)
        overlap = len(set(tr.tolist()) & set(te.tolist()))
        if overlap:
            raise ConfigError("internal split error: train and test rows overlap")
        audit = {
            "train_rows": len(tr), "test_rows": len(te), "overlap": overlap,
            "train_checksum": _index_checksum(tr), "test_checksum": _index_checksum(te),
        }
        return train, test, audit


def _index_checksum(indices) -> str:
    arr = np.sort(np.asarray(indices, dtype=np.int64))
    return hashlib.sha1(arr.tobytes()).hexdigest()[:16]


def build_family(kernels_cfg: dict, train: Dataset) -> KernelFamily:
    """Materialize the kernel family of a validated ``kernels`` section on
    the training rows; ``rank1_all`` and ``ngram_rank1`` give one rank-one
    kernel per feature column."""
    if kernels_cfg["kind"] == "explicit":
        return KernelFamily.from_specs([KernelSpec(**s) for s in kernels_cfg["specs"]], train.X)
    specs = [KernelSpec.rank1(i) for i in range(train.X.shape[1])]
    if kernels_cfg.get("include_offset", True):
        specs.append(KernelSpec.constant())
    return KernelFamily.from_specs(specs, train.X)


# ---------------------------------------------------------------------------
# Cross-validated method runners
# ---------------------------------------------------------------------------

def _predict_rows(family: KernelFamily, fold, mu, alpha) -> np.ndarray:
    """Within-sample prediction of a fold's validation rows from a fit on
    its training rows, through the family's kernels (a Gram family's
    weighted ones). ``fold`` is ``_fold_grid``'s (train indices, validation
    indices, train-fold family) triple; a rank-one fit's training rows are
    the train-fold family's features, ``family.features[train_idx]``."""
    train_idx, query_idx, sub = fold
    if family.features is not None:
        return family.features[query_idx] @ (mu * (sub.features.T @ alpha))
    a = np.zeros(family.m)
    a[train_idx] = alpha
    P = np.zeros((family.p, len(query_idx)))
    for k in np.flatnonzero(mu):
        P[k] = family.stack[k][query_idx] @ a
    return mu @ P


def _fit_for_combo(method, family, y, combo: dict, cfg: ExperimentConfig, start=None,
                   kkt=False):
    """Fit one method at one hyperparameter combo.

    ``start`` is where the solver starts, or None for its default: a
    ``(mu, knots)`` start for ``l1mkl`` (see ``fit_l1``), a dual vector
    alpha for ``l2mkl`` (see ``fit_l2``); the radius-0 methods take
    none. Returns (mu_full, alpha, info). With
    ``kkt``, ``info`` ends with the fit's KKT residuals, except for
    ``l1mkl``, whose result is not a fixed-point model.
    """
    lambda0 = combo["lambda0"]
    if method == "l1mkl":
        result = fit_l1(
            family, y, lambda0, combo["budget"],
            tol=cfg.l1_tol, max_iters=cfg.l1_max_iters, start=start,
        )
        info = {
            "iterations": result.iterations,
            "converged": result.converged,
            "certificate_gap": result.certificate_gap,
            "objective": result.objective_value,
        }
        return result.mu, result.alpha, info
    fit_family = family.select_kernels([combo["kernel"]]) if method == "best_single" else family
    # uniform carries no radius: it is the L2 fit pinned at mu = mu0.
    model, report = fit_l2(fit_family, y, lambda0, combo.get("radius", 0.0), start=start)
    info = {
        "iterations": model.iterations,
        "converged": model.converged,
        "final_step": model.final_step,
        "certificate_gap": model.certificate_gap,
        "objective": report.objective_value,
    }
    if kkt:
        r_alpha, r_mu = diagnostics.kkt_residuals(model, fit_family, y)
        info["kkt"] = {"alpha_residual": r_alpha, "mu_residual": r_mu}
    mu_full = model.weights.mu
    if method == "best_single":
        mu_full = np.zeros(family.p)
        mu_full[combo["kernel"]] = model.weights.mu[0]
    return mu_full, model.alpha, info


def _combo_grid(method, cfg: ExperimentConfig, p: int) -> list:
    """The method's combos in search order: lambda0 ascending, then the
    second parameter ascending, so CV ties go to the earliest combo.

    (lambda0, budget) and (c lambda0, c budget) give the same L1
    predictor (mu scales by c, alpha by 1/c), so ``l1mkl`` keeps only
    the first, smallest-lambda0 combo of each budget/lambda0 ratio.
    """
    combos = [{"lambda0": l0} for l0 in sorted(cfg.lambda0_grid)]
    if method == "uniform":
        return combos
    key, grid = {
        "l2mkl": ("radius", cfg.radius_grid),
        "l1mkl": ("budget", cfg.budget_grid),
        "best_single": ("kernel", range(p)),
    }[method]
    combos = [{**c, key: v} for c in combos for v in sorted(grid)]
    if method != "l1mkl":
        return combos
    kept, ratios = [], []
    for c in combos:
        ratio = c["budget"] / c["lambda0"]
        if not any(abs(ratio - r) <= 1e-12 * max(ratio, r) for r in ratios):
            ratios.append(ratio)
            kept.append(c)
    return kept


def _fold_grid(method, family, fold, y, combos: list, cfg: ExperimentConfig) -> list:
    """(validation predictions, fit info) of every combo on one CV fold,
    in combo order. ``fold`` is a (train indices, validation indices,
    train-fold family) triple, built once per fold by ``_run_trial`` and
    shared by every method, and ``family`` the trial's family, whose
    kernels the predictions slice. A NumericalError propagates; the fold
    loop records it as the method's failure.

    uniform and best_single fit at radius 0, where fit_l2's fit is its
    anchor ridge solve at mu = 1, on the family or on kernel k alone. So
    each of their combos is that one ``solver._ridge_solve`` call and
    fit_l2's ``solver._projections`` after it, whose PSD check on a Gram
    family is fit_l2's only other failure there, with fit_l2's info. On a
    rank-one family every best_single solve has a closed form
    (solver._single_kernel_predictions), so one pass scores the whole
    grid. One lasso-path walk gives the l1mkl start of every combo on a
    rank-one family (solver._l1_path_stops); fit_l1 still certifies each.

    Otherwise the fold's first combo starts cold and every later one
    starts from a neighbouring fit on this fold. An l2mkl fit starts from
    the alpha of the fit with the same radius at the previous lambda0,
    and in the first lambda0 row from the previous combo's; l1mkl on a
    Gram family starts from the previous combo's mu scaled to the new
    budget. Both solvers converge from any start, so a start only changes
    how many steps a fit takes.
    """
    tr_idx, va_idx, sub = fold
    y_tr = y[tr_idx]
    anchor = {"iterations": 1, "converged": True}
    if method == "best_single" and family.features is not None:
        preds = solver._single_kernel_predictions(sub.features, y_tr, family.features[va_idx],
                                                  sorted(cfg.lambda0_grid))
        # Combos run lambda0-major, then kernel, as the rows of this reshape.
        return [(row, anchor) for row in preds.transpose(0, 2, 1).reshape(len(combos), -1)]
    stops = None
    if method == "l1mkl" and family.features is not None:
        stops = solver._l1_path_stops(sub.features, y_tr,
                                      [(c["lambda0"] * sub.m, c["budget"]) for c in combos])
    row = len(cfg.radius_grid)  # l2mkl combos per lambda0
    grid, fits = [], []  # fits: (combo, mu, alpha) of each combo fitted so far
    for n, combo in enumerate(combos):
        start = None
        if stops is not None:
            start = stops[n]
        elif n and method == "l2mkl":
            start = fits[n - row if n >= row else n - 1][2]
        elif n and method == "l1mkl":
            prev_combo, prev_mu, _ = fits[-1]
            start = (prev_mu * (combo["budget"] / prev_combo["budget"]), 0)
        if method in ("uniform", "best_single"):
            fit = sub if method == "uniform" else sub.select_kernels([combo["kernel"]])
            alpha = solver._ridge_solve(fit, np.ones(fit.p), y_tr, combo["lambda0"] * sub.m)
            solver._projections(alpha, fit)  # the PSD check of a Gram family's quadratic forms
            mu_full = np.ones(sub.p) if fit is sub else 1.0 * (np.arange(sub.p) == combo["kernel"])
            info = anchor
        else:
            mu_full, alpha, info = _fit_for_combo(method, sub, y_tr, combo, cfg, start)
        grid.append((_predict_rows(family, fold, mu_full, alpha), info))
        fits.append((combo, mu_full, alpha))
    return grid


def _run_method_trial(method, family, combos: list, cv: list, train: Dataset,
                      cfg: ExperimentConfig):
    """Select the combo with the best mean CV score and refit it on the
    full trial training set.

    ``cv`` holds one (validation indices, grid) pair per fold, in fold
    order, where grid is ``_fold_grid``'s list for ``combos``; the CV
    fits themselves ran in ``_run_trial``'s fold loop. Returns the
    method's record, whose ``metrics`` entry is None until ``_run_trial``
    scores the test rows, and the refit's weights and duals.
    """
    y = train.y
    score_rows = _ROW_METRICS[cfg.metrics[0]]
    fold_scores = [score_rows(np.array([preds for preds, _ in grid]), y[va]) for va, grid in cv]
    scores = [float(np.mean(s)) for s in zip(*fold_scores)]
    best = min(range(len(combos)), key=scores.__getitem__)  # the first strict minimum

    mu_full, alpha, info = _fit_for_combo(method, family, y, combos[best], cfg, kkt=True)
    cv_infos = [info for _, grid in cv for _, info in grid]
    iterations = [i["iterations"] for i in cv_infos]
    record = {
        "chosen": combos[best],
        "cv_score": scores[best],
        "cv_fits": {
            "fits": len(cv_infos),
            "unconverged": sum(not i["converged"] for i in cv_infos),
            "iterations": [min(iterations), float(np.median(iterations)), max(iterations)],
        },
        "metrics": None,
    }
    record.update(info)
    return record, mu_full, alpha


def _run_trial(t: int, source: _Source, cfg: ExperimentConfig,
               trial_seed: np.random.SeedSequence):
    """One trial's records per method, and its audit row.

    Cross-validation runs fold by fold: each fold's train-fold family is
    built once, every method's grid is fitted on it, and it is released
    before the next fold's is built. So a Gram family of p kernels on m
    rows holds its trial stack and at most one fold stack, about
    p m^2 (1 + (1 - 1/k)^2) doubles, instead of all k fold stacks. Only
    the validation predictions and fit infos outlive a fold.

    A method's first NumericalError, in fold order, records it as failed
    for the trial and skips its later folds; the other methods go on.

    Every method that refits is then scored on the test rows by one
    ``predict_weighted`` call with the refits' weights and duals stacked
    row-wise, in method order, so each test cross kernel that some method
    weights is evaluated once per trial.
    """
    train, test, audit = source.trial_data(trial_seed)
    family = build_family(cfg.kernels, train)
    k = cfg.cv_folds
    if train.m < k:
        raise ConfigError(f"cv_folds is {k} but the training set has only {train.m} rows")
    # Every method of the trial selects on these folds.
    plan = make_folds(train.m, k, int(trial_seed.generate_state(2)[1]))
    audit = dict(audit)
    audit["trial"] = t
    ortho = diagnostics.orthogonality_check(family)
    audit["orthogonality"] = ortho
    combos = {method: _combo_grid(method, cfg, family.p) for method in cfg.methods}
    cv = {method: [] for method in cfg.methods}
    per_method = {}  # a method's record, as soon as it has one
    for tr, va in map(plan.fold_indices, range(k)):
        fold = (tr, va, family.subset(tr))
        for method in cfg.methods:
            if method in per_method:
                continue
            try:
                cv[method].append((va, _fold_grid(method, family, fold, train.y,
                                                  combos[method], cfg)))
            except NumericalError as exc:
                per_method[method] = {"failed": str(exc)}
        del fold  # the next fold's family is built only after this one is freed
    refits = {}  # method: (mu, alpha) of its refit
    for method in cfg.methods:
        if method not in per_method:
            try:
                record, mu, alpha = _run_method_trial(method, family, combos[method],
                                                      cv[method], train, cfg)
                per_method[method], refits[method] = record, (mu, alpha)
            except NumericalError as exc:
                per_method[method] = {"failed": str(exc)}
        per_method[method]["trial"] = t
    if refits:
        mus, alphas = zip(*refits.values())
        preds = predict_weighted(family.specs, np.array(mus), np.array(alphas), train.X, test.X)
        scores = {name: _ROW_METRICS[name](preds, test.y) for name in cfg.metrics}
        for j, method in enumerate(refits):
            per_method[method]["metrics"] = {name: float(s[j]) for name, s in scores.items()}
    return per_method, audit


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> dict:
    """Execute the full protocol described by ``config``.

    Per trial: resample or split, build the kernel family on training
    rows only, select hyperparameters for each method by k-fold CV on the
    training set (ties resolved toward the smallest lambda0, then the
    smallest second parameter), refit on the full training set, and score
    on held-out rows. CV runs fold by fold, so a trial holds one fold's
    kernel family at a time (see ``_run_trial``). Failed fits are
    recorded, not fatal.

    Trials run one after another. ``jobs`` accepts only 1; it stays so
    that callers passing ``jobs=1`` keep working.
    """
    if jobs != 1:
        raise ConfigError(f"jobs must be 1, got {jobs!r}: trials run in order")
    if not isinstance(config, ExperimentConfig):
        config = ExperimentConfig.from_dict(config)
    source = _Source(config)
    master = np.random.SeedSequence(0 if config.seed is None else config.seed)
    results = [_run_trial(t, source, config, trial_seed)
               for t, trial_seed in enumerate(master.spawn(config.trials))]

    methods_out = {}
    for method in config.methods:
        trials = [res[0][method] for res in results]
        ok = [tr for tr in trials if "failed" not in tr]
        mean, std = {}, {}
        if ok:
            for name in config.metrics:
                vals = np.array([tr["metrics"][name] for tr in ok])
                mean[name] = float(vals.mean())
                std[name] = float(vals.std(ddof=1)) if len(vals) > 1 else 0.0
        methods_out[method] = {
            "trials": trials,
            "mean": mean,
            "std": std,
            "failed": len(trials) - len(ok),
        }

    report = {
        "config": config.to_dict(),
        "trials": config.trials,
        "methods": methods_out,
        "audit": [res[1] for res in results],
    }
    if config.out:
        write_json_atomic(report, os.path.join(config.out, "report.json"))
    return report


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

def _table_rows(report) -> list:
    """One row per method and metric of a saved report; a report without
    numeric per-metric ``mean`` and ``std`` objects raises DataError."""
    try:
        rows = [{"method": method, "metric": name, "mean": mean, "std": entry["std"][name]}
                for method, entry in report["methods"].items()
                for name, mean in entry["mean"].items()]
    except (AttributeError, KeyError, TypeError) as exc:
        raise DataError("malformed report: expected 'methods' with per-metric 'mean' "
                        f"and 'std' objects ({exc!r})") from exc
    if not all(_is_number(r["mean"]) and _is_number(r["std"]) for r in rows):
        raise DataError("malformed report: metric means and stds must be finite numbers")
    rows.sort(key=lambda r: (r["method"], r["metric"]))
    return rows


def emit_tables(report: dict, out_dir, fmt: str = "csv") -> dict:
    """Write the absolute and baseline-normalized metric tables.

    The normalized table divides each method's mean by the uniform
    baseline's mean for the same metric (the baseline row is exactly
    1.0); it is omitted with a note when the baseline method is missing.
    CSV and JSON emissions carry identical numeric content.
    """
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown table format {fmt!r}; expected 'csv' or 'json'")
    rows = _table_rows(report)
    os.makedirs(out_dir, exist_ok=True)
    written = {}

    def write_rows(name, rows_, columns):
        path = os.path.join(out_dir, f"{name}.{fmt}")
        if fmt == "json":
            write_json_atomic(rows_, path)
        else:
            lines = [",".join(columns)]
            for r in rows_:
                cells = []
                for c in columns:
                    val = r[c]
                    cells.append(format_float(val) if isinstance(val, float) else str(val))
                lines.append(",".join(cells))
            _write_text_atomic("\n".join(lines) + "\n", path)
        written[name] = path

    write_rows("absolute_metrics", rows, ("method", "metric", "mean", "std"))

    baseline = report["methods"].get("uniform")
    if baseline is None or not baseline.get("mean"):
        written["note"] = "normalized table omitted: uniform baseline not present"
        return written
    norm_rows = []
    for r in rows:
        base = baseline["mean"].get(r["metric"])
        if base is None or base == 0.0:
            continue
        norm_rows.append({
            "method": r["method"],
            "metric": r["metric"],
            "normalized_mean": r["mean"] / base,
        })
    write_rows("normalized_metrics", norm_rows, ("method", "metric", "normalized_mean"))
    return written


# ---------------------------------------------------------------------------
# Single fits and the diagnostics suite (CLI back ends)
# ---------------------------------------------------------------------------

def run_fit(config: ExperimentConfig) -> dict:
    """Fit one model on the first trial's training rows and summarize it."""
    method = config.fit.get("method", "l2mkl")
    source = _Source(config)
    seed = np.random.SeedSequence(0 if config.seed is None else config.seed)
    train, _test, _audit = source.trial_data(seed.spawn(1)[0])
    family = build_family(config.kernels, train)
    combo = {"lambda0": float(config.fit.get("lambda0", 0.1))}
    if method == "l1mkl":
        combo["budget"] = float(config.fit.get("budget", 1.0))
    else:
        combo["radius"] = float(config.fit.get("radius", 1.0)) if method == "l2mkl" else 0.0
    out = {
        "method": method,
        "lambda0": combo["lambda0"],
        "rows": train.m,
        "kernels": family.p,
        "orthogonality": diagnostics.orthogonality_check(family),
    }
    out.update(combo)
    mu, _alpha, info = _fit_for_combo(method, family, train.y, combo, config, kkt=True)
    out.update(info)
    out["mu"] = mu.tolist()
    return out


def run_diagnose(config: dict) -> dict:
    """Run the verification suites named in the config; see README."""
    _check("diagnose", _RULES["diagnose"], config)
    if not config:
        raise ConfigError("diagnose config selects no sections")
    for name, sec in config.items():
        _check(name, _RULES[name], sec, f"{name}.")
    out = {}

    if "identity" in config:
        sec = config["identity"]
        cases = sec.get("cases", 1000)
        dim = sec.get("dim", 8)
        radius = float(sec.get("radius", 1.0))
        rng = np.random.default_rng(sec.get("seed", 0))
        worst = 0.0
        for _ in range(cases):
            v = rng.uniform(0.0, 10.0, size=dim)
            w = rng.uniform(0.0, 10.0, size=dim)
            v[rng.integers(dim)] += 0.1  # keep both norms nonzero
            w[rng.integers(dim)] += 0.1
            worst = max(worst, diagnostics.weight_shift_identity_gap(v, w, radius))
        out["identity"] = {"cases": cases, "dim": dim, "radius": radius, "max_gap": worst}

    if "stability" in config:
        sec = config["stability"]
        m = sec.get("m", 50)
        d = sec.get("d", m)
        trials = sec.get("trials", 100)
        lambda0 = float(sec.get("lambda0", 0.5))
        seed = sec.get("seed", 0)
        rng = np.random.default_rng(seed)
        w_true = rng.standard_normal(d) / np.sqrt(d)

        def draw_point(r):
            x = r.standard_normal(d)
            return x, float(x @ w_true + 0.1 * r.standard_normal())

        X = np.vstack([draw_point(rng)[0] for _ in range(m)])
        y = X @ w_true + 0.1 * rng.standard_normal(m)
        specs = [KernelSpec.linear()]
        weights = MuWeights(np.ones(1), np.ones(1), 0.0)
        rep = diagnostics.stability_trial(
            specs, X, y, lambda0, weights, trials, seed + 1, draw_point,
        )
        out["stability"] = {
            "m": m, "d": d, "trials": rep.trials,
            "kappa": rep.kappa, "max_error": rep.max_error,
            "lambda_min": rep.lambda_min,
            "stability_bound": rep.stability_bound,
            "classical_bound": rep.classical_bound,
            "max_empirical_delta": rep.max_empirical_delta,
            "violations": rep.violations,
        }

    if "bounds" in config:
        out["bounds"] = asdict(diagnostics.bound_values(**config["bounds"]))

    return out
