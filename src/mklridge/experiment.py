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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import diagnostics, solver
from .data import (TASKS, Dataset, apply_vocabulary, build_ngram_features,
                   load_delimited, load_text_corpus, make_folds, split_indices)
from .errors import ConfigError, DataError, NumericalError, ShapeError
from .kernels import KernelFamily, KernelSpec, _is_number
from .solver import MuWeights, fit_l1, fit_l2, predict_weighted

METHODS = ("l2mkl", "l1mkl", "uniform", "best_single")
METRICS = ("rmse", "misclassification")

DEFAULT_LAMBDA0_GRID = (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)
DEFAULT_RADIUS_GRID = (0.0, 0.01, 0.1, 1.0, 10.0, 100.0)
DEFAULT_BUDGET_GRID = (0.01, 0.1, 1.0, 10.0, 100.0)


def metric_rmse(pred, y) -> float:
    """Root mean squared error."""
    pred = np.asarray(pred, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if pred.shape != y.shape:
        raise ShapeError("prediction and target lengths differ")
    if pred.size == 0:
        raise ConfigError("cannot score an empty prediction vector")
    return float(np.sqrt(np.mean((pred - y) ** 2)))


def metric_misclassification(pred, y) -> float:
    """Fraction of sign disagreements against +/-1 targets; sign(0) is +1."""
    pred = np.asarray(pred, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if pred.shape != y.shape:
        raise ShapeError("prediction and target lengths differ")
    if pred.size == 0:
        raise ConfigError("cannot score an empty prediction vector")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise DataError("misclassification requires exact +/-1 targets")
    signs = np.where(pred >= 0.0, 1.0, -1.0)
    return float(np.mean(signs != y))


_METRIC_FNS = {"rmse": metric_rmse, "misclassification": metric_misclassification}


class _Rule(NamedTuple):
    """What one config value may be: ``text`` says it in errors."""

    text: str
    test: Callable
    required: bool = False


def _int(low) -> _Rule:
    return _Rule(f"an integer of at least {low}",
                 lambda v: _is_number(v, integral=True) and v >= low)


def _one_of(choices) -> _Rule:
    return _Rule(f"one of {list(choices)}", lambda v: isinstance(v, str) and v in choices)


def _optional(rule: _Rule) -> _Rule:
    return _Rule(f"{rule.text} or null", lambda v: v is None or rule.test(v))


def _required(rule: _Rule) -> _Rule:
    return rule._replace(required=True)


def _list_of(item: _Rule, nonempty=False, distinct=False) -> _Rule:
    text = f"a list of {'one or more ' * nonempty}{'distinct ' * distinct}values, each {item.text}"
    return _Rule(text, lambda v: isinstance(v, (list, tuple)) and len(v) >= nonempty
                 and all(map(item.test, v)) and not (distinct and len(set(v)) < len(v)))


_POSITIVE = _Rule("a positive finite number", lambda v: _is_number(v) and v > 0)
_NONNEGATIVE = _Rule("a nonnegative finite number", lambda v: _is_number(v) and v >= 0)
_FRACTION = _Rule("a number strictly between 0 and 1", lambda v: _is_number(v) and 0 < v < 1)
_BOOL = _Rule("true or false", lambda v: isinstance(v, bool))
_TEXT = _Rule("a nonempty string", lambda v: isinstance(v, str) and v != "")
_OBJECT = _Rule("a JSON object", lambda v: isinstance(v, dict))
_CHAR = _Rule("a one-character string", lambda v: isinstance(v, str) and len(v) == 1)
_LABEL_MAP = _Rule("null or a JSON object of finite numbers", lambda v: v is None or (
    isinstance(v, dict) and all(map(_is_number, v.values()))))

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
        "delimited": {"path": _required(_TEXT),
                      "label_column": _Rule("an integer", partial(_is_number, integral=True)),
                      "delimiter": _CHAR, "task": _one_of(TASKS), "label_map": _LABEL_MAP,
                      "header": _BOOL, "split_fraction": _FRACTION},
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
    "kernel spec": ("kind", None, {
        "gaussian": {"bandwidth": _required(_POSITIVE)},
        "linear": {},
        "polynomial": {"degree": _required(_int(1)), "offset": _NONNEGATIVE},
        "rank1_feature": {"feature_index": _required(_int(0))},
        "constant_offset": {},
    }),
    "fit": ("method", "l2mkl", {
        "l2mkl": {"lambda0": _POSITIVE, "radius": _NONNEGATIVE},
        "l1mkl": {"lambda0": _POSITIVE, "budget": _POSITIVE},
        "uniform": {"lambda0": _POSITIVE},
    }),
    "diagnose": {"identity": _OBJECT, "stability": _OBJECT, "bounds": _OBJECT},
    "identity": {"cases": _int(1), "dim": _int(1), "radius": _NONNEGATIVE, "seed": _int(0)},
    "stability": {"m": _int(1), "d": _int(1), "trials": _int(1), "lambda0": _POSITIVE,
                  "seed": _int(0)},
    "bounds": {"kappa": _required(_POSITIVE), "max_error": _required(_POSITIVE),
               "radius": _required(_NONNEGATIVE), "lambda0": _required(_POSITIVE),
               "p": _required(_int(1)), "m": _required(_int(1)),
               "delta": _required(_FRACTION)},
}


def _check(name: str, section, path: str = ""):
    """Raise ConfigError unless ``section`` is a JSON object whose keys and
    values obey ``_RULES[name]``; ``path`` prefixes key names in errors.
    Returns the section's selector value, or None if it has no selector."""
    if not isinstance(section, dict):
        raise ConfigError(f"{path[:-1] or name} must be a JSON object, got {section!r}")
    rules, kind, selector, where = _RULES[name], None, (), ""
    if isinstance(rules, tuple):
        key, default, by_kind = rules
        kind = section.get(key, default)
        if not (isinstance(kind, str) and kind in by_kind):
            raise ConfigError(f"unknown {name} {key} {kind!r}; expected one of {list(by_kind)}")
        rules, selector, where = by_kind[kind], (key,), f" for {key} {kind!r}"
    unknown = set(section).difference(rules, selector)
    if unknown:
        raise ConfigError(f"unknown {name} keys{where}: {sorted(unknown)}")
    missing = [key for key, rule in rules.items() if rule.required and key not in section]
    if missing:
        raise ConfigError(f"missing {name} keys{where}: {missing}")
    for key, rule in rules.items():
        if key in section and not rule.test(section[key]):
            raise ConfigError(f"{path}{key} must be {rule.text}, got {section[key]!r}")
    return kind


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
        _check("config", self.to_dict())
        _check("dataset", self.dataset, "dataset.")
        if _check("kernels", self.kernels, "kernels.") == "explicit":
            for i, spec in enumerate(self.kernels["specs"]):
                _check("kernel spec", spec, f"kernels.specs[{i}].")
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
        _check("config", d)  # cls(**d) cannot take an unknown or a missing key
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


class _Source:
    """Loads the raw data once and materializes per-trial train/test splits."""

    def __init__(self, config: ExperimentConfig):
        self.cfg = config
        ds = config.dataset
        self.kind = ds["kind"]
        self.fraction = ds.get("split_fraction", 0.5)
        if self.kind == "delimited":
            self.base = load_delimited(
                ds["path"],
                label_column=ds.get("label_column", -1),
                delimiter=ds.get("delimiter", ","),
                task=ds.get("task", "regression"),
                label_map=ds.get("label_map"),
                header=ds.get("header", False),
            )
        elif self.kind == "text":
            self.docs, self.labels = load_text_corpus(ds["path"])
            self.task = ds.get("task", "regression")

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
            kcfg = self.cfg.kernels
            counts_tr, vocab = build_ngram_features(
                [self.docs[i] for i in tr],
                n=kcfg.get("n", 2),
                top=kcfg.get("top", 100),
            )
            counts_te = apply_vocabulary([self.docs[i] for i in te], vocab)
            train = Dataset(X=counts_tr, y=self.labels[tr], task=self.task)
            test = Dataset(X=counts_te, y=self.labels[te], task=self.task)
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

def _predict_rows(family: KernelFamily, mu, alpha, train_idx, query_idx) -> np.ndarray:
    """Within-sample prediction using the family's precomputed kernels."""
    if family.features is not None:
        F = family.features
        return F[query_idx] @ (mu * (F[train_idx].T @ alpha))
    out = np.zeros(len(query_idx))
    for k in range(family.p):
        if mu[k] == 0.0:
            continue
        out += mu[k] * (family.grams[k].entries[np.ix_(query_idx, train_idx)] @ alpha)
    return out


def _fit_for_combo(method, family, y, combo: dict, cfg: ExperimentConfig, start=None,
                   kkt=False):
    """Fit one method at one hyperparameter combo.

    ``start`` is the combo's lasso-path stop for ``l1mkl`` on a rank-one
    family (see ``fit_l1``), or None. Returns (mu_full, alpha, info). With
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
    model, report = fit_l2(fit_family, y, lambda0, combo.get("radius", 0.0))
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
    train-fold family) triple and ``family`` the trial's family, whose
    kernels the predictions slice.

    Two methods take a shortcut on a rank-one family. Every best_single
    ridge fit has a closed form (solver._single_kernel_predictions), so
    one pass scores the whole grid. One lasso-path walk gives the l1mkl
    start of every combo (solver._l1_path_stops); fit_l1 still certifies
    each.
    """
    tr_idx, va_idx, sub = fold
    y_tr = y[tr_idx]
    if method == "best_single" and family.features is not None:
        preds = solver._single_kernel_predictions(sub.features, y_tr, family.features[va_idx],
                                                  sorted(cfg.lambda0_grid))
        # What fit_l2 reports at radius 0: the anchor solve is the fit.
        info = {"iterations": 1, "converged": True}
        # Combos run lambda0-major, then kernel, as the rows of this reshape.
        return [(row, info) for row in preds.transpose(0, 2, 1).reshape(len(combos), -1)]
    starts = [None] * len(combos)
    if method == "l1mkl" and family.features is not None:
        starts = solver._l1_path_stops(sub.features, y_tr,
                                       [(c["lambda0"] * sub.m, c["budget"]) for c in combos])
    grid = []
    for combo, start in zip(combos, starts):
        mu_full, alpha, info = _fit_for_combo(method, sub, y_tr, combo, cfg, start)
        grid.append((_predict_rows(family, mu_full, alpha, tr_idx, va_idx), info))
    return grid


def _run_method_trial(method, family, folds: list, train: Dataset, test: Dataset,
                      cfg: ExperimentConfig):
    """CV-select hyperparameters on the trial's folds, given as (train
    indices, validation indices, train-fold family) triples, refit on the
    full trial training set, and score on the held-out test rows."""
    y = train.y
    select_metric = _METRIC_FNS[cfg.metrics[0]]
    combos = _combo_grid(method, cfg, family.p)
    fold_scores, cv_infos = [], []
    for fold in folds:
        grid = _fold_grid(method, family, fold, y, combos, cfg)
        fold_scores.append([select_metric(preds, y[fold[1]]) for preds, _ in grid])
        cv_infos += [info for _, info in grid]
    scores = [float(np.mean(s)) for s in zip(*fold_scores)]
    best = min(range(len(combos)), key=scores.__getitem__)  # the first strict minimum

    mu_full, alpha, info = _fit_for_combo(method, family, y, combos[best], cfg, kkt=True)
    preds = predict_weighted(family.specs, mu_full, alpha, train.X, test.X)
    metrics = {name: _METRIC_FNS[name](preds, test.y) for name in cfg.metrics}

    iterations = [i["iterations"] for i in cv_infos]
    record = {
        "chosen": combos[best],
        "cv_score": scores[best],
        "cv_fits": {
            "fits": len(cv_infos),
            "unconverged": sum(not i["converged"] for i in cv_infos),
            "iterations": [min(iterations), float(np.median(iterations)), max(iterations)],
        },
        "metrics": metrics,
    }
    record.update(info)
    return record


def _run_trial(t: int, source: _Source, cfg: ExperimentConfig,
               trial_seed: np.random.SeedSequence):
    train, test, audit = source.trial_data(trial_seed)
    family = build_family(cfg.kernels, train)
    k = cfg.cv_folds
    if train.m < k:
        raise ConfigError(f"cv_folds is {k} but the training set has only {train.m} rows")
    # Every method of the trial selects on these folds.
    plan = make_folds(train.m, k, int(trial_seed.generate_state(2)[1]))
    folds = [(tr, va, family.subset(tr)) for tr, va in map(plan.fold_indices, range(k))]
    audit = dict(audit)
    audit["trial"] = t
    ortho = diagnostics.orthogonality_check(family)
    audit["orthogonality"] = ortho
    per_method = {}
    for method in cfg.methods:
        try:
            record = _run_method_trial(method, family, folds, train, test, cfg)
        except NumericalError as exc:
            record = {"failed": str(exc)}
        record["trial"] = t
        per_method[method] = record
    return per_method, audit


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> dict:
    """Execute the full protocol described by ``config``.

    Per trial: resample or split, build the kernel family on training
    rows only, select hyperparameters for each method by k-fold CV on the
    training set (ties resolved toward the smallest lambda0, then the
    smallest second parameter), refit on the full training set, and score
    on held-out rows. Failed fits are recorded, not fatal.
    """
    if not isinstance(config, ExperimentConfig):
        config = ExperimentConfig.from_dict(config)
    source = _Source(config)
    master = np.random.SeedSequence(0 if config.seed is None else config.seed)
    trial_seeds = master.spawn(config.trials)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(
                lambda args: _run_trial(*args),
                [(t, source, config, trial_seeds[t]) for t in range(config.trials)],
            ))
    else:
        results = [
            _run_trial(t, source, config, trial_seeds[t])
            for t in range(config.trials)
        ]

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
    method = _check("fit", config.fit, "fit.")
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
    _check("diagnose", config)
    if not config:
        raise ConfigError("diagnose config selects no sections")
    for name, sec in config.items():
        _check(name, sec, f"{name}.")
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
        vals = diagnostics.bound_values(**config["bounds"])
        out["bounds"] = {
            "c0": vals.c0, "c1": vals.c1, "beta": vals.beta,
            "generalization_gap": vals.generalization_gap,
        }

    return out
