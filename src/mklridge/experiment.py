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
import math
import numbers
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from . import diagnostics
from .data import (Dataset, apply_vocabulary, build_ngram_features,
                   load_delimited, load_text_corpus, make_folds, split_indices)
from .errors import ConfigError, DataError, NumericalError, ShapeError
from .kernels import KernelFamily, KernelSpec
from .solver import fit_l1, fit_l2, predict_weighted

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

# Keys each dataset kind and kernel recipe reads, besides "kind".
_SECTION_KEYS = {
    "dataset": {
        "delimited": {"path", "label_column", "delimiter", "task", "label_map", "header",
                      "split_fraction"},
        "text": {"path", "task", "split_fraction"},
        "synthetic_sparse": {"n_features", "n_informative", "coef", "noise_sigma",
                             "train_size", "test_size"},
    },
    "kernels": {
        "explicit": {"specs"},
        "rank1_all": {"include_offset"},
        "ngram_rank1": {"n", "top", "include_offset"},
    },
}

# Integer-valued keys of the experiment config, its dataset and kernels
# sections, and the diagnose sections.
_INT_KEYS = {"cv_folds", "trials", "seed", "l1_max_iters", "label_column", "n_features",
             "n_informative", "train_size", "test_size", "n", "top", "cases", "dim",
             "m", "d", "p"}


def _require_ints(section: dict, where: str = ""):
    """Raise ConfigError unless every integer-valued key present holds an
    int; a bool or a float such as 2.5 is rejected, not truncated."""
    for key in sorted(_INT_KEYS & set(section)):
        value = section[key]
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigError(f"{where}{key} must be an integer, got {value!r}")


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
        for section, recipes in _SECTION_KEYS.items():
            sec = getattr(self, section)
            if not isinstance(sec, dict) or "kind" not in sec:
                raise ConfigError(f"{section} section must be a dict with a 'kind' key")
            kind = sec["kind"]
            if not isinstance(kind, str) or kind not in recipes:
                raise ConfigError(f"unknown {section} kind {kind!r}; expected {sorted(recipes)}")
            unknown = set(sec) - recipes[kind] - {"kind"}
            if unknown:
                raise ConfigError(f"unknown {section} keys for kind {kind!r}: {sorted(unknown)}")
            _require_ints(sec, f"{section}.")
        if (self.dataset["kind"] == "text") != (self.kernels["kind"] == "ngram_rank1"):
            raise ConfigError("text datasets need the ngram_rank1 kernel recipe, "
                              "and ngram_rank1 needs a text dataset")
        _require_ints({k: v for k, v in self.to_dict().items()
                       if not (k == "seed" and v is None)})
        for name in ("methods", "metrics", "lambda0_grid", "radius_grid", "budget_grid"):
            if not isinstance(getattr(self, name), (list, tuple)):
                raise ConfigError(f"{name} must be a list")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r}; expected a subset of {METHODS}")
        if not self.methods:
            raise ConfigError("at least one method must be selected")
        for name in self.metrics:
            if name not in METRICS:
                raise ConfigError(f"unknown metric {name!r}; expected a subset of {METRICS}")
        if not self.metrics:
            raise ConfigError("at least one metric must be selected")
        task = self.dataset.get("task", "regression")  # synthetic_sparse has no task key
        if "misclassification" in self.metrics and task != "classification_pm1":
            raise ConfigError("misclassification needs a dataset with task classification_pm1")
        if not self.lambda0_grid or not all(0 < v < math.inf for v in self.lambda0_grid):
            raise ConfigError("lambda0_grid must be nonempty with positive finite entries")
        if "l2mkl" in self.methods and not self.radius_grid:
            raise ConfigError("radius_grid must be nonempty when l2mkl is selected")
        if not all(0 <= v < math.inf for v in self.radius_grid):
            raise ConfigError("radius_grid entries must be finite and nonnegative")
        if "l1mkl" in self.methods:
            if not self.budget_grid or not all(0 < v < math.inf for v in self.budget_grid):
                raise ConfigError("budget_grid must be nonempty with positive finite entries")
        if self.cv_folds < 2:
            raise ConfigError("cv_folds must be at least 2")
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if self.trials > 1 and self.seed is None:
            raise ConfigError("a seed is required when trials > 1")
        if not 0 < self.l1_tol < math.inf:
            raise ConfigError("l1_tol must be positive and finite")
        if self.l1_max_iters < 1:
            raise ConfigError("l1_max_iters must be at least 1")
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "metrics", tuple(self.metrics))
        object.__setattr__(self, "lambda0_grid", tuple(float(v) for v in self.lambda0_grid))
        object.__setattr__(self, "radius_grid", tuple(float(v) for v in self.radius_grid))
        object.__setattr__(self, "budget_grid", tuple(float(v) for v in self.budget_grid))

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        allowed = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - allowed
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "dataset" not in d or "kernels" not in d:
            raise ConfigError("config requires 'dataset' and 'kernels' sections")
        return cls(**d)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        raw = read_json(path, ConfigError, "config")
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        return cls.from_dict(raw)

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
    d = int(dataset_cfg.get("n_features", 200))
    ni = int(dataset_cfg.get("n_informative", 10))
    coef = float(dataset_cfg.get("coef", 1.0))
    sigma = float(dataset_cfg.get("noise_sigma", 0.5))
    n_train = int(dataset_cfg.get("train_size", 200))
    n_test = int(dataset_cfg.get("test_size", 200))
    if not 1 <= ni <= d:
        raise ConfigError("n_informative must lie in [1, n_features]")
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
        if self.kind == "delimited":
            self.base = load_delimited(
                ds["path"],
                label_column=int(ds.get("label_column", -1)),
                delimiter=ds.get("delimiter", ","),
                task=ds.get("task", "regression"),
                label_map=ds.get("label_map"),
                header=bool(ds.get("header", False)),
            )
            self.fraction = float(ds.get("split_fraction", 0.5))
        elif self.kind == "text":
            self.docs, self.labels = load_text_corpus(ds["path"])
            self.task = ds.get("task", "regression")
            self.fraction = float(ds.get("split_fraction", 0.5))

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
                n=int(kcfg.get("n", 2)),
                top=int(kcfg.get("top", 100)),
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
        specs = [KernelSpec.from_dict(s) for s in kernels_cfg["specs"]]
        if not specs:
            raise ConfigError("explicit kernel recipe needs at least one spec")
        return KernelFamily.from_specs(specs, train.X)
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


def _fit_for_combo(method, family, y, combo: dict, cfg: ExperimentConfig):
    """Fit one method at one hyperparameter combo.

    Returns (mu_full, alpha, info, kkt_args); ``kkt_args`` is the
    (model, family) pair whose KKT residuals the report records, or None
    for ``l1mkl``, whose result is not a fixed-point model.
    """
    lambda0 = combo["lambda0"]
    if method == "l1mkl":
        result = fit_l1(
            family, y, lambda0, combo["budget"],
            tol=cfg.l1_tol, max_iters=cfg.l1_max_iters,
        )
        info = {
            "iterations": result.iterations,
            "converged": result.converged,
            "certificate_gap": result.certificate_gap,
            "objective": result.objective_value,
        }
        return result.mu, result.alpha, info, None
    fit_family = family.select_kernels([combo["kernel"]]) if method == "best_single" else family
    # uniform carries no radius: it is the L2 fit pinned at mu = mu0.
    model, report = fit_l2(fit_family, y, lambda0, combo.get("radius", 0.0))
    info = {
        "iterations": model.iterations,
        "converged": model.converged,
        "final_step": model.final_step,
        "objective": report.objective_value,
    }
    mu_full = model.weights.mu
    if method == "best_single":
        mu_full = np.zeros(family.p)
        mu_full[combo["kernel"]] = model.weights.mu[0]
    return mu_full, model.alpha, info, (model, fit_family)


def _kkt_entry(kkt_args, y) -> dict:
    model, family = kkt_args
    r_alpha, r_mu = diagnostics.kkt_residuals(model, family, y)
    return {"alpha_residual": r_alpha, "mu_residual": r_mu}


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


def _run_method_trial(method, family, folds: list, train: Dataset, test: Dataset,
                      cfg: ExperimentConfig):
    """CV-select hyperparameters on the trial's folds, given as (train
    indices, validation indices, train-fold family) triples, refit on the
    full trial training set, and score on the held-out test rows."""
    y = train.y
    select_metric = _METRIC_FNS[cfg.metrics[0]]
    best_combo = None
    best_score = None
    cv_infos = []
    for combo in _combo_grid(method, cfg, family.p):
        scores = []
        for tr_idx, va_idx, sub_family in folds:
            mu_full, alpha, info, _ = _fit_for_combo(method, sub_family, y[tr_idx], combo, cfg)
            cv_infos.append(info)
            preds = _predict_rows(family, mu_full, alpha, tr_idx, va_idx)
            scores.append(select_metric(preds, y[va_idx]))
        score = float(np.mean(scores))
        if best_score is None or score < best_score:
            best_score = score
            best_combo = combo

    mu_full, alpha, info, kkt_args = _fit_for_combo(method, family, y, best_combo, cfg)
    preds = predict_weighted(family.specs, mu_full, alpha, train.X, test.X)
    metrics = {name: _METRIC_FNS[name](preds, test.y) for name in cfg.metrics}

    iterations = [i["iterations"] for i in cv_infos]
    record = {
        "chosen": best_combo,
        "cv_score": best_score,
        "cv_fits": {
            "fits": len(cv_infos),
            "unconverged": sum(not i["converged"] for i in cv_infos),
            "iterations": [min(iterations), float(np.median(iterations)), max(iterations)],
        },
        "metrics": metrics,
    }
    record.update(info)
    if kkt_args is not None:
        record["kkt"] = _kkt_entry(kkt_args, y)
    return record


def _run_trial(t: int, source: _Source, cfg: ExperimentConfig,
               trial_seed: np.random.SeedSequence):
    train, test, audit = source.trial_data(trial_seed)
    family = build_family(cfg.kernels, train)
    k = min(cfg.cv_folds, train.m)
    if k < 2:
        raise ConfigError("training set too small for cross-validation")
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

def _table_rows(report: dict):
    rows = []
    for method in report["methods"]:
        entry = report["methods"][method]
        for name in entry["mean"]:
            rows.append({
                "method": method,
                "metric": name,
                "mean": entry["mean"][name],
                "std": entry["std"][name],
            })
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
    os.makedirs(out_dir, exist_ok=True)
    rows = _table_rows(report)
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
    """Fit one model on the full configured dataset and summarize it."""
    fit_cfg = dict(config.fit)
    method = fit_cfg.get("method", "l2mkl")
    second = {"l2mkl": ["radius"], "l1mkl": ["budget"], "uniform": []}
    if method not in second:
        raise ConfigError("fit.method must be l2mkl, l1mkl, or uniform")
    unknown = set(fit_cfg) - {"method", "lambda0", *second[method]}
    if unknown:
        raise ConfigError(f"fit keys {sorted(unknown)} do not apply to method {method!r}")
    source = _Source(config)
    seed = np.random.SeedSequence(0 if config.seed is None else config.seed)
    train, _test, _audit = source.trial_data(seed.spawn(1)[0])
    family = build_family(config.kernels, train)
    combo = {"lambda0": float(fit_cfg.get("lambda0", 0.1))}
    if method == "l1mkl":
        combo["budget"] = float(fit_cfg.get("budget", 1.0))
    else:
        combo["radius"] = float(fit_cfg.get("radius", 1.0)) if method == "l2mkl" else 0.0
    out = {
        "method": method,
        "lambda0": combo["lambda0"],
        "rows": train.m,
        "kernels": family.p,
        "orthogonality": diagnostics.orthogonality_check(family),
    }
    out.update(combo)
    mu, _alpha, info, kkt_args = _fit_for_combo(method, family, train.y, combo, config)
    out.update(info)
    if kkt_args is not None:
        out["kkt"] = _kkt_entry(kkt_args, train.y)
    out["mu"] = mu.tolist()
    return out


# Keys each diagnose section reads; every ``bounds`` key is required.
_DIAGNOSE_KEYS = {
    "identity": {"cases", "dim", "radius", "seed"},
    "stability": {"m", "d", "trials", "lambda0", "seed"},
    "bounds": {"kappa", "max_error", "radius", "lambda0", "p", "m", "delta"},
}


def run_diagnose(config: dict) -> dict:
    """Run the verification suites named in the config; see README."""
    if not isinstance(config, dict):
        raise ConfigError("diagnose config must be a JSON object")
    unknown = set(config) - {*_DIAGNOSE_KEYS, "fit_check"}
    if unknown:
        raise ConfigError(f"unknown diagnose sections: {sorted(unknown)}")
    if not config:
        raise ConfigError("diagnose config selects no sections")
    for name, keys in _DIAGNOSE_KEYS.items():
        sec = config.get(name, {})
        if not isinstance(sec, dict):
            raise ConfigError(f"diagnose section {name!r} must be a JSON object")
        unknown = set(sec) - keys
        if unknown:
            raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
        _require_ints(sec, f"{name}.")
    missing = _DIAGNOSE_KEYS["bounds"] - set(config.get("bounds", _DIAGNOSE_KEYS["bounds"]))
    if missing:
        raise ConfigError(f"missing bounds keys: {sorted(missing)}")
    out = {}

    if "identity" in config:
        sec = config["identity"]
        cases = sec.get("cases", 1000)
        dim = sec.get("dim", 8)
        if cases < 1 or dim < 1:
            raise ConfigError("identity cases and dim must be at least 1")
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
        if m < 1 or d < 1:
            raise ConfigError("stability m and d must be at least 1")
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
        from .solver import MuWeights
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
        sec = config["bounds"]
        vals = diagnostics.bound_values(
            kappa=float(sec["kappa"]), max_error=float(sec["max_error"]),
            radius=float(sec["radius"]), lambda0=float(sec["lambda0"]),
            p=sec["p"], m=sec["m"], delta=float(sec["delta"]),
        )
        out["bounds"] = {
            "c0": vals.c0, "c1": vals.c1, "beta": vals.beta,
            "generalization_gap": vals.generalization_gap,
        }

    if "fit_check" in config:
        sec = config["fit_check"]
        cfg = ExperimentConfig.from_dict(sec)
        out["fit_check"] = run_fit(cfg)

    return out
