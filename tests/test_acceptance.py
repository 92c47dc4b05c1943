"""Acceptance suite.

Each test covers one release criterion at its stated tolerance and prints
one pass/fail line (visible with ``pytest -s``). Criterion 8 needs
user-supplied benchmark files and skips without them; its comparison is
advisory and warns instead of failing.
"""

import os
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import mklridge as mk
from mklridge import KernelSpec
from mklridge.experiment import (ExperimentConfig, run_experiment,
                                 write_json_atomic)

from helpers import (ball_grid_points, dual_objective_grid_min,
                     random_psd_instance)

N_INSTANCES = 100


def _report(num, ok, message):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {message}", flush=True)
    assert ok, message


@pytest.fixture(scope="module")
def fitted_instances():
    """The shared seeded instance set: fits, oracle runs, and timings."""
    t_fit = 0.0
    rows = []
    for seed in range(N_INSTANCES):
        fam, y, lambda0, radius = random_psd_instance(seed)
        epsilon = 1e-8 * (1.0 + float(np.linalg.norm(y)))
        t0 = time.perf_counter()
        model, report = mk.fit_l2(fam, y, lambda0, radius, epsilon=epsilon)
        r_alpha, r_mu = mk.kkt_residuals(model, fam, y)
        t_fit += time.perf_counter() - t0
        rows.append({
            "seed": seed, "family": fam, "y": y, "lambda0": lambda0,
            "radius": radius, "epsilon": epsilon, "model": model,
            "objective": report.objective_value, "r_alpha": r_alpha, "r_mu": r_mu,
        })
    return rows, t_fit


def test_criterion_1_fixed_point(fitted_instances):
    rows, t_fit = fitted_instances
    t0 = time.perf_counter()
    worst_resid = 0.0
    worst_act = 0.0
    for row in rows:
        model = row["model"]
        assert model.converged, f"seed {row['seed']} did not converge"
        tol = 10.0 * row["epsilon"]
        worst_resid = max(worst_resid, row["r_alpha"] / tol, row["r_mu"] / tol)
        norm_v = float(np.linalg.norm(model.quad))
        if norm_v > 0:
            shift = float(np.linalg.norm(model.weights.mu - model.weights.mu0))
            worst_act = max(worst_act, abs(shift - row["radius"]) / row["radius"])
    elapsed = t_fit + (time.perf_counter() - t0)
    ok = worst_resid <= 1.0 and worst_act <= 1e-8 and elapsed < 10.0
    _report(1, ok,
            f"{len(rows)} instances, max residual {worst_resid:.3g} of budget, "
            f"max constraint-activity error {worst_act:.3g} (<=1e-8), {elapsed:.2f}s (<10s)")


def test_criterion_2_oracle_equivalence(fitted_instances):
    rows, _ = fitted_instances
    t0 = time.perf_counter()
    worst = 0.0
    for row in rows:
        oracle = mk.oracle_fit(row["family"], row["y"], row["lambda0"], row["radius"])
        diff = abs(row["objective"] - oracle.objective_value)
        worst = max(worst, diff / max(1.0, abs(oracle.objective_value)))
    assert worst <= 1e-6

    worst_grid = 0.0
    for seed in range(20):
        rng = np.random.default_rng(10_000 + seed)
        m = int(rng.integers(5, 13))
        radius = float(rng.uniform(0.2, 0.8))
        lambda0 = float(rng.uniform(0.05, 0.2))
        mats = []
        for _ in range(2):
            A = rng.standard_normal((m, int(rng.integers(1, m + 1))))
            K = A @ A.T
            mats.append(K / np.linalg.eigvalsh(K)[-1])
        scale = np.linalg.eigvalsh(sum((1.0 + radius) * K for K in mats))[-1]
        mats = [K / scale for K in mats]
        fam = mk.KernelFamily.from_grams(mats)
        y = rng.standard_normal(m)
        oracle = mk.oracle_fit(fam, y, lambda0, radius)
        resolution = 0.005 * radius
        pts = ball_grid_points(np.ones(2), radius, resolution)
        grid_min = dual_objective_grid_min(mats, y, lambda0 * m, pts)
        diff = grid_min - oracle.objective_value
        # The grid can only sit above the optimum, by at most a
        # first-order term of its spacing.
        assert diff >= -1e-8 * max(1.0, abs(grid_min))
        v_star = mk.quad_forms(oracle.alpha, fam)
        allowance = 4.0 * max(float(np.linalg.norm(v_star)), 1.0) * resolution
        worst_grid = max(worst_grid, diff / allowance)
    elapsed = time.perf_counter() - t0
    ok = worst_grid <= 1.0 and elapsed < 60.0
    _report(2, ok,
            f"objective agreement {worst:.3g} (<=1e-6), grid gap at "
            f"{worst_grid:.3g} of first-order allowance, {elapsed:.2f}s (<60s)")


def test_criterion_3_reductions():
    worst_alpha = 0.0
    for seed in range(20):
        fam, y, lambda0, _ = random_psd_instance(500 + seed)
        model, _ = mk.fit_l2(fam, y, lambda0, 0.0)
        direct = mk.krr_solve(mk.combine(fam, np.ones(fam.p)), y, lambda0 * fam.m)
        worst_alpha = max(worst_alpha, float(np.linalg.norm(model.alpha - direct)))
    assert worst_alpha <= 1e-10

    exact = True
    for seed in range(20):
        fam, y, lambda0, radius = random_psd_instance(600 + seed, p_range=(1, 1))
        model, _ = mk.fit_l2(fam, y, lambda0, radius)
        exact = exact and model.weights.mu[0] == 1.0 + radius
    _report(3, worst_alpha <= 1e-10 and exact,
            f"radius-0 dual gap {worst_alpha:.3g} (<=1e-10), "
            f"single-kernel weight exact: {exact}")


def test_criterion_4_weight_shift_identity():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        p = int(rng.integers(1, 21))
        v = rng.uniform(0.0, 10.0, size=p)
        w = rng.uniform(0.0, 10.0, size=p)
        v[int(rng.integers(p))] += 0.1
        w[int(rng.integers(p))] += 0.1
        radius = float(rng.uniform(0.0, 10.0))
        worst = max(worst, mk.weight_shift_identity_gap(v, w, radius))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    _report(4, ok, f"1000 triples, max discrepancy {worst:.3g} (<=1e-10), "
                   f"{elapsed:.2f}s (<1s)")


def test_criterion_5_stability():
    t0 = time.perf_counter()
    total = violations = 0
    ordering_ok = True
    for m, seed in ((10, 1), (50, 2)):
        d = m  # linear kernel with d = m keeps the swapped Gram full rank
        rng = np.random.default_rng(seed)
        w_true = rng.standard_normal(d) / np.sqrt(d)

        def draw(r, d=d, w_true=w_true):
            x = r.standard_normal(d)
            return x, float(x @ w_true + 0.1 * r.standard_normal())

        X = rng.standard_normal((m, d))
        y = X @ w_true + 0.1 * rng.standard_normal(m)
        weights = mk.MuWeights(np.ones(1), np.ones(1), 0.0)
        rep = mk.stability_trial([KernelSpec.linear()], X, y, 0.5, weights,
                                 250, 100 + seed, draw)
        total += rep.trials
        violations += rep.violations
        ordering_ok &= all(b <= c + 1e-15 for b, c in zip(rep.bounds, rep.classical_bounds))

        # Rank-one family: rank-deficient swapped Gram, lambda_min floored at 0.
        p = min(8, d)
        Xr = np.abs(rng.standard_normal((m, p)))
        wr = rng.standard_normal(p) / np.sqrt(p)
        yr = Xr @ wr + 0.1 * rng.standard_normal(m)

        def draw_r(r, p=p, wr=wr):
            x = np.abs(r.standard_normal(p))
            return x, float(x @ wr + 0.1 * r.standard_normal())

        specs = [KernelSpec.rank1(i) for i in range(p)] + [KernelSpec.constant()]
        wvec = mk.MuWeights(np.ones(p + 1), np.ones(p + 1), 0.0)
        rep2 = mk.stability_trial(specs, Xr, yr, 0.5, wvec, 250, 200 + seed, draw_r)
        total += rep2.trials
        violations += rep2.violations
        ordering_ok &= all(b <= c + 1e-15 for b, c in zip(rep2.bounds, rep2.classical_bounds))
        assert all(lm == 0.0 for lm in rep2.lambda_mins)
    elapsed = time.perf_counter() - t0
    ok = total == 1000 and violations == 0 and ordering_ok and elapsed < 60.0
    _report(5, ok, f"{total} swap trials, {violations} violations, "
                   f"eigenvalue-aware bound <= classical bound in all trials, "
                   f"{elapsed:.2f}s (<60s)")


def test_criterion_6_convergence_behavior(fitted_instances):
    rows, _ = fitted_instances
    iters = [row["model"].iterations for row in rows]
    median = float(np.median(iters))
    ok = median <= 50.0
    _report(6, ok, f"median iterations {median:.0f} (<=50), max {max(iters)} "
                   f"with default epsilon")


SYNTHETIC_CONFIG = {
    "dataset": {"kind": "synthetic_sparse", "n_features": 200, "n_informative": 10,
                "coef": 1.0, "noise_sigma": 0.5, "train_size": 200, "test_size": 200},
    "kernels": {"kind": "rank1_all", "include_offset": True},
    "methods": ["l2mkl", "l1mkl", "uniform"],
    "lambda0_grid": [0.001, 0.01, 0.1],
    "radius_grid": [1.0, 10.0, 100.0],
    "budget_grid": [1.0, 10.0, 100.0],
    "cv_folds": 5,
    "trials": 10,
    "seed": 20240901,
    "metrics": ["rmse"],
    "l1_max_iters": 300,
    "l1_tol": 1e-6,
}


def test_criterion_7_synthetic_reproduction():
    t0 = time.perf_counter()
    cfg = ExperimentConfig.from_dict(SYNTHETIC_CONFIG)
    report = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    l2 = report["methods"]["l2mkl"]["mean"]["rmse"]
    l1 = report["methods"]["l1mkl"]["mean"]["rmse"]
    uniform = report["methods"]["uniform"]["mean"]["rmse"]
    failed = sum(report["methods"][m]["failed"] for m in report["methods"])
    ok = l2 <= uniform + 0.02 and failed == 0 and elapsed < 300.0
    _report(7, ok,
            f"10 trials: rmse l2mkl={l2:.4f}, uniform={uniform:.4f}, l1mkl={l1:.4f}; "
            f"asserted l2mkl <= uniform + 0.02; reported l1mkl - l2mkl = {l1 - l2:+.4f}; "
            f"{elapsed:.1f}s (<300s)")


UCI_TARGETS = {
    "breast": 0.03,
    "ionosphere": 0.08,
    "sonar": 0.16,
    "heart": 0.17,
}


def _uci_misclassification(path, seed):
    from mklridge.data import split_indices

    ds = mk.load_delimited(path, label_column=-1, task="classification_pm1")
    results = []
    for trial in range(3):
        tr, te = split_indices(ds.m, 0.5, seed + trial)
        X_tr, X_te = ds.X[tr], ds.X[te]
        mean, std = X_tr.mean(axis=0), X_tr.std(axis=0)
        std[std == 0] = 1.0
        Z_tr, Z_te = (X_tr - mean) / std, (X_te - mean) / std
        specs = [KernelSpec.gaussian(float(np.sqrt(Z_tr.shape[1]))),
                 KernelSpec.linear(), KernelSpec.polynomial(2, 1.0)]
        fam = mk.KernelFamily.from_specs(specs, Z_tr)
        y_tr, y_te = ds.y[tr], ds.y[te]
        best = None
        plan = mk.make_folds(len(tr), 5, seed + trial)
        for lambda0 in (1e-3, 1e-2, 1e-1, 1.0):
            for radius in (0.0, 0.1, 1.0, 10.0):
                scores = []
                for f in range(plan.k):
                    ftr, fva = plan.fold_indices(f)
                    sub = fam.subset(ftr)
                    model, _ = mk.fit_l2(sub, y_tr[ftr], lambda0, radius)
                    preds = np.zeros(len(fva))
                    for k in range(fam.p):
                        preds += model.weights.mu[k] * (
                            fam.stack[k][np.ix_(fva, ftr)] @ model.alpha)
                    scores.append(mk.metric_misclassification(
                        np.where(preds >= 0, 1.0, -1.0), y_tr[fva]))
                score = float(np.mean(scores))
                if best is None or score < best[0]:
                    best = (score, lambda0, radius)
        model, _ = mk.fit_l2(fam, y_tr, best[1], best[2])
        preds = mk.predict(model, fam.specs, Z_tr, Z_te)
        results.append(mk.metric_misclassification(np.where(preds >= 0, 1.0, -1.0), y_te))
    return float(np.mean(results))


def test_criterion_8_uci_check_optional():
    data_dir = os.environ.get("MKLRIDGE_UCI_DIR")
    if not data_dir:
        print("[criterion 8] SKIP: set MKLRIDGE_UCI_DIR to run the benchmark check",
              flush=True)
        pytest.skip("benchmark files not supplied")
    diffs = {}
    for name, target in UCI_TARGETS.items():
        path = os.path.join(data_dir, f"{name}.csv")
        if not os.path.exists(path):
            diffs[name] = "missing file"
            continue
        rate = _uci_misclassification(path, seed=31 + len(name))
        diffs[name] = rate - target
        if abs(rate - target) > 0.05:
            warnings.warn(
                f"{name}: misclassification {rate:.3f} deviates from the "
                f"reference {target:.3f} by more than 0.05 (preprocessing differs)"
            )
    print(f"[criterion 8] PASS (advisory): deviations {diffs}", flush=True)


def test_criterion_9_full_determinism(tmp_path):
    # Experiment reports: identical bytes across reruns of the same seed,
    # at the fixed BLAS thread count that conftest.py pins. At another
    # count BLAS may sum in another order; CI's "Reports across BLAS
    # thread counts" step bounds what may then move.
    cfg = ExperimentConfig.from_dict({
        "dataset": {"kind": "synthetic_sparse", "n_features": 10, "n_informative": 3,
                    "noise_sigma": 0.4, "train_size": 30, "test_size": 30},
        "kernels": {"kind": "rank1_all", "include_offset": True},
        "methods": ["l2mkl", "l1mkl", "uniform", "best_single"],
        "lambda0_grid": [0.01, 0.1],
        "radius_grid": [0.0, 1.0],
        "budget_grid": [1.0],
        "cv_folds": 3,
        "trials": 3,
        "seed": 99,
        "metrics": ["rmse"],
    })
    p1 = write_json_atomic(run_experiment(cfg), tmp_path / "r1.json")
    p2 = write_json_atomic(run_experiment(cfg), tmp_path / "r2.json")
    reports_equal = Path(p1).read_bytes() == Path(p2).read_bytes()

    # Solver: bit-identical models.
    fam, y, lambda0, radius = random_psd_instance(7)
    m1, _ = mk.fit_l2(fam, y, lambda0, radius)
    m2, _ = mk.fit_l2(fam, y, lambda0, radius)
    fits_equal = (m1.alpha.tobytes() == m2.alpha.tobytes()
                  and m1.weights.mu.tobytes() == m2.weights.mu.tobytes())

    # Stability suite: identical trial streams under one seed.
    rng = np.random.default_rng(17)
    X = rng.standard_normal((12, 12))
    w_true = rng.standard_normal(12)
    y_s = X @ w_true

    def draw(r):
        x = r.standard_normal(12)
        return x, float(x @ w_true)

    weights = mk.MuWeights(np.ones(1), np.ones(1), 0.0)
    s1 = mk.stability_trial([KernelSpec.linear()], X, y_s, 0.5, weights, 20, 5, draw)
    s2 = mk.stability_trial([KernelSpec.linear()], X, y_s, 0.5, weights, 20, 5, draw)
    stability_equal = s1.deltas == s2.deltas and s1.bounds == s2.bounds

    ok = reports_equal and fits_equal and stability_equal
    _report(9, ok, f"report bytes identical: {reports_equal}, fits bit-identical: "
                   f"{fits_equal}, stability streams identical: {stability_equal}")
