"""Numerical verification: fixed-point residuals, the weight-shift
identity, feature-map orthogonality, empirical ridge stability against
its theoretical bound, and the learned-kernel stability constants."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .kernels import (EXPLICIT_MAP_KINDS, KernelFamily, KernelSpec, _as_matrix, _as_vector,
                      _is_number, as_family, compute_kappa)
from .solver import MklModel, MuWeights, _validated_radius, krr_solve, quad_forms


def kkt_residuals(model: MklModel, family: KernelFamily, y) -> tuple:
    """Residuals of the stationarity conditions at a model fitted on a KernelFamily.

    Returns (r_alpha, r_mu): the ridge-system residual
    ||(K(mu) + lam I) alpha - y|| and the normalized weight-direction
    residual ||(mu - mu0) ||v|| - radius v|| / max(||v||, tiny), both
    near zero at a true solution.
    """
    fam = as_family(family)
    y = _as_vector(y, "y")
    alpha = model.alpha
    K = fam.combined_entries(model.weights.mu)
    r_alpha = float(np.linalg.norm(K @ alpha + model.lam * alpha - y))
    v = quad_forms(alpha, fam)
    nv = float(np.linalg.norm(v))
    w = model.weights
    r_mu = float(np.linalg.norm((w.mu - w.mu0) * nv - w.radius * v)) / max(nv, 1e-30)
    return r_alpha, r_mu


def weight_shift_identity_gap(v, v_prime, radius: float) -> float:
    """Max discrepancy between the two closed forms of the weight shift.

    The direct form radius * (v'_k/||v'|| - v_k/||v||) must equal its
    expansion in terms of dv = v' - v:
    radius * [dv_k/||v'|| - v_k sum_i (v_i + v'_i) dv_i /
    (||v|| ||v'|| (||v|| + ||v'||))]. Returns max_k |direct - expanded|.
    The radius must be finite and nonnegative.
    """
    radius = _validated_radius(radius)
    v = _as_vector(v, "v")
    w = _as_vector(v_prime, "v_prime")
    if v.shape != w.shape:
        raise ShapeError("v and v_prime lengths differ")
    if np.any(v < 0) or np.any(w < 0):
        raise ConfigError("quadratic-form vectors must be nonnegative")
    n1 = float(np.linalg.norm(v))
    n2 = float(np.linalg.norm(w))
    if n1 == 0.0 or n2 == 0.0:
        raise ConfigError("weight-shift identity requires nonzero vectors")
    dv = w - v
    direct = radius * (w / n2 - v / n1)
    expanded = radius * (dv / n2 - v * float((v + w) @ dv) / (n1 * n2 * (n1 + n2)))
    return float(np.max(np.abs(direct - expanded)))


def orthogonality_check(family: KernelFamily) -> Optional[bool]:
    """Whether the family's feature maps have pairwise disjoint support.

    Only kernels with a finite explicit embedding (rank-one coordinate
    products and the constant offset) can be checked; any other kind, or
    no specs, makes the question undecidable here and returns None.
    Otherwise True iff, over the sample, no two kernels share an active
    coordinate.
    """
    specs = family.specs
    if specs is None or not all(s.kind in EXPLICIT_MAP_KINDS for s in specs):
        return None
    # A kernel's coordinate is its (kind, feature_index); one that is zero
    # on every sample row (zero column, zero Gram diagonal) shares nothing.
    F = family.features
    live = (np.any(F != 0.0, axis=0) if F is not None
            else np.any(np.diagonal(family.stack, axis1=1, axis2=2) != 0.0, axis=1))
    active = [(s.kind, s.feature_index) for s, on in zip(specs, live) if on]
    return len(set(active)) == len(active)


@dataclass(frozen=True, eq=False)
class StabilityReport:
    """Aggregated swap-trial results for fixed-kernel ridge stability.

    Scalar fields use the conservative aggregates (max kappa and max
    empirical error over trials, min lambda_min), so ``stability_bound``
    is the loosest per-trial bound; ``violations`` counts trials whose
    observed deviation exceeded their own (tighter) per-trial bound.
    """

    kappa: float
    max_error: float          # empirical max |h(x) - y| over the evaluation set
    lambda_min: float         # smallest eigenvalue of the swapped-sample Gram
    stability_bound: float    # 2 kappa max_error / (lambda_min + lambda0 m)
    classical_bound: float    # 2 kappa max_error / (lambda0 m)
    max_empirical_delta: float
    trials: int
    violations: int
    deltas: tuple
    bounds: tuple
    classical_bounds: tuple
    lambda_mins: tuple


def _floored_min_eig(K: np.ndarray) -> float:
    # "Smallest eigenvalue when positive, else 0": rank deficiency and
    # roundoff negatives both collapse to the conservative zero.
    eigs = np.linalg.eigvalsh(K)
    smallest = float(eigs[0])
    largest = float(abs(eigs[-1]))
    if smallest <= 1e-10 * max(largest, 1e-300):
        return 0.0
    return smallest


def stability_trial(specs: Sequence[KernelSpec], X, y, lambda0: float,
                    weights: MuWeights, swaps: int, seed: int,
                    draw_point: Callable, extra_eval_points: int = 100) -> StabilityReport:
    """Swap one training point, refit with frozen weights, compare hypotheses.

    Each trial replaces the last training point with a fresh draw from
    ``draw_point(rng) -> (x, y)``, re-solves the ridge system for the
    same combined kernel, and records the largest change of the learned
    function over an evaluation grid (both samples plus fresh points).
    The observed change is compared per trial against
    2 kappa M / (lambda_min + lambda0 m), with kappa evaluated over every
    point the trial touches and M the empirical error bound.
    """
    X = _as_matrix(X)
    y = _as_vector(y, "y")
    m = X.shape[0]
    if y.shape[0] != m:
        raise ShapeError("X and y lengths differ")
    if not (_is_number(swaps, integral=True) and swaps >= 1):
        raise ConfigError(f"swaps must be an integer of at least 1, got {swaps!r}")
    if not 0.0 < lambda0 < np.inf:
        raise ConfigError("lambda0 must be positive and finite")
    if len(specs) != weights.p:
        raise ShapeError("number of specs differs from number of weights")
    lam = lambda0 * m

    rng = np.random.default_rng(seed)

    def draw(count):
        xs, ys = [], []
        for _ in range(count):
            try:
                x_new, y_new = draw_point(rng)
            except StopIteration as exc:
                raise DataError("point generator exhausted") from exc
            xs.append(np.asarray(x_new, dtype=np.float64))
            ys.append(float(y_new))
        return xs, ys

    swap_xs, swap_ys = draw(swaps)
    extra_xs, extra_ys = draw(extra_eval_points)

    # One master grid: training rows, then swap candidates, then fresh
    # evaluation points. Everything below is sliced out of its combined
    # Gram matrix, and kappa covers every point of it.
    E = np.vstack([X] + [x[None, :] for x in swap_xs] + [x[None, :] for x in extra_xs])
    y_E = np.concatenate([y, np.asarray(swap_ys), np.asarray(extra_ys)])
    fam = KernelFamily.from_specs(specs, E)
    G = fam.combined_entries(weights.mu)
    kappa = compute_kappa(fam, float(np.linalg.norm(weights.mu0)) + weights.radius)

    K = G[:m, :m]
    alpha = krr_solve(K, y, lam)
    h_base = G[:, :m] @ alpha
    base_err = np.abs(h_base - y_E)

    deltas, bounds, classical_bounds, lambda_mins, max_errs = [], [], [], [], []
    violations = 0
    keep = np.arange(m - 1)
    for t in range(swaps):
        idx = np.concatenate([keep, [m + t]])
        K_swap = G[np.ix_(idx, idx)]
        y_swap = np.concatenate([y[:-1], [swap_ys[t]]])
        alpha_swap = krr_solve(K_swap, y_swap, lam)
        h_swap = G[:, idx] @ alpha_swap
        delta = float(np.max(np.abs(h_swap - h_base)))
        max_err = float(max(base_err.max(), np.abs(h_swap - y_E).max()))
        lam_min = _floored_min_eig(K_swap)
        bound = 2.0 * kappa * max_err / (lam_min + lam)
        classical = 2.0 * kappa * max_err / lam
        if delta > bound + 1e-9:
            violations += 1
        deltas.append(delta)
        bounds.append(bound)
        classical_bounds.append(classical)
        lambda_mins.append(lam_min)
        max_errs.append(max_err)

    agg_M = max(max_errs)
    lam_min_agg = min(lambda_mins)
    return StabilityReport(
        kappa=kappa,
        max_error=agg_M,
        lambda_min=lam_min_agg,
        stability_bound=2.0 * kappa * agg_M / (lam_min_agg + lam),
        classical_bound=2.0 * kappa * agg_M / lam,
        max_empirical_delta=float(max(deltas)),
        trials=swaps,
        violations=violations,
        deltas=tuple(deltas),
        bounds=tuple(bounds),
        classical_bounds=tuple(classical_bounds),
        lambda_mins=tuple(lambda_mins),
    )


@dataclass(frozen=True)
class BoundValues:
    """Stability constants and the resulting generalization-gap bound."""

    c0: float
    c1: float
    beta: float
    generalization_gap: float


def bound_values(kappa: float, max_error: float, radius: float, lambda0: float,
                 p: int, m: int, delta: float) -> BoundValues:
    """Learned-kernel stability constants.

    c0 = 2 kappa M + 4 radius M sqrt(kappa) (kappa/lambda0 + 1),
    c1 = 16 radius^2 M kappa^(3/2) / lambda0,
    beta = 2 M (c0 + c1 sqrt(p)) / (lambda0 m), and the high-probability
    generalization gap 2 beta + (4 m beta + M) sqrt(log(1/delta) / (2m)).
    No tightness is claimed; radius = 0 recovers the fixed-kernel case.
    """
    if not all(0.0 < v < math.inf for v in (kappa, max_error, lambda0, p, m)):
        raise ConfigError("kappa, max_error, lambda0, p, and m must be positive and finite")
    _validated_radius(radius)
    if not 0.0 < delta < 1.0:
        raise ConfigError("delta must lie in (0, 1)")
    c0 = 2.0 * kappa * max_error + 4.0 * radius * max_error * math.sqrt(kappa) * (kappa / lambda0 + 1.0)
    c1 = 16.0 * radius**2 * max_error * kappa**1.5 / lambda0
    beta = 2.0 * max_error * (c0 + c1 * math.sqrt(p)) / (lambda0 * m)
    gap = 2.0 * beta + (4.0 * m * beta + max_error) * math.sqrt(math.log(1.0 / delta) / (2.0 * m))
    return BoundValues(c0=c0, c1=c1, beta=beta, generalization_gap=gap)
