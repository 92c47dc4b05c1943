import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mklridge as mk
from mklridge import ConfigError, KernelSpec

from helpers import random_psd_instance, rank1_all_family


# --- kkt_residuals -----------------------------------------------------------

def _closed_form_model(fam, y, lambda0, radius):
    lam = lambda0 * fam.m
    K1 = fam.stack[0]
    alpha = mk.krr_solve((1.0 + radius) * K1, y, lam)
    weights = mk.MuWeights(np.array([1.0 + radius]), np.array([1.0]), radius)
    return mk.MklModel(
        weights=weights, alpha=alpha, lam=lam, lambda0=lambda0,
        quad=mk.quad_forms(alpha, fam), iterations=1, converged=True, final_step=0.0,
        certificate_gap=0.0,
    )


def test_kkt_exact_single_kernel_solution():
    fam, y, lambda0, radius = random_psd_instance(7, p_range=(1, 1))
    model = _closed_form_model(fam, y, lambda0, radius)
    r_alpha, r_mu = mk.kkt_residuals(model, fam, y)
    assert r_alpha <= 1e-10
    assert r_mu <= 1e-10


def test_kkt_converged_fit_within_tolerance():
    fam, y, lambda0, radius = random_psd_instance(17)
    eps = 1e-8 * (1.0 + np.linalg.norm(y))
    model, _ = mk.fit_l2(fam, y, lambda0, radius, epsilon=eps)
    assert model.converged
    r_alpha, r_mu = mk.kkt_residuals(model, fam, y)
    assert r_alpha <= 10.0 * eps
    assert r_mu <= 10.0 * eps


def test_kkt_on_oracle_output_matches_fit_tolerance():
    fam, y, lambda0, radius = random_psd_instance(37)
    eps = 1e-8 * (1.0 + np.linalg.norm(y))
    model, _ = mk.fit_l2(fam, y, lambda0, radius, epsilon=eps)
    assert max(mk.kkt_residuals(model, fam, y)) <= 10.0 * eps

    # The oracle certifies an objective gap; on the constraint sphere a
    # gap g allows a weight-direction error of sqrt(2 g radius / ||v||).
    oracle = mk.oracle_fit(fam, y, lambda0, radius)
    wrapped = mk.MklModel(
        weights=oracle.weights, alpha=oracle.alpha, lam=lambda0 * fam.m,
        lambda0=lambda0, quad=mk.quad_forms(oracle.alpha, fam),
        iterations=oracle.iterations, converged=oracle.converged, final_step=0.0,
        certificate_gap=oracle.certificate_gap,
    )
    r_alpha, r_mu = mk.kkt_residuals(wrapped, fam, y)
    assert r_alpha <= 10.0 * eps
    norm_v = float(np.linalg.norm(wrapped.quad))
    allowed = 4.0 * np.sqrt(2.0 * oracle.certificate_gap * radius / max(norm_v, 1e-12))
    assert r_mu <= max(allowed, 10.0 * eps)


def test_kkt_detects_perturbed_alpha():
    fam, y, lambda0, radius = random_psd_instance(27)
    model, _ = mk.fit_l2(fam, y, lambda0, radius)
    bumped = model.alpha.copy()
    bumped[0] += 0.1
    broken = mk.MklModel(
        weights=model.weights, alpha=bumped, lam=model.lam, lambda0=model.lambda0,
        quad=model.quad, iterations=model.iterations, converged=True, final_step=0.0,
        certificate_gap=model.certificate_gap,
    )
    r_alpha, _ = mk.kkt_residuals(broken, fam, y)
    clean_r_alpha, _ = mk.kkt_residuals(model, fam, y)
    assert r_alpha > max(10 * clean_r_alpha, 1e-3)


# --- weight-shift identity ------------------------------------------------------

def test_identity_equal_vectors():
    v = np.array([1.0, 2.0, 3.0])
    assert mk.weight_shift_identity_gap(v, v, 2.0) == 0.0


def test_identity_scaled_vector():
    v = np.array([0.5, 1.5, 2.5, 4.0])
    assert mk.weight_shift_identity_gap(v, 2.0 * v, 3.0) <= 1e-12


def test_identity_rejects_zero_norm():
    with pytest.raises(ConfigError):
        mk.weight_shift_identity_gap(np.zeros(3), np.ones(3), 1.0)
    with pytest.raises(ConfigError):
        mk.weight_shift_identity_gap(np.ones(3), np.zeros(3), 1.0)


def test_identity_rejects_negative_entries():
    with pytest.raises(ConfigError):
        mk.weight_shift_identity_gap([1.0, -0.1], [1.0, 1.0], 1.0)


@pytest.mark.parametrize("radius", [np.nan, np.inf, -np.inf, -1.0])
def test_identity_rejects_bad_radius(radius):
    with pytest.raises(ConfigError, match="radius"):
        mk.weight_shift_identity_gap([1.0, 2.0], [2.0, 1.0], radius)


@settings(max_examples=60)
@given(
    p=st.integers(1, 20),
    radius=st.floats(0.0, 10.0),
    seed=st.integers(0, 100_000),
)
def test_identity_property(p, radius, seed):
    rng = np.random.default_rng(seed)
    v = rng.uniform(0.0, 10.0, size=p)
    w = rng.uniform(0.0, 10.0, size=p)
    v[int(rng.integers(p))] += 0.1
    w[int(rng.integers(p))] += 0.1
    assert mk.weight_shift_identity_gap(v, w, radius) <= 1e-10


# --- orthogonality_check ---------------------------------------------------------

def test_orthogonality_distinct_rank1_true():
    X = np.abs(np.random.default_rng(0).standard_normal((5, 3)))
    fam = mk.KernelFamily.from_specs([KernelSpec.rank1(0), KernelSpec.rank1(2)], X)
    assert mk.orthogonality_check(fam) is True


def test_orthogonality_same_index_false():
    X = np.abs(np.random.default_rng(1).standard_normal((5, 3)))
    fam = mk.KernelFamily.from_specs([KernelSpec.rank1(1), KernelSpec.rank1(1)], X)
    assert mk.orthogonality_check(fam) is False


def test_orthogonality_gaussian_not_checkable():
    X = np.random.default_rng(2).standard_normal((5, 3))
    fam = mk.KernelFamily.from_specs([KernelSpec.gaussian(1.0), KernelSpec.rank1(0)], X)
    assert mk.orthogonality_check(fam) is None


def test_orthogonality_offset_and_rank1_true():
    X = np.abs(np.random.default_rng(3).standard_normal((4, 2)))
    fam = rank1_all_family(X, include_offset=True)
    assert mk.orthogonality_check(fam) is True


def test_orthogonality_two_offsets_false():
    X = np.ones((3, 1))
    fam = mk.KernelFamily.from_specs([KernelSpec.constant(), KernelSpec.constant()], X)
    assert mk.orthogonality_check(fam) is False


def test_orthogonality_dead_column_is_vacuously_true():
    X = np.array([[0.0, 1.0], [0.0, 2.0]])
    fam = mk.KernelFamily.from_specs([KernelSpec.rank1(0), KernelSpec.rank1(0)], X)
    assert mk.orthogonality_check(fam) is True


@pytest.mark.parametrize("derive", ["subset", "select_kernels"])
def test_orthogonality_of_derived_family_matches_direct_build(derive):
    # Column 1 is zero on rows 0-1 only, so a row subset can make it inactive.
    X = np.array([[0.0, 0.0, 2.0], [1.0, 0.0, 0.0], [3.0, 5.0, 1.0], [0.0, 4.0, 2.0]])
    specs = [KernelSpec.rank1(0), KernelSpec.rank1(1), KernelSpec.rank1(1),
             KernelSpec.constant(), KernelSpec.gaussian(1.0)]
    for rows, kernels in (([0, 1], [0, 1, 2, 3]), ([2, 3], [1, 2]), ([0, 3], [0, 3])):
        if derive == "subset":
            derived = mk.KernelFamily.from_specs(specs[:4], X).subset(rows)
            direct = mk.KernelFamily.from_specs(specs[:4], X[rows])
        else:
            derived = mk.KernelFamily.from_specs(specs, X).select_kernels(kernels)
            direct = mk.KernelFamily.from_specs([specs[k] for k in kernels], X)
        assert mk.orthogonality_check(derived) is mk.orthogonality_check(direct)
        assert mk.orthogonality_check(direct) is not None


def test_orthogonality_without_specs_not_checkable():
    fam = mk.KernelFamily.from_grams([np.eye(3)])
    assert mk.orthogonality_check(fam) is None


# --- stability_trial --------------------------------------------------------------

def _linear_sample(m, d, seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(d) / np.sqrt(d)
    X = rng.standard_normal((m, d))
    y = X @ w + 0.1 * rng.standard_normal(m)

    def draw(r):
        x = r.standard_normal(d)
        return x, float(x @ w + 0.1 * r.standard_normal())

    return X, y, draw


def test_stability_self_swap_is_exactly_stable():
    X, y, _ = _linear_sample(8, 8, 0)

    def self_point(_rng):
        return X[-1], float(y[-1])

    weights = mk.MuWeights(np.ones(1), np.ones(1), 0.0)
    rep = mk.stability_trial([KernelSpec.linear()], X, y, 0.5, weights, 5, 3, self_point)
    assert rep.max_empirical_delta <= 1e-12  # identical sample up to BLAS layout
    assert rep.violations == 0


def test_stability_m1_matches_brute_force():
    d = 1
    lambda0 = 0.7
    seed = 12
    X = np.array([[1.3]])
    y = np.array([1.0])

    def draw(r):
        x = r.standard_normal(d)
        return x, float(x[0] * 0.4 + 0.05 * r.standard_normal())

    weights = mk.MuWeights(np.ones(1), np.ones(1), 0.0)
    swaps, extra = 4, 10
    rep = mk.stability_trial([KernelSpec.linear()], X, y, lambda0, weights,
                             swaps, seed, draw, extra_eval_points=extra)

    # Replay the generator stream: swap candidates first, then eval points.
    rng = np.random.default_rng(seed)
    drawn = [draw(rng) for _ in range(swaps + extra)]
    swap_pts = drawn[:swaps]
    eval_x = np.array([X[0, 0]] + [p[0][0] for p in drawn])
    lam = lambda0 * 1
    alpha = y[0] / (X[0, 0] ** 2 + lam)
    h = alpha * X[0, 0] * eval_x
    for t, (x_new, y_new) in enumerate(swap_pts):
        alpha_sw = y_new / (x_new[0] ** 2 + lam)
        h_sw = alpha_sw * x_new[0] * eval_x
        delta = np.max(np.abs(h_sw - h))
        npt.assert_allclose(rep.deltas[t], delta, rtol=1e-9, atol=1e-12)
        assert rep.deltas[t] <= rep.bounds[t] + 1e-9
    assert rep.violations == 0


def test_stability_no_violations_and_bound_ordering():
    X, y, draw = _linear_sample(20, 20, 5)
    weights = mk.MuWeights(np.ones(1), np.ones(1), 0.0)
    rep = mk.stability_trial([KernelSpec.linear()], X, y, 0.5, weights, 60, 6, draw)
    assert rep.violations == 0
    assert rep.trials == 60
    for b, c in zip(rep.bounds, rep.classical_bounds):
        assert b <= c + 1e-15
    assert rep.stability_bound <= rep.classical_bound + 1e-15
    assert rep.max_empirical_delta == max(rep.deltas)


def test_stability_rank1_family_lambda_min_floors_to_zero():
    rng = np.random.default_rng(8)
    X = np.abs(rng.standard_normal((12, 4)))
    w = rng.standard_normal(4)
    y = X @ w

    def draw(r):
        x = np.abs(r.standard_normal(4))
        return x, float(x @ w + 0.05 * r.standard_normal())

    p = 5
    weights = mk.MuWeights(np.ones(p), np.ones(p), 0.0)
    specs = [KernelSpec.rank1(i) for i in range(4)] + [KernelSpec.constant()]
    rep = mk.stability_trial(specs, X, y, 0.4, weights, 30, 9, draw)
    # Combined rank is at most p < m, so the swapped Gram is rank deficient.
    assert all(lm == 0.0 for lm in rep.lambda_mins)
    assert rep.violations == 0


def test_stability_no_violations_at_m200():
    X, y, draw = _linear_sample(200, 200, 13)
    weights = mk.MuWeights(np.ones(1), np.ones(1), 0.0)
    rep = mk.stability_trial([KernelSpec.linear()], X, y, 0.5, weights, 40, 14, draw,
                             extra_eval_points=50)
    assert rep.violations == 0


@pytest.mark.parametrize("lambda0", [0.0, math.nan, math.inf])
def test_stability_rejects_bad_lambda0(lambda0):
    X, y, draw = _linear_sample(4, 2, 10)
    weights = mk.MuWeights(np.ones(1), np.ones(1), 0.0)
    with pytest.raises(ConfigError, match="lambda0"):
        mk.stability_trial([KernelSpec.linear()], X, y, lambda0, weights, 2, 1, draw)


@pytest.mark.parametrize("swaps", [2.5, 0, -1, True])
def test_stability_rejects_bad_swap_counts(swaps):
    # range() would raise a raw TypeError on 2.5.
    X, y, draw = _linear_sample(4, 2, 10)
    weights = mk.MuWeights(np.ones(1), np.ones(1), 0.0)
    with pytest.raises(ConfigError, match="swaps must be an integer"):
        mk.stability_trial([KernelSpec.linear()], X, y, 0.5, weights, swaps, 1, draw)


def test_stability_generator_exhaustion():
    X, y, _ = _linear_sample(4, 2, 10)

    def empty(_rng):
        raise StopIteration

    weights = mk.MuWeights(np.ones(1), np.ones(1), 0.0)
    with pytest.raises(mk.DataError):
        mk.stability_trial([KernelSpec.linear()], X, y, 0.5, weights, 2, 1, empty)


# --- bound_values -----------------------------------------------------------------

def test_bound_values_hand_example():
    vals = mk.bound_values(kappa=1.0, max_error=1.0, radius=1.0, lambda0=1.0,
                           p=1, m=1, delta=0.5)
    assert vals.c0 == 10.0
    assert vals.c1 == 16.0
    assert vals.beta == 52.0


def test_bound_values_zero_radius_drops_adaptive_terms():
    vals = mk.bound_values(kappa=2.0, max_error=1.5, radius=0.0, lambda0=0.3,
                           p=4, m=50, delta=0.1)
    assert vals.c1 == 0.0
    assert vals.c0 == 2.0 * 2.0 * 1.5
    expected_beta = 2.0 * 1.5 * vals.c0 / (0.3 * 50)
    assert vals.beta == pytest.approx(expected_beta, rel=1e-15)


def test_bound_values_beta_scales_inversely_with_m():
    a = mk.bound_values(1.0, 1.0, 2.0, 0.5, 3, 100, 0.05)
    b = mk.bound_values(1.0, 1.0, 2.0, 0.5, 3, 200, 0.05)
    assert a.beta == pytest.approx(2.0 * b.beta, rel=1e-12)


def test_bound_values_gap_formula():
    kappa, M, radius, lambda0, p, m, delta = 1.2, 0.8, 1.5, 0.4, 5, 64, 0.05
    vals = mk.bound_values(kappa, M, radius, lambda0, p, m, delta)
    expected = 2 * vals.beta + (4 * m * vals.beta + M) * math.sqrt(math.log(1 / delta) / (2 * m))
    assert vals.generalization_gap == pytest.approx(expected, rel=1e-15)


def test_bound_values_monotonicity():
    base = dict(kappa=1.1, max_error=0.9, radius=1.3, lambda0=0.6, p=4, m=80, delta=0.1)
    beta0 = mk.bound_values(**base).beta
    ups = {"kappa": 2.0, "max_error": 2.0, "radius": 2.0, "p": 9}
    for key, val in ups.items():
        bumped = dict(base)
        bumped[key] = val
        assert mk.bound_values(**bumped).beta > beta0
    for key, val in (("m", 160), ("lambda0", 1.2)):
        bumped = dict(base)
        bumped[key] = val
        assert mk.bound_values(**bumped).beta < beta0


def test_bound_values_domain_errors():
    with pytest.raises(ConfigError):
        mk.bound_values(0.0, 1.0, 1.0, 1.0, 1, 1, 0.5)
    with pytest.raises(ConfigError):
        mk.bound_values(1.0, 1.0, -1.0, 1.0, 1, 1, 0.5)
    with pytest.raises(ConfigError):
        mk.bound_values(1.0, 1.0, 1.0, 1.0, 1, 1, 1.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("key", ["kappa", "max_error", "radius", "lambda0", "delta"])
def test_bound_values_rejects_non_finite(key, bad):
    args = dict(kappa=1.0, max_error=1.0, radius=1.0, lambda0=1.0, p=1, m=1, delta=0.5)
    args[key] = bad
    with pytest.raises(ConfigError):
        mk.bound_values(**args)
