from fractions import Fraction
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg.lapack
from hypothesis import given, settings
from hypothesis import strategies as st

import mklridge as mk
from mklridge import ConfigError, DataError, KernelSpec, NumericalError, ShapeError
from mklridge import experiment, solver
from mklridge.solver import project_ball_cone, project_l1_orthant

from helpers import (_reference_chol_delete, ball_grid_points, dual_objective_grid_min,
                     kernel_stack, random_psd_instance, rank1_all_family,
                     reference_l1_path_stops, reference_woodbury_solve,
                     simplex_grid_points)

# A broken active-block factor or an unguarded division on the lasso path
# shows as a RuntimeWarning (overflow, invalid value, divide by zero); these
# tests make it an error.
_NO_PATH_WARNINGS = pytest.mark.filterwarnings("error::RuntimeWarning")


# --- krr_solve --------------------------------------------------------------

def test_krr_identity_kernel():
    alpha = mk.krr_solve(np.eye(2), [2.0, 4.0], 1.0)
    npt.assert_allclose(alpha, [1.0, 2.0], rtol=0, atol=1e-14)


def test_krr_zero_kernel():
    alpha = mk.krr_solve(np.zeros((2, 2)), [3.0, 5.0], 2.0)
    npt.assert_allclose(alpha, [1.5, 2.5], rtol=0, atol=1e-14)


def test_krr_hand_inverted_system():
    # (K + I) = [[3, 1], [1, 3]]; inverse maps (1, 1) to (0.25, 0.25).
    alpha = mk.krr_solve(np.array([[2.0, 1.0], [1.0, 2.0]]), [1.0, 1.0], 1.0)
    npt.assert_allclose(alpha, [0.25, 0.25], rtol=0, atol=1e-14)


def test_krr_requires_positive_lam():
    with pytest.raises(ConfigError):
        mk.krr_solve(np.eye(2), [1.0, 1.0], 0.0)


def test_krr_dimension_mismatch():
    with pytest.raises(ShapeError):
        mk.krr_solve(np.eye(2), [1.0, 1.0, 1.0], 1.0)


def test_krr_indefinite_matrix_reports_eigenvalue():
    K = np.array([[0.0, 4.0], [4.0, 0.0]])  # eigenvalues +-4
    with pytest.raises(NumericalError) as err:
        mk.krr_solve(K, [1.0, 1.0], 0.5)
    assert "eigenvalue" in str(err.value)


def test_krr_nan_matrix_raises():
    with pytest.raises(DataError, match="non-finite"):
        mk.krr_solve(np.array([[1.0, 0.0], [0.0, np.nan]]), [1.0, 1.0], 1.0)


def test_krr_rejects_an_asymmetric_kernel_and_takes_rank_one_products():
    # The Cholesky factor reads K's lower triangle only, so this K was
    # solved as [[2, 0], [0, 2]] plus refinement against the full matrix.
    with pytest.raises(NumericalError, match="not symmetric"):
        mk.krr_solve(np.array([[2.0, 1.0], [0.0, 2.0]]), [1.0, 1.0], 1.0)
    # Random rank-one products (F * mu) @ F' with widely scaled columns are
    # symmetric only to roundoff relative to max|K|; the entrywise Gram
    # bound rejects some of them, the bound on the whole matrix none. Every
    # solve succeeds: at draws 32, 651 and 805, where max|K| is about 6e7,
    # the residual exceeds 1e-8 ||y|| but meets the backward-error bound.
    rng = np.random.default_rng(1)
    entrywise = 0
    for _ in range(2000):
        m, p = int(rng.integers(2, 61)), int(rng.integers(1, 301))
        F = rng.standard_normal((m, p)) * 10.0 ** rng.uniform(-3.0, 3.0, p)
        mu = rng.uniform(0.0, 10.0, p) * (rng.uniform(size=p) >= 0.3)
        K = (F * mu) @ F.T
        try:
            mk.KernelFamily.from_grams([K])
        except NumericalError:
            entrywise += 1
        assert np.isfinite(mk.krr_solve(K, rng.standard_normal(m), 1.0)).all()
    assert entrywise > 0


def test_woodbury_route_accepts_a_backward_stable_solve():
    # Family 0 of the draws behind _LARGE_GRAM_CASES, as rank-one kernels,
    # at lambda0 1e-6: the Woodbury route's x = (r - F C z) / lam cancels,
    # so its residual exceeds 1e-8 ||y||, but its normwise backward error
    # against ||F C||_F^2 + lam is within 1e-8, and the solve is accepted.
    rng = np.random.default_rng(1)
    p = int(rng.integers(2, 8))
    F = rng.standard_normal((30, p)) * rng.uniform(0.01, 100, p)
    y = rng.standard_normal(30)
    fam, lam = mk.KernelFamily(F), 1e-6 * 30
    x = solver._ridge_solve(fam, np.ones(p), y, lam)
    r = np.linalg.norm(F @ (F.T @ x) + lam * x - y)
    assert r > 1e-8 * np.linalg.norm(y)
    assert r <= 1e-8 * ((np.linalg.norm(F) ** 2 + lam) * np.linalg.norm(x) + np.linalg.norm(y))
    model, _ = mk.fit_l2(fam, y, 1e-6, 10.0)
    assert model.converged


@settings(max_examples=30)
@given(seed=st.integers(0, 10_000))
def test_krr_residual_bound(seed):
    fam, y, lambda0, _ = random_psd_instance(seed, m_range=(3, 25), p_range=(1, 3))
    K = mk.combine(fam, np.ones(fam.p))
    lam = lambda0 * fam.m
    alpha = mk.krr_solve(K, y, lam)
    resid = (K + lam * np.eye(fam.m)) @ alpha - y
    assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(y)


# --- quad_forms --------------------------------------------------------------

def test_quad_forms_basis_vector():
    fam, _, _, _ = random_psd_instance(3, m_range=(5, 5), p_range=(3, 3))
    e0 = np.zeros(fam.m)
    e0[0] = 1.0
    v = mk.quad_forms(e0, fam)
    expected = kernel_stack(fam)[:, 0, 0]
    npt.assert_allclose(v, expected, rtol=1e-12)


def test_quad_forms_zero_alpha():
    fam, _, _, _ = random_psd_instance(4, m_range=(6, 6), p_range=(2, 2))
    npt.assert_array_equal(mk.quad_forms(np.zeros(fam.m), fam), np.zeros(fam.p))


def test_quad_forms_identity_kernels():
    fam = mk.KernelFamily.from_grams([np.eye(2), np.eye(2)])
    npt.assert_allclose(mk.quad_forms([1.0, 1.0], fam), [2.0, 2.0])


def test_quad_forms_feature_path_matches_gram_path():
    X = np.abs(np.random.default_rng(0).standard_normal((7, 3)))
    fam = rank1_all_family(X, include_offset=True)
    alpha = np.random.default_rng(1).standard_normal(7)
    v_feat = mk.quad_forms(alpha, fam)
    v_gram = np.array([alpha @ (K @ alpha) for K in kernel_stack(fam)])
    npt.assert_allclose(v_feat, v_gram, rtol=1e-12, atol=1e-14)
    assert np.all(v_feat >= 0.0)


def _with_negative_eigenvalue(m, scale, seed):
    # scale Q diag(1, 1/2, ..., 1/(m-1), -1e-3) Q' and its last eigenvector.
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((m, m)))
    eigs = np.append(1.0 / np.arange(1, m), -1e-3)
    return scale * (Q * eigs) @ Q.T, Q[:, -1]


def test_quad_forms_flags_indefinite_kernel():
    # A negative eigenvalue of -1e-3 relative, hit along its eigenvector,
    # is no roundoff at any scale.
    cases = [(np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([1.0, -1.0])),
             _with_negative_eigenvalue(30, 1.0, 0), _with_negative_eigenvalue(30, 6e4, 1)]
    for K, alpha in cases:
        bad = mk.KernelFamily.from_grams([(K + K.T) / 2.0])
        with pytest.raises(NumericalError, match="kernel not PSD"):
            mk.quad_forms(alpha, bad)


# Families of default_rng(1) outer-product Gram kernels with columns scaled
# by up to 100 (diagonals up to 6e4), whose quadratic forms fell below an
# absolute -1e-10 from roundoff alone; 67 and 82 later clamp them all to 0.
_LARGE_GRAM_CASES = (1, 4, 9, 67, 82)


@pytest.mark.parametrize("case", _LARGE_GRAM_CASES)
def test_fit_l2_accepts_roundoff_in_large_psd_kernels(case):
    rng = np.random.default_rng(1)
    for _ in range(case + 1):
        p = int(rng.integers(2, 8))
        F = rng.standard_normal((30, p)) * rng.uniform(0.01, 100, p)
        y = rng.standard_normal(30)
    fam = mk.KernelFamily.from_grams([np.outer(f, f) for f in F.T])
    model, _ = mk.fit_l2(fam, y, 1e-3, 10.0)
    mu = model.weights.mu
    assert np.isfinite(model.alpha).all() and np.all(mu >= 1.0)
    assert np.linalg.norm(mu - 1.0) <= 10.0 * (1.0 + 1e-12)
    if case in (67, 82):
        # Where every v_k vanishes the fit stops, unconverged, at mu0.
        assert not model.converged and model.iterations < 200
        npt.assert_array_equal(mu, np.ones(p))


# --- the closed-form weight update, solver._weight_step ------------------------

def test_update_zero_radius():
    mu = solver._weight_step(np.array([3.0, 4.0]), np.array([1.0, 1.0]), 0.0)
    npt.assert_array_equal(mu, [1.0, 1.0])


def test_update_hand_example():
    mu = solver._weight_step(np.array([3.0, 4.0]), np.array([1.0, 1.0]), 10.0)
    npt.assert_allclose(mu, [7.0, 9.0], rtol=0, atol=1e-12)


def test_update_degenerate_direction():
    mu = solver._weight_step(np.array([0.0, 0.0]), np.array([1.0, 2.0]), 5.0)
    npt.assert_array_equal(mu, [1.0, 2.0])


@pytest.mark.parametrize("radius", [-1.0, np.nan, np.inf])
def test_update_rejects_bad_radius(radius):
    # The check every weight update's radius passes before _weight_step.
    with pytest.raises(ConfigError, match="radius must be a nonnegative finite number"):
        mk.MuWeights(np.ones(2), np.ones(2), radius)


@settings(max_examples=40)
@given(
    p=st.integers(1, 10),
    radius=st.floats(0.0, 50.0),
    seed=st.integers(0, 5000),
)
def test_update_invariants(p, radius, seed):
    rng = np.random.default_rng(seed)
    v = rng.uniform(0.0, 10.0, size=p)
    v[int(rng.integers(p))] += 0.5
    mu0 = 1.0 + rng.uniform(0.0, 3.0, size=p)
    mu0[int(rng.integers(p))] = 1.0
    mu = solver._weight_step(v, mu0, radius)
    assert np.all(mu >= mu0 - 1e-12)
    assert abs(np.linalg.norm(mu - mu0) - radius) <= 1e-9 * max(1.0, radius)


def test_mu_weights_validation():
    with pytest.raises(ConfigError):
        mk.MuWeights(np.array([1.0]), np.array([2.0]), 0.0)  # min(mu0) != 1
    with pytest.raises(ConfigError):
        mk.MuWeights(np.array([-0.5, 1.0]), np.array([1.0, 1.0]), 5.0)
    with pytest.raises(ConfigError):
        mk.MuWeights(np.array([9.0, 1.0]), np.array([1.0, 1.0]), 1.0)  # outside ball
    for radius in (np.nan, np.inf):
        with pytest.raises(ConfigError, match="radius"):
            mk.MuWeights(np.array([1.0, 1.0]), np.array([1.0, 1.0]), radius)
    with pytest.raises(ConfigError, match="mu must"):
        mk.MuWeights(np.array([1.0, np.nan]), np.array([1.0, 1.0]), 1.0)
    for mu0 in ([1.0, np.nan], [1.0, np.inf]):
        with pytest.raises(ConfigError, match="mu0"):
            mk.MuWeights(np.array([1.0, 1.0]), np.array(mu0), 1.0)
    with pytest.raises(ShapeError):
        mk.MuWeights(np.ones(2), np.ones(3), 1.0)


# --- objective ----------------------------------------------------------------

def test_objective_zero_alpha():
    assert mk.objective(np.zeros(3), np.ones(3), 1.0, np.zeros(2), np.ones(2), 1.0) == 0.0


def test_objective_hand_value():
    # Scalar case: -lam a^2 + 2 a y - mu0 v with v = a^2 K11.
    val = mk.objective([0.5], [1.0], 1.0, [0.25], [1.0], 0.0)
    assert val == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("lam, radius, match", [
    ("1", 1.0, "lam must be a positive finite number"),
    (0.0, 1.0, "lam must be"), (np.nan, 1.0, "lam must be"),
    (1.0, -5.0, "radius must be a nonnegative finite number"),
    (1.0, True, "radius must be"), (1.0, np.nan, "radius must be"),
])
def test_objective_checks_its_scalars(lam, radius, match):
    with pytest.raises(ConfigError, match=match):
        mk.objective(np.ones(3), np.ones(3), lam, np.ones(2), np.ones(2), radius)


@settings(max_examples=25)
@given(seed=st.integers(0, 10_000))
def test_objective_zero_radius_is_plain_dual_value(seed):
    fam, y, lambda0, _ = random_psd_instance(seed, m_range=(4, 15), p_range=(1, 4))
    lam = lambda0 * fam.m
    rng = np.random.default_rng(seed + 7)
    alpha = rng.standard_normal(fam.m)
    v = mk.quad_forms(alpha, fam)
    mu0 = np.ones(fam.p)
    K0 = mk.combine(fam, mu0)
    direct = -lam * alpha @ alpha - alpha @ (K0 @ alpha) + 2 * alpha @ y
    assert mk.objective(alpha, y, lam, v, mu0, 0.0) == pytest.approx(direct, rel=1e-10, abs=1e-10)


# --- feature-space ridge solve -------------------------------------------------

@settings(max_examples=120)
@given(
    m=st.integers(2, 40),
    narrow=st.booleans(),
    seed=st.integers(0, 10_000),
    support=st.sampled_from(("random", "empty", "all-but-one", "m-1", "all")),
)
def test_feature_route_matches_dense_reference(m, narrow, seed, support):
    # Both routes of _ridge_solve against the formed matrix, on families
    # with zero and duplicate columns, p < m (the Woodbury system built
    # from the QR twin's R) and p >= m (built from F), and full, partial
    # and empty supports. The Woodbury route also agrees with an
    # independent one that forms F_S C (helpers.reference_woodbury_solve).
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, m)) if narrow else int(rng.integers(m, 61))
    F = rng.standard_normal((m, p))
    F[:, rng.random(p) < 0.2] = 0.0
    for k in np.flatnonzero(rng.random(p) < 0.2):
        F[:, k] = F[:, rng.integers(p)]
    fam = mk.KernelFamily(F)
    s = {"random": int(rng.integers(0, min(p, m - 1) + 1)), "empty": 0,
         "all-but-one": p - 1, "m-1": min(p, m - 1), "all": p}[support]
    mu = np.zeros(p)
    on = rng.choice(p, size=s, replace=False)
    mu[on] = rng.uniform(0.01, 3.0, size=s)
    y = rng.standard_normal(m)
    lam = float(rng.uniform(0.005, 0.5)) * m
    B = mk.combine(fam, mu) + lam * np.eye(m)
    reference = solver._solve_pd(B, y)
    # The dense solver runs exactly when s >= m.
    solve_pd = mock.Mock(wraps=solver._solve_pd)
    with mock.patch.object(solver, "_solve_pd", solve_pd):
        alpha = solver._ridge_solve(fam, mu, y, lam)
    assert solve_pd.call_count == (s >= m)
    assert (fam._twin is not None) == (p < m)
    assert np.linalg.norm(alpha - reference) <= 1e-10 * np.linalg.norm(reference)
    assert np.linalg.norm(B @ alpha - y) <= 1e-8 * np.linalg.norm(y)
    if s < m:
        replaced = reference_woodbury_solve(fam, mu, y, lam)
        assert np.linalg.norm(alpha - replaced) <= 1e-10 * np.linalg.norm(replaced)
        assert np.linalg.norm(B @ replaced - y) <= 1e-8 * np.linalg.norm(y)


def test_qr_twin_is_the_only_solver_cache_and_read_only():
    # A rank-one family with p < m builds its QR twin (Q, the family of R's
    # columns) on its first Woodbury solve and keeps it read-only; fit_l2's
    # Newton loop and later solves reuse it. A subset or select_kernels
    # child builds its own. A rank-one family with p >= m and a Gram family
    # build nothing: no attribute is added or replaced.
    rng = np.random.default_rng(3)
    F = rng.standard_normal((12, 4))
    y = rng.standard_normal(12)
    fam = mk.KernelFamily(F)
    assert fam._twin is None
    solver._ridge_solve(fam, np.array([1.0, 0.0, 2.0, 0.5]), y, 1.0)
    twin = fam._twin
    Q, T = twin
    assert Q.shape == (12, 4) and T.features.shape == (4, 4)
    npt.assert_allclose(Q.T @ Q, np.eye(4), atol=1e-14)
    npt.assert_allclose(Q @ T.features, F, atol=1e-14)
    for array in (Q, T.features):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 0.0
    mk.fit_l2(fam, y, 0.1, 10.0)
    mk.fit_l2(fam, y, 0.01, 1.0)
    mk.fit_l1(fam, y, 0.1, 1.0)
    assert fam._twin is twin
    for child in (fam.subset(np.arange(2, 12)), fam.select_kernels([1, 3])):
        assert child._twin is None
        solver._ridge_solve(child, np.ones(child.p), y[:child.m], 1.0)
        Q, T = child._twin
        npt.assert_allclose(Q @ T.features, child.features, atol=1e-14)
    assert fam._twin is twin
    gram = mk.KernelFamily.from_grams(kernel_stack(fam))
    wide = mk.KernelFamily(rng.standard_normal((4, 6)))
    for other, w in ((gram, np.ones(4)), (wide, np.array([1.0, 0.0, 0.0, 2.0, 0.0, 0.0]))):
        before = dict(vars(other))
        solver._ridge_solve(other, w, y[:other.m], 1.0)
        mk.fit_l2(other, y[:other.m], 0.1, 10.0)
        mk.fit_l1(other, y[:other.m], 0.1, 1.0)
        assert vars(other).keys() == before.keys()
        assert all(vars(other)[name] is value for name, value in before.items())


@settings(max_examples=80)
@given(
    m=st.integers(2, 30),
    twin=st.booleans(),
    seed=st.integers(0, 10_000),
    columns=st.sampled_from(("random", "zero", "duplicate")),
    radius=st.floats(0.01, 10.0),
)
def test_newton_step_on_rank_one_families_matches_the_dense_jacobian(m, twin, seed, columns,
                                                                     radius):
    # _newton_step forms a rank-one family's H as K(mu + c v) + lam I minus
    # one outer product. It equals the dense Jacobian H = K(mu) + lam I +
    # c Z (I - v^v^') Z' with Z = F diag(P), and its step -H^(-1) R the dense
    # one, on a family with p >= m and on the p-row QR twin of one with
    # p < m, with zero and duplicate columns.
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, m)) if twin else int(rng.integers(m, 2 * m + 2))
    F = rng.standard_normal((m, p))
    if columns == "zero":
        F[:, 1:][:, rng.random(p - 1) < 0.4] = 0.0
    elif columns == "duplicate":
        F[:, -1] = F[:, 0]
    fam = mk.KernelFamily(F)
    alpha, y = rng.standard_normal(m), rng.standard_normal(m)
    Q, fam = fam._qr_twin() or (None, fam)
    assert (Q is not None) == twin
    if twin:
        alpha, y = Q.T @ alpha, Q.T @ y
    F = fam.features
    lam = float(rng.uniform(0.01, 0.5)) * fam.m
    mu0 = np.ones(fam.p)
    seen = []
    solve_pd = solver._solve_pd

    def capture(B, rhs):
        seen.append(B.copy())
        return solve_pd(B, rhs)

    with mock.patch.object(solver, "_solve_pd", capture):
        P, v = solver._projections(alpha, fam)
        mu, d = solver._newton_step(fam, alpha, P, v, y, lam, mu0, radius)
    [H] = seen
    nv = np.linalg.norm(v)
    vhat, c = v / nv, 2.0 * radius / nv
    Z, K = F * P, (F * mu) @ F.T
    H_ref = K + lam * np.eye(fam.m) + c * Z @ (np.eye(fam.p) - np.outer(vhat, vhat)) @ Z.T
    d_ref = -np.linalg.solve(H_ref, K @ alpha + lam * alpha - y)
    npt.assert_allclose(mu, mu0 + radius * vhat, rtol=1e-14)
    assert np.linalg.norm(H - H_ref) <= 1e-10 * np.linalg.norm(H_ref)
    assert np.linalg.norm(d - d_ref) <= 1e-10 * np.linalg.norm(d_ref)


def test_feature_route_reports_eigenvalue_on_failure():
    # A negative shift makes H = C'F'FC + lam I indefinite, which raises
    # NumericalError, which a CV fold records, with H's eigenvalue.
    fam = mk.KernelFamily(np.zeros((3, 1)))
    with pytest.raises(NumericalError) as err:
        solver._ridge_solve(fam, np.ones(1), np.ones(3), -1.0)
    assert "smallest eigenvalue ~ -1.0" in str(err.value)


def test_feature_route_nan_features_raise():
    with pytest.raises(DataError):
        mk.KernelFamily(np.array([[1.0], [np.nan], [0.0]]))
    # A NaN that reaches the feature route through y still raises.
    fam = mk.KernelFamily(np.array([[1.0], [2.0], [0.0]]))
    with pytest.raises(NumericalError):
        solver._ridge_solve(fam, np.ones(1), np.array([1.0, np.nan, 0.0]), 1.0)


@settings(max_examples=60)
@given(m=st.integers(4, 40), q=st.integers(1, 8), seed=st.integers(0, 10_000),
       log_lambda0s=st.lists(st.floats(-6.0, 1.0), min_size=1, max_size=4))
def test_single_kernel_predictions_match_fit_l2(m, q, seed, log_lambda0s):
    # The closed form against exact arithmetic and against the route it
    # replaces in best_single's CV: fit_l2 at radius 0 on each kernel
    # alone, then _predict_rows. The columns include an all-zero one, a
    # duplicate, a negated one and the offset. That route solves
    # f f' + lam I, whose condition number (f'f + lam)/lam reaches 1e7 at
    # lambda0 1e-6, and its prediction f_query f'alpha carries that
    # solve's forward error; the bound against it scales with it.
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((m, q))
    F = np.column_stack([base, np.zeros(m), base[:, 0], -base[:, -1], np.ones(m)])
    F = F[:, rng.permutation(F.shape[1])]
    y = rng.standard_normal(m)
    fam = mk.KernelFamily(F)
    va = np.sort(rng.choice(m, size=m // 3, replace=False))
    tr = np.setdiff1d(np.arange(m), va)
    sub = fam.subset(tr)
    lambda0s = [10.0 ** e for e in log_lambda0s]
    preds = solver._single_kernel_predictions(sub.features, y[tr], F[va], lambda0s)
    assert preds.shape == (len(lambda0s), va.size, fam.p)
    for k in range(fam.p):
        f = [Fraction(v) for v in F[tr, k]]
        fy = sum(a * Fraction(b) for a, b in zip(f, y[tr]))
        ff = sum(a * a for a in f)
        for i, lambda0 in enumerate(lambda0s):
            lam = Fraction(lambda0 * tr.size)
            exact = F[va, k] * float(fy / (ff + lam))
            assert np.linalg.norm(preds[i, :, k] - exact) <= 1e-10 * np.linalg.norm(exact)
            model, _ = mk.fit_l2(sub.select_kernels([k]), y[tr], lambda0, 0.0)
            mu_full = np.zeros(fam.p)
            mu_full[k] = model.weights.mu[0]
            ref = experiment._predict_rows(fam, mu_full, model.alpha, tr, va)
            cond = float((ff + lam) / lam)
            assert np.linalg.norm(preds[i, :, k] - ref) <= 1e-10 * cond * np.linalg.norm(ref)


@settings(max_examples=20)
@given(m=st.integers(2, 20), extra=st.integers(0, 10), seed=st.integers(0, 10_000))
def test_fit_l2_full_support_keeps_dense_route(m, extra, seed):
    # fit_l2 weights are strictly positive, so s = p >= m here.
    rng = np.random.default_rng(seed)
    fam = mk.KernelFamily(rng.standard_normal((m, m + extra)))
    y = rng.standard_normal(m)
    model, _ = mk.fit_l2(fam, y, 0.05, 1.0)
    direct = mk.krr_solve(fam.combined_entries(model.weights.mu), y, model.lam)
    assert model.alpha.tobytes() == direct.tobytes()


def test_feature_route_fits_match_dense_family():
    rng = np.random.default_rng(17)
    X = rng.poisson(1.0, size=(40, 7)).astype(float)
    fam = rank1_all_family(X, include_offset=True)
    dense = mk.KernelFamily.from_grams(kernel_stack(fam))
    assert fam.features is not None and dense.features is None and fam.p < fam.m
    y = X[:, 0] - X[:, 3] + 0.3 * rng.standard_normal(fam.m)
    l2_fast, _ = mk.fit_l2(fam, y, 0.01, 1.0)
    l2_dense, _ = mk.fit_l2(dense, y, 0.01, 1.0)
    npt.assert_allclose(l2_fast.alpha, l2_dense.alpha, rtol=0, atol=1e-9)
    npt.assert_allclose(l2_fast.weights.mu, l2_dense.weights.mu, rtol=0, atol=1e-9)
    assert l2_fast.iterations == l2_dense.iterations
    # The rank-one family is solved on the lasso path, the Gram family by
    # projected gradient, run here to a gap tight enough to pin the weights.
    l1_fast = mk.fit_l1(fam, y, 0.1, 1.0)
    l1_dense = mk.fit_l1(dense, y, 0.1, 1.0, tol=1e-13)
    assert l1_fast.converged and l1_dense.converged
    assert np.count_nonzero(l1_fast.mu) < fam.p
    npt.assert_allclose(l1_fast.alpha, l1_dense.alpha, rtol=0, atol=1e-9)
    npt.assert_allclose(l1_fast.mu, l1_dense.mu, rtol=0, atol=1e-9)


# --- fit_l2 -------------------------------------------------------------------

def test_fit_zero_radius_equals_plain_krr():
    fam, y, lambda0, _ = random_psd_instance(11)
    model, _ = mk.fit_l2(fam, y, lambda0, 0.0)
    direct = mk.krr_solve(mk.combine(fam, np.ones(fam.p)), y, lambda0 * fam.m)
    assert np.linalg.norm(model.alpha - direct) <= 1e-10
    assert model.iterations <= 2
    npt.assert_array_equal(model.weights.mu, np.ones(fam.p))


def test_fit_zero_radius_rank1_family():
    X = np.abs(np.random.default_rng(5).standard_normal((10, 4)))
    fam = rank1_all_family(X, include_offset=True)
    y = np.random.default_rng(6).standard_normal(10)
    model, _ = mk.fit_l2(fam, y, 0.1, 0.0)
    direct = mk.krr_solve(mk.combine(fam, np.ones(fam.p)), y, 0.1 * fam.m)
    assert np.linalg.norm(model.alpha - direct) <= 1e-10


def test_fit_single_kernel_closed_form():
    fam, y, lambda0, radius = random_psd_instance(21, p_range=(1, 1))
    model, _ = mk.fit_l2(fam, y, lambda0, radius)
    assert model.weights.mu[0] == 1.0 + radius
    direct = mk.krr_solve((1.0 + radius) * kernel_stack(fam)[0], y, lambda0 * fam.m)
    npt.assert_array_equal(model.alpha, direct)


def test_fit_matches_oracle_on_random_instance():
    fam, y, lambda0, radius = random_psd_instance(31, m_range=(20, 20), p_range=(5, 5))
    model, report = mk.fit_l2(fam, y, lambda0, radius)
    oracle = mk.oracle_fit(fam, y, lambda0, radius)
    assert abs(report.objective_value - oracle.objective_value) <= 1e-6 * max(
        1.0, abs(oracle.objective_value)
    )


def test_fit_bit_identical_reruns():
    fam, y, lambda0, radius = random_psd_instance(41)
    m1, r1 = mk.fit_l2(fam, y, lambda0, radius)
    m2, r2 = mk.fit_l2(fam, y, lambda0, radius)
    assert m1.alpha.tobytes() == m2.alpha.tobytes()
    assert m1.weights.mu.tobytes() == m2.weights.mu.tobytes()
    assert r1.objective_value == r2.objective_value


def test_fit_max_iters_exhaustion_flagged():
    fam, y, lambda0, radius = random_psd_instance(51)
    model, _ = mk.fit_l2(fam, y, lambda0, radius, max_iters=2, epsilon=1e-15)
    assert not model.converged
    assert model.iterations == 2


def test_fit_parameter_validation():
    fam, y, _, _ = random_psd_instance(71)
    with pytest.raises(ConfigError):
        mk.fit_l2(fam, y, 0.0, 1.0)
    with pytest.raises(ConfigError):
        mk.fit_l2(fam, y, 0.1, -1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ConfigError, match="radius"):
            mk.fit_l2(fam, y, 0.1, bad)
        with pytest.raises(ConfigError, match="lambda0"):
            mk.fit_l2(fam, y, bad, 1.0)
        with pytest.raises(ConfigError, match="mu0"):
            mk.fit_l2(fam, y, 0.1, 1.0, mu0=np.r_[np.ones(fam.p - 1), bad])
    with pytest.raises(ConfigError):
        mk.fit_l2(fam, y, 0.1, 1.0, mu0=np.full(fam.p, 2.0))


def test_family_arguments_must_be_kernel_families():
    fam, y, lambda0, radius = random_psd_instance(72)
    K = kernel_stack(fam)[0]
    model, _ = mk.fit_l2(fam.select_kernels([0]), y, lambda0, radius)
    for call in (lambda: mk.fit_l2([K], y, lambda0, radius),
                 lambda: mk.quad_forms(model.alpha, K),
                 lambda: mk.kkt_residuals(model, [K], y)):
        with pytest.raises(ConfigError, match="KernelFamily"):
            call()


@pytest.mark.parametrize("case", ["dense", "rank1", "dense_v0", "rank1_v0"])
def test_fit_first_iteration_is_the_closed_form_update(case):
    # One iteration takes mu from the closed form applied to v at the
    # anchor-kernel ridge solution; v = 0 (zero targets, or zero feature
    # columns) leaves mu at mu0.
    rng = np.random.default_rng(5)
    if case.startswith("dense"):
        fam, y, lambda0, radius = random_psd_instance(17, p_range=(3, 5))
    else:
        m, p = 12, 5
        F = np.zeros((m, p)) if case == "rank1_v0" else rng.standard_normal((m, p))
        fam = mk.KernelFamily(F)
        y, lambda0, radius = rng.standard_normal(m), 0.05, 0.7
    if case == "dense_v0":
        y = np.zeros(fam.m)
    mu0 = np.r_[1.0, 1.0 + rng.uniform(0.0, 2.0, fam.p - 1)]
    alpha0 = solver._ridge_solve(fam, mu0, y, lambda0 * fam.m)
    v = mk.quad_forms(alpha0, fam)
    assert (not v.any()) == case.endswith("v0")
    model, _ = mk.fit_l2(fam, y, lambda0, radius, mu0=mu0, max_iters=1)
    expected = solver._weight_step(v, mu0, radius)
    npt.assert_array_equal(model.weights.mu, expected)
    if case.endswith("v0"):
        npt.assert_array_equal(model.weights.mu, mu0)


def test_fit_converged_state_is_consistent():
    fam, y, lambda0, radius = random_psd_instance(81)
    model, _ = mk.fit_l2(fam, y, lambda0, radius)
    assert model.converged
    # The returned alpha is the exact ridge solution for the returned mu.
    direct = mk.krr_solve(mk.combine(fam, model.weights.mu), y, model.lam)
    npt.assert_array_equal(model.alpha, direct)
    assert np.all(model.quad >= 0.0)


@pytest.fixture(scope="module")
def criterion_1_fits():
    # The acceptance suite's criterion-1 instances, at the default epsilon.
    fits = []
    for seed in range(100):
        fam, y, lambda0, radius = random_psd_instance(seed)
        fits.append((y, mk.fit_l2(fam, y, lambda0, radius)[0]))
    return fits


def test_fit_newton_iterations_on_criterion_1_instances(criterion_1_fits):
    iters = [model.iterations for _, model in criterion_1_fits]
    assert all(model.converged for _, model in criterion_1_fits)
    assert float(np.median(iters)) <= 5.0


def test_fit_certificate_gap_on_criterion_1_instances(criterion_1_fits):
    for y, model in criterion_1_fits:
        assert model.certificate_gap <= 1e-12 * max(1.0, float(y @ model.alpha))


def test_fit_certificate_gap_is_zero_at_radius_zero():
    fam, y, lambda0, _ = random_psd_instance(13)
    model, _ = mk.fit_l2(fam, y, lambda0, 0.0)
    assert model.certificate_gap == 0.0
    assert model.iterations == 1 and model.final_step == 0.0


def _scaled_instance(kind, m, seed, radius):
    # Kernels scaled as in criterion 1: the largest feasible combined
    # kernel sum_k (1 + radius) K_k has unit spectral norm, the scale at
    # which criterion 1's absolute tolerance 10 epsilon is meaningful.
    # Rank-one families get some all-zero feature columns.
    rng = np.random.default_rng(seed)
    if kind == "gram":
        mats = []
        for _ in range(int(rng.integers(1, 7))):
            A = rng.standard_normal((m, int(rng.integers(1, m + 1))))
            mats.append(A @ A.T)
        scale = np.linalg.eigvalsh(sum(mats))[-1] * (1.0 + radius)
        fam = mk.KernelFamily.from_grams([K / scale for K in mats])
    else:
        p = int(rng.integers(m, m + 8)) if kind == "rank1_wide" else int(rng.integers(1, m))
        F = rng.standard_normal((m, p))
        F[:, rng.random(p) < 0.2] = 0.0
        scale = max(np.linalg.norm(F, 2), 1.0) * np.sqrt(1.0 + radius)
        fam = mk.KernelFamily(F / scale)
    return fam, rng.standard_normal(m)


@settings(max_examples=40)
@given(kind=st.sampled_from(["gram", "rank1_wide", "rank1_narrow"]),
       m=st.integers(3, 20), seed=st.integers(0, 10_000),
       radius=st.floats(0.0, 1e3), lambda0=st.floats(0.01, 1.0))
def test_fit_l2_matches_oracle(kind, m, seed, radius, lambda0):
    # Gram families, rank-one families with p >= m (dense Newton matrix)
    # and p < m (Woodbury route), against the projected-gradient reference
    # at criterion 2's objective bound and criterion 1's KKT bound.
    fam, y = _scaled_instance(kind, m, seed, radius)
    assert (fam.features is None) == (kind == "gram")
    model, report = mk.fit_l2(fam, y, lambda0, radius)
    oracle = mk.oracle_fit(fam, y, lambda0, radius)
    assert model.converged
    assert abs(report.objective_value - oracle.objective_value) <= 1e-6 * max(
        1.0, abs(oracle.objective_value))
    epsilon = 1e-8 * (1.0 + float(np.linalg.norm(y)))
    assert max(mk.kkt_residuals(model, fam, y)) <= 10.0 * epsilon


def test_fit_damped_newton_matches_oracle():
    # At a small ridge and a large radius some full Newton step lowers the
    # reduced dual J, so the fit must backtrack. J is evaluated at the
    # start, at every trial step and for the report: a fit that never
    # halves a step evaluates it iterations + 1 times.
    rng = np.random.default_rng(1)
    fam = mk.KernelFamily(rng.standard_normal((30, 12)))
    y = rng.standard_normal(30)
    with mock.patch.object(solver, "_objective", wraps=solver._objective) as spy:
        model, report = mk.fit_l2(fam, y, 1e-4, 1e3)
    assert model.converged
    assert spy.call_count > model.iterations + 1
    oracle = mk.oracle_fit(fam, y, 1e-4, 1e3)
    assert abs(report.objective_value - oracle.objective_value) <= 1e-6 * max(
        1.0, abs(oracle.objective_value))


def _start(kind, m, seed, scale=1.0):
    # A random, a zero or a far-off start vector of length m.
    rng = np.random.default_rng(seed)
    return {"random": scale * rng.standard_normal(m), "zero": np.zeros(m),
            "far": 100.0 * scale * rng.standard_normal(m)}[kind]


@settings(max_examples=40)
@given(kind=st.sampled_from(["gram", "rank1_wide", "rank1_narrow"]),
       m=st.integers(3, 20), seed=st.integers(0, 10_000),
       radius=st.floats(0.0, 1e3), lambda0=st.floats(0.01, 1.0),
       start=st.sampled_from(["random", "zero", "far"]))
def test_fit_l2_from_any_start_matches_cold_fit_and_oracle(kind, m, seed, radius, lambda0,
                                                           start):
    # Damped Newton on the strictly concave reduced dual converges from
    # any start, at test_fit_l2_matches_oracle's bounds. At radius 0 the
    # start is ignored and the fit is the cold one bit for bit.
    fam, y = _scaled_instance(kind, m, seed, radius)
    s = _start(start, m, seed + 1)
    cold, cold_report = mk.fit_l2(fam, y, lambda0, radius)
    model, report = mk.fit_l2(fam, y, lambda0, radius, start=s)
    assert model.converged
    if radius == 0.0:
        npt.assert_array_equal(model.alpha, cold.alpha)
        npt.assert_array_equal(model.weights.mu, cold.weights.mu)
        npt.assert_array_equal(model.quad, cold.quad)
        assert (model.iterations, model.final_step, model.certificate_gap) == (
            cold.iterations, cold.final_step, cold.certificate_gap)
        assert report.objective_value == cold_report.objective_value
        return
    oracle = mk.oracle_fit(fam, y, lambda0, radius)
    for value in (cold_report.objective_value, oracle.objective_value):
        assert abs(report.objective_value - value) <= 1e-6 * max(1.0, abs(value))
    epsilon = 1e-8 * (1.0 + float(np.linalg.norm(y)))
    assert max(mk.kkt_residuals(model, fam, y)) <= 10.0 * epsilon


@settings(max_examples=60)
@given(m=st.integers(3, 20), seed=st.integers(0, 10_000),
       columns=st.sampled_from(["random", "zero", "duplicate", "rank_deficient"]),
       log_lambda0=st.floats(-6.0, 0.0),
       radius=st.one_of(st.just(0.0), st.floats(0.0, 1e3), st.just(1e3)),
       start=st.sampled_from(["cold", "warm", "outside"]))
def test_fit_l2_qr_twin_matches_the_formed_loop(m, seed, columns, log_lambda0, radius, start):
    # On a rank-one family with p < m the Newton loop runs on the p-row QR
    # twin; the Gram stack of the same kernels runs the m x m formed loop.
    # Both reach the same fixed point, from a cold start, a fit at another
    # lambda0 and a start with a part outside range(F), which moves no v_k.
    # From lambda0 = 1e-3 up they agree to the bounds of criterion 1.
    # Below it, at large radii, the formed loop's v carries the roundoff of
    # alpha's large part outside range(F): there it may stop unconverged
    # or miss criterion 1, and the twin must do no worse.
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, m))
    F = rng.standard_normal((m, p))
    if columns == "zero":
        F[:, rng.random(p) < 0.3] = 0.0
    elif columns == "duplicate":
        F[:, -1] = F[:, 0]
    elif columns == "rank_deficient":
        rank = max(1, p // 2)
        F = F[:, :rank] @ rng.standard_normal((rank, p))
    fam = mk.KernelFamily(F / (max(np.linalg.norm(F, 2), 1.0) * np.sqrt(1.0 + radius)))
    gram = mk.KernelFamily.from_grams(kernel_stack(fam))
    y = rng.standard_normal(m)
    lambda0 = 10.0 ** log_lambda0
    s = {"cold": None,
         "warm": mk.fit_l2(fam, y, 10.0 * lambda0, radius)[0].alpha,
         "outside": fam.features @ rng.standard_normal(p) + rng.standard_normal(m)}[start]
    twin, twin_report = mk.fit_l2(fam, y, lambda0, radius, start=s)
    formed, formed_report = mk.fit_l2(gram, y, lambda0, radius, start=s)
    assert twin.converged
    epsilon = 1e-8 * (1.0 + float(np.linalg.norm(y)))
    twin_kkt, formed_kkt = (max(mk.kkt_residuals(model, fam, y)) for model in (twin, formed))
    if lambda0 >= 1e-3:
        assert formed.converged
        assert twin_kkt <= 10.0 * epsilon
        for a, b in ((twin.weights.mu, formed.weights.mu), (twin.alpha, formed.alpha)):
            assert np.linalg.norm(a - b) <= 1e-9 * np.linalg.norm(b)
        return
    value = formed_report.objective_value
    assert abs(twin_report.objective_value - value) <= 1e-10 * abs(value)
    assert twin_kkt <= max(10.0 * epsilon, formed_kkt)
    if formed.converged and formed_kkt <= 10.0 * epsilon:
        for a, b, rtol in ((twin.weights.mu, formed.weights.mu, 1e-8),
                           (twin.alpha, formed.alpha, 1e-9)):
            assert np.linalg.norm(a - b) <= rtol * np.linalg.norm(b)


def test_fit_l2_qr_twin_weights_of_equal_kernels_meet_the_kkt_bound():
    # Two equal feature columns give R columns equal only to roundoff, and
    # a start outside range(F) at a tiny ridge leaves Q'alpha a large part
    # along Q's column outside range(F). The twin's v would carry that
    # roundoff into mu; the weights returned are the closed form of the
    # full family's v, as without the twin, and meet criterion 1's bound.
    for seed in range(100):
        rng = np.random.default_rng(seed)
        f = rng.standard_normal(3)
        fam = mk.KernelFamily(np.column_stack([f, f]) / (np.linalg.norm(f) * np.sqrt(2002.0)))
        y = rng.standard_normal(3)
        s = fam.features @ rng.standard_normal(2) + rng.standard_normal(3)
        model, _ = mk.fit_l2(fam, y, 1e-6, 1e3, start=s)
        epsilon = 1e-8 * (1.0 + float(np.linalg.norm(y)))
        assert model.converged
        assert max(mk.kkt_residuals(model, fam, y)) <= 10.0 * epsilon


def test_fit_l2_start_at_the_cold_fit_ends_there():
    # Started from a converged fit's alpha, Newton's first step is
    # already below epsilon.
    fam, y, lambda0, radius = random_psd_instance(21)
    cold, report = mk.fit_l2(fam, y, lambda0, radius)
    warm, warm_report = mk.fit_l2(fam, y, lambda0, radius, start=cold.alpha)
    assert cold.iterations > 1 and warm.iterations == 1 and warm.converged
    assert warm_report.objective_value == pytest.approx(report.objective_value, rel=1e-12)


@settings(max_examples=30)
@given(m=st.integers(3, 20), seed=st.integers(0, 10_000), lambda0=st.floats(0.01, 1.0),
       budget=st.floats(0.1, 100.0), start=st.sampled_from(["random", "zero", "far"]))
def test_gram_fit_l1_from_any_start_stays_certified(m, seed, lambda0, budget, start):
    # Projected gradient projects any start onto the feasible set and
    # stops on the Frank-Wolfe certificate, so a start changes only the
    # steps: both fits lie within tol of the optimum.
    fam, y = _scaled_instance("gram", m, seed, 0.0)
    tol = 1e-8
    cold = mk.fit_l1(fam, y, lambda0, budget, tol=tol)
    warm = mk.fit_l1(fam, y, lambda0, budget, tol=tol,
                     start=(np.abs(_start(start, fam.p, seed + 1, budget)), 0))
    for fit in (cold, warm):
        assert fit.converged
        assert fit.certificate_gap <= tol * max(1.0, abs(fit.objective_value))
    assert abs(warm.objective_value - cold.objective_value) <= tol * max(
        1.0, abs(warm.objective_value), abs(cold.objective_value))


def test_fit_l2_start_must_match_the_family():
    fam, y, lambda0, radius = random_psd_instance(8)
    with pytest.raises(ShapeError, match="start"):
        mk.fit_l2(fam, y, lambda0, radius, start=np.ones(fam.m + 1))


# --- projections --------------------------------------------------------------

@settings(max_examples=50)
@given(p=st.integers(1, 8), seed=st.integers(0, 5000), radius=st.floats(0.0, 5.0))
def test_ball_cone_projection_is_nearest_point(p, seed, radius):
    rng = np.random.default_rng(seed)
    mu0 = 1.0 + rng.uniform(0.0, 2.0, size=p)
    mu0[int(rng.integers(p))] = 1.0
    x = mu0 + rng.normal(scale=3.0, size=p)
    z = project_ball_cone(x, mu0, radius)
    assert np.all(z >= mu0)
    assert np.linalg.norm(z - mu0) <= radius * (1 + 1e-12) + 1e-15
    npt.assert_allclose(project_ball_cone(z, mu0, radius), z, rtol=0, atol=1e-12)
    # Variational characterization: (x - z)'(w - z) <= 0 for w in the set.
    for _ in range(20):
        u = np.abs(rng.normal(size=p))
        w = mu0 + u * (radius * rng.uniform() / np.linalg.norm(u))
        assert (x - z) @ (w - z) <= 1e-9
    # Above the anchor the cone clip is inert: the plain ball clip, bit for bit.
    x_up = mu0 + np.abs(x - mu0)
    d = x_up - mu0
    nd = float(np.linalg.norm(d))
    ball = mu0 + d * (radius / nd) if nd > radius else x_up
    assert project_ball_cone(x_up, mu0, radius).tobytes() == ball.tobytes()


@pytest.mark.parametrize("radius", [-1.0, np.nan, np.inf, True, "1"])
def test_ball_cone_projection_rejects_a_bad_radius(radius):
    # Radius -1 would return a point outside the set, and NaN x unclipped.
    with pytest.raises(ConfigError, match="radius"):
        project_ball_cone([3.0, 3.0], [1.0, 1.0], radius)


@settings(max_examples=50)
@given(p=st.integers(1, 8), seed=st.integers(0, 5000), budget=st.floats(0.1, 10.0))
def test_l1_projection_is_nearest_point(p, seed, budget):
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=2.0, size=p)
    z = project_l1_orthant(x, budget)
    assert np.all(z >= 0.0)
    assert z.sum() <= budget * (1 + 1e-12)
    npt.assert_allclose(project_l1_orthant(z, budget), z, rtol=0, atol=1e-12)
    # Variational characterization: (x - z)'(w - z) <= 0 for feasible w.
    for _ in range(20):
        w = rng.uniform(0.0, 1.0, size=p)
        s = w.sum()
        if s > budget:
            w *= budget / s
        assert (x - z) @ (w - z) <= 1e-9


# --- oracle_fit ----------------------------------------------------------------

def test_oracle_zero_radius():
    fam, y, lambda0, _ = random_psd_instance(91)
    res = mk.oracle_fit(fam, y, lambda0, 0.0)
    npt.assert_array_equal(res.weights.mu, np.ones(fam.p))
    assert res.converged
    assert res.iterations == 0
    assert res.certificate_gap == 0.0


def test_oracle_single_kernel_closed_form():
    fam, y, lambda0, radius = random_psd_instance(101, p_range=(1, 1))
    res = mk.oracle_fit(fam, y, lambda0, radius)
    assert res.weights.mu[0] == pytest.approx(1.0 + radius, rel=1e-7)


def test_oracle_certificate_is_sound_against_grid():
    fam, y, lambda0, radius = random_psd_instance(111, m_range=(6, 10), p_range=(2, 2))
    res = mk.oracle_fit(fam, y, lambda0, radius)
    mats = list(kernel_stack(fam))
    pts = ball_grid_points(np.ones(2), radius, 0.01 * radius)
    grid_min = dual_objective_grid_min(mats, y, lambda0 * fam.m, pts)
    assert res.objective_value <= grid_min + 1e-8 * max(1.0, abs(grid_min))


@pytest.mark.parametrize("seed,radius", [(131, 1.0), (132, 3.0), (133, 10.0)])
def test_oracle_matches_fit_at_large_radius(seed, radius):
    # Radii at or above min(mu0) = 1: the ball reaches outside the orthant.
    fam, y, lambda0, _ = random_psd_instance(seed, m_range=(8, 20), p_range=(2, 6))
    _, report = mk.fit_l2(fam, y, lambda0, radius)
    oracle = mk.oracle_fit(fam, y, lambda0, radius)
    assert abs(report.objective_value - oracle.objective_value) <= 1e-6 * max(
        1.0, abs(oracle.objective_value)
    )


def test_oracle_rejects_large_instances():
    fam = mk.KernelFamily.from_grams([np.eye(201)])
    with pytest.raises(ConfigError):
        mk.oracle_fit(fam, np.ones(201), 0.1, 1.0)


@pytest.mark.parametrize("radius", [-0.5, np.nan, np.inf])
def test_oracle_rejects_bad_radius(radius):
    fam, y, lambda0, _ = random_psd_instance(91)
    with pytest.raises(ConfigError, match="radius"):
        mk.oracle_fit(fam, y, lambda0, radius)


# --- fit_l1 ---------------------------------------------------------------------

def test_l1_single_kernel_takes_full_budget():
    fam, y, lambda0, _ = random_psd_instance(121, p_range=(1, 1))
    res = mk.fit_l1(fam, y, lambda0, 2.5)
    assert res.converged
    assert res.mu[0] == pytest.approx(2.5, rel=1e-6)


def test_l1_duplicate_kernels_match_single_kernel_objective():
    fam, y, lambda0, _ = random_psd_instance(131, p_range=(1, 1))
    K = kernel_stack(fam)[0]
    twin = mk.KernelFamily.from_grams([K, K.copy()])
    single = mk.fit_l1(fam, y, lambda0, 2.0)
    double = mk.fit_l1(twin, y, lambda0, 2.0)
    assert double.objective_value == pytest.approx(single.objective_value, rel=1e-6)


def test_l1_matches_simplex_grid():
    for seed in (141, 142):
        fam, y, lambda0, _ = random_psd_instance(seed, m_range=(10, 10), p_range=(3, 3))
        budget = 1.5
        res = mk.fit_l1(fam, y, lambda0, budget)
        assert res.converged
        pts = simplex_grid_points(3, budget, 100)
        grid_min = dual_objective_grid_min(kernel_stack(fam), y,
                                           lambda0 * fam.m, pts)
        scale = max(1.0, abs(grid_min))
        # Certified solution is never worse than any lattice point; the
        # lattice can only be worse by a first-order term of its spacing.
        assert res.objective_value <= grid_min + 1e-8 * scale
        vstar = mk.quad_forms(res.alpha, fam)
        allowance = max(np.linalg.norm(vstar), 1.0) * (0.01 * budget) * 4.0
        assert grid_min - res.objective_value <= allowance


@settings(max_examples=12)
@given(seed=st.integers(0, 10_000), budget=st.floats(0.2, 5.0))
def test_l1_never_worse_than_simplex_grid(seed, budget):
    # The nonmonotone line search may raise the objective for a few steps;
    # the certified end point must still beat every lattice point.
    fam, y, lambda0, _ = random_psd_instance(seed, m_range=(10, 10), p_range=(3, 3))
    res = mk.fit_l1(fam, y, lambda0, budget)
    assert res.converged
    pts = simplex_grid_points(3, budget, 100)
    grid_min = dual_objective_grid_min(kernel_stack(fam), y,
                                       lambda0 * fam.m, pts)
    assert res.objective_value <= grid_min + 1e-8 * max(1.0, abs(grid_min))
    vstar = mk.quad_forms(res.alpha, fam)
    allowance = max(np.linalg.norm(vstar), 1.0) * (0.01 * budget) * 4.0
    assert grid_min - res.objective_value <= allowance


@settings(max_examples=40)
@given(seed=st.integers(0, 10_000), budget=st.floats(0.2, 3.0),
       c=st.sampled_from((0.1, 10.0, 100.0)))
def test_l1_scale_equivalent_combos_give_same_predictor(seed, budget, c):
    # K(c mu) + c lam I = c (K(mu) + lam I): mu scales by c, alpha by 1/c,
    # the objective y'alpha by 1/c, and the predictor K(mu) alpha is fixed.
    # The default tol certifies the objective, not the weights, so both
    # fits run to a tighter gap.
    fam, y, lambda0, _ = random_psd_instance(seed, m_range=(5, 20), p_range=(1, 6))
    base = mk.fit_l1(fam, y, lambda0, budget, tol=1e-11)
    scaled = mk.fit_l1(fam, y, c * lambda0, c * budget, tol=1e-11)
    assert base.converged and scaled.converged
    npt.assert_allclose(scaled.mu, c * base.mu, rtol=0, atol=1e-6 * c * budget)
    assert scaled.objective_value == pytest.approx(base.objective_value / c, rel=1e-6)
    grams = kernel_stack(fam)
    pred = sum(w * K for w, K in zip(base.mu, grams)) @ base.alpha
    pred_scaled = sum(w * K for w, K in zip(scaled.mu, grams)) @ scaled.alpha
    assert np.linalg.norm(pred_scaled - pred) <= 1e-6 * np.linalg.norm(pred)


def _rank1_case(m, wide, extra, seed):
    # Feature columns with m < p and m > p, holding an all-zero column, a
    # duplicated column and a negated duplicate (equal kernels), and targets.
    rng = np.random.default_rng(seed)
    q = m + 1 + extra if wide else max(2, m - 3 - extra)
    base = rng.standard_normal((m, q))
    F = np.column_stack([base, np.zeros(m), base[:, 0], -base[:, 1]])
    F = F[:, rng.permutation(F.shape[1])]
    y = base[:, :2] @ rng.standard_normal(2) + 0.3 * rng.standard_normal(m)
    return F, y


_RANK1_CASES = dict(m=st.integers(4, 20), wide=st.booleans(), extra=st.integers(0, 8),
                    seed=st.integers(0, 10_000))
# (log10 lambda0, budget) pairs: three to six L1 classes sharing one path.
_L1_CLASSES = st.lists(st.tuples(st.floats(-3.0, -1.0), st.floats(0.5, 100.0)),
                       min_size=3, max_size=6)


@_NO_PATH_WARNINGS
@settings(max_examples=100)
@given(**_RANK1_CASES, log_lambda0=st.floats(-3.0, -1.0), budget=st.floats(0.5, 100.0))
def test_l1_path_start_matches_projected_gradient(m, wide, extra, seed, log_lambda0, budget):
    F, y = _rank1_case(m, wide, extra, seed)
    fam = mk.KernelFamily(F)
    lambda0 = 10.0 ** log_lambda0
    res = mk.fit_l1(fam, y, lambda0, budget)
    ref = mk.fit_l1(mk.KernelFamily.from_grams(kernel_stack(fam)), y, lambda0, budget,
                    tol=1e-12, max_iters=50000)
    assert res.converged and ref.converged
    assert res.objective_value == pytest.approx(ref.objective_value, rel=1e-8)
    assert res.certificate_gap <= 1e-10 * max(1.0, abs(res.objective_value))


def _assert_same_stops(stops, expected):
    assert len(stops) == len(expected)
    for (mu, knots), (mu_ref, knots_ref) in zip(stops, expected):
        assert knots == knots_ref
        assert (mu is None) == (mu_ref is None)
        if mu is not None:
            assert np.max(np.abs(mu - mu_ref)) <= 1e-10 * np.max(np.abs(mu_ref))


@_NO_PATH_WARNINGS
def test_l1_path_stops_match_one_walk_per_class():
    # One shared walk stops each class where a walk of its own would, and
    # fit_l1 given that stop as its start fits what its own walk fits.
    # Columns leave the active set on some of these paths, so the downdate
    # of the active-block factor runs.
    leaves = []
    delete = solver._chol_delete

    def counting_delete(L, i, lower):
        leaves.append(i)
        return delete(L, i, lower)

    @settings(max_examples=100)
    @given(**_RANK1_CASES, classes=_L1_CLASSES)
    def check(m, wide, extra, seed, classes):
        F, y = _rank1_case(m, wide, extra, seed)
        combos = [(10.0 ** log_lambda0, budget) for log_lambda0, budget in classes]
        classes = [(lambda0 * m, budget) for lambda0, budget in combos]
        with mock.patch.object(solver, "_chol_delete", counting_delete):
            stops = solver._l1_path_stops(F, y, classes)
        _assert_same_stops(stops, [solver._l1_path_stops(F, y, [c])[0] for c in classes])
        fam = mk.KernelFamily(F)
        own = mk.fit_l1(fam, y, *combos[0])
        given_start = mk.fit_l1(fam, y, *combos[0], start=stops[0])
        npt.assert_array_equal(given_start.mu, own.mu)
        assert given_start.iterations == own.iterations

    check()
    assert leaves


@_NO_PATH_WARNINGS
@settings(max_examples=60)
@given(**_RANK1_CASES, classes=_L1_CLASSES)
def test_l1_path_stops_refactor_when_an_update_loses_definiteness(m, wide, extra, seed,
                                                                   classes):
    # Every join and leave reports a lost factor here, so each knot
    # factors its active block from scratch; the stops must not move.
    F, y = _rank1_case(m, wide, extra, seed)
    classes = [(10.0 ** log_lambda0 * m, budget) for log_lambda0, budget in classes]
    stops = solver._l1_path_stops(F, y, classes)
    with mock.patch.object(solver, "_chol_append", return_value=None) as append, \
            mock.patch.object(solver, "_chol_delete", return_value=None) as delete:
        refactored = solver._l1_path_stops(F, y, classes)
    _assert_same_stops(refactored, stops)
    # Each knot after the first follows one join or one leave.
    assert append.call_count + delete.call_count == max(knots for _, knots in stops) - 1


# Orthogonal columns with equal |F'y|, and columns F'y misses entirely.
_TIED_CASES = [
    (np.eye(4), np.array([2.0, 2.0, 1.0, -1.0])),
    (np.kron(np.eye(3), np.ones((2, 1))), np.array([1.0, 1.0, -1.0, -1.0, 0.5, 0.5])),
]
_MISSED_CASE = (np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]),
                np.array([1.0, -1.0, 2.0, -2.0]))


@_NO_PATH_WARNINGS
@pytest.mark.parametrize("F, y", _TIED_CASES)
@pytest.mark.parametrize("lambda0, budget", [(0.01, 1.0), (0.1, 10.0), (0.001, 100.0)])
def test_l1_path_start_handles_tied_columns(F, y, lambda0, budget):
    # Orthogonal columns with equal |F'y|: tied columns join the path at
    # the same knot and share the weight.
    fam = mk.KernelFamily(F)
    res = mk.fit_l1(fam, y, lambda0, budget)
    ref = mk.fit_l1(mk.KernelFamily.from_grams(kernel_stack(fam)), y, lambda0, budget,
                    tol=1e-12, max_iters=50000)
    assert res.converged
    assert res.certificate_gap <= 1e-10 * max(1.0, abs(res.objective_value))
    assert res.objective_value == pytest.approx(ref.objective_value, rel=1e-8)
    assert res.mu[0] == pytest.approx(res.mu[1], rel=1e-12)


@_NO_PATH_WARNINGS
def test_l1_path_start_declines_when_features_miss_the_targets():
    # F'y = 0: every feasible mu is optimal, so the path has no start and
    # fit_l1 certifies the uniform weights before any step.
    F, y = _MISSED_CASE
    assert solver._l1_path_stops(F, y, [(0.4, 2.0), (0.4, 20.0)]) == [(None, 0), (None, 0)]
    res = mk.fit_l1(mk.KernelFamily(F), y, 0.1, 2.0)
    assert res.converged and res.iterations == 0
    npt.assert_array_equal(res.mu, [1.0, 1.0])


def _assert_identical_stops(stops, expected):
    assert len(stops) == len(expected)
    for (mu, knots), (mu_ref, knots_ref) in zip(stops, expected):
        assert knots == knots_ref
        assert (mu is None) == (mu_ref is None)
        if mu is not None:
            npt.assert_array_equal(mu, mu_ref)


@_NO_PATH_WARNINGS
def test_l1_path_stops_match_the_reference_walk_bit_for_bit():
    # The in-place walk makes the floating-point operations of the walk it
    # replaced (tests/helpers.py), so its stops are the same bits and its
    # knot counts the same. Columns leave on some of these paths.
    leaves = []
    delete = solver._chol_delete

    def counting_delete(L, i, lower):
        leaves.append(i)
        return delete(L, i, lower)

    @settings(max_examples=100)
    @given(**_RANK1_CASES, classes=_L1_CLASSES)
    def check(m, wide, extra, seed, classes):
        F, y = _rank1_case(m, wide, extra, seed)
        classes = [(10.0 ** log_lambda0 * m, budget) for log_lambda0, budget in classes]
        with mock.patch.object(solver, "_chol_delete", counting_delete):
            stops = solver._l1_path_stops(F, y, classes)
        _assert_identical_stops(stops, reference_l1_path_stops(F, y, classes))

    check()
    assert leaves


@_NO_PATH_WARNINGS
@pytest.mark.parametrize("F, y", _TIED_CASES + [_MISSED_CASE], ids=["eye", "blocks", "missed"])
def test_l1_path_stops_match_the_reference_walk_on_ties_and_misses(F, y):
    classes = [(lambda0 * len(y), budget)
               for lambda0, budget in [(0.01, 1.0), (0.1, 10.0), (0.001, 100.0)]]
    _assert_identical_stops(solver._l1_path_stops(F, y, classes),
                            reference_l1_path_stops(F, y, classes))


@pytest.mark.parametrize("i", [0, 3, 6])
def test_chol_delete_reads_only_the_lower_triangle(i):
    # A factor whose upper triangle holds NaN deletes to the same bits as
    # the clean one, and those are the reference downdate's bits.
    rng = np.random.default_rng(4)
    B = rng.standard_normal((7, 9))
    B = B @ B.T
    L = np.asfortranarray(np.linalg.cholesky(B))
    dirty = L.copy(order="F")
    dirty[np.triu_indices(7, 1)] = np.nan
    # The walk's mask is np.tri of its column count, larger than the factor.
    lower = np.tri(9, dtype=bool)
    out = solver._chol_delete(L, i, lower)
    npt.assert_array_equal(solver._chol_delete(dirty, i, lower), out)
    npt.assert_array_equal(out, _reference_chol_delete(L, i))
    rest = np.delete(np.arange(7), i)
    npt.assert_allclose(out @ out.T, B[np.ix_(rest, rest)], rtol=1e-12, atol=1e-12)


def test_chol_append_and_delete_report_a_block_that_loses_definiteness():
    L = np.array([[2.0, 0.0], [1.0, 1.0]], order="F")  # factor of [[4, 2], [2, 2]]
    grown = solver._chol_append(L, np.array([2.0, 1.0]), 5.0)
    npt.assert_allclose(grown @ grown.T, [[4.0, 2.0, 2.0], [2.0, 2.0, 1.0], [2.0, 1.0, 5.0]],
                        rtol=1e-15)
    assert not np.triu(grown, 1).any()
    # The new row is (1, 0), so a corner entry of 1 leaves the pivot 0 (a
    # singular block) and one of 0.5 a negative pivot (an indefinite one).
    assert solver._chol_append(L, np.array([2.0, 1.0]), 1.0) is None
    assert solver._chol_append(L, np.array([2.0, 1.0]), 0.5) is None
    # A factor of the singular PSD B = [[1, 1, 0], [1, 1, 0], [0, 0, 0]]:
    # deleting row and column 0 leaves [[1, 0], [0, 0]], which dpotrf
    # cannot factor; deleting the last keeps [[1, 1], [1, 1]]'s factor.
    L = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], order="F")
    lower = np.tri(3, dtype=bool)
    assert solver._chol_delete(L, 0, lower) is None
    npt.assert_array_equal(solver._chol_delete(L, 2, lower), [[1.0, 0.0], [1.0, 0.0]])


def _one_failure(fn, calls):
    # fn with its call number ``calls`` (from 1) answered by None instead.
    count = [0]

    def wrapped(*args, **kwargs):
        count[0] += 1
        return None if count[0] == calls else fn(*args, **kwargs)
    return wrapped


@_NO_PATH_WARNINGS
@pytest.mark.parametrize("seed", [0, 1, 3])
def test_l1_path_refactors_after_one_lost_update(seed):
    # One join whose update reports a lost factor: the next knot factors
    # its block from scratch, and the walk continues with updates.
    F, y = _rank1_case(8, True, 2, seed)
    classes = [(lambda0 * 8, budget) for lambda0, budget in [(1e-3, 100.0), (0.01, 1.0)]]
    stops = solver._l1_path_stops(F, y, classes)
    assert max(knots for _, knots in stops) > 3
    append = solver._chol_append
    with mock.patch.object(solver, "_chol_append", _one_failure(append, 2)):
        refactored = solver._l1_path_stops(F, y, classes)
    _assert_same_stops(refactored, stops)


@_NO_PATH_WARNINGS
def test_l1_path_gives_way_when_the_refactor_fails():
    # A lost update followed by a failed from-scratch factorization ends the
    # walk: every class still walking gets no stop, with the knots walked,
    # and fit_l1 then certifies from the uniform start.
    F, y = _rank1_case(8, True, 2, 0)
    lam, budget = 1e-3 * 8, 100.0
    (_, knots), = solver._l1_path_stops(F, y, [(lam, budget)])
    dpotrf = scipy.linalg.lapack.dpotrf

    def failing_second(B, **kwargs):
        failing_second.calls += 1
        return (B, 1) if failing_second.calls == 2 else dpotrf(B, **kwargs)
    failing_second.calls = 0
    with mock.patch.object(solver, "_chol_append", _one_failure(solver._chol_append, 1)), \
            mock.patch.object(scipy.linalg.lapack, "dpotrf", failing_second):
        assert solver._l1_path_stops(F, y, [(lam, budget)]) == [(None, 2)]
    assert knots > 2
    fit = mk.fit_l1(mk.KernelFamily(F), y, 1e-3, budget, start=(None, 2))
    assert fit.converged and fit.iterations > 2


@_NO_PATH_WARNINGS
def test_l1_path_cap_falls_back_to_the_uniform_start(monkeypatch):
    # This class stops after 12 knots on a path over 10 distinct columns;
    # a cap of one knot per column ends the walk first.
    F, y = _rank1_case(6, True, 2, 0)
    fam = mk.KernelFamily(F)
    lambda0, budget = 1e-3, 100.0
    assert solver._distinct_columns(F).size == 10
    assert solver._l1_path_stops(F, y, [(lambda0 * 6, budget)])[0][1] == 12
    own = mk.fit_l1(fam, y, lambda0, budget)
    monkeypatch.setattr(solver, "L1_PATH_MAX_KNOTS", 1)
    assert solver._l1_path_stops(F, y, [(lambda0 * 6, budget)]) == [(None, 10)]
    capped = mk.fit_l1(fam, y, lambda0, budget, max_iters=20000)
    assert capped.converged and capped.iterations > 10
    assert capped.objective_value == pytest.approx(own.objective_value, rel=1e-7)


@pytest.mark.parametrize("stuck", ["fixed_point", "no_descent"])
def test_pgd_stops_where_no_step_makes_progress(stuck):
    # A projection that maps every point to the start, or a value that rises
    # off the start whatever the step: the run stops after one iteration,
    # unconverged, and reports the start with its Frank-Wolfe gap.
    x0 = np.zeros(2)

    def value_grad(x):
        return (0.0 if np.array_equal(x, x0) else 1.0), np.array([1.0, 0.0]), "extra"

    def project(x):
        return x0.copy() if stuck == "fixed_point" else x

    x, val, extra, converged, iters, gap = solver._pgd_minimize(
        value_grad, project, lambda g: np.array([-1.0, 0.0]), x0, 1e-9, 100)
    npt.assert_array_equal(x, x0)
    assert (val, extra, converged, iters, gap) == (0.0, "extra", False, 1, 1.0)


@_NO_PATH_WARNINGS
def test_l1_start_must_match_the_family():
    F, y = _rank1_case(8, True, 2, 5)
    fam = mk.KernelFamily(F)
    with pytest.raises(ShapeError, match="start"):
        mk.fit_l1(fam, y, 0.01, 2.0, start=(np.ones(fam.p + 1), 0))
    # A start is only where projected gradient begins; the certificate
    # decides. A None weight vector is the uniform start.
    own = mk.fit_l1(fam, y, 0.01, 2.0)
    uniform = mk.fit_l1(fam, y, 0.01, 2.0, start=(None, 0))
    assert own.converged and uniform.converged and uniform.iterations > 0
    assert uniform.objective_value == pytest.approx(own.objective_value, rel=1e-7)


@pytest.mark.parametrize("start", ["negative_knots", "fractional_knots", "text_knots",
                                   "bare_vector"])
def test_l1_start_must_be_a_mu_knots_pair(start):
    fam, y, lambda0, _ = random_psd_instance(152)
    mu = np.ones(fam.p)
    start = {"negative_knots": (mu, -5), "fractional_knots": (mu, 2.5),
             "text_knots": (None, "x"), "bare_vector": mu}[start]
    with pytest.raises(ConfigError, match="start must be a"):
        mk.fit_l1(fam, y, lambda0, 1.0, start=start)


def test_l1_budget_validation():
    fam, y, lambda0, _ = random_psd_instance(151)
    with pytest.raises(ConfigError):
        mk.fit_l1(fam, y, lambda0, 0.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ConfigError, match="budget"):
            mk.fit_l1(fam, y, lambda0, bad)
        with pytest.raises(ConfigError, match="lambda0"):
            mk.fit_l1(fam, y, bad, 1.0)


@pytest.mark.parametrize("call, error, match", [
    (lambda fam, y: mk.fit_l2(fam, y, 0.1, 1.0, epsilon=np.inf), ConfigError, "epsilon"),
    (lambda fam, y: mk.fit_l1(fam, y, 0.1, 1.0, tol=np.inf), ConfigError, "tol"),
    (lambda fam, y: mk.oracle_fit(fam, y, 0.1, 1.0, tol=np.inf), ConfigError, "tol"),
    (lambda fam, y: mk.fit_l1(fam, y, 0.1, 1.0, start=(np.full(fam.p, np.nan), 0)),
     ConfigError, "start"),
    (lambda fam, y: mk.fit_l1(fam, y, 0.1, 1.0, start=(np.full(fam.p, np.inf), 0)),
     ConfigError, "start"),
    (lambda fam, y: mk.fit_l2(fam, y, 0.1, 1.0, start=np.full(fam.m, np.nan)),
     ConfigError, "start"),
    (lambda fam, y: mk.fit_l2(fam, y, 0.1, 1.0, start=np.full(fam.m, np.inf)),
     ConfigError, "start"),
    (lambda fam, y: mk.krr_solve(kernel_stack(fam)[0], y, np.inf), ConfigError, "lam"),
    (lambda fam, y: mk.krr_solve(np.full((fam.m, fam.m), np.inf), y, 1.0),
     DataError, "non-finite"),
], ids=["fit_l2-epsilon", "fit_l1-tol", "oracle_fit-tol", "fit_l1-nan-start",
        "fit_l1-inf-start", "fit_l2-nan-start", "fit_l2-inf-start", "krr_solve-lam",
        "krr_solve-inf-kernel"])
def test_non_finite_settings_rejected(call, error, match):
    # An infinite tolerance would certify any iterate, a NaN start weight
    # would reach project_l1_orthant's sort, and a NaN start alpha the
    # Newton solve.
    fam, y, _, _ = random_psd_instance(5)
    with pytest.raises(error, match=match):
        call(fam, y)


@pytest.mark.parametrize("kwargs, match", [
    ({"tol": np.nan}, "tol"), ({"tol": 0.0}, "tol"), ({"tol": -1e-8}, "tol"),
    ({"max_iters": 0}, "max_iters"),
])
def test_l1_rejects_bad_stopping_settings(kwargs, match):
    fam, y, lambda0, _ = random_psd_instance(3)
    with pytest.raises(ConfigError, match=match):
        mk.fit_l1(fam, y, lambda0, 1.0, **kwargs)


@pytest.mark.parametrize("max_iters", [2.5, 0, -1, True])
@pytest.mark.parametrize("fit", [mk.fit_l2, mk.fit_l1, mk.oracle_fit],
                         ids=["fit_l2", "fit_l1", "oracle_fit"])
def test_step_caps_must_be_integers_of_at_least_one(fit, max_iters):
    # range() would raise a raw TypeError on 2.5, and a cap of 0 would run
    # no step, after which oracle_fit would report a failure to certify.
    fam, y, lambda0, _ = random_psd_instance(3)
    with pytest.raises(ConfigError, match="max_iters must be an integer of at least 1"):
        fit(fam, y, lambda0, 1.0, max_iters=max_iters)


# --- predict ---------------------------------------------------------------------

def test_predict_zero_alpha():
    X = np.random.default_rng(0).standard_normal((3, 2))
    fam = mk.KernelFamily.from_specs([KernelSpec.linear()], X)
    model, _ = mk.fit_l2(fam, np.zeros(3), 1.0, 0.0)
    assert mk.predict(model, fam.specs, X, np.ones(2)) == 0.0


def test_predict_single_training_point_linear():
    weights = mk.MuWeights(np.array([1.0]), np.array([1.0]), 0.0)
    model = mk.MklModel(
        weights=weights, alpha=np.array([2.0]), lam=1.0, lambda0=1.0,
        quad=np.array([0.0]), iterations=1, converged=True, final_step=0.0,
        certificate_gap=0.0,
    )
    X_train = np.array([[1.0, 0.0]])
    assert mk.predict(model, (KernelSpec.linear(),), X_train, np.array([3.0, 0.0])) == 6.0


def test_predict_on_training_points_matches_gram_product():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((12, 3))
    specs = [KernelSpec.gaussian(1.5), KernelSpec.linear(), KernelSpec.polynomial(2)]
    fam = mk.KernelFamily.from_specs(specs, X)
    y = rng.standard_normal(12)
    model, _ = mk.fit_l2(fam, y, 0.2, 0.7)
    preds = mk.predict(model, fam.specs, X, X)
    direct = mk.combine(fam, model.weights.mu) @ model.alpha
    assert np.max(np.abs(preds - direct)) <= 1e-10


def test_predict_rank1_feature_path_matches_cross_gram():
    rng = np.random.default_rng(19)
    X_train = np.abs(rng.standard_normal((8, 3)))
    X_test = np.abs(rng.standard_normal((5, 3)))
    fam = rank1_all_family(X_train, include_offset=True)
    y = rng.standard_normal(8)
    model, _ = mk.fit_l2(fam, y, 0.3, 1.0)
    fast = mk.predict(model, fam.specs, X_train, X_test)
    slow = np.zeros(5)
    for k, spec in enumerate(fam.specs):
        slow += model.weights.mu[k] * (mk.cross_gram(spec, X_test, X_train) @ model.alpha)
    npt.assert_allclose(fast, slow, rtol=1e-12, atol=1e-12)


def test_predict_dimension_mismatch():
    X = np.random.default_rng(0).standard_normal((3, 2))
    fam = mk.KernelFamily.from_specs([KernelSpec.linear()], X)
    model, _ = mk.fit_l2(fam, np.ones(3), 1.0, 0.0)
    with pytest.raises(ShapeError):
        mk.predict(model, fam.specs, X, np.ones(5))
