import math
import numbers
import re
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mklridge as mk
from mklridge import ConfigError, DataError, KernelSpec, NumericalError, ShapeError
from mklridge import experiment, solver

from helpers import kernel_stack, rank1_all_family

ALL_SPECS = [
    KernelSpec.gaussian(0.7),
    KernelSpec.gaussian(2.0),
    KernelSpec.linear(),
    KernelSpec.polynomial(2, 1.0),
    KernelSpec.polynomial(3, 0.5),
    KernelSpec.rank1(0),
    KernelSpec.constant(),
]


def random_matrix(draw_m, draw_d, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-2.0, 2.0, size=(draw_m, draw_d))


# --- spec validation -------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ConfigError):
        KernelSpec.gaussian(0.0)
    with pytest.raises(ConfigError):
        KernelSpec.polynomial(0)
    with pytest.raises(ConfigError):
        KernelSpec.polynomial(2, -1.0)
    with pytest.raises(ConfigError):
        KernelSpec.rank1(-1)
    with pytest.raises(ConfigError):
        KernelSpec(kind="sigmoid")


@pytest.mark.parametrize("kind, params", [
    ("polynomial", {"degree": 2.5}),
    ("polynomial", {"degree": 2.0}),
    ("polynomial", {"degree": True}),
    ("polynomial", {"degree": 2, "offset": "1"}),
    ("rank1_feature", {"feature_index": 1.5}),
    ("rank1_feature", {"feature_index": True}),
    ("gaussian", {"bandwidth": "1"}),
    ("gaussian", {"bandwidth": True}),
    ("gaussian", {"bandwidth": np.inf}),
])
def test_spec_rejects_fractional_bool_or_non_numeric_parameters(kind, params):
    with pytest.raises(ConfigError, match=list(params)[-1]):
        KernelSpec(kind=kind, **params)


def test_spec_constructors_do_not_truncate():
    with pytest.raises(ConfigError, match="degree"):
        KernelSpec.polynomial(2.5)
    with pytest.raises(ConfigError, match="feature_index"):
        KernelSpec.rank1(1.5)
    assert KernelSpec.polynomial(np.int64(3)).degree == 3


# --- one-pair examples: cross_gram on one-row inputs ------------------------

def test_eval_linear_dot():
    assert mk.cross_gram(KernelSpec.linear(), [[1, 2]], [[3, 4]])[0, 0] == 11.0


def test_eval_polynomial():
    assert mk.cross_gram(KernelSpec.polynomial(2, 1.0), [[1, 0]], [[1, 0]])[0, 0] == 4.0


def test_eval_rank1():
    assert mk.cross_gram(KernelSpec.rank1(1), [[0, 5]], [[0, 2]])[0, 0] == 10.0


def test_eval_constant():
    assert mk.cross_gram(KernelSpec.constant(), [[3.0]], [[9.0]])[0, 0] == 1.0


def test_eval_dimension_mismatch():
    with pytest.raises(ShapeError):
        mk.cross_gram(KernelSpec.linear(), [[1, 2]], [[1, 2, 3]])


def test_eval_non_finite():
    with pytest.raises(DataError):
        mk.cross_gram(KernelSpec.linear(), [[np.nan, 1.0]], [[1.0, 1.0]])


# --- build_gram examples ---------------------------------------------------

def test_gram_linear_orthonormal_rows():
    g = mk.build_gram(KernelSpec.linear(), [[1, 0], [0, 1]])
    npt.assert_array_equal(g, np.eye(2))


def test_gram_gaussian_unit_diagonal():
    X = random_matrix(7, 3, 0)
    for bw in (0.3, 1.0, 5.0):
        g = mk.build_gram(KernelSpec.gaussian(bw), X)
        npt.assert_array_equal(np.diag(g), np.ones(7))


def test_gram_rank1_outer_product():
    g = mk.build_gram(KernelSpec.rank1(0), [[2.0], [3.0]])
    npt.assert_array_equal(g, [[4.0, 6.0], [6.0, 9.0]])


def test_gram_rejects_non_finite():
    with pytest.raises(DataError):
        mk.build_gram(KernelSpec.linear(), [[1.0, np.inf]])


def test_gram_rank1_index_out_of_range():
    with pytest.raises(ConfigError):
        mk.build_gram(KernelSpec.rank1(5), [[1.0, 2.0]])


def test_gram_determinism():
    X = random_matrix(9, 4, 3)
    a = mk.build_gram(KernelSpec.gaussian(1.3), X)
    b = mk.build_gram(KernelSpec.gaussian(1.3), X)
    assert a.tobytes() == b.tobytes()


# --- Gram invariants over random inputs ------------------------------------

@settings(max_examples=40)
@given(
    m=st.integers(2, 30),
    d=st.integers(1, 10),
    spec_idx=st.integers(0, len(ALL_SPECS) - 1),
    seed=st.integers(0, 10_000),
)
def test_gram_symmetric_psd_property(m, d, spec_idx, seed):
    X = random_matrix(m, d, seed)
    spec = ALL_SPECS[spec_idx]
    g = mk.build_gram(spec, X)
    scale = np.maximum(1.0, np.abs(g))
    assert np.all(np.abs(g - g.T) <= 1e-12 * scale)
    assert np.all(np.diag(g) >= 0.0)
    eigs = np.linalg.eigvalsh(g)
    assert eigs[0] >= -1e-8 * max(eigs[-1], np.finfo(float).tiny)


@settings(max_examples=40)
@given(
    m=st.integers(2, 12),
    d=st.integers(1, 6),
    spec_idx=st.integers(0, len(ALL_SPECS) - 1),
    seed=st.integers(0, 10_000),
)
def test_eval_gram_consistency(m, d, spec_idx, seed):
    X = random_matrix(m, d, seed)
    spec = ALL_SPECS[spec_idx]
    g = mk.build_gram(spec, X)
    worst = max(
        abs(mk.cross_gram(spec, X[i:i + 1], X[j:j + 1])[0, 0] - g[i, j])
        for i in range(m)
        for j in range(m)
    )
    assert worst <= 1e-12


def test_cross_gram_matches_eval():
    A = random_matrix(4, 3, 11)
    B = random_matrix(5, 3, 12)
    for spec in ALL_SPECS:
        C = mk.cross_gram(spec, A, B)
        for i in range(4):
            for j in range(5):
                assert C[i, j] == mk.cross_gram(spec, A[i:i + 1], B[j:j + 1])[0, 0]


def _scalar_reference(spec, x, z):
    # Per-pair kernel formula, independent of the block evaluator behind
    # build_gram and cross_gram.
    if spec.kind == "linear":
        return float(np.dot(x, z))
    if spec.kind == "gaussian":
        d = x - z
        return float(np.exp(-np.dot(d, d) / (2.0 * spec.bandwidth * spec.bandwidth)))
    if spec.kind == "polynomial":
        return float((np.dot(x, z) + spec.offset) ** spec.degree)
    if spec.kind == "rank1_feature":
        return float(x[spec.feature_index] * z[spec.feature_index])
    return 1.0


def _reference_scale(spec, x, z):
    # Magnitude of the terms an entry sums: a dot product's roundoff is
    # relative to sum |x_k z_k|, not to the (possibly cancelled) result.
    if spec.kind == "linear":
        return float(np.abs(x) @ np.abs(z))
    if spec.kind == "polynomial":
        return float((np.abs(x) @ np.abs(z) + spec.offset) ** spec.degree)
    return abs(_scalar_reference(spec, x, z))


@settings(max_examples=60, deadline=None)
# 25 rows against 30 x 200 (cross_gram) or 25 x 200 (build_gram) take
# Gaussian chunks of 10 and 13 rows: neither divides 25.
@example(kind="gaussian", m=25, n=30, d=200, offset_data=False, duplicates=2, scale=1.0,
         degree=1, seed=0)
@given(
    kind=st.sampled_from(mk.kernels.KINDS),
    m=st.integers(1, 30),
    n=st.integers(1, 30),
    d=st.integers(1, 200),
    offset_data=st.booleans(),
    duplicates=st.integers(0, 5),
    scale=st.floats(0.3, 3.0),
    degree=st.integers(1, 5),
    seed=st.integers(0, 10_000),
)
def test_block_evaluator_matches_scalar_reference(kind, m, n, d, offset_data, duplicates,
                                                  scale, degree, seed):
    rng = np.random.default_rng(seed)
    # Offset data: coordinates near +-1e3 with spread 0.01 and a bandwidth
    # of the same order as the spread.
    spread = 0.01 if offset_data else 1.0
    center = 1e3 * rng.choice([-1.0, 1.0], size=d) if offset_data else np.zeros(d)
    X = center + spread * rng.standard_normal((m, d))
    Z = center + spread * rng.standard_normal((n, d))
    pairs = rng.integers(0, m, size=(duplicates, 2))
    X[pairs[:, 0]] = X[pairs[:, 1]]
    shared = min(m, n) // 2
    Z[:shared] = X[:shared]
    spec = {
        "gaussian": KernelSpec.gaussian(scale * spread * np.sqrt(d)),
        "linear": KernelSpec.linear(),
        "polynomial": KernelSpec.polynomial(degree, scale),
        "rank1_feature": KernelSpec.rank1(int(rng.integers(0, d))),
        "constant_offset": KernelSpec.constant(),
    }[kind]

    G = mk.build_gram(spec, X)
    C = mk.cross_gram(spec, X, Z)
    assert np.array_equal(G, G.T)
    if kind == "gaussian":
        assert np.all(np.diag(G) == 1.0)
    for i in range(m):
        for j in range(m):
            ref = _scalar_reference(spec, X[i], X[j])
            assert abs(G[i, j] - ref) <= 1e-12 * _reference_scale(spec, X[i], X[j])
        for j in range(n):
            ref = _scalar_reference(spec, X[i], Z[j])
            tol = 1e-12 * _reference_scale(spec, X[i], Z[j])
            assert abs(C[i, j] - ref) <= tol
            # Block-shape independence, which _predict_rows relies on.
            assert mk.cross_gram(spec, X[i:i + 1], Z[j:j + 1])[0, 0] == C[i, j]


# --- combine ----------------------------------------------------------------

def _random_family(seed, m=8, p=4):
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(p):
        A = rng.standard_normal((m, m))
        mats.append(A @ A.T)
    return mk.KernelFamily.from_grams(mats)


def test_combine_zero_weights():
    fam = _random_family(0)
    K = mk.combine(fam, np.zeros(fam.p))
    npt.assert_array_equal(K, np.zeros((fam.m, fam.m)))


def test_combine_single_kernel_scaling():
    fam = _random_family(1, p=1)
    K = mk.combine(fam, [2.0])
    npt.assert_array_equal(K, 2.0 * fam.stack[0])


def test_combine_identity_sum():
    fam = mk.KernelFamily.from_grams([np.eye(2), np.eye(2)])
    K = mk.combine(fam, [1.0, 1.0])
    npt.assert_array_equal(K, 2.0 * np.eye(2))


@settings(max_examples=25)
@given(seed=st.integers(0, 5000), p=st.integers(1, 6))
def test_combine_matches_independent_loop_exactly(seed, p):
    fam = _random_family(seed, m=6, p=p)
    mu = np.random.default_rng(seed + 1).uniform(0.0, 3.0, size=p)
    K = mk.combine(fam, mu)
    acc = np.zeros((fam.m, fam.m))
    for k in range(p):
        acc += mu[k] * fam.stack[k]
    npt.assert_array_equal(K, acc)


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 40), p=st.integers(1, 12))
def test_combined_entries_is_the_index_order_sum_bit_for_bit(seed, m, p):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((p, m, m))
    fam = mk.KernelFamily.from_grams([g + g.T for g in A @ A.transpose(0, 2, 1)])
    mu = rng.uniform(0.0, 3.0, size=p)
    mu[rng.random(p) < 0.3] = 0.0
    K = fam.combined_entries(mu)
    acc = np.zeros((m, m))
    for k in range(p):
        acc += mu[k] * fam.stack[k]
    assert K.tobytes() == acc.tobytes()
    assert np.array_equal(K, K.T)


@pytest.mark.parametrize("kind", ["dense", "rank1"])
def test_combine_equals_combined_entries(kind):
    # combine is the solvers' K(mu): bit-equal on both family layouts.
    if kind == "dense":
        fam = _random_family(4, m=6, p=4)
    else:
        fam = rank1_all_family(np.abs(random_matrix(6, 3, 4)), include_offset=True)
        assert fam.features is not None
    mu = np.array([0.5, 1.5, 2.0, 1.0])
    npt.assert_array_equal(mk.combine(fam, mu), fam.combined_entries(mu))


def test_combine_rejects_negative_weights():
    fam = _random_family(2, p=2)
    with pytest.raises(ConfigError):
        mk.combine(fam, [1.0, -0.5])


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_combine_rejects_non_finite_weights(bad):
    fam = _random_family(2, p=2)
    with pytest.raises(ConfigError, match="finite and nonnegative"):
        mk.combine(fam, [1.0, bad])


def test_combine_takes_a_rank_one_product_as_it_is():
    # Two widely scaled rank-one kernels whose terms cancel in K[0, 1]:
    # each is about 4e6 and their sum about -4e-3. A general product
    # (F * mu) @ F' rounds F_0k mu_k F_1k and F_1k mu_k F_0k apart, and
    # missed the Gram check's symmetry bound 1e-12 max(1, |K_ij|) by far.
    # X X' with X = F sqrt(mu) computes one triangle and copies it, so K is
    # exactly symmetric: combine returns it unchanged and from_grams takes it.
    mu = np.array([3.3, 7.1])
    a, b, c = 1234.567, 2345.678, 987.654
    d = -(mu[0] * a * c) / (mu[1] * b) * (1.0 + 1e-9)
    fam = mk.KernelFamily([[a, b], [c, d]])
    K = mk.combine(fam, mu)
    assert K.tobytes() == fam.combined_entries(mu).tobytes()
    assert np.array_equal(K, K.T)
    assert abs(K[0, 1]) < 1e-2 * abs(mu[0] * a * c)
    assert mk.KernelFamily.from_grams([K]).stack[0].tobytes() == K.tobytes()
    y = np.array([1.0, -2.0])
    alpha = mk.krr_solve(K, y, 0.1)
    assert np.linalg.norm((K + 0.1 * np.eye(2)) @ alpha - y) <= 1e-8 * np.linalg.norm(y)


def _exact_rank_one_sum(F, mu):
    # sum_k mu_k f_k f_k' and sum_k mu_k |f_k||f_k|', each entry an exact
    # rational sum rounded once.
    m, p = F.shape
    terms = [[[Fraction(mu[k]) * Fraction(F[i, k]) * Fraction(F[j, k]) for k in range(p)]
              for j in range(m)] for i in range(m)]
    exact = np.array([[float(sum(t)) for t in row] for row in terms])
    scale = np.array([[float(sum(abs(x) for x in t)) for t in row] for row in terms])
    return exact, scale


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 9), p=st.integers(1, 24))
@example(seed=0, m=1, p=1)
@example(seed=1, m=1, p=6)
@example(seed=2, m=6, p=1)
def test_rank_one_combined_entries_is_exactly_symmetric_and_accurate(seed, m, p):
    # Widely scaled columns, some of them zero, and some zero weights.
    rng = np.random.default_rng(seed)
    F = rng.standard_normal((m, p)) * 10.0 ** rng.uniform(-3.0, 3.0, p)
    F[:, rng.random(p) < 0.2] = 0.0
    mu = rng.uniform(0.0, 10.0, p) * (rng.random(p) >= 0.3)
    K = mk.KernelFamily(F).combined_entries(mu)
    assert np.array_equal(K, K.T)
    exact, scale = _exact_rank_one_sum(F, mu)
    assert np.all(np.abs(K - exact) <= (p + 3) * np.finfo(float).eps * scale)


@pytest.mark.parametrize("bad", [-0.5, -1e-300, np.nan])
def test_rank_one_combined_entries_rejects_a_negative_or_nan_weight(bad):
    fam = mk.KernelFamily(np.arange(1.0, 7.0).reshape(3, 2))
    with pytest.raises(ConfigError, match="negative or NaN"):
        fam.combined_entries(np.array([1.0, bad]))


def test_combine_length_mismatch():
    fam = _random_family(3, p=2)
    with pytest.raises(ShapeError):
        mk.combine(fam, [1.0, 1.0, 1.0])


def test_combine_rejects_weights_that_are_not_numbers():
    fam = _random_family(3, p=3)
    with pytest.raises(ConfigError, match="mu must be an array of numbers"):
        mk.combine(fam, ["a", "b", "c"])


# --- kappa ------------------------------------------------------------------

def test_compute_kappa_unit():
    fam = mk.KernelFamily.from_grams([np.eye(3)])
    assert mk.compute_kappa(fam, 1.0) == 1.0


def test_compute_kappa_scaled():
    # kappa0 = 2 over the sample, anchor norm 2 plus radius 3.
    fam = mk.KernelFamily.from_grams([np.eye(3)] * 4)
    assert fam.kappa0 == 2.0
    mu0 = np.ones(4)
    assert mk.compute_kappa(fam, float(np.linalg.norm(mu0)) + 3.0) == 10.0


@pytest.mark.parametrize("bound", [-1.0, np.nan, np.inf])
def test_compute_kappa_rejects_bad_bound(bound):
    fam = mk.KernelFamily.from_grams([np.eye(3)])
    with pytest.raises(ConfigError):
        mk.compute_kappa(fam, bound)


def test_compute_kappa_degenerate_zero():
    fam = mk.KernelFamily.from_grams([np.zeros((2, 2))])
    assert mk.compute_kappa(fam, 5.0) == 0.0


def test_kappa0_bounds_diagonal():
    fam = _random_family(7, m=10, p=3)
    diags = np.stack([np.diag(K) for K in fam.stack])
    assert np.all(np.sqrt((diags**2).sum(axis=0)) <= fam.kappa0 + 1e-12)


# --- family bookkeeping -----------------------------------------------------

@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 12), rank_one=st.booleans(),
       zero=st.booleans(), twin=st.booleans())
def test_from_grams_rebuilds_a_family_bit_for_bit(seed, m, rank_one, zero, twin):
    # from_grams on a family's per-kernel matrices, given as an array, an
    # iterator or a list of arrays, against the same kernels stacked by
    # from_specs; column 2 of X is zero, so rank1(2) is a zero kernel.
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2.0, 2.0, size=(m, 3))
    X[:, 2] = 0.0
    if rank_one:
        specs = [KernelSpec.rank1(0), KernelSpec.rank1(1), KernelSpec.constant()]
    else:
        specs = [KernelSpec.gaussian(1.0), KernelSpec.linear(), KernelSpec.polynomial(2)]
    specs += [KernelSpec.rank1(2)] * zero + [specs[0]] * twin
    fam = mk.KernelFamily.from_specs(specs, X)
    assert (fam.features is not None) == rank_one
    # A linear kernel appended, then dropped, puts rank-one kernels on the stack layout.
    ref = mk.KernelFamily.from_specs(specs + [KernelSpec.linear()], X).select_kernels(
        range(len(specs)))
    stack = kernel_stack(fam)
    assert stack.tobytes() == ref.stack.tobytes()
    mu = rng.uniform(0.0, 2.0, size=len(specs))
    mu[rng.random(len(specs)) < 0.3] = 0.0
    alpha = rng.standard_normal(m)
    for mats in (stack, iter(stack), list(stack)):
        got = mk.KernelFamily.from_grams(mats)
        assert got.specs is None and got.features is None
        assert got.stack.tobytes() == ref.stack.tobytes()
        assert got.kappa0 == ref.kappa0
        assert got.combined_entries(mu).tobytes() == ref.combined_entries(mu).tobytes()
        assert mk.quad_forms(alpha, got).tobytes() == mk.quad_forms(alpha, ref).tobytes()


def test_from_grams_rejects_mixed_sizes_and_no_kernels():
    with pytest.raises(ShapeError, match="share one dimension"):
        mk.KernelFamily.from_grams([np.eye(2), np.eye(3)])
    with pytest.raises(ShapeError, match="share one dimension"):
        mk.KernelFamily.from_grams(iter([np.eye(3), np.eye(2)]))
    with pytest.raises(ConfigError, match="at least one kernel"):
        mk.KernelFamily.from_grams([])
    with pytest.raises(ConfigError, match="at least one kernel"):
        mk.KernelFamily.from_grams(iter(()))


def test_from_grams_copies_its_inputs_once():
    # Each input is checked in place; np.stack is the one copy, so the peak
    # above the inputs is the stack plus one matrix's check temporaries.
    rng = np.random.default_rng(0)
    A = rng.standard_normal((400, 400))
    mats = [A @ A.T / 400 for _ in range(8)]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fam = mk.KernelFamily.from_grams(mats)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * fam.stack.nbytes


def test_from_specs_checks_each_gram_through_two_temporaries():
    # Each build_gram output is checked in place through two m x m
    # temporaries, and the new matrix and these two sit beside the stack,
    # so eight kernels peak near 1.39x the stack.
    X = np.random.default_rng(0).standard_normal((400, 5))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fam = mk.KernelFamily.from_specs([KernelSpec.linear()] * 8, X)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 1.45 * fam.stack.nbytes


def test_family_subset_consistency():
    X = random_matrix(8, 3, 5)
    fam = mk.KernelFamily.from_specs([KernelSpec.linear(), KernelSpec.gaussian(1.0)], X)
    idx = np.array([0, 2, 5])
    sub = fam.subset(idx)
    assert sub.m == 3 and sub.p == 2
    npt.assert_array_equal(sub.stack[0], fam.stack[0][np.ix_(idx, idx)])
    direct = mk.KernelFamily.from_specs(fam.specs, X[idx])
    assert np.isclose(sub.kappa0, direct.kappa0)


def test_family_subset_lazy_matches_direct_build():
    X = np.abs(random_matrix(7, 4, 6))
    fam = rank1_all_family(X, include_offset=True)
    idx = np.array([1, 3, 4])
    sub = fam.subset(idx)
    direct = rank1_all_family(X[idx], include_offset=True)
    npt.assert_array_equal(kernel_stack(sub), kernel_stack(direct))
    assert sub.kappa0 == direct.kappa0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 20), p=st.integers(1, 4),
       picks=st.lists(st.integers(0, 19), min_size=1, max_size=30))
def test_subset_gathers_the_three_axis_index_bit_for_bit(seed, m, p, picks):
    # Kernel by kernel against one three-axis gather, for unsorted and
    # repeated row indices.
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(p):
        A = rng.standard_normal((m, int(rng.integers(1, m + 1))))
        mats.append(A @ A.T)
    fam = mk.KernelFamily.from_grams(mats)
    idx = np.array([i % m for i in picks])
    sub = fam.subset(idx)
    assert sub.stack.flags.c_contiguous and not sub.stack.flags.writeable
    want = fam.stack[np.ix_(range(p), idx, idx)]
    assert sub.stack.shape == want.shape and sub.stack.tobytes() == want.tobytes()


def test_family_select_kernels():
    X = random_matrix(5, 3, 7)
    fam = mk.KernelFamily.from_specs(
        [KernelSpec.linear(), KernelSpec.gaussian(1.0), KernelSpec.polynomial(2)], X
    )
    sel = fam.select_kernels([2, 0])
    assert sel.p == 2
    assert sel.specs[0].kind == "polynomial"
    npt.assert_array_equal(sel.stack[1], fam.stack[0])


def test_select_kernels_keeps_feature_families_lazy():
    fam = rank1_all_family(np.abs(random_matrix(6, 3, 8)), include_offset=True)
    sel = fam.select_kernels([3, 1])
    assert sel.features is not None and sel.stack is None
    npt.assert_array_equal(sel.features, fam.features[:, [3, 1]])
    assert kernel_stack(sel).tobytes() == kernel_stack(fam)[[3, 1]].tobytes()


@pytest.mark.parametrize("layout", ["stack", "features"])
def test_family_over_no_rows_is_a_shape_error(layout):
    X = np.abs(random_matrix(5, 2, 9))
    specs = ([KernelSpec.rank1(0), KernelSpec.constant()] if layout == "features"
             else [KernelSpec.linear(), KernelSpec.gaussian(1.0)])
    fam = mk.KernelFamily.from_specs(specs, X)
    assert (fam.stack is None) == (layout == "features")
    with pytest.raises(ShapeError, match="nonempty"):
        mk.KernelFamily.from_specs(specs, X[:0])
    with pytest.raises(ShapeError, match="nonempty"):
        fam.subset([])
    with pytest.raises(ShapeError, match="nonempty"):
        if layout == "features":
            mk.KernelFamily(np.zeros((0, 2)))
        else:
            mk.KernelFamily.from_grams([np.zeros((0, 0))])


@pytest.mark.parametrize("layout", ["stack", "features"])
@pytest.mark.parametrize("derive", ["subset", "select_kernels"])
@pytest.mark.parametrize("indices, message", [
    ([0.5], "index 0.5 is not an integer"),
    (np.array([1.0, 0.0]), "index 1.0 is not an integer"),
    ([True, False], "index True is not an integer"),
    ([0, False], "index False is not an integer"),
    (np.array([False, True]), "index False is not an integer"),
    ([0, -1], "index -1 out of range"),
    ([1, 5], "index 5 out of range for 5 rows|index 5 out of range for 4 kernels"),
], ids=["float", "float-array", "bool", "int-and-bool", "bool-array", "negative",
        "past-the-end"])
def test_family_rejects_bad_indices(layout, derive, indices, message):
    # numpy would truncate 0.5 to 0, read booleans as a mask or as 0/1,
    # wrap -1 and fail past the end with its own IndexError.
    X = np.abs(random_matrix(5, 3, 10))
    specs = ([KernelSpec.rank1(0), KernelSpec.rank1(1), KernelSpec.rank1(2), KernelSpec.constant()]
             if layout == "features"
             else [KernelSpec.linear(), KernelSpec.gaussian(1.0), KernelSpec.polynomial(2),
                   KernelSpec.gaussian(2.0)])
    fam = mk.KernelFamily.from_specs(specs, X)
    assert fam.m == 5 and fam.p == 4 and (fam.stack is None) == (layout == "features")
    with pytest.raises(ShapeError, match=message):
        getattr(fam, derive)(indices)


@pytest.mark.parametrize("layout", ["stack", "features"])
def test_family_takes_numpy_integer_indices(layout):
    X = np.abs(random_matrix(5, 2, 11))
    specs = ([KernelSpec.rank1(0), KernelSpec.constant()] if layout == "features"
             else [KernelSpec.linear(), KernelSpec.gaussian(1.0)])
    fam = mk.KernelFamily.from_specs(specs, X)
    want = kernel_stack(fam)
    rows = np.array([4, 0, 4], dtype=np.uint8)
    npt.assert_array_equal(kernel_stack(fam.subset(rows)), want[:, [4, 0, 4]][:, :, [4, 0, 4]])
    npt.assert_array_equal(kernel_stack(fam.select_kernels([np.int64(1)])), want[[1]])
    npt.assert_array_equal(kernel_stack(fam.select_kernels(np.array([1, 1], dtype=np.int32))),
                           want[[1, 1]])


def _reference_gram_family(seed, m, p, zero, twin):
    # p random PSD kernels of random rank, then optionally a zero kernel
    # and a copy of the first one; returns the family and its raw matrices.
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(p):
        A = rng.standard_normal((m, int(rng.integers(1, m + 1))))
        mats.append(A @ A.T)
    if zero:
        mats.append(np.zeros((m, m)))
    if twin:
        mats.append(mats[0].copy())
    return mk.KernelFamily.from_grams(mats), mats, rng


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 25), p=st.integers(1, 4),
       zero=st.booleans(), twin=st.booleans())
def test_stack_matches_per_kernel_loops(seed, m, p, zero, twin):
    # The one-call operations on the stack against the kernel-by-kernel
    # loops they replace, to 1e-13 of each quantity's natural scale, on p
    # random PSD kernels plus, optionally, a zero kernel and a twin.
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(p):
        A = rng.standard_normal((m, int(rng.integers(1, m + 1))))
        mats.append(A @ A.T)
    mats += [np.zeros((m, m))] * zero + [mats[0].copy()] * twin
    fam = mk.KernelFamily.from_grams(mats)
    tol = 1e-13
    alpha = rng.standard_normal(m)
    norms = np.array([np.linalg.norm(K) for K in mats])

    v = mk.quad_forms(alpha, fam)
    want = np.array([alpha @ (K @ alpha) for K in mats])
    assert np.all(np.abs(v - want) <= tol * norms * (alpha @ alpha))

    # The Newton step's matrix H and right-hand side R, both built from Z.
    y = rng.standard_normal(m)
    lam, radius, mu0 = 0.1, 0.5, np.ones(fam.p)
    seen = []
    solve_pd = solver._solve_pd

    def capture(B, rhs):
        seen.append((B.copy(), rhs.copy()))
        return solve_pd(B, rhs)

    with mock.patch.object(solver, "_solve_pd", capture):
        P, v_step = solver._projections(alpha, fam)
        assert v_step.tobytes() == v.tobytes()
        mu, _ = solver._newton_step(fam, alpha, P, v, y, lam, mu0, radius)
    [(H, R)] = seen
    Z = np.column_stack([K @ alpha for K in mats])
    nv = np.linalg.norm(v)
    W = Z - np.outer(Z @ (v / nv), v / nv)
    H_ref = sum(w * K for w, K in zip(mu, mats)) + lam * np.eye(m) + (2 * radius / nv) * W @ W.T
    R_ref = Z @ mu + lam * alpha - y
    assert np.linalg.norm(H - H_ref) <= tol * np.linalg.norm(H_ref)
    scale = np.linalg.norm(Z) * np.linalg.norm(mu) + lam * np.linalg.norm(alpha) + np.linalg.norm(y)
    assert np.linalg.norm(R - R_ref) <= tol * scale

    perm = rng.permutation(m)
    n_tr = int(rng.integers(1, m))
    tr, va = perm[:n_tr], perm[n_tr:]
    mu = rng.uniform(0.0, 2.0, size=fam.p)
    mu[rng.random(fam.p) < 0.3] = 0.0
    a = alpha[:n_tr]
    got = experiment._predict_rows(fam, mu, a, tr, va)
    want = sum(w * (K[np.ix_(va, tr)] @ a) for w, K in zip(mu, mats))
    assert np.all(np.abs(got - want) <= tol * (mu @ norms) * np.linalg.norm(a))

    # Children: read-only, gathered exactly; one kernel is a view.
    sub = fam.subset(tr)
    assert not sub.stack.flags.writeable and sub.stack.flags.c_contiguous
    for G, K in zip(sub.stack, mats):
        assert np.array_equal(G, K[np.ix_(tr, tr)])
    k = int(rng.integers(fam.p))
    one = fam.select_kernels([k])
    assert np.shares_memory(one.stack, fam.stack) and not one.stack.flags.writeable
    assert np.array_equal(one.stack[0], mats[k])
    flipped = fam.select_kernels(range(fam.p - 1, -1, -1))
    assert not flipped.stack.flags.writeable
    assert np.array_equal(flipped.stack, np.stack(mats[::-1]))
    with pytest.raises(ConfigError, match="at least one kernel"):
        fam.select_kernels([])


@pytest.mark.parametrize("bad", [np.inf, -np.inf])  # NaN: test_feature_route_nan_features_raise
def test_family_rejects_infinite_features(bad):
    with pytest.raises(DataError):
        mk.KernelFamily([[1.0], [bad], [0.0]])


# A Gram matrix enters a family through from_grams, which checks each one
# as build_gram checks its output.

def test_gram_matrix_rejects_asymmetry():
    with pytest.raises(NumericalError, match="not symmetric"):
        mk.KernelFamily.from_grams([np.array([[1.0, 2.0], [0.5, 1.0]])])
    # A symmetric matrix with a NaN or an infinite entry is named for that:
    # bad input data, as in krr_solve and a family's feature columns.
    for bad in (np.nan, np.inf):
        with pytest.raises(DataError, match="non-finite entries"):
            mk.KernelFamily.from_grams([np.array([[bad, 0.0], [0.0, 1.0]])])


@pytest.mark.parametrize("size", [1.0, 1e6])
def test_gram_matrix_symmetry_tolerance(size):
    # |e_ij - e_ji| may reach 1e-12 max(1, |e_ij|) at both (i, j) and (j, i).
    def gram(rel):
        return np.array([[size, size], [size * (1.0 + rel), size]])
    mk.KernelFamily.from_grams([gram(2.0 ** -42)])
    with pytest.raises(NumericalError, match="not symmetric"):
        mk.KernelFamily.from_grams([gram(2.0 ** -38)])


def test_gram_matrix_rejects_negative_diagonal():
    with pytest.raises(NumericalError, match="negative diagonal"):
        mk.KernelFamily.from_grams([np.array([[-1.0, 0.0], [0.0, 1.0]])])


# --- scalar arguments ------------------------------------------------------
# Scalar arguments are checked by the rules of the config sections
# (kernels._Rule), so a bad value is a ConfigError naming the argument.

_X = np.arange(12.0).reshape(6, 2) / 6.0
_Y = np.array([1.0, -1.0, 0.5, 0.0, 2.0, -0.5])
_FAM = mk.KernelFamily(_X)
_STABILITY = dict(specs=[KernelSpec.linear()], X=_X, y=_Y, lambda0=0.5,
                  weights=mk.MuWeights(np.ones(1), np.ones(1), 0.0), swaps=2, seed=1,
                  draw_point=lambda r: (r.standard_normal(2), 0.0), extra_eval_points=3)
_BOUNDS = dict(kappa=1.0, max_error=1.0, radius=1.0, lambda0=1.0, p=2, m=10, delta=0.5)

# (argument name as errors give it, valid value, call taking the value)
SCALAR_ARGUMENTS = [
    ("bandwidth", 0.7, KernelSpec.gaussian),
    ("degree", 2, lambda v: KernelSpec.polynomial(v, 1.0)),
    ("offset", 1.0, lambda v: KernelSpec.polynomial(2, v)),
    ("feature_index", 0, KernelSpec.rank1),
    ("mu_norm_bound", 1.0, lambda v: mk.compute_kappa(_FAM, v)),
    ("lam", 0.1, lambda v: mk.krr_solve(np.eye(6), _Y, v)),
    ("radius", 1.0, lambda v: mk.MuWeights(np.ones(2), np.ones(2), v)),
    ("lambda0", 0.1, lambda v: mk.fit_l2(_FAM, _Y, v, 1.0)),
    ("radius", 1.0, lambda v: mk.fit_l2(_FAM, _Y, 0.1, v)),
    ("max_iters", 50, lambda v: mk.fit_l2(_FAM, _Y, 0.1, 1.0, max_iters=v)),
    ("epsilon", 1e-8, lambda v: mk.fit_l2(_FAM, _Y, 0.1, 1.0, epsilon=v)),
    ("tol", 1e-6, lambda v: mk.oracle_fit(_FAM, _Y, 0.1, 1.0, tol=v)),
    ("budget", 1.0, lambda v: mk.fit_l1(_FAM, _Y, 0.1, v)),
    ("tol", 1e-6, lambda v: mk.fit_l1(_FAM, _Y, 0.1, 1.0, tol=v)),
    ("start", 0, lambda v: mk.fit_l1(_FAM, _Y, 0.1, 1.0, start=(None, v))),
    ("radius", 1.0, lambda v: mk.weight_shift_identity_gap([1.0, 2.0], [2.0, 1.0], v)),
    ("swaps", 2, lambda v: mk.stability_trial(**{**_STABILITY, "swaps": v})),
    ("lambda0", 0.5, lambda v: mk.stability_trial(**{**_STABILITY, "lambda0": v})),
    ("seed", 1, lambda v: mk.stability_trial(**{**_STABILITY, "seed": v})),
    ("extra_eval_points", 3,
     lambda v: mk.stability_trial(**{**_STABILITY, "extra_eval_points": v})),
    *[(key, value, lambda v, key=key: mk.bound_values(**{**_BOUNDS, key: v}))
      for key, value in _BOUNDS.items()],
    ("n", 2, lambda v: mk.NgramVocabulary(n=v, entries=())),
    ("n", 2, lambda v: mk.build_ngram_features([["a", "b", "c"]], n=v, top=2)),
    ("top", 2, lambda v: mk.build_ngram_features([["a", "b", "c"]], n=2, top=v)),
    ("m", 7, lambda v: mk.data.split_indices(v, 0.5, 0)),
    ("fraction", 0.5, lambda v: mk.data.split_indices(7, v, 0)),
    ("seed", 0, lambda v: mk.data.split_indices(7, 0.5, v)),
    ("k", 2, lambda v: mk.make_folds(5, v, 0)),
    ("m", 5, lambda v: mk.make_folds(v, 2, 0)),
    ("seed", 0, lambda v: mk.make_folds(5, 2, v)),
]
SCALAR_IDS = [f"{i}-{name}" for i, (name, _, _) in enumerate(SCALAR_ARGUMENTS)]


@pytest.mark.parametrize("bad", ["1", True, np.nan])
@pytest.mark.parametrize("name, good, call", SCALAR_ARGUMENTS, ids=SCALAR_IDS)
def test_scalar_argument_rejects_string_bool_and_nan(name, good, call, bad):
    with pytest.raises(ConfigError, match=rf"\b{name} must be "):
        call(bad)


@pytest.mark.parametrize("name, good, call", SCALAR_ARGUMENTS, ids=SCALAR_IDS)
def test_scalar_argument_takes_numpy_scalars_but_not_arrays(name, good, call):
    call(good)
    call(np.asarray(good)[()])  # np.float64 or np.int64
    with pytest.raises(ConfigError, match=rf"\b{name} must be "):
        call(np.asarray(good))


def _abc_is_number(value, integral):
    # kernels._is_number without its fast path for plain ints and floats.
    kind = numbers.Integral if integral else numbers.Real
    return (isinstance(value, kind) and not isinstance(value, bool)
            and (isinstance(value, numbers.Integral) or math.isfinite(value)))


@pytest.mark.parametrize("integral", [False, True])
@pytest.mark.parametrize("value", [
    0, 7, -3, 2**70, True, False, 0.0, -0.0, 2.0, 1.5, -1e308, math.nan, math.inf, -math.inf,
    np.float64(2.0), np.float64(math.nan), np.float64(math.inf), np.int64(3), np.bool_(True),
    Fraction(1, 3), Fraction(4, 1), Decimal("1.5"), Decimal("NaN"), 1 + 0j, complex(2, 0),
    "1", None])
def test_is_number_fast_path_changes_no_answer(value, integral):
    assert mk.kernels._is_number(value, integral) is _abc_is_number(value, integral)


@settings(max_examples=300)
@given(length=st.integers(0, 400), low=st.floats(-160, 160), width=st.floats(0, 320),
       step=st.sampled_from([1, 2, 3, -1]), seed=st.integers(0, 2**32 - 1),
       special=st.sampled_from([None, 0.0, -0.0, math.nan, math.inf, -math.inf]))
def test_norm_is_np_linalg_norm_bit_for_bit(length, low, width, step, seed, special):
    # Magnitudes 1e-160 to 1e160, so the sum of squares can underflow or
    # overflow; strided views too, whose dot rounds apart from a contiguous one.
    rng = np.random.default_rng(seed)
    size = length * abs(step)
    exponents = np.minimum(low + width * rng.random(size), 160.0)
    base = rng.choice([-1.0, 1.0], size=size) * 10.0 ** exponents
    if special is not None and size:
        base[rng.integers(size, size=3)] = special
    x = base[::step]
    with np.errstate(over="ignore"):  # both warn on an overflowing sum of squares
        assert np.array_equal(mk.kernels._norm(x), np.linalg.norm(x), equal_nan=True)


# --- array arguments -------------------------------------------------------
# Array arguments are checked by kernels._as_vector and kernels._as_matrix:
# a wrong length or shape is a ShapeError naming the argument, a NaN in data
# a DataError and in a setting a ConfigError, and a value numpy cannot
# convert a ConfigError.

_GFAM = mk.KernelFamily.from_specs([KernelSpec.gaussian(1.0), KernelSpec.linear()], _X)
_RANK1_SPECS = [KernelSpec.rank1(0), KernelSpec.rank1(1)]
_K = mk.combine(_GFAM, np.ones(2))
_MODEL, _ = mk.fit_l2(_FAM, _Y, 0.1, 1.0)


def _stability_draw(x, target):
    return lambda v: mk.stability_trial(**{**_STABILITY, "draw_point": lambda r: (x(v), target(v))})


# (argument name as errors give it, call taking the value, valid value,
# a value of the wrong length or shape, error class for a NaN entry or None
# where entries are not read)
ARRAY_ARGUMENTS = [
    ("data matrix", lambda v: mk.build_gram(KernelSpec.linear(), v), _X, _X[0], DataError),
    ("A", lambda v: mk.cross_gram(KernelSpec.linear(), v, _X), _X, _X[0], DataError),
    ("B", lambda v: mk.cross_gram(KernelSpec.linear(), _X, v), _X, _X[:, :1], DataError),
    ("features", mk.KernelFamily, _X, _X[0], DataError),
    ("data matrix", lambda v: mk.KernelFamily.from_specs([KernelSpec.linear()], v), _X, _X[0],
     DataError),
    ("mu", _FAM.combined_entries, np.ones(2), np.ones(3), None),
    ("mu", _GFAM.combined_entries, np.ones(2), np.ones(3), None),
    ("K", lambda v: mk.krr_solve(v, _Y, 1.0), _K, _K[:, :-1], DataError),
    ("y", lambda v: mk.krr_solve(_K, v, 1.0), _Y, _Y[:-1], DataError),
    ("alpha", lambda v: mk.quad_forms(v, _FAM), _Y, _Y[:-1], None),
    ("y", lambda v: mk.objective(_Y, v, 1.0, np.ones(2), np.ones(2), 1.0), _Y, _Y[:-1], None),
    ("quad", lambda v: mk.objective(_Y, _Y, 1.0, v, np.ones(2), 1.0), np.ones(2), np.ones(3),
     None),
    *[("y", lambda v, fit=fit, fam=fam: fit(fam, v, 0.1, 1.0), _Y, _Y[:-1], DataError)
      for fit in (mk.fit_l2, mk.fit_l1, mk.oracle_fit) for fam in (_FAM, _GFAM)],
    ("mu0", lambda v: mk.fit_l2(_FAM, _Y, 0.1, 1.0, mu0=v), np.ones(2), np.ones(3), ConfigError),
    ("start", lambda v: mk.fit_l2(_GFAM, _Y, 0.1, 1.0, start=v), _Y, _Y[:-1], ConfigError),
    ("start", lambda v: mk.fit_l1(_GFAM, _Y, 0.1, 1.0, start=(v, 0)), np.ones(2), np.ones(3),
     ConfigError),
    ("X_train", lambda v: mk.predict_weighted(_RANK1_SPECS, np.ones(2), _Y, v, _X), _X, _X[0],
     DataError),
    ("mu", lambda v: mk.predict_weighted(_RANK1_SPECS, v, _Y, _X, _X), np.ones(2), np.ones(3),
     ConfigError),
    ("alpha", lambda v: mk.predict_weighted(_RANK1_SPECS, np.ones(2), v, _X, _X), _Y, _Y[:-1],
     DataError),
    ("X", lambda v: mk.predict_weighted(_RANK1_SPECS, np.ones(2), _Y, _X, v), _X[:3],
     _X[:3, :1], DataError),
    ("X", lambda v: mk.predict_weighted(_RANK1_SPECS, np.ones(2), _Y, _X, v), _X[0], _X[0, :1],
     DataError),
    ("y", lambda v: mk.kkt_residuals(_MODEL, _FAM, v), _Y, _Y[:-1], DataError),
    ("v", lambda v: mk.weight_shift_identity_gap(v, [1.0, 1.0], 1.0), np.ones(2),
     np.ones((2, 1)), ConfigError),
    ("v_prime", lambda v: mk.weight_shift_identity_gap([1.0, 1.0], v, 1.0), np.ones(2),
     np.ones(3), ConfigError),
    ("X", lambda v: mk.stability_trial(**{**_STABILITY, "X": v}), _X, _X[0], DataError),
    ("y", lambda v: mk.stability_trial(**{**_STABILITY, "y": v}), _Y, _Y[:-1], DataError),
    ("drawn point", _stability_draw(lambda v: v, lambda v: 0.0), np.zeros(2), np.zeros(3),
     DataError),
    ("drawn targets", _stability_draw(lambda v: np.zeros(2), lambda v: v), np.float64(0.0),
     np.zeros(2), DataError),
    ("X", lambda v: mk.Dataset(X=v, y=_Y), _X, _X[0], DataError),
    ("y", lambda v: mk.Dataset(X=_X, y=v), _Y, _Y[:-1], DataError),
    ("prediction", lambda v: mk.metric_rmse(v, _Y), _Y, _X, DataError),
    ("target", lambda v: mk.metric_rmse(_Y, v), _Y, _Y[:-1], DataError),
]
ARRAY_IDS = [f"{i}-{name}" for i, (name, *_) in enumerate(ARRAY_ARGUMENTS)]


def _names(name):
    return rf"^{re.escape(name)} "


@pytest.mark.parametrize("name, call, good, wrong, finite", ARRAY_ARGUMENTS, ids=ARRAY_IDS)
def test_array_argument_of_wrong_shape_is_a_shape_error(name, call, good, wrong, finite):
    call(good)
    with pytest.raises(ShapeError, match=_names(name)):
        call(wrong)


@pytest.mark.parametrize("name, call, good, wrong, finite",
                         [a for a in ARRAY_ARGUMENTS if a[-1] is not None],
                         ids=[i for i, a in zip(ARRAY_IDS, ARRAY_ARGUMENTS) if a[-1] is not None])
def test_array_argument_with_a_nan_is_a_data_or_config_error(name, call, good, wrong, finite):
    bad = np.array(good, dtype=np.float64)
    bad.flat[-1] = np.nan
    with pytest.raises(finite, match=_names(name)) as err:
        call(bad)
    # A NaN setting is a ConfigError, never the ShapeError beneath it.
    assert type(err.value) is finite


@pytest.mark.parametrize("name, call, good, wrong, finite", ARRAY_ARGUMENTS, ids=ARRAY_IDS)
def test_array_argument_numpy_cannot_convert_is_a_config_error(name, call, good, wrong, finite):
    with pytest.raises(ConfigError, match=rf"{_names(name)}must be an array of numbers"):
        call(np.full(np.shape(good), "a", dtype=object))
