import tracemalloc
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
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
@given(
    kind=st.sampled_from(mk.kernels.KINDS),
    m=st.integers(1, 30),
    n=st.integers(1, 30),
    d=st.integers(1, 200),
    offset_data=st.booleans(),
    duplicates=st.integers(0, 5),
    scale=st.floats(0.3, 3.0),
    degree=st.integers(1, 3),
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
    # each is about 4e6 and their sum about -4e-3. The product
    # (F * mu) @ F' rounds F_0k mu_k F_1k and F_1k mu_k F_0k apart, so K
    # misses the Gram check's symmetry bound 1e-12 max(1, |K_ij|) by far.
    # It is still the valid PSD K(mu) the solvers form, and combine
    # returns it unchanged.
    mu = np.array([3.3, 7.1])
    a, b, c = 1234.567, 2345.678, 987.654
    d = -(mu[0] * a * c) / (mu[1] * b) * (1.0 + 1e-9)
    fam = mk.KernelFamily([[a, b], [c, d]])
    K = mk.combine(fam, mu)
    assert K.tobytes() == fam.combined_entries(mu).tobytes()
    with pytest.raises(NumericalError, match="not symmetric"):
        mk.KernelFamily.from_grams([K])
    y = np.array([1.0, -2.0])
    alpha = mk.krr_solve(K, y, 0.1)
    assert np.linalg.norm((K + 0.1 * np.eye(2)) @ alpha - y) <= 1e-8 * np.linalg.norm(y)


def test_combine_length_mismatch():
    fam = _random_family(3, p=2)
    with pytest.raises(ShapeError):
        mk.combine(fam, [1.0, 1.0, 1.0])


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
