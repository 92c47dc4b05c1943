import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mklridge as mk
from mklridge import ConfigError, DataError, KernelSpec, NumericalError, ShapeError

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


# --- eval_kernel examples --------------------------------------------------

def test_eval_linear_dot():
    assert mk.eval_kernel(KernelSpec.linear(), [1, 2], [3, 4]) == 11.0


def test_eval_polynomial():
    assert mk.eval_kernel(KernelSpec.polynomial(2, 1.0), [1, 0], [1, 0]) == 4.0


def test_eval_rank1():
    assert mk.eval_kernel(KernelSpec.rank1(1), [0, 5], [0, 2]) == 10.0


def test_eval_constant():
    assert mk.eval_kernel(KernelSpec.constant(), [3.0], [9.0]) == 1.0


def test_eval_dimension_mismatch():
    with pytest.raises(ShapeError):
        mk.eval_kernel(KernelSpec.linear(), [1, 2], [1, 2, 3])


def test_eval_non_finite():
    with pytest.raises(DataError):
        mk.eval_kernel(KernelSpec.linear(), [np.nan, 1.0], [1.0, 1.0])


# --- build_gram examples ---------------------------------------------------

def test_gram_linear_orthonormal_rows():
    g = mk.build_gram(KernelSpec.linear(), [[1, 0], [0, 1]])
    npt.assert_array_equal(g.entries, np.eye(2))


def test_gram_gaussian_unit_diagonal():
    X = random_matrix(7, 3, 0)
    for bw in (0.3, 1.0, 5.0):
        g = mk.build_gram(KernelSpec.gaussian(bw), X)
        npt.assert_array_equal(np.diag(g.entries), np.ones(7))


def test_gram_rank1_outer_product():
    g = mk.build_gram(KernelSpec.rank1(0), [[2.0], [3.0]])
    npt.assert_array_equal(g.entries, [[4.0, 6.0], [6.0, 9.0]])


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
    assert a.entries.tobytes() == b.entries.tobytes()
    assert a.sample_id == b.sample_id


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
    scale = np.maximum(1.0, np.abs(g.entries))
    assert np.all(np.abs(g.entries - g.entries.T) <= 1e-12 * scale)
    assert np.all(np.diag(g.entries) >= 0.0)
    g.require_psd(rel_tol=1e-8)


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
        abs(mk.eval_kernel(spec, X[i], X[j]) - g.entries[i, j])
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
                assert C[i, j] == mk.eval_kernel(spec, A[i], B[j])


def _scalar_reference(spec, x, z):
    # Per-pair kernel formula, independent of the block evaluator behind
    # build_gram, cross_gram and eval_kernel.
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

    G = mk.build_gram(spec, X).entries
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
            assert mk.eval_kernel(spec, X[i], Z[j]) == C[i, j]


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
    npt.assert_array_equal(K.entries, np.zeros((fam.m, fam.m)))


def test_combine_single_kernel_scaling():
    fam = _random_family(1, p=1)
    K = mk.combine(fam, [2.0])
    npt.assert_array_equal(K.entries, 2.0 * fam.grams[0].entries)


def test_combine_identity_sum():
    fam = mk.KernelFamily.from_grams([np.eye(2), np.eye(2)])
    K = mk.combine(fam, [1.0, 1.0])
    npt.assert_array_equal(K.entries, 2.0 * np.eye(2))


@settings(max_examples=25)
@given(seed=st.integers(0, 5000), p=st.integers(1, 6))
def test_combine_matches_independent_loop_exactly(seed, p):
    fam = _random_family(seed, m=6, p=p)
    mu = np.random.default_rng(seed + 1).uniform(0.0, 3.0, size=p)
    K = mk.combine(fam, mu)
    acc = np.zeros((fam.m, fam.m))
    for k in range(p):
        acc += mu[k] * fam.grams[k].entries
    npt.assert_array_equal(K.entries, acc)


@pytest.mark.parametrize("kind", ["dense", "rank1"])
def test_combine_equals_combined_entries(kind):
    # combine is the solvers' K(mu): bit-equal on both family layouts.
    if kind == "dense":
        fam = _random_family(4, m=6, p=4)
    else:
        fam = mk.rank1_family(np.abs(random_matrix(6, 3, 4)), include_offset=True)
        assert fam.features is not None
    mu = np.array([0.5, 1.5, 2.0, 1.0])
    npt.assert_array_equal(mk.combine(fam, mu).entries, fam.combined_entries(mu))


def test_combine_rejects_negative_weights():
    fam = _random_family(2, p=2)
    with pytest.raises(ConfigError):
        mk.combine(fam, [1.0, -0.5])


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
    diags = np.stack([np.diag(g.entries) for g in fam.grams])
    assert np.all(np.sqrt((diags**2).sum(axis=0)) <= fam.kappa0 + 1e-12)


# --- family bookkeeping -----------------------------------------------------

def test_family_requires_shared_sample():
    g1 = mk.build_gram(KernelSpec.linear(), random_matrix(4, 2, 0))
    g2 = mk.build_gram(KernelSpec.linear(), random_matrix(4, 2, 1))
    with pytest.raises(ConfigError):
        mk.KernelFamily(grams=(g1, g2))


def test_from_grams_hashes_the_first_raw_matrix():
    raw = [np.eye(2), 2.0 * np.eye(2)]
    fam = mk.KernelFamily.from_grams(raw)
    assert fam.sample_id == mk.kernels.sample_id_of(raw[0])
    assert mk.KernelFamily.from_grams(iter(raw)).sample_id == fam.sample_id
    with pytest.raises(ConfigError, match="must share one sample"):
        mk.KernelFamily.from_grams([mk.GramMatrix(np.eye(2), "a"), np.eye(2)])


def test_family_subset_consistency():
    X = random_matrix(8, 3, 5)
    fam = mk.KernelFamily.from_specs([KernelSpec.linear(), KernelSpec.gaussian(1.0)], X)
    idx = np.array([0, 2, 5])
    sub = fam.subset(idx)
    assert sub.m == 3 and sub.p == 2
    npt.assert_array_equal(sub.grams[0].entries, fam.grams[0].entries[np.ix_(idx, idx)])
    direct = mk.KernelFamily.from_specs(fam.specs, X[idx])
    assert np.isclose(sub.kappa0, direct.kappa0)


def test_family_subset_lazy_matches_direct_build():
    X = np.abs(random_matrix(7, 4, 6))
    fam = mk.rank1_family(X, include_offset=True)
    idx = np.array([1, 3, 4])
    sub = fam.subset(idx)
    direct = mk.rank1_family(X[idx], include_offset=True)
    for a, b in zip(sub.grams, direct.grams):
        npt.assert_array_equal(a.entries, b.entries)
    assert sub.kappa0 == direct.kappa0


def test_family_select_kernels():
    X = random_matrix(5, 3, 7)
    fam = mk.KernelFamily.from_specs(
        [KernelSpec.linear(), KernelSpec.gaussian(1.0), KernelSpec.polynomial(2)], X
    )
    sel = fam.select_kernels([2, 0])
    assert sel.p == 2
    assert sel.specs[0].kind == "polynomial"
    npt.assert_array_equal(sel.grams[1].entries, fam.grams[0].entries)


def test_select_kernels_keeps_feature_families_lazy():
    fam = mk.rank1_family(np.abs(random_matrix(6, 3, 8)), include_offset=True)
    fam.grams  # materialize the parent's Gram matrices first
    sel = fam.select_kernels([3, 1])
    assert sel.features is not None and sel._grams is None
    npt.assert_array_equal(sel.features, fam.features[:, [3, 1]])
    for got, want in zip(sel.grams, (fam.grams[3], fam.grams[1])):
        assert got.entries.tobytes() == want.entries.tobytes()


def test_family_holds_one_representation():
    grams = [mk.build_gram(KernelSpec.linear(), random_matrix(4, 2, 0))]
    with pytest.raises(ConfigError):
        mk.KernelFamily(grams=grams, features=np.ones((4, 1)), sample_id="x")
    with pytest.raises(ConfigError):
        mk.KernelFamily()


@pytest.mark.parametrize("bad", [np.inf, -np.inf])  # NaN: test_feature_route_nan_features_raise
def test_family_rejects_infinite_features(bad):
    with pytest.raises(DataError):
        mk.KernelFamily(features=[[1.0], [bad], [0.0]], sample_id="x")


@pytest.mark.filterwarnings("error")
def test_gram_matrix_rejects_asymmetry():
    with pytest.raises(NumericalError, match="not symmetric"):
        mk.GramMatrix(entries=np.array([[1.0, 2.0], [0.5, 1.0]]), sample_id="x")
    # A symmetric matrix with a NaN or an infinite entry is named for that.
    for bad in (np.nan, np.inf):
        with pytest.raises(NumericalError, match="non-finite entries"):
            mk.GramMatrix(entries=np.array([[bad, 0.0], [0.0, 1.0]]), sample_id="x")


def test_gram_matrix_rejects_negative_diagonal():
    with pytest.raises(NumericalError):
        mk.GramMatrix(entries=np.array([[-1.0, 0.0], [0.0, 1.0]]), sample_id="x")


def test_require_psd_flags_indefinite():
    g = mk.GramMatrix(entries=np.array([[1.0, 2.0], [2.0, 1.0]]), sample_id="x")
    with pytest.raises(NumericalError):
        g.require_psd()
