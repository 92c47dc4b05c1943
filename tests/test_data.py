import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mklridge as mk
from mklridge import ConfigError, DataError, ShapeError
from mklridge.data import apply_vocabulary, load_text_corpus, split_indices

from helpers import (counter_apply_vocabulary, counter_build_ngram_features, kernel_stack,
                     lexsort_group_rows, rank1_all_family)


# --- load_delimited -----------------------------------------------------------

def test_load_two_line_csv(tmp_path):
    path = tmp_path / "tiny.csv"
    for bom in ("", "\ufeff"):  # a leading byte-order mark is skipped
        path.write_text(bom + "1,2,+1\n3,4,-1\n", encoding="utf-8")
        ds = mk.load_delimited(path, label_column=-1, task="classification_pm1")
        npt.assert_array_equal(ds.X, [[1.0, 2.0], [3.0, 4.0]])
        npt.assert_array_equal(ds.y, [1.0, -1.0])


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DataError, match="empty"):
        mk.load_delimited(path)


def test_load_nan_token_names_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2,0.5\n1,nan,0.5\n")
    with pytest.raises(DataError, match="line 2, column 2"):
        mk.load_delimited(path)


def test_load_non_numeric_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,x,0.5\n")
    with pytest.raises(DataError, match="line 1, column 2"):
        mk.load_delimited(path)


def test_load_label_map(tmp_path):
    path = tmp_path / "mapped.csv"
    path.write_text("1,2,M\n3,4,B\n")
    ds = mk.load_delimited(path, label_map={"M": 1, "B": -1}, task="classification_pm1")
    npt.assert_array_equal(ds.y, [1.0, -1.0])


def test_load_unmapped_label(tmp_path):
    path = tmp_path / "mapped.csv"
    path.write_text("1,2,M\n3,4,Q\n")
    with pytest.raises(DataError, match="unmapped label 'Q'"):
        mk.load_delimited(path, label_map={"M": 1, "B": -1})


def test_load_header_row(tmp_path):
    path = tmp_path / "named.csv"
    path.write_text("a,b,target\n1,2,0.5\n")
    ds = mk.load_delimited(path, header=True)
    npt.assert_array_equal(ds.X, [[1.0, 2.0]])


def test_load_ragged_row(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1,2,0\n1,2\n")
    with pytest.raises(DataError, match="line 2"):
        mk.load_delimited(path)


def test_load_semicolon_delimiter(tmp_path):
    path = tmp_path / "semi.csv"
    path.write_text("1;2;0.5\n")
    ds = mk.load_delimited(path, delimiter=";")
    npt.assert_array_equal(ds.X, [[1.0, 2.0]])


def test_classification_requires_pm1(tmp_path):
    path = tmp_path / "bad_labels.csv"
    path.write_text("1,2,3\n")
    with pytest.raises(DataError):
        mk.load_delimited(path, task="classification_pm1")


@pytest.mark.parametrize("setting, value", [
    ("label_column", 1.5), ("label_column", True), ("label_column", "1"),
    ("delimiter", "ab"), ("delimiter", 1), ("header", "yes"), ("label_map", {"a": "x"}),
    ("task", "ranking"),
])
def test_load_checks_settings_by_the_config_rules(tmp_path, setting, value):
    # The config's delimited-dataset rules: numpy and the csv module would
    # index by True, fail on 1.5 with a message about the cells, and raise
    # raw errors on the rest.
    path = tmp_path / "two.csv"
    path.write_text("1,2,a\n3,4,b\n")
    with pytest.raises(ConfigError, match=f"^{setting} must be "):
        mk.load_delimited(path, **{setting: value})


# --- n-gram features ------------------------------------------------------------

def test_bigram_hand_count():
    counts, vocab = mk.build_ngram_features([["a", "b", "a", "b"]], n=2, top=2)
    assert vocab.entries == ((("a", "b"), 2), (("b", "a"), 1))
    npt.assert_array_equal(counts, [[2.0, 1.0]])


def test_short_document_zero_row():
    counts, vocab = mk.build_ngram_features([["a", "b"], ["c"]], n=2, top=5)
    npt.assert_array_equal(counts[1], np.zeros(vocab.size))


def test_vocabulary_truncates_to_distinct():
    counts, vocab = mk.build_ngram_features([["a", "b", "c"]], n=2, top=100)
    assert vocab.size == 2
    assert counts.shape == (1, 2)


def test_vocabulary_tie_breaks_lexicographically():
    _, vocab = mk.build_ngram_features([["z", "q", "a", "b"]], n=2, top=3)
    # All bigrams occur once; order must be lexicographic.
    assert vocab.entries == ((("a", "b"), 1), (("q", "a"), 1), (("z", "q"), 1))


def test_vocabulary_determinism():
    corpus = [["the", "cat", "sat"], ["the", "cat", "ran"], ["a", "cat", "sat"]]
    _, v1 = mk.build_ngram_features(corpus, n=2, top=4)
    _, v2 = mk.build_ngram_features(corpus, n=2, top=4)
    assert v1.entries == v2.entries


def test_vocabulary_rejects_ngrams_of_another_length():
    with pytest.raises(ConfigError, match="n = 2 tokens"):
        mk.NgramVocabulary(n=2, entries=((("a", "b"), 1), (("a", "b", "c"), 1)))
    with pytest.raises(ConfigError, match="n must be an integer of at least 1"):
        mk.NgramVocabulary(n=2.5, entries=())


def test_apply_vocabulary_ignores_unseen():
    counts, vocab = mk.build_ngram_features([["a", "b", "c"]], n=2, top=10)
    test_counts = apply_vocabulary([["x", "y", "z"], ["a", "b"]], vocab)
    npt.assert_array_equal(test_counts[0], np.zeros(vocab.size))
    assert test_counts[1].sum() == 1.0


def test_empty_corpus_rejected():
    with pytest.raises(DataError):
        mk.build_ngram_features([], n=2, top=5)


def test_unigrams():
    counts, vocab = mk.build_ngram_features([["a", "a", "b"]], n=1, top=10)
    assert vocab.entries == ((("a",), 2), (("b",), 1))
    npt.assert_array_equal(counts, [[2.0, 1.0]])


# Code-point order differs from case-insensitive order ("B" < "a"), some
# tokens are prefixes of others, and some are not ASCII.
_TOKENS = ["a", "ab", "abc", "B", "b", "Ba", "z", "\u00e9", "\u00e9t\u00e9", "\u65e5\u672c", ""]
_UNSEEN = ["unseen", "A", "\u00df"]


def _assert_matches_counter_reference(train, test, n, top):
    counts, vocab = mk.build_ngram_features(train, n=n, top=top)
    ref_counts, ref_vocab = counter_build_ngram_features(train, n=n, top=top)
    assert vocab == ref_vocab
    assert all(type(count) is int and all(type(w) is str for w in ngram)
               for ngram, count in vocab.entries)
    npt.assert_array_equal(counts, ref_counts, strict=True)
    npt.assert_array_equal(apply_vocabulary(test, vocab),
                           counter_apply_vocabulary(test, ref_vocab), strict=True)


def _corpus(tokens):
    # Empty documents and documents shorter than n come up often.
    return st.lists(st.lists(st.sampled_from(tokens), max_size=10), min_size=1, max_size=8)


def _skewed_corpus(docs: int, seed: int):
    # Geometric draws over 30 words, so many trigrams repeat.
    rng = np.random.default_rng(seed)
    return [[f"w{i}" for i in np.minimum(rng.geometric(0.25, size=int(length)) - 1, 29)]
            for length in rng.integers(0, 40, size=docs)]


@settings(max_examples=150)
@given(train=_corpus(_TOKENS), test=st.lists(st.lists(st.sampled_from(_TOKENS + _UNSEEN),
                                                      max_size=10), max_size=6),
       n=st.integers(1, 4), top=st.integers(1, 30))
@example(train=_skewed_corpus(60, 1), test=_skewed_corpus(15, 2) + [["w0", "unseen", "w1"]],
         n=3, top=40)
def test_ngram_counts_match_counter_reference(train, test, n, top):
    _assert_matches_counter_reference(train, test, n, top)


def test_ngram_ties_at_the_cut_off_match_counter_reference():
    # Three bigrams occur once each; top=2 cuts between equal counts.
    train = [["b", "a", "B", "a"], ["a"], []]
    _assert_matches_counter_reference(train, [["B", "a", "x", "b", "a"]], n=2, top=2)
    _, vocab = mk.build_ngram_features(train, n=2, top=2)
    assert vocab.entries == ((("B", "a"), 1), (("a", "B"), 1))


def test_ngram_ids_do_not_overflow():
    # 300**8 > 2**63: a mixed-radix int64 code of an 8-gram would wrap.
    rng = np.random.default_rng(0)
    words = [f"w{i}" for i in range(300)]
    train = [[words[i] for i in rng.integers(300, size=int(length))]
             for length in rng.integers(0, 60, size=40)]
    train.append(words[::-1])
    train.append(words[-8:] * 3)
    test = [doc[:20] + ["unseen"] + doc[20:] for doc in train[::3]]
    _assert_matches_counter_reference(train, test, n=8, top=50)


def _assert_groups_match_lexsort(rows):
    group, first = mk.data._group_rows(rows)
    ref_group, ref_first = lexsort_group_rows(rows)
    npt.assert_array_equal(group, ref_group, strict=True)
    npt.assert_array_equal(rows[first], rows[ref_first], strict=True)


@settings(max_examples=150)
@given(n=st.integers(1, 8), count=st.integers(0, 60), high=st.sampled_from([1, 3, 300, 2**31 + 7]),
       seed=st.integers(0, 2**32 - 1))
def test_group_rows_matches_the_lexsort_reference(n, count, high, seed):
    # A few distinct ids, -1 and the largest among them, so rows repeat.
    rng = np.random.default_rng(seed)
    pool = np.append(rng.integers(-1, high, size=3), [-1, high - 1])
    _assert_groups_match_lexsort(rng.choice(pool, size=(count, n)))


def test_group_rows_ranks_keys_that_would_pass_2_63():
    # Ids near 2**31 put a three-column key past 2**63, so the third column
    # is merged into dense ranks; without them the key would wrap.
    rng = np.random.default_rng(3)
    pool = np.array([-1, 0, 2**31 - 2, 2**31 - 1, 2**31 + 5])
    rows = rng.choice(pool, size=(200, 3))
    _assert_groups_match_lexsort(rows)
    assert len(mk.data._group_rows(rows)[1]) == len(np.unique(rows, axis=0))


@pytest.mark.parametrize("n, top, message", [(0, 5, "n must be an integer of at least 1"),
                                              (-1, 5, "n must be an integer of at least 1"),
                                              (2, 0, "top must be an integer of at least 1"),
                                              (2.5, 5, "n must be an integer of at least 1"),
                                              (2, 2.5, "top must be an integer of at least 1"),
                                              (2, "3", "top must be an integer of at least 1")])
def test_ngram_rejects_bad_n_and_top(n, top, message):
    # Checked before any work, so ahead of the empty-corpus check too.
    for corpus in ([["a", "b", "c"]], []):
        with pytest.raises(ConfigError, match=message):
            mk.build_ngram_features(corpus, n=n, top=top)


# --- rank1_all families ------------------------------------------------------------

def test_rank1_single_column():
    fam = rank1_all_family(np.array([[2.0], [3.0]]), include_offset=False)
    npt.assert_array_equal(kernel_stack(fam)[0], [[4.0, 6.0], [6.0, 9.0]])


def test_rank1_offset_gram_is_all_ones():
    fam = rank1_all_family(np.array([[1.0], [2.0]]), include_offset=True)
    npt.assert_array_equal(kernel_stack(fam)[-1], np.ones((2, 2)))


def test_rank1_disjoint_columns_orthogonal():
    counts = np.array([[1.0, 0.0], [0.0, 2.0]])
    fam = rank1_all_family(counts, include_offset=False)
    assert mk.orthogonality_check(fam) is True


def test_rank1_sum_equals_count_gram():
    rng = np.random.default_rng(3)
    counts = rng.integers(0, 5, size=(7, 4)).astype(float)
    fam = rank1_all_family(counts, include_offset=False)
    total = np.zeros((7, 7))
    for K in kernel_stack(fam):
        total += K
    assert np.max(np.abs(total - counts @ counts.T)) <= 1e-12


# --- folds and splits ----------------------------------------------------------------

def test_folds_singletons():
    plan = mk.make_folds(10, 10, seed=0)
    sizes = np.bincount(plan.assignments, minlength=10)
    npt.assert_array_equal(sizes, np.ones(10))


def test_folds_deterministic():
    a = mk.make_folds(37, 5, seed=9)
    b = mk.make_folds(37, 5, seed=9)
    npt.assert_array_equal(a.assignments, b.assignments)


@settings(max_examples=40)
@given(m=st.integers(4, 200), k=st.integers(2, 12), seed=st.integers(0, 1000))
def test_folds_balanced(m, k, seed):
    if k > m:
        k = m
    plan = mk.make_folds(m, k, seed)
    sizes = np.bincount(plan.assignments, minlength=k)
    assert sizes.max() - sizes.min() <= 1
    tr, va = plan.fold_indices(0)
    assert len(set(tr) & set(va)) == 0
    assert len(tr) + len(va) == m


def test_folds_validation():
    with pytest.raises(ConfigError):
        mk.make_folds(5, 6, seed=0)
    with pytest.raises(ConfigError):
        mk.make_folds(5, 1, seed=0)


@pytest.mark.parametrize("k", [2.5, 3.0, "3", True])
def test_folds_reject_non_integer_k(k):
    # numpy would take 2.5 as a fold count and deal out three folds.
    with pytest.raises(ConfigError, match="k must be an integer of at least 2"):
        mk.make_folds(5, k, seed=0)


def test_folds_reject_non_integer_m():
    # numpy's permutation would raise an AxisError on a float sample size.
    with pytest.raises(ConfigError, match="m must be an integer of at least 2"):
        mk.make_folds(5.5, 2, seed=0)


@pytest.mark.parametrize("seed", [2.5, -1])
def test_folds_reject_bad_seed(seed):
    # numpy would raise a raw TypeError on 2.5 and a ValueError on -1.
    with pytest.raises(ConfigError, match="seed must be an integer of at least 0"):
        mk.make_folds(5, 2, seed)


def test_split_even():
    train, test = split_indices(100, 0.5, seed=4)
    assert len(train) == 50 and len(test) == 50


def test_split_deterministic_and_disjoint():
    tr1, te1 = split_indices(31, 0.6, seed=2)
    tr2, te2 = split_indices(31, 0.6, seed=2)
    npt.assert_array_equal(tr1, tr2)
    npt.assert_array_equal(te1, te2)
    assert len(set(tr1) & set(te1)) == 0
    assert len(tr1) + len(te1) == 31


def test_split_fraction_validation():
    with pytest.raises(ConfigError):
        split_indices(4, 0.0, seed=0)
    with pytest.raises(ConfigError):
        split_indices(4, 1.0, seed=0)


def test_split_rejects_non_integer_m():
    with pytest.raises(ConfigError, match="m must be an integer"):
        split_indices(7.5, 0.5, seed=0)


@pytest.mark.parametrize("seed", [2.5, -1])
def test_split_rejects_bad_seed(seed):
    with pytest.raises(ConfigError, match="seed must be an integer of at least 0"):
        split_indices(7, 0.5, seed)


# --- text corpus -----------------------------------------------------------------------

def test_load_text_corpus(tmp_path):
    path = tmp_path / "docs.txt"
    for bom in ("", "\ufeff"):  # a leading byte-order mark is skipped
        path.write_text(bom + "1\tGood Product works GREAT\n-1\tterrible waste of money\n",
                        encoding="utf-8")
        docs, y = load_text_corpus(path)
        assert docs[0] == ["good", "product", "works", "great"]
        npt.assert_array_equal(y, [1.0, -1.0])


def test_load_text_corpus_requires_tab(tmp_path):
    path = tmp_path / "docs.txt"
    path.write_text("no label here\n")
    with pytest.raises(DataError, match="line 1"):
        load_text_corpus(path)


@pytest.mark.parametrize("label", ["nan", "inf", "-Infinity"])
def test_load_text_corpus_rejects_non_finite_label(tmp_path, label):
    path = tmp_path / "docs.txt"
    path.write_text(f"1\tgood film\n{label}\tbad film\n")
    with pytest.raises(DataError, match=f"line 2: non-finite label '{label}'"):
        load_text_corpus(path)


def test_counts_round_trip():
    corpus = [["a", "b", "a"], ["b", "a", "b"]]
    counts, vocab = mk.build_ngram_features(corpus, n=2, top=10)
    again = apply_vocabulary(corpus, vocab)
    npt.assert_array_equal(counts, again)


def test_dataset_validation():
    with pytest.raises(DataError):
        mk.Dataset(X=np.array([[np.nan]]), y=np.array([1.0]))
    with pytest.raises(DataError):
        mk.Dataset(X=np.ones((2, 1)), y=np.array([1.0, 2.0]), task="classification_pm1")


@pytest.mark.parametrize("indices", [
    [0.7, 1.2], np.array([0.5]), [-1], np.array([-1]), [3], [True, False, True],
    np.array([True, False, True]), [[0, 1]]])
def test_dataset_take_rejects_what_is_not_a_row_index(indices):
    # numpy would truncate 0.7 to 0, wrap -1 to the last row and read
    # booleans as integers (or as a mask).
    ds = mk.Dataset(X=np.arange(6.0).reshape(3, 2), y=np.arange(3.0))
    with pytest.raises(ShapeError):
        ds.take(indices)


def test_dataset_take_selects_rows_in_order():
    ds = mk.Dataset(X=np.arange(6.0).reshape(3, 2), y=np.arange(3.0))
    for indices in ([2, 0, 2], np.array([1], dtype=np.int32)):
        part = ds.take(indices)
        npt.assert_array_equal(part.X, ds.X[np.asarray(indices)])
        npt.assert_array_equal(part.y, ds.y[np.asarray(indices)])
