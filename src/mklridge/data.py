"""Dataset ingestion, n-gram count features (the columns of rank-one
kernel families), and deterministic splits and folds."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError
from .kernels import (_BOOL, _CHAR, _FRACTION, _INTEGER, _LABEL_MAP, _as_matrix, _as_vector,
                      _check, _checked_indices, _int, _one_of)

TASKS = ("regression", "classification_pm1")

# The settings of load_delimited, with their rules; a config's delimited
# dataset obeys the same table.
_DELIMITED_RULES = {"label_column": _INTEGER, "delimiter": _CHAR, "task": _one_of(TASKS),
                    "label_map": _LABEL_MAP, "header": _BOOL}


@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature matrix with targets; classification targets are exact +/-1."""

    X: np.ndarray
    y: np.ndarray
    task: str = "regression"

    def __post_init__(self):
        X = _as_matrix(self.X, "X")
        y = _as_vector(self.y, "y", X.shape[0], DataError)
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}; expected one of {TASKS}")
        if self.task == "classification_pm1" and not np.all(np.isin(y, (-1.0, 1.0))):
            raise DataError("classification targets must be exactly -1 or +1")
        X = X.copy(); X.flags.writeable = False
        y = y.copy(); y.flags.writeable = False
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def m(self) -> int:
        return self.X.shape[0]

    def take(self, indices) -> "Dataset":
        """The rows at ``indices``, integers in [0, m); anything else is a ShapeError."""
        idx = _checked_indices(indices, self.m, "row")
        return Dataset(X=self.X[idx], y=self.y[idx], task=self.task)


def load_delimited(path, label_column: int = -1, delimiter: str = ",",
                   task: str = "regression", label_map: Optional[dict] = None,
                   header: bool = False) -> Dataset:
    """Read a delimited numeric UTF-8 file, with or without a leading
    byte-order mark, into a dataset.

    ``label_column`` indexes the target column (negative indices count
    from the end). With ``label_map``, raw label tokens are translated
    through the mapping; unmapped tokens are rejected. With ``header``,
    the first nonblank row is skipped. Parse problems are reported with
    their line and column. The settings obey the config's rules for a
    delimited dataset.
    """
    settings = {"label_column": label_column, "delimiter": delimiter, "task": task,
                "label_map": label_map, "header": header}
    _check("delimited dataset", _DELIMITED_RULES, settings)
    rows = []
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh, delimiter=delimiter)
        for lineno, row in enumerate(reader, start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            if header:
                header = False
                continue
            rows.append((lineno, [cell.strip() for cell in row]))
    if not rows:
        raise DataError(f"empty dataset: {path}")
    width = len(rows[0][1])
    if not -width <= label_column < width:
        raise ConfigError(f"label column {label_column} out of range for {width} fields")
    label_idx = label_column % width

    X_rows, y_vals = [], []
    for lineno, row in rows:
        if len(row) != width:
            raise DataError(f"line {lineno}: expected {width} fields, got {len(row)}")
        feats = []
        for col, cell in enumerate(row):
            if col == label_idx:
                continue
            try:
                val = float(cell)
            except ValueError as exc:
                raise DataError(
                    f"line {lineno}, column {col + 1}: non-numeric value {cell!r}"
                ) from exc
            if not math.isfinite(val):
                raise DataError(f"line {lineno}, column {col + 1}: non-finite value {cell!r}")
            feats.append(val)
        token = row[label_idx]
        if label_map is not None:
            if token not in label_map:
                raise DataError(f"line {lineno}: unmapped label {token!r}")
            label = float(label_map[token])
        else:
            try:
                label = float(token)
            except ValueError as exc:
                raise DataError(f"line {lineno}: non-numeric label {token!r}") from exc
        if not math.isfinite(label):
            raise DataError(f"line {lineno}: non-finite label {token!r}")
        X_rows.append(feats)
        y_vals.append(label)

    return Dataset(X=np.asarray(X_rows), y=np.asarray(y_vals), task=task)


def tokenize(text: str) -> list:
    """Lowercased whitespace tokenization."""
    return text.lower().split()


def load_text_corpus(path):
    """Read a labeled UTF-8 corpus: one document per line, 'label<TAB>text'.

    A leading byte-order mark is skipped.
    """
    docs, labels = [], []
    try:
        fh = open(path, encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if "\t" not in line:
                raise DataError(f"line {lineno}: expected 'label<TAB>text'")
            token, text = line.split("\t", 1)
            try:
                label = float(token)
            except ValueError as exc:
                raise DataError(f"line {lineno}: non-numeric label {token!r}") from exc
            if not math.isfinite(label):
                raise DataError(f"line {lineno}: non-finite label {token!r}")
            docs.append(tokenize(text))
            labels.append(label)
    if not docs:
        raise DataError(f"empty corpus: {path}")
    return docs, np.asarray(labels)


@dataclass(frozen=True)
class NgramVocabulary:
    """Retained n-grams ordered by descending count, ties in the token
    tuples' Python string order."""

    n: int
    entries: tuple  # ((token, ...), count) pairs

    def __post_init__(self):
        _int(1).check("n", self.n)
        object.__setattr__(self, "entries", tuple(self.entries))
        if any(len(ngram) != self.n for ngram, _ in self.entries):
            raise ConfigError(f"every vocabulary n-gram must hold n = {self.n} tokens")

    @property
    def size(self) -> int:
        return len(self.entries)


def _windows(corpus, n: int, code: dict):
    """Word ids of every n-gram window of a corpus, one row each.

    Returns ``(rows, doc)``: an (N, n) integer array whose row holds the
    ids ``code`` gives a window's tokens (-1 for a token it lacks), and
    the document each window lies in. Windows never cross documents.
    """
    lens = np.fromiter(map(len, corpus), dtype=np.intp, count=len(corpus))
    tokens = list(chain.from_iterable(corpus))
    ids = np.fromiter(map(code.get, tokens, repeat(-1)), dtype=np.intp, count=len(tokens))
    end = np.repeat(np.cumsum(lens), lens)
    start = np.flatnonzero(np.arange(len(tokens)) + n <= end)
    doc = np.repeat(np.arange(len(corpus)), lens)[start]
    return ids[start[:, None] + np.arange(n)], doc


def _group_rows(rows: np.ndarray):
    """Group the equal rows of an (N, n) array of integers >= -1 with one sort.

    Returns ``(group, first)``: ``group[i]`` numbers row i's group, the
    groups numbered in lexicographic order of their rows, and
    ``rows[first[g]]`` is the row of group g. Rows sort by one int64 key,
    their entries + 1 as digits in base max + 2; before a column that
    could carry it past 2**63, the key is replaced by its dense rank, so
    it is exact while N (max + 2) <= 2**63, as for word ids.
    """
    base = int(rows.max(initial=-1)) + 2
    key = np.zeros(len(rows), dtype=np.int64)
    for col in rows.T:
        if (int(key.max(initial=0)) + 1) * base > 2**63:
            key = np.unique(key, return_inverse=True)[1]
        key = key * base + (col + 1)
    order = np.argsort(key)
    ranked = key[order]
    new = np.ones(len(rows), dtype=bool)
    np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
    group = np.empty(len(rows), dtype=np.intp)
    group[order] = np.cumsum(new) - 1
    return group, order[new]


def _count_matrix(doc, column, n_docs: int, size: int) -> np.ndarray:
    """(n_docs, size) counts of windows per (document, column); windows
    whose column is ``size`` or more count nothing."""
    keep = column < size
    flat = np.bincount(doc[keep] * size + column[keep], minlength=n_docs * size)
    return flat.reshape(n_docs, size).astype(np.float64)


def build_ngram_features(corpus: Sequence[Sequence[str]], n: int = 2, top: int = 100):
    """Count matrix over the ``top`` most frequent n-grams of a corpus.

    The vocabulary is built from this corpus only and ranked by total
    occurrence count, descending; equal counts are ordered by the token
    tuples' Python string order, which is code-point order (``"B"``
    before ``"a"``). It is truncated to the number of distinct n-grams
    when ``top`` exceeds it. Column i of the returned matrix holds
    per-document occurrence counts of vocabulary entry i.
    """
    _int(1).check("top", top)
    _int(1).check("n", n)
    if not corpus:
        raise DataError("corpus is empty")
    # Ids in string order, so rows sort as the token tuples do.
    words = sorted(set(chain.from_iterable(corpus)))
    rows, doc = _windows(corpus, n, dict(zip(words, range(len(words)))))
    group, first = _group_rows(rows)
    totals = np.bincount(group)
    # A stable sort of lexicographically numbered groups keeps ties lexicographic.
    order = np.argsort(-totals, kind="stable")
    column = np.empty_like(order)
    column[order] = np.arange(len(order))
    ranked = order[:top]
    entries = tuple((tuple(words[i] for i in row), count) for row, count in
                    zip(rows[first[ranked]].tolist(), totals[ranked].tolist()))
    vocab = NgramVocabulary(n=n, entries=entries)
    return _count_matrix(doc, column[group], len(corpus), vocab.size), vocab


def apply_vocabulary(corpus: Sequence[Sequence[str]], vocab: NgramVocabulary) -> np.ndarray:
    """Count matrix for new documents under a frozen vocabulary.

    N-grams outside the vocabulary contribute nothing, and so does every
    n-gram holding a word the vocabulary lacks, so no information flows
    back from these documents.
    """
    ngrams = [ngram for ngram, _ in vocab.entries]
    words = set(chain.from_iterable(ngrams))
    code = dict(zip(words, range(len(words))))
    rows, doc = _windows(corpus, vocab.n, code)
    known = (rows >= 0).all(axis=1)
    vocab_rows = np.array([[code[w] for w in ngram] for ngram in ngrams],
                          dtype=np.intp).reshape(vocab.size, vocab.n)
    group, first = _group_rows(np.concatenate([vocab_rows, rows[known]]))
    column = np.full(len(first), vocab.size)
    column[group[:vocab.size]] = np.arange(vocab.size)
    return _count_matrix(doc[known], column[group[vocab.size:]], len(corpus), vocab.size)


@dataclass(frozen=True, eq=False)
class FoldPlan:
    """Assignment of each sample row to one of k folds."""

    k: int
    assignments: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.assignments, dtype=np.intp).copy()
        a.flags.writeable = False
        object.__setattr__(self, "assignments", a)

    def fold_indices(self, fold: int):
        """(train_indices, validation_indices) for one fold."""
        mask = self.assignments == fold
        return np.nonzero(~mask)[0], np.nonzero(mask)[0]


def make_folds(m: int, k: int, seed: int) -> FoldPlan:
    """Balanced random fold assignment; fold sizes differ by at most one."""
    _int(2).check("k", k)
    _int(k).check("m", m)
    _int(0).check("seed", seed)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(m)
    assignments = np.empty(m, dtype=np.intp)
    assignments[perm] = np.arange(m) % k
    return FoldPlan(k=k, assignments=assignments)


def split_indices(m: int, fraction: float, seed: int):
    """Deterministic shuffled split of range(m) into (train, test) indices."""
    _int(2).check("m", m)
    _FRACTION.check("fraction", fraction)
    _int(0).check("seed", seed)
    n_train = int(round(m * fraction))
    if not 1 <= n_train <= m - 1:
        raise ConfigError(f"fraction {fraction} leaves an empty side for m={m}")
    perm = np.random.default_rng(seed).permutation(m)
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])
