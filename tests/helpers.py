"""Shared random-instance generators, brute-force reference searches and
the Counter n-gram reference."""

from collections import Counter
from typing import Sequence

import numpy as np

import mklridge as mk
from mklridge import ConfigError, DataError, NgramVocabulary


def random_psd_instance(seed, m_range=(5, 30), p_range=(1, 8)):
    """Random PSD kernel family with targets and solver parameters.

    Kernels are normalized so the largest feasible combined kernel has
    unit spectral norm and lambda0 stays small; absolute fixed-point
    tolerances are meaningful at this scale.
    """
    rng = np.random.default_rng(seed)
    m = int(rng.integers(m_range[0], m_range[1] + 1))
    p = int(rng.integers(p_range[0], p_range[1] + 1))
    radius = float(rng.uniform(0.1, 0.6))
    lambda0 = float(rng.uniform(0.05, 0.12))
    mats = []
    for _ in range(p):
        rank = int(rng.integers(1, m + 1))
        A = rng.standard_normal((m, rank))
        K = A @ A.T
        K /= np.linalg.eigvalsh(K)[-1]
        mats.append(K)
    worst = sum((1.0 + radius) * K for K in mats)
    scale = np.linalg.eigvalsh(worst)[-1]
    fam = mk.KernelFamily.from_grams([K / scale for K in mats])
    y = rng.standard_normal(m)
    return fam, y, lambda0, radius


def kernel_stack(fam):
    """The p x m x m per-kernel matrices of a family: its stack, or for a
    rank-one family the outer products of its feature columns, formed by
    the same single products as np.outer, so equal to them bit for bit."""
    if fam.features is None:
        return fam.stack
    return np.einsum("ik,jk->kij", fam.features, fam.features)


def dual_objective_grid_min(mats, y, lam, points, chunk=20000):
    """min over the given weight vectors of y' (sum_k mu_k K_k + lam I)^-1 y."""
    m = mats[0].shape[0]
    best = np.inf
    stacked = np.stack(mats)
    for i in range(0, len(points), chunk):
        blk = np.asarray(points[i:i + chunk])
        Ks = np.tensordot(blk, stacked, axes=(1, 0)) + lam * np.eye(m)
        sols = np.linalg.solve(Ks, np.broadcast_to(y, (len(blk), m))[..., None])[..., 0]
        best = min(best, float((sols @ y).min()))
    return best


def ball_grid_points(mu0, radius, resolution):
    """Grid over the p=2 feasible set {mu >= 0, ||mu - mu0|| <= radius}."""
    lo = max(0.0, mu0[0] - radius)
    ax0 = np.arange(lo, mu0[0] + radius + resolution, resolution)
    lo1 = max(0.0, mu0[1] - radius)
    ax1 = np.arange(lo1, mu0[1] + radius + resolution, resolution)
    M0, M1 = np.meshgrid(ax0, ax1, indexing="ij")
    pts = np.column_stack([M0.ravel(), M1.ravel()])
    feasible = (np.linalg.norm(pts - np.asarray(mu0), axis=1) <= radius) & np.all(pts >= 0, axis=1)
    return pts[feasible]


def simplex_grid_points(p, budget, steps):
    """Lattice over {mu >= 0, sum(mu) <= budget} with the given step count."""
    pts = []

    def rec(prefix, remaining):
        if len(prefix) == p - 1:
            for c in range(remaining + 1):
                pts.append(prefix + [c])
            return
        for c in range(remaining + 1):
            rec(prefix + [c], remaining - c)

    rec([], steps)
    return np.asarray(pts, dtype=np.float64) * (budget / steps)


# The Counter n-gram pipeline that ``mklridge.data`` replaced with one sort,
# kept as the reference the tests compare it against.

def _doc_ngrams(doc, n: int) -> Counter:
    return Counter(tuple(doc[i:i + n]) for i in range(len(doc) - n + 1))


def counter_build_ngram_features(corpus: Sequence[Sequence[str]], n: int = 2, top: int = 100):
    if top < 1:
        raise ConfigError("top must be at least 1")
    if not corpus:
        raise DataError("corpus is empty")
    per_doc = [_doc_ngrams(list(doc), n) for doc in corpus]
    totals = Counter()
    for counts in per_doc:
        totals.update(counts)
    ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))[:top]
    vocab = NgramVocabulary(n=n, entries=tuple(ranked))
    return counts_for(per_doc, vocab), vocab


def counts_for(per_doc_counters, vocab: NgramVocabulary) -> np.ndarray:
    index = {ngram: i for i, (ngram, _) in enumerate(vocab.entries)}
    out = np.zeros((len(per_doc_counters), vocab.size))
    for i, counts in enumerate(per_doc_counters):
        for ngram, c in counts.items():
            j = index.get(ngram)
            if j is not None:
                out[i, j] = c
    return out


def counter_apply_vocabulary(corpus: Sequence[Sequence[str]], vocab: NgramVocabulary) -> np.ndarray:
    per_doc = [_doc_ngrams(list(doc), vocab.n) for doc in corpus]
    return counts_for(per_doc, vocab)
