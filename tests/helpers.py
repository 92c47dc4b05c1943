"""Shared random-instance generators, brute-force reference searches, the
Counter n-gram reference, the lexsort row grouping, the reference
lasso-path walk, the reference Woodbury solve, the method-major CV loop
and the radius-0 CV fits through ``fit_l2``."""

from collections import Counter
from typing import Sequence

import numpy as np
import scipy.linalg.lapack

import mklridge as mk
from mklridge import ConfigError, DataError, NgramVocabulary, NumericalError
from mklridge import diagnostics, experiment
from mklridge.data import make_folds
from mklridge.solver import L1_PATH_MAX_KNOTS, _cholesky, _distinct_columns, _refined


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


def rank1_all_family(X, include_offset=True):
    """The ``rank1_all`` family over the rows of X, as the experiment runner
    builds it: one rank-one kernel per column, then the optional constant."""
    train = mk.Dataset(X=X, y=np.zeros(len(X)))
    return experiment.build_family({"kind": "rank1_all", "include_offset": include_offset}, train)


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


# ``mklridge.data._group_rows`` as it was before it sorted one integer key
# per row: a lexsort of the columns, kept as the reference for that key.

def lexsort_group_rows(rows: np.ndarray):
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    new = np.ones(len(rows), dtype=bool)
    np.any(ranked[1:] != ranked[:-1], axis=1, out=new[1:])
    group = np.empty(len(rows), dtype=np.intp)
    group[order] = np.cumsum(new) - 1
    return group, order[new]


# The lasso-path walk and active-block factor updates that
# ``mklridge.solver`` replaced with in-place buffers, kept as the reference
# the tests compare it against bit for bit.

def _reference_chol_append(L: np.ndarray, g: np.ndarray, gjj: float):
    # Lower factor of [[B, g], [g', gjj]] from the lower factor L of B: one
    # triangular solve for the new row. None when the new pivot is not
    # positive, i.e. the grown block lost definiteness.
    n = L.shape[0]
    row, info = scipy.linalg.lapack.dtrtrs(L, g, lower=1)
    pivot = gjj - float(row @ row)
    if info != 0 or not pivot > 0.0:
        return None
    out = np.zeros((n + 1, n + 1), order="F")
    out[:n, :n] = L
    out[n, :n] = row
    out[n, n] = np.sqrt(pivot)
    return out


def _reference_chol_delete(L: np.ndarray, i: int):
    # Lower factor of B with row and column i removed, from the lower factor
    # L of B. Rows and columns before i keep their entries; the trailing
    # block T T' + l l' (l the part of column i below the diagonal) is
    # refactored. None if that factorization fails.
    out = np.delete(np.delete(L, i, axis=0), i, axis=1)
    tail, col = L[i + 1:, i + 1:], L[i + 1:, i]
    if col.size:
        out[i:, i:], info = scipy.linalg.lapack.dpotrf(tail @ tail.T + np.outer(col, col),
                                                       lower=1)
        if info != 0:
            return None
    return out


def reference_l1_path_stops(F: np.ndarray, y: np.ndarray, classes):
    """What ``solver._l1_path_stops`` returns: the same walk, with fresh
    arrays at every knot."""
    keep = _distinct_columns(F)
    Fk = F[:, keep]
    G = Fk.T @ Fk
    Fty = Fk.T @ y
    stops = [(None, 0)] * len(classes)
    t = float(np.abs(Fty).max(initial=0.0))
    if t == 0.0:
        return stops
    pending = list(range(len(classes)))
    j = int(np.argmax(np.abs(Fty)))
    A, s = np.array([j]), np.sign(Fty[[j]])
    L = None
    for knots in range(1, L1_PATH_MAX_KNOTS * keep.size + 1):
        if L is None:
            L, info = scipy.linalg.lapack.dpotrf(G[np.ix_(A, A)], lower=1)
            if info != 0:
                break
        ud_A, _ = scipy.linalg.lapack.dpotrs(L, np.column_stack([Fty[A], s]), lower=1)
        u, d = ud_A.T
        su, sd = float(s @ u), float(s @ d)
        # On this segment corr(t') = F'(y - Fw) = b + t' a. As t' falls, an
        # inactive column joins where |corr_j(t')| reaches t' from below,
        # and an active weight leaves where it falls to zero; a root the
        # slope does not cross (the column that just changed sides) is no
        # event. A root at or above t (a tie, or roundoff) happens at t.
        # At a_j = 1 the gap t' - corr_j(t') is constant (at a_j = -1,
        # t' + corr_j(t')): no root. A column in the span of the active
        # ones that touches the boundary has |a_j| = 1 and rides it;
        # adding it would make the active block singular, so |a_j| within
        # 1e-9 of 1 counts as no root.
        ud = np.zeros((G.shape[0], 2))
        ud[A, 0], ud[A, 1] = u, d
        ua = G @ ud
        b = Fty - ua[:, 0]
        a = ua[:, 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            joins = np.stack([np.where(a < 1.0 - 1e-9, b / (1.0 - a), -np.inf),
                              np.where(a > -1.0 + 1e-9, -b / (1.0 + a), -np.inf)])
            leaves = np.where(s * d < 0.0, u / d, -np.inf)
        joins[:, A] = -np.inf
        joins = np.minimum(joins, t)
        leaves = np.minimum(leaves, t)
        side, k = np.unravel_index(int(np.argmax(joins)), joins.shape)
        i = int(np.argmax(leaves))
        event = max(joins[side, k], leaves[i])
        walking = []
        for q in pending:
            lam, budget = classes[q]
            c = lam / budget
            t_stop = c * su / (1.0 + c * sd)
            if event <= t_stop:
                w = np.abs(u - t_stop * d)
                mu = np.zeros(F.shape[1])
                mu[keep[A]] = budget * (w / w.sum())
                stops[q] = (mu, knots)
            else:
                walking.append(q)
        pending = walking
        if not pending:
            return stops
        if joins[side, k] >= leaves[i]:
            t = float(joins[side, k])
            L = _reference_chol_append(L, G[A, k], G[k, k])
            A, s = np.append(A, k), np.append(s, 1.0 - 2.0 * side)
        else:
            t = float(leaves[i])
            L = _reference_chol_delete(L, i)
            A, s = np.delete(A, i), np.delete(s, i)
    for q in pending:
        stops[q] = (None, knots)
    return stops


# An independent Woodbury solve, kept as the reference the tests compare
# ``solver._ridge_solve``'s route against: where the route scales G_SS from
# the family's thinnest factor, this forms Fd = F_S C and Fd'Fd from F.

def reference_woodbury_solve(fam, w, r, lam):
    """(K(w) + lam I) x = r for a rank-one family with s = |supp w| < m,
    through Fd = F_S sqrt(w_S)."""
    support = w > 0
    s = int(np.count_nonzero(support))
    Fd = fam.features[:, support] * np.sqrt(w[support])
    H = Fd.T @ Fd
    H[np.diag_indices(s)] += lam

    def smallest():
        return float(np.linalg.eigvalsh(H).min(initial=lam))

    L = _cholesky(H, smallest)

    def solve(b):
        z = scipy.linalg.lapack.dpotrs(L, Fd.T @ b, lower=1)[0] if s else np.zeros(0)
        return (b - Fd @ z) / lam

    return _refined(solve, lambda x: lam * x + Fd @ (Fd.T @ x), r, smallest,
                    lambda: float(np.linalg.norm(Fd)) ** 2 + lam)


# The method-major CV loop that ``experiment._run_trial`` replaced with a
# fold-major one, kept as the reference the tests compare it against: it
# builds every fold's family before any method runs, then runs each method
# over all folds. Selection, refit and test scoring are the package's own.

def method_major_run_trial(t, source, cfg, trial_seed):
    """What ``experiment._run_trial`` returns, with every fold family alive
    for the whole trial."""
    train, test, audit = source.trial_data(trial_seed)
    family = experiment.build_family(cfg.kernels, train)
    k = cfg.cv_folds
    if train.m < k:
        raise ConfigError(f"cv_folds is {k} but the training set has only {train.m} rows")
    plan = make_folds(train.m, k, int(trial_seed.generate_state(2)[1]))
    folds = [(tr, va, family.subset(tr)) for tr, va in map(plan.fold_indices, range(k))]
    audit = dict(audit, trial=t, orthogonality=diagnostics.orthogonality_check(family))
    per_method = {}
    for method in cfg.methods:
        combos = experiment._combo_grid(method, cfg, family.p)
        try:
            cv = [(fold[1], experiment._fold_grid(method, family, fold, train.y, combos, cfg))
                  for fold in folds]
            record = experiment._run_method_trial(method, family, combos, cv, train, test, cfg)
        except NumericalError as exc:
            record = {"failed": str(exc)}
        record["trial"] = t
        per_method[method] = record
    return per_method, audit


# The radius-0 CV fits that ``experiment._fold_grid`` replaced with one
# ridge solve per combo, kept as the reference the tests compare it
# against: each uniform or best_single combo is a ``fit_l2`` at radius 0,
# predicted through ``_predict_rows``.

def fit_l2_radius0_grid(method, family, fold, y, combos):
    """What ``experiment._fold_grid`` returns for ``uniform`` or
    ``best_single``, with each info cut to its iterations and convergence."""
    tr_idx, va_idx, sub = fold
    grid = []
    for combo in combos:
        fit = sub if method == "uniform" else sub.select_kernels([combo["kernel"]])
        model, _ = mk.fit_l2(fit, y[tr_idx], combo["lambda0"], 0.0)
        mu = model.weights.mu
        if method == "best_single":
            mu = np.zeros(family.p)
            mu[combo["kernel"]] = model.weights.mu[0]
        info = {"iterations": model.iterations, "converged": model.converged}
        grid.append((experiment._predict_rows(family, mu, model.alpha, tr_idx, va_idx), info))
    return grid
