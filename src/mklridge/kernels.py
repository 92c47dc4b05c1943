"""Base kernels, Gram matrices, and weighted kernel combinations.

A kernel family bundles p base kernels evaluated on one sample: their
specs, their m x m Gram matrices, and, for rank-one kernels, the explicit
feature columns that generate them. Everything here is an immutable value.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError, NumericalError, ShapeError

KINDS = ("gaussian", "linear", "polynomial", "rank1_feature", "constant_offset")

# Feature-map kinds with a finite, explicitly known embedding.
EXPLICIT_MAP_KINDS = ("rank1_feature", "constant_offset")


def sample_id_of(X) -> str:
    """Deterministic opaque identifier for a data matrix."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    h = hashlib.sha1()
    h.update(str(X.shape).encode())
    h.update(X.tobytes())
    return h.hexdigest()[:16]


def _is_number(value, integral: bool = False) -> bool:
    """Whether ``value`` is a finite real number, or with ``integral`` an
    integer; a bool is neither, and 2.0 is not an integer."""
    kind = numbers.Integral if integral else numbers.Real
    return (isinstance(value, kind) and not isinstance(value, bool)
            and (isinstance(value, numbers.Integral) or math.isfinite(value)))


def _as_matrix(X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeError(f"expected a 2-d data matrix, got shape {X.shape}")
    return X


def _as_vector(x, name="vector") -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeError(f"{name} must be 1-d, got shape {x.shape}")
    return x


@dataclass(frozen=True)
class KernelSpec:
    """One base kernel. Build instances through the classmethod constructors.

    Kinds: ``gaussian`` (bandwidth sigma), ``linear``, ``polynomial``
    (degree, additive offset), ``rank1_feature`` (product of one feature
    coordinate), ``constant_offset`` (all-ones kernel acting as a bias).
    """

    kind: str
    bandwidth: Optional[float] = None
    degree: Optional[int] = None
    offset: Optional[float] = None
    feature_index: Optional[int] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown kernel kind {self.kind!r}; expected one of {KINDS}")
        if self.kind == "gaussian" and not (_is_number(self.bandwidth) and self.bandwidth > 0):
            raise ConfigError("gaussian bandwidth must be a positive finite number, "
                              f"got {self.bandwidth!r}")
        if self.kind == "polynomial":
            if not (_is_number(self.degree, integral=True) and self.degree >= 1):
                raise ConfigError("polynomial degree must be an integer of at least 1, "
                                  f"got {self.degree!r}")
            if self.offset is None:
                object.__setattr__(self, "offset", 1.0)
            # A negative offset would break positive semidefiniteness.
            if not (_is_number(self.offset) and self.offset >= 0):
                raise ConfigError("polynomial offset must be a nonnegative finite number, "
                                  f"got {self.offset!r}")
        index = self.feature_index
        if self.kind == "rank1_feature" and not (_is_number(index, integral=True) and index >= 0):
            raise ConfigError("rank1_feature feature_index must be an integer of at least 0, "
                              f"got {index!r}")

    @classmethod
    def gaussian(cls, bandwidth: float) -> "KernelSpec":
        return cls(kind="gaussian", bandwidth=bandwidth)

    @classmethod
    def linear(cls) -> "KernelSpec":
        return cls(kind="linear")

    @classmethod
    def polynomial(cls, degree: int = 2, offset: float = 1.0) -> "KernelSpec":
        return cls(kind="polynomial", degree=degree, offset=offset)

    @classmethod
    def rank1(cls, feature_index: int) -> "KernelSpec":
        return cls(kind="rank1_feature", feature_index=feature_index)

    @classmethod
    def constant(cls) -> "KernelSpec":
        return cls(kind="constant_offset")


def _block(spec: KernelSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    # Kernel values between the rows of A and the rows of B: the one
    # evaluator behind eval_kernel, build_gram and cross_gram. Entry (i, j)
    # takes the same operations in the same order whatever the block shape,
    # so a 1 x 1 block equals the matching entry of a larger one bit for
    # bit, and A = B gives an exactly symmetric block. That is why dot
    # products go through einsum (a GEMM's rounding depends on the shape)
    # and Gaussian distances are direct differences (the expansion
    # |a|^2 + |b|^2 - 2 a.b cancels catastrophically on offset data).
    if spec.kind == "rank1_feature":
        return np.outer(A[:, spec.feature_index], B[:, spec.feature_index])
    if spec.kind == "constant_offset":
        return np.ones((A.shape[0], B.shape[0]))
    if spec.kind == "gaussian":
        out = np.empty((A.shape[0], B.shape[0]))
        for i, a in enumerate(A):
            D = B - a
            np.einsum("jk,jk->j", D, D, out=out[i])
        np.negative(out, out=out)
        out /= 2.0 * spec.bandwidth * spec.bandwidth
        return np.exp(out, out=out)
    out = np.einsum("ik,jk->ij", A, B)
    if spec.kind == "polynomial":
        out += spec.offset
        out **= spec.degree
    return out


def _check_index(spec: KernelSpec, dim: int):
    if spec.kind == "rank1_feature" and spec.feature_index >= dim:
        raise ConfigError(
            f"rank1_feature index {spec.feature_index} out of range for dimension {dim}"
        )


def eval_kernel(spec: KernelSpec, x, z) -> float:
    """Evaluate one kernel on a pair of points.

    Evaluated as a 1 x 1 block of the evaluator behind :func:`build_gram`
    and :func:`cross_gram`, so for sample rows xi, xj the value equals the
    corresponding Gram or cross-matrix entry bit for bit.
    """
    x = _as_vector(x, "x")
    z = _as_vector(z, "z")
    if x.shape != z.shape:
        raise ShapeError(f"point dimensions differ: {x.shape[0]} vs {z.shape[0]}")
    if not (np.isfinite(x).all() and np.isfinite(z).all()):
        raise DataError("kernel arguments contain non-finite values")
    _check_index(spec, x.shape[0])
    return float(_block(spec, x[None], z[None])[0, 0])


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Symmetric PSD matrix of kernel values over one sample."""

    entries: np.ndarray
    sample_id: str

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=np.float64)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ShapeError(f"Gram matrix must be square, got shape {e.shape}")
        if not np.isfinite(e).all():
            raise NumericalError("Gram matrix has non-finite entries")
        scale = np.maximum(1.0, np.abs(e))
        if not np.all(np.abs(e - e.T) <= 1e-12 * scale):
            raise NumericalError("Gram matrix is not symmetric within tolerance")
        if e.shape[0] and np.min(np.diag(e)) < -1e-12 * max(1.0, float(np.abs(e).max())):
            raise NumericalError("Gram matrix has a negative diagonal entry")
        e = e.copy()
        e.flags.writeable = False
        object.__setattr__(self, "entries", e)

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    def require_psd(self, rel_tol: float = 1e-8):
        """Raise unless the smallest eigenvalue is >= -rel_tol * largest."""
        eigs = np.linalg.eigvalsh(self.entries)
        smallest, largest = float(eigs[0]), float(eigs[-1])
        if smallest < -rel_tol * max(largest, np.finfo(float).tiny):
            raise NumericalError(
                f"Gram matrix is not PSD: min eigenvalue {smallest:.3e}, max {largest:.3e}"
            )


def build_gram(spec: KernelSpec, X) -> GramMatrix:
    """Pairwise kernel matrix over the rows of X.

    All kinds share one block evaluator with :func:`cross_gram` and
    :func:`eval_kernel`, so every entry equals the matching
    ``eval_kernel`` value bit for bit and the result is exactly symmetric
    (Gaussian diagonals are exactly 1).
    """
    X = _as_matrix(X)
    if not np.isfinite(X).all():
        raise DataError("data matrix contains non-finite values")
    _check_index(spec, X.shape[1])
    return GramMatrix(entries=_block(spec, X, X), sample_id=sample_id_of(X))


def cross_gram(spec: KernelSpec, A, B) -> np.ndarray:
    """Kernel values between rows of A and rows of B (len(A) x len(B)).

    Entry (i, j) equals ``eval_kernel(spec, A[i], B[j])`` bit for bit.
    """
    A = _as_matrix(A)
    B = _as_matrix(B)
    if A.shape[1] != B.shape[1]:
        raise ShapeError(f"point dimensions differ: {A.shape[1]} vs {B.shape[1]}")
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise DataError("data matrix contains non-finite values")
    _check_index(spec, A.shape[1])
    return _block(spec, A, B)


def _kappa0_from_grams(grams: Sequence[GramMatrix]) -> float:
    # Smallest valid bound on sqrt(sum_k K_k(x,x)^2) over the sample.
    diags = np.stack([np.diag(g.entries) for g in grams])
    return float(np.sqrt((diags**2).sum(axis=0)).max()) if diags.size else 0.0


def _explicit_features(specs: Sequence[KernelSpec], X: np.ndarray) -> Optional[np.ndarray]:
    # One column per kernel with K_k = outer(column, column) over the rows
    # of X, or None when some kind has no finite explicit feature map.
    if not all(s.kind in EXPLICIT_MAP_KINDS for s in specs):
        return None
    cols = []
    for s in specs:
        _check_index(s, X.shape[1])
        if s.kind == "rank1_feature":
            cols.append(X[:, s.feature_index])
        else:
            cols.append(np.ones(X.shape[0]))
    return np.column_stack(cols)


class KernelFamily:
    """Ordered collection of base kernels over a single sample.

    ``features``, when present, holds one column per kernel such that
    K_k = outer(features[:, k], features[:, k]); solvers use it as an
    exact fast path (ridge systems are solved in |supp mu| dimensions when
    that is below m, with the same residual guarantee as the dense solve),
    and the Gram matrices of such families materialize lazily on first
    access (idempotent, so benign under concurrency). Families of other
    kinds hold the Gram matrices that :func:`build_gram` evaluates.
    ``kappa0`` bounds sqrt(sum_k K_k(x,x)^2) over the sample, verified by
    direct evaluation of the kernel diagonals.
    """

    def __init__(self, grams=None, specs=None, features=None,
                 sample_id: Optional[str] = None):
        if (grams is None) == (features is None):
            raise ConfigError("kernel family needs either Gram matrices or feature columns")
        self.specs = None if specs is None else tuple(specs)
        self._grams = None
        self.features = None
        if features is not None:
            f = np.asarray(features, dtype=np.float64)
            if f.ndim != 2 or f.shape[1] == 0:
                raise ShapeError(f"features must be a nonempty 2-d matrix, got {f.shape}")
            if not np.isfinite(f).all():
                raise DataError("feature columns contain non-finite values")
            f = f.copy()
            f.flags.writeable = False
            self.features = f
            self._m, self._p = f.shape
        else:
            grams = tuple(grams)
            if not grams:
                raise ConfigError("kernel family must contain at least one kernel")
            sid = grams[0].sample_id
            m = grams[0].m
            for g in grams:
                if g.sample_id != sid:
                    raise ConfigError("all Gram matrices in a family must share one sample")
                if g.m != m:
                    raise ShapeError("all Gram matrices in a family must share one dimension")
            self._grams = grams
            self._m = m
            self._p = len(grams)
            sample_id = sid
        if sample_id is None:
            raise ConfigError("feature-backed families need an explicit sample_id")
        if self.specs is not None and len(self.specs) != self._p:
            raise ShapeError("specs and kernel counts differ")
        self.sample_id = sample_id
        self.kappa0 = self._compute_kappa0()

    def _compute_kappa0(self) -> float:
        if self._grams is not None:
            return _kappa0_from_grams(self._grams)
        diag = self.features**2  # K_k(x_i, x_i) for rank-one columns
        return float(np.sqrt((diag**2).sum(axis=1)).max())

    @property
    def grams(self) -> tuple:
        if self._grams is None:
            F = self.features
            self._grams = tuple(
                GramMatrix(entries=np.outer(F[:, k], F[:, k]), sample_id=self.sample_id)
                for k in range(self._p)
            )
        return self._grams

    @classmethod
    def from_specs(cls, specs: Sequence[KernelSpec], X) -> "KernelFamily":
        """Bundle the given specs over X; rank-one families stay lazy."""
        X = _as_matrix(X)
        if not np.isfinite(X).all():
            raise DataError("data matrix contains non-finite values")
        specs = tuple(specs)
        if not specs:
            raise ConfigError("kernel family must contain at least one kernel")
        features = _explicit_features(specs, X)
        if features is not None:
            return cls(specs=specs, features=features, sample_id=sample_id_of(X))
        grams = tuple(build_gram(s, X) for s in specs)
        return cls(grams=grams, specs=specs)

    @classmethod
    def from_grams(cls, mats) -> "KernelFamily":
        """Wrap raw PSD matrices (no evaluable specs) into a family.

        Raw matrices share the sample id hashed from the first raw matrix.
        """
        sid = None
        grams = []
        for mat in mats:
            if not isinstance(mat, GramMatrix):
                if sid is None:
                    sid = sample_id_of(np.asarray(mat, dtype=np.float64))
                mat = GramMatrix(entries=mat, sample_id=sid)
            grams.append(mat)
        return cls(grams=tuple(grams))

    @property
    def p(self) -> int:
        return self._p

    @property
    def m(self) -> int:
        return self._m

    def subset(self, indices) -> "KernelFamily":
        """Restrict every kernel to a sub-sample (row/column selection)."""
        idx = np.asarray(indices, dtype=np.intp)
        child_id = self.sample_id[:8] + "/" + hashlib.sha1(idx.tobytes()).hexdigest()[:8]
        if self.features is not None:
            return KernelFamily(
                specs=self.specs, features=self.features[idx], sample_id=child_id,
            )
        grams = tuple(
            GramMatrix(entries=g.entries[np.ix_(idx, idx)], sample_id=child_id)
            for g in self.grams
        )
        return KernelFamily(grams=grams, specs=self.specs)

    def select_kernels(self, kernel_indices) -> "KernelFamily":
        """Keep only the listed kernels (same sample)."""
        ks = list(kernel_indices)
        specs = None if self.specs is None else tuple(self.specs[k] for k in ks)
        if self.features is not None:
            return KernelFamily(
                specs=specs, features=self.features[:, ks], sample_id=self.sample_id,
            )
        return KernelFamily(grams=tuple(self.grams[k] for k in ks), specs=specs)

    def combined_entries(self, mu) -> np.ndarray:
        """Sum_k mu_k K_k as a raw array: one matrix product over the
        feature columns when the family has them, otherwise a sum over the
        Gram matrices, kernel by kernel in index order."""
        mu = _as_vector(mu, "mu")
        if mu.shape[0] != self.p:
            raise ShapeError(f"mu has length {mu.shape[0]}, family has {self.p} kernels")
        if self.features is not None:
            return (self.features * mu) @ self.features.T
        out = np.zeros((self.m, self.m))
        for k in range(self.p):
            out += mu[k] * self.grams[k].entries
        return out


def as_family(obj) -> KernelFamily:
    """Pass a KernelFamily through; anything else is a ConfigError."""
    if not isinstance(obj, KernelFamily):
        raise ConfigError(f"expected a KernelFamily, got {type(obj).__name__}")
    return obj


def combine(family: KernelFamily, mu) -> GramMatrix:
    """The weighted kernel K(mu) = sum_k mu_k K_k of a KernelFamily, mu >= 0.

    Its entries are :meth:`KernelFamily.combined_entries`, the K(mu) the
    solvers use.
    """
    fam = as_family(family)
    if np.any(np.asarray(mu, dtype=np.float64) < 0):
        raise ConfigError("combination weights must be nonnegative")
    return GramMatrix(entries=fam.combined_entries(mu), sample_id=fam.sample_id)


def compute_kappa(family: KernelFamily, mu_norm_bound: float) -> float:
    """Bound on the combined kernel's diagonal: kappa0 * (||mu0|| + radius)."""
    fam = as_family(family)
    if not 0.0 <= mu_norm_bound < np.inf:
        raise ConfigError("mu_norm_bound must be finite and nonnegative")
    return fam.kappa0 * float(mu_norm_bound)
