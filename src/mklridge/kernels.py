"""Base kernels, Gram matrices, and weighted kernel combinations.

A kernel family bundles p base kernels evaluated on one sample: their
specs and one array, the explicit feature columns of rank-one kernels or
the stack of m x m Gram matrices of any others. Everything here is an
immutable value.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError, NumericalError, ShapeError

# Feature-map kinds with a finite, explicitly known embedding.
EXPLICIT_MAP_KINDS = ("rank1_feature", "constant_offset")


def _is_number(value, integral: bool = False) -> bool:
    """Whether ``value`` is a finite real number, or with ``integral`` an
    integer; a bool is neither, and 2.0 is not an integer."""
    if type(value) in (int, float):  # the usual case, without the slower ABC checks
        return type(value) is int or (not integral and math.isfinite(value))
    kind = numbers.Integral if integral else numbers.Real
    return (isinstance(value, kind) and not isinstance(value, bool)
            and (isinstance(value, numbers.Integral) or math.isfinite(value)))


class _Rule(NamedTuple):
    """What one scalar argument or config value may be: ``text`` says it in errors."""

    text: str
    test: Callable
    required: bool = False

    def check(self, name: str, value):
        """``value`` when it obeys the rule, else a ConfigError naming ``name``."""
        if not self.test(value):
            raise ConfigError(f"{name} must be {self.text}, got {value!r}")
        return value


def _int(low) -> _Rule:
    return _Rule(f"an integer of at least {low}",
                 lambda v: _is_number(v, integral=True) and v >= low)


def _one_of(choices) -> _Rule:
    return _Rule(f"one of {list(choices)}", lambda v: isinstance(v, str) and v in choices)


_POSITIVE = _Rule("a positive finite number", lambda v: _is_number(v) and v > 0)
_NONNEGATIVE = _Rule("a nonnegative finite number", lambda v: _is_number(v) and v >= 0)
_FRACTION = _Rule("a number strictly between 0 and 1", lambda v: _is_number(v) and 0 < v < 1)
_INTEGER = _Rule("an integer", partial(_is_number, integral=True))
_BOOL = _Rule("true or false", lambda v: isinstance(v, bool))
_CHAR = _Rule("a one-character string", lambda v: isinstance(v, str) and len(v) == 1)
_LABEL_MAP = _Rule("null or a JSON object of finite numbers", lambda v: v is None or (
    isinstance(v, dict) and all(map(_is_number, v.values()))))


def _required(rule: _Rule) -> _Rule:
    return rule._replace(required=True)


def _check(name: str, rules, section, path: str = ""):
    """Raise ConfigError unless ``section`` is a JSON object whose keys and
    values obey ``rules``: a {key: rule} table, or a (selector key, its
    default, {selector value: table}) triple. ``name`` labels the section
    and ``path`` prefixes key names in errors. Returns the section's
    selector value, or None if it has no selector."""
    if not isinstance(section, dict):
        raise ConfigError(f"{path[:-1] or name} must be a JSON object, got {section!r}")
    kind, selector, where = None, (), ""
    if isinstance(rules, tuple):
        key, default, by_kind = rules
        kind = section.get(key, default)
        if not (isinstance(kind, str) and kind in by_kind):
            raise ConfigError(f"unknown {name} {key} {kind!r}; expected one of {list(by_kind)}")
        rules, selector, where = by_kind[kind], (key,), f" for {key} {kind!r}"
    unknown = set(section).difference(rules, selector)
    if unknown:
        raise ConfigError(f"unknown {name} keys{where}: {sorted(unknown)}")
    missing = [key for key, rule in rules.items() if rule.required and key not in section]
    if missing:
        raise ConfigError(f"missing {name} keys{where}: {missing}")
    for key, rule in rules.items():
        if key in section:
            rule.check(path + key, section[key])
    return kind


_FLOAT64 = np.dtype(np.float64)


def _as_float64(x, name: str) -> np.ndarray:
    try:
        return np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be an array of numbers: {exc}") from exc


def _as_matrix(X, name: str = "data matrix", cols=None) -> np.ndarray:
    """``X`` as a finite 2-d float64 array, with ``cols`` columns when given.

    A wrong shape is a ShapeError and a NaN or infinite entry a DataError,
    each naming ``name``; a value numpy cannot convert is a ConfigError.
    """
    X = _as_float64(X, name)
    if X.ndim != 2:
        raise ShapeError(f"{name} must be 2-d, got shape {X.shape}")
    if cols is not None and X.shape[1] != cols:
        raise ShapeError(f"{name} has {X.shape[1]} columns, expected {cols}")
    if not np.isfinite(X).all():
        raise DataError(f"{name} contains non-finite values")
    return X


def _as_vector(x, name: str = "vector", length=None, finite=None) -> np.ndarray:
    """``x`` as a 1-d float64 array, uncopied when it already is one.

    A length other than ``length`` (when given) is a ShapeError naming
    ``name``. ``finite``, an error class, is raised on a NaN or infinite
    entry: DataError for data, ConfigError for settings. Without it no
    entry is read, so a hot path pays for the shape checks only.
    """
    if type(x) is not np.ndarray or x.dtype is not _FLOAT64:
        x = _as_float64(x, name)
    if x.ndim != 1:
        raise ShapeError(f"{name} must be 1-d, got shape {x.shape}")
    if length is not None and x.shape[0] != length:
        raise ShapeError(f"{name} has length {x.shape[0]}, expected {length}")
    if finite is not None and not np.isfinite(x).all():
        raise finite(f"{name} contains non-finite values")
    return x


def _norm(x: np.ndarray) -> float:
    """||x|| of a 1-d float64 array, bit for bit np.linalg.norm's, at less cost:
    the dot of a contiguous copy, since a strided dot rounds differently."""
    x = x.ravel(order="K")
    return math.sqrt(x.dot(x))


# The fields each kind of kernel spec takes, with their rules; a config's
# kernel specs obey the same table.
_SPEC_RULES = ("kind", None, {
    "gaussian": {"bandwidth": _required(_POSITIVE)},
    "linear": {},
    # A negative offset would break positive semidefiniteness.
    "polynomial": {"degree": _required(_int(1)), "offset": _NONNEGATIVE},
    "rank1_feature": {"feature_index": _required(_int(0))},
    "constant_offset": {},
})
KINDS = tuple(_SPEC_RULES[2])


@dataclass(frozen=True)
class KernelSpec:
    """One base kernel. Build instances through the classmethod constructors.

    Kinds: ``gaussian`` (bandwidth sigma), ``linear``, ``polynomial``
    (degree, additive offset, 1.0 when unset), ``rank1_feature`` (product
    of one feature coordinate), ``constant_offset`` (all-ones kernel acting
    as a bias). A spec takes only its kind's fields; None leaves one unset.
    """

    kind: str
    bandwidth: Optional[float] = None
    degree: Optional[int] = None
    offset: Optional[float] = None
    feature_index: Optional[int] = None

    def __post_init__(self):
        _check("kernel spec", _SPEC_RULES, {k: v for k, v in vars(self).items() if v is not None})
        if self.kind == "polynomial" and self.offset is None:
            object.__setattr__(self, "offset", 1.0)

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
    # evaluator behind build_gram and cross_gram. Entry (i, j) takes the
    # same operations in the same order whatever the block shape, so a
    # 1 x 1 block equals the matching entry of a larger one bit for bit,
    # and A = B gives an exactly symmetric block. That is why dot
    # products go through einsum (a GEMM's rounding depends on the shape)
    # and Gaussian distances are direct differences (the expansion
    # |a|^2 + |b|^2 - 2 a.b cancels catastrophically on offset data),
    # taken r rows of A at a time with the r x n x d differences D under
    # 64K doubles; each row's sums are those of a one-row chunk.
    if spec.kind == "rank1_feature":
        return np.outer(A[:, spec.feature_index], B[:, spec.feature_index])
    if spec.kind == "constant_offset":
        return np.ones((A.shape[0], B.shape[0]))
    if spec.kind == "gaussian":
        out = np.empty((A.shape[0], B.shape[0]))
        r = max(1, 65536 // max(B.size, 1))
        for i in range(0, A.shape[0], r):
            D = B - A[i:i + r, None, :]
            np.einsum("ijk,ijk->ij", D, D, out=out[i:i + r])
        np.negative(out, out=out)
        out /= 2.0 * spec.bandwidth * spec.bandwidth
        return np.exp(out, out=out)
    out = np.einsum("ik,jk->ij", A, B)
    if spec.kind == "polynomial":
        out += spec.offset
        if spec.degree > 1:
            # Repeated multiplication: ``**`` would call libm pow per entry.
            base = out.copy()
            for _ in range(spec.degree - 1):
                out *= base
    return out


def _check_index(spec: KernelSpec, dim: int):
    if spec.kind == "rank1_feature" and spec.feature_index >= dim:
        raise ConfigError(
            f"rank1_feature index {spec.feature_index} out of range for dimension {dim}"
        )


def _checked_gram(entries) -> np.ndarray:
    """``entries`` as float64, uncopied when it already is, once it is
    square, finite, symmetric within 1e-12 and has no negative diagonal."""
    e = np.asarray(entries, dtype=np.float64)
    if e.ndim != 2 or e.shape[0] != e.shape[1]:
        raise ShapeError(f"Gram matrix must be square, got shape {e.shape}")
    if not np.isfinite(e).all():
        raise DataError("Gram matrix has non-finite entries")
    # Two m x m temporaries, each reused in place: the entrywise scale
    # max(1, |e|) and the asymmetry |e - e'|.
    scale = np.abs(e)
    np.maximum(scale, 1.0, out=scale)
    largest = float(scale.max(initial=0.0))
    asym = e - e.T
    np.abs(asym, out=asym)
    scale *= 1e-12
    if not np.all(asym <= scale):
        raise NumericalError("Gram matrix is not symmetric within tolerance")
    if e.shape[0] and np.min(np.diag(e)) < -1e-12 * largest:
        raise NumericalError("Gram matrix has a negative diagonal entry")
    return e


def build_gram(spec: KernelSpec, X) -> np.ndarray:
    """Pairwise kernel matrix over the rows of X, a new checked array.

    All kinds share one block evaluator with :func:`cross_gram`, so entry
    (i, j) equals ``cross_gram(spec, X[i:i+1], X[j:j+1])`` bit for bit and
    the result is exactly symmetric (Gaussian diagonals are exactly 1).
    """
    X = _as_matrix(X)
    _check_index(spec, X.shape[1])
    return _checked_gram(_block(spec, X, X))


def cross_gram(spec: KernelSpec, A, B) -> np.ndarray:
    """Kernel values between rows of A and rows of B (len(A) x len(B)).

    Entry (i, j) equals ``cross_gram(spec, A[i:i+1], B[j:j+1])[0, 0]``
    bit for bit, whatever the block shape.
    """
    A = _as_matrix(A, "A")
    B = _as_matrix(B, "B", cols=A.shape[1])
    _check_index(spec, A.shape[1])
    return _block(spec, A, B)


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


def _checked_indices(indices, n: int, what: str) -> np.ndarray:
    # A 1-d intp array of integers in [0, n). numpy would read booleans as
    # a mask, truncate 0.5 to 0 and wrap negatives, so each of these, like
    # an index past the end, is a ShapeError naming it.
    items = indices if isinstance(indices, np.ndarray) else list(indices)
    idx = np.asarray(items)
    if idx.ndim != 1:
        raise ShapeError(f"{what} indices must be 1-d, got shape {idx.shape}")
    if idx.size == 0:
        return idx.astype(np.intp)
    if isinstance(items, np.ndarray):
        bad = None if idx.dtype.kind in "iu" else idx[0]
    else:
        bad = next((i for i in items if not _is_number(i, integral=True)), None)
    if bad is not None:
        raise ShapeError(f"{what} index {bad} is not an integer")
    outside = (idx < 0) | (idx >= n)
    if outside.any():
        raise ShapeError(f"{what} index {idx[outside][0]} out of range for {n} {what}s")
    return idx.astype(np.intp, copy=False)


class KernelFamily:
    """Ordered collection of base kernels over a single sample.

    A family stores its p kernels in one of two read-only layouts:

    - ``features``, an m x p matrix with K_k = outer(features[:, k],
      features[:, k]), for rank-one kernels. Solvers use it as an exact
      fast path: ridge systems are solved in |supp mu| dimensions when that
      is below m, with the same residual guarantee as the dense solve.
      When p < m the family keeps, from its first such solve or ``fit_l2``
      Newton loop, its one solver cache: a read-only QR twin, the reduced
      QR F = QR and the rank-one family of R's columns (m x p + p x p
      doubles). A ``subset`` or ``select_kernels`` child computes its own.
      ``KernelFamily(features, specs)`` builds one.
    - ``stack``, a C-contiguous p x m x m array whose slice ``stack[k]``
      is the Gram matrix K_k, for every other family. K(mu), the quadratic
      forms alpha' K_k alpha and within-sample predictions are each one
      call on it. :meth:`from_specs` and :meth:`from_grams` build one.

    The attribute of the other layout is None. ``kappa0`` bounds
    sqrt(sum_k K_k(x,x)^2) over the sample, verified by direct evaluation
    of the kernel diagonals.
    """

    def __init__(self, features, specs=None):
        f = _as_matrix(features, "features")
        if f.size == 0:
            raise ShapeError(f"features must be nonempty, got shape {f.shape}")
        self._adopt(specs, f.copy(), None)

    def _adopt(self, specs, features, stack):
        # Take checked storage as it is, read-only and uncopied: a new
        # array, or a row/column or kernel selection of a checked family's,
        # which keeps its symmetry, finite entries and diagonal signs.
        if features is not None:
            features.flags.writeable = False
            self._m, self._p = features.shape
        else:
            stack.flags.writeable = False
            self._p, self._m = stack.shape[:2]
        self.specs = None if specs is None else tuple(specs)
        if self.specs is not None and len(self.specs) != self._p:
            raise ShapeError("specs and kernel counts differ")
        self.features = features
        self.stack = stack
        self._twin = None

    def _qr_twin(self):
        # (Q, twin) of a rank-one family with p < m, else None: F = QR with
        # orthonormal columns in Q, and twin the p-row family of R's columns,
        # so K_k = Q T_k Q' with T_k the twin's kernel k, and F'F = R'R is a
        # p-row product. Computed on the first call and read-only.
        if self.features is None or self._p >= self._m:
            return None
        if self._twin is None:
            Q, R = np.linalg.qr(self.features)
            Q.flags.writeable = False
            self._twin = (Q, KernelFamily._of(None, features=R))
        return self._twin

    @classmethod
    def _of(cls, specs, features=None, stack=None) -> "KernelFamily":
        fam = cls.__new__(cls)
        fam._adopt(specs, features, stack)
        return fam

    @property
    def kappa0(self) -> float:
        if self.stack is not None:
            diags = np.diagonal(self.stack, axis1=1, axis2=2)
            return float(np.sqrt((diags**2).sum(axis=0)).max())
        diag = self.features**2  # K_k(x_i, x_i) for rank-one columns
        return float(np.sqrt((diag**2).sum(axis=1)).max())

    @classmethod
    def from_specs(cls, specs: Sequence[KernelSpec], X) -> "KernelFamily":
        """Bundle the given specs over X.

        A family of rank-one kinds stores their feature columns. Any other
        family's stack is filled one :func:`build_gram` at a time. Each
        build checks its new matrix in place through two m x m temporaries,
        so about three m x m arrays sit beside the stack: for eight kernels
        at m = 400 the build peaks at 1.4x the stack.
        """
        X = _as_matrix(X)
        if X.shape[0] == 0:
            raise ShapeError("a kernel family needs a nonempty sample")
        specs = tuple(specs)
        if not specs:
            raise ConfigError("kernel family must contain at least one kernel")
        features = _explicit_features(specs, X)
        if features is not None:
            return cls._of(specs, features=features)
        stack = np.empty((len(specs), X.shape[0], X.shape[0]))
        for k, s in enumerate(specs):
            stack[k] = build_gram(s, X)
        return cls._of(specs, stack=stack)

    @classmethod
    def from_grams(cls, mats) -> "KernelFamily":
        """Stack PSD matrices without evaluable specs into a family.

        ``mats`` is any iterable of arrays of one nonzero size, each checked
        in place as :func:`build_gram`'s output is (PSD is not checked).
        ``np.stack`` makes the only copy.
        """
        grams = [_checked_gram(g) for g in mats]
        if not grams:
            raise ConfigError("kernel family must contain at least one kernel")
        if grams[0].shape[0] == 0:
            raise ShapeError("Gram matrices of a family must be nonempty")
        if any(g.shape != grams[0].shape for g in grams):
            raise ShapeError("all Gram matrices in a family must share one dimension")
        return cls._of(None, stack=np.stack(grams))

    @property
    def p(self) -> int:
        return self._p

    @property
    def m(self) -> int:
        return self._m

    def subset(self, indices) -> "KernelFamily":
        """Restrict every kernel to a sub-sample (row/column selection)."""
        idx = _checked_indices(indices, self.m, "row")
        if idx.size == 0:
            raise ShapeError("a subset needs a nonempty index array")
        if self.features is not None:
            return KernelFamily._of(self.specs, features=self.features[idx])
        # Kernel by kernel, one n x m temporary each: stack[np.ix_(range(p), idx, idx)]
        # bit for bit in half its time. "clip" changes no checked index and skips
        # the copy through a buffer that take's default mode makes into ``out``.
        stack = np.empty((self.p, idx.size, idx.size))
        for k, K in enumerate(self.stack):
            np.take(K.take(idx, axis=0), idx, axis=1, out=stack[k], mode="clip")
        return KernelFamily._of(self.specs, stack=stack)

    def select_kernels(self, kernel_indices) -> "KernelFamily":
        """Keep only the listed kernels (same sample). A run of consecutive
        kernels of a Gram family, such as one kernel, is a view of its stack."""
        ks = _checked_indices(kernel_indices, self.p, "kernel")
        if ks.size == 0:
            raise ConfigError("kernel family must contain at least one kernel")
        specs = None if self.specs is None else tuple(self.specs[k] for k in ks)
        if self.features is not None:
            # A column gather is Fortran-ordered; C order keeps BLAS rounding.
            return KernelFamily._of(specs, features=np.ascontiguousarray(self.features[:, ks]))
        run = bool(np.all(np.diff(ks) == 1))
        stack = self.stack[ks[0]:ks[-1] + 1] if run else self.stack[ks]
        return KernelFamily._of(specs, stack=stack)

    def combined_entries(self, mu) -> np.ndarray:
        """Sum_k mu_k K_k as a new array; a weight that is negative, NaN or
        infinite is a ConfigError. A rank-one family's is X X' with X =
        F sqrt(mu), one BLAS syrk, so exactly symmetric. A Gram family's is
        one contraction of the stack when every weight is nonzero, else the
        sum over the kernels with a nonzero weight only; either equals the
        kernel-by-kernel sum over all of them in index order bit for bit,
        since that sum starts at +0 and so never holds a -0 that adding a
        zero-weight term's +-0 could change."""
        mu = _as_vector(mu, "mu", self.p)
        if not (mu.min() >= 0.0 and mu.max() < math.inf):
            raise ConfigError("mu must be finite and nonnegative")
        if self.features is not None:
            X = self.features * np.sqrt(mu)
            return X @ X.T
        weighted = np.flatnonzero(mu)
        if self.m > 1 and weighted.size == self.p:
            return np.einsum("k,kij->ij", mu, self.stack)
        # einsum would need the weighted kernels copied out of the stack, a
        # larger peak than one term at a time; and at m = 1 the k axis is
        # contiguous and einsum sums it in blocks.
        out = np.zeros((self.m, self.m))
        for k in weighted:
            out += mu[k] * self.stack[k]
        return out


def as_family(obj) -> KernelFamily:
    """Pass a KernelFamily through; anything else is a ConfigError."""
    if not isinstance(obj, KernelFamily):
        raise ConfigError(f"expected a KernelFamily, got {type(obj).__name__}")
    return obj


def combine(family: KernelFamily, mu) -> np.ndarray:
    """The weighted kernel K(mu) = sum_k mu_k K_k of a KernelFamily, mu
    finite and >= 0: :meth:`KernelFamily.combined_entries`, the K(mu) the
    solvers use, exactly symmetric on both layouts, so ``from_grams`` takes it.
    """
    return as_family(family).combined_entries(mu)


def compute_kappa(family: KernelFamily, mu_norm_bound: float) -> float:
    """Bound on the combined kernel's diagonal: kappa0 * (||mu0|| + radius)."""
    fam = as_family(family)
    _NONNEGATIVE.check("mu_norm_bound", mu_norm_bound)
    return fam.kappa0 * float(mu_norm_bound)
