"""Ridge solvers and kernel-weight learning.

Three fitting routes live here. ``fit_l2`` solves the L2-constrained
weight problem, whose optimum has the closed form mu = mu0 + radius *
v/||v|| with v_k = alpha' K_k alpha, by damped Newton on the fixed-point
equation (K(mu(alpha)) + lam I) alpha = y, and reports the Frank-Wolfe
gap of the weights it returns. ``oracle_fit`` solves the same problem by
projected gradient descent with a Frank-Wolfe gap certificate; it relies
only on the objective being nonincreasing in mu, never on that closed
form, so the two can be checked against each other. ``fit_l1`` is the
L1-budget baseline: on rank-one families it is solved exactly on a lasso
path and then certified by the same Frank-Wolfe gap; on Gram families it
runs projected gradient from the uniform weights or a given start. One
walk of that path, ``_l1_path_stops``, stops every class c = lam/budget
of a training set at its own knot, so a CV fold walks the path once for
its whole grid and passes each class's stop to ``fit_l1`` as ``start``.
"""

from __future__ import annotations

import collections
import functools
import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg.blas
import scipy.linalg.lapack

from . import kernels
from .errors import ConfigError, DataError, NumericalError, ShapeError
from .kernels import (_NONNEGATIVE, _POSITIVE, _as_matrix, _as_vector, _explicit_features, _int,
                      _norm, as_family)

log = logging.getLogger(__name__)

# Quadratic forms of PSD matrices may go this far below zero from roundoff,
# relative to their scale (see ``_projections``).
NEG_QUAD_TOL = 1e-10

# ||v|| at or below this (times p) is treated as the degenerate v = 0 case.
DEGENERATE_V_TOL = 1e-14

# Accepted objective values the projected-gradient line search compares against.
PGD_MEMORY = 10

# Lasso-path segments per distinct column before the L1 homotopy gives up.
L1_PATH_MAX_KNOTS = 4


def _cholesky(B: np.ndarray, smallest) -> np.ndarray:
    # Lower Cholesky factor of B by LAPACK dpotrf; its upper triangle is left
    # as B's (clean=0), which dpotrs never reads.
    L, info = scipy.linalg.lapack.dpotrf(B, lower=1, clean=0)
    if info != 0:
        raise NumericalError(
            f"Cholesky factorization failed; smallest eigenvalue ~ {smallest():.6e}"
        )
    return L


def _refined(solve, matvec, y: np.ndarray, smallest, scale) -> np.ndarray:
    # One iterative-refinement pass keeps the residual y - matvec(alpha)
    # near machine level. A residual above 1e-8 ||y|| whose normwise backward
    # error ||r|| / (scale() ||alpha|| + ||y||), scale() a bound on ||B|| formed
    # only then, also exceeds 1e-8, or a NaN one (a NaN in the system passes the
    # unchecked Cholesky), is a numerical failure with an eigenvalue estimate of B.
    alpha = solve(y)
    ynorm = _norm(y)
    resid = y - matvec(alpha)
    rnorm = _norm(resid)
    if rnorm > 1e-14 * max(ynorm, 1.0):
        alpha = alpha + solve(resid)
        rnorm = _norm(y - matvec(alpha))
    if not (rnorm <= 1e-8 * ynorm or rnorm <= 1e-8 * (scale() * _norm(alpha) + ynorm)):
        raise NumericalError(
            f"linear solve residual {rnorm:.3e} exceeds tolerance; "
            f"smallest eigenvalue ~ {smallest():.6e}"
        )
    return alpha


def _solve_pd(B: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Solve B a = y for symmetric positive definite B via Cholesky."""
    def smallest():
        return float(np.linalg.eigvalsh(B)[0])

    L = _cholesky(B, smallest)
    return _refined(lambda r: scipy.linalg.lapack.dpotrs(L, r, lower=1)[0],
                    lambda a: B @ a, y, smallest, lambda: float(np.linalg.norm(B)))


def _add_outer(H: np.ndarray, W: np.ndarray, scale: float) -> None:
    # H += scale W W' in place. H is symmetric and C-ordered, so H.T is the
    # Fortran-ordered view of the same buffer that BLAS dgemm overwrites,
    # and no m x m temporary is made.
    scipy.linalg.blas.dgemm(scale, W, W, beta=1.0, c=H.T, trans_b=True, overwrite_c=True)


def _ridge_solve(fam, w: np.ndarray, r: np.ndarray, lam: float) -> np.ndarray:
    """Solve (K(w) + lam I) x = r for weights w >= 0.

    This is the one route rule. A rank-one family, K(w) = F diag(w) F',
    with s = |supp w| < m is solved in s dimensions by the Woodbury
    identity, x = (r - F_S C z) / lam with z = H^(-1) C'F_S'r, C =
    diag(sqrt(w_S)) and H = C G_SS C + lam I_s. G = F'F is never formed
    whole: G_SS = T_S'T_S comes from the active columns of the family's
    thinnest factor T with T'T = F'F, the p x p R of its QR twin when
    p < m and F itself otherwise. So a solve costs the product T_S'T_S,
    two m x s products with F_S (F itself when S is every kernel) and
    O(s^3) work. Every other case forms the m x m matrix
    ``combined_entries(w)`` (of a rank-one family X X', exactly symmetric)
    for ``_solve_pd``. Both routes check the residual against the m x m
    system, with ``_solve_pd``'s refinement and tolerance.
    """
    support = None if fam.features is None else w > 0
    s = fam.m if support is None else int(np.count_nonzero(support))
    if s >= fam.m:
        B = fam.combined_entries(w)
        B.flat[::fam.m + 1] += lam
        return _solve_pd(B, r)
    _, thin = fam._qr_twin() or (None, fam)
    F, T = fam.features, thin.features
    if s < fam.p:
        F, T, w = F[:, support], T[:, support], w[support]
    G = T.T @ T
    # C is diagonal: it is applied as the vector of its diagonal.
    C = np.sqrt(w)
    H = G * np.outer(C, C)
    H.flat[::s + 1] += lam

    def smallest():
        # Eigenvalues of F_S C C'F_S' + lam I: those of H, and lam (s < m).
        return float(np.linalg.eigvalsh(H).min(initial=lam))

    L = _cholesky(H, smallest)

    def solve(b):
        # dpotrs rejects an empty system; at s = 0 the matrix is lam I.
        if not s:
            return b / lam
        z = scipy.linalg.lapack.dpotrs(L, C * (F.T @ b), lower=1)[0]
        return (b - F @ (C * z)) / lam

    # ||F_S C C'F_S' + lam I|| <= ||F_S C||_F^2 + lam = sum_S w_k G_kk + lam.
    return _refined(solve, lambda x: lam * x + F @ (C * (C * (F.T @ x))), r, smallest,
                    lambda: float(np.diagonal(G) @ w) + lam)


def _ridge_value_grad(fam, y: np.ndarray, lam: float, mu: np.ndarray):
    # G(mu) = y' alpha(mu) and its gradient -v(alpha(mu)) (Danskin).
    alpha = _ridge_solve(fam, mu, y, lam)
    return float(y @ alpha), -quad_forms(alpha, fam), alpha


def krr_solve(K, y, lam: float) -> np.ndarray:
    """Dual ridge solution alpha = (K + lam I)^(-1) y.

    K must be finite, symmetric and PSD and lam finite and > 0, so K +
    lam I is positive definite and a Cholesky solve applies. The Cholesky
    factor reads only K's lower triangle, so K is rejected unless
    max|K - K'| <= 1e-12 max(1, max|K|): a bound on the whole matrix, as a
    general product (F * mu) @ F' is symmetric only to roundoff relative to
    its largest entry. The rank-one K(mu) of ``combine`` is X X', exactly so.
    """
    A = _as_matrix(K, "K")
    if A.shape[0] != A.shape[1]:
        raise ShapeError(f"K must be square, got shape {A.shape}")
    y = _as_vector(y, "y", A.shape[0], DataError)
    if np.abs(A - A.T).max(initial=0.0) > 1e-12 * max(1.0, np.abs(A).max(initial=0.0)):
        raise NumericalError("K is not symmetric within tolerance")
    _POSITIVE.check("lam", lam)
    B = A + lam * np.eye(A.shape[0])
    return _solve_pd(B, y)


def _single_kernel_predictions(F: np.ndarray, y: np.ndarray, F_query: np.ndarray,
                               lambda0s) -> np.ndarray:
    """Ridge predictions of every rank-one kernel f f' alone, at every lambda0.

    F holds the m training rows of the feature columns and F_query the
    query rows. For one column f and lam = lambda0 * m (as in
    ``_fit_setup``), f f' + lam I has eigenvector f/||f|| with eigenvalue
    f'f + lam and is lam on the rest, so (f f' + lam I)^(-1) y =
    (y - f (f'y)/(f'f + lam))/lam and f'alpha = f'y/(f'f + lam). The
    prediction at a query row is then f_query f'alpha. This is what
    ``fit_l2`` at radius 0 on ``select_kernels([k])`` gives (mu = 1), for
    all kernels and lambda0 in one pass; an all-zero column predicts 0.

    Returns an array of shape (len(lambda0s), n_query, p). Raises
    ``NumericalError`` when f'f, f'y or a prediction is not finite, as a
    ridge solve on such a kernel fails its residual check.
    """
    fy = F.T @ y
    ff = np.einsum("ij,ij->j", F, F)
    lams = np.asarray(lambda0s, dtype=np.float64) * F.shape[0]
    preds = F_query * (fy / (ff + lams[:, None]))[:, None, :]
    if not (np.isfinite(ff).all() and np.isfinite(fy).all() and np.isfinite(preds).all()):
        raise NumericalError("single-kernel ridge fit overflowed to non-finite values")
    return preds


def quad_forms(alpha, family) -> np.ndarray:
    """Per-kernel quadratic forms v_k = alpha' K_k alpha of a KernelFamily.

    Entries are nonnegative for PSD kernels; roundoff negatives within
    ``NEG_QUAD_TOL`` max(1, (sqrt(diag K_k)' |alpha|)^2), a bound on the
    terms' magnitudes, are clamped to zero (and logged), anything lower is
    treated as a PSD violation.
    """
    fam = as_family(family)
    return _projections(_as_vector(alpha, "alpha", fam.m), fam)[1]


def _projections(alpha: np.ndarray, fam) -> tuple:
    # (P, v) for a checked alpha: P = F'alpha on a rank-one family, so
    # v = P * P, or the p x m array [K_1 alpha, ..., K_p alpha] on a Gram
    # family, so v = P alpha; v is quad_forms' result.
    if fam.features is not None:
        P = fam.features.T @ alpha
        return P, P * P
    P = fam.stack @ alpha
    v = P @ alpha
    worst = float(v.min(initial=0.0))
    if worst < -NEG_QUAD_TOL:
        # For a PSD K_k, |alpha' K_k alpha| <= (sqrt(diag K_k)' |alpha|)^2,
        # so roundoff scales with that bound; it is formed only here.
        roots = np.sqrt(np.maximum(np.diagonal(fam.stack, axis1=1, axis2=2), 0.0))
        allowed = NEG_QUAD_TOL * np.maximum(1.0, (roots @ np.abs(alpha)) ** 2)
        k = int(np.argmin(v + allowed))
        if v[k] < -allowed[k]:
            raise NumericalError(
                f"quadratic form {v[k]:.3e} below -{allowed[k]:.3g}; kernel not PSD?"
            )
    if worst < 0.0:
        log.debug("clamped quadratic-form roundoff of %.3e to zero", worst)
        v = np.maximum(v, 0.0)
    return P, v


@dataclass(frozen=True, eq=False)
class MuWeights:
    """Kernel combination weights with their anchor and ball radius.

    Feasible set: mu >= 0 and ||mu - mu0|| <= radius. The anchor mu0 is
    normalized so its smallest component is one.
    """

    mu: np.ndarray
    mu0: np.ndarray
    radius: float

    def __post_init__(self):
        mu = _as_vector(self.mu, "mu")
        mu0 = _validated_mu0(self.mu0, mu.shape[0])
        _NONNEGATIVE.check("radius", self.radius)
        if not np.all(np.isfinite(mu) & (mu >= -1e-12)):
            raise ConfigError("mu must be finite and nonnegative")
        if _norm(mu - mu0) > self.radius + 1e-9 * max(1.0, self.radius):
            raise ConfigError("mu lies outside the feasible ball around mu0")
        mu = np.maximum(mu, 0.0)
        mu.flags.writeable = False
        mu0 = mu0.copy()
        mu0.flags.writeable = False
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "mu0", mu0)

    @property
    def p(self) -> int:
        return self.mu.shape[0]


def _validated_mu0(mu0, p: int) -> np.ndarray:
    # None is the all-ones anchor, already normalized to minimum one.
    if mu0 is None:
        return np.ones(p)
    mu0 = _as_vector(mu0, "mu0", p, ConfigError)
    if not np.all(mu0 > 0):
        raise ConfigError("mu0 must be strictly positive")
    if abs(float(mu0.min()) - 1.0) > 1e-9:
        raise ConfigError("mu0 must be normalized so its minimum component is 1")
    return mu0


def _weight_step(v: np.ndarray, mu0: np.ndarray, radius: float, nv=None) -> np.ndarray:
    # The closed form mu = mu0 + radius * v/||v||, or mu0 when ||v|| is
    # numerically zero and the direction immaterial, for inputs already
    # checked: v >= 0, a valid anchor mu0, a finite radius >= 0, and nv = ||v|| or None.
    nv = _norm(v) if nv is None else nv
    if nv <= DEGENERATE_V_TOL * v.shape[0]:
        return mu0.copy()
    return mu0 + radius * (v / nv)


def objective(alpha, y, lam: float, quad, mu0, radius: float) -> float:
    """Reduced dual objective -lam a'a + 2 a'y - mu0'v - radius ||v||."""
    _POSITIVE.check("lam", lam)
    _NONNEGATIVE.check("radius", radius)
    alpha = _as_vector(alpha, "alpha")
    mu0 = _as_vector(mu0, "mu0")
    return _objective(alpha, _as_vector(y, "y", alpha.shape[0]), lam,
                      _as_vector(quad, "quad", mu0.shape[0]), mu0, radius)


def _objective(alpha, y, lam: float, v, mu0, radius: float) -> float:
    # ``objective`` for checked arguments; a non-finite alpha gives a
    # non-finite value, which fit_l2's line search never accepts.
    return float(
        -lam * (alpha @ alpha)
        + 2.0 * (alpha @ y)
        - mu0 @ v
        - radius * _norm(v)
    )


def _fit_setup(family, y, lambda0: float, max_iters, radius: Optional[float] = None):
    """Validated family, target vector and ridge amount lam = lambda0 * m.

    Shared by the weight fits, which pass their step cap ``max_iters``;
    the L2 fits also pass their ball radius.
    """
    fam = as_family(family)
    y = _as_vector(y, "y", fam.m, DataError)
    _POSITIVE.check("lambda0", lambda0)
    _int(1).check("max_iters", max_iters)
    if radius is not None:
        _NONNEGATIVE.check("radius", radius)
    return fam, y, lambda0 * fam.m


@dataclass(frozen=True, eq=False)
class MklModel:
    """Fitted state of a kernel-weight learner."""

    weights: MuWeights
    alpha: np.ndarray
    lam: float          # ridge amount, lambda0 * m
    lambda0: float
    quad: np.ndarray    # v_k = alpha' K_k alpha at the returned alpha
    iterations: int
    converged: bool
    final_step: float   # ||Newton step|| at the last iterate (0.0 when mu is pinned at mu0)
    certificate_gap: float  # radius ||v|| - v'(mu - mu0): Frank-Wolfe bound on G(mu) - G*

    def __post_init__(self):
        a = _as_vector(self.alpha, "alpha").copy()
        a.flags.writeable = False
        object.__setattr__(self, "alpha", a)
        q = _as_vector(self.quad, "quad").copy()
        q.flags.writeable = False
        object.__setattr__(self, "quad", q)


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Reduced dual objective at the returned model."""

    objective_value: float


def _newton_step(fam, alpha, P, v, y, lam: float, mu0, radius: float):
    """Weights mu(alpha) = mu0 + radius v/||v|| and the Newton step
    d = -H^(-1) R of the fixed-point residual R = (K(mu) + lam I) alpha - y,
    given ``_projections(alpha, fam)`` = (P, v).

    With Z = [K_1 alpha, ..., K_p alpha], v^ = v/||v|| and c = 2 radius/||v||,
    the Jacobian of R is H = K(mu) + lam I + c Z (I - v^v^') Z', which is
    symmetric with H >= K(mu) + lam I. Both layouts form it as one
    ``combined_entries``, plus lam I, plus one outer product scale W W'.
    A Gram family has Z = P', combines mu and takes W = Z - (Z v^)v^' with
    scale c. A rank-one family has Z = F diag(P), so c Z Z' = K(c v): it
    combines mu + c v and takes W = F q, q = P v, with scale -c/||v||^2.
    Its middle matrix diag(mu + c v) - (c/||v||^2) q q' is at least
    diag(mu), so H stays positive definite. The step is solved from R
    rather than as H^(-1) y - alpha, the same point (H alpha - R = y): the
    solve's residual check is then relative to R, while at a large c and
    a small lam the solve for H^(-1) y can fail its check.
    """
    nv = _norm(v)
    mu = _weight_step(v, mu0, radius, nv)
    c = 2.0 * radius / nv
    if fam.features is None:
        Z, vhat = P.T, v / nv
        H, W, scale = fam.combined_entries(mu), Z - np.outer(Z @ vhat, vhat), c
        R = Z @ mu + lam * alpha - y
    else:
        F = fam.features
        H, W, scale = fam.combined_entries(mu + c * v), (F @ (P * v))[:, None], -c / nv**2
        R = F @ (mu * P) + lam * alpha - y
    H.flat[::fam.m + 1] += lam
    _add_outer(H, W, scale)
    return mu, -_solve_pd(H, R)


def fit_l2(family, y, lambda0: float, radius: float, mu0=None,
           epsilon: Optional[float] = None, max_iters: int = 200, start=None):
    """Learn kernel weights under the L2 ball constraint.

    The optimum has the closed form mu = mu0 + radius * v/||v||, with
    v_k = alpha' K_k alpha, at the dual vector alpha that solves the
    fixed-point equation R(alpha) = (K(mu(alpha)) + lam I) alpha - y = 0.
    Starting from ``start`` or, by default, the anchor-kernel ridge
    solution, damped Newton solves that equation: each step is d =
    -H^(-1) R with H the Jacobian of R (see ``_newton_step``). H is -1/2
    times the Hessian of the strictly concave reduced dual J =
    ``objective``, so halving the step until J does not fall converges
    from any start, and near the optimum full steps are taken; a start
    near the optimum, such as the fit at the same radius and the previous
    lambda0 of a CV grid, only saves steps. On a rank-one family with
    fewer kernels than samples, F = QR: v depends on alpha only through
    Q'alpha, so the loop runs on the family's p-row QR twin with Q'y and
    Q'alpha, and a start's part outside range(F) is dropped; the anchor
    and final ridge solves take the p-dimensional ``_ridge_solve`` route.
    The fit stops at the first step with ||d|| < ``epsilon``: a step that
    short lies where Newton converges quadratically, so it is taken
    whole, and the weights are the closed form at the iterate it reaches,
    O(||d||^2) from the optimum. At
    radius 0, or when v vanishes at the start, mu = mu0: ``start`` gives
    way to the anchor solve, and if v vanishes there too (or the radius
    is 0), the anchor solve is the answer. Where every v_k is zero at a
    later iterate (on a Gram family, quadratic forms at roundoff level
    can all clamp to zero), the closed form has no derivative: the fit
    stops there, unconverged, with mu = mu0.

    Parameters
    ----------
    family : KernelFamily
    y : length-m target vector
    lambda0 : per-point ridge weight; the solve uses lam = lambda0 * m
    radius : weight-ball radius (0 freezes mu at mu0)
    mu0 : anchor weights, default all ones
    epsilon : stopping threshold on the Newton step ||d||;
        default 1e-8 * (1 + ||y||)
    max_iters : cap on Newton steps; exceeding it returns converged=False
    start : length-m dual vector alpha to start Newton from, default the
        anchor-kernel ridge solution

    Returns
    -------
    (MklModel, SolveReport)
        The model carries the closed-form weights at the final iterate
        (when ``max_iters`` runs out, the iterate the last step started
        from) and the exact ridge solution computed for them, so a
        converged model is a consistent (mu, alpha) pair up to the
        stopping tolerance. Its ``certificate_gap`` is the Frank-Wolfe gap
        radius ||v|| - v'(mu - mu0) of that pair, an upper bound on how far
        y'(K(mu) + lam I)^(-1) y lies above its minimum over the ball.
    """
    fam, y, lam = _fit_setup(family, y, lambda0, max_iters, radius)
    mu0 = _validated_mu0(mu0, fam.p)
    if epsilon is None:
        epsilon = 1e-8 * (1.0 + _norm(y))
    _POSITIVE.check("epsilon", epsilon)

    alpha = None
    if start is not None:
        start = _as_vector(start, "start", fam.m, ConfigError)
        if radius > 0.0:
            # v >= 0, the domain of the closed form. A start that pins
            # mu at mu0 gives way to the anchor solve.
            P, v = _projections(start, fam)
            mu = _weight_step(v, mu0, radius)
            if not np.array_equal(mu, mu0):
                alpha = start
    if alpha is None:
        alpha = _ridge_solve(fam, mu0, y, lam)
        P, v = _projections(alpha, fam)
        mu = _weight_step(v, mu0, radius)
    converged = True
    iterations = 1
    step = 0.0
    # At radius 0, or with v = 0, mu(alpha) = mu0 and the anchor solve is the fixed point.
    if not np.array_equal(mu, mu0):
        converged = False
        # With F = QR, v and the fixed point's range(F) part depend on alpha
        # only through Q'alpha, so Newton runs on the p-row twin; the rest,
        # (I - QQ')y / lam, moves no weight and the final solve gives it.
        Q, loop = fam._qr_twin() or (None, fam)
        b, alpha = (y, alpha) if Q is None else (Q.T @ y, Q.T @ alpha)
        value = _objective(alpha, b, lam, v, mu0, radius)
        for iterations in range(1, max_iters + 1):
            mu, d = _newton_step(loop, alpha, P, v, b, lam, mu0, radius)
            step = _norm(d)
            if step < epsilon:
                alpha = alpha + d
                # The closed form of the full family's v, as without the twin.
                full = alpha if Q is None else Q @ alpha
                mu = _weight_step(quad_forms(full, fam), mu0, radius)
                converged = True
                break
            # Backtrack on J; the allowance absorbs roundoff in J near the
            # optimum, where the full step's gain is below machine level.
            floor = value - 1e-12 * max(1.0, abs(value))
            for _ in range(60):
                cand = alpha + d
                cand_P, cand_v = _projections(cand, loop)
                cand_value = _objective(cand, b, lam, cand_v, mu0, radius)
                if cand_value >= floor:
                    break
                d = 0.5 * d
            else:
                raise NumericalError("weight-learning iteration diverged to non-finite values")
            alpha, P, v, value = cand, cand_P, cand_v, cand_value
            if not v.any():
                mu = mu0
                break
        alpha = _ridge_solve(fam, mu, y, lam)
        v = quad_forms(alpha, fam)

    model = MklModel(
        weights=MuWeights(mu, mu0, float(radius)),
        alpha=alpha,
        lam=lam,
        lambda0=float(lambda0),
        quad=v,
        iterations=iterations,
        converged=converged,
        final_step=step,
        certificate_gap=float(radius * _norm(v) - v @ (mu - mu0)),
    )
    return model, SolveReport(_objective(alpha, y, lam, v, mu0, radius))


# ---------------------------------------------------------------------------
# Reference solver (projected gradient) and the L1 baseline
# ---------------------------------------------------------------------------

def project_ball_cone(x, mu0, radius: float) -> np.ndarray:
    """Project onto {mu >= mu0, ||mu - mu0|| <= radius} (closed form, exact).

    The set is the orthant cone with apex mu0 cut by a ball centred on
    that apex, so the nearest point is the cone clip max(x, mu0) followed
    by the ball clip (rescale z - mu0 to length radius if longer). A point
    already in the set is returned unchanged, bit for bit.
    """
    x = _as_vector(x, "x")
    mu0 = _as_vector(mu0, "mu0", x.shape[0])
    _NONNEGATIVE.check("radius", radius)
    z = np.maximum(x, mu0)
    d = z - mu0
    nd = _norm(d)
    if nd > radius:
        z = mu0 + d * (radius / nd)
    return z


def project_l1_orthant(x, budget: float) -> np.ndarray:
    """Project onto {mu >= 0, sum(mu) <= budget} (sort-based, exact)."""
    x = _as_vector(x, "x")
    clipped = np.maximum(x, 0.0)
    if clipped.sum() <= budget:
        return clipped
    # Projection lands on the face sum(mu) = budget: shift-and-clip with
    # the usual sorted-cumulative-sum threshold.
    u = np.sort(x)[::-1]
    css = np.cumsum(u)
    j = np.arange(1, x.shape[0] + 1)
    cond = u - (css - budget) / j > 0
    rho = int(np.nonzero(cond)[0][-1])
    theta = (css[rho] - budget) / (rho + 1.0)
    return np.maximum(x - theta, 0.0)


@dataclass(frozen=True, eq=False)
class OracleResult:
    """Projected-gradient solution with its optimality certificate."""

    weights: MuWeights
    alpha: np.ndarray
    objective_value: float
    converged: bool
    iterations: int
    certificate_gap: float


def _pgd_minimize(value_grad, project, lmo, x0, tol, max_iters):
    """Projected gradient descent with a Frank-Wolfe gap stopping rule.

    ``value_grad(x) -> (val, grad, extra)``, ``project(x)`` maps onto the
    feasible set, ``lmo(grad)`` returns the feasible minimizer of the
    linearized objective. Uses Barzilai-Borwein step seeds safeguarded by
    a nonmonotone backtracking line search: the sufficient-decrease test
    is taken against the largest of the last ``PGD_MEMORY`` accepted
    values (Grippo, Lampariello & Lucidi 1986; Birgin, Martinez & Raydan
    2000), so a BB step that briefly raises the objective is still taken.
    """
    x = project(np.asarray(x0, dtype=np.float64))
    val, grad, extra = value_grad(x)
    recent = collections.deque([val], maxlen=PGD_MEMORY)
    gap = float("inf")
    t = 1.0 / max(_norm(grad), 1e-12)
    prev_x = None
    prev_grad = None
    it = 0
    for it in range(1, max_iters + 1):
        gap = float(grad @ (x - lmo(grad)))
        if gap <= tol * max(1.0, abs(val)):
            return x, val, extra, True, it - 1, gap
        if prev_x is not None:
            dx = x - prev_x
            dg = grad - prev_grad
            denom = float(dx @ dg)
            if denom > 0:
                t = float(dx @ dx) / denom
        t = min(max(t, 1e-16), 1e16)
        ref = max(recent)
        accepted = False
        for _ in range(60):
            cand = project(x - t * grad)
            d = cand - x
            dnorm2 = float(d @ d)
            if dnorm2 == 0.0:
                # Projected step is a fixed point at this step size.
                break
            cval, cgrad, cextra = value_grad(cand)
            if cval <= ref + float(grad @ d) + dnorm2 / (2.0 * t) + 1e-12 * max(1.0, abs(val)):
                prev_x, prev_grad = x, grad
                x, val, grad, extra = cand, cval, cgrad, cextra
                recent.append(val)
                accepted = True
                break
            t *= 0.5
        if not accepted:
            # No descent possible at machine resolution; report the gap.
            break
    gap = float(grad @ (x - lmo(grad)))
    return x, val, extra, gap <= tol * max(1.0, abs(val)), it, gap


def oracle_fit(family, y, lambda0: float, radius: float, mu0=None,
               tol: float = 1e-9, max_iters: int = 50000) -> OracleResult:
    """Reference solver for the L2-constrained weight problem.

    Minimizes G(mu) = y' (K(mu) + lam I)^(-1) y over the feasible set
    {mu >= 0, ||mu - mu0|| <= radius} by projected gradient descent, and
    stops once the Frank-Wolfe gap certifies the objective within ``tol``
    (relative). Small instances only; this is ground truth for fit_l2,
    not a production path.

    The gradient is -v(alpha(mu)) <= 0 (Danskin), so G is nonincreasing
    in mu. Raising any feasible mu to max(mu, mu0) neither increases G
    nor lengthens mu - mu0, hence the minimum over the feasible set equals
    the minimum over its part F = {mu >= mu0, ||mu - mu0|| <= radius}.
    The run projects onto F in closed form, and the linearized minimizer
    mu0 + radius * v/||v|| lies in F, so the gap bounds the error over the
    whole feasible set. At radius 0 the start mu0 is certified at once.
    """
    fam, y, lam = _fit_setup(family, y, lambda0, max_iters, radius)
    if fam.m > 200 or fam.p > 50:
        raise ConfigError("oracle_fit is restricted to m <= 200 and p <= 50")
    _POSITIVE.check("tol", tol)
    mu0 = _validated_mu0(mu0, fam.p)
    value_grad = functools.partial(_ridge_value_grad, fam, y, lam)

    def project(x):
        return project_ball_cone(x, mu0, radius)

    def lmo(grad):
        gn = _norm(grad)
        if gn == 0.0:
            return mu0
        return mu0 - radius * (grad / gn)

    mu, val, alpha, converged, iters, gap = _pgd_minimize(
        value_grad, project, lmo, mu0, tol, max_iters
    )
    if not converged:
        raise NumericalError(
            f"oracle did not certify optimality after {iters} iterations "
            f"(gap {gap:.3e})"
        )
    return OracleResult(
        weights=MuWeights(mu, mu0, float(radius)), alpha=alpha,
        objective_value=val, converged=converged, iterations=iters,
        certificate_gap=gap,
    )


def _distinct_columns(F: np.ndarray) -> np.ndarray:
    # Indices of the first of each set of columns of F equal up to sign
    # (f and -f give the same kernel). Signs come from each column's first
    # nonzero entry; adding 0.0 turns the -0.0 of a negated zero into 0.0.
    first = np.argmax(F != 0, axis=0)
    canon = F * np.sign(F[first, np.arange(F.shape[1])]) + 0.0
    seen = {}
    for k, col in enumerate(canon.T):
        seen.setdefault(col.tobytes(), k)
    return np.fromiter(seen.values(), dtype=np.intp)


def _chol_append(L: np.ndarray, g: np.ndarray, gjj: float):
    # Lower factor of [[B, g], [g', gjj]] from the lower factor L of B: one
    # triangular solve for the new row. None when the new pivot is not
    # positive, i.e. the grown block lost definiteness.
    n = L.shape[0]
    row, info = scipy.linalg.lapack.dtrtrs(L, g, lower=1)
    pivot = gjj - float(row @ row)
    if info != 0 or not pivot > 0.0:
        return None
    out = np.empty((n + 1, n + 1), order="F")
    out[:n, :n] = L
    out[:n, n] = 0.0
    out[n, :n] = row
    out[n, n] = np.sqrt(pivot)
    return out


def _chol_delete(L: np.ndarray, i: int, lower: np.ndarray):
    # Lower factor of B with row and column i removed, from the lower factor
    # L of B, or None if the refactor fails. Rows and columns before i keep
    # their entries; the trailing block T T' + l l' (l the part of column i
    # below the diagonal) is refactored. Only L's lower triangle is read, by
    # the mask ``lower`` (np.tri of L's order or more); out's upper is zero.
    n = L.shape[0] - 1
    out = np.zeros((n, n), order="F")
    np.copyto(out[:i, :i], L[:i, :i], where=lower[:i, :i])
    out[i:, :i] = L[i + 1:, :i]
    tail, col = out[i:, i:], L[i + 1:, i]
    np.copyto(tail, L[i + 1:, i + 1:], where=lower[i:n, i:n])
    if col.size:
        tail[...], info = scipy.linalg.lapack.dpotrf(tail @ tail.T + np.outer(col, col),
                                                     lower=1)
        if info != 0:
            return None
    return out


def _l1_path_stops(F: np.ndarray, y: np.ndarray, classes):
    """Exact L1-budget weights of the rank-one family K(mu) = F diag(mu) F'
    for every ``(lam, budget)`` in ``classes``, from one lasso-path walk.

    By the variational identity of multiple kernel learning (Bach,
    Lanckriet & Jordan 2004), the minimum of y'(K(mu) + lam I)^(-1) y
    over {mu >= 0, sum(mu) <= budget} is (1/lam) min_w ||y - Fw||^2 +
    c ||w||_1^2 with c = lam/budget, attained at mu_k = budget |w_k|/||w||_1.
    That w solves the lasso min 1/2 ||y - Fw||^2 + t ||w||_1 at
    t = c ||w||_1, so the LARS-lasso homotopy (Efron et al. 2004) walks t
    down from max |F'y|: on each segment the active weights are
    w_A = u - t d with G_AA [u, d] = [(F'y)_A, s_A], so t - c ||w||_1 is
    affine in t and its root is t = c s'u / (1 + c s'd) > 0. An all-zero
    column has corr = 0 throughout, so it never joins.

    ||w(t)||_1 grows as t falls, so t/||w(t)||_1 = c has one root and a
    smaller c stops later: one walk, to the smallest c, passes every
    class's stop. Each segment stops every class still walking whose root
    lies on it, so every class gets exactly what a walk of its own would.
    The lower Cholesky factor of G_AA is updated as columns join (one
    triangular solve) and leave (the trailing block is refactored), and
    refactored from scratch when an update loses definiteness. The active
    set, its signs and the event search live in length-p buffers that each
    knot updates in place, so a knot makes one solve, one G product and a
    fixed, small set of array operations.

    Returns one ``(mu, knots)`` per class, in the given order; ``knots``
    is the number of segments walked up to that class's stop. ``mu`` is
    None when F'y = 0 (every start is optimal), when an active block is
    not positive definite (columns in degenerate position), or after
    ``L1_PATH_MAX_KNOTS`` segments per distinct column.
    """
    keep = _distinct_columns(F)
    Fk = F[:, keep]
    G = Fk.T @ Fk
    Fty = Fk.T @ y
    stops = [(None, 0)] * len(classes)
    t = float(np.abs(Fty).max(initial=0.0))
    if t == 0.0:
        return stops
    pending = list(range(len(classes)))
    p = keep.size
    # The active columns and their signs are the first n entries of A and
    # s. ud holds [u, d] on the active rows and zeros elsewhere, so G @ ud
    # is the product with the active block's columns. rhs holds the n x 2
    # column-major system that dpotrs solves in place.
    A, s, n = np.empty(p, dtype=np.intp), np.empty(p), 1
    A[0] = np.argmax(np.abs(Fty))
    s[0] = np.sign(Fty[A[0]])
    rhs, ud, ua, b = np.empty(2 * p), np.zeros((p, 2)), np.empty((p, 2)), np.empty(p)
    signs = np.array([[1.0], [-1.0]])
    den, joins, crossing = np.empty((2, p)), np.empty((2, p)), np.empty((2, p), dtype=bool)
    leaves, inactive = np.empty(p), np.ones(p, dtype=bool)
    inactive[A[0]] = False
    sgn_d, leaving, lower = np.empty(p), np.empty(p, dtype=bool), np.tri(p, dtype=bool)
    cs = [lam / budget for lam, budget in classes]
    L = None
    for knots in range(1, L1_PATH_MAX_KNOTS * p + 1):
        act, sgn = A[:n], s[:n]
        if L is None:
            L, info = scipy.linalg.lapack.dpotrf(G[np.ix_(act, act)], lower=1)
            if info != 0:
                break
        ud_A = rhs[:2 * n].reshape((n, 2), order="F")
        Fty.take(act, out=ud_A[:, 0])
        ud_A[:, 1] = sgn
        ud_A, _ = scipy.linalg.lapack.dpotrs(L, ud_A, lower=1, overwrite_b=1)
        u, d = ud_A.T
        su, sd = float(sgn @ u), float(sgn @ d)
        # On this segment corr(t') = F'(y - Fw) = b + t' a. As t' falls, an
        # inactive column joins where |corr_j(t')| reaches t' from below,
        # and an active weight leaves where it falls to zero; a root the
        # slope does not cross (the column that just changed sides) is no
        # event. A root at or above t (a tie, or roundoff) happens at t.
        # At a_j = 1 the gap t' - corr_j(t') is constant (at a_j = -1,
        # t' + corr_j(t')): no root. A column in the span of the active
        # ones that touches the boundary has |a_j| = 1 and rides it;
        # adding it would make the active block singular, so |a_j| within
        # 1e-9 of 1 counts as no root. Row 0 of joins holds b/(1 - a) and
        # row 1 -b/(1 + a), formed as b/(-1 - a) (equal, as rounding is
        # symmetric in sign); a division that is no root is not made.
        ud[act] = ud_A
        np.matmul(G, ud, out=ua)
        np.subtract(Fty, ua[:, 0], out=b)
        a = ua[:, 1]
        np.less(a, 1.0 - 1e-9, out=crossing[0])
        np.greater(a, -1.0 + 1e-9, out=crossing[1])
        crossing &= inactive
        np.subtract(signs, a, out=den)
        joins.fill(-np.inf)
        np.divide(b, den, out=joins, where=crossing)
        np.minimum(joins, t, out=joins)
        lv = leaves[:n]
        lv.fill(-np.inf)
        np.less(np.multiply(sgn, d, out=sgn_d[:n]), 0.0, out=leaving[:n])
        np.divide(u, d, out=lv, where=leaving[:n])
        np.minimum(lv, t, out=lv)
        side, k = divmod(int(joins.argmax()), p)
        i = int(lv.argmax())
        t_join, t_leave = float(joins[side, k]), float(lv[i])
        event = max(t_join, t_leave)
        walking = []
        for q in pending:
            c = cs[q]
            t_stop = c * su / (1.0 + c * sd)
            if event <= t_stop:
                w = np.abs(u - t_stop * d)
                mu = np.zeros(F.shape[1])
                mu[keep[act]] = classes[q][1] * (w / w.sum())
                stops[q] = (mu, knots)
            else:
                walking.append(q)
        pending = walking
        if not pending:
            return stops
        if t_join >= t_leave:
            t = t_join
            L = _chol_append(L, G[act, k], G[k, k])
            A[n], s[n], inactive[k] = k, 1.0 - 2.0 * side, False
            n += 1
        else:
            t = t_leave
            L = _chol_delete(L, i, lower)
            ud[A[i]], inactive[A[i]] = 0.0, True
            A[i:n - 1], s[i:n - 1] = A[i + 1:n], s[i + 1:n]
            n -= 1
    for q in pending:
        stops[q] = (None, knots)
    return stops


@dataclass(frozen=True, eq=False)
class L1Model:
    """L1-budget baseline fit; ``converged`` flags certificate failure."""

    mu: np.ndarray
    alpha: np.ndarray
    objective_value: float
    converged: bool
    iterations: int
    certificate_gap: float


def fit_l1(family, y, lambda0: float, budget: float,
           tol: float = 1e-8, max_iters: int = 2000, start=None) -> L1Model:
    """L1-regularized baseline: weights on {mu >= 0, sum(mu) <= budget}.

    Same ridge objective as the L2 route. A rank-one family (one with
    feature columns) is solved exactly on the lasso path of its squared-L1
    least-squares form (see ``_l1_path_stops``); other families start from
    the uniform weights. ``start`` is a ``(mu, knots)`` stop that
    ``_l1_path_stops`` already found for this family, y, lam = lambda0 * m
    and budget, as the experiment runner passes one per class from a
    single walk per CV fold; it replaces the walk, and a ``None`` mu means
    the uniform start. Any other finite weights, such as a neighbouring
    fit's, may be passed with 0 knots. Projected gradient with the exact
    simplex-style projection then runs from the start until the
    Frank-Wolfe gap is at most ``tol`` (relative), which certifies an
    exact path start before any step; any other start only costs steps.
    ``iterations`` counts the path's knots up to this budget's stop plus
    the projected gradient steps, and ``max_iters`` caps the steps only.
    Non-convergence within ``max_iters`` is flagged on the result, not
    raised.
    """
    fam, y, lam = _fit_setup(family, y, lambda0, max_iters)
    _POSITIVE.check("budget", budget)
    _POSITIVE.check("tol", tol)
    value_grad = functools.partial(_ridge_value_grad, fam, y, lam)

    def project(x):
        return project_l1_orthant(x, budget)

    def lmo(grad):
        k = int(np.argmin(grad))
        s = np.zeros(fam.p)
        if grad[k] < 0:
            s[k] = budget
        return s

    if start is None:
        start = (None, 0)
        if fam.features is not None:
            start = _l1_path_stops(fam.features, y, [(lam, budget)])[0]
    if not (isinstance(start, (tuple, list)) and len(start) == 2
            and _int(0).test(start[1])):
        raise ConfigError("start must be a (mu, knots) pair with an integer knots >= 0")
    x0, knots = start
    if x0 is None:
        x0 = np.full(fam.p, budget / fam.p)
    else:
        x0 = _as_vector(x0, "start", fam.p, ConfigError)
    mu, val, alpha, converged, iters, gap = _pgd_minimize(
        value_grad, project, lmo, x0, tol, max_iters
    )
    return L1Model(
        mu=mu, alpha=alpha, objective_value=val,
        converged=converged, iterations=knots + iters, certificate_gap=gap,
    )


def predict_weighted(specs, mu, alpha, X_train, X):
    """Evaluate h(x) = sum_i alpha_i sum_k mu_k K_k(x_i, x).

    ``X`` may be a single point (returns a float) or a matrix of points
    (returns a vector). Rank-one families are evaluated through their
    feature columns; other kinds fall back to per-kernel cross matrices.
    """
    if specs is None:
        raise ConfigError("prediction requires evaluable kernel specs")
    X_train = _as_matrix(X_train, "X_train")
    mu = _as_vector(mu, "mu", len(specs), ConfigError)
    alpha = _as_vector(alpha, "alpha", X_train.shape[0], DataError)
    single = np.ndim(X) == 1
    Xq = _as_matrix([X] if single else X, "X", cols=X_train.shape[1])

    f_train = _explicit_features(specs, X_train)
    if f_train is not None:
        out = _explicit_features(specs, Xq) @ (mu * (f_train.T @ alpha))
    else:
        out = np.zeros(Xq.shape[0])
        for k, spec in enumerate(specs):
            if mu[k] == 0.0:
                continue
            # Looked up on the module at call time, so a wrapper installed
            # over kernels.cross_gram (a profiler's, say) sees this call.
            out += mu[k] * (kernels.cross_gram(spec, Xq, X_train) @ alpha)
    return float(out[0]) if single else out


def predict(model: MklModel, specs, X_train, X):
    """Prediction of a fitted model at new points; see predict_weighted."""
    return predict_weighted(specs, model.weights.mu, model.alpha, X_train, X)
