"""One-step, k-step, and fully iterative LLA estimators.

The local linear approximation replaces each penalty term by its tangent
line at the current iterate, so every step is a weighted-L1 least squares
problem.  The one-step estimator starts from the unpenalized MLE and takes a
single step, built once per penalty route as a plain lasso: a separable
penalty (l1/lq/log) divides each column by its lambda-free derivative
p'(|b0_j|) and applies the single level n * lambda; SCAD splits the
coordinates into an unpenalized block U (derivative zero) and a penalized
block V, projects U out, solves the lasso on V, and back-solves U.  Every
later step, of k-step and of full LLA alike, is one weighted lasso of the
likelihood's IRLS expansion at the current iterate (:func:`_lla_step`).
"""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from numpy.linalg import _umath_linalg

from . import glm, penalty, wlasso
from .exceptions import DataError, FamilyMismatch, NonConvergence, SingularProjectionWarning
from .penalty import PenaltySpec

#: finite working weights above this cap behave like +inf (coordinate pinned)
WEIGHT_CAP = 1e12

#: curvature floor for working responses that divide by sqrt(D)
_CURV_FLOOR = 1e-8

#: convergence tolerance of every LLA solve, and the full-LLA and inner budgets
TOL = 1e-8
MAX_ITER = 100


@dataclass(frozen=True)
class FitResult:
    """Outcome of a fit: exact-zero coefficients, support, and trace."""

    coefficients: np.ndarray
    support: tuple
    lam: float
    method: str
    objective_trace: tuple
    iterations: int
    intercept: float | None = None
    converged: bool = True

    def __post_init__(self):
        coef = np.array(self.coefficients, dtype=float, copy=True)
        coef.setflags(write=False)
        object.__setattr__(self, "coefficients", coef)
        object.__setattr__(self, "support", tuple(map(int, self.support)))


def _predictor_indices(d: glm.Dataset):
    """Model-vector indices of the penalized (predictor) coordinates."""
    return range(1, d.n_coef) if d.intercept else range(d.n_coef)


def penalized_objective(d: glm.Dataset, beta, p: PenaltySpec) -> float:
    """Q(beta) = loglik - n * sum_j p_lam(|beta_j|) over predictor slots."""
    beta = np.asarray(beta, dtype=float)
    pen = sum(penalty.value(p, abs(beta[j])) for j in _predictor_indices(d))
    return glm.loglik(d, beta) - d.n * pen


def _separable_problem(d: glm.Dataset, b0, p: PenaltySpec):
    """Lambda-free one-step working problem of a separable penalty, with its
    scale factors; level lambda is its weight profile u * lambda.

    Each predictor column is sqrt(D) x_j / p'(|b0_j|) with u_j = n, where p'
    is the derivative at lambda = 1; a coordinate whose p' exceeds the weight
    cap is pinned (u_j = +inf, scale and column 0).  The intercept, when
    present, is an unpenalized column (u_0 = 0).
    """
    unit = replace(p, lam=1.0)
    M = d.model_matrix
    sqrt_d = np.sqrt(glm.curvature_weights(d, b0))
    scales = np.ones(d.n_coef)
    u = np.zeros(d.n_coef)
    for j in _predictor_indices(d):
        pd = penalty.derivative(unit, abs(b0[j]))
        if pd > WEIGHT_CAP:
            scales[j], u[j] = 0.0, np.inf
        else:
            scales[j], u[j] = 1.0 / pd, d.n
    try:
        prob = wlasso.WlassoProblem(sqrt_d[:, None] * M * scales, sqrt_d * (M @ b0), u)
    except ValueError:  # shapes and weights are valid by construction: X or y overflowed
        raise DataError("the one-step working problem overflows: "
                        "the data's scale is out of range") from None
    return prob, scales


def _level_weights(u, lam):
    """Weights lam * u of a unit profile, keeping its +inf entries."""
    return np.where(np.isinf(u), np.inf, lam * u)


def _column_projector(X):
    """Orthonormal basis of span(X) via SVD; warns when rank deficient."""
    U, s, _ = np.linalg.svd(X, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        rank = 0
    else:
        rank = int(np.sum(s > s[0] * max(X.shape) * np.finfo(float).eps))
    if rank < X.shape[1]:
        warnings.warn(
            "rank-deficient unpenalized block; using pseudo-inverse projection",
            SingularProjectionWarning,
            stacklevel=3,
        )
    return U[:, :rank]


def _scad_split(d: glm.Dataset, b0, p: PenaltySpec):
    """SCAD split at b0: U (intercept, zero derivative), V, and the scales
    lambda / p'_lam(|b0_j|) of the V columns, in V's order."""
    ((u_set, v_set), v_scales), = _scad_splits(d, b0, [p.lam], p.a)
    return u_set.tolist(), v_set.tolist(), v_scales


def _scad_splits(d: glm.Dataset, b0, grid, a):
    """``((U, V), V scales)`` at b0 for each lambda of ``grid``, from one
    derivative table.  U and V are index arrays, and the same pair of arrays
    while the split stays the same."""
    table = penalty.scad_derivatives(grid, np.abs(b0), a)
    if d.intercept:
        table[:, 0] = 0.0
    zero = table == 0.0
    scales = np.asarray(grid, dtype=float)[:, None] / np.where(zero, 1.0, table)  # U's go unread
    changed = [True] + (zero[1:] != zero[:-1]).any(axis=1).tolist()
    for row, s, new in zip(zero, scales, changed):
        if new:
            split = np.flatnonzero(row), np.flatnonzero(~row)
        yield split, s[split[1]]


def _scad_one_step(d: glm.Dataset, b0, p: PenaltySpec):
    """SCAD one step on the n-row working data: scale the V columns by
    lambda / p'_lam(|b0_j|), project the U block out of the response and the
    V columns, solve the lasso on V at level n * lambda, and back-solve U by
    least squares."""
    M = d.model_matrix
    sqrt_d = np.sqrt(glm.curvature_weights(d, b0))
    ystar = sqrt_d * (M @ b0)
    u_set, v_set, s_v = _scad_split(d, b0, p)
    Xstar = sqrt_d[:, None] * M
    Xstar[:, v_set] *= s_v
    Xv = Xstar[:, v_set]
    Q = _column_projector(Xstar[:, u_set])
    prob = wlasso.WlassoProblem(
        Xv - Q @ (Q.T @ Xv), ystar - Q @ (Q.T @ ystar), np.full(len(v_set), d.n * p.lam)
    )
    beta_v = wlasso.solve(prob, tol=TOL).beta
    beta = np.zeros(d.n_coef)
    beta[u_set] = np.linalg.lstsq(Xstar[:, u_set], ystar - Xv @ beta_v, rcond=None)[0]
    beta[v_set] = beta_v * s_v
    return beta


def _result_from_model_vector(d, beta_model, lam, method, trace, iterations, converged=True):
    coef, intercept = d.split_coefficients(beta_model)
    support = tuple(coef.nonzero()[0].tolist())
    return FitResult(coef, support, float(lam), method, tuple(trace), iterations, intercept, converged)


def _working_response(d, beta):
    """IRLS working pieces sqrt(D) X and sqrt(D) eta + (y - mu) / sqrt(D) at beta."""
    if d.family == "gaussian":
        return d.model_matrix, d.response
    eta = d.model_matrix @ beta
    mu = glm.mean_response(d, eta)
    sw = np.sqrt(np.maximum(glm._curvature(d.family, mu), _CURV_FLOOR))
    return sw[:, None] * d.model_matrix, sw * eta + (d.response - mu) / sw


def _lla_step(d, w, beta, tol):
    """The weighted lasso of the likelihood's IRLS expansion at ``beta`` (exact
    for Gaussian data), with L1 weights ``w``, warm-started at ``beta``."""
    Xw, yw = _working_response(d, beta)
    return wlasso.solve(wlasso.WlassoProblem(Xw, yw, w), tol=tol, x0=beta).beta


def _lla_weights(d, p, beta):
    """Per-coordinate L1 weights n * p'_lam(|beta_j|), capped to +inf."""
    w = np.zeros(d.n_coef)
    for j in _predictor_indices(d):
        dj = penalty.derivative(p, abs(beta[j]))
        w[j] = np.inf if dj > WEIGHT_CAP else d.n * dj
    return w


def _pen_loglik(d, beta, w):
    pen = 0.0
    for j, wj in enumerate(w):
        if beta[j] != 0.0:
            if not np.isfinite(wj):
                return -np.inf
            pen += wj * abs(beta[j])
    return glm.loglik(d, beta) - pen


def _maximize_penalized_loglik(d, w, start, tol):
    """Maximize loglik(beta) - sum w_j |beta_j| by proximal Newton steps.

    Gaussian likelihoods are quadratic, so a single weighted-lasso solve is
    exact; other families iterate reweighted quadratic expansions with a
    backtracking ascent check until the step is full and small.
    """
    if d.family == "gaussian":
        return _lla_step(d, w, start, tol)
    beta = np.where(np.isinf(w), 0.0, np.asarray(start, dtype=float))
    fb = _pen_loglik(d, beta, w)
    for _ in range(MAX_ITER):
        cand = _lla_step(d, w, beta, tol)
        step = cand - beta
        delta = float(np.max(np.abs(step))) if step.size else 0.0
        fn = _pen_loglik(d, cand, w)
        if fn >= fb - 1e-12:
            beta, fb = cand, fn
            if delta <= tol:
                return beta
            continue
        t = 0.5
        while t > 1e-10:
            trial = beta + t * step
            ft = _pen_loglik(d, trial, w)
            if ft >= fb - 1e-12:
                beta, fb = trial, ft
                break
            t *= 0.5
        else:
            return beta  # no ascent direction left: numerically stationary
    raise NonConvergence("inner penalized-likelihood maximization did not converge")


def k_step(d: glm.Dataset, p: PenaltySpec, b0=None, k: int = 1) -> FitResult:
    """k iterations of the one-step construction.

    The first step is the one-step estimator's working problem; later steps
    re-expand the likelihood quadratic (gradient included) at the new
    iterate and resolve the tangent-weighted lasso.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if b0 is None:
        b0 = glm.fit_mle(d)
    b0 = np.asarray(b0, dtype=float)
    if p.family == "scad":
        beta = _scad_one_step(d, b0, p)
    else:
        prob, scales = _separable_problem(d, b0, p)
        prob = replace(prob, weights=_level_weights(prob.weights, p.lam))
        beta = wlasso.solve(prob, tol=TOL).beta * scales
    trace = [penalized_objective(d, b0, p), penalized_objective(d, beta, p)]
    for _ in range(k - 1):
        beta = _lla_step(d, _lla_weights(d, p, beta), beta, TOL)
        trace.append(penalized_objective(d, beta, p))
    method = "one_step" if k == 1 else f"k_step({k})"
    return _result_from_model_vector(d, beta, p.lam, method, trace, k)


def one_step(d: glm.Dataset, p: PenaltySpec, b0=None) -> FitResult:
    """One-step LLA estimator started from ``b0`` (default: the MLE).

    Builds the working problem for the penalty's route, solves the weighted-L1
    problem at penalty level ``n * lam``, and maps the solution back; zeros
    are exact.  This is :func:`k_step` with ``k = 1``.
    """
    return k_step(d, p, b0, k=1)


def full_lla(d: glm.Dataset, p: PenaltySpec, b0=None) -> FitResult:
    """Iterate LLA steps to a fixed point, monitoring the ascent of Q.

    Each step maximizes the tangent minorization exactly (inner tolerance
    TOL/10), so the recorded Q trace is nondecreasing.  Only penalties that
    are bounded at zero and have finite derivatives are admitted (scad, l1);
    the logarithm penalty makes Q unbounded and is one-step only.
    """
    if p.family not in ("scad", "l1"):
        raise FamilyMismatch("full LLA requires a bounded penalty (scad or l1)")
    if b0 is None:
        b0 = glm.fit_mle(d)
    beta = np.asarray(b0, dtype=float).copy()
    trace = [penalized_objective(d, beta, p)]
    for it in range(1, MAX_ITER + 1):
        w = _lla_weights(d, p, beta)
        new = _maximize_penalized_loglik(d, w, beta, TOL / 10.0)
        trace.append(penalized_objective(d, new, p))
        delta = float(np.max(np.abs(new - beta)))
        beta = new
        if delta <= TOL:
            return _result_from_model_vector(d, beta, p.lam, "full_lla", trace, it)
    partial = _result_from_model_vector(
        d, beta, p.lam, "full_lla", trace, MAX_ITER, converged=False
    )
    raise NonConvergence(f"LLA did not converge in {MAX_ITER} iterations", result=partial)


def _lapack_solve(A, B):
    """``np.linalg.solve(A, B)`` for float64 A (m, m) and B (m,) or (m, k) by the
    same LAPACK gufunc without numpy's per-call wrapper, so with the same bytes.
    An empty result, or one led by NaN (gesv fills a singular A's with NaN), is
    solved again by numpy, which raises its LinAlgError.  The caller holds
    np.errstate(invalid="ignore") once per loop, or a singular A also warns."""
    x = (_umath_linalg.solve1 if B.ndim == 1 else _umath_linalg.solve)(A, B, signature="dd->d")
    return x if x.size and not math.isnan(x.item(0)) else np.linalg.solve(A, B)


def _psolver(A):
    """Solver of A X = B for one symmetric PSD block (by :func:`_lapack_solve`),
    pseudo-inverting if needed.  Singularity is decided by the first solve; from
    then on every right-hand side reuses one pinv(A), so the block warns once."""
    pinv = None

    def solve(B):
        nonlocal pinv
        if pinv is None:
            try:
                return _lapack_solve(A, B)
            except np.linalg.LinAlgError:
                warnings.warn(
                    "rank-deficient unpenalized block; using pseudo-inverse projection",
                    SingularProjectionWarning,
                    stacklevel=3,
                )
                pinv = np.linalg.pinv(A)
        return pinv @ B

    return solve


def one_step_lambda_max(d: glm.Dataset, p: PenaltySpec, b0=None) -> float:
    """Smallest lambda at which the one-step fit keeps no penalized coordinate."""
    if b0 is None:
        b0 = glm.fit_mle(d)
    b0 = np.asarray(b0, dtype=float)
    if p.family != "scad":
        return wlasso.lambda_max(_separable_problem(d, b0, p)[0])
    # SCAD: for lambda >= max |b0_j| every predictor weight is n*lambda, so
    # the all-zero threshold is the larger of that bound and the usual
    # correlation bound on the unscaled working data.
    with np.errstate(over="ignore", invalid="ignore"):  # a NaN bound is DataError downstream
        H = glm.neg_hessian(d, b0)
        bvec = H @ b0
    pred = list(_predictor_indices(d))
    if d.intercept:
        h00 = H[0, 0]
        corr = np.array([bvec[j] - H[j, 0] * (bvec[0] / h00 if h00 > 0 else 0.0) for j in pred])
    else:
        corr = bvec[pred]
    lam_corr = float(np.max(np.abs(corr))) / d.n if pred else 0.0
    lam_beta = float(np.max(np.abs(b0[pred]))) if pred else 0.0
    return max(lam_corr, lam_beta) * (1.0 + 1e-10)


def _path_point(d, beta, lam):  # None where the coefficients overflowed
    finite = np.isfinite(beta).all()
    return _result_from_model_vector(d, beta, lam, "one_step", (), 1) if finite else None


def one_step_path(d: glm.Dataset, p: PenaltySpec, lambda_grid, b0=None):
    """One-step fits along a descending lambda grid, warm-started.

    Separable penalties share one working problem and its Gram matrix across
    the grid; SCAD shares the Hessian H at b0 and H b0 (:class:`DataError`
    if either overflows).  SCAD is re-solved per point in the Gram domain,
    so the cost does not grow with n: the splits come from one derivative
    table, H's U and V blocks are taken once per split, and an empty block's
    solves skipped.  A grid that is not strictly
    descending, or has a negative or non-finite lambda, is a ValueError.
    Entries carry no objective trace (``objective_trace == ()``); entries
    that fail to fit, or whose coefficients are not finite, are None.
    """
    grid = np.asarray(lambda_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("lambda grid must be a nonempty vector")
    if np.any(np.diff(grid) >= 0.0):
        raise ValueError("lambda grid must be strictly descending")
    if not ((0.0 <= grid) & (grid < np.inf)).all():
        raise ValueError("lambda must be finite and nonnegative")
    if b0 is None:
        b0 = glm.fit_mle(d)
    b0 = np.asarray(b0, dtype=float)
    n, n_coef = d.n, d.n_coef

    if p.family != "scad":
        prob, scales = _separable_problem(d, b0, p)
        G, bvec = wlasso.gram(prob)
        out = []
        warm = None
        for lam in grid.tolist():
            try:
                warm, _, _ = wlasso.solve_gram(G, bvec, _level_weights(prob.weights, lam),
                                               tol=TOL, x0=warm)
                out.append(_path_point(d, warm * scales, lam))
            except (NonConvergence, np.linalg.LinAlgError):
                out.append(None)
        return out

    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        H = glm.neg_hessian(d, b0)
        bvec = H @ b0
    if not (np.isfinite(H).all() and np.isfinite(bvec).all()):
        raise DataError("the one-step Hessian overflows: the data's scale is out of range")
    out = []
    prev_beta = split = None
    # s = 1 on U, so only products with a V side change with lambda; an empty
    # U or V block would only subtract 0.0 from the other.  s > 0 on V.
    with np.errstate(invalid="ignore"):  # for _lapack_solve, once per path
        for lam, (point_split, s_v) in zip(grid.tolist(), _scad_splits(d, b0, grid, p.a)):
            try:
                if point_split is not split:  # take, a cheaper np.ix_, once per split
                    split = point_split
                    u_idx, v_idx = split
                    Huu, Huv, Hvu, Hvv = (H.take(r, 0).take(c, 1) for r in split for c in split)
                    b_u, b_v = bvec.take(u_idx), bvec.take(v_idx)
                psolve = _psolver(Huu)
                beta = np.zeros(n_coef)
                if v_idx.size:
                    Gvv, bs_v = (s_v[:, None] * Hvv) * s_v, s_v * b_v
                    if u_idx.size:
                        Gvu = s_v[:, None] * Hvu
                        K = psolve(np.concatenate([Gvu.T, b_u[:, None]], axis=1))
                        Gvv, bs_v = Gvv - Gvu @ K[:, :-1], bs_v - Gvu @ K[:, -1]
                    warm = None if prev_beta is None else prev_beta[v_idx] / s_v
                    beta_v = wlasso.solve_gram(Gvv, bs_v, np.full(v_idx.size, n * lam),
                                               tol=TOL, x0=warm)[0]
                    beta[v_idx] = beta_v * s_v
                if u_idx.size:
                    beta[u_idx] = psolve(b_u - (Huv * s_v) @ beta_v if v_idx.size else b_u)
                prev_beta = beta
                out.append(_path_point(d, beta, lam))
            except (NonConvergence, np.linalg.LinAlgError):
                out.append(None)
    return out
