"""Likelihood families (Gaussian, logistic, Poisson) and the unpenalized MLE.

Conventions: the Gaussian log-likelihood is -(y - mu)^2 / 2 per observation,
so its curvature weight is 1 (not 2); with that convention the one-step
quadratic for general likelihoods reduces exactly to penalized least squares
when the family is Gaussian.  Lambda values are therefore not directly
comparable to implementations built on the unhalved squared-error loss.
The dispersion parameter is never estimated or penalized.
"""

import csv
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exceptions import DataError, NonConvergence, RidgeFallbackWarning

FAMILIES = ("gaussian", "logistic", "poisson")

_MLE_GRAD_TOL = 1e-10
_MLE_MAX_ITER = 100
_RIDGE_SCALE = 1e-6


@dataclass(frozen=True)
class Dataset:
    """An immutable design/response pair with its likelihood family.

    ``design`` is n x p (predictors only); when ``intercept`` is set the
    model matrix gains a leading all-ones column and model coefficient
    vectors have length p + 1 with the intercept in slot 0.
    """

    design: np.ndarray
    response: np.ndarray
    family: str
    intercept: bool = False
    _model_matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        X = np.array(self.design, dtype=float, copy=True)
        y = np.array(self.response, dtype=float, copy=True)
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise ValueError("design must be a nonempty 2-D matrix")
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise ValueError("response length must match design rows")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
            raise ValueError("design and response must be finite")
        if self.family == "logistic" and not np.all((y == 0.0) | (y == 1.0)):
            raise ValueError("logistic responses must be 0/1")
        if self.family == "poisson" and (np.any(y < 0) or np.any(y != np.floor(y))):
            raise ValueError("poisson responses must be nonnegative integers")
        if self.intercept:
            M = np.column_stack([np.ones(X.shape[0]), X])
        else:
            M = X
        for arr in (X, y, M):
            arr.setflags(write=False)
        object.__setattr__(self, "design", X)
        object.__setattr__(self, "response", y)
        object.__setattr__(self, "_model_matrix", M)

    @property
    def n(self) -> int:
        return self.design.shape[0]

    @property
    def p(self) -> int:
        return self.design.shape[1]

    @property
    def n_coef(self) -> int:
        """Length of a model coefficient vector (p, plus 1 with intercept)."""
        return self.p + (1 if self.intercept else 0)

    @property
    def model_matrix(self) -> np.ndarray:
        return self._model_matrix

    @cached_property
    def _log_y_factorial(self) -> np.ndarray:  # the Poisson log-likelihood's constant
        from scipy.special import gammaln  # deferred: most of the package import time
        return gammaln(self.response + 1.0)

    def subset_rows(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.design[idx], self.response[idx], self.family, self.intercept)


def _check_beta(d: Dataset, beta) -> np.ndarray:
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (d.n_coef,):
        raise ValueError(f"expected coefficient vector of length {d.n_coef}, got {beta.shape}")
    return beta


def linear_predictor(d: Dataset, beta) -> np.ndarray:
    return d.model_matrix @ _check_beta(d, beta)


def _mean(family: str, eta: np.ndarray) -> np.ndarray:
    if family == "gaussian":
        return eta
    if family == "logistic":
        from scipy.special import expit  # deferred: most of the package import time
        return expit(eta)
    return np.exp(eta)


def _curvature(family: str, mu: np.ndarray) -> np.ndarray:  # mu: the mean, from _mean
    if family == "gaussian":
        return np.ones(mu.shape)
    return mu * (1.0 - mu) if family == "logistic" else mu


def _eta_loglik(d: Dataset, eta: np.ndarray):
    """Log-likelihood of ``d``'s response summed over the last axis of ``eta``."""
    y = d.response
    if d.family == "gaussian":
        return -0.5 * np.sum((y - eta) ** 2, axis=-1)
    if d.family == "logistic":
        return np.sum(y * eta - np.logaddexp(0.0, eta), axis=-1)
    return np.sum(y * eta - np.exp(eta) - d._log_y_factorial, axis=-1)


def loglik(d: Dataset, beta) -> float:
    """Total log-likelihood at the model vector ``beta``."""
    return float(_eta_loglik(d, linear_predictor(d, beta)))


def score(d: Dataset, beta) -> np.ndarray:
    """Gradient of the log-likelihood, X^T (y - E[y|x])."""
    mu = linear_predictor(d, beta)
    return d.model_matrix.T @ (d.response - _mean(d.family, mu))


def curvature_weights(d: Dataset, beta) -> np.ndarray:
    """Per-observation negative second derivative of the log-likelihood in mu."""
    return _curvature(d.family, _mean(d.family, linear_predictor(d, beta)))


def neg_hessian(d: Dataset, beta) -> np.ndarray:
    """X^T D X with D the diagonal of curvature weights."""
    M = d.model_matrix
    w = curvature_weights(d, beta)
    return M.T @ (w[:, None] * M)


def _solve_newton_system(H, g):
    """Solve H x = g, stabilizing a singular H with a small ridge."""
    try:
        x = np.linalg.solve(H, g)
        if np.all(np.isfinite(x)):
            return x
    except np.linalg.LinAlgError:
        pass
    warnings.warn(
        "singular Newton system; adding a small ridge", RidgeFallbackWarning, stacklevel=3
    )
    return _ridge_solve(H, g)


def _ridge_solve(H, g):
    """Solve (H + r I) x = g, r = 1e-6 * mean(diag H), or 1e-6 when that r is
    not positive and finite (an all-zero or overflowing H)."""
    ridge = _RIDGE_SCALE * float(np.mean(np.diag(H)))
    if ridge <= 0.0 or not np.isfinite(ridge):
        ridge = _RIDGE_SCALE
    return np.linalg.solve(H + ridge * np.eye(H.shape[0]), g)


def _stack_eta(X: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Linear predictors (m, n) of a stack X (m, n, k) at coefficients (m, k)."""
    return np.matmul(X, beta[:, :, None])[:, :, 0]


def _newton_mle(X: np.ndarray, d: Dataset):
    """Damped Newton-Raphson MLEs for a stack of model matrices, in lockstep.

    ``X`` is (m, n, k): m logistic or Poisson model matrices over the
    response of ``d``.  Every member starts at zero; each round forms all
    scores and X^T D X with batched ``np.matmul``, solves all Newton systems
    in one stacked ``np.linalg.solve`` and runs a vectorized step-halving
    line search (at most 40 trials, accepting ll_new >= ll - 1e-12).  A
    member whose stacked solve is singular or non-finite is solved alone by
    :func:`_solve_newton_system` (ridge fallback and its warning included),
    and a member leaves the stack once its gradient max-norm is at most
    1e-10.  On a stack of one the arithmetic is that of 2-D products, bit
    for bit.  Returns ``(beta, ll)``: the (m, k) MLEs and their (m,)
    log-likelihoods.  Raises :class:`NonConvergence` when any member's line
    search fails or it is still moving after 100 rounds.
    """
    m, _, k = X.shape
    beta_out = np.empty((m, k))
    ll_out = np.empty(m)
    live = np.arange(m)
    beta = np.zeros((m, k))
    eta = _stack_eta(X, beta)
    ll = _eta_loglik(d, eta)
    for _ in range(_MLE_MAX_ITER):
        mu = _mean(d.family, eta)
        g = np.matmul(X.transpose(0, 2, 1), (d.response - mu)[:, :, None])[:, :, 0]
        done = np.max(np.abs(g), axis=1) <= _MLE_GRAD_TOL
        if done.any():
            beta_out[live[done]] = beta[done]
            ll_out[live[done]] = ll[done]
            if done.all():
                return beta_out, ll_out
            keep = ~done
            live, X, beta, mu, ll, g = (
                live[keep], X[keep], beta[keep], mu[keep], ll[keep], g[keep]
            )
        H = np.matmul(X.transpose(0, 2, 1), _curvature(d.family, mu)[:, :, None] * X)
        try:
            step = np.linalg.solve(H, g[:, :, None])[:, :, 0]
            bad = ~np.all(np.isfinite(step), axis=1)
        except np.linalg.LinAlgError:
            step = np.empty_like(g)
            bad = np.ones(len(live), dtype=bool)
        for i in np.flatnonzero(bad):
            step[i] = _solve_newton_system(H[i], g[i])
        t = np.ones(len(live))
        cand = beta + t[:, None] * step
        eta_new = _stack_eta(X, cand)
        ll_new = _eta_loglik(d, eta_new)
        todo = ~(np.isfinite(ll_new) & (ll_new >= ll - 1e-12))
        for _ in range(39):  # halvings after the full step: 40 trials in all
            if not todo.any():
                break
            i = np.flatnonzero(todo)
            t[i] *= 0.5
            cand[i] = beta[i] + t[i, None] * step[i]
            eta_new[i] = _stack_eta(X[i], cand[i])
            ll_new[i] = _eta_loglik(d, eta_new[i])
            todo[i] = ~(np.isfinite(ll_new[i]) & (ll_new[i] >= ll[i] - 1e-12))
        if todo.any():
            raise NonConvergence("Newton line search failed to find an ascent step")
        beta, eta, ll = cand, eta_new, ll_new
    raise NonConvergence(f"MLE did not converge in {_MLE_MAX_ITER} iterations")


def fit_mle(d: Dataset) -> np.ndarray:
    """Unpenalized maximum likelihood estimate (the initial estimator).

    Gaussian is solved in a single least-squares solve; logistic and Poisson
    use damped Newton-Raphson until the gradient max-norm drops below 1e-10.
    A singular system gets a small ridge and a :class:`RidgeFallbackWarning`;
    raises :class:`NonConvergence` after 100 iterations.
    """
    M, y = d.model_matrix, d.response
    if d.family != "gaussian":
        beta, _ = _newton_mle(M[None], d)
        return beta[0]
    beta, _, rank, _ = np.linalg.lstsq(M, y, rcond=None)
    if rank < M.shape[1]:
        warnings.warn(
            "rank-deficient design; ridge-stabilized least squares",
            RidgeFallbackWarning,
            stacklevel=2,
        )
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is typed downstream
            beta = _ridge_solve(M.T @ M, M.T @ y)
    return beta


def load_csv(path, response: str, family: str, intercept: bool = False):
    """Read a numeric CSV with a header row into a Dataset.

    The column named ``response`` becomes the response; every other column is
    a predictor, in file order.  Returns ``(dataset, predictor_names)``.
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file")
            header = [h.strip() for h in header]
            rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}")
    if response not in header:
        raise DataError(f"{path}: no column named {response!r}")
    y_col = header.index(response)
    x_cols = [j for j in range(len(header)) if j != y_col]
    if not x_cols:
        raise DataError(f"{path}: no predictor columns")
    try:
        data = np.array([[float(row[j]) for j in range(len(header))] for row in rows])
    except (ValueError, IndexError) as exc:
        raise DataError(f"{path}: non-numeric or ragged row ({exc})")
    if data.shape[0] < 1:
        raise DataError(f"{path}: no data rows")
    try:
        d = Dataset(data[:, x_cols], data[:, y_col], family, intercept)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}")
    return d, [header[j] for j in x_cols]
