"""Selection of the regularization level: k-fold CV or BIC.

Cross-validation tunes for prediction.  Folds come from a seeded permutation
split into near-equal blocks; the validation loss is the out-of-fold mean
negative log-likelihood (plain mean squared error for Gaussian data).  The
initial estimator of any two-stage method is re-fit inside each training
fold, which is the fitter's job: a fitter is a callable
``fitter(train_dataset, lambda_grid) -> [FitResult or None, ...]`` aligned
with the grid, with None marking a fold/lambda pair that failed (those score
+inf).  A fitter that raises a solver failure (SparsefitError or
LinAlgError) scores its whole fold +inf; other exceptions propagate.  CV is
not selection-consistent: on large samples it often prefers a small lambda
that keeps a few noise variables.

The BIC selector (Wang, Li & Tsai 2007) calls the same fitter once, on the
full data, and scores each grid point by -2 loglik + log(n) df, with df the
number of nonzero predictors.  It is selection-consistent, which is what the
oracle property of the one-step estimator needs.
"""

import math

import numpy as np

from . import glm
from .exceptions import DataError, SparsefitError

DEFAULT_FOLDS = 5
DEFAULT_N_LAMBDA = 100
DEFAULT_MIN_RATIO = 1e-3

#: fitter failures that score +inf instead of propagating
SOLVER_ERRORS = (SparsefitError, np.linalg.LinAlgError)


def default_lambda_grid(lam_max: float, n_points: int = DEFAULT_N_LAMBDA,
                        min_ratio: float = DEFAULT_MIN_RATIO) -> np.ndarray:
    """Log-spaced descending grid from lam_max (1 if lam_max <= 0) down to
    min_ratio * lam_max; raises :class:`DataError` if lam_max is NaN or inf."""
    if not math.isfinite(lam_max):
        raise DataError(f"lambda_max is {lam_max}: the data's scale is out of range")
    if not lam_max > 0.0:
        lam_max = 1.0
    return np.geomspace(lam_max, lam_max * min_ratio, n_points)


def _model_vector(d: glm.Dataset, fit) -> np.ndarray:
    if d.intercept:
        return np.concatenate([[fit.intercept], fit.coefficients])
    return fit.coefficients


def validation_loss(d_val: glm.Dataset, beta_model) -> float:
    """Mean out-of-fold loss: squared error for Gaussian, NLL otherwise."""
    if d_val.family == "gaussian":
        mu = glm.linear_predictor(d_val, beta_model)
        return float(np.mean((d_val.response - mu) ** 2))
    return -glm.loglik(d_val, beta_model) / d_val.n


def cv_select(d: glm.Dataset, fitter, lambda_grid, k: int = DEFAULT_FOLDS,
              seed: int = 0):
    """Pick the loss-minimizing lambda by k-fold cross-validation.

    Returns ``(lambda_star, cv_curve)`` where the curve is a list of
    ``(lambda, mean loss)`` pairs in grid order and lambda_star is the first
    of :func:`preferred_lambdas` (ties go to the larger lambda, the sparser
    model); raises :class:`DataError` when no grid point has a finite loss.
    The whole computation is a pure function of (dataset, grid, k, seed).
    """
    grid = np.asarray(lambda_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("lambda grid must be nonempty")
    if k < 2:
        raise ValueError("need at least 2 folds")
    n = d.n
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    folds = np.array_split(perm, k)
    losses = np.zeros((k, grid.size))
    for f, val_idx in enumerate(folds):
        mask = np.ones(n, dtype=bool)
        mask[val_idx] = False
        train = d.subset_rows(np.where(mask)[0])
        val = d.subset_rows(np.sort(val_idx))
        try:
            fits = fitter(train, grid)
        except SOLVER_ERRORS:
            losses[f, :] = np.inf
            continue
        for i, fit in enumerate(fits):
            if fit is None:
                losses[f, i] = np.inf
            else:
                losses[f, i] = validation_loss(val, _model_vector(d, fit))
    curve = [(float(lam), float(np.mean(losses[:, i]))) for i, lam in enumerate(grid)]
    return _lambda_star(curve, "cv"), curve


def preferred_lambdas(curve):
    """Lambdas of a ``(lambda, score)`` curve, most preferred first: lowest
    score, ties to the larger lambda, no point scored +inf or NaN.  The first
    is lambda*, the rest refit fallbacks."""
    ranked = sorted((score, -lam) for lam, score in curve if score < math.inf)
    return [-neg_lam for _, neg_lam in ranked]


def _lambda_star(curve, selector):
    """The first of :func:`preferred_lambdas`; :class:`DataError` if none."""
    preferred = preferred_lambdas(curve)
    if not preferred:
        raise DataError(f"no lambda on the grid has a finite {selector} score")
    return preferred[0]


def _bic_score(d: glm.Dataset, fit) -> float:
    """-2 loglik + log(n) df for one fit on the data it was fit to.

    Gaussian data use the profile form n log(RSS / n), as best-subset
    selection does; df counts the nonzero predictors (not the intercept).
    """
    beta = _model_vector(d, fit)
    if d.family == "gaussian":
        rss = float(np.sum((d.response - glm.linear_predictor(d, beta)) ** 2))
        misfit = d.n * math.log(max(rss, 1e-300) / d.n)
    else:
        misfit = -2.0 * glm.loglik(d, beta)
    return misfit + math.log(d.n) * int(np.count_nonzero(fit.coefficients))


def bic_select(d: glm.Dataset, fitter, lambda_grid):
    """Pick the BIC-minimizing lambda from one fit path on the full data.

    ``fitter`` follows the :func:`cv_select` contract but is called once,
    with ``d`` itself.  Returns ``(lambda_star, bic_curve)`` where the curve
    is a list of ``(lambda, score)`` pairs in grid order, a None fit scoring
    +inf, and lambda_star is chosen as :func:`cv_select` chooses it.  The
    result is a pure function of (dataset, grid).
    """
    grid = np.asarray(lambda_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("lambda grid must be nonempty")
    try:
        fits = fitter(d, grid)
    except SOLVER_ERRORS:
        fits = [None] * grid.size
    curve = [
        (float(lam), math.inf if fit is None else _bic_score(d, fit))
        for lam, fit in zip(grid, fits)
    ]
    return _lambda_star(curve, "bic"), curve
