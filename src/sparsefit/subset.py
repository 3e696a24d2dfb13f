"""Exhaustive best-subset selection under AIC/BIC.

Every one of the 2^p predictor subsets is fit by maximum likelihood and
scored as 2*loglik - lam_crit * |subset| with lam_crit = 2 (AIC) or log(n)
(BIC).  Gaussian models use the profile log-likelihood -n log(RSS / n) (the
additive constant cancels in comparisons).  Ties go to the smaller subset,
then lexicographic order.
"""

import itertools
import math

import numpy as np

from . import glm
from .exceptions import TooManyPredictors
from .lla import FitResult

DEFAULT_MAX_P = 20

#: cap on the float64 entries of one stacked (m, n, k) model-matrix array
#: in a GLM enumeration (128 KiB), so peak memory stays flat in n and p
_STACK_FLOATS = 1 << 14

CRITERIA = ("aic", "bic")


def criterion_multiplier(criterion: str, n: int) -> float:
    if criterion == "aic":
        return 2.0
    if criterion == "bic":
        return math.log(n)
    raise ValueError(f"unknown criterion {criterion!r}")


def enumerate_subset_fits(d: glm.Dataset, max_p: int = DEFAULT_MAX_P):
    """MLE fit and 2*loglik for every predictor subset.

    Returns a list of ``(cols, two_ll, model_beta)`` in (size, lex) order;
    ``model_beta`` is the full-length model vector, zero outside the subset.
    The empty subset is a legal candidate (intercept-only when the dataset
    has an intercept).  Gaussian subsets are least-squares solves on blocks
    of the Gram matrix.  Logistic and Poisson subsets of one size are fit in
    lockstep: their model-matrix columns are gathered into (m, n, k) stacks
    of at most ``_STACK_FLOATS`` floats each, and each stack runs one
    batched Newton iteration (:func:`glm._newton_mle`), whose converged
    log-likelihoods give ``two_ll``.
    """
    p = d.p
    if p > max_p:
        raise TooManyPredictors(f"p = {p} exceeds the enumeration cap {max_p}")
    M = d.model_matrix
    y = d.response
    n = d.n
    offset = 1 if d.intercept else 0
    gaussian = d.family == "gaussian"
    if gaussian:
        G = M.T @ M
        c = M.T @ y
        yy = float(y @ y)
    out = []
    for size in range(p + 1):
        subsets = list(itertools.combinations(range(p), size))
        index = np.array(
            [([0] if d.intercept else []) + [j + offset for j in cols] for cols in subsets],
            dtype=int,
        ).reshape(len(subsets), size + offset)
        if gaussian:
            for cols, idx in zip(subsets, index):
                beta = np.zeros(d.n_coef)
                if idx.size:
                    Gs, cs = G[np.ix_(idx, idx)], c[idx]
                    sub = np.linalg.lstsq(Gs, cs, rcond=None)[0]
                    beta[idx] = sub
                    rss = yy - 2.0 * cs @ sub + sub @ Gs @ sub
                else:
                    rss = yy
                rss = max(float(rss), 1e-300)
                out.append((cols, -n * math.log(rss / n), beta))
        elif index.shape[1] == 0:  # the empty model: no coefficients to fit
            beta = np.zeros(d.n_coef)
            out.append(((), 2.0 * glm.loglik(d, beta), beta))
        else:
            chunk = max(1, _STACK_FLOATS // (n * index.shape[1]))
            for lo in range(0, len(subsets), chunk):
                idx = index[lo:lo + chunk]
                X = np.ascontiguousarray(M[:, idx].transpose(1, 0, 2))
                sub, ll = glm._newton_mle(X, y, d.family)
                for cols, ix, b, ll_i in zip(subsets[lo:lo + chunk], idx, sub, ll):
                    beta = np.zeros(d.n_coef)
                    beta[ix] = b
                    out.append((cols, 2.0 * float(ll_i), beta))
    return out


def select_from_enumeration(fits, criterion: str, n: int):
    """Pick the best-scoring subset from :func:`enumerate_subset_fits` output."""
    lam_crit = criterion_multiplier(criterion, n)
    best = None
    best_score = -math.inf
    for cols, two_ll, beta in fits:
        score = two_ll - lam_crit * len(cols)
        if score > best_score:  # strict: (size, lex) order breaks ties
            best_score = score
            best = (cols, two_ll, beta)
    return best, best_score, lam_crit


def best_subset(d: glm.Dataset, criterion: str = "bic",
                max_p: int = DEFAULT_MAX_P) -> FitResult:
    """Exhaustive best-subset fit under the given criterion.

    Raises :class:`TooManyPredictors` when p exceeds ``max_p``.
    """
    if criterion not in CRITERIA:
        raise ValueError(f"criterion must be one of {CRITERIA}")
    fits = enumerate_subset_fits(d, max_p)
    (cols, two_ll, beta), score, lam_crit = select_from_enumeration(fits, criterion, d.n)
    coef, intercept = d.split_coefficients(beta)
    support = tuple(int(j) for j in np.flatnonzero(coef))
    return FitResult(
        coef,
        support,
        lam_crit,
        "subset",
        (score,),
        len(fits),
        intercept,
        True,
    )
