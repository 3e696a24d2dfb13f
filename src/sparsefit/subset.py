"""Exhaustive best-subset selection under AIC/BIC.

Every one of the 2^p predictor subsets is fit by maximum likelihood and
scored as 2*loglik - lam_crit * |subset| with lam_crit = 2 (AIC) or log(n)
(BIC).  Gaussian models use the profile log-likelihood -n log(RSS / n) (the
additive constant cancels in comparisons).  Ties go to the smaller subset,
then lexicographic order.

Subsets of one size are fit in chunks of at most ``_STACK_FLOATS`` floats, so
memory stays flat up to the p cap: a Gaussian chunk is one stacked solve on
its (m, k, k) Gram blocks, a logistic or Poisson chunk one batched Newton
iteration on its (m, n, k) model matrices.  A Gaussian design with
cond(X'X) >= ``_COND_MAX`` is fit one subset at a time by ``np.linalg.lstsq``
instead, for its minimum-norm answers on singular blocks, where a stacked
solve may return finite garbage without raising.
"""

import itertools
import math

import numpy as np

from . import glm, lla
from .exceptions import TooManyPredictors
from .lla import FitResult

MAX_P = 20

#: cap on the float64 entries of one stacked array in an enumeration (128 KiB):
#: (m, k, k) Gram blocks for Gaussian, (m, n, k) model matrices otherwise
_STACK_FLOATS = 1 << 14

#: Gaussian designs with cond(X'X) >= this go to per-subset lstsq.  Below it
#: no Gram block is worse conditioned (Cauchy interlacing), and the stacked
#: solves agree with lstsq to about 2e-11 relative in the coefficients; at
#: 1e6 the gap reaches 2e-10
_COND_MAX = 1e5

CRITERIA = ("aic", "bic")


def criterion_multiplier(criterion: str, n: int) -> float:
    if criterion == "aic":
        return 2.0
    if criterion == "bic":
        return math.log(n)
    raise ValueError(f"unknown criterion {criterion!r}")


def _profile_two_ll(rss, n):
    return -n * math.log(max(float(rss), 1e-300) / n)


def _gram_fits(G, c, yy, n, idx):
    """Least-squares fits of the subsets ``idx`` (m, k) from one stacked solve.

    Returns the (m, k) coefficients and the (m,) profile 2*loglik values.
    """
    Gs = G[idx[:, :, None], idx[:, None, :]]
    cs = c[idx]
    sub = np.linalg.solve(Gs, cs[:, :, None])[:, :, 0]
    rss = yy - 2.0 * np.einsum("mi,mi->m", cs, sub) + np.einsum("mi,mij,mj->m", sub, Gs, sub)
    return sub, -n * np.log(np.maximum(rss, 1e-300) / n)


def _lstsq_fits(G, c, yy, n, idx):
    """:func:`_gram_fits` one subset at a time by ``np.linalg.lstsq``."""
    sub = np.empty(idx.shape)
    two_ll = np.empty(len(idx))
    for i, ix in enumerate(idx):
        Gs, cs = G[np.ix_(ix, ix)], c[ix]
        sub[i] = np.linalg.lstsq(Gs, cs, rcond=None)[0]
        two_ll[i] = _profile_two_ll(yy - 2.0 * cs @ sub[i] + sub[i] @ Gs @ sub[i], n)
    return sub, two_ll


def enumerate_subset_fits(d: glm.Dataset):
    """MLE fit and 2*loglik for every predictor subset.

    Returns a list of ``(cols, two_ll, model_beta)`` in (size, lex) order;
    ``model_beta`` is the full-length model vector, zero outside the subset.
    The empty subset is a legal candidate (intercept-only when the dataset
    has an intercept).  The subsets of one size are fit in chunks of at most
    ``_STACK_FLOATS // k**2`` (Gaussian) or ``_STACK_FLOATS // (n * k)``
    (logistic, Poisson) members, k being the number of model coefficients.
    A Gaussian chunk is one stacked solve on its blocks of the Gram matrix
    X'X, with RSS = y'y - 2 c'b + b'G b; when the smallest eigenvalue of the
    full Gram matrix is at most its largest over ``_COND_MAX``, every subset
    is instead solved alone by ``np.linalg.lstsq`` (minimum-norm on singular
    blocks).  A logistic or Poisson chunk runs one batched Newton iteration
    (:func:`glm._newton_mle`), whose converged log-likelihoods give
    ``two_ll``.  Raises :class:`TooManyPredictors` when p exceeds ``MAX_P``.
    """
    p = d.p
    if p > MAX_P:
        raise TooManyPredictors(f"p = {p} exceeds the enumeration cap {MAX_P}")
    M = d.model_matrix
    y = d.response
    n = d.n
    offset = 1 if d.intercept else 0
    gaussian = d.family == "gaussian"
    if gaussian:
        G = M.T @ M
        c = M.T @ y
        yy = float(y @ y)
        eig = np.linalg.eigvalsh(G)
        gram_fits = _gram_fits if eig[0] > eig[-1] / _COND_MAX else _lstsq_fits

        def fit_chunk(idx):
            return gram_fits(G, c, yy, n, idx)
    else:
        def fit_chunk(idx):
            X = np.ascontiguousarray(M[:, idx].transpose(1, 0, 2))
            sub, ll = glm._newton_mle(X, y, d.family)
            return sub, 2.0 * ll
    out = []
    for size in range(p + 1):
        subsets = list(itertools.combinations(range(p), size))
        index = np.array(subsets, dtype=int).reshape(len(subsets), size) + offset
        if d.intercept:
            index = np.insert(index, 0, 0, axis=1)
        k = size + offset
        if k == 0:  # the empty model without an intercept: nothing to fit
            beta = np.zeros(d.n_coef)
            two_ll = _profile_two_ll(yy, n) if gaussian else 2.0 * glm.loglik(d, beta)
            out.append(((), two_ll, beta))
            continue
        chunk = max(1, _STACK_FLOATS // (k * (k if gaussian else n)))
        for lo in range(0, len(subsets), chunk):
            idx = index[lo:lo + chunk]
            sub, two_ll = fit_chunk(idx)
            betas = np.zeros((len(idx), d.n_coef))
            np.put_along_axis(betas, idx, sub, axis=1)
            out += zip(subsets[lo:lo + chunk], two_ll.tolist(), betas)
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


def best_subset(d: glm.Dataset, criterion: str = "bic") -> FitResult:
    """Exhaustive best-subset fit under the given criterion.

    Raises :class:`TooManyPredictors` when p exceeds ``MAX_P``.
    """
    if criterion not in CRITERIA:
        raise ValueError(f"criterion must be one of {CRITERIA}")
    fits = enumerate_subset_fits(d)
    (cols, two_ll, beta), score, lam_crit = select_from_enumeration(fits, criterion, d.n)
    return lla._result_from_model_vector(d, beta, lam_crit, "subset", (score,), len(fits))
