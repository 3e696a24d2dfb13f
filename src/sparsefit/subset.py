"""Best-subset selection under AIC/BIC by an exact bounded search.

A subset's score is 2*loglik - lam_crit * |subset| with lam_crit = 2 (AIC) or
log(n) (BIC), at its maximum-likelihood fit.  Gaussian models use the profile
log-likelihood -n log(RSS / n) (the additive constant cancels in
comparisons).  Ties go to the smaller subset, then lexicographic order.  Only
subsets that a criterion could still select are fit, bounded by the full and
drop-one models; the pick and its bytes are those of fitting all 2^p.

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

#: the bound's rounding allowance per unit of n + |2*loglik(full)|; the largest
#: excess seen of a subset's 2*loglik over a superset's is 4e-14 (tied columns)
_SLACK = 1e-8

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


def enumerate_subset_fits(d: glm.Dataset, criteria=()):
    """MLE fit and 2*loglik of each predictor subset that ``criteria`` can select.

    Returns a list of ``(cols, two_ll, model_beta)`` in (size, lex) order;
    ``model_beta`` is the full-length model vector, zero outside the subset.
    The empty subset is a candidate (intercept-only with an intercept).  With
    ``criteria=()`` all 2^p subsets are fit.  Otherwise the full model and
    the p drop-one models T_j come first, and a smaller subset S of size k is
    fit only if, for some criterion c, ``min(two_ll(T_j) for j not in S) -
    mult_c * k + slack`` beats c's best score so far, ``slack`` being
    ``_SLACK * (n + |two_ll(full)|)`` (leaps and bounds, Furnival & Wilson
    1974): an MLE's log-likelihood never exceeds a superset's.

    The subsets of one size are fit in chunks of at most
    ``_STACK_FLOATS // k**2`` (Gaussian) or ``_STACK_FLOATS // (n * k)``
    (logistic, Poisson) members, k being the number of model coefficients,
    each fit with the bytes it has when all 2^p are fit.  A Gaussian chunk
    is one stacked solve on its blocks of X'X, with RSS = y'y - 2 c'b +
    b'G b, or per-subset ``np.linalg.lstsq`` (minimum-norm on singular
    blocks) when cond(X'X) >= ``_COND_MAX``; a logistic or Poisson chunk one
    batched Newton iteration (:func:`glm._newton_mle`).  Raises
    :class:`TooManyPredictors` when p exceeds ``MAX_P``.
    """
    p = d.p
    if p > MAX_P:
        raise TooManyPredictors(f"p = {p} exceeds the enumeration cap {MAX_P}")
    M, y, n = d.model_matrix, d.response, d.n
    offset = 1 if d.intercept else 0
    gaussian = d.family == "gaussian"
    if gaussian:
        G, c, yy = M.T @ M, M.T @ y, float(y @ y)
        eig = np.linalg.eigvalsh(G)
        gram_fits = _gram_fits if eig[0] > eig[-1] / _COND_MAX else _lstsq_fits

    def fit_subsets(size, subsets):
        k = size + offset
        if k == 0:  # the empty model without an intercept: nothing to fit
            beta = np.zeros(d.n_coef)
            return [((), _profile_two_ll(yy, n) if gaussian else 2.0 * glm.loglik(d, beta), beta)]
        index = np.array(subsets, dtype=int).reshape(len(subsets), size) + offset
        if d.intercept:
            index = np.insert(index, 0, 0, axis=1)
        if gaussian and len(index) == 1 and 0 < size < p - 1:
            # np.einsum sums a stack of one in another order than the all-2^p chunks
            index = np.repeat(index, 2, axis=0)
        chunk = max(1, _STACK_FLOATS // (k * (k if gaussian else n)))
        fits = []
        for lo in range(0, len(subsets), chunk):
            idx = index[lo:lo + chunk]
            if gaussian:
                sub, two_ll = gram_fits(G, c, yy, n, idx)
            else:
                sub, ll = glm._newton_mle(np.ascontiguousarray(M[:, idx].transpose(1, 0, 2)), d)
                two_ll = 2.0 * ll
            betas = np.zeros((len(idx), d.n_coef))
            np.put_along_axis(betas, idx, sub, axis=1)
            fits += zip(subsets[lo:lo + chunk], two_ll.tolist(), betas)
        return fits

    mult = np.array([criterion_multiplier(crit, n) for crit in criteria])
    best = np.full(len(mult), -np.inf)  # each criterion's best score so far
    by_size = {}
    for size in (p, p - 1, *range(p - 1)):  # the full and drop-one models first
        subsets = list(itertools.combinations(range(p), size))
        if size < p - 1 and criteria:
            cols = np.array(subsets, dtype=int).reshape(len(subsets), size)
            inside = np.zeros((len(subsets), p), dtype=bool)
            np.put_along_axis(inside, cols, True, axis=1)
            bound = np.where(inside, np.inf, drop_one).min(axis=1)[:, None] - size * mult
            subsets = list(itertools.compress(subsets, (bound + slack > best).any(axis=1)))
        fits = by_size[size] = fit_subsets(size, subsets) if subsets else []
        best = np.maximum(best, max((f[1] for f in fits), default=-np.inf) - size * mult)
        if size == p:
            slack = _SLACK * (n + abs(fits[0][1]))
        elif size == p - 1:  # lex order drops the last predictor first
            drop_one = np.array([two_ll for _, two_ll, _ in fits])[::-1]
    return [fit for size in range(p + 1) for fit in by_size[size]]


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
    """Best-subset fit under the given criterion; ``iterations`` is 2^p, the
    subsets the search covers, fit or bounded.

    Raises :class:`TooManyPredictors` when p exceeds ``MAX_P``.
    """
    if criterion not in CRITERIA:
        raise ValueError(f"criterion must be one of {CRITERIA}")
    fits = enumerate_subset_fits(d, (criterion,))
    (cols, two_ll, beta), score, lam_crit = select_from_enumeration(fits, criterion, d.n)
    return lla._result_from_model_vector(d, beta, lam_crit, "subset", (score,), 2 ** d.p)
