"""Baseline estimators: local quadratic approximation and its perturbed form.

The LQA iteration replaces each penalty term by a quadratic through the
current iterate, giving ridge-type systems.  Coordinates that fall
below a deletion cutoff eps0 are zeroed and removed for good (the backward
deletion drawback); the perturbed variant bounds the quadratic denominator
away from zero instead and extracts a support with a single hard-zero cutoff
at convergence.  One driver runs both: plain LQA has tau0 = 0 and the
deletion cutoff eps0, the perturbed form tau0 > 0 and a cutoff of 0, which
never deletes.

For Gaussian data the ridge surrogate is exactly quadratic, so each outer
step is one linear solve on the active block of X^T X and X^T y, both formed
once per fit; the block's ridge system is rebuilt only when a deletion
shrinks it.  For logistic and Poisson data each outer step maximizes the
surrogate by damped Newton; the kernel shares one linear predictor per
iterate between the score, the Hessian and the line-search log-likelihood,
and its floats are those of separate ``glm`` calls at each iterate.  Each
step's ridge coefficients come from one list pass.  The objective traces
sum the penalty over Python floats; they are built only when asked for
(``trace=True``), since tuning reads only the coefficients.
"""

import contextlib
import math

import numpy as np

from . import glm, penalty
from .exceptions import DataError, NonConvergence, SingularSystem
from .lla import FitResult, _lapack_solve, _predictor_indices, _result_from_model_vector
from .penalty import PenaltySpec

DEFAULT_TOL = 1e-8
# the quadratic surrogate contracts slowly for coordinates drifting to zero,
# so the outer budget is larger than the LLA one; the inner budget is not
MAX_ITER = 1000
MAX_INNER = 100

#: defaults relative to the largest initial coefficient magnitude
EPS0_SCALE = 1e-8
TAU0_SCALE = 1e-6

#: hard-zero cutoff for the perturbed variant, relative to the largest
#: converged coefficient magnitude
SUPPORT_CUTOFF_SCALE = 1e-6


def perturbed_penalty_value(p: PenaltySpec, t: float, tau0: float) -> float:
    """The perturbed penalty integral \\int_0^t p'_lam(s) s / (s + tau0) ds.

    This is the objective the perturbed-LQA iteration actually ascends; it
    stays finite for every family (including the logarithm penalty, whose
    raw value diverges at zero).  Closed forms are used where they exist,
    numeric quadrature for the bridge family.
    """
    if t < 0.0 or tau0 <= 0.0:
        raise ValueError("t must be nonnegative and tau0 positive")
    if t == 0.0 or p.lam == 0.0:
        return 0.0
    lam, tau = p.lam, tau0
    if p.family == "l1":
        return lam * (t - tau * math.log((t + tau) / tau))
    if p.family == "log":
        return lam * math.log((t + tau) / tau)
    if p.family == "lq":
        from scipy.integrate import quad  # deferred: a third of the package import time

        val, _ = quad(lambda s: lam * p.q * s ** p.q / (s + tau), 0.0, t)
        return val
    a = p.a
    x1 = min(t, lam)
    out = lam * (x1 - tau * math.log((x1 + tau) / tau))
    if t > lam:
        x2 = min(t, a * lam)
        out += (
            -(x2 * x2 - lam * lam) / 2.0
            + (a * lam + tau) * ((x2 - lam) - tau * math.log((x2 + tau) / (lam + tau)))
        ) / (a - 1.0)
    return out


def _newton_argmax_quadratic(d, c2, idx, start, ll, tol):
    """Maximize loglik(beta) - sum_i c2_i beta_{idx_i}^2 over the slots ``idx``.

    Serves the logistic and Poisson families; the Gaussian surrogate is
    maximized in closed form by :func:`_ridge_lqa`.  Coordinates outside
    ``idx`` are held at their values in ``start`` (the intercept slot is
    always in ``idx``); ``ll`` is loglik(start).  Damped Newton; raises
    SingularSystem when the ridge system cannot be solved.  Returns
    ``(beta, loglik(beta))``.

    Each iterate has one linear predictor eta = M @ beta: the start's is
    computed once, every later one comes from the line search that accepted
    it, and the score, the Hessian and the next line search all read it.
    Products are taken on the full model matrix and then gathered, never on
    a gathered copy, since a matrix of another shape may be summed in
    another order; so every float equals what separate ``glm.loglik``,
    ``score`` and ``neg_hessian`` calls at each iterate would give.
    """
    M, y, family = d.model_matrix, d.response, d.family
    beta = start
    eta = M @ beta
    c2x2 = 2.0 * c2
    ridge = 2.0 * np.diag(c2)
    b_act = beta[idx]
    obj = ll - float((c2 * b_act ** 2).sum())
    for _ in range(MAX_INNER):
        mu = glm._mean(family, eta)
        g = (M.T @ (y - mu))[idx] - c2x2 * b_act
        H = (M.T @ (glm._curvature(family, mu)[:, None] * M))[np.ix_(idx, idx)] + ridge
        with np.errstate(invalid="ignore"):  # for _lapack_solve; the rest keeps its warnings
            step = _finite(_solve_ridge(H, g))
        t = 1.0
        for _ in range(40):
            cand = beta.copy()
            cand_act = b_act + t * step
            cand[idx] = cand_act
            eta_new = M @ cand
            ll_new = float(glm._eta_loglik(d, eta_new))
            new = ll_new - float((c2 * cand_act ** 2).sum())
            if math.isfinite(new) and new >= obj - 1e-12:
                break
            t *= 0.5
        else:
            return beta, ll
        moved = float(abs(t * step).max()) if step.size else 0.0
        beta, b_act, eta, ll, obj = cand, cand_act, eta_new, ll_new, new
        if moved <= tol:
            return beta, ll
    raise NonConvergence("inner ridge maximization did not converge")


def _solve_ridge(H, g):
    """H^{-1} g for a ridge system, under the caller's errstate (:func:`_lapack_solve`);
    raises SingularSystem when H is singular.  :func:`_finite` checks the result."""
    try:
        return _lapack_solve(H, g)
    except np.linalg.LinAlgError:
        raise SingularSystem("ridge Newton system is singular")


def _finite(x):
    """``x``, or SingularSystem when a ridge step is not finite."""
    if not np.isfinite(x).all():
        raise SingularSystem("ridge Newton step is not finite")
    return x


def _start(d, b0):
    """Starting model vector (default: the MLE) and its largest predictor magnitude."""
    if b0 is None:
        b0 = glm.fit_mle(d)
    beta = np.asarray(b0, dtype=float).copy()
    return beta, float(np.max(np.abs(beta[list(_predictor_indices(d))])))


def _ridge_lqa(d, p, beta, tau0, eps0, pen_value, method, tol):
    """The LQA iteration from ``beta``, ridge coefficients perturbed by ``tau0``.

    A coordinate whose magnitude drops below ``eps0`` is zeroed and removed
    for good (``eps0 = 0`` never deletes, and the active block is then the
    whole model vector).  The trace is loglik - n * sum_j pen_value(|b_j|);
    with ``pen_value`` None it is empty, and a Gaussian fit then evaluates no
    log-likelihood (the Newton line search still needs one).  Returns
    ``(beta, trace, iterations)`` at convergence; otherwise raises
    NonConvergence carrying the partial fit, labelled ``method``.
    """
    gram = None
    if d.family == "gaussian":  # an exactly quadratic surrogate: one solve per step
        zero = np.zeros(d.n_coef)
        with np.errstate(over="ignore", invalid="ignore"):  # checked just below
            gram, mty = glm.neg_hessian(d, zero), glm.score(d, zero)
        if not (np.isfinite(gram).all() and np.isfinite(mty).all()):
            raise DataError("the LQA Gram matrix overflows: the data's scale is out of range")
    n, first = d.n, int(d.intercept)
    lead = [0.0] * first  # the unpenalized intercept's ridge coefficient

    def objective(ll, vals):
        return ll - n * sum(pen_value(abs(b)) for b in vals[first:])

    traced = pen_value is not None
    need_ll = traced or gram is None
    alive = list(_predictor_indices(d))
    ll = glm.loglik(d, beta) if need_ll else None
    vals = beta.tolist()
    trace = [objective(ll, vals)] if traced else []
    idx = None
    # one errstate per Gaussian fit for its solves; a Newton step scopes its own
    with np.errstate(invalid="ignore") if gram is not None else contextlib.nullcontext():
        for it in range(1, MAX_ITER + 1):
            dead = [j for j in alive if abs(vals[j]) < eps0] if eps0 else ()
            if dead:
                beta[dead] = 0.0
                if need_ll:
                    ll = glm.loglik(d, beta)
                alive = [j for j in alive if j not in dead]
            if dead or idx is None:
                idx = np.asarray([0] * first + alive, dtype=int)
                full = idx.size == beta.size  # P-LQA, and LQA until a deletion
                if gram is not None:  # the active block's ridge system, written in place
                    block, rhs = (gram, mty) if full else (gram[np.ix_(idx, idx)], mty[idx])
                    ridge, system = np.zeros_like(block), np.empty_like(block)
                    diag = ridge.reshape(-1)[::idx.size + 1]
            c2 = lead + penalty.lqa_coefficients(p, [abs(vals[j]) for j in alive], tau0, n)
            if not idx.size:
                new = beta.copy()
            elif gram is None:
                new, ll = _newton_argmax_quadratic(d, np.array(c2), idx, beta, ll, tol / 10.0)
            else:
                np.multiply(c2, 2.0, out=diag)
                x = _solve_ridge(np.add(block, ridge, out=system), rhs)
                if full:
                    new = x
                else:
                    new = beta.copy()
                    new[idx] = x
            delta = np.maximum.reduce(abs(new - beta))
            if gram is not None and not math.isfinite(delta):  # a non-finite step makes it so
                _finite(new)
            if traced and gram is not None and idx.size:
                ll = glm.loglik(d, new)
            beta = new
            vals = beta.tolist()
            if traced:
                trace.append(objective(ll, vals))
            if delta <= tol and not dead:
                return beta, trace, it
    partial = _result_from_model_vector(d, beta, p.lam, method, trace, MAX_ITER, converged=False)
    label = method.replace("_", " ").replace("lqa", "LQA")
    raise NonConvergence(f"{label} did not converge in {MAX_ITER} iterations", result=partial)


def lqa_fit(d: glm.Dataset, p: PenaltySpec, b0=None, eps0: float | None = None,
            tol: float = DEFAULT_TOL, trace: bool = True) -> FitResult:
    """LQA estimator with the deletion rule.

    Any coordinate whose current magnitude drops below ``eps0`` is set to an
    exact zero and permanently removed from the iteration.  ``eps0``
    defaults to 1e-8 times the largest initial coefficient magnitude.  With
    ``trace=False`` the objective trace is empty and nothing else changes.
    """
    beta, top = _start(d, b0)
    if eps0 is None:
        eps0 = EPS0_SCALE * top if top > 0 else EPS0_SCALE
    if not eps0 > 0:
        raise ValueError("eps0 must be positive")
    pen_value = (lambda t: penalty.value(p, t)) if trace else None
    beta, objs, it = _ridge_lqa(d, p, beta, 0.0, eps0, pen_value, "lqa", tol)
    return _result_from_model_vector(d, beta, p.lam, "lqa", objs, it)


def perturbed_lqa_fit(d: glm.Dataset, p: PenaltySpec, b0=None, tau0: float | None = None,
                      tol: float = DEFAULT_TOL, trace: bool = True) -> FitResult:
    """Perturbed LQA: denominators bounded away from zero, no deletion.

    The recorded objective trace (empty with ``trace=False``) is the
    perturbed objective (log-likelihood minus the perturbed penalty), which
    the iteration ascends.  Because the ridge iterate is never exactly zero,
    the support is extracted once at convergence with a hard-zero cutoff of
    1e-6 times the largest coefficient magnitude.
    """
    beta, top = _start(d, b0)
    if tau0 is None:
        tau0 = TAU0_SCALE * top if top > 0 else TAU0_SCALE
    if not tau0 > 0:
        raise ValueError("tau0 must be positive")
    pen_value = (lambda t: perturbed_penalty_value(p, t, tau0)) if trace else None
    beta, objs, it = _ridge_lqa(d, p, beta, tau0, 0.0, pen_value, "perturbed_lqa", tol)
    coef = beta[int(d.intercept):]  # a view: the cutoff zeroes predictors in place
    coef[np.abs(coef) <= SUPPORT_CUTOFF_SCALE * np.max(np.abs(coef))] = 0.0
    return _result_from_model_vector(d, beta, p.lam, "perturbed_lqa", objs, it)
