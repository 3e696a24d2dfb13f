"""Baseline estimators: local quadratic approximation and its perturbed form.

The LQA iteration replaces each penalty term by a quadratic through the
current iterate, giving ridge-type Newton systems.  Coordinates that fall
below a deletion cutoff eps0 are zeroed and removed for good (the backward
deletion drawback); the perturbed variant bounds the quadratic denominator
away from zero instead and extracts a support with a single hard-zero cutoff
at convergence.  One driver runs both: plain LQA has tau0 = 0 and the
deletion cutoff eps0, the perturbed form tau0 > 0 and a cutoff of 0, which
never deletes.

The ridge Newton kernel shares one linear predictor per iterate between
the score, the Hessian and the line-search log-likelihood; the Gaussian
Hessian, which does not depend on the iterate, is formed once per fit.  The
objective traces reuse the line search's log-likelihood and sum the penalty
over Python floats.  The floats are those of separate ``glm`` calls at each
iterate, so fits and traces are bit-identical to that plain form.
"""

import math

import numpy as np

from . import glm, penalty
from .exceptions import NonConvergence, SingularSystem
from .lla import FitResult, _predictor_indices, _result_from_model_vector
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


def _newton_argmax_quadratic(d, c2, idx, start, ll, tol, block=None):
    """Maximize loglik(beta) - sum_i c2_i beta_{idx_i}^2 over the slots ``idx``.

    Coordinates outside ``idx`` are held at their values in ``start`` (the
    intercept slot is always in ``idx``); ``ll`` is loglik(start).  Damped
    Newton; raises SingularSystem when the ridge system cannot be solved.
    Returns ``(beta, loglik(beta))``.

    Each iterate has one linear predictor eta = M @ beta: the start's is
    computed once, every later one comes from the line search that accepted
    it, and the score, the Hessian and the next line search all read it.
    ``block`` is the active block of a negative Hessian that does not depend
    on beta (the Gaussian X^T X of :func:`glm.neg_hessian`, formed once per
    fit); without it the block is gathered from X^T D X at each iterate.
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
    H = None if block is None else block + ridge
    b_act = beta[idx]
    obj = ll - float((c2 * b_act ** 2).sum())
    for _ in range(MAX_INNER):
        g = (M.T @ (y - glm.mean_response(d, eta)))[idx] - c2x2 * b_act
        if block is None:
            H = (M.T @ (glm._curvature(family, eta)[:, None] * M))[np.ix_(idx, idx)] + ridge
        try:
            step = np.linalg.solve(H, g)
        except np.linalg.LinAlgError:
            raise SingularSystem("ridge Newton system is singular")
        if not np.isfinite(step).all():
            raise SingularSystem("ridge Newton step is not finite")
        t = 1.0
        for _ in range(40):
            cand = beta.copy()
            cand_act = b_act + t * step
            cand[idx] = cand_act
            eta_new = M @ cand
            ll_new = float(glm._eta_loglik(family, y, eta_new))
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


def _gaussian_hessian(d, beta):
    """X^T X once per fit for Gaussian data (its curvature is all ones), else None."""
    return glm.neg_hessian(d, beta) if d.family == "gaussian" else None


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
    whole model vector).  The trace is loglik - n * sum_j pen_value(|b_j|).
    Returns ``(beta, trace, iterations)`` at convergence; otherwise raises
    NonConvergence carrying the partial fit, labelled ``method``.
    """
    hess = _gaussian_hessian(d, beta)
    n, first = d.n, int(d.intercept)
    lead = [0.0] * first  # the unpenalized intercept's ridge coefficient

    def objective(ll, vals):
        return ll - n * sum(pen_value(abs(b)) for b in vals[first:])

    alive = list(_predictor_indices(d))
    ll = glm.loglik(d, beta)
    vals = beta.tolist()
    trace = [objective(ll, vals)]
    idx = block = None
    for it in range(1, MAX_ITER + 1):
        dead = [j for j in alive if abs(vals[j]) < eps0]
        if dead:
            beta[dead] = 0.0
            ll = glm.loglik(d, beta)
            alive = [j for j in alive if j not in dead]
        if dead or idx is None:
            idx = np.asarray([0] * first + alive, dtype=int)
            block = None if hess is None else hess[np.ix_(idx, idx)]
        c2 = np.array(lead + [n * penalty.lqa_coefficient(p, abs(vals[j]), tau0) for j in alive])
        if idx.size:
            new, ll = _newton_argmax_quadratic(d, c2, idx, beta, ll, tol / 10.0, block)
        else:
            new = beta.copy()
        delta = float(abs(new - beta).max())
        beta = new
        vals = beta.tolist()
        trace.append(objective(ll, vals))
        if delta <= tol and not dead:
            return beta, trace, it
    partial = _result_from_model_vector(d, beta, p.lam, method, trace, MAX_ITER, converged=False)
    label = method.replace("_", " ").replace("lqa", "LQA")
    raise NonConvergence(f"{label} did not converge in {MAX_ITER} iterations", result=partial)


def lqa_fit(d: glm.Dataset, p: PenaltySpec, b0=None, eps0: float | None = None,
            tol: float = DEFAULT_TOL) -> FitResult:
    """LQA estimator with the deletion rule.

    Any coordinate whose current magnitude drops below ``eps0`` is set to an
    exact zero and permanently removed from the iteration.  ``eps0``
    defaults to 1e-8 times the largest initial coefficient magnitude.
    """
    beta, top = _start(d, b0)
    if eps0 is None:
        eps0 = EPS0_SCALE * top if top > 0 else EPS0_SCALE
    if not eps0 > 0:
        raise ValueError("eps0 must be positive")
    beta, trace, it = _ridge_lqa(d, p, beta, 0.0, eps0, lambda t: penalty.value(p, t), "lqa", tol)
    return _result_from_model_vector(d, beta, p.lam, "lqa", trace, it)


def perturbed_lqa_fit(d: glm.Dataset, p: PenaltySpec, b0=None, tau0: float | None = None,
                      tol: float = DEFAULT_TOL) -> FitResult:
    """Perturbed LQA: denominators bounded away from zero, no deletion.

    The recorded objective trace is the perturbed objective (log-likelihood
    minus the perturbed penalty), which the iteration ascends.  Because the
    ridge iterate is never exactly zero, the support is extracted once at
    convergence with a hard-zero cutoff of 1e-6 times the largest
    coefficient magnitude.
    """
    beta, top = _start(d, b0)
    if tau0 is None:
        tau0 = TAU0_SCALE * top if top > 0 else TAU0_SCALE
    if not tau0 > 0:
        raise ValueError("tau0 must be positive")
    beta, trace, it = _ridge_lqa(d, p, beta, tau0, 0.0,
                                 lambda t: perturbed_penalty_value(p, t, tau0),
                                 "perturbed_lqa", tol)
    coef = beta[int(d.intercept):]  # a view: the cutoff zeroes predictors in place
    coef[np.abs(coef) <= SUPPORT_CUTOFF_SCALE * np.max(np.abs(coef))] = 0.0
    return _result_from_model_vector(d, beta, p.lam, "perturbed_lqa", trace, it)
