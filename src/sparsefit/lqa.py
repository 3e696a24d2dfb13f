"""Baseline estimators: local quadratic approximation and its perturbed form.

The LQA iteration replaces each penalty term by a quadratic through the
current iterate, giving ridge-type Newton systems.  Coordinates that fall
below a deletion cutoff eps0 are zeroed and removed for good (the backward
deletion drawback); the perturbed variant bounds the quadratic denominator
away from zero instead and extracts a support with a single hard-zero cutoff
at convergence.
"""

import math

import numpy as np

from . import glm, penalty
from .exceptions import NonConvergence, SingularSystem
from .lla import FitResult, _predictor_indices, _result_from_model_vector, penalized_objective
from .penalty import PenaltySpec

DEFAULT_TOL = 1e-8
# the quadratic surrogate contracts slowly for coordinates drifting to zero,
# so the outer budget is larger than the LLA default
DEFAULT_MAX_ITER = 1000

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


def _perturbed_objective(d, beta, p, tau0):
    pen = sum(
        perturbed_penalty_value(p, abs(beta[j]), tau0) for j in _predictor_indices(d)
    )
    return glm.loglik(d, beta) - d.n * pen


def _newton_argmax_quadratic(d, coef2, active, start, tol, max_inner=100):
    """Maximize loglik(beta) - sum_{j in active} coef2_j beta_j^2 on ``active``.

    Coordinates outside ``active`` are held at zero (the intercept slot is
    always active).  Damped Newton; raises SingularSystem when the ridge
    system cannot be solved.
    """
    beta = start.copy()
    idx = np.asarray(active, dtype=int)
    obj = glm.loglik(d, beta) - float(np.sum(coef2[idx] * beta[idx] ** 2))
    for _ in range(max_inner):
        g = glm.score(d, beta)[idx] - 2.0 * coef2[idx] * beta[idx]
        H = glm.neg_hessian(d, beta)[np.ix_(idx, idx)] + 2.0 * np.diag(coef2[idx])
        try:
            step = np.linalg.solve(H, g)
        except np.linalg.LinAlgError:
            raise SingularSystem("ridge Newton system is singular")
        if not np.all(np.isfinite(step)):
            raise SingularSystem("ridge Newton step is not finite")
        t = 1.0
        for _ in range(40):
            cand = beta.copy()
            cand[idx] = beta[idx] + t * step
            new = glm.loglik(d, cand) - float(np.sum(coef2[idx] * cand[idx] ** 2))
            if np.isfinite(new) and new >= obj - 1e-12:
                break
            t *= 0.5
        else:
            return beta
        moved = float(np.max(np.abs(t * step))) if step.size else 0.0
        beta, obj = cand, new
        if moved <= tol:
            return beta
    raise NonConvergence("inner ridge maximization did not converge")


def lqa_fit(d: glm.Dataset, p: PenaltySpec, b0=None, eps0: float | None = None,
            tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER) -> FitResult:
    """LQA estimator with the deletion rule.

    Any coordinate whose current magnitude drops below ``eps0`` is set to an
    exact zero and permanently removed from the iteration.  ``eps0``
    defaults to 1e-8 times the largest initial coefficient magnitude.
    """
    if b0 is None:
        b0 = glm.fit_mle(d)
    beta = np.asarray(b0, dtype=float).copy()
    pred = list(_predictor_indices(d))
    if eps0 is None:
        top = float(np.max(np.abs(beta[pred]))) if pred else 0.0
        eps0 = EPS0_SCALE * top if top > 0 else EPS0_SCALE
    if not eps0 > 0:
        raise ValueError("eps0 must be positive")
    alive = set(pred)
    trace = [penalized_objective(d, beta, p)]
    for it in range(1, max_iter + 1):
        deleted = False
        for j in sorted(alive):
            if abs(beta[j]) < eps0:
                beta[j] = 0.0
                alive.discard(j)
                deleted = True
        coef2 = np.zeros(d.n_coef)
        for j in alive:
            coef2[j] = d.n * penalty.lqa_coefficient(p, abs(beta[j]), 0.0)
        active = ([0] if d.intercept else []) + sorted(alive)
        if active:
            new = _newton_argmax_quadratic(d, coef2, active, beta, tol / 10.0)
        else:
            new = beta.copy()
        delta = float(np.max(np.abs(new - beta)))
        beta = new
        trace.append(penalized_objective(d, beta, p))
        if delta <= tol and not deleted:
            return _result_from_model_vector(d, beta, p.lam, "lqa", trace, it)
    partial = _result_from_model_vector(d, beta, p.lam, "lqa", trace, max_iter, converged=False)
    raise NonConvergence(f"LQA did not converge in {max_iter} iterations", result=partial)


def perturbed_lqa_fit(d: glm.Dataset, p: PenaltySpec, b0=None, tau0: float | None = None,
                      tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER) -> FitResult:
    """Perturbed LQA: denominators bounded away from zero, no deletion.

    The recorded objective trace is the perturbed objective (log-likelihood
    minus the perturbed penalty), which the iteration ascends.  Because the
    ridge iterate is never exactly zero, the support is extracted once at
    convergence with a hard-zero cutoff of 1e-6 times the largest
    coefficient magnitude.
    """
    if b0 is None:
        b0 = glm.fit_mle(d)
    beta = np.asarray(b0, dtype=float).copy()
    pred = list(_predictor_indices(d))
    if tau0 is None:
        top = float(np.max(np.abs(beta[pred]))) if pred else 0.0
        tau0 = TAU0_SCALE * top if top > 0 else TAU0_SCALE
    if not tau0 > 0:
        raise ValueError("tau0 must be positive")
    active = ([0] if d.intercept else []) + pred
    trace = [_perturbed_objective(d, beta, p, tau0)]
    for it in range(1, max_iter + 1):
        coef2 = np.zeros(d.n_coef)
        for j in pred:
            coef2[j] = d.n * penalty.lqa_coefficient(p, abs(beta[j]), tau0)
        new = _newton_argmax_quadratic(d, coef2, active, beta, tol / 10.0)
        delta = float(np.max(np.abs(new - beta)))
        beta = new
        trace.append(_perturbed_objective(d, beta, p, tau0))
        if delta <= tol:
            top = float(np.max(np.abs(beta[pred]))) if pred else 0.0
            cutoff = SUPPORT_CUTOFF_SCALE * top
            for j in pred:
                if abs(beta[j]) <= cutoff:
                    beta[j] = 0.0
            return _result_from_model_vector(d, beta, p.lam, "perturbed_lqa", trace, it)
    partial = _result_from_model_vector(
        d, beta, p.lam, "perturbed_lqa", trace, max_iter, converged=False
    )
    raise NonConvergence(
        f"perturbed LQA did not converge in {max_iter} iterations", result=partial
    )
