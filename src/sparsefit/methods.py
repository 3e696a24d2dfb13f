"""Method registry shared by the CLI and the simulations.

Names are the CLI's with ``-`` read as ``_``: :func:`fit` runs one estimator
at one lambda, :func:`select_lambda` tunes lambda with that method's fits,
and :func:`tune_and_fit` does both.
"""

from dataclasses import replace

from . import glm, lla, lqa, tuning

METHODS = ("one_step", "k_step", "full_lla", "lqa", "plqa")


def fit(method, d, pen, b0=None, k=1, eps0=None, tau0=None):
    """Fit ``method`` at ``pen.lam`` from ``b0`` (default: the MLE); ``k``,
    ``eps0`` and ``tau0`` reach k-step, LQA and perturbed LQA only."""
    if method == "one_step":
        return lla.one_step(d, pen, b0=b0)
    if method == "k_step":
        return lla.k_step(d, pen, b0=b0, k=k)
    if method == "full_lla":
        return lla.full_lla(d, pen, b0=b0)
    if method == "lqa":
        return lqa.lqa_fit(d, pen, b0=b0, eps0=eps0)
    if method == "plqa":
        return lqa.perturbed_lqa_fit(d, pen, b0=b0, tau0=tau0)
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


def select_lambda(method, d, proto, b0=None, n_lambda=tuning.DEFAULT_N_LAMBDA,
                  min_ratio=tuning.DEFAULT_MIN_RATIO, selector="cv",
                  folds=tuning.DEFAULT_FOLDS, seed=0, **opts):
    """Tune lambda for ``method`` by ``selector`` ("cv" or "bic") on the default
    grid below the one-step lambda_max; returns ``(lambda_star, curve)``.

    ``proto`` gives the penalty family and shape, ``b0`` the MLE of ``d``.
    The one-step method is fit along its path; the others once per grid
    point from one MLE of the training data (``b0`` itself when the
    selector fits all of ``d``), with ``opts`` (k, eps0, tau0) and a solver
    failure read as a None fit.
    """
    if b0 is None:
        b0 = glm.fit_mle(d)
    lam_max = lla.one_step_lambda_max(d, proto, b0=b0)
    grid = tuning.default_lambda_grid(lam_max, n_lambda, min_ratio)
    if method == "one_step":
        def fitter(train, g):
            return lla.one_step_path(train, proto, g, b0=b0 if train is d else None)
    else:
        def fitter(train, g):
            b_train = b0 if train is d else glm.fit_mle(train)
            out = []
            for lam in g:
                try:
                    out.append(fit(method, train, replace(proto, lam=float(lam)), b_train, **opts))
                except tuning.SOLVER_ERRORS:
                    out.append(None)
            return out

    if selector == "cv":
        return tuning.cv_select(d, fitter, grid, folds, seed)
    if selector == "bic":
        return tuning.bic_select(d, fitter, grid)
    raise ValueError(f"selector must be cv or bic, got {selector!r}")


def tune_and_fit(method, d, proto, b0=None, n_lambda=tuning.DEFAULT_N_LAMBDA,
                 min_ratio=tuning.DEFAULT_MIN_RATIO, selector="cv",
                 folds=tuning.DEFAULT_FOLDS, seed=0, **opts):
    """Tune lambda as :func:`select_lambda` does, then refit all of ``d`` at
    the chosen lambda from ``b0`` (default: the MLE of ``d``).

    When that refit raises a solver error, the other grid points with a
    finite score are refit in the selector's order
    (:func:`tuning.preferred_lambdas`); the first error is raised only when
    every refit fails.
    """
    if b0 is None:
        b0 = glm.fit_mle(d)
    _, curve = select_lambda(method, d, proto, b0, n_lambda, min_ratio, selector, folds, seed,
                             **opts)
    errors = []
    for lam in tuning.preferred_lambdas(curve):
        try:
            return fit(method, d, replace(proto, lam=lam), b0, **opts)
        except tuning.SOLVER_ERRORS as exc:
            errors.append(exc)
    raise errors[0]
