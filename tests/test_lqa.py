import types
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from sparsefit import glm, lqa, penalty
from sparsefit.exceptions import NonConvergence, SingularSystem, SparsefitError
from sparsefit.lla import _predictor_indices, _result_from_model_vector, penalized_objective
from sparsefit.penalty import PenaltySpec

from conftest import design_dataset, orthonormal_gaussian, random_dataset

SCAD2 = PenaltySpec("scad", 2.0, a=3.7)


class TestPerturbedPenaltyValue:
    @pytest.mark.parametrize(
        "spec",
        [
            SCAD2,
            PenaltySpec("l1", 2.0),
            PenaltySpec("log", 2.0),
            PenaltySpec("lq", 2.0, q=0.5),
        ],
    )
    @pytest.mark.parametrize("tau0", [1e-2, 0.5])
    def test_matches_quadrature_oracle(self, spec, tau0):
        for t in (0.3, 1.0, 2.0, 5.0, 9.0):
            ref, _ = quad(
                lambda s: penalty.derivative(spec, s) * s / (s + tau0), 0.0, t, limit=200
            )
            assert lqa.perturbed_penalty_value(spec, t, tau0) == pytest.approx(ref, abs=1e-8)

    def test_zero_at_origin(self):
        assert lqa.perturbed_penalty_value(SCAD2, 0.0, 1e-3) == 0.0

    def test_finite_for_log_penalty(self):
        val = lqa.perturbed_penalty_value(PenaltySpec("log", 2.0), 3.0, 1e-6)
        assert np.isfinite(val)


class TestLqaFit:
    def test_lambda_zero_is_mle(self):
        d = random_dataset(3, 40, 4)
        fit = lqa.lqa_fit(d, PenaltySpec("scad", 0.0))
        assert np.allclose(fit.coefficients, glm.fit_mle(d), atol=1e-7)
        assert fit.support == (0, 1, 2, 3)

    def test_orthonormal_l1_fixed_point(self):
        # the 1-D ridge fixed point solves b * (1 + lam / |b|) = z, i.e. b = z - lam
        z = np.array([3.0])
        d = orthonormal_gaussian(z, n=8)
        fit = lqa.lqa_fit(d, PenaltySpec("l1", 1.0), tol=1e-12)
        b = fit.coefficients[0]
        assert b * (1.0 + 1.0 / abs(b)) == pytest.approx(3.0, abs=1e-6)
        assert b == pytest.approx(2.0, abs=1e-6)

    def test_deleted_coordinate_never_returns(self):
        z = np.array([5.0, 1e-12, 2.5])
        d = orthonormal_gaussian(z)
        fit = lqa.lqa_fit(d, PenaltySpec("scad", 0.5), eps0=1e-6)
        assert fit.coefficients[1] == 0.0
        assert 1 not in fit.support

    def test_initial_below_eps0_excluded(self):
        z = np.array([5.0, 0.5, 2.5])
        d = orthonormal_gaussian(z)
        fit = lqa.lqa_fit(d, PenaltySpec("scad", 0.1), eps0=0.75)
        assert fit.coefficients[1] == 0.0

    def test_eps0_validation(self):
        d = random_dataset(0, 10, 2)
        with pytest.raises(ValueError):
            lqa.lqa_fit(d, SCAD2, eps0=0.0)


class TestPerturbedLqaFit:
    def test_lambda_zero_is_mle(self):
        d = random_dataset(3, 40, 4)
        fit = lqa.perturbed_lqa_fit(d, PenaltySpec("scad", 0.0))
        assert np.allclose(fit.coefficients, glm.fit_mle(d), atol=1e-7)

    def test_huge_tau0_recovers_mle(self):
        d = random_dataset(5, 40, 4)
        fit = lqa.perturbed_lqa_fit(d, PenaltySpec("l1", 1.0), tau0=1e12)
        assert np.allclose(fit.coefficients, glm.fit_mle(d), atol=1e-5)

    def test_one_dim_soft_threshold_limit(self):
        z = np.array([3.0])
        d = orthonormal_gaussian(z, n=8)
        fit = lqa.perturbed_lqa_fit(d, PenaltySpec("l1", 1.0), tau0=1e-6, tol=1e-12)
        assert fit.coefficients[0] == pytest.approx(2.0, abs=1e-5)

    @pytest.mark.parametrize("family", ["gaussian", "logistic"])
    @pytest.mark.parametrize("seed", range(4))
    def test_perturbed_objective_ascends(self, family, seed):
        d = random_dataset(50 + seed, 50, 5, family)
        fit = lqa.perturbed_lqa_fit(d, PenaltySpec("scad", 0.3))
        trace = np.asarray(fit.objective_trace)
        assert np.all(np.diff(trace) >= -1e-8)

    def test_support_from_hard_cutoff(self):
        d = random_dataset(9, 60, 5)
        fit = lqa.perturbed_lqa_fit(d, PenaltySpec("scad", 0.6))
        # every reported coefficient is exactly zero or clearly nonzero
        nz = fit.coefficients[fit.coefficients != 0.0]
        if nz.size:
            assert np.min(np.abs(nz)) > 1e-6 * np.max(np.abs(nz))
        assert fit.support == tuple(np.flatnonzero(fit.coefficients))

    def test_tau0_validation(self):
        d = random_dataset(0, 10, 2)
        with pytest.raises(ValueError):
            lqa.perturbed_lqa_fit(d, SCAD2, tau0=-1.0)


def test_lqa_and_plqa_agree_on_well_separated_instance():
    # strong signals far from zero, no deletion/cutoff crossings
    beta = np.array([4.0, -3.0, 3.5])
    d = random_dataset(21, 80, 3, beta=beta)
    pen = PenaltySpec("scad", 0.2)
    a = lqa.lqa_fit(d, pen, eps0=1e-12, tol=1e-10)
    b = lqa.perturbed_lqa_fit(d, pen, tau0=1e-12, tol=1e-10)
    assert np.max(np.abs(a.coefficients - b.coefficients)) <= 1e-4


def _loaded_after_cli_import(module):
    """Whether a fresh interpreter has ``module`` loaded after ``import sparsefit.cli``."""
    import os
    import subprocess
    import sys

    import sparsefit

    src = os.path.dirname(os.path.dirname(os.path.abspath(sparsefit.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, sparsefit.cli; print({module!r} in sys.modules)"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.strip()
    assert out in ("True", "False"), f"unexpected child output {proc.stdout!r}"
    return out == "True"


def test_cli_import_leaves_scipy_integrate_unloaded():
    assert not _loaded_after_cli_import("scipy.integrate")


def test_cli_import_leaves_scipy_special_unloaded():
    assert not _loaded_after_cli_import("scipy.special")


# ---------------------------------------------------------------------------
# Bit-identity oracle: the LQA outer loop with separate glm calls at each
# iterate and a separately computed objective trace.  For Gaussian data each
# step is the exact maximizer of the ridge surrogate, from X^T y = glm.score
# at zero and X^T X = glm.neg_hessian; for GLMs it is the ridge Newton
# iteration with separate glm.loglik, glm.score and glm.neg_hessian calls.
# The fits form the Gram matrix once and share one linear predictor per
# Newton iterate; the floats are the same, so every coefficient, trace
# entry, iteration count, support and exception must be equal.


def _oracle_solve(H, g):
    try:
        step = np.linalg.solve(H, g)
    except np.linalg.LinAlgError:
        raise SingularSystem("ridge Newton system is singular")
    if not np.all(np.isfinite(step)):
        raise SingularSystem("ridge Newton step is not finite")
    return step


def _oracle_newton(d, coef2, active, start, tol, max_inner=100):
    beta = start.copy()
    idx = np.asarray(active, dtype=int)
    obj = glm.loglik(d, beta) - float(np.sum(coef2[idx] * beta[idx] ** 2))
    for _ in range(max_inner):
        g = glm.score(d, beta)[idx] - 2.0 * coef2[idx] * beta[idx]
        H = glm.neg_hessian(d, beta)[np.ix_(idx, idx)] + 2.0 * np.diag(coef2[idx])
        step = _oracle_solve(H, g)
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


def _oracle_closed_form(d, coef2, active, start, tol):
    zero = np.zeros(d.n_coef)
    idx = np.asarray(active, dtype=int)
    H = glm.neg_hessian(d, zero)[np.ix_(idx, idx)] + 2.0 * np.diag(coef2[idx])
    beta = start.copy()
    beta[idx] = _oracle_solve(H, glm.score(d, zero)[idx])
    return beta


def _oracle_step(d, coef2, active, start, tol):
    step = _oracle_closed_form if d.family == "gaussian" else _oracle_newton
    return step(d, coef2, active, start, tol)


def _oracle_perturbed_objective(d, beta, p, tau0):
    pen = sum(
        lqa.perturbed_penalty_value(p, abs(beta[j]), tau0) for j in _predictor_indices(d)
    )
    return glm.loglik(d, beta) - d.n * pen


def _oracle_lqa_fit(d, p, b0, step=_oracle_step, tol=lqa.DEFAULT_TOL, max_iter=lqa.MAX_ITER):
    beta = np.asarray(b0, dtype=float).copy()
    pred = list(_predictor_indices(d))
    top = float(np.max(np.abs(beta[pred])))
    eps0 = lqa.EPS0_SCALE * top if top > 0 else lqa.EPS0_SCALE
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
            new = step(d, coef2, active, beta, tol / 10.0)
        else:
            new = beta.copy()
        delta = float(np.max(np.abs(new - beta)))
        beta = new
        trace.append(penalized_objective(d, beta, p))
        if delta <= tol and not deleted:
            return _result_from_model_vector(d, beta, p.lam, "lqa", trace, it)
    partial = _result_from_model_vector(d, beta, p.lam, "lqa", trace, max_iter, converged=False)
    raise NonConvergence(f"LQA did not converge in {max_iter} iterations", result=partial)


def _oracle_perturbed_lqa_fit(d, p, b0, step=_oracle_step, tol=lqa.DEFAULT_TOL,
                              max_iter=lqa.MAX_ITER):
    beta = np.asarray(b0, dtype=float).copy()
    pred = list(_predictor_indices(d))
    top = float(np.max(np.abs(beta[pred])))
    tau0 = lqa.TAU0_SCALE * top if top > 0 else lqa.TAU0_SCALE
    active = ([0] if d.intercept else []) + pred
    trace = [_oracle_perturbed_objective(d, beta, p, tau0)]
    for it in range(1, max_iter + 1):
        coef2 = np.zeros(d.n_coef)
        for j in pred:
            coef2[j] = d.n * penalty.lqa_coefficient(p, abs(beta[j]), tau0)
        new = step(d, coef2, active, beta, tol / 10.0)
        delta = float(np.max(np.abs(new - beta)))
        beta = new
        trace.append(_oracle_perturbed_objective(d, beta, p, tau0))
        if delta <= tol:
            top = float(np.max(np.abs(beta[pred])))
            cutoff = lqa.SUPPORT_CUTOFF_SCALE * top
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


def _fields(fit):
    return (fit.coefficients.tobytes(), fit.intercept, fit.support,
            np.asarray(fit.objective_trace, dtype=float).tobytes(), fit.iterations,
            fit.converged, fit.method)


def _run(fitter, d, p, b0, **kw):
    """The fit, or the package error it raised."""
    try:
        return fitter(d, p, b0, **kw)
    except SparsefitError as exc:
        return exc


def _outcome(res):
    if not isinstance(res, SparsefitError):
        return _fields(res)
    partial = getattr(res, "result", None)
    return type(res), str(res), None if partial is None else _fields(partial)


FAMILIES = ("gaussian", "logistic", "poisson")
# (family, lambda per unit of max |b0|): the log penalty, whose p'(t) = lambda / t is
# unbounded near zero, at a tenth of the others
ORACLE_PENALTIES = (("scad", 1.0), ("l1", 1.0), ("log", 0.1), ("lq", 1.0))


def _oracle_runs(d, step=_oracle_step):
    """(fit, oracle) results of LQA and P-LQA for every penalty at three levels;
    case 2k is LQA and 2k + 1 P-LQA at the k-th penalty."""
    b0 = glm.fit_mle(d)
    top = float(np.max(np.abs(b0)))
    runs = []
    for family, scale in ORACLE_PENALTIES:
        for level in (0.02, 0.1, 0.4):
            p = PenaltySpec(family, level * scale * top, q=0.5)
            runs.append((_run(lqa.lqa_fit, d, p, b0),
                         _run(_oracle_lqa_fit, d, p, b0, step=step)))
            runs.append((_run(lqa.perturbed_lqa_fit, d, p, b0),
                         _run(_oracle_perturbed_lqa_fit, d, p, b0, step=step)))
    return runs


def _oracle_outcomes(d):
    return [(_outcome(got), _outcome(want)) for got, want in _oracle_runs(d)]


@pytest.mark.filterwarnings("ignore::sparsefit.exceptions.RidgeFallbackWarning")
@pytest.mark.parametrize("design", ["plain", "intercept", "duplicated"])
@pytest.mark.parametrize("family", FAMILIES)
def test_fits_bit_identical_to_per_iterate_glm_calls(monkeypatch, family, design):
    # the logistic and Poisson oracle runs reach the Newton kernel both with the
    # whole model vector (P-LQA, LQA before a deletion) and with a gathered block
    whole, newton = [], lqa._newton_argmax_quadratic

    def counting(d, c2, idx, start, ll, tol):
        whole.append(idx.size == start.size)
        return newton(d, c2, idx, start, ll, tol)

    monkeypatch.setattr(lqa, "_newton_argmax_quadratic", counting)
    pairs = _oracle_outcomes(design_dataset(family, design))
    assert len(pairs) == 24
    for i, (got, want) in enumerate(pairs):
        assert got == want, i
    if family != "gaussian":
        assert True in whole and False in whole


def _agrees_with_newton(got, want):
    """Same support, iterations, convergence and exception type; coefficients
    within 1e-10 relative to 1 + max |beta|."""
    if isinstance(got, SparsefitError) or isinstance(want, SparsefitError):
        if type(got) is not type(want):
            return False
        got, want = getattr(got, "result", None), getattr(want, "result", None)
        if got is None or want is None:
            return got is want
    if (got.support, got.iterations, got.converged) != (want.support, want.iterations,
                                                         want.converged):
        return False
    got_b, want_b = (np.append(f.coefficients, f.intercept or 0.0) for f in (got, want))
    return float(np.max(np.abs(got_b - want_b))) <= 1e-10 * (1.0 + float(np.max(np.abs(want_b))))


@pytest.mark.parametrize("design", ["plain", "intercept"])
def test_gaussian_closed_form_agrees_with_the_ridge_newton_oracle(design):
    runs = _oracle_runs(design_dataset("gaussian", design), step=_oracle_newton)
    assert len(runs) == 24
    for i, (got, want) in enumerate(runs):
        assert _agrees_with_newton(got, want), i


# (converged, support, iterations) of the closed form on the duplicated Gaussian design
PINNED_DUPLICATED = {0: (True, (0, 1, 2, 3, 4), 2), 1: (True, (0, 1, 2, 3, 4), 2),
                     2: (True, (0, 1, 2, 4), 28), 3: (True, (0, 1, 2, 4), 28)}


@pytest.mark.filterwarnings("ignore::sparsefit.exceptions.RidgeFallbackWarning")
def test_duplicated_gaussian_design_converges_where_ridge_newton_did_not():
    # SCAD at 0.02 and 0.1 x max|b0| (cases 0-3: LQA, P-LQA, LQA, P-LQA): the inner
    # Newton loop ran out of iterations on the near-singular ridge system, while
    # its exact maximizer is one solve
    runs = _oracle_runs(design_dataset("gaussian", "duplicated"), step=_oracle_newton)
    for i, (got, want) in enumerate(runs):
        if i < 4:
            assert isinstance(want, NonConvergence), i
            assert str(want) == "inner ridge maximization did not converge"
            assert (got.converged, got.support, got.iterations) == PINNED_DUPLICATED[i], i
        else:
            assert _agrees_with_newton(got, want), i


def test_oracle_catches_a_gram_summed_in_another_order(monkeypatch):
    # X^T X summed by einsum instead of the BLAS product of glm.neg_hessian
    # agrees to rounding only; the oracle must tell the two apart
    lqa_glm = types.SimpleNamespace(**vars(glm))
    lqa_glm.neg_hessian = lambda d, beta: np.einsum("ij,ik->jk", d.model_matrix, d.model_matrix)
    monkeypatch.setattr(lqa, "glm", lqa_glm)
    pairs = _oracle_outcomes(design_dataset("gaussian", "intercept"))
    assert any(got != want for got, want in pairs)


@pytest.mark.parametrize("design", ["plain", "intercept"])
@pytest.mark.parametrize("perturbed", [False, True])
def test_gaussian_steps_zero_the_active_ridge_gradient(monkeypatch, design, perturbed):
    # every outer step maximizes the ridge surrogate expanded at the previous iterate:
    # (X^T (y - X beta))_A - 2 c2 beta_A = 0 on the active block A, and beta is 0 off it
    d = design_dataset("gaussian", design)
    b0 = glm.fit_mle(d)
    pred = list(_predictor_indices(d))
    top = float(np.max(np.abs(b0[pred])))
    p = PenaltySpec("scad", 0.3 * top)  # LQA deletes three predictors on the way
    tau0, eps0 = (lqa.TAU0_SCALE * top, 0.0) if perturbed else (0.0, lqa.EPS0_SCALE * top)
    iterates, loglik = [], glm.loglik

    def recording_loglik(d_, beta):
        iterates.append(beta.copy())
        return loglik(d_, beta)

    monkeypatch.setattr(glm, "loglik", recording_loglik)
    if perturbed:
        fit = lqa.perturbed_lqa_fit(d, p, b0, tau0=tau0)
    else:
        fit = lqa.lqa_fit(d, p, b0, eps0=eps0)
    M, y = d.model_matrix, d.response
    point, steps = iterates[0], 0
    for cur in iterates[1:]:
        dead = [j for j in pred if 0.0 < abs(point[j]) < eps0]
        if dead:  # the log-likelihood of the deletion, not a step
            assert np.array_equal(np.where(np.isin(range(d.n_coef), dead), 0.0, point), cur)
            point = cur
            continue
        alive = pred if perturbed else [j for j in pred if point[j] != 0.0]
        A = [0] * d.intercept + alive
        c2 = np.array([0.0] * d.intercept
                      + [d.n * penalty.lqa_coefficient(p, abs(point[j]), tau0) for j in alive])
        fitted, ridge = (M.T @ (M @ cur))[A], 2.0 * c2 * cur[A]
        grad = (M.T @ y)[A] - fitted - ridge
        scale = 1.0 + float(np.max(np.abs(M.T @ y)) + np.max(np.abs(fitted)) + np.max(np.abs(ridge)))
        assert float(np.max(np.abs(grad))) <= 1e-9 * scale, steps
        assert not np.delete(cur, A).any()
        point, steps = cur, steps + 1
    assert steps == fit.iterations > 1


@pytest.mark.parametrize("fitter", [lqa.lqa_fit, lqa.perturbed_lqa_fit])
def test_exactly_singular_gaussian_ridge_system_raises(fitter):
    # two equal columns and lambda = 0, so no ridge: X^T X is exactly singular
    d = random_dataset(7, 30, 3)
    X = d.design.copy()
    X[:, 2] = X[:, 0]
    d = glm.Dataset(X, d.response, "gaussian")
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        with pytest.raises(SingularSystem, match="^ridge Newton system is singular$"):
            fitter(d, PenaltySpec("scad", 0.0), np.array([1.0, 0.5, 1.0]))
    assert not [w for w in record if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("design", ["plain", "intercept"])
def test_gaussian_fits_never_call_the_scalar_lqa_coefficient(monkeypatch, design):
    # the ridge coefficients of a step come from one list pass; the oracle above
    # still computes them by the scalar form
    d = design_dataset("gaussian", design)
    b0 = glm.fit_mle(d)
    p = PenaltySpec("scad", 0.3 * float(np.max(np.abs(b0))))

    def scalar(*args):
        raise AssertionError("scalar lqa_coefficient called")

    monkeypatch.setattr(penalty, "lqa_coefficient", scalar)
    assert lqa.lqa_fit(d, p, b0, trace=False).iterations > 1
    assert lqa.perturbed_lqa_fit(d, p, b0).iterations > 1


@pytest.mark.parametrize("fitter", [lqa.lqa_fit, lqa.perturbed_lqa_fit])
def test_overflowing_gaussian_ridge_step_raises_before_it_is_read(monkeypatch, fitter):
    # a finite Gram matrix and score, but lambda = 0 and nearly collinear columns:
    # the ridge system's solution overflows
    d = glm.Dataset(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-4]]), np.array([1e306, -1e306]),
                    "gaussian")
    read, loglik = [], glm.loglik
    monkeypatch.setattr(glm, "loglik", lambda d_, beta: read.append(beta.copy()) or loglik(d_, beta))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the start's log-likelihood overflows
        with pytest.raises(SingularSystem, match="^ridge Newton step is not finite$"):
            fitter(d, PenaltySpec("scad", 0.0), np.array([1.0, 1.0]))
    assert len(read) == 1  # the start's: the traced log-likelihood never read the step
