import numpy as np
import pytest

from sparsefit import glm, lla, lqa, methods, penalty, tuning
from sparsefit.exceptions import DataError, FamilyMismatch, NonConvergence, SparsefitError
from sparsefit.lla import FitResult
from sparsefit.penalty import PenaltySpec

from conftest import design_dataset, random_dataset

SCAD = PenaltySpec("scad", 0.2)


@pytest.mark.parametrize("name, label", [
    ("one_step", "one_step"), ("k_step", "k_step(2)"), ("full_lla", "full_lla"),
    ("lqa", "lqa"), ("plqa", "perturbed_lqa"),
])
def test_fit_dispatches_every_method(name, label):
    d = random_dataset(3, 40, 4)
    fit = methods.fit(name, d, SCAD, k=2)
    assert fit.method == label
    assert fit.lam == SCAD.lam


def test_fit_matches_direct_call():
    d = random_dataset(4, 40, 4, "logistic")
    b0 = glm.fit_mle(d)
    got = methods.fit("k_step", d, SCAD, b0=b0, k=3)
    want = lla.k_step(d, SCAD, b0=b0, k=3)
    assert np.array_equal(got.coefficients, want.coefficients)


def test_unknown_names_rejected():
    d = random_dataset(5, 20, 2)
    with pytest.raises(ValueError):
        methods.fit("subset", d, SCAD)
    with pytest.raises(ValueError):
        methods.select_lambda("one_step", d, SCAD, selector="aic")


def test_one_step_tunes_on_the_path():
    d = random_dataset(6, 40, 4)
    b0 = glm.fit_mle(d)
    lam, curve = methods.select_lambda("one_step", d, SCAD, b0, n_lambda=20, seed=1)
    grid = tuning.default_lambda_grid(lla.one_step_lambda_max(d, SCAD, b0=b0), 20)

    def fitter(train, g):
        return lla.one_step_path(train, SCAD, g)

    assert (lam, curve) == tuning.cv_select(d, fitter, grid, tuning.DEFAULT_FOLDS, 1)


def test_grid_fits_share_one_mle_and_score_failures(monkeypatch):
    d = random_dataset(7, 40, 3)
    starts = []

    def flaky(train, p, b0=None, eps0=None, trace=True):
        assert trace is False  # tuning fits are read for their coefficients only
        starts.append(id(b0))
        if p.lam < 0.1:
            raise FamilyMismatch("stub failure")
        return FitResult(np.zeros(train.p), (), p.lam, "lqa", (), 1)

    monkeypatch.setattr(lqa, "lqa_fit", flaky)
    _, curve = methods.select_lambda("lqa", d, SCAD, n_lambda=10, selector="bic")
    failed = [lam < 0.1 for lam, _ in curve]
    assert len(set(starts)) == 1
    assert 0 < sum(failed) < len(curve)
    assert [np.isinf(score) for _, score in curve] == failed


@pytest.mark.parametrize("selector", ["cv", "bic"])
def test_no_finite_score_is_a_data_error(monkeypatch, selector):
    def failing(*a, **k):
        raise FamilyMismatch("stub failure")

    monkeypatch.setattr(lqa, "lqa_fit", failing)
    with pytest.raises(DataError, match=f"no lambda on the grid has a finite {selector} score"):
        methods.select_lambda("lqa", random_dataset(7, 40, 3), SCAD, n_lambda=5,
                              selector=selector)


def test_programming_errors_propagate(monkeypatch):
    d = random_dataset(8, 40, 3)

    def broken(*a, **k):
        raise TypeError("bug in an estimator")

    monkeypatch.setattr(lqa, "perturbed_lqa_fit", broken)
    with pytest.raises(TypeError):
        methods.select_lambda("plqa", d, SCAD, n_lambda=5)


# --- trace=False: the same fit, without its objective trace --------------------------

TRACED_METHODS = (("lqa", {}), ("plqa", {}))


def _fit_bytes(fit):
    """Everything of a fit but its trace, as bytes where floats are involved."""
    return (fit.coefficients.tobytes(), fit.intercept, fit.support, fit.lam, fit.method,
            fit.iterations, fit.converged)


def _traced_and_untraced(d, name, pen, b0, opts):
    """(outcome, objective trace) with the trace on and off; an outcome is the fit's
    bytes or the raised error's type, message and partial fit."""
    out = []
    for trace in (True, False):
        try:
            fit = methods.fit(name, d, pen, b0, trace=trace, **opts)
            out.append((_fit_bytes(fit), fit.objective_trace))
        except SparsefitError as exc:
            partial = getattr(exc, "result", None)
            if not isinstance(partial, FitResult):
                out.append(((type(exc), str(exc), None), None))
                continue
            out.append(((type(exc), str(exc), _fit_bytes(partial)), partial.objective_trace))
    return out


def _assert_trace_is_all_that_differs(d, cases):
    b0 = glm.fit_mle(d)
    top = float(np.max(np.abs(b0)))
    outcomes = []
    for family, level in cases:
        pen = PenaltySpec(family, level * top)
        for name, opts in TRACED_METHODS:
            (on, trace_on), (off, trace_off) = _traced_and_untraced(d, name, pen, b0, opts)
            assert on == off, (name, opts, family, level)
            assert trace_off in ((), None), (name, opts, family, level)
            if trace_on is not None:
                assert len(trace_on) > 0
            outcomes.append(on)
    return outcomes


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.filterwarnings("ignore::sparsefit.exceptions.RidgeFallbackWarning")
@pytest.mark.filterwarnings("ignore::sparsefit.exceptions.SingularProjectionWarning")
@pytest.mark.parametrize("design", ["plain", "intercept", "duplicated"])
@pytest.mark.parametrize("family", glm.FAMILIES)
def test_untraced_fits_are_the_traced_fits_byte_for_byte(family, design):
    cases = [(pen, level) for pen in ("scad", "l1", "log") for level in (0.05, 0.3)]
    outcomes = _assert_trace_is_all_that_differs(design_dataset(family, design), cases)
    assert len(outcomes) == len(cases) * len(TRACED_METHODS)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("family", glm.FAMILIES)
def test_untraced_non_convergence_carries_the_same_partial_fit(monkeypatch, family):
    monkeypatch.setattr(lqa, "MAX_ITER", 2)
    outcomes = _assert_trace_is_all_that_differs(design_dataset(family, "intercept"),
                                                 [("scad", 0.05)])
    partials = [o for o in outcomes if o[0] is NonConvergence and o[2] is not None]
    assert len(partials) >= 2  # LQA and P-LQA at least


@pytest.mark.parametrize("selector", ["cv", "bic"])
@pytest.mark.parametrize("method", ["lqa", "plqa"])
def test_gaussian_lqa_tuning_evaluates_no_objective(monkeypatch, method, selector):
    calls = []

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*a, **k):
            calls.append(name)
            return real(*a, **k)

        monkeypatch.setattr(module, name, wrapper)

    counted(glm, "loglik")
    counted(penalty, "value")
    counted(lqa, "perturbed_penalty_value")
    d = random_dataset(9, 40, 4)
    lam, curve = methods.select_lambda(method, d, SCAD, n_lambda=5, selector=selector)
    assert len(curve) == 5
    assert calls == []
