import numpy as np
import pytest

from sparsefit import glm, lla, lqa, methods, tuning
from sparsefit.exceptions import FamilyMismatch
from sparsefit.lla import FitResult
from sparsefit.penalty import PenaltySpec

from conftest import random_dataset

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

    def flaky(train, p, b0=None, eps0=None):
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


def test_programming_errors_propagate(monkeypatch):
    d = random_dataset(8, 40, 3)

    def broken(*a, **k):
        raise TypeError("bug in an estimator")

    monkeypatch.setattr(lqa, "perturbed_lqa_fit", broken)
    with pytest.raises(TypeError):
        methods.select_lambda("plqa", d, SCAD, n_lambda=5)
