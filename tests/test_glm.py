import math

import numpy as np
import pytest

from sparsefit import glm
from sparsefit.exceptions import DataError, RidgeFallbackWarning

from conftest import orthonormal_gaussian, random_dataset


class TestLoglik:
    def test_gaussian_zero_residual(self):
        d = glm.Dataset(np.array([[1.0]]), np.array([0.0]), "gaussian")
        assert glm.loglik(d, np.array([0.0])) == 0.0

    def test_logistic_example(self):
        d = glm.Dataset(np.array([[1.0]]), np.array([1.0]), "logistic")
        assert glm.loglik(d, np.array([0.0])) == pytest.approx(-math.log(2.0))

    def test_poisson_example(self):
        d = glm.Dataset(np.array([[1.0]]), np.array([1.0]), "poisson")
        assert glm.loglik(d, np.array([0.0])) == pytest.approx(-1.0)

    def test_dimension_mismatch(self):
        d = glm.Dataset(np.eye(3), np.zeros(3), "gaussian")
        with pytest.raises(ValueError):
            glm.loglik(d, np.zeros(2))


class TestCurvature:
    def test_gaussian_is_one(self):
        d = random_dataset(1, 10, 3)
        assert np.all(glm.curvature_weights(d, np.ones(3)) == 1.0)

    def test_logistic_quarter_at_zero(self):
        d = glm.Dataset(np.array([[1.0]]), np.array([1.0]), "logistic")
        assert glm.curvature_weights(d, np.zeros(1))[0] == pytest.approx(0.25)

    def test_poisson_one_at_zero(self):
        d = glm.Dataset(np.array([[1.0]]), np.array([0.0]), "poisson")
        assert glm.curvature_weights(d, np.zeros(1))[0] == pytest.approx(1.0)


class TestNegHessian:
    def test_orthonormal_gaussian(self):
        d = orthonormal_gaussian([1.0, 2.0], n=8)
        H = glm.neg_hessian(d, np.zeros(2))
        assert np.allclose(H, 8.0 * np.eye(2), atol=1e-10)

    def test_logistic_scalar(self):
        d = glm.Dataset(np.array([[1.0]]), np.array([1.0]), "logistic")
        assert glm.neg_hessian(d, np.zeros(1))[0, 0] == pytest.approx(0.25)

    def test_poisson_scalar(self):
        d = glm.Dataset(np.array([[2.0]]), np.array([1.0]), "poisson")
        assert glm.neg_hessian(d, np.zeros(1))[0, 0] == pytest.approx(4.0)

    @pytest.mark.parametrize("family", glm.FAMILIES)
    def test_symmetric_psd(self, family):
        d = random_dataset(3, 40, 5, family)
        H = glm.neg_hessian(d, 0.1 * np.ones(5))
        assert np.allclose(H, H.T)
        eig = np.linalg.eigvalsh(H)
        assert eig.min() >= -1e-10 * np.trace(H)


@pytest.mark.parametrize("family", glm.FAMILIES)
def test_score_matches_finite_differences(family):
    d = random_dataset(7, 30, 4, family)
    beta = np.array([0.3, -0.2, 0.1, 0.05])
    g = glm.score(d, beta)
    h = 1e-6
    for j in range(4):
        e = np.zeros(4)
        e[j] = h
        fd = (glm.loglik(d, beta + e) - glm.loglik(d, beta - e)) / (2 * h)
        assert abs(fd - g[j]) <= 1e-5 * (1.0 + abs(g[j]))


@pytest.mark.parametrize("family", glm.FAMILIES)
def test_neg_hessian_matches_score_differences(family):
    d = random_dataset(11, 30, 3, family)
    beta = np.array([0.2, -0.1, 0.3])
    H = glm.neg_hessian(d, beta)
    h = 1e-6
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        col = -(glm.score(d, beta + e) - glm.score(d, beta - e)) / (2 * h)
        assert np.all(np.abs(col - H[:, j]) <= 1e-4 * (1.0 + np.abs(H[:, j])))


class TestFitMle:
    def test_gaussian_interpolates(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((20, 4))
        beta = np.array([1.0, -2.0, 0.5, 3.0])
        d = glm.Dataset(X, X @ beta, "gaussian")
        assert np.allclose(glm.fit_mle(d), beta, atol=1e-10)

    def test_logistic_balanced_intercept(self):
        d = glm.Dataset(np.ones((10, 1)), np.array([0.0, 1.0] * 5), "logistic")
        assert glm.fit_mle(d)[0] == pytest.approx(0.0, abs=1e-9)

    def test_poisson_intercept_log_mean(self):
        y = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 2.0])
        d = glm.Dataset(np.ones((6, 1)), y, "poisson")
        assert glm.fit_mle(d)[0] == pytest.approx(math.log(y.mean()), abs=1e-9)

    @pytest.mark.parametrize("family", glm.FAMILIES)
    def test_gradient_zeroed(self, family):
        d = random_dataset(13, 60, 4, family)
        beta = glm.fit_mle(d)
        bound = 1e-8 * (1.0 + abs(glm.loglik(d, beta)))
        assert np.max(np.abs(glm.score(d, beta))) <= bound

    def test_singular_design_warns_with_fallback(self):
        X = np.column_stack([np.ones(8), np.ones(8)])
        d = glm.Dataset(X, np.arange(8.0), "gaussian")
        with pytest.warns(RidgeFallbackWarning):
            beta = glm.fit_mle(d)
        assert np.all(np.isfinite(beta))

    def test_intercept_dataset(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((30, 2))
        y = 1.5 + X @ np.array([2.0, -1.0]) + 0.01 * rng.standard_normal(30)
        d = glm.Dataset(X, y, "gaussian", intercept=True)
        beta = glm.fit_mle(d)
        assert beta.shape == (3,)
        assert beta[0] == pytest.approx(1.5, abs=0.05)


class TestDatasetValidation:
    def test_bad_logistic_response(self):
        with pytest.raises(ValueError):
            glm.Dataset(np.ones((2, 1)), np.array([0.0, 2.0]), "logistic")

    def test_bad_poisson_response(self):
        with pytest.raises(ValueError):
            glm.Dataset(np.ones((2, 1)), np.array([1.5, 2.0]), "poisson")

    def test_nonfinite(self):
        with pytest.raises(ValueError):
            glm.Dataset(np.array([[np.nan]]), np.array([1.0]), "gaussian")

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            glm.Dataset(np.ones((2, 1)), np.zeros(2), "gamma")

    def test_immutability(self):
        d = random_dataset(1, 5, 2)
        with pytest.raises(ValueError):
            d.design[0, 0] = 9.0


class TestLoadCsv:
    def test_round_trip(self, tmp_path):
        f = tmp_path / "toy.csv"
        f.write_text("a,y,b\n1,2,3\n4,5,6\n")
        d, names = glm.load_csv(f, "y", "gaussian")
        assert names == ["a", "b"]
        assert np.allclose(d.design, [[1, 3], [4, 6]])
        assert np.allclose(d.response, [2, 5])

    def test_missing_response(self, tmp_path):
        f = tmp_path / "toy.csv"
        f.write_text("a,b\n1,2\n")
        with pytest.raises(DataError):
            glm.load_csv(f, "y", "gaussian")

    def test_non_numeric(self, tmp_path):
        f = tmp_path / "toy.csv"
        f.write_text("a,y\nfoo,2\n")
        with pytest.raises(DataError):
            glm.load_csv(f, "y", "gaussian")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            glm.load_csv(tmp_path / "nope.csv", "y", "gaussian")
