import math

import numpy as np
import pytest

from sparsefit import glm, lla, tuning
from sparsefit.exceptions import DataError, NonConvergence
from sparsefit.lla import FitResult
from sparsefit.penalty import PenaltySpec

from conftest import random_dataset


def zero_fitter(train, grid):
    zero = FitResult(np.zeros(train.p), (), 0.0, "one_step", (), 1)
    return [zero for _ in grid]


def fails_at_two(train, grid):
    """zero_fitter, except that the fit at lambda = 2 fails."""
    return [None if lam == 2.0 else fit for lam, fit in zip(grid, zero_fitter(train, grid))]


def one_step_fitter(pen):
    def fitter(train, grid):
        return lla.one_step_path(train, pen, grid)

    return fitter


class TestGrid:
    def test_descending_log_spaced(self):
        g = tuning.default_lambda_grid(2.0, 5, 1e-2)
        assert g[0] == pytest.approx(2.0)
        assert g[-1] == pytest.approx(0.02)
        assert np.all(np.diff(g) < 0)
        assert np.allclose(np.diff(np.log(g)), np.diff(np.log(g))[0])

    def test_degenerate_lam_max(self):
        g = tuning.default_lambda_grid(0.0, 3)
        assert np.all(g > 0)

    @pytest.mark.parametrize("lam_max", [math.nan, math.inf])
    def test_non_finite_lam_max_is_a_data_error(self, lam_max):
        with pytest.raises(DataError):
            tuning.default_lambda_grid(lam_max, 3)

    # numpy's geomspace overflows inside on the way, yet pins both endpoints
    @pytest.mark.filterwarnings("ignore:overflow encountered in power:RuntimeWarning")
    def test_finite_lam_max_gives_finite_points(self):
        g = tuning.default_lambda_grid(np.finfo(float).max, 100, 1e-3)
        assert np.all(np.isfinite(g)) and np.all(g > 0)


class TestCvSelect:
    def test_single_point_grid(self):
        d = random_dataset(1, 30, 3)
        lam, curve = tuning.cv_select(d, one_step_fitter(PenaltySpec("scad", 1.0)), [0.7], seed=0)
        assert lam == 0.7
        assert len(curve) == 1

    def test_tie_broken_toward_larger_lambda(self):
        d = random_dataset(2, 30, 3)
        # identical all-zero fits at every grid point: losses tie exactly
        lam, curve = tuning.cv_select(d, zero_fitter, [5.0, 4.0, 3.0], seed=0)
        assert lam == 5.0
        assert curve[0][1] == curve[1][1] == curve[2][1]

    def test_overfit_lambda_not_selected(self):
        # pure noise with many predictors: the near-zero lambda overfits in
        # every fold, so CV must prefer the heavy-shrinkage end of the grid
        rng = np.random.default_rng(3)
        X = rng.standard_normal((30, 10))
        y = rng.standard_normal(30)
        d = glm.Dataset(X, y, "gaussian")
        pen = PenaltySpec("scad", 1.0)
        lam_max = lla.one_step_lambda_max(d, pen)
        grid = np.array([lam_max, 1e-6 * lam_max])
        lam, curve = tuning.cv_select(d, one_step_fitter(pen), grid, seed=0)
        assert lam == grid[0]
        assert curve[0][1] < curve[1][1]

    def test_deterministic_given_seed(self):
        d = random_dataset(5, 40, 4)
        pen = PenaltySpec("scad", 1.0)
        grid = tuning.default_lambda_grid(lla.one_step_lambda_max(d, pen), 12)
        a = tuning.cv_select(d, one_step_fitter(pen), grid, seed=9)
        b = tuning.cv_select(d, one_step_fitter(pen), grid, seed=9)
        assert a == b

    def test_every_observation_validated_once(self):
        d = random_dataset(7, 23, 3)
        seen = []

        def probe(train, grid):
            seen.append(train.n)
            return zero_fitter(train, grid)

        tuning.cv_select(d, probe, [1.0], k=5, seed=1)
        # five training folds, each missing one near-equal validation block
        assert len(seen) == 5
        assert sum(23 - n for n in seen) == 23

    def test_failed_pairs_get_infinite_loss(self):
        d = random_dataset(8, 30, 3)
        lam, curve = tuning.cv_select(d, fails_at_two, [2.0, 1.0], seed=0)
        assert np.isinf(curve[0][1]) and np.isfinite(curve[1][1])
        assert lam == 1.0

        def flaky(train, grid):
            return [None for _ in grid]

        with pytest.raises(DataError, match="no lambda on the grid has a finite cv score"):
            tuning.cv_select(d, flaky, [2.0, 1.0], seed=0)

    def test_solver_failure_scores_fold_infinite(self):
        d = random_dataset(8, 30, 3)
        calls = []

        def fails_once(train, grid):
            calls.append(train.n)
            if len(calls) == 1:
                raise NonConvergence("budget exhausted")
            return zero_fitter(train, grid)

        # one +inf fold makes every mean loss +inf, so no lambda is left
        with pytest.raises(DataError, match="finite cv score"):
            tuning.cv_select(d, fails_once, [2.0, 1.0], seed=0)
        assert len(calls) == tuning.DEFAULT_FOLDS

    def test_programming_errors_propagate(self):
        d = random_dataset(8, 30, 3)

        def broken(train, grid):
            raise TypeError("bug in the fitter")

        with pytest.raises(TypeError):
            tuning.cv_select(d, broken, [1.0], seed=0)

    def test_validation_loss_gaussian_is_mse(self):
        d = random_dataset(9, 20, 2)
        beta = np.array([1.0, -1.0])
        loss = tuning.validation_loss(d, beta)
        mu = d.design @ beta
        assert loss == pytest.approx(float(np.mean((d.response - mu) ** 2)))

    def test_validation_loss_glm_is_mean_nll(self):
        d = random_dataset(10, 20, 2, "logistic")
        beta = np.array([0.5, 0.5])
        assert tuning.validation_loss(d, beta) == pytest.approx(-glm.loglik(d, beta) / d.n)

    def test_parameter_validation(self):
        d = random_dataset(0, 10, 2)
        with pytest.raises(ValueError):
            tuning.cv_select(d, zero_fitter, [], seed=0)
        with pytest.raises(ValueError):
            tuning.cv_select(d, zero_fitter, [1.0], k=1, seed=0)


class TestBicSelect:
    @staticmethod
    def fixed_fitter(*coefficient_vectors):
        def fitter(d, grid):
            return [FitResult(np.array(b), (), float(lam), "one_step", (), 1)
                    for b, lam in zip(coefficient_vectors, grid)]

        return fitter

    def test_gaussian_score_is_profile_bic(self):
        d = random_dataset(11, 40, 3)
        betas = ([0.0, 0.0, 0.0], [1.5, -0.5, 0.0])
        lam, curve = tuning.bic_select(d, self.fixed_fitter(*betas), [2.0, 1.0])
        for (_, score), beta in zip(curve, betas):
            rss = float(np.sum((d.response - d.design @ np.array(beta)) ** 2))
            df = int(np.count_nonzero(beta))
            assert score == pytest.approx(40 * math.log(rss / 40) + math.log(40) * df, rel=1e-12)
        assert lam == 1.0  # the fitted pair beats the empty model on this signal

    def test_glm_score_is_minus_two_loglik_plus_penalty(self):
        d = random_dataset(12, 50, 3, "logistic")
        beta = np.array([1.0, 0.0, 0.5])
        _, curve = tuning.bic_select(d, self.fixed_fitter(beta), [1.0])
        expected = -2.0 * glm.loglik(d, beta) + math.log(50) * 2
        assert curve[0][1] == pytest.approx(expected, rel=1e-12)

    def test_tie_broken_toward_larger_lambda(self):
        d = random_dataset(2, 30, 3)
        lam, curve = tuning.bic_select(d, zero_fitter, [5.0, 4.0, 3.0])
        assert lam == 5.0
        assert curve[0][1] == curve[1][1] == curve[2][1]

    def test_failed_points_get_infinite_score(self):
        d = random_dataset(8, 30, 3)
        lam, curve = tuning.bic_select(d, fails_at_two, [2.0, 1.0])
        assert np.isinf(curve[0][1]) and np.isfinite(curve[1][1])
        assert lam == 1.0

        def flaky(train, grid):
            return [None for _ in grid]

        with pytest.raises(DataError, match="no lambda on the grid has a finite bic score"):
            tuning.bic_select(d, flaky, [2.0, 1.0])

    def test_solver_failure_scores_whole_grid_infinite(self):
        d = random_dataset(8, 30, 3)

        def diverges(train, grid):
            raise NonConvergence("budget exhausted")

        with pytest.raises(DataError, match="finite bic score"):
            tuning.bic_select(d, diverges, [2.0, 1.0])

    def test_programming_errors_propagate(self):
        d = random_dataset(8, 30, 3)

        def broken(train, grid):
            raise TypeError("bug in the fitter")

        with pytest.raises(TypeError):
            tuning.bic_select(d, broken, [1.0])

    def test_fitter_called_once_on_full_data(self):
        d = random_dataset(7, 23, 3)
        seen = []

        def probe(train, grid):
            seen.append(train)
            return zero_fitter(train, grid)

        tuning.bic_select(d, probe, [2.0, 1.0])
        assert len(seen) == 1 and seen[0] is d

    def test_pure_function_of_data_and_grid(self):
        d = random_dataset(5, 40, 4)
        pen = PenaltySpec("scad", 1.0)
        grid = tuning.default_lambda_grid(lla.one_step_lambda_max(d, pen), 12)
        a = tuning.bic_select(d, one_step_fitter(pen), grid)
        b = tuning.bic_select(d, one_step_fitter(pen), grid)
        assert a == b

    def test_overfit_lambda_not_selected(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((30, 10))
        y = rng.standard_normal(30)
        d = glm.Dataset(X, y, "gaussian")
        pen = PenaltySpec("scad", 1.0)
        lam_max = lla.one_step_lambda_max(d, pen)
        grid = np.array([lam_max, 1e-6 * lam_max])
        lam, curve = tuning.bic_select(d, one_step_fitter(pen), grid)
        assert lam == grid[0]
        assert curve[0][1] < curve[1][1]

    def test_empty_grid_rejected(self):
        d = random_dataset(0, 10, 2)
        with pytest.raises(ValueError):
            tuning.bic_select(d, zero_fitter, [])


class TestPreferredLambdas:
    @pytest.mark.parametrize("curve, expected", [
        # lowest score first, its tie going to the larger lambda; +inf left out
        ([(4.0, 1.0), (2.0, 0.5), (1.0, 0.5), (0.5, math.inf), (0.25, 0.7)],
         [2.0, 1.0, 0.25, 4.0]),
        # the order of the curve does not matter, only lambda and score
        ([(0.25, 0.7), (1.0, 0.5), (4.0, 1.0), (2.0, 0.5)], [2.0, 1.0, 0.25, 4.0]),
        # a NaN score is never preferred, not even at the largest lambda
        ([(4.0, math.nan), (2.0, 3.0), (1.0, 2.0)], [1.0, 2.0]),
        # nothing finite: nothing preferred (the selectors raise DataError)
        ([(1.0, math.inf), (3.0, math.inf), (2.0, math.nan)], []),
    ])
    def test_order(self, curve, expected):
        assert tuning.preferred_lambdas(curve) == expected
