import warnings
from dataclasses import replace

import numpy as np
import pytest

from sparsefit import glm, lla, penalty, tuning, wlasso
from sparsefit.exceptions import (DataError, FamilyMismatch, NonConvergence,
                                  SingularProjectionWarning)
from sparsefit.penalty import PenaltySpec

from conftest import design_dataset, orthonormal_gaussian, qr_lambda_max, random_dataset

SCAD2 = PenaltySpec("scad", 2.0, a=3.7)


def naive_problem(d, pen, b0):
    """The one-step subproblem written directly: quadratic expansion at b0
    with per-coordinate weights n * p'_lam(|b0_j|), no rescaling tricks."""
    sqrt_d = np.sqrt(glm.curvature_weights(d, b0))
    X = sqrt_d[:, None] * d.model_matrix
    y = sqrt_d * (d.model_matrix @ b0)
    w = np.zeros(d.n_coef)
    for j in lla._predictor_indices(d):
        dj = penalty.derivative(pen, abs(b0[j]))
        w[j] = np.inf if dj > lla.WEIGHT_CAP else d.n * dj
    return wlasso.WlassoProblem(X, y, w)


class TestWorkingDataType1:
    """Separable (l1/lq/log) one-step quadratic: ``lla._separable_scales`` and
    ``lla._one_step_quadratic``."""

    def test_l1_gaussian_is_identity(self):
        d = random_dataset(0, 12, 3)
        b0 = np.array([0.5, -1.0, 2.0])
        scales, u = lla._separable_scales(d, b0, PenaltySpec("l1", 2.0))
        assert np.all(scales == 1.0) and np.all(u == d.n)
        G, b = lla._one_step_quadratic(d, b0, scales)
        H = glm.neg_hessian(d, b0)
        assert G.tobytes() == H.tobytes() and b.tobytes() == (H @ b0).tobytes()

    def test_log_zero_coordinate_pinned(self):
        d = random_dataset(0, 12, 3)
        b0 = np.array([0.5, 0.0, 2.0])
        scales, u = lla._separable_scales(d, b0, PenaltySpec("log", 2.0))
        assert np.isinf(u[1]) and np.all(np.isfinite(u[[0, 2]]))
        assert scales[1] == 0.0
        G, b = lla._one_step_quadratic(d, b0, scales)
        assert np.all(G[1] == 0.0) and np.all(G[:, 1] == 0.0) and b[1] == 0.0

    def test_lq_column_scaling(self):
        d = random_dataset(0, 12, 3)
        b0 = np.array([4.0, 1.0, 1.0])
        scales, _ = lla._separable_scales(d, b0, PenaltySpec("lq", 1.0, q=0.5))
        # p'(4) = 0.5 * 4^{-0.5} = 0.25, so the column grows by 4
        assert scales[0] == 4.0
        G, _ = lla._one_step_quadratic(d, b0, scales)
        assert G[0, 0] == 16.0 * glm.neg_hessian(d, b0)[0, 0]


class TestWorkingDataType2:
    """SCAD working data: the U/V split ``lla._scad_split`` and the single fit."""

    def test_empty_u_is_no_projection(self):
        d = random_dataset(1, 14, 3)
        b0 = np.array([0.5, -1.0, 1.5])  # all below a*lam: V only
        u_set, v_set, scales = lla._scad_split(d, b0, SCAD2)
        assert u_set == [] and v_set == [0, 1, 2]
        # with nothing to project, the step is the lasso on the scaled columns
        prob = wlasso.WlassoProblem(d.design * scales, d.design @ b0, np.full(3, d.n * SCAD2.lam))
        expect = wlasso.solve(prob).beta * scales
        assert np.allclose(lla.one_step(d, SCAD2, b0=b0).coefficients, expect, atol=1e-8)

    def test_all_big_coefficients_reduce_to_ols(self):
        d = random_dataset(2, 20, 3)
        b0 = np.array([9.0, -8.0, 10.0])  # all beyond a*lam = 7.4
        u_set, v_set, _ = lla._scad_split(d, b0, SCAD2)
        assert v_set == []
        assert set(u_set) == {0, 1, 2}
        fit = lla.one_step(d, SCAD2, b0=b0)
        ols = np.linalg.lstsq(d.design, d.design @ b0, rcond=None)[0]
        assert np.allclose(fit.coefficients, ols, atol=1e-8)

    def test_unit_scale_at_lambda(self):
        d = random_dataset(3, 14, 3)
        b0 = np.array([1.0, 9.0, 9.0])  # p'_lam(1) = lam -> scale 1
        _, v_set, scales = lla._scad_split(d, b0, SCAD2)
        assert scales[0] == pytest.approx(1.0)
        assert 0 in v_set

    def test_rank_deficient_u_block_warns(self):
        d0 = random_dataset(4, 20, 3)
        d = glm.Dataset(np.column_stack([d0.design, d0.design[:, 0]]), d0.response, "gaussian")
        b0 = np.array([9.0, 0.5, 0.3, 9.0])  # both copies beyond a*lam: one rank in U
        assert lla._scad_split(d, b0, SCAD2)[0] == [0, 3]
        with pytest.warns(SingularProjectionWarning):
            fit = lla.one_step(d, SCAD2, b0=b0)
        assert np.all(np.isfinite(fit.coefficients))


def loop_scad_split(d, b0, p):
    """The SCAD split as one ``penalty.derivative`` call per predictor."""
    u_set, v_set, v_scales = ([0] if d.intercept else []), [], []
    for j in lla._predictor_indices(d):
        dj = penalty.derivative(p, abs(float(b0[j])))
        if dj == 0.0:
            u_set.append(j)
        else:
            v_set.append(j)
            v_scales.append(p.lam / dj)
    return u_set, v_set, np.array(v_scales)


@pytest.mark.parametrize("intercept", [False, True])
def test_scad_split_matches_derivative_loop(intercept):
    rng = np.random.default_rng(5)
    d = glm.Dataset(rng.standard_normal((30, 9)), rng.standard_normal(30), "gaussian",
                    intercept=intercept)
    lam = 2.0  # |b0_j| on each side of lam and a*lam, on both edges, and NaN
    edges = [0.0, lam, np.nextafter(lam, 9.0), 3.7 * lam, np.nextafter(3.7 * lam, 0.0)]
    b0 = np.array([*([1.0] if intercept else []), *edges, -5.0, 30.0, 0.5, np.nan])
    for p in (PenaltySpec("scad", lam, a=3.7), PenaltySpec("scad", 0.0),
              PenaltySpec("scad", 0.7, a=2.5), PenaltySpec("scad", 5e-324),
              PenaltySpec("scad", 1e300)):
        got, want = lla._scad_split(d, b0, p), loop_scad_split(d, b0, p)
        assert got[:2] == want[:2]
        assert all(type(j) is int for j in got[0] + got[1])
        assert got[2].tobytes() == want[2].tobytes()


def _solve_systems(m, rng):
    """(name, A) pairs of m x m float64 systems: SPD, general, near-singular,
    exactly singular, and holding NaN or inf."""
    Z = rng.standard_normal((m, m))
    dup = Z.copy()
    dup[:, -1] = dup[:, 0]  # for m = 1 the column is itself: not singular
    near = dup.copy()
    near[:, -1] += 1e-13 * rng.standard_normal(m)
    low = Z[:, : m - 1]
    for name, A in [("spd", Z @ Z.T + m * np.eye(m)), ("general", Z), ("near-singular", near),
                    ("tiny pivot", np.diag(np.r_[1e-300, np.ones(m - 1)])),
                    ("duplicated", dup), ("zero", np.zeros((m, m))),
                    ("rank-deficient spd", low @ low.T)]:
        yield name, A
    for bad in (np.nan, np.inf, -np.inf):
        for i, j in ((0, 0), (m - 1, m // 2)):
            A = Z @ Z.T + m * np.eye(m)
            A[i, j] = bad
            yield f"{bad} at {i},{j}", A


@pytest.mark.parametrize("m", range(1, 14))
def test_lapack_solve_is_np_linalg_solve_bit_for_bit(m):
    # the bare gufunc under the callers' errstate: numpy's bytes, numpy's
    # LinAlgError, and no RuntimeWarning
    rng = np.random.default_rng(m)
    outcomes = set()
    for name, A in _solve_systems(m, rng):
        for B in (rng.standard_normal(m), rng.standard_normal((m, 1)),
                  rng.standard_normal((m, 4)), 1e300 * rng.standard_normal((m, 3))):
            try:
                want = np.linalg.solve(A, B)
            except np.linalg.LinAlgError:
                want = None
            with warnings.catch_warnings(record=True) as record, np.errstate(invalid="ignore"):
                warnings.simplefilter("always")
                if want is None:
                    with pytest.raises(np.linalg.LinAlgError):
                        lla._lapack_solve(A, B)
                    outcomes.add("raised")
                else:
                    got = lla._lapack_solve(A, B)
                    assert (got.dtype, got.shape) == (want.dtype, want.shape), name
                    assert got.tobytes() == want.tobytes(), name
                    outcomes.add("finite" if np.isfinite(got).all() else "non-finite")
            assert not [w for w in record if issubclass(w.category, RuntimeWarning)], name
    assert outcomes == {"raised", "finite", "non-finite"}


class TestOneStepOrthonormal:
    def setup_method(self):
        self.z = np.array([8.0, 4.0, 1.0, 0.2])
        self.d = orthonormal_gaussian(self.z)

    def test_unpenalized_block_kept_exactly(self):
        fit = lla.one_step(self.d, SCAD2)
        assert fit.coefficients[0] == pytest.approx(8.0, abs=1e-8)

    def test_small_coordinate_killed(self):
        fit = lla.one_step(self.d, SCAD2)
        assert fit.coefficients[2] == 0.0
        assert fit.coefficients[3] == 0.0

    def test_middle_coordinate_soft_thresholded(self):
        fit = lla.one_step(self.d, SCAD2)
        assert fit.coefficients[1] == pytest.approx(4.0 - 3.4 / 2.7, abs=1e-8)

    def test_lambda_zero_returns_ols(self):
        fit = lla.one_step(self.d, PenaltySpec("scad", 0.0))
        assert np.allclose(fit.coefficients, self.z, atol=1e-10)
        assert fit.method == "one_step"
        assert fit.iterations == 1

    def test_support_and_exact_zeros(self):
        fit = lla.one_step(self.d, SCAD2)
        assert fit.support == (0, 1)
        for j in (2, 3):
            assert fit.coefficients[j] == 0.0


@pytest.mark.parametrize("family", ["gaussian", "logistic", "poisson"])
@pytest.mark.parametrize(
    "pen",
    [
        SCAD2,
        PenaltySpec("scad", 0.4),
        PenaltySpec("l1", 0.3),
        PenaltySpec("lq", 0.3, q=0.5),
        PenaltySpec("log", 0.2),
    ],
)
def test_one_step_matches_naive_direct_solve(family, pen):
    d = random_dataset(17, 60, 5, family)
    b0 = glm.fit_mle(d)
    fit = lla.one_step(d, pen, b0=b0)
    prob = naive_problem(d, pen, b0)
    direct = wlasso.solve(prob, tol=1e-10)
    assert np.max(np.abs(fit.coefficients - direct.beta)) <= 1e-6


@pytest.mark.parametrize("family", ["gaussian", "logistic"])
def test_one_step_kkt_stationarity(family):
    d = random_dataset(23, 50, 6, family)
    b0 = glm.fit_mle(d)
    pen = PenaltySpec("scad", 0.3)
    fit = lla.one_step(d, pen, b0=b0)
    prob = naive_problem(d, pen, b0)
    assert wlasso.certify_kkt(prob, fit.coefficients) <= 1e-6


def test_one_step_with_intercept():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((60, 4))
    y = 2.0 + X @ np.array([1.5, 0.0, 0.0, -1.0]) + 0.3 * rng.standard_normal(60)
    d = glm.Dataset(X, y, "gaussian", intercept=True)
    fit = lla.one_step(d, PenaltySpec("scad", 0.5))
    assert fit.intercept == pytest.approx(2.0, abs=0.3)
    assert set(fit.support) <= {0, 1, 2, 3}


class TestKStep:
    def test_k1_identical_to_one_step(self):
        d = random_dataset(31, 40, 4)
        one = lla.one_step(d, SCAD2)
        k1 = lla.k_step(d, SCAD2, k=1)
        assert np.array_equal(one.coefficients, k1.coefficients)
        assert k1.method == "one_step"

    def test_lambda_zero_any_k_is_mle(self):
        d = random_dataset(31, 40, 4)
        mle = glm.fit_mle(d)
        k3 = lla.k_step(d, PenaltySpec("scad", 0.0), k=3)
        assert np.allclose(k3.coefficients, mle, atol=1e-8)

    def test_orthonormal_second_step(self):
        z = np.array([4.0])
        d = orthonormal_gaussian(z, n=8)
        k2 = lla.k_step(d, SCAD2, k=2)
        b1 = 4.0 - 3.4 / 2.7
        w2 = (7.4 - b1) / 2.7
        assert k2.coefficients[0] == pytest.approx(4.0 - w2, abs=1e-8)
        assert k2.iterations == 2
        assert k2.method == "k_step(2)"

    def test_k_validation(self):
        d = random_dataset(0, 10, 2)
        with pytest.raises(ValueError):
            lla.k_step(d, SCAD2, k=0)


class TestFullLla:
    def test_lambda_zero_returns_mle(self):
        d = random_dataset(5, 40, 4)
        fit = lla.full_lla(d, PenaltySpec("scad", 0.0))
        assert np.allclose(fit.coefficients, glm.fit_mle(d), atol=1e-8)
        assert fit.iterations == 1

    def test_orthonormal_fixed_point_above_knee(self):
        d = orthonormal_gaussian([9.0])
        fit = lla.full_lla(d, SCAD2)
        assert fit.coefficients[0] == pytest.approx(9.0, abs=1e-8)

    @pytest.mark.parametrize("family", ["gaussian", "logistic"])
    @pytest.mark.parametrize("seed", range(5))
    def test_ascent_property(self, family, seed):
        d = random_dataset(100 + seed, 60, 6, family)
        fit = lla.full_lla(d, PenaltySpec("scad", 0.25))
        trace = np.asarray(fit.objective_trace)
        assert np.all(np.diff(trace) >= -1e-8)
        assert fit.converged

    def test_strict_increase_before_convergence_gaussian(self):
        d = random_dataset(7, 50, 5)
        fit = lla.full_lla(d, PenaltySpec("scad", 0.3))
        trace = np.asarray(fit.objective_trace)
        # every step that moved the iterate strictly improved Q
        assert np.all(trace[1:-1] < trace[-1] + 1e-12)

    def test_rejects_unbounded_penalties(self):
        d = random_dataset(0, 10, 2)
        for fam, kw in (("log", {}), ("lq", {"q": 0.5})):
            with pytest.raises(FamilyMismatch):
                lla.full_lla(d, PenaltySpec(fam, 1.0, **kw))

    def test_l1_converges_immediately(self):
        d = random_dataset(9, 30, 4)
        fit = lla.full_lla(d, PenaltySpec("l1", 0.5))
        assert fit.iterations <= 2
        direct = wlasso.solve(
            wlasso.WlassoProblem(d.design, d.response, np.full(4, 0.5 * d.n))
        )
        assert np.allclose(fit.coefficients, direct.beta, atol=1e-7)


class TestPath:
    @pytest.mark.parametrize("family", ["gaussian", "logistic"])
    @pytest.mark.parametrize(
        "pen", [SCAD2, PenaltySpec("log", 1.0), PenaltySpec("lq", 1.0, q=0.01)]
    )
    def test_path_matches_per_point_one_step(self, family, pen):
        d = random_dataset(41, 50, 5, family)
        b0 = glm.fit_mle(d)
        lam_max = lla.one_step_lambda_max(d, pen, b0=b0)
        grid = tuning.default_lambda_grid(lam_max, 10)
        fits = lla.one_step_path(d, pen, grid, b0=b0)
        for lam, fit in zip(grid, fits):
            spec = PenaltySpec(pen.family, float(lam), a=pen.a, q=pen.q)
            single = lla.one_step(d, spec, b0=b0)
            assert np.max(np.abs(fit.coefficients - single.coefficients)) <= 1e-7

    def test_entries_carry_no_objective_trace(self):
        d = random_dataset(41, 50, 5)
        for pen in (SCAD2, PenaltySpec("log", 1.0)):
            grid = tuning.default_lambda_grid(lla.one_step_lambda_max(d, pen), 10)
            assert all(fit.objective_trace == () for fit in lla.one_step_path(d, pen, grid))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_points_are_none(self):
        # x near 1e152: H is finite, but the V-scaled products of most points
        # overflow; those points are failures, not vectors of inf and NaN
        d = near_overflow_dataset()
        fits = lla.one_step_path(d, SCAD2, np.geomspace(5e151, 1e-157, 80))
        assert 0 < sum(fit is None for fit in fits) < len(fits)
        assert all(np.isfinite(fit.coefficients).all() for fit in fits if fit is not None)

    def test_overflowing_hessian_is_data_error(self):
        # x near 1e160 overflows H, checked once per path
        rng = np.random.default_rng(0)
        d = glm.Dataset(1e160 * rng.standard_normal((50, 3)), rng.standard_normal(50), "gaussian")
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            with pytest.raises(DataError, match="^the one-step Hessian overflows"):
                lla.one_step_path(d, SCAD2, np.geomspace(1e305, 1e-300, 61),
                                  b0=np.array([1e-160, -1e-160, 1e-161]))
        assert not [w for w in record if issubclass(w.category, RuntimeWarning)]

    def test_lambda_max_gives_empty_support(self):
        for pen in (SCAD2, PenaltySpec("log", 1.0), PenaltySpec("l1", 1.0)):
            d = random_dataset(43, 40, 4)
            b0 = glm.fit_mle(d)
            lam_max = lla.one_step_lambda_max(d, pen, b0=b0)
            fit = lla.one_step(d, PenaltySpec(pen.family, lam_max, a=pen.a, q=pen.q), b0=b0)
            assert fit.support == ()

    def test_type1_lambda_max_is_tight(self):
        d = random_dataset(47, 40, 4)
        b0 = glm.fit_mle(d)
        pen = PenaltySpec("log", 1.0)
        lam_max = lla.one_step_lambda_max(d, pen, b0=b0)
        fit = lla.one_step(d, PenaltySpec("log", 0.98 * lam_max), b0=b0)
        assert fit.support != ()

    def test_grid_validation(self, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit before the grid was checked")
        monkeypatch.setattr(glm, "fit_mle", no_fit)  # every route checks the grid first
        d = random_dataset(0, 10, 2)
        for pen in (SCAD2, PenaltySpec("log", 1.0), PenaltySpec("l1", 1.0)):
            for grid in ([0.1, 0.2], [1.0, 0.5, -0.5], [np.nan], [1.0, np.nan],
                         [np.inf, 1.0], []):
                with pytest.raises(ValueError):
                    lla.one_step_path(d, pen, grid)

    @pytest.mark.parametrize("pen", [SCAD2, PenaltySpec("log", 1.0)])
    def test_support_is_a_tuple_of_python_ints(self, pen):
        d = random_dataset(41, 50, 5)
        fits = lla.one_step_path(d, pen, tuning.default_lambda_grid(
            lla.one_step_lambda_max(d, pen), 10))
        assert any(fit.support for fit in fits)
        for fit in fits:
            assert type(fit.support) is tuple
            assert all(type(j) is int for j in fit.support)

    @pytest.mark.parametrize("n_points", [1, 3])
    def test_rank_deficient_u_block_warns_once_per_point(self, n_points):
        d0 = random_dataset(4, 30, 4)
        d = glm.Dataset(np.column_stack([d0.design, d0.design[:, 0]]), d0.response, "gaussian")
        b0 = np.array([9.0, 0.5, 0.3, 0.2, 9.0])  # both copies beyond a*lam: one rank in U
        grid = [2.0, 1.5, 1.0][:n_points]
        with pytest.warns(SingularProjectionWarning) as record:
            fits = lla.one_step_path(d, SCAD2, grid, b0=b0)
        singular = [w for w in record if issubclass(w.category, SingularProjectionWarning)]
        assert len(singular) == n_points
        for lam, fit in zip(grid, fits):
            assert lla._scad_split(d, b0, PenaltySpec("scad", lam, a=3.7))[0] == [0, 4]
            assert np.all(np.isfinite(fit.coefficients))


class TestSeparableRoute:
    """one_step and one_step_path solve the same lambda-free working problem."""

    @pytest.mark.parametrize("family", ["gaussian", "logistic", "poisson"])
    @pytest.mark.parametrize("pen", [
        PenaltySpec("l1", 1.0), PenaltySpec("log", 1.0),
        PenaltySpec("lq", 1.0, q=0.5), PenaltySpec("lq", 1.0, q=0.01),
    ])
    def test_single_point_path_equals_one_step(self, family, pen):
        d = random_dataset(53, 60, 5, family)
        b0 = glm.fit_mle(d)
        grid = tuning.default_lambda_grid(lla.one_step_lambda_max(d, pen, b0=b0), 30)
        for lam in grid:
            [point] = lla.one_step_path(d, pen, [lam], b0=b0)
            single = lla.one_step(d, PenaltySpec(pen.family, float(lam), q=pen.q), b0=b0)
            assert np.array_equal(single.coefficients, point.coefficients)
            assert point.objective_trace == ()
            assert len(single.objective_trace) == 2


def separable_working_problem(d, pen, b0):
    """A separable penalty's one-step working problem on n rows, at the unit
    weight profile: columns sqrt(D) x_j / p'(|b0_j|) with u_j = n (p' at
    lambda = 1), a column of 0 and u_j = +inf where p' exceeds the weight
    cap, and an unpenalized intercept column; response sqrt(D) M b0."""
    unit = PenaltySpec(pen.family, 1.0, a=pen.a, q=pen.q)
    sqrt_d = np.sqrt(glm.curvature_weights(d, b0))
    X = sqrt_d[:, None] * d.model_matrix
    u = np.zeros(d.n_coef)
    for j in lla._predictor_indices(d):
        dj = penalty.derivative(unit, abs(b0[j]))
        X[:, j] = 0.0 if dj > lla.WEIGHT_CAP else X[:, j] / dj
        u[j] = np.inf if dj > lla.WEIGHT_CAP else d.n
    return wlasso.WlassoProblem(X, sqrt_d * (d.model_matrix @ b0), u)


@pytest.mark.parametrize("family", glm.FAMILIES)
@pytest.mark.parametrize("intercept", [False, True])
@pytest.mark.parametrize("pen, zero", [
    (PenaltySpec("l1", 1.0), False), (PenaltySpec("lq", 1.0, q=0.5), False),
    (PenaltySpec("log", 1.0), False), (PenaltySpec("log", 1.0), True),
], ids=["l1", "lq", "log", "log-pinned"])
def test_separable_lambda_max_matches_qr_oracle(family, intercept, pen, zero):
    d0 = random_dataset(61, 60, 5, family)
    d = glm.Dataset(d0.design, d0.response, family, intercept)
    b0 = glm.fit_mle(d)
    if zero:
        b0[-1] = 0.0  # the log penalty pins it
    lam_max = lla.one_step_lambda_max(d, pen, b0=b0)
    assert lam_max == pytest.approx(qr_lambda_max(separable_working_problem(d, pen, b0)),
                                    rel=1e-12, abs=0.0)
    at = lla.one_step(d, replace(pen, lam=lam_max), b0=b0)
    below = lla.one_step(d, replace(pen, lam=0.98 * lam_max), b0=b0)
    assert at.support == () and below.support != ()


@pytest.mark.parametrize("pen", [SCAD2, PenaltySpec("l1", 1.0), PenaltySpec("lq", 1.0, q=0.5),
                                 PenaltySpec("log", 1.0)], ids=lambda pen: pen.family)
def test_overflowing_lambda_max_is_data_error(pen):
    # x near 1e160 overflows H: SCAD's bound used to read NaN here
    rng = np.random.default_rng(0)
    d = glm.Dataset(1e160 * rng.standard_normal((50, 3)), rng.standard_normal(50), "gaussian")
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        with pytest.raises(DataError, match="^the one-step Hessian overflows"):
            lla.one_step_lambda_max(d, pen, b0=np.array([1e-3, -1e-3, 1e-4]))
    assert not [w for w in record if issubclass(w.category, RuntimeWarning)]


def per_point_scad_path(d, pen, grid, b0):
    """The SCAD path with one straight-line block per grid point: the split,
    the whole scaled Gram matrix s H s, a K solve, coordinate descent and a
    back-solve at every point, empty blocks included (a 0 x 0 solve and an
    empty product subtract 0.0).  Returns the fits and the (U, V) splits."""
    H = glm.neg_hessian(d, b0)
    bvec = H @ b0
    out, splits = [], []
    prev_beta = None
    for lam in grid:
        try:
            spec = PenaltySpec("scad", float(lam), a=pen.a)
            s = np.ones(d.n_coef)
            u_idx, v_idx = ([0] if d.intercept else []), []
            for j in lla._predictor_indices(d):
                dj = penalty.derivative(spec, abs(b0[j]))
                if dj == 0.0:
                    u_idx.append(j)
                else:
                    v_idx.append(j)
                    s[j] = spec.lam / dj
            splits.append((u_idx, v_idx))
            Gs = (s[:, None] * H) * s[None, :]
            bs = s * bvec
            Gu, Gv = Gs.take(u_idx, 0), Gs.take(v_idx, 0)
            psolve = lla._psolver(Gu.take(u_idx, 1))
            Gvu = Gv.take(u_idx, 1)
            K = psolve(np.column_stack([Gvu.T, bs[u_idx]]))
            warm = None if prev_beta is None else prev_beta[v_idx] / s[v_idx]
            beta_v, _, _ = wlasso.solve_gram(
                Gv.take(v_idx, 1) - Gvu @ K[:, :-1], bs[v_idx] - Gvu @ K[:, -1],
                np.full(len(v_idx), d.n * lam), tol=lla.TOL, x0=warm
            )
            beta = np.zeros(d.n_coef)
            beta[u_idx] = psolve(bs[u_idx] - Gu.take(v_idx, 1) @ beta_v)
            beta[v_idx] = beta_v * s[v_idx]
            prev_beta = beta
            out.append(lla._path_point(d, beta, lam))
        except (NonConvergence, np.linalg.LinAlgError):
            out.append(None)
    return out, splits


def near_overflow_dataset():
    """50 x 3 Gaussian data with x near 1e152: X^T X is finite, s H s is not."""
    rng = np.random.default_rng(0)
    return glm.Dataset(1e152 * rng.standard_normal((50, 3)), rng.standard_normal(50), "gaussian")


def _scad_path_cases():
    for family in glm.FAMILIES:
        for design in ("plain", "intercept", "duplicated"):
            yield f"{family}-{design}", design_dataset(family, design)
    yield "near overflow", near_overflow_dataset()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.filterwarnings("ignore::sparsefit.exceptions.RidgeFallbackWarning")
def test_scad_path_bytes_match_per_point_oracle():
    seen = set()
    for name, d in _scad_path_cases():
        b0 = glm.fit_mle(d)
        lam_max = lla.one_step_lambda_max(d, SCAD2, b0=b0)
        # from all of V at lambda_max down past every |b0_j| / a: all of U
        grid = np.geomspace(2.0 * lam_max, 1e-9 * lam_max, 80)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always", SingularProjectionWarning)
            want, splits = per_point_scad_path(d, SCAD2, grid, b0)
            n_want = len(record)
            got = lla.one_step_path(d, SCAD2, grid, b0=b0)
        warned = [issubclass(w.category, SingularProjectionWarning) for w in record]
        assert sum(warned[n_want:]) == sum(warned[:n_want]), name
        assert [f is None for f in got] == [f is None for f in want], name
        for g, w in zip(got, want):
            if w is not None:
                assert g.coefficients.tobytes() == w.coefficients.tobytes(), name
                assert np.float64(g.intercept or 0.0).tobytes() == \
                    np.float64(w.intercept or 0.0).tobytes(), name
                assert (g.support, g.lam) == (w.support, w.lam), name
        seen |= {"empty U" for u, _ in splits if not u}
        seen |= {"empty V" for _, v in splits if not v}
        seen |= {"U and V" for u, v in splits if u and v}
        seen |= {"singular U"} if any(warned) else set()
        seen |= {"None"} if any(f is None for f in want) else set()
    assert seen == {"empty U", "empty V", "U and V", "singular U", "None"}
