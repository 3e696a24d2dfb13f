import numpy as np
import pytest
from scipy.integrate import quad

from sparsefit import glm, lqa, penalty
from sparsefit.penalty import PenaltySpec

from conftest import orthonormal_gaussian, random_dataset

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


def test_cli_import_leaves_scipy_integrate_unloaded():
    import os
    import subprocess
    import sys

    import sparsefit

    src = os.path.dirname(os.path.dirname(os.path.abspath(sparsefit.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, sparsefit.cli; print('scipy.integrate' in sys.modules)"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
