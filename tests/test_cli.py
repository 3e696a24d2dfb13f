import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

from sparsefit import cli, glm, lla, lqa, methods
from sparsefit.exceptions import NonConvergence, RidgeFallbackWarning, SingularSystem
from sparsefit.lla import FitResult
from sparsefit.penalty import PenaltySpec

from conftest import random_dataset


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def toy_csv(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((50, 3))
    y = X @ np.array([2.0, 0.0, -1.0]) + 0.1 * rng.standard_normal(50)
    path = tmp_path / "toy.csv"
    rows = ["x1,x2,y,x3"]
    for i in range(50):
        rows.append(f"{X[i,0]},{X[i,1]},{y[i]},{X[i,2]}")
    path.write_text("\n".join(rows) + "\n")
    return path, X, y


@pytest.fixture
def strong_csv(tmp_path):
    rng = np.random.default_rng(1)
    x = rng.standard_normal(100)
    y = 5.0 * x + 0.5 * rng.standard_normal(100)
    path = tmp_path / "strong.csv"
    path.write_text("x,y\n" + "\n".join(f"{a},{b}" for a, b in zip(x, y)) + "\n")
    return path


@pytest.fixture
def zero_column_csv(tmp_path):
    """Four rows whose one predictor is all zero: X^T X is the zero matrix."""
    path = tmp_path / "zero.csv"
    path.write_text("x1,y\n0,1\n0,2\n0,3\n0,5\n")
    return path


@pytest.fixture
def extreme_csv(tmp_path):
    """x near 1e-100 and y near 1e200: the MLE is near 1e300, so the log
    penalty's one-step scales (about |b0_j|) overflow s H s, while the
    lq(0.5) quadratic stays finite and only its CV losses overflow."""
    rng = np.random.default_rng(0)
    X = 1e-100 * rng.standard_normal((50, 3))
    y = 1e200 * rng.standard_normal(50)
    path = tmp_path / "extreme.csv"
    path.write_text("x1,x2,x3,y\n" + "".join(
        ",".join(repr(float(v)) for v in (*X[i], y[i])) + "\n" for i in range(50)))
    return path


@pytest.fixture
def huge_csv(tmp_path):
    """x near 1e160: the one-step Hessian X^T D X overflows, with an intercept
    or without one, and so does the SCAD single fit's n-row Gram matrix."""
    rng = np.random.default_rng(0)
    X = 1e160 * rng.standard_normal((50, 3))
    y = rng.standard_normal(50)
    path = tmp_path / "huge.csv"
    path.write_text("x1,x2,x3,y\n" + "".join(
        ",".join(repr(float(v)) for v in (*X[i], y[i])) + "\n" for i in range(50)))
    return path


class TestFit:
    def test_lambda_zero_matches_ols(self, runner, toy_csv):
        path, X, y = toy_csv
        res = runner.invoke(
            cli.main,
            ["fit", "--data", str(path), "--response", "y", "--family", "gaussian",
             "--method", "one-step", "--penalty", "scad:lambda=0,a=3.7"],
        )
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        assert doc["schema"] == "sparsefit/1"
        ols = np.linalg.lstsq(X, y, rcond=None)[0]
        assert np.allclose(doc["coefficients"], ols, atol=1e-8)
        assert doc["converged"] is True
        assert doc["feature_names"] == ["x1", "x2", "x3"]

    def test_subset_bic_strong_signal(self, runner, strong_csv):
        res = runner.invoke(
            cli.main,
            ["fit", "--data", str(strong_csv), "--response", "y",
             "--method", "subset", "--criterion", "bic"],
        )
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        assert doc["support"] == [0]
        assert doc["method"] == "subset"

    def test_subset_iterations_count_every_subset(self, runner, toy_csv):
        # the bounded search fits fewer, but covers all 2^p
        path, _, _ = toy_csv
        res = runner.invoke(cli.main, ["fit", "--data", str(path), "--response", "y",
                                       "--method", "subset", "--criterion", "aic"])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["iterations"] == 2 ** 3

    def test_missing_response_is_exit_3(self, runner, toy_csv):
        path, _, _ = toy_csv
        res = runner.invoke(
            cli.main,
            ["fit", "--data", str(path), "--response", "zz",
             "--method", "one-step", "--penalty", "l1:lambda=1"],
        )
        assert res.exit_code == 3
        assert "zz" in res.output

    def test_bad_penalty_is_exit_2(self, runner, toy_csv):
        path, _, _ = toy_csv
        res = runner.invoke(
            cli.main,
            ["fit", "--data", str(path), "--response", "y",
             "--method", "one-step", "--penalty", "ridge:lambda=1"],
        )
        assert res.exit_code == 2

    @pytest.mark.parametrize("method, flag, value", [("lqa", "--eps0", "-1"),
                                                     ("plqa", "--tau0", "0"),
                                                     ("k-step", "--k", "0")])
    def test_bad_solver_option_is_exit_2(self, runner, toy_csv, method, flag, value):
        path, _, _ = toy_csv
        res = runner.invoke(
            cli.main,
            ["fit", "--data", str(path), "--response", "y", "--method", method,
             "--penalty", "scad:lambda=1", flag, value],
        )
        assert res.exit_code == 2, res.output
        assert flag in res.output

    def test_lambda_and_cv_conflict(self, runner, toy_csv):
        path, _, _ = toy_csv
        res = runner.invoke(
            cli.main,
            ["fit", "--data", str(path), "--response", "y", "--method", "one-step",
             "--penalty", "l1:lambda=1", "--lambda", "0.5", "--cv"],
        )
        assert res.exit_code == 2

    def test_cv_fit_runs(self, runner, toy_csv):
        path, _, _ = toy_csv
        res = runner.invoke(
            cli.main,
            ["fit", "--data", str(path), "--response", "y", "--method", "one-step",
             "--penalty", "scad:lambda=1", "--cv", "--seed", "4"],
        )
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        assert doc["lambda"] > 0
        assert 2 in doc["support"] or doc["support"] == [0, 2]

    @pytest.mark.parametrize("method", ["one-step", "lqa"])
    def test_cv_tuning_bic_picks_the_bic_lambda(self, runner, tmp_path, method):
        # weak signals, where BIC and 5-fold CV pick different grid points
        rng = np.random.default_rng(1)
        X = rng.standard_normal((40, 6))
        y = X @ np.array([1.0, 0.5, 0.0, 0.0, 0.2, 0.0]) + rng.standard_normal(40)
        path = tmp_path / "weak.csv"
        path.write_text("x1,x2,x3,x4,x5,x6,y\n" + "".join(
            ",".join(repr(float(v)) for v in (*X[i], y[i])) + "\n" for i in range(40)))
        lams = {}
        for selector in ("cv", "bic"):
            res = runner.invoke(
                cli.main,
                ["fit", "--data", str(path), "--response", "y", "--method", method,
                 "--penalty", "scad:lambda=1", "--cv", "--tuning", selector],
            )
            assert res.exit_code == 0, res.output
            lams[selector] = json.loads(res.output)["lambda"]
        d = glm.Dataset(X, y, "gaussian")
        proto = PenaltySpec("scad", 1.0)
        name = method.replace("-", "_")
        assert lams["bic"] == methods.select_lambda(name, d, proto, selector="bic")[0]
        assert lams["cv"] == methods.select_lambda(name, d, proto, selector="cv")[0]
        assert lams["bic"] != lams["cv"]

    def test_tuning_bic_without_cv_exit_2(self, runner, toy_csv):
        path, _, _ = toy_csv
        res = runner.invoke(
            cli.main,
            ["fit", "--data", str(path), "--response", "y", "--method", "one-step",
             "--penalty", "scad:lambda=1", "--tuning", "bic"],
        )
        assert res.exit_code == 2
        assert "--tuning bic needs --cv" in res.output

    def test_nonconvergence_exit_4_with_partial(self, runner, toy_csv, monkeypatch):
        path, _, _ = toy_csv
        partial = FitResult(np.zeros(3), (), 1.0, "one_step", (), 1, None, False)

        def explode(*a, **k):
            raise NonConvergence("stalled", result=partial)

        monkeypatch.setattr(cli.lla, "one_step", explode)
        out = path.parent / "partial.json"
        res = runner.invoke(
            cli.main,
            ["fit", "--data", str(path), "--response", "y", "--method", "one-step",
             "--penalty", "l1:lambda=1", "--out", str(out)],
        )
        assert res.exit_code == 4
        doc = json.loads(out.read_text())
        assert doc["converged"] is False

    @pytest.mark.parametrize("exc, code", [(NonConvergence("stalled"), 4),
                                           (SingularSystem("singular"), 3)])
    def test_tuning_failure_exit_code(self, runner, toy_csv, monkeypatch, exc, code):
        path, _, _ = toy_csv

        def explode(*a, **k):
            raise exc

        monkeypatch.setattr(cli.glm, "fit_mle", explode)
        res = runner.invoke(
            cli.main,
            ["fit", "--data", str(path), "--response", "y", "--method", "one-step",
             "--penalty", "scad:lambda=1", "--cv"],
        )
        assert res.exit_code == code, res.output
        assert res.exception is None or isinstance(res.exception, SystemExit)

    def test_out_file_written_17g(self, runner, toy_csv, tmp_path):
        path, _, _ = toy_csv
        out = tmp_path / "fit.json"
        res = runner.invoke(
            cli.main,
            ["fit", "--data", str(path), "--response", "y", "--method", "one-step",
             "--penalty", "l1:lambda=0.25", "--out", str(out)],
        )
        assert res.exit_code == 0
        doc = json.loads(out.read_text())
        reparsed = json.loads(out.read_text())
        assert doc == reparsed  # round-trip stable

    @pytest.mark.parametrize("intercept", [False, True])
    def test_subset_mle_nonconvergence_is_exit_4(self, runner, tmp_path, intercept):
        # a duplicated column makes some subsets' logistic Newton MLE fail
        d = random_dataset(3, 70, 6, "logistic")
        X = d.design.copy()
        X[:, 2] = X[:, 0]
        rows = [",".join([f"x{j + 1}" for j in range(6)] + ["y"])]
        rows += [",".join(format(v, ".17g") for v in [*x, y]) for x, y in zip(X, d.response)]
        path = tmp_path / "dup.csv"
        path.write_text("\n".join(rows) + "\n")
        res = runner.invoke(
            cli.main,
            ["fit", "--data", str(path), "--response", "y", "--family", "logistic",
             "--method", "subset"] + (["--intercept"] if intercept else []),
        )
        assert res.exit_code == 4, res.output
        assert "error: " in res.output
        assert isinstance(res.exception, SystemExit)


class TestTuningFlags:
    @pytest.mark.parametrize("argv, flag", [
        (["fit", "--cv", "--folds", "1"], "--folds"),
        (["cv", "--folds", "1"], "--folds"),
        (["path", "--n-lambda", "0"], "--n-lambda"),
        (["cv", "--n-lambda", "0"], "--n-lambda"),
        (["path", "--min-ratio", "0"], "--min-ratio"),
        (["cv", "--min-ratio", "0"], "--min-ratio"),
        (["path", "--min-ratio", "2"], "--min-ratio"),
        (["cv", "--min-ratio", "2"], "--min-ratio"),
        (["path", "--min-ratio", "nan"], "--min-ratio"),
        (["cv", "--min-ratio", "nan"], "--min-ratio"),
    ])
    def test_out_of_range_is_exit_2(self, runner, toy_csv, argv, flag):
        path, _, _ = toy_csv
        res = runner.invoke(
            cli.main,
            [*argv, "--data", str(path), "--response", "y", "--penalty", "scad:lambda=1"],
        )
        assert res.exit_code == 2, res.output
        assert flag in res.output

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_bad_lambda_is_exit_2(self, runner, toy_csv, value):
        path, _, _ = toy_csv
        res = runner.invoke(
            cli.main,
            ["fit", "--data", str(path), "--response", "y", "--penalty", "scad:lambda=1",
             "--lambda", value],
        )
        assert res.exit_code == 2, res.output
        assert "--lambda" in res.output

    @pytest.mark.parametrize("command", ["fit", "path", "cv", "threshold"])
    def test_infinite_penalty_lambda_is_exit_2(self, runner, toy_csv, command):
        path, _, _ = toy_csv
        data = [] if command == "threshold" else ["--data", str(path), "--response", "y"]
        res = runner.invoke(cli.main, [command, *data, "--penalty", "scad:lambda=inf"])
        assert res.exit_code == 2, res.output
        assert "lambda must be finite" in res.output

    @pytest.mark.parametrize("argv", [["fit", "--cv"], ["cv"]], ids=["fit", "cv"])
    def test_more_folds_than_rows_is_exit_2(self, runner, toy_csv, argv):
        path, _, _ = toy_csv  # 50 rows
        res = runner.invoke(
            cli.main,
            [*argv, "--folds", "80", "--data", str(path), "--response", "y",
             "--penalty", "scad:lambda=1"],
        )
        assert res.exit_code == 2, res.output
        assert "--folds 80 exceeds the 50 data rows" in res.output

    def test_one_fold_per_row_runs(self, runner, toy_csv):
        path, _, _ = toy_csv
        res = runner.invoke(
            cli.main,
            ["cv", "--folds", "50", "--n-lambda", "2", "--data", str(path), "--response", "y",
             "--penalty", "scad:lambda=1"],
        )
        assert res.exit_code == 0, res.output


class TestCvRefitFallback:
    """``fit --cv`` refits at the next-best grid point when the refit at the
    chosen lambda fails."""

    # lambda* = 2.0: the lowest score, its tie going to the larger lambda
    CURVE = [(4.0, 1.0), (2.0, 0.5), (1.0, 0.5), (0.5, float("inf"))]

    def _run(self, runner, toy_csv, monkeypatch, tmp_path, failing):
        path, _, _ = toy_csv
        calls = []

        def select_lambda(*args, **kwargs):
            return 2.0, list(self.CURVE)

        def fit(method, d, pen, b0=None, **kwargs):
            calls.append(pen.lam)
            res = FitResult(np.full(d.p, pen.lam), (0, 1, 2), pen.lam, method, (), 1)
            if pen.lam in failing:
                raise NonConvergence(f"no fit at {pen.lam}", result=replace(res, converged=False))
            return res

        monkeypatch.setattr(cli.methods, "select_lambda", select_lambda)
        monkeypatch.setattr(cli.methods, "fit", fit)
        out = tmp_path / "fit.json"
        res = runner.invoke(
            cli.main,
            ["fit", "--data", str(path), "--response", "y", "--method", "lqa",
             "--penalty", "scad:lambda=1", "--cv", "--out", str(out)],
        )
        return res, calls, json.loads(out.read_text())

    def test_next_best_lambda_when_the_chosen_refit_fails(self, runner, toy_csv, monkeypatch,
                                                          tmp_path):
        res, calls, doc = self._run(runner, toy_csv, monkeypatch, tmp_path, failing={2.0})
        assert res.exit_code == 0, res.output
        assert calls == [2.0, 1.0]
        assert doc["lambda"] == 1.0
        assert doc["penalty"] == "scad:lambda=1,a=3.7"
        assert doc["converged"] is True

    def test_partial_fit_at_the_chosen_lambda_when_every_refit_fails(self, runner, toy_csv,
                                                                    monkeypatch, tmp_path):
        res, calls, doc = self._run(runner, toy_csv, monkeypatch, tmp_path,
                                    failing={4.0, 2.0, 1.0, 0.5})
        assert res.exit_code == 4, res.output
        assert calls == [2.0, 1.0, 4.0]  # never the +inf point
        assert doc["lambda"] == 2.0
        assert doc["penalty"] == "scad:lambda=2,a=3.7"
        assert doc["converged"] is False


class TestSolverErrorExitCodes:
    """``fit``, ``path`` and ``cv`` share one mapping of solver errors."""

    @pytest.mark.parametrize("exc, code", [(NonConvergence("stalled"), 4),
                                           (SingularSystem("singular"), 3)],
                             ids=["nonconvergence", "singular"])
    @pytest.mark.parametrize("command, module, name",
                             [("path", lla, "one_step_path"), ("cv", cli.methods, "select_lambda")],
                             ids=["path", "cv"])
    def test_exit_code(self, runner, toy_csv, monkeypatch, command, module, name, exc, code):
        path, _, _ = toy_csv

        def explode(*a, **k):
            raise exc

        monkeypatch.setattr(module, name, explode)
        res = runner.invoke(
            cli.main,
            [command, "--data", str(path), "--response", "y", "--penalty", "scad:lambda=1"],
        )
        assert res.exit_code == code, res.output
        assert f"error: {exc}" in res.output

    def test_array_partial_is_not_written(self, runner, toy_csv, monkeypatch, tmp_path):
        path, _, _ = toy_csv

        def explode(*a, **k):
            raise NonConvergence("sweeps exhausted", result=np.zeros(3))

        monkeypatch.setattr(cli.lla, "one_step", explode)
        out = tmp_path / "fit.json"
        res = runner.invoke(
            cli.main,
            ["fit", "--data", str(path), "--response", "y", "--method", "one-step",
             "--penalty", "l1:lambda=1", "--out", str(out)],
        )
        assert res.exit_code == 4, res.output
        assert not out.exists()


class TestCvFitDispatch:
    """``fit --cv`` tunes each method with that method's own fits."""

    def test_full_lla_cv_never_runs_perturbed_lqa(self, runner, toy_csv, monkeypatch):
        path, _, _ = toy_csv
        calls = {"full_lla": 0, "perturbed_lqa_fit": 0}
        real_full_lla = lla.full_lla

        def full_lla(*a, **k):
            calls["full_lla"] += 1
            return real_full_lla(*a, **k)

        def perturbed_lqa_fit(*a, **k):
            calls["perturbed_lqa_fit"] += 1
            raise AssertionError("perturbed LQA called for --method full-lla")

        monkeypatch.setattr(lla, "full_lla", full_lla)
        monkeypatch.setattr(lqa, "perturbed_lqa_fit", perturbed_lqa_fit)
        res = runner.invoke(
            cli.main,
            ["fit", "--data", str(path), "--response", "y", "--method", "full-lla",
             "--penalty", "scad:lambda=1", "--cv", "--seed", "4"],
        )
        assert res.exit_code == 0, res.output
        assert calls["perturbed_lqa_fit"] == 0
        assert calls["full_lla"] == 5 * 100 + 1  # every fold and grid point, then the refit
        assert json.loads(res.output)["method"] == "full_lla"

    @pytest.mark.parametrize("method, fn, flag, kwarg", [
        ("lqa", "lqa_fit", "--eps0", "eps0"),
        ("plqa", "perturbed_lqa_fit", "--tau0", "tau0"),
    ])
    def test_lqa_option_reaches_every_cv_fit(self, runner, toy_csv, monkeypatch,
                                             method, fn, flag, kwarg):
        path, _, _ = toy_csv
        seen = []

        def stub(d, p, b0=None, **k):
            seen.append(k[kwarg])
            return FitResult(np.zeros(d.p), (), p.lam, method, (0.0,), 1)

        monkeypatch.setattr(lqa, fn, stub)
        res = runner.invoke(
            cli.main,
            ["fit", "--data", str(path), "--response", "y", "--method", method,
             "--penalty", "scad:lambda=1", "--cv", flag, "0.125"],
        )
        assert res.exit_code == 0, res.output
        assert len(seen) == 5 * 100 + 1
        assert set(seen) == {0.125}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("argv", [["path"], ["cv"], ["fit", "--cv"]])
def test_non_finite_lambda_max_is_exit_3(runner, extreme_csv, argv):
    # the log scales overflow the one-step quadratic before lambda_max is formed
    res = runner.invoke(cli.main, argv + ["--data", str(extreme_csv), "--response", "y",
                                          "--penalty", "log:lambda=1"])
    assert res.exit_code == 3, res.output
    assert "the one-step Hessian overflows" in res.output


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.filterwarnings("ignore::sparsefit.exceptions.RidgeFallbackWarning")
@pytest.mark.parametrize("argv", [
    pytest.param(["path", "--penalty", pen, "--intercept"], id=pen)
    for pen in ("l1:lambda=1", "lq:lambda=1,q=0.5", "log:lambda=1")
] + [
    pytest.param(["fit", "--penalty", "l1:lambda=1"], id="fit-l1"),
    pytest.param(["path", "--penalty", "l1:lambda=1"], id="path-l1"),
])
def test_overflowing_separable_path_is_exit_3(runner, huge_csv, argv):
    # every separable route forms the one-step quadratic at b0 first
    res = runner.invoke(cli.main, argv + ["--data", str(huge_csv), "--response", "y"])
    assert res.exit_code == 3, res.output
    assert "the one-step Hessian overflows" in res.output


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_gram_matrix_is_exit_3(runner, huge_csv):
    # the SCAD single fit still solves its n-row working data, whose X^T X overflows
    res = runner.invoke(cli.main, ["fit", "--penalty", "scad:lambda=1", "--data", str(huge_csv),
                                   "--response", "y"])
    assert res.exit_code == 3, res.output
    assert "the weighted lasso's Gram matrix overflows" in res.output


@pytest.mark.filterwarnings("ignore::sparsefit.exceptions.RidgeFallbackWarning")
@pytest.mark.parametrize("argv, message", [
    (["fit", "--method", method, "--penalty", "scad:lambda=1", *flag],
     "the LQA Gram matrix overflows") for method in ("lqa", "plqa")
    for flag in ([], ["--intercept"])
] + [(["fit", "--penalty", "scad:lambda=1", "--intercept"], "the SCAD working data is not finite")])
def test_overflowing_lqa_and_scad_intercept_fits_are_exit_3(runner, huge_csv, argv, message):
    # the Gaussian LQA Gram matrix overflows; with an intercept the MLE start is
    # not finite either, and neither is the SCAD single fit's working response
    res = runner.invoke(cli.main, argv + ["--data", str(huge_csv), "--response", "y"])
    assert res.exit_code == 3, res.output
    assert message in res.output


@pytest.mark.parametrize("argv", [["path", "--penalty", "l1:lambda=1"],
                                  ["cv", "--penalty", "log:lambda=1", "--folds", "2"],
                                  ["fit", "--cv", "--folds", "2", "--penalty", "scad:lambda=1"],
                                  ["fit", "--method", "lqa", "--penalty", "scad:lambda=1"]])
def test_all_zero_design_falls_back_to_a_ridge(runner, zero_column_csv, argv):
    # the ridge of the singular MLE system is 1e-6 * mean(diag X^T X) = 0: it
    # falls back to 1e-6, so the MLE and every fit are 0
    with pytest.warns(RidgeFallbackWarning):
        res = runner.invoke(cli.main, argv + ["--data", str(zero_column_csv), "--response", "y"])
    assert res.exit_code == 0, res.output
    if argv[0] == "fit":
        assert json.loads(res.output)["coefficients"] == [0.0]
    else:  # path: every coefficient 0; cv: every loss the zero model's mean y^2
        rows = [line.split(",") for line in res.output.splitlines()
                if line[0].isdigit()]
        assert {row[1] for row in rows} == {"0" if argv[0] == "path" else "9.75"}


@pytest.mark.parametrize("argv", [["fit", "--penalty", "l1:lambda=1"],
                                  ["path", "--penalty", "l1:lambda=1"],
                                  ["path", "--penalty", "scad:lambda=1"],
                                  ["cv", "--penalty", "scad:lambda=1"],
                                  ["fit", "--cv", "--penalty", "scad:lambda=1"]]
                         + [["fit", "--method", method, "--penalty", "scad:lambda=1", *flag]
                            for method in ("lqa", "plqa") for flag in ([], ["--intercept"])]
                         + [["path", "--penalty", "l1:lambda=1", "--intercept"],
                            ["fit", "--penalty", "scad:lambda=1", "--intercept"]])
def test_overflowing_data_exits_3_without_runtime_warnings(runner, huge_csv, argv):
    # the overflowing products are checked, so numpy's warnings would only
    # print source lines ahead of the error
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        res = runner.invoke(cli.main, argv + ["--data", str(huge_csv), "--response", "y"])
    assert res.exit_code == 3, res.output
    assert not [w for w in record if issubclass(w.category, RuntimeWarning)]


def test_singular_lqa_system_prints_only_the_fallback_warning_and_the_error(tmp_path):
    # lambda = 0 and x3 = x1: the MLE start falls back to a ridge, and the first
    # LQA system is exactly singular
    import os
    import subprocess
    import sys

    rng = np.random.default_rng(7)
    X = rng.standard_normal((30, 3))
    X[:, 2] = X[:, 0]
    y = X[:, 0] + rng.standard_normal(30)
    path = tmp_path / "dup.csv"
    path.write_text("x1,x2,x3,y\n" + "".join(
        ",".join(repr(float(v)) for v in (*X[i], y[i])) + "\n" for i in range(30)))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "sparsefit", "fit", "--method", "lqa", "--penalty",
         "scad:lambda=0", "--data", str(path), "--response", "y"],
        capture_output=True, text=True, env=env,
    )
    assert (proc.returncode, proc.stdout) == (3, ""), proc.stderr
    lines = proc.stderr.splitlines()
    assert [line for line in lines if "Warning" in line] == [lines[0]], proc.stderr
    assert lines[0].endswith("RidgeFallbackWarning: rank-deficient design; "
                             "ridge-stabilized least squares")
    assert lines[1:] == ["  b0 = glm.fit_mle(d)", "error: ridge Newton system is singular"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("argv", [["cv"], ["fit", "--cv"]])
def test_all_infinite_cv_curve_is_exit_3(runner, extreme_csv, argv):
    res = runner.invoke(cli.main, argv + ["--data", str(extreme_csv), "--response", "y",
                                          "--penalty", "lq:lambda=1,q=0.5"])
    assert res.exit_code == 3, res.output
    assert "no lambda on the grid has a finite cv score" in res.output


class TestPath:
    def test_profile_endpoints(self, runner, toy_csv):
        path, X, y = toy_csv
        res = runner.invoke(
            cli.main,
            ["path", "--data", str(path), "--response", "y",
             "--penalty", "scad:lambda=1", "--n-lambda", "25", "--min-ratio", "1e-5"],
        )
        assert res.exit_code == 0, res.output
        lines = res.output.strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "lambda"
        first = np.array([float(v) for v in lines[1].split(",")])
        last = np.array([float(v) for v in lines[-1].split(",")])
        assert np.all(first[1:] == 0.0)
        ols = np.linalg.lstsq(X, y, rcond=None)[0]
        assert np.max(np.abs(last[1:] - ols)) < 1e-4

    def test_scad_rows_satisfy_kkt(self, runner, toy_csv):
        from sparsefit import penalty as pen_mod
        from sparsefit import wlasso
        from sparsefit.penalty import PenaltySpec

        path, X, y = toy_csv
        res = runner.invoke(
            cli.main,
            ["path", "--data", str(path), "--response", "y",
             "--penalty", "scad:lambda=1", "--n-lambda", "10"],
        )
        assert res.exit_code == 0
        d = glm.Dataset(X, y, "gaussian")
        b0 = glm.fit_mle(d)
        for line in res.output.strip().splitlines()[1:]:
            vals = np.array([float(v) for v in line.split(",")])
            lam, beta = vals[0], vals[1:]
            spec = PenaltySpec("scad", lam)
            w = np.array([d.n * pen_mod.derivative(spec, abs(t)) for t in b0])
            prob = wlasso.WlassoProblem(X, X @ b0, w)
            assert wlasso.certify_kkt(prob, beta) <= 1e-6


class TestCv:
    def test_single_point_grid_reported(self, runner, toy_csv):
        path, X, y = toy_csv
        res = runner.invoke(
            cli.main,
            ["cv", "--data", str(path), "--response", "y",
             "--penalty", "scad:lambda=1", "--n-lambda", "1", "--seed", "3"],
        )
        assert res.exit_code == 0, res.output
        lines = res.output.strip().splitlines()
        lam_star = float(lines[0].split("=")[1])
        assert lines[1] == "lambda,loss"
        assert len(lines) == 3
        d = glm.Dataset(X, y, "gaussian")
        assert lam_star == pytest.approx(lla.one_step_lambda_max(d, cli.parse_penalty("scad:lambda=1")))


class TestThresholdCmd:
    def test_one_step_scad_curve(self, runner):
        res = runner.invoke(
            cli.main,
            ["threshold", "--penalty", "scad:lambda=2,a=3.7", "--mode", "one-step",
             "--zmin", "-10", "--zmax", "10", "--step", "0.5"],
        )
        assert res.exit_code == 0, res.output
        lines = res.output.strip().splitlines()
        assert lines[0] == "# discontinuities: none"
        assert lines[1] == "z,theta"
        table = {float(l.split(",")[0]): float(l.split(",")[1]) for l in lines[2:]}
        assert table[8.0] == 8.0
        assert table[1.0] == 0.0

    def test_bridge_at_subnormal_z(self, runner):
        # the derivative's power overflows at z = 5e-324: +inf, so theta = 0
        res = runner.invoke(
            cli.main,
            ["threshold", "--penalty", "lq:lambda=2,q=0.01", "--mode", "one-step",
             "--zmin", "0", "--zmax", "1e-323", "--step", "5e-324"],
        )
        assert res.exit_code == 0, res.output
        lines = res.output.strip().splitlines()
        assert lines[:2] == ["# discontinuities: none", "z,theta"]
        rows = [tuple(map(float, line.split(","))) for line in lines[2:]]
        assert 5e-324 in [z for z, _ in rows]
        assert all(theta == 0.0 for _, theta in rows)

    @pytest.mark.parametrize("zmin, zmax, step, zs", [
        ("0", "1e-323", "5e-324", [0.0, 5e-324, 1e-323]),
        # arange's second point rounds to zmax itself, which the grid then holds once
        ("1e16", "1.0000000000000002e16", "1.5", [1e16, 1.0000000000000002e16]),
    ])
    def test_grid_ends_at_zmax_when_half_a_step_rounds_away(self, runner, zmin, zmax, step, zs):
        res = runner.invoke(
            cli.main,
            ["threshold", "--penalty", "l1:lambda=1", "--mode", "one-step",
             "--zmin", zmin, "--zmax", zmax, "--step", step],
        )
        assert res.exit_code == 0, res.output
        lines = res.output.strip().splitlines()
        assert [float(line.split(",")[0]) for line in lines[2:]] == zs

    def test_bad_range_exit_2(self, runner):
        res = runner.invoke(
            cli.main,
            ["threshold", "--penalty", "l1:lambda=1", "--zmin", "2", "--zmax", "1"],
        )
        assert res.exit_code == 2

    @pytest.mark.parametrize(
        "flag, value",
        [("--zmax", "inf"), ("--zmin", "-inf"), ("--step", "inf"), ("--zmax", "nan"), ("--step", "nan")],
    )
    def test_non_finite_bound_exit_2(self, runner, flag, value):
        res = runner.invoke(
            cli.main, ["threshold", "--penalty", "scad:lambda=2", "--mode", "exact", flag, value]
        )
        assert res.exit_code == 2, res.output
        assert "must be finite" in res.output


class TestSimulate:
    CONFIG = """
[demo]
example = linear
n = 40
replications = 4
seed = 9
methods = one-step:scad, subset:bic
"""

    def test_byte_identical_across_runs_and_threads(self, runner, tmp_path):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(self.CONFIG)
        outs = []
        texts = []
        for i, threads in enumerate(("1", "2", "1")):
            out = tmp_path / f"rep{i}.json"
            res = runner.invoke(
                cli.main,
                ["simulate", "--config", str(cfg), "--threads", threads, "--out", str(out)],
            )
            assert res.exit_code == 0, res.output
            outs.append(out.read_bytes())
            texts.append(res.output)
        assert outs[0] == outs[1] == outs[2]
        assert texts[0] == texts[1] == texts[2]

    def test_reps_and_seed_overrides(self, runner, tmp_path):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(self.CONFIG)
        out = tmp_path / "r.json"
        res = runner.invoke(
            cli.main,
            ["simulate", "--config", str(cfg), "--reps", "2", "--seed", "1", "--out", str(out)],
        )
        assert res.exit_code == 0, res.output
        doc = json.loads(out.read_text())
        assert doc["demo"]["replications"] == 2
        assert doc["demo"]["seed"] == 1
        assert doc["demo"]["schema"] == "sparsefit/1"

    def test_unknown_tuning_exit_3(self, runner, tmp_path):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(self.CONFIG + "tuning = gcv\n")
        res = runner.invoke(cli.main, ["simulate", "--config", str(cfg)])
        assert res.exit_code == 3
        assert "tuning" in res.output

    def test_unknown_key_exit_3(self, runner, tmp_path):
        # a misspelling, and values the design fixes (sim.RHO, sim.TEST_POINTS, tuning's defaults)
        for line in ("n_lamda = 5", "rho = 0.5", "test_points = 10000", "cv_folds = 5",
                     "lambda_min_ratio = 0.001"):
            cfg = tmp_path / "demo.cfg"
            cfg.write_text(self.CONFIG + line + "\n")
            res = runner.invoke(cli.main, ["simulate", "--config", str(cfg)])
            assert res.exit_code == 3, (line, res.output)
            assert f"unknown config key {line.split()[0]!r}" in res.output

    def test_missing_scenario_exit_3(self, runner, tmp_path):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(self.CONFIG)
        res = runner.invoke(cli.main, ["simulate", "--config", str(cfg), "--scenario", "nope"])
        assert res.exit_code == 3

    @pytest.mark.parametrize("line", ["n_lambda = 0"])
    def test_bad_tuning_key_exit_3(self, runner, tmp_path, line):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(self.CONFIG + line + "\n")
        res = runner.invoke(cli.main, ["simulate", "--config", str(cfg)])
        assert res.exit_code == 3, res.output
        assert f"[demo] {line.split()[0]}" in res.output

    @pytest.mark.parametrize("method", ["one-step:scad(a=1.5)", "one-step:lq(q=1.5)"])
    def test_bad_method_parameter_exit_3(self, runner, tmp_path, method):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(self.CONFIG.replace("one-step:scad", method))
        res = runner.invoke(cli.main, ["simulate", "--config", str(cfg)])
        assert res.exit_code == 3, res.output
        assert "[demo]" in res.output
