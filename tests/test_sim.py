import math

import numpy as np
import pytest

from sparsefit import jsonio, sim
from sparsefit.exceptions import NonConvergence
from sparsefit.lla import FitResult
from sparsefit.penalty import PenaltySpec
from sparsefit.sim import MethodSpec, ScenarioSpec, parse_method


def tiny_spec(example="linear", methods=("oracle",), n=40, reps=4, seed=5, **kw):
    return ScenarioSpec(example, n, reps, tuple(methods), seed=seed, **kw)


class TestArCovariance:
    def test_entries(self):
        S = sim.ar_covariance(12, 0.5)
        assert np.all(np.diag(S) == 1.0)
        assert S[0, 1] == 0.5
        assert S[0, 2] == 0.25
        assert np.allclose(S, S.T)

    def test_rho_bounds(self):
        with pytest.raises(ValueError):
            sim.ar_covariance(3, 1.0)


class TestGenerators:
    def test_linear_deterministic(self):
        spec = tiny_spec()
        a = sim.generate(spec, 3)
        b = sim.generate(spec, 3)
        assert np.array_equal(a.design, b.design)
        assert np.array_equal(a.response, b.response)
        c = sim.generate(spec, 4)
        assert not np.array_equal(a.response, c.response)

    def test_linear_null_model_is_standard_normal(self):
        spec = tiny_spec(n=100_000, beta_true=(0.0,) * 12)
        d = sim.generate(spec, 0)
        assert abs(d.response.mean()) < 0.02
        assert abs(d.response.std() - 1.0) < 0.02

    def test_covariance_law_of_large_numbers(self):
        # 10^6 draws, accumulated in chunks; entrywise within 0.01
        spec = tiny_spec(n=10, seed=123)
        S = sim.ar_covariance(12, 0.5)
        total = np.zeros((12, 12))
        rng = np.random.default_rng(99)
        chol = np.linalg.cholesky(S)
        n_total = 1_000_000
        for _ in range(10):
            z = rng.standard_normal((n_total // 10, 12)) @ chol.T
            total += z.T @ z
        emp = total / n_total
        assert np.max(np.abs(emp - S)) < 0.01

    def test_logistic_binary_coordinates(self):
        spec = tiny_spec("logistic", n=200)
        d = sim.generate(spec, 0)
        evens = d.design[:, 1::2]
        assert set(np.unique(evens)) <= {0.0, 1.0}
        odds = d.design[:, 0::2]
        assert np.unique(odds).size > 2

    def test_logistic_binary_marginal_mean(self):
        spec = tiny_spec("logistic", n=100_000)
        d = sim.generate(spec, 1)
        means = d.design[:, 1::2].mean(axis=0)
        assert np.all(np.abs(means - 0.5) < 0.01)

    def test_logistic_null_model(self):
        spec = tiny_spec("logistic", n=100_000, beta_true=(0.0,) * 12)
        d = sim.generate(spec, 0)
        assert abs(d.response.mean() - 0.5) < 0.01

    def test_poisson_null_model_mean_one(self):
        spec = tiny_spec("poisson", n=100_000, beta_true=(0.0,) * 12)
        d = sim.generate(spec, 0)
        assert abs(d.response.mean() - 1.0) < 0.02

    @pytest.mark.parametrize("example", ["linear", "logistic", "poisson"])
    def test_generators_deterministic_per_replication(self, example):
        spec = tiny_spec(example, n=60)
        a = sim.generate(spec, 2)
        b = sim.generate(spec, 2)
        assert np.array_equal(a.design, b.design)
        assert np.array_equal(a.response, b.response)

    def test_poisson_conditional_mean_tracks_exp(self):
        spec = tiny_spec("poisson", n=100_000)
        d = sim.generate(spec, 2)
        mu = d.design @ np.asarray(spec.beta_true)
        for lo in np.arange(-1.5, 1.5, 0.5):
            mask = (mu >= lo) & (mu < lo + 0.5)
            if mask.sum() < 500:
                continue
            expected = np.exp(mu[mask]).mean()
            observed = d.response[mask].mean()
            se = math.sqrt(expected / mask.sum()) + 1e-9
            assert abs(observed - expected) < 6 * se + 0.02 * expected


class TestModelError:
    @pytest.mark.parametrize("family", ["gaussian", "poisson"])
    def test_zero_at_truth(self, family):
        S = sim.ar_covariance(5, 0.5)
        b = np.array([1.0, 0.0, 2.0, 0.0, 0.5])
        assert sim.model_error(family, b, b, S) == pytest.approx(0.0, abs=1e-12)

    def test_logistic_zero_at_truth(self):
        X = np.random.default_rng(0).standard_normal((100, 3))
        b = np.array([1.0, -1.0, 0.0])
        assert sim.model_error("logistic", b, b, test_design=X) == 0.0

    def test_linear_unit_shift(self):
        S = sim.ar_covariance(12, 0.5)
        bt = np.zeros(12)
        bh = bt.copy()
        bh[0] = 1.0
        assert sim.model_error("gaussian", bh, bt, S) == pytest.approx(1.0)

    def test_poisson_mgf_value(self):
        # frozen from M(2 bh) - 2 M(bh + bt) + M(2 bt) with Sigma_11 = 1:
        # e^2 - 2 sqrt(e) + 1
        S = sim.ar_covariance(12, 0.5)
        bt = np.zeros(12)
        bh = bt.copy()
        bh[0] = 1.0
        expect = math.exp(2.0) - 2.0 * math.exp(0.5) + 1.0
        assert expect == pytest.approx(5.091613557530394, abs=1e-12)
        assert sim.model_error("poisson", bh, bt, S) == pytest.approx(expect, rel=1e-12)

    def test_poisson_mgf_against_monte_carlo(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(1_000_000)
        mc = np.mean((np.exp(x) - 1.0) ** 2)
        S = np.eye(1)
        val = sim.model_error("poisson", np.array([1.0]), np.array([0.0]), S)
        assert val == pytest.approx(mc, rel=0.05)

    def test_logistic_requires_test_design(self):
        with pytest.raises(ValueError):
            sim.model_error("logistic", np.zeros(2), np.zeros(2))


class TestParseMethod:
    @pytest.mark.parametrize(
        "text, kind, label",
        [
            ("one-step:scad", "one_step", "One-step SCAD"),
            ("one-step:log", "one_step", "One-step LOG"),
            ("one-step:lq(q=0.01)", "one_step", "One-step L_0.01"),
            ("lqa:scad", "lqa", "SCAD"),
            ("plqa:scad", "plqa", "P-SCAD"),
            ("subset:aic", "subset", "AIC"),
            ("bic", "subset", "BIC"),
            ("oracle", "oracle", "Oracle"),
            ("full", "full", "Full model"),
            ("one-step:scad(a=3)", "one_step", "One-step SCAD(a=3)"),
            ("one-step:scad(a=3.7)", "one_step", "One-step SCAD"),
            ("lqa:scad(a=2.5)", "lqa", "SCAD(a=2.5)"),
            ("plqa:scad(a=3)", "plqa", "P-SCAD(a=3)"),
            ("lqa:lq(q=0.5)", "lqa", "LQA L_0.5"),
            ("plqa:lq(q=0.3)", "plqa", "P-LQA L_0.3"),
            ("lqa:log", "lqa", "LQA LOG"),
        ],
    )
    def test_labels(self, text, kind, label):
        m = parse_method(text)
        assert m.kind == kind
        assert m.label == label

    @pytest.mark.parametrize("bad", ["one-step", "one-step:l0", "subset:cp", "lq", "one-step:lq",
                                     "one-step:scad(a=1.5)", "one-step:lq(q=1.5)",
                                     "one-step:scad(lambda=2)"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_method(bad)

    def test_penalty_keeps_the_parsed_shape(self):
        m = parse_method("lqa:scad(a=3)")
        assert m.pen == PenaltySpec("scad", 1.0, a=3.0)


class TestScenarioSpec:
    def test_defaults(self):
        spec = tiny_spec()
        assert spec.beta_true == sim.BETA_MAIN
        assert spec.true_support == (0, 1, 4)
        spec_p = tiny_spec("poisson")
        assert spec_p.beta_true == sim.BETA_POISSON

    def test_p_not_12_needs_beta(self):
        with pytest.raises(ValueError):
            ScenarioSpec("linear", 20, 2, ("oracle",), p=5)

    def test_beta_length_checked(self):
        with pytest.raises(ValueError):
            ScenarioSpec("linear", 20, 2, ("oracle",), beta_true=(1.0, 2.0))

    def test_logistic_needs_even_p(self):
        with pytest.raises(ValueError):
            ScenarioSpec("logistic", 20, 2, ("oracle",), p=11, beta_true=(0.0,) * 11)

    def test_methods_parsed(self):
        spec = tiny_spec(methods=("one-step:scad", "bic"))
        assert all(isinstance(m, MethodSpec) for m in spec.methods)

    def test_tuning_validated(self):
        assert tiny_spec().tuning == "cv"
        with pytest.raises(ValueError):
            tiny_spec(tuning="gcv")

    @pytest.mark.parametrize("key, value", [("cv_folds", 1), ("cv_folds", 31), ("n_lambda", 0),
                                            ("lambda_min_ratio", 0.0), ("lambda_min_ratio", 2.0),
                                            ("lambda_min_ratio", math.nan)])
    def test_tuning_keys_validated(self, key, value):
        with pytest.raises(ValueError, match=key):
            tiny_spec(n=30, **{key: value})


class TestRunScenario:
    def test_oracle_stub_metrics(self):
        rep = sim.run_scenario(tiny_spec(methods=("oracle",), reps=5))
        row = rep.rows[0]
        assert row.mrme == 0.0
        assert row.c == 3.0
        assert row.ic == 0.0
        assert row.correctfit == 1.0

    def test_full_model_stub_metrics(self):
        rep = sim.run_scenario(tiny_spec(methods=("full",), reps=5))
        row = rep.rows[0]
        assert row.mrme == pytest.approx(1.0)
        assert row.ic == pytest.approx(9.0)
        assert row.overfit == 1.0

    def test_classification_partitions(self):
        rep = sim.run_scenario(tiny_spec(methods=("one-step:scad",), reps=6, n=50))
        row = rep.rows[0]
        assert row.underfit + row.correctfit + row.overfit == pytest.approx(1.0, abs=1e-12)

    def test_underfit_iff_c_below_three(self):
        spec = tiny_spec(methods=("one-step:scad",), reps=6, n=30, seed=11)
        for r in range(spec.replications):
            rows = sim._run_replication(spec, r)
            _, c, _, cls = rows[0]
            assert (cls == "under") == (c < 3)

    @pytest.mark.parametrize("methods", [
        ("one-step:scad", "one-step:scad(a=3)"),
        # both labelled "One-step L_0.5": rows go by position, not by label
        ("one-step:lq(q=0.5)", "one-step:lq(q=0.5000001)"),
    ])
    def test_each_method_keeps_its_own_row(self, methods):
        both = sim.run_scenario(tiny_spec(methods=methods, reps=3, n=40, seed=4))
        for m, row in zip(methods, both.rows):
            alone = sim.run_scenario(tiny_spec(methods=(m,), reps=3, n=40, seed=4))
            assert row == alone.rows[0]

    def test_byte_identical_reports_across_threads(self):
        spec = tiny_spec(methods=("one-step:scad", "bic"), reps=5, n=40, seed=2)
        serial = jsonio.dumps(sim.run_scenario(spec, threads=1).to_dict())
        parallel = jsonio.dumps(sim.run_scenario(spec, threads=2).to_dict())
        assert serial == parallel

    def test_bic_tuned_reports_byte_identical_across_threads(self):
        spec = tiny_spec(methods=("one-step:scad", "one-step:log"), reps=5, n=40, seed=2,
                         tuning="bic")
        serial = jsonio.dumps(sim.run_scenario(spec, threads=1).to_dict())
        parallel = jsonio.dumps(sim.run_scenario(spec, threads=2).to_dict())
        assert serial == parallel
        assert '"failures": 0,' in serial

    def test_bic_tuning_bypasses_cv(self, monkeypatch):
        def no_cv(*args, **kwargs):
            raise AssertionError("cv_select called under tuning='bic'")

        monkeypatch.setattr(sim.tuning, "cv_select", no_cv)
        spec = tiny_spec(methods=("one-step:scad",), n=40, tuning="bic")
        data = sim.generate(spec, 0)
        b_full = sim.glm.fit_mle(data)
        beta = sim._fit_penalized(spec, spec.methods[0], data, b_full, cv_seed=0)
        assert beta.shape == (spec.p,)

    def test_bic_tuning_reuses_the_full_data_mle(self, monkeypatch):
        calls = []
        real = sim.glm.fit_mle

        def counting(d, *args, **kwargs):
            calls.append(d)
            return real(d, *args, **kwargs)

        monkeypatch.setattr(sim.glm, "fit_mle", counting)
        spec = tiny_spec(methods=("one-step:scad", "one-step:log"), n=40, tuning="bic")
        sim._run_replication(spec, 0)
        assert len(calls) == 1

    def test_repeat_runs_identical(self):
        spec = tiny_spec(methods=("one-step:log",), reps=4, n=40, seed=3)
        a = jsonio.dumps(sim.run_scenario(spec).to_dict())
        b = jsonio.dumps(sim.run_scenario(spec).to_dict())
        assert a == b

    def test_table_formatting(self):
        rep = sim.run_scenario(tiny_spec(methods=("oracle", "full"), reps=3))
        text = sim.format_table(rep)
        assert "MRME" in text and "Correct-fit" in text
        assert "Oracle" in text and "Full model" in text

    def test_failures_counted_and_tolerated(self, monkeypatch):
        spec = tiny_spec(methods=("oracle",), reps=4)
        real = sim._run_replication

        def flaky(s, r):
            if r == 0:
                raise NonConvergence("boom")
            return real(s, r)

        monkeypatch.setattr(sim, "_run_replication", flaky)
        rep = sim.run_scenario(spec)
        assert rep.failures == 1
        assert rep.replications_used == 3
        assert not rep.valid  # 25% > 2%

    def test_programming_errors_propagate(self, monkeypatch):
        spec = tiny_spec(methods=("oracle",), reps=4)
        real = sim._run_replication

        def buggy(s, r):
            if r == 0:
                raise RuntimeError("boom")
            return real(s, r)

        monkeypatch.setattr(sim, "_run_replication", buggy)
        with pytest.raises(RuntimeError, match="boom"):
            sim.run_scenario(spec)


class TestRefitFallback:
    # lambda* = 2.0: the lowest score, its tie going to the larger lambda
    CURVE = [(4.0, 1.0), (2.0, 0.5), (1.0, 0.5), (0.5, math.inf), (0.25, 0.7)]

    def _stub(self, monkeypatch, failing):
        calls = []

        def select_lambda(*args, **kwargs):
            return 2.0, list(self.CURVE)

        def fit(method, d, pen, b0=None, **kwargs):
            calls.append(pen.lam)
            if pen.lam in failing:
                raise NonConvergence(f"no fit at {pen.lam}")
            return FitResult(np.full(d.p, pen.lam), (), pen.lam, method, (), 1)

        monkeypatch.setattr(sim.methods, "select_lambda", select_lambda)
        monkeypatch.setattr(sim.methods, "fit", fit)
        return calls

    def test_next_best_lambda_refit_when_the_chosen_one_fails(self, monkeypatch):
        calls = self._stub(monkeypatch, failing={2.0, 1.0})
        spec = tiny_spec(methods=("lqa:scad",))
        data = sim.generate(spec, 0)
        beta = sim._fit_penalized(spec, spec.methods[0], data, None, cv_seed=0)
        assert calls == [2.0, 1.0, 0.25]
        assert np.all(beta == 0.25)

    def test_replication_fails_when_every_refit_fails(self, monkeypatch):
        calls = self._stub(monkeypatch, failing={4.0, 2.0, 1.0, 0.5, 0.25})
        rep = sim.run_scenario(tiny_spec(methods=("lqa:scad",), reps=2))
        assert rep.failures == 2
        assert rep.failure_messages[0] == "failed: NonConvergence: no fit at 2.0"
        assert calls == [2.0, 1.0, 0.25, 4.0] * 2  # never the +inf point

    def test_replication_with_no_finite_score_is_a_recorded_failure(self, monkeypatch):
        real = sim.methods.fit

        def fit(method, *args, **kwargs):  # every LQA grid fit fails: its scores are +inf
            if method == "lqa":
                raise NonConvergence("stub failure")
            return real(method, *args, **kwargs)

        monkeypatch.setattr(sim.methods, "fit", fit)
        rep = sim.run_scenario(tiny_spec(methods=("one-step:scad", "lqa:scad"), reps=2))
        # the whole replication is lost, the one-step row with it
        assert rep.failures == 2 and rep.replications_used == 0
        assert rep.failure_messages == (
            "failed: DataError: no lambda on the grid has a finite cv score",) * 2
        assert '"failures": 2,' in jsonio.dumps(rep.to_dict())
        assert "One-step SCAD" in sim.format_table(rep)

    def test_lqa_replication_whose_chosen_refit_does_not_converge(self):
        # at lambda* the full-data LQA refit of this replication does not converge
        spec = ScenarioSpec("linear", 50, 1, ("lqa:scad", "plqa:scad"), seed=20, n_lambda=10)
        rep = sim.run_scenario(spec)
        assert rep.failures == 0 and rep.valid
