import itertools
import math
import warnings

import numpy as np
import pytest

from sparsefit import glm, subset
from sparsefit.exceptions import NonConvergence, RidgeFallbackWarning, TooManyPredictors

from conftest import random_dataset


def make_strong_signal(n=100):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((n, 1))
    y = 5.0 * x[:, 0] + 0.5 * rng.standard_normal(n)
    return glm.Dataset(x, y, "gaussian")


def independent_best(d, criterion):
    """Re-enumeration oracle built on full Dataset MLE fits."""
    lam_crit = subset.criterion_multiplier(criterion, d.n)
    best, best_score = None, -math.inf
    for size in range(d.p + 1):
        for cols in itertools.combinations(range(d.p), size):
            if cols:
                sub = glm.Dataset(d.design[:, list(cols)], d.response, d.family, d.intercept)
                beta_sub = glm.fit_mle(sub)
                if d.family == "gaussian":
                    resid = sub.response - sub.model_matrix @ beta_sub
                    two_ll = -d.n * math.log(float(resid @ resid) / d.n)
                else:
                    two_ll = 2.0 * glm.loglik(sub, beta_sub)
            else:
                if d.family == "gaussian":
                    rss = float(d.response @ d.response)
                    two_ll = -d.n * math.log(rss / d.n)
                else:
                    two_ll = 2.0 * glm.loglik(d, np.zeros(d.n_coef))
            score = two_ll - lam_crit * len(cols)
            if score > best_score:
                best, best_score = cols, score
    return best, best_score


def per_subset_fits(d):
    """Oracle for a GLM enumeration: one fit_mle per subset on its own Dataset.

    Maps each subset to ``(two_ll, model_beta)``.
    """
    out = {}
    offset = 1 if d.intercept else 0
    for size in range(d.p + 1):
        for cols in itertools.combinations(range(d.p), size):
            beta = np.zeros(d.n_coef)
            if cols:
                sub = glm.Dataset(d.design[:, list(cols)], d.response, d.family, d.intercept)
            elif d.intercept:
                sub = glm.Dataset(np.ones((d.n, 1)), d.response, d.family)
            else:
                out[cols] = (2.0 * glm.loglik(d, beta), beta)
                continue
            b = glm.fit_mle(sub)
            beta[([0] if d.intercept else []) + [j + offset for j in cols]] = b
            out[cols] = (2.0 * glm.loglik(sub, b), beta)
    return out


class TestExamples:
    @pytest.mark.parametrize("criterion", ["aic", "bic"])
    def test_strong_signal_selected(self, criterion):
        d = make_strong_signal()
        fit = subset.best_subset(d, criterion)
        assert fit.support == (0,)

    def test_pure_noise_bic_empty(self):
        rng = np.random.default_rng(11)
        n = 100
        d = glm.Dataset(rng.standard_normal((n, 3)), rng.standard_normal(n), "gaussian")
        # the instance is constructed so no single variable earns log(100)
        fits = subset.enumerate_subset_fits(d)
        null_ll = next(ll for cols, ll, _ in fits if cols == ())
        singles = [ll for cols, ll, _ in fits if len(cols) == 1]
        assert max(singles) - null_ll < math.log(n)
        fit = subset.best_subset(d, "bic")
        assert fit.support == ()

    def test_bic_score_below_aic_for_fixed_subset(self):
        d = random_dataset(2, 50, 4)
        fits = subset.enumerate_subset_fits(d)
        for cols, two_ll, _ in fits:
            aic = two_ll - subset.criterion_multiplier("aic", d.n) * len(cols)
            bic = two_ll - subset.criterion_multiplier("bic", d.n) * len(cols)
            assert bic <= aic


@pytest.mark.parametrize("family", ["gaussian", "logistic", "poisson"])
@pytest.mark.parametrize("criterion", ["aic", "bic"])
def test_matches_independent_enumeration(family, criterion):
    d = random_dataset(5, 60, 5, family)
    fit = subset.best_subset(d, criterion)
    oracle_cols, oracle_score = independent_best(d, criterion)
    assert fit.support == oracle_cols
    assert fit.objective_trace[0] == pytest.approx(oracle_score, abs=1e-6)


def test_returned_score_dominates_every_subset():
    d = random_dataset(7, 50, 6)
    fit = subset.best_subset(d, "bic")
    fits = subset.enumerate_subset_fits(d)
    lam_crit = subset.criterion_multiplier("bic", d.n)
    scores = [ll - lam_crit * len(cols) for cols, ll, _ in fits]
    assert fit.objective_trace[0] >= max(scores) - 1e-12


def test_tie_broken_toward_smaller_subset():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((40, 1))
    X = np.column_stack([x, x])  # identical columns: {0} and {1} tie exactly
    y = 3.0 * x[:, 0] + 0.1 * rng.standard_normal(40)
    d = glm.Dataset(X, y, "gaussian")
    fit = subset.best_subset(d, "bic")
    assert fit.support == (0,)


def test_profile_likelihood_is_scale_consistent():
    d = random_dataset(17, 50, 3)
    fits = {cols: ll for cols, ll, _ in subset.enumerate_subset_fits(d)}

    def rss(cols):
        if not cols:
            return float(d.response @ d.response)
        X = d.design[:, list(cols)]
        beta = np.linalg.lstsq(X, d.response, rcond=None)[0]
        r = d.response - X @ beta
        return float(r @ r)

    for a, b in [((), (0,)), ((0,), (0, 1)), ((1, 2), (0, 1, 2))]:
        # the dropped additive constant cancels in every pairwise comparison
        assert fits[a] - fits[b] == pytest.approx(-d.n * math.log(rss(a) / rss(b)), abs=1e-8)


def test_zero_padding_and_coefficients():
    d = random_dataset(19, 60, 4)
    fit = subset.best_subset(d, "bic")
    assert fit.coefficients.shape == (4,)
    for j in range(4):
        if j not in fit.support:
            assert fit.coefficients[j] == 0.0


def test_intercept_always_included():
    rng = np.random.default_rng(23)
    X = rng.standard_normal((50, 2))
    y = 4.0 + 0.05 * rng.standard_normal(50)
    d = glm.Dataset(X, y, "gaussian", intercept=True)
    fit = subset.best_subset(d, "bic")
    assert fit.support == ()
    assert fit.intercept == pytest.approx(4.0, abs=0.1)


def test_too_many_predictors():
    d = random_dataset(29, 30, subset.MAX_P + 1)
    with pytest.raises(TooManyPredictors):
        subset.best_subset(d, "bic")


def test_bad_criterion():
    d = random_dataset(0, 10, 2)
    with pytest.raises(ValueError):
        subset.best_subset(d, "hqic")


class TestLockstepEnumeration:
    """GLM subsets are fit as chunked stacks; each must match its own MLE."""

    @pytest.mark.parametrize("family", ["logistic", "poisson"])
    @pytest.mark.parametrize("intercept", [False, True])
    def test_every_subset_matches_its_own_mle(self, monkeypatch, family, intercept):
        base = random_dataset(31, 80, 6, family)
        d = glm.Dataset(base.design, base.response, family, intercept)
        monkeypatch.setattr(subset, "_STACK_FLOATS", 1000)
        stacks = []
        real = glm._newton_mle

        def recording(X, *args, **kwargs):
            stacks.append(X.shape)
            return real(X, *args, **kwargs)

        monkeypatch.setattr(glm, "_newton_mle", recording)
        fits = subset.enumerate_subset_fits(d)
        # the cap splits one size into several stacks of more than one member
        per_size = {}
        for m, _, k in stacks:
            per_size.setdefault(k, []).append(m)
        assert max(len(ms) for ms in per_size.values()) > 1
        assert max(max(ms) for ms in per_size.values()) > 1
        assert all(m * 80 * k <= 1000 or m == 1 for m, _, k in stacks)

        oracle = per_subset_fits(d)
        assert [cols for cols, _, _ in fits] == list(oracle)
        for cols, two_ll, beta in fits:
            want_ll, want_beta = oracle[cols]
            assert abs(two_ll - want_ll) <= 1e-9
            assert np.max(np.abs(beta - want_beta)) <= 1e-10 * max(np.max(np.abs(want_beta)), 1.0)

    @pytest.mark.parametrize("family", ["logistic", "poisson"])
    def test_duplicated_column_takes_the_ridge_fallback(self, family):
        base = random_dataset(37, 80, 4, family)
        X = base.design.copy()
        X[:, 1] = X[:, 0]
        d = glm.Dataset(X, base.response, family)
        with pytest.warns(RidgeFallbackWarning):
            fits = subset.enumerate_subset_fits(d)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RidgeFallbackWarning)
            oracle = per_subset_fits(d)
        # beta is not unique on a singular design; the likelihood is
        for cols, two_ll, _ in fits:
            assert abs(two_ll - oracle[cols][0]) <= 1e-8
        lam_crit = subset.criterion_multiplier("bic", d.n)
        want = max(oracle, key=lambda cols: (oracle[cols][0] - lam_crit * len(cols),
                                             -len(cols)))
        (cols, _, _), _, _ = subset.select_from_enumeration(fits, "bic", d.n)
        assert cols == want

    def test_nonconvergence_propagates(self, monkeypatch):
        d = random_dataset(41, 60, 3, "logistic")
        monkeypatch.setattr(glm, "_MLE_MAX_ITER", 1)
        with pytest.raises(NonConvergence):
            subset.enumerate_subset_fits(d)


def per_subset_lstsq(d):
    """Oracle for a Gaussian enumeration: one lstsq per subset on its Gram block.

    Maps each subset to ``(two_ll, model_beta)``, computed as the enumeration
    did before it stacked its solves.
    """
    M, y = d.model_matrix, d.response
    G, c, yy = M.T @ M, M.T @ y, float(y @ y)
    offset = 1 if d.intercept else 0
    out = {}
    for size in range(d.p + 1):
        for cols in itertools.combinations(range(d.p), size):
            idx = np.array(([0] if d.intercept else []) + [j + offset for j in cols], dtype=int)
            beta = np.zeros(d.n_coef)
            rss = yy
            if idx.size:
                Gs, cs = G[np.ix_(idx, idx)], c[idx]
                sub = np.linalg.lstsq(Gs, cs, rcond=None)[0]
                beta[idx] = sub
                rss = yy - 2.0 * cs @ sub + sub @ Gs @ sub
            out[cols] = (-d.n * math.log(max(float(rss), 1e-300) / d.n), beta)
    return out


def gram_condition(d):
    eig = np.linalg.eigvalsh(d.model_matrix.T @ d.model_matrix)
    return eig[-1] / eig[0]


class TestStackedGaussianEnumeration:
    """Gaussian subsets are stacked Gram-block solves, gated on cond(X'X)."""

    @staticmethod
    def assert_close_to_oracle(d, fits):
        oracle = per_subset_lstsq(d)
        assert [cols for cols, _, _ in fits] == list(oracle)
        for cols, two_ll, beta in fits:
            want_ll, want_beta = oracle[cols]
            assert abs(two_ll - want_ll) <= 1e-9
            assert np.max(np.abs(beta - want_beta)) <= 1e-10 * max(np.max(np.abs(want_beta)), 1.0)

    @staticmethod
    def assert_equal_to_oracle(d, fits):
        oracle = per_subset_lstsq(d)
        assert [cols for cols, _, _ in fits] == list(oracle)
        for cols, two_ll, beta in fits:
            assert two_ll == oracle[cols][0]
            assert np.array_equal(beta, oracle[cols][1])

    @staticmethod
    def forbid_lstsq(monkeypatch):
        def fail(*args):
            raise AssertionError("a well-conditioned design took the lstsq route")

        monkeypatch.setattr(subset, "_lstsq_fits", fail)

    @staticmethod
    def near_collinear(seed, intercept, target):
        """40 x 6 design whose x1 approaches x0 until cond(X'X) is just under ``target``."""
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((40, 6))
        y = X @ np.linspace(1.0, -1.0, 6) + rng.standard_normal(40)
        z = rng.standard_normal(40)

        def dataset(delta):
            Xd = X.copy()
            Xd[:, 1] = X[:, 0] + delta * z
            return glm.Dataset(Xd, y, "gaussian", intercept)

        lo, hi = 1e-6, 1.0  # cond falls as delta grows
        for _ in range(100):
            mid = math.sqrt(lo * hi)
            lo, hi = (mid, hi) if gram_condition(dataset(mid)) >= target else (lo, mid)
        return dataset(hi)

    @pytest.mark.parametrize("intercept", [False, True])
    @pytest.mark.parametrize("seed", [43, 47])
    def test_random_designs_match_lstsq(self, monkeypatch, seed, intercept):
        base = random_dataset(seed, 50, 7)
        d = glm.Dataset(base.design, base.response, "gaussian", intercept)
        self.forbid_lstsq(monkeypatch)
        self.assert_close_to_oracle(d, subset.enumerate_subset_fits(d))

    def test_one_size_spans_several_chunks(self, monkeypatch):
        d = random_dataset(53, 40, 6)
        monkeypatch.setattr(subset, "_STACK_FLOATS", 40)
        stacks = []
        real = subset._gram_fits

        def recording(G, c, yy, n, idx):
            stacks.append(idx.shape)
            return real(G, c, yy, n, idx)

        monkeypatch.setattr(subset, "_gram_fits", recording)
        fits = subset.enumerate_subset_fits(d)
        per_size = {}
        for m, k in stacks:
            per_size.setdefault(k, []).append(m)
        assert max(len(ms) for ms in per_size.values()) > 1
        assert max(max(ms) for ms in per_size.values()) > 1
        assert all(m * k * k <= 40 or m == 1 for m, k in stacks)
        assert sum(m for m, _ in stacks) == 2 ** d.p - 1  # the empty model has no block
        self.assert_close_to_oracle(d, fits)

    @pytest.mark.parametrize("intercept", [False, True])
    def test_condition_just_under_the_gate(self, monkeypatch, intercept):
        d = self.near_collinear(59, intercept, subset._COND_MAX)
        assert 0.99 * subset._COND_MAX < gram_condition(d) < subset._COND_MAX
        self.forbid_lstsq(monkeypatch)
        self.assert_close_to_oracle(d, subset.enumerate_subset_fits(d))

    @pytest.mark.parametrize("intercept", [False, True])
    @pytest.mark.parametrize("kind", ["duplicate", "combination"])
    def test_singular_design_takes_lstsq_bit_for_bit(self, kind, intercept):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((40, 6))
        if kind == "duplicate":
            X[:, 5] = X[:, 0]
        else:
            X[:, 5] = X[:, 0] - 2.0 * X[:, 3]
        y = X[:, :3] @ np.array([1.5, -1.0, 0.5]) + rng.standard_normal(40)
        d = glm.Dataset(X, y, "gaussian", intercept)
        self.assert_equal_to_oracle(d, subset.enumerate_subset_fits(d))

    def test_fewer_rows_than_coefficients(self):
        base = random_dataset(61, 5, 6)
        d = glm.Dataset(base.design, base.response, "gaussian", intercept=True)
        self.assert_equal_to_oracle(d, subset.enumerate_subset_fits(d))
