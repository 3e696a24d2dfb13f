import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparsefit import wlasso
from sparsefit.exceptions import NonConvergence
from sparsefit.wlasso import WlassoProblem


def grid_search_oracle(prob, final_step=1e-7):
    """Independent global minimizer: shrinking-box dense grid search.

    The objective is convex, so refining a coarse grid around its sampled
    minimum converges to the global optimum.  Pinned coordinates are fixed
    at zero; the box is re-expanded whenever the minimum lands on its edge.
    """
    X, y, w = prob.wdesign, prob.wresponse, prob.weights
    free = np.where(np.isfinite(w))[0]
    beta = np.zeros(prob.p)
    if free.size == 0:
        return beta
    Xf = X[:, free]
    wf = w[free]
    G = Xf.T @ Xf
    b = Xf.T @ y
    yy = float(y @ y)
    ls = np.linalg.lstsq(Xf, y, rcond=None)[0]
    half = 2.0 * float(np.max(np.abs(ls))) + 1.0
    center = np.zeros(free.size)
    m = 15

    def batch_objective(T):
        quad = np.einsum("ni,ij,nj->n", T, G, T)
        pen = np.abs(T) @ wf
        return 0.5 * (yy - 2.0 * T @ b + quad) + pen

    step = 2.0 * half / (m - 1)
    while step > final_step:
        axes = [np.linspace(c - half, c + half, m) for c in center]
        # make sure exact zero is a candidate on every axis
        axes = [np.sort(np.append(ax, 0.0)) for ax in axes]
        mesh = np.meshgrid(*axes, indexing="ij")
        T = np.column_stack([g.ravel() for g in mesh])
        vals = batch_objective(T)
        best = T[int(np.argmin(vals))]
        on_edge = np.any(np.abs(np.abs(best - center) - half) < 1e-12)
        center = best
        if on_edge:
            half *= 2.0
        else:
            half = 2.0 * step
        step = 2.0 * half / (m - 1)
    beta[free] = center
    return beta


def random_problem(seed):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, 4))
    n = int(rng.integers(p + 2, 11))
    X = rng.standard_normal((n, p))
    y = rng.standard_normal(n) * 2.0
    w = rng.uniform(0.1, 3.0, p)
    # mix in unpenalized and pinned coordinates
    if p >= 2 and rng.random() < 0.4:
        w[rng.integers(p)] = 0.0
    if p >= 2 and rng.random() < 0.3:
        w[rng.integers(p)] = np.inf
    return WlassoProblem(X, y, w)


class TestExamples:
    def test_soft_threshold(self):
        prob = WlassoProblem([[1.0]], [3.0], [1.0])
        assert wlasso.solve(prob).beta[0] == pytest.approx(2.0, abs=1e-10)

    def test_unpenalized(self):
        prob = WlassoProblem([[1.0]], [3.0], [0.0])
        assert wlasso.solve(prob).beta[0] == pytest.approx(3.0, abs=1e-10)

    def test_killed(self):
        prob = WlassoProblem([[1.0]], [3.0], [5.0])
        assert wlasso.solve(prob).beta[0] == 0.0

    def test_all_pinned(self):
        rng = np.random.default_rng(1)
        prob = WlassoProblem(rng.standard_normal((5, 3)), rng.standard_normal(5), [np.inf] * 3)
        sol = wlasso.solve(prob)
        assert np.all(sol.beta == 0.0)
        assert sol.kkt_residual == 0.0


class TestCertifyKkt:
    def test_zero_at_optimum(self):
        prob = WlassoProblem([[1.0]], [3.0], [1.0])
        sol = wlasso.solve(prob)
        assert wlasso.certify_kkt(prob, sol.beta) <= 1e-10

    def test_interior_subdifferential(self):
        prob = WlassoProblem([[1.0]], [3.0], [5.0])
        assert wlasso.certify_kkt(prob, np.zeros(1)) == 0.0

    def test_violation_size(self):
        prob = WlassoProblem([[1.0]], [3.0], [1.0])
        assert wlasso.certify_kkt(prob, np.zeros(1)) == pytest.approx(2.0)


class TestSolvePath:
    """Points of the solution path lambda -> argmin at weights lambda * u,
    each a single solve."""

    def test_lambda_max_zeroes_everything(self):
        prob = random_problem(42)
        u = np.where(np.isinf(prob.weights), np.inf, 1.0)
        uprob = WlassoProblem(prob.wdesign, prob.wresponse, u)
        lam_max = wlasso.lambda_max(uprob)
        sol = wlasso.solve(WlassoProblem(prob.wdesign, prob.wresponse, lam_max * u))
        assert np.all(sol.beta[np.isfinite(u) & (u > 0)] == 0.0)
        below = wlasso.solve(WlassoProblem(prob.wdesign, prob.wresponse, 0.999 * lam_max * u))
        assert np.any(below.beta != 0.0)

    def test_path_limits(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((12, 3))
        y = rng.standard_normal(12)
        u = np.ones(3)
        lam_max = wlasso.lambda_max(WlassoProblem(X, y, u))
        top, bottom = (wlasso.solve(WlassoProblem(X, y, lam * u)) for lam in (lam_max, 1e-10))
        assert np.all(top.beta == 0.0)
        ls = np.linalg.lstsq(X, y, rcond=None)[0]
        assert np.allclose(bottom.beta, ls, atol=1e-6)

    def test_orthonormal_soft_threshold_profile(self):
        for lam in (4.0, 2.0, 1.0, 0.5):
            sol = wlasso.solve(WlassoProblem([[1.0]], [3.0], [lam]))
            assert sol.beta[0] == pytest.approx(max(3.0 - lam, 0.0), abs=1e-10)


@pytest.mark.parametrize("seed", range(40))
def test_matches_grid_search_oracle(seed):
    prob = random_problem(seed)
    sol = wlasso.solve(prob)
    oracle = grid_search_oracle(prob)
    assert np.max(np.abs(sol.beta - oracle)) <= 5e-3
    assert sol.objective <= wlasso.objective(prob, oracle) + 1e-6
    assert abs(sol.objective - wlasso.objective(prob, oracle)) <= 1e-6
    assert wlasso.certify_kkt(prob, sol.beta) <= 1e-7


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 100_000))
def test_kkt_residual_contract(seed):
    prob = random_problem(seed)
    sol = wlasso.solve(prob, tol=1e-8)
    assert sol.kkt_residual <= 1e-7
    assert wlasso.certify_kkt(prob, sol.beta) <= 1e-7
    # pinned coordinates are exact zeros
    assert np.all(sol.beta[np.isinf(prob.weights)] == 0.0)


def test_objective_monotone_across_sweeps():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((20, 6))
    y = rng.standard_normal(20) * 3.0
    prob = WlassoProblem(X, y, np.full(6, 0.5))
    objectives = []
    for k in range(1, 1000):
        try:
            beta, converged = wlasso.solve(prob, max_sweeps=k).beta, True
        except NonConvergence as exc:
            beta, converged = exc.result, False  # the iterate after k sweeps
        objectives.append(wlasso.objective(prob, beta))
        if converged:
            break
    assert converged and len(objectives) > 2
    assert np.all(np.diff(objectives) <= 1e-10)


def test_warm_start_agrees_with_cold(rng):
    X = rng.standard_normal((15, 4))
    y = rng.standard_normal(15)
    prob = WlassoProblem(X, y, np.full(4, 0.7))
    cold = wlasso.solve(prob)
    warm = wlasso.solve(prob, x0=cold.beta + 0.05)
    assert np.allclose(cold.beta, warm.beta, atol=1e-7)


def test_nonconvergence_raises_with_partial():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((30, 5))
    y = rng.standard_normal(30)
    prob = WlassoProblem(X, y, np.full(5, 0.1))
    with pytest.raises(NonConvergence) as err:
        wlasso.solve(prob, tol=1e-14, max_sweeps=2)
    assert err.value.result is not None


class TestValidation:
    def test_negative_weights(self):
        with pytest.raises(ValueError):
            WlassoProblem([[1.0]], [1.0], [-1.0])

    def test_nan_weights(self):
        with pytest.raises(ValueError):
            WlassoProblem([[1.0]], [1.0], [np.nan])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            WlassoProblem([[1.0, 2.0]], [1.0], [1.0])

    def test_bad_tol(self):
        prob = WlassoProblem([[1.0]], [1.0], [1.0])
        with pytest.raises(ValueError):
            wlasso.solve(prob, tol=0.0)


# ---------------------------------------------------------------------------
# Bit-identity oracle: the coordinate loop on numpy arrays and scalars.  The
# solver runs the same loop on Python floats; both are binary64 arithmetic in
# the same order, so every iterate, KKT value and sweep count must be equal.


def _np_soft(z, t):
    if z > t:
        return z - t
    if z < -t:
        return z + t
    return 0.0


def _np_sweep(G, c, w, beta, gjj, idx):
    maxd = 0.0
    for j in idx:
        if gjj[j] <= 0.0:
            continue
        z = c[j] + gjj[j] * beta[j]
        new = _np_soft(z, w[j]) / gjj[j]
        delta = new - beta[j]
        if delta != 0.0:
            c -= G[:, j] * delta
            beta[j] = new
            ad = abs(delta)
            if ad > maxd:
                maxd = ad
    return maxd


def _np_kkt_from_grad(c, w, beta):
    worst = 0.0
    for j in range(beta.shape[0]):
        if beta[j] == 0.0:
            viol = abs(c[j]) - w[j]
            if viol > worst:
                worst = viol
        else:
            viol = abs(c[j] - w[j] * np.sign(beta[j]))
            if viol > worst:
                worst = viol
    return max(worst, 0.0)


def _np_solve_gram(G, b, weights, tol=wlasso.DEFAULT_TOL,
                   max_sweeps=wlasso.DEFAULT_MAX_SWEEPS, x0=None):
    G = np.asarray(G, dtype=float)
    b = np.asarray(b, dtype=float)
    w_full = np.asarray(weights, dtype=float)
    p = b.shape[0]
    beta_full = np.zeros(p)
    finite = np.isfinite(w_full)
    if not np.any(finite):
        return beta_full, 0.0, 0
    keep = np.where(finite)[0]
    Gk = np.ascontiguousarray(G[np.ix_(keep, keep)])
    bk = b[keep]
    w = w_full[keep]
    gjj = np.diag(Gk).copy()
    m = keep.shape[0]
    beta = np.zeros(m)
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        beta = x0[keep].copy()
        beta[gjj <= 0.0] = 0.0
    c = bk - Gk @ beta

    def expand():
        out = beta_full.copy()
        out[keep] = beta
        return out

    all_idx = np.arange(m)
    sweeps = 0
    kkt = np.inf
    while sweeps < max_sweeps:
        maxd = _np_sweep(Gk, c, w, beta, gjj, all_idx)
        sweeps += 1
        if maxd <= tol:
            c = bk - Gk @ beta
            kkt = _np_kkt_from_grad(c, w, beta)
            if kkt <= 10.0 * tol:
                break
            continue
        while sweeps < max_sweeps:
            active = np.where((beta != 0.0) | (w == 0.0))[0]
            if active.size == 0:
                break
            maxd = _np_sweep(Gk, c, w, beta, gjj, active)
            sweeps += 1
            if maxd <= tol:
                break
    else:
        raise NonConvergence(
            f"coordinate descent did not converge in {max_sweeps} sweeps", result=expand()
        )
    if not kkt <= 10.0 * tol:
        raise NonConvergence(
            f"coordinate descent stalled with KKT residual {kkt:g}", result=expand()
        )
    return expand(), float(kkt), sweeps


def _oracle_case(seed):
    """Random Gram problem: weights in {0, finite, +inf}, zero and duplicated
    columns, slightly asymmetric Gram blocks (as a Schur complement gives),
    warm starts, and short sweep budgets."""
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, 11))
    n = int(rng.integers(2, 30))
    X = rng.standard_normal((n, p))
    if p > 1 and rng.random() < 0.25:
        X[:, rng.integers(p)] = 0.0
    if p > 1 and rng.random() < 0.25:
        X[:, -1] = X[:, 0]
    y = rng.standard_normal(n) * 3.0
    G = X.T @ X
    if rng.random() < 0.25:
        G = G + 1e-12 * rng.standard_normal(G.shape)
    w = rng.uniform(0.0, 3.0, p) * rng.choice([0.1, 1.0, 10.0])
    r = rng.random(p)
    w[r < 0.2] = 0.0
    w[r > 0.8] = np.inf
    x0 = rng.standard_normal(p) if rng.random() < 0.5 else None
    max_sweeps = [1, 2, 3, wlasso.DEFAULT_MAX_SWEEPS][int(rng.integers(4))]
    tol = [wlasso.DEFAULT_TOL, 1e-12, 1e-14][int(rng.integers(3))]
    return X, y, G, X.T @ y, w, tol, max_sweeps, x0


def _outcome(solver, *args):
    try:
        return "ok", solver(*args)
    except NonConvergence as exc:
        return "nonconvergence", (str(exc), exc.result)


@pytest.mark.parametrize("block", range(4))
def test_solve_gram_bit_identical_to_numpy_loop(block):
    kinds = set()
    for seed in range(block * 150, (block + 1) * 150):
        _, _, G, b, w, tol, max_sweeps, x0 = _oracle_case(seed)
        got_kind, got = _outcome(wlasso.solve_gram, G, b, w, tol, max_sweeps, x0)
        want_kind, want = _outcome(_np_solve_gram, G, b, w, tol, max_sweeps, x0)
        assert got_kind == want_kind, seed
        kinds.add(got_kind)
        if got_kind == "ok":
            assert np.array_equal(got[0], want[0]), seed
            assert got[1] == want[1] and type(got[1]) is float, seed
            assert got[2] == want[2], seed
        else:
            assert got[0] == want[0], seed
            assert np.array_equal(got[1], want[1]), seed
    assert kinds == {"ok", "nonconvergence"}


def test_certify_kkt_bit_identical_to_numpy_loop():
    for seed in range(300):
        X, y, _, _, w, tol, max_sweeps, x0 = _oracle_case(seed)
        prob = WlassoProblem(X, y, w)
        rng = np.random.default_rng(seed)
        random_beta = rng.standard_normal(prob.p)
        random_beta[rng.random(prob.p) < 0.4] = 0.0
        kind, out = _outcome(wlasso.solve, prob, tol, max_sweeps, x0)
        solved_beta = out.beta if kind == "ok" else out[1]
        for beta in (random_beta, solved_beta):
            g = prob.wdesign.T @ (prob.wresponse - prob.wdesign @ beta)
            want = float(_np_kkt_from_grad(g, prob.weights, beta))
            assert wlasso.certify_kkt(prob, beta) == want, seed
