"""Weighted-L1 least squares: minimize 0.5 ||y - X b||^2 + sum_j v_j |b_j|.

Per-coordinate weights may be 0 (unpenalized) or +inf (coordinate pinned to
an exact zero).  The solver is cyclic coordinate descent over a precomputed
Gram matrix, with active-set sweeps and warm starts.  Solutions are
certified against the subgradient optimality conditions before being
returned.

The coordinate loop runs on Python floats and lists (Gram columns, gradient,
weights, iterate), not on numpy arrays: the problems are small (p <= ~20),
so indexing and arithmetic on numpy scalars would cost more than the
arithmetic itself.  Both are IEEE-754 binary64 with round-to-nearest, and
each update performs the same operations in the same order as the array
form, so the iterates are bit-for-bit those of a numpy loop.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import DataError, NonConvergence

DEFAULT_TOL = 1e-8
DEFAULT_MAX_SWEEPS = 10_000


@dataclass(frozen=True)
class WlassoProblem:
    """Working design/response plus per-coordinate nonnegative weights."""

    wdesign: np.ndarray
    wresponse: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        X = np.array(self.wdesign, dtype=float, copy=True)
        y = np.array(self.wresponse, dtype=float, copy=True)
        v = np.array(self.weights, dtype=float, copy=True)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise ValueError("design must be n x p with matching response")
        if v.shape != (X.shape[1],):
            raise ValueError("weights must have one entry per column")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise ValueError("design and response must be finite")
        if np.any(np.isnan(v)) or np.any(v < 0):
            raise ValueError("weights must be nonnegative (inf allowed)")
        for arr in (X, y, v):
            arr.setflags(write=False)
        object.__setattr__(self, "wdesign", X)
        object.__setattr__(self, "wresponse", y)
        object.__setattr__(self, "weights", v)

    @property
    def p(self) -> int:
        return self.wdesign.shape[1]


@dataclass(frozen=True)
class WlassoSolution:
    beta: np.ndarray
    objective: float
    kkt_residual: float


def objective(prob: WlassoProblem, beta) -> float:
    """0.5 ||y - X b||^2 + sum v_j |b_j|, with inf * 0 read as 0."""
    beta = np.asarray(beta, dtype=float)
    r = prob.wresponse - prob.wdesign @ beta
    pen = 0.0
    for v, b in zip(prob.weights, beta):
        if b != 0.0:
            pen += v * abs(b)
    return float(0.5 * r @ r + pen)


def certify_kkt(prob: WlassoProblem, beta) -> float:
    """Maximum violation of the subgradient stationarity conditions.

    For g = X^T (y - X b): a zero coordinate contributes (|g_j| - v_j)_+, a
    nonzero one |g_j - v_j sign(b_j)|.  Zero means exact optimality.
    """
    beta = np.asarray(beta, dtype=float)
    g = prob.wdesign.T @ (prob.wresponse - prob.wdesign @ beta)
    return float(_kkt_from_grad(g.tolist(), prob.weights.tolist(), beta.tolist()))


def _sweep(cols, c, w, beta, gjj, idx):
    """One cyclic pass over ``idx``; returns the largest coefficient change.

    ``c`` holds b - G beta (the stationarity gradient) and is updated in
    place as coordinates move; ``cols[j]`` is column j of G.  All arguments
    are lists of Python floats.  ``c[i] -= col[i] * delta`` rounds the
    product, then the difference, exactly as ``c -= G[:, j] * delta`` does
    on arrays (CPython fuses no multiply-add), so the sweep is bit-identical
    to its numpy form while skipping the per-element cost of numpy scalars.
    """
    maxd = 0.0
    rows = range(len(c))
    for j in idx:
        gj = gjj[j]
        if gj <= 0.0:
            continue  # zero column: coordinate is indeterminate, keep 0
        bj = beta[j]
        z = c[j] + gj * bj
        t = w[j]
        if z > t:
            new = (z - t) / gj
        elif z < -t:
            new = (z + t) / gj
        else:
            new = 0.0
        delta = new - bj
        if delta != 0.0:
            col = cols[j]
            for i in rows:
                c[i] -= col[i] * delta
            beta[j] = new
            ad = abs(delta)
            if ad > maxd:
                maxd = ad
    return maxd


def _kkt_from_grad(c, w, beta):
    """Largest stationarity violation for gradient ``c`` (sequences of floats).

    A nonzero coordinate contributes |c_j - w_j sign(b_j)|, written without
    the sign product: multiplying by +-1 is exact, so the bits are the same.
    A NaN coordinate makes the whole gradient NaN, which never counts.
    """
    worst = 0.0
    for cj, wj, bj in zip(c, w, beta):
        if bj == 0.0:
            viol = abs(cj) - wj
        elif bj > 0.0:
            viol = abs(cj - wj)
        else:
            viol = abs(cj + wj)
        if viol > worst:
            worst = viol
    return max(worst, 0.0)


def solve_gram(G, b, weights, tol=DEFAULT_TOL, max_sweeps=DEFAULT_MAX_SWEEPS, x0=None):
    """Coordinate descent given Gram matrix G = X^T X and b = X^T y.

    Infinite weights are removed before iteration (their coordinates are
    exact zeros by construction; with none, nothing is indexed or copied).
    Iterates until the largest per-sweep coefficient change is at most
    ``tol`` and the stationarity residual is at most ``10 * tol``, which a
    non-finite gradient never is.  Returns ``(beta, kkt_residual, sweeps)``.
    """
    G = np.asarray(G, dtype=float)
    b = np.asarray(b, dtype=float)
    w = np.asarray(weights, dtype=float)
    p = b.shape[0]
    keep = slice(None)  # every weight finite: no index arrays, no copies
    if not np.isfinite(w).all():
        keep = np.flatnonzero(np.isfinite(w))
        G, b, w = G[np.ix_(keep, keep)], b[keep], w[keep]
    m = w.shape[0]
    if m == 0:
        return np.zeros(p), 0.0, 0
    G = np.ascontiguousarray(G)
    gjj = G.diagonal()
    beta = np.zeros(m)
    if x0 is not None:
        beta = np.array(np.asarray(x0)[keep], dtype=float)
        beta[gjj <= 0.0] = 0.0
    c = (b - G @ beta).tolist()
    beta = beta.tolist()
    cols = G.T.tolist()
    w = w.tolist()
    gjj = gjj.tolist()

    all_idx = range(m)
    sweeps = 0
    kkt = np.inf
    while sweeps < max_sweeps:
        maxd = _sweep(cols, c, w, beta, gjj, all_idx)
        sweeps += 1
        if maxd <= tol:
            g = b - G @ np.array(beta)  # refresh: incremental updates drift
            c = g.tolist()
            # _kkt_from_grad skips NaN entries, so a non-finite gradient reads NaN
            kkt = _kkt_from_grad(c, w, beta) if np.isfinite(g).all() else np.nan
            if not kkt > 10.0 * tol:  # certified, or NaN (raised below)
                break
            continue
        # active-set refinement between full sweeps
        while sweeps < max_sweeps:
            active = [j for j in all_idx if beta[j] != 0.0 or w[j] == 0.0]
            if not active:
                break
            maxd = _sweep(cols, c, w, beta, gjj, active)
            sweeps += 1
            if maxd <= tol:
                break
    else:
        raise NonConvergence(
            f"coordinate descent did not converge in {max_sweeps} sweeps",
            result=_expand(p, keep, beta),
        )
    if not kkt <= 10.0 * tol:
        raise NonConvergence(
            f"coordinate descent stalled with KKT residual {kkt:g}",
            result=_expand(p, keep, beta),
        )
    return _expand(p, keep, beta), float(kkt), sweeps


def _expand(p, keep, beta):
    out = np.zeros(p)
    out[keep] = beta
    return out


def solve(prob: WlassoProblem, tol: float = DEFAULT_TOL,
          max_sweeps: int = DEFAULT_MAX_SWEEPS, x0=None) -> WlassoSolution:
    """Solve the weighted-L1 problem to stationarity.

    Raises :class:`NonConvergence` after ``max_sweeps`` coordinate sweeps, or
    :class:`DataError` when G = X^T X or b = X^T y overflows.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    X = prob.wdesign
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        G, b = X.T @ X, X.T @ prob.wresponse
    if not (np.isfinite(G).all() and np.isfinite(b).all()):
        raise DataError("the weighted lasso's Gram matrix overflows: "
                        "the data's scale is out of range")
    beta, kkt, _ = solve_gram(G, b, prob.weights, tol, max_sweeps, x0)
    return WlassoSolution(beta, objective(prob, beta), kkt)

