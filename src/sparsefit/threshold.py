"""Orthogonal-design thresholding rules, exact and one-step.

``exact_rule`` minimizes 0.5 (z - theta)^2 + p_lam(|theta|) by a dense grid
with golden-section refinement, one implementation for every family (several
of which induce discontinuous rules); an exact curve tabulates the penalty on
the grid once and scans a prefix of that table per z.  ``one_step_rule`` is
the closed-form soft threshold by the penalty derivative at |z|.
``emit_curve`` tabulates a rule over a z grid and flags jumps.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import penalty
from .penalty import PenaltySpec

GRID_STEP = 1e-4
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: a step is flagged when |d theta| exceeds this multiple of the local scale
JUMP_FACTOR = 10.0


def _values(p: PenaltySpec, t: np.ndarray) -> np.ndarray:
    """Vectorized penalty values on |theta| (matches penalty.value pointwise)."""
    lam = p.lam
    if lam == 0.0:
        return np.zeros_like(t)
    if p.family == "l1":
        return lam * t
    if p.family == "lq":
        return lam * t**p.q
    if p.family == "log":
        with np.errstate(divide="ignore"):
            return np.where(t == 0.0, -np.inf, lam * np.log(np.where(t == 0.0, 1.0, t)))
    a = p.a
    return np.where(
        t <= lam,
        lam * t,
        np.where(
            t <= a * lam,
            (2.0 * a * lam * t - t * t - lam * lam) / (2.0 * (a - 1.0)),
            (a + 1.0) * lam * lam / 2.0,
        ),
    )


def _golden_section(f, lo, hi, iters=80):
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
    return x1 if f1 <= f2 else x2


def _half_table(p: PenaltySpec, zmax: float):
    """Nonnegative grid of the search for every |z| <= zmax, with its penalty."""
    ts = np.arange(0.0, zmax + 1.0 + GRID_STEP / 2.0, GRID_STEP)
    return ts, _values(p, ts)


def _exact_on_table(p: PenaltySpec, z: float, ts: np.ndarray, pen: np.ndarray) -> float:
    """``exact_rule`` at z from a ``_half_table`` built for some zmax >= |z|."""
    az = abs(z)
    n = math.ceil((az + 1.0 + GRID_STEP / 2.0) / GRID_STEP)
    vals = 0.5 * (az - ts[:n]) ** 2 + pen[:n]
    i = int(np.argmin(vals))
    if i == 0 or not math.isfinite(vals[i]):  # -inf at the origin: log penalty
        return 0.0
    theta0 = -float(ts[i]) if z < 0.0 else float(ts[i])

    def f(t):
        return 0.5 * (z - t) ** 2 + penalty.value(p, abs(t))

    lo, hi = theta0 - GRID_STEP, theta0 + GRID_STEP
    if lo < 0.0 < hi:  # keep the bracket off the nondifferentiable origin
        if theta0 > 0.0:
            lo = 0.0
        else:
            hi = 0.0
    refined = _golden_section(f, lo, hi)
    return float(refined) if f(refined) <= f(theta0) else theta0


def exact_rule(p: PenaltySpec, z: float) -> float:
    """Global minimizer of 0.5 (z - theta)^2 + p_lam(|theta|).

    Dense grid over [-(|z|+1), |z|+1] with step 1e-4, then golden-section
    refinement around the best grid point; exact ties go to the smaller
    |theta|.  The logarithm penalty has value -inf at 0, so its exact rule
    is identically 0.  The grid is scanned as a prefix of the nonnegative
    table ``_half_table``, on the sign of z, which is the same search bit
    for bit: (1) ``np.arange(0.0, h, step)`` fills ``i * step`` and has
    ``ceil(h / step)`` points, so a prefix of a longer table is this z's
    grid, and ``_values`` is elementwise; (2) rounding is monotone, so
    fl(|z| + t) >= |fl(|z| - t)| and no point across the origin beats its
    mirror (a tie across needs the gap 2 |z| t to vanish in rounding, and
    wherever it does theta = 0 wins, because p_lam does not decrease from
    p_lam(0)), and negation is exact, so z < 0 scans the values of |z|;
    (3) the first minimum along t is the smallest tied |theta|.
    """
    return _exact_on_table(p, z, *_half_table(p, abs(z)))


def one_step_rule(p: PenaltySpec, z: float) -> float:
    """Soft threshold of z by the penalty derivative at |z|.

    sign(z) (|z| - p'_lam(|z|))_+, with an infinite derivative (bridge or
    logarithm at z = 0) shrinking fully to zero.
    """
    d = penalty.derivative(p, abs(z))
    if not math.isfinite(d):
        return 0.0
    shrunk = abs(z) - d
    return math.copysign(shrunk, z) if shrunk > 0.0 else 0.0


@dataclass(frozen=True)
class CurveTable:
    z: np.ndarray
    theta: np.ndarray
    discontinuities: tuple  # z locations at the left edge of flagged steps


def emit_curve(p: PenaltySpec, mode: str, z_grid) -> CurveTable:
    """Tabulate a thresholding rule over ``z_grid`` with a jump report.

    A step from (z_i, t_i) to (z_{i+1}, t_{i+1}) is flagged when |t_{i+1} -
    t_i| exceeds 10 * (z_{i+1} - z_i) * (1 + max |t|); the factor is a
    heuristic Lipschitz scale.
    """
    if mode not in ("exact", "one_step"):
        raise ValueError("mode must be 'exact' or 'one_step'")
    z = np.asarray(z_grid, dtype=float)
    if mode == "exact":
        table = _half_table(p, float(np.max(np.abs(z), initial=0.0)))
        theta = np.array([_exact_on_table(p, float(zi), *table) for zi in z])
    else:
        theta = np.array([one_step_rule(p, float(zi)) for zi in z])
    flags = []
    for i in range(z.size - 1):
        dz = z[i + 1] - z[i]
        if dz <= 0.0:
            continue
        scale = 1.0 + max(abs(theta[i]), abs(theta[i + 1]))
        if abs(theta[i + 1] - theta[i]) > JUMP_FACTOR * dz * scale:
            flags.append(float(z[i]))
    return CurveTable(z, theta, tuple(flags))
