"""Concave penalty families and their local linear / quadratic approximations.

All functions work on the extended real line: a derivative of ``+inf`` at the
origin (bridge, logarithm) means the coordinate is pinned at zero downstream,
and the logarithm penalty has value ``-inf`` at zero.  Nothing is clamped
here; callers decide what infinities mean.
"""

import math
from dataclasses import dataclass

import numpy as np

SCAD_DEFAULT_A = 3.7

FAMILIES = ("scad", "lq", "log", "l1")


@dataclass(frozen=True)
class PenaltySpec:
    """A penalty family together with its regularization level.

    ``family`` is one of ``"scad"``, ``"lq"``, ``"log"``, ``"l1"``.  The SCAD
    knee parameter ``a`` must exceed 2 (3.7 by default); the bridge exponent
    ``q`` must lie in (0, 1).  Both are ignored by the families that do not
    use them.
    """

    family: str
    lam: float
    a: float = SCAD_DEFAULT_A
    q: float = 0.5

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown penalty family {self.family!r}")
        if not 0.0 <= self.lam < math.inf:
            raise ValueError("lambda must be finite and nonnegative")
        if self.family == "scad" and not self.a > 2.0:
            raise ValueError("SCAD requires a > 2")
        if self.family == "lq" and not 0.0 < self.q < 1.0:
            raise ValueError("bridge penalty requires 0 < q < 1")


def value(p: PenaltySpec, t: float) -> float:
    """Penalty value p_lam(t) for t >= 0.

    SCAD uses the exact piecewise integral of its derivative; the logarithm
    penalty returns ``-inf`` at t = 0.
    """
    if t < 0.0:
        raise ValueError("penalty argument must be nonnegative")
    lam = p.lam
    if lam == 0.0:
        return 0.0
    if p.family == "l1":
        return lam * t
    if p.family == "lq":
        return lam * t ** p.q
    if p.family == "log":
        return -math.inf if t == 0.0 else lam * math.log(t)
    a = p.a
    if t <= lam:
        return lam * t
    if t <= a * lam:
        return (2.0 * a * lam * t - t * t - lam * lam) / (2.0 * (a - 1.0))
    return (a + 1.0) * lam * lam / 2.0


def derivative(p: PenaltySpec, t: float) -> float:
    """One-sided derivative p'_lam(t), using the right derivative at t = 0.

    Returns ``+inf`` where the derivative diverges (bridge and logarithm at
    the origin).
    """
    if t < 0.0:
        raise ValueError("penalty argument must be nonnegative")
    return derivatives(p, [t])[0]


def derivatives(p: PenaltySpec, ts) -> list:
    """:func:`derivative` at every t >= 0 of ``ts``, as a list, unchecked.  SCAD's
    max(a lam - t, 0) is a comparison: a lam - t < 0 exactly when t > a lam."""
    lam = p.lam
    if lam == 0.0:
        return [0.0] * len(ts)
    if p.family == "l1":
        return [lam] * len(ts)
    if p.family == "lq":
        lq, e = lam * p.q, p.q - 1.0
        return [math.inf if t == 0.0 else lq * t ** e for t in ts]
    if p.family == "log":
        return [math.inf if t == 0.0 else lam / t for t in ts]
    al, am1 = p.a * lam, p.a - 1.0
    return [lam if t <= lam else (0.0 if t > al else (al - t) / am1) for t in ts]


def scad_derivatives(lams, t, a: float) -> np.ndarray:
    """:func:`derivative` of SCAD for every lambda in ``lams`` (rows) at
    every t >= 0 (columns), bit for bit."""
    lam = np.asarray(lams, dtype=float)[:, None]
    table = np.where(t <= lam, lam, np.maximum(a * lam - t, 0.0) / (a - 1.0))
    return np.where(lam == 0.0, 0.0, table)


def lqa_coefficient(p: PenaltySpec, t0: float, tau0: float = 0.0) -> float:
    """Quadratic-approximation coefficient p'_lam(t0) / (2 (t0 + tau0)).

    Returns ``+inf`` when the denominator vanishes while the derivative is
    positive, and 0 when the derivative itself is 0.
    """
    if t0 < 0.0 or tau0 < 0.0:
        raise ValueError("t0 and tau0 must be nonnegative")
    return lqa_coefficients(p, [t0], tau0, 1.0)[0]  # x * 1.0 is x, bit for bit


def lqa_coefficients(p: PenaltySpec, ts, tau0: float, scale) -> list:
    """``scale * lqa_coefficient(p, t, tau0)`` for every t >= 0 of ``ts``, as a
    list, by the same operations and without the argument checks."""
    return [scale * (dt / den if (den := 2.0 * (t + tau0)) != 0.0
                     else (math.inf if dt > 0.0 else 0.0))
            for t, dt in zip(ts, derivatives(p, ts))]


def penalty_from_params(family: str, params: str, text: str,
                        lam: float | None = None) -> PenaltySpec:
    """A ``family`` penalty from its comma-separated ``key=value`` ``params``.

    The keys are ``a`` and ``q``, plus ``lambda`` exactly when ``lam`` is not
    given; ``lq`` requires ``q``.  ``text`` is the whole descriptor, quoted in
    errors.  Range checks are :class:`PenaltySpec`'s.
    """
    keys = ("lambda", "a", "q") if lam is None else ("a", "q")
    values = {}
    for item in params.split(",") if params else ():
        key, eq, val = item.partition("=")
        key = key.strip().lower()
        if not eq or key not in keys:
            raise ValueError(f"bad penalty parameter {item!r} in {text!r}")
        try:
            values[key] = float(val)
        except ValueError:
            raise ValueError(f"bad numeric value in penalty parameter {item!r}") from None
    if lam is None:
        if "lambda" not in values:
            raise ValueError(f"penalty {text!r} is missing lambda=")
        lam = values.pop("lambda")
    if family == "lq" and "q" not in values:
        raise ValueError(f"lq penalty requires q= in {text!r}")
    return PenaltySpec(family, lam, **values)


def parse_penalty(text: str) -> PenaltySpec:
    """Parse a penalty from its CLI form, e.g. ``"scad:lambda=2,a=3.7"``.

    Accepted families: ``scad``, ``lq``, ``log``, ``l1``.  ``lambda`` is
    required; ``a`` (scad) and ``q`` (lq) are optional/required respectively.
    """
    head, _, tail = text.strip().partition(":")
    family = head.strip().lower()
    if family not in FAMILIES:
        raise ValueError(f"unknown penalty family {family!r} in {text!r}")
    return penalty_from_params(family, tail, text)


def format_penalty(p: PenaltySpec) -> str:
    """Inverse of :func:`parse_penalty` (canonical form)."""
    if p.family == "scad":
        return f"scad:lambda={p.lam:g},a={p.a:g}"
    if p.family == "lq":
        return f"lq:lambda={p.lam:g},q={p.q:g}"
    return f"{p.family}:lambda={p.lam:g}"
