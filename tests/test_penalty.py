import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from sparsefit import penalty
from sparsefit.penalty import PenaltySpec, parse_penalty, format_penalty

SCAD2 = PenaltySpec("scad", 2.0, a=3.7)
ALL = [
    SCAD2,
    PenaltySpec("l1", 2.0),
    PenaltySpec("lq", 2.0, q=0.5),
    PenaltySpec("log", 2.0),
]


@pytest.mark.parametrize(
    "spec, t, expect",
    [
        (SCAD2, 0.0, 0.0),
        (PenaltySpec("l1", 2.0), 3.0, 6.0),
        (SCAD2, 10.0, 9.4),
        (PenaltySpec("lq", 1.0, q=0.5), 4.0, 2.0),
    ],
)
def test_value_examples(spec, t, expect):
    assert penalty.value(spec, t) == pytest.approx(expect, abs=1e-12)


def test_log_value_at_zero_is_minus_inf():
    assert penalty.value(PenaltySpec("log", 2.0), 0.0) == -math.inf


@pytest.mark.parametrize(
    "spec, t, expect",
    [
        (SCAD2, 1.0, 2.0),
        (SCAD2, 4.0, 3.4 / 2.7),
        (SCAD2, 8.0, 0.0),
        (PenaltySpec("log", 2.0), 0.0, math.inf),
    ],
)
def test_derivative_examples(spec, t, expect):
    assert penalty.derivative(spec, t) == pytest.approx(expect, abs=1e-14)


@pytest.mark.parametrize("spec", ALL)
def test_scad_and_friends_value_integrates_derivative(spec):
    # independent oracle: numeric quadrature of the printed derivative
    if spec.family == "log":
        lo, ref = 1.0, penalty.value(spec, 1.0)
    else:
        lo, ref = 0.0, 0.0
    for t in (0.5, 1.0, 2.0, 3.0, 7.4, 9.0):
        if t <= lo:
            continue
        integral, _ = quad(lambda s: penalty.derivative(spec, s), lo, t, limit=200)
        assert penalty.value(spec, t) == pytest.approx(ref + integral, abs=1e-8)


@pytest.mark.parametrize(
    "spec, t0, tau0, expect",
    [
        (PenaltySpec("l1", 1.0), 2.0, 0.0, 0.25),
        (SCAD2, 8.0, 0.0, 0.0),
        (PenaltySpec("l1", 1.0), 0.0, 0.0, math.inf),
    ],
)
def test_lqa_coefficient_examples(spec, t0, tau0, expect):
    assert penalty.lqa_coefficient(spec, t0, tau0) == expect


@pytest.mark.parametrize("spec", ALL)
def test_lla_majorizes_on_grid(spec):
    grid = np.round(np.arange(0.0, 10.0 + 1e-9, 0.01), 10)
    t0_grid = grid if spec.family in ("scad", "l1") else grid[grid > 0]
    vals = np.array([penalty.value(spec, t) for t in grid])
    v0 = np.array([penalty.value(spec, t) for t in t0_grid])
    d0 = np.array([penalty.derivative(spec, t) for t in t0_grid])
    lines = v0[:, None] + d0[:, None] * (grid[None, :] - t0_grid[:, None])
    assert np.all(lines >= vals[None, :] - 1e-12)


@pytest.mark.parametrize("spec", ALL)
def test_lqa_quadratic_dominates_lla_line(spec):
    grid = np.round(np.arange(0.05, 10.0 + 1e-9, 0.05), 10)
    for t0 in grid[::5]:
        v0 = penalty.value(spec, t0)
        d0 = penalty.derivative(spec, t0)
        c = penalty.lqa_coefficient(spec, t0, 0.0)
        line = v0 + d0 * (grid - t0)
        quad_apx = v0 + c * (grid**2 - t0**2)
        assert np.all(quad_apx >= line - 1e-10)


@pytest.mark.parametrize("spec", ALL)
def test_derivative_nonincreasing(spec):
    grid = np.arange(0.01, 10.0, 0.01)
    d = np.array([penalty.derivative(spec, t) for t in grid])
    assert np.all(np.diff(d) <= 1e-14)
    if spec.family == "l1":
        assert np.all(d == d[0])


@pytest.mark.parametrize(
    "spec, at_left_edge",
    [(SCAD2, True), (PenaltySpec("l1", 2.0), True), (PenaltySpec("lq", 2.0, q=0.5), False)],
)
def test_continuity_condition_classifier(spec, at_left_edge):
    # grid-minimize |t| + p'(|t|) over (0, 10]
    grid = np.arange(0.01, 10.0 + 1e-9, 0.01)
    obj = np.array([t + penalty.derivative(spec, t) for t in grid])
    argmin = int(np.argmin(obj))
    if at_left_edge:
        assert argmin == 0
    else:
        assert grid[argmin] > 0.1


@given(
    st.sampled_from(["scad", "l1", "lq", "log"]),
    st.floats(0.0, 10.0),
    st.floats(0.01, 10.0),
)
def test_majorization_property(family, t, t0):
    spec = PenaltySpec(family, 1.5, q=0.3)
    line = penalty.value(spec, t0) + penalty.derivative(spec, t0) * (t - t0)
    assert line >= penalty.value(spec, t) - 1e-10


class TestValidation:
    def test_negative_lambda(self):
        with pytest.raises(ValueError):
            PenaltySpec("l1", -1.0)

    @pytest.mark.parametrize("lam", [float("inf"), float("nan")])
    def test_lambda_must_be_finite(self, lam):
        with pytest.raises(ValueError, match="finite"):
            PenaltySpec("scad", lam)

    def test_scad_a_bound(self):
        with pytest.raises(ValueError):
            PenaltySpec("scad", 1.0, a=2.0)

    @pytest.mark.parametrize("q", [0.0, 1.0, -0.5])
    def test_lq_q_bounds(self, q):
        with pytest.raises(ValueError):
            PenaltySpec("lq", 1.0, q=q)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            PenaltySpec("l0", 1.0)

    def test_negative_argument(self):
        with pytest.raises(ValueError):
            penalty.value(SCAD2, -0.1)
        with pytest.raises(ValueError):
            penalty.derivative(SCAD2, -0.1)


class TestParsing:
    @pytest.mark.parametrize(
        "text",
        ["scad:lambda=2,a=3.7", "lq:lambda=1,q=0.5", "log:lambda=2", "l1:lambda=2"],
    )
    def test_round_trip(self, text):
        spec = parse_penalty(text)
        assert parse_penalty(format_penalty(spec)) == spec

    def test_default_a(self):
        assert parse_penalty("scad:lambda=1").a == 3.7

    @pytest.mark.parametrize(
        "bad",
        ["scad", "scad:a=3.7", "huber:lambda=1", "lq:lambda=1", "scad:lambda=x", "l1:lambda=1,z=2",
         "scad:lambda=inf"],
    )
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_penalty(bad)


def test_unit_derivative_matches_scaled_derivative():
    # the separable one-step working problem scales columns by the lambda = 1
    # derivative and applies lambda as one level, which needs p'_lam = lam * p'_1
    for spec in (PenaltySpec("l1", 0.3), PenaltySpec("lq", 0.3, q=0.5),
                 PenaltySpec("lq", 2.0, q=0.01), PenaltySpec("log", 0.3), *ALL[1:]):
        unit = replace(spec, lam=1.0)
        for t in (0.0, 0.5, 1.0, 4.0):
            assert penalty.derivative(spec, t) == pytest.approx(
                spec.lam * penalty.derivative(unit, t), rel=1e-15
            )


@pytest.mark.parametrize("a", [3.7, 2.5])
def test_scad_derivative_table_is_derivative_bit_for_bit(a):
    # every branch edge of p'_lam, at lambdas down to the smallest subnormal
    lams = [0.0, 5e-324, 1.0, 1e300]
    ts = sorted({float(t) for lam in lams for t in (
        0.0, lam, np.nextafter(lam, np.inf), a * lam, np.nextafter(a * lam, np.inf),
        np.nextafter(a * lam, -np.inf), 10.0 * a * lam) if t >= 0.0}) + [math.nan]
    table = penalty.scad_derivatives(lams, np.array(ts), a)
    assert table.shape == (len(lams), len(ts))
    # a V coordinate's column scale lambda / p'_lam, divided as arrays
    scales = np.array(lams)[:, None] / np.where(table == 0.0, 1.0, table)
    for lam, row, row_scales in zip(lams, table.tolist(), scales.tolist()):
        spec = PenaltySpec("scad", lam, a=a)
        for t, got, scale in zip(ts, row, row_scales):
            want = penalty.derivative(spec, t)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (lam, t)
            if want != 0.0:
                assert np.float64(scale).tobytes() == np.float64(lam / want).tobytes()


def _reference_derivative(p, t):
    """The scalar derivative as one branch per family, before the list form."""
    lam = p.lam
    if lam == 0.0:
        return 0.0
    if p.family == "l1":
        return lam
    if p.family == "lq":
        return math.inf if t == 0.0 else lam * p.q * t ** (p.q - 1.0)
    if p.family == "log":
        return math.inf if t == 0.0 else lam / t
    a = p.a
    if t <= lam:
        return lam
    return max(a * lam - t, 0.0) / (a - 1.0)


def _reference_lqa_coefficient(p, t0, tau0):
    d = _reference_derivative(p, t0)
    den = 2.0 * (t0 + tau0)
    if den == 0.0:
        return math.inf if d > 0.0 else 0.0
    return d / den


def _same_bytes(x, y):
    return np.float64(x).tobytes() == np.float64(y).tobytes()


@pytest.mark.parametrize("spec", [*ALL, PenaltySpec("scad", 0.3, a=2.5), PenaltySpec("lq", 0.3, q=0.3),
                                  PenaltySpec("lq", 2.0, q=0.01), PenaltySpec("log", 0.3),
                                  PenaltySpec("scad", 0.0), PenaltySpec("log", 0.0)])
def test_list_forms_are_the_scalar_forms_bit_for_bit(spec):
    # the LQA steps and the LLA weights read the list forms, and the scalar forms
    # are their one-element calls; at 0, lambda, a * lambda, between them, 1e300
    # and inf (and NaN) both give the bytes of the per-family scalar reference
    lam, a = spec.lam, spec.a
    between = [lam * k / 8.0 for k in range(1, 40)]  # both sides of lambda and of a * lambda
    ts = sorted({0.0, 1e-300, lam, np.nextafter(lam, math.inf), a * lam,
                 np.nextafter(a * lam, math.inf), 1.0, 1e300, math.inf, *between}) + [math.nan]
    derivs = penalty.derivatives(spec, ts)
    assert len(derivs) == len(ts)
    for t, got in zip(ts, derivs):
        want = _reference_derivative(spec, t)
        assert _same_bytes(got, want) and _same_bytes(penalty.derivative(spec, t), want), t
    for tau0 in (0.0, 1e-6, 2.0):
        for scale in (1, 50, 1.0):
            coefs = penalty.lqa_coefficients(spec, ts, tau0, scale)
            assert len(coefs) == len(ts)
            for t, got in zip(ts, coefs):
                want = _reference_lqa_coefficient(spec, t, tau0)
                assert _same_bytes(got, scale * want), (t, tau0, scale)
                assert _same_bytes(penalty.lqa_coefficient(spec, t, tau0), want), (t, tau0)
