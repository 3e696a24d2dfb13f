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
