import numpy as np
import pytest

from sparsefit import penalty as pen_mod
from sparsefit import threshold
from sparsefit.penalty import PenaltySpec

SCAD2 = PenaltySpec("scad", 2.0, a=3.7)


def test_vectorized_values_match_scalar():
    specs = [
        SCAD2,
        PenaltySpec("l1", 2.0),
        PenaltySpec("lq", 2.0, q=0.5),
        PenaltySpec("log", 2.0),
        PenaltySpec("scad", 0.0),
    ]
    ts = np.array([0.0, 0.5, 1.0, 2.0, 5.0, 7.4, 9.0])
    for spec in specs:
        vec = threshold._values(spec, ts)
        for t, v in zip(ts, vec):
            assert v == pen_mod.value(spec, float(t))


class TestExactRule:
    @pytest.mark.parametrize(
        "spec",
        [SCAD2, PenaltySpec("l1", 2.0), PenaltySpec("lq", 2.0, q=0.5)],
    )
    def test_zero_maps_to_zero(self, spec):
        assert threshold.exact_rule(spec, 0.0) == 0.0

    def test_scad_identity_past_knee(self):
        assert threshold.exact_rule(SCAD2, 10.0) == pytest.approx(10.0, abs=1e-6)

    def test_l1_soft_threshold(self):
        assert threshold.exact_rule(PenaltySpec("l1", 2.0), 3.0) == pytest.approx(1.0, abs=2e-4)

    def test_l1_matches_analytic_on_grid(self):
        spec = PenaltySpec("l1", 2.0)
        for z in np.arange(-6.0, 6.0, 0.37):
            analytic = np.sign(z) * max(abs(z) - 2.0, 0.0)
            assert threshold.exact_rule(spec, float(z)) == pytest.approx(analytic, abs=2e-4)

    def test_log_rule_is_degenerate_zero(self):
        # value(0) = -inf makes the origin the global minimizer for any z
        assert threshold.exact_rule(PenaltySpec("log", 2.0), 5.0) == 0.0

    def test_symmetric(self):
        # refinement resolves the flat quadratic minimum to ~1e-7
        for z in (0.7, 2.3, 5.1):
            assert threshold.exact_rule(SCAD2, -z) == pytest.approx(
                -threshold.exact_rule(SCAD2, z), abs=1e-6
            )


class TestOneStepRule:
    @pytest.mark.parametrize(
        "z, expect",
        [(8.0, 8.0), (4.0, 4.0 - 3.4 / 2.7), (1.0, 0.0), (-1.5, 0.0), (-8.0, -8.0)],
    )
    def test_scad_examples(self, z, expect):
        assert threshold.one_step_rule(SCAD2, z) == pytest.approx(expect, abs=1e-12)

    def test_log_example(self):
        assert threshold.one_step_rule(PenaltySpec("log", 2.0), 3.0) == pytest.approx(3.0 - 2.0 / 3.0)

    def test_zero_input(self):
        for spec in (SCAD2, PenaltySpec("lq", 2.0, q=0.5), PenaltySpec("log", 2.0)):
            assert threshold.one_step_rule(spec, 0.0) == 0.0

    def test_scad_identity_region_is_exact(self):
        for z in np.arange(7.4, 12.0, 0.2):
            assert threshold.one_step_rule(SCAD2, float(z)) == float(z)
            assert threshold.one_step_rule(SCAD2, -float(z)) == -float(z)

    def test_scad_dead_zone_is_exact(self):
        for z in np.linspace(-2.0, 2.0, 41):
            assert threshold.one_step_rule(SCAD2, float(z)) == 0.0


class TestEmitCurve:
    def test_one_step_scad_is_continuous(self):
        grid = np.arange(-10.0, 10.0 + 1e-9, 0.01)
        table = threshold.emit_curve(SCAD2, "one_step", grid)
        assert table.discontinuities == ()

    def test_exact_bridge_rule_jumps(self):
        grid = np.arange(-6.0, 6.0 + 1e-9, 0.01)
        table = threshold.emit_curve(PenaltySpec("lq", 5.0, q=0.01), "exact", grid)
        assert len(table.discontinuities) >= 1

    def test_rows_match_rule(self):
        grid = np.array([-1.0, 0.0, 3.0])
        table = threshold.emit_curve(SCAD2, "one_step", grid)
        assert np.array_equal(table.z, grid)
        assert table.theta[1] == 0.0

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            threshold.emit_curve(SCAD2, "both", [0.0])

    @pytest.mark.parametrize("mode", ["exact", "one_step"])
    def test_empty_grid_gives_empty_table(self, mode):
        table = threshold.emit_curve(SCAD2, mode, [])
        assert table.theta.shape == (0,) and table.theta.dtype == np.float64
        assert table.discontinuities == ()

    def test_exact_curve_tabulates_penalty_once(self, monkeypatch):
        calls = []
        values = threshold._values

        def counting(p, t):
            calls.append(t.size)
            return values(p, t)

        monkeypatch.setattr(threshold, "_values", counting)
        threshold.emit_curve(SCAD2, "exact", np.arange(-3.0, 3.0 + 1e-9, 0.5))
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# Bit-identity oracle: the dense symmetric grid search that the half-table
# scan replaced.  Every z gets its own grid over [-(|z|+1), |z|+1], the
# penalty is evaluated on all of it, exact ties go to the smallest |theta| by
# argmin over the tied points, and golden section refines the winner.


def _oracle_golden(f, lo, hi, iters=80):
    g = (5.0 ** 0.5 - 1.0) / 2.0
    a, b = lo, hi
    x1, x2 = b - g * (b - a), a + g * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - g * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + g * (b - a)
            f2 = f(x2)
    return x1 if f1 <= f2 else x2


def _oracle_exact(p, z):
    step = threshold.GRID_STEP
    ts = np.arange(0.0, abs(z) + 1.0 + step / 2.0, step)
    grid = np.concatenate([-ts[:0:-1], ts])
    vals = 0.5 * (z - grid) ** 2 + threshold._values(p, np.abs(grid))
    best = np.min(vals)
    if not np.isfinite(best):
        return 0.0
    ties = np.flatnonzero(vals <= best)
    theta0 = float(grid[ties[np.argmin(np.abs(grid[ties]))]])
    if theta0 == 0.0:
        return 0.0

    def f(t):
        return 0.5 * (z - t) ** 2 + pen_mod.value(p, abs(t))

    lo, hi = theta0 - step, theta0 + step
    if lo < 0.0 < hi:
        if theta0 > 0.0:
            lo = 0.0
        else:
            hi = 0.0
    refined = _oracle_golden(f, lo, hi)
    return float(refined) if f(refined) <= f(theta0) else theta0


def _oracle_flags(z, theta):
    flags = []
    for i in range(z.size - 1):
        dz = z[i + 1] - z[i]
        scale = 1.0 + max(abs(theta[i]), abs(theta[i + 1]))
        if dz > 0.0 and abs(theta[i + 1] - theta[i]) > threshold.JUMP_FACTOR * dz * scale:
            flags.append(float(z[i]))
    return tuple(flags)


ORACLE_PENALTIES = [
    PenaltySpec("scad", 2.0, a=3.7),
    PenaltySpec("scad", 2.0, a=2.1),
    PenaltySpec("scad", 0.3, a=3.7),
    PenaltySpec("scad", 0.3, a=2.1),
    PenaltySpec("l1", 2.0),
    PenaltySpec("lq", 2.0, q=0.5),
    PenaltySpec("lq", 2.0, q=0.01),
    PenaltySpec("log", 2.0),
    PenaltySpec("scad", 0.0),
]

#: signed zeros, tiny |z|, grid-aligned z, the SCAD knees lambda, 2 lambda
#: and a lambda, and z where two grid points tie exactly (lambda = 0 at
#: 5.5e-4 and 7.5e-4, L1 with lambda 2 at 2.00005)
ORACLE_Z = [
    0.0, -0.0, 5e-324, 1e-300, -1e-20, 1e-12, 1e-4, -1e-4, 3e-4, 5.5e-4, -7.5e-4,
    0.3, -0.3, 0.6, 0.63, -1.11, 1.0, 2.0, -2.0, 2.00005, 3.0, 4.0, -4.2, 6.0, 7.4, -7.4,
    0.4567, -1.2345, 2.5, -3.3333, 5.0, -9.99, 10.0,
]


@pytest.mark.parametrize("spec", ORACLE_PENALTIES, ids=pen_mod.format_penalty)
def test_exact_rule_matches_dense_grid_oracle(spec):
    got = np.array([threshold.exact_rule(spec, z) for z in ORACLE_Z])
    want = np.array([_oracle_exact(spec, z) for z in ORACLE_Z])
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("spec", ORACLE_PENALTIES, ids=pen_mod.format_penalty)
def test_exact_curve_matches_dense_grid_oracle(spec):
    z = np.concatenate([np.arange(-4.0, 4.0 + 0.01, 0.02), np.sort(ORACLE_Z)])
    table = threshold.emit_curve(spec, "exact", z)
    want = np.array([_oracle_exact(spec, float(zi)) for zi in z])
    assert table.theta.tobytes() == want.tobytes()
    assert table.discontinuities == _oracle_flags(z, want)
    if spec.family == "lq":  # bridge rules jump, so the flags are not vacuous
        assert table.discontinuities


class TestProfileConvergence:
    def test_bridge_profile_approaches_log_profile(self):
        lam = 2.0
        zgrid = np.arange(-10.0, 10.0 + 1e-9, 0.05)
        log_rule = np.array(
            [threshold.one_step_rule(PenaltySpec("log", lam), z) for z in zgrid]
        )
        sups = []
        for q in (0.1, 0.05, 0.01):
            lq = PenaltySpec("lq", lam / q, q=q)
            rule = np.array([threshold.one_step_rule(lq, z) for z in zgrid])
            sups.append(float(np.max(np.abs(rule - log_rule))))
        assert sups[0] > sups[1] > sups[2]
        assert sups[2] <= 0.02 * (1.0 + np.abs(zgrid)).min() + 0.02 * 10.0  # loose module check
