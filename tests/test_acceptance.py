"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Simulation-based criteria use seed 0 and the worker-pool scheduler; reports
are pure functions of the scenario, so reruns are byte-reproducible.
"""

import os
import time

import numpy as np

from sparsefit import glm, lla, penalty, sim, threshold, wlasso
from sparsefit.penalty import PenaltySpec

from conftest import random_dataset
from test_wlasso import grid_search_oracle

THREADS = min(4, os.cpu_count() or 1)
SCAD2 = PenaltySpec("scad", 2.0, a=3.7)


def _report(name, checks):
    """checks: list of (label, ok, detail); prints one line and asserts."""
    ok = all(c[1] for c in checks)
    detail = "; ".join(f"{label} {'ok' if good else 'FAILED'} ({info})" for label, good, info in checks)
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _row(report, label):
    return next(r for r in report.rows if r.method == label)


def test_criterion_01_table1_n50():
    t0 = time.time()
    spec = sim.ScenarioSpec("linear", 50, 400, ("one-step:scad",), seed=0)
    report = sim.run_scenario(spec, threads=THREADS)
    elapsed = time.time() - t0
    r = _row(report, "One-step SCAD")
    _report(
        "criterion 1 (Table 1, n=50, one-step SCAD)",
        [
            ("MRME", abs(r.mrme - 0.208) <= 0.06, f"{r.mrme:.3f} vs 0.208+-0.06"),
            ("C", abs(r.c - 3.00) <= 0.02, f"{r.c:.3f} vs 3.00+-0.02"),
            ("IC", abs(r.ic - 0.55) <= 0.30, f"{r.ic:.3f} vs 0.55+-0.30"),
            ("correct-fit", abs(r.correctfit - 0.771) <= 0.08, f"{r.correctfit:.3f} vs 0.771+-0.08"),
            ("runtime", elapsed < 300.0, f"{elapsed:.0f}s < 300s"),
            ("report valid", report.valid, f"failures={report.failures}"),
        ],
    )


def test_criterion_02_table1_n100():
    spec = sim.ScenarioSpec("linear", 100, 400, ("one-step:scad", "subset:bic"), seed=0)
    report = sim.run_scenario(spec, threads=THREADS)
    scad = _row(report, "One-step SCAD")
    bic = _row(report, "BIC")
    _report(
        "criterion 2 (Table 1, n=100)",
        [
            ("BIC correct-fit", abs(bic.correctfit - 0.728) <= 0.08, f"{bic.correctfit:.3f} vs 0.728+-0.08"),
            ("SCAD MRME", abs(scad.mrme - 0.234) <= 0.06, f"{scad.mrme:.3f} vs 0.234+-0.06"),
        ],
    )


def test_criterion_03_table2_logistic():
    spec = sim.ScenarioSpec(
        "logistic",
        200,
        100,
        ("one-step:scad", "one-step:log", "one-step:lq(q=0.01)", "subset:bic"),
        seed=0,
    )
    report = sim.run_scenario(spec, threads=THREADS)
    scad = _row(report, "One-step SCAD")
    bic = _row(report, "BIC")
    log_row = _row(report, "One-step LOG")
    lq_row = _row(report, "One-step L_0.01")
    pairs = [
        ("MRME", log_row.mrme, lq_row.mrme),
        ("C", log_row.c, lq_row.c),
        ("IC", log_row.ic, lq_row.ic),
        ("under", log_row.underfit, lq_row.underfit),
        ("correct", log_row.correctfit, lq_row.correctfit),
        ("over", log_row.overfit, lq_row.overfit),
    ]
    echo_ok = all(abs(a - b) <= 0.02 + 1e-12 for _, a, b in pairs)
    echo_info = ", ".join(f"{m}:{abs(a-b):.3f}" for m, a, b in pairs)
    _report(
        "criterion 3 (Table 2, logistic n=200)",
        [
            ("SCAD MRME", abs(scad.mrme - 0.238) <= 0.10, f"{scad.mrme:.3f} vs 0.238+-0.10"),
            ("BIC correct-fit", abs(bic.correctfit - 0.800) <= 0.10, f"{bic.correctfit:.3f} vs 0.800+-0.10"),
            ("LOG~L_0.01 echo", echo_ok, echo_info),
        ],
    )


def test_criterion_04_table3_poisson():
    spec = sim.ScenarioSpec("poisson", 60, 100, ("one-step:log", "subset:bic"), seed=0)
    report = sim.run_scenario(spec, threads=THREADS)
    bic = _row(report, "BIC")
    log_row = _row(report, "One-step LOG")
    _report(
        "criterion 4 (Table 3, Poisson n=60)",
        [
            ("BIC correct-fit", abs(bic.correctfit - 0.735) <= 0.10, f"{bic.correctfit:.3f} vs 0.735+-0.10"),
            ("LOG MRME", abs(log_row.mrme - 0.260) <= 0.10, f"{log_row.mrme:.3f} vs 0.260+-0.10"),
        ],
    )


def test_criterion_05_ascent():
    violations = 0
    worst = 0.0
    for family in ("gaussian", "logistic"):
        for i in range(100):
            rng = np.random.default_rng(1000 + i)
            lam = float(rng.uniform(0.05, 0.8))
            d = random_dataset(2000 + i if family == "gaussian" else 4000 + i, 100, 8, family)
            fit = lla.full_lla(d, PenaltySpec("scad", lam))
            diffs = np.diff(np.asarray(fit.objective_trace))
            worst = min(worst, float(diffs.min()))
            if np.any(diffs < -1e-8):
                violations += 1
    _report(
        "criterion 5 (ascent, 100 Gaussian + 100 logistic)",
        [("violations", violations == 0, f"{violations} traces below -1e-8, worst step {worst:.2e}")],
    )


def test_criterion_06_best_convex_majorization():
    grid = np.round(np.arange(0.05, 10.0 + 1e-9, 0.05), 10)
    worst_line, worst_quad = np.inf, np.inf
    for spec in (SCAD2, PenaltySpec("lq", 2.0, q=0.5)):
        vals = np.array([penalty.value(spec, t) for t in grid])
        v0 = vals
        d0 = np.array([penalty.derivative(spec, t) for t in grid])
        c0 = np.array([penalty.lqa_coefficient(spec, t, 0.0) for t in grid])
        lines = v0[:, None] + d0[:, None] * (grid[None, :] - grid[:, None])
        quads = v0[:, None] + c0[:, None] * (grid[None, :] ** 2 - grid[:, None] ** 2)
        worst_line = min(worst_line, float((lines - vals[None, :]).min()))
        worst_quad = min(worst_quad, float((quads - lines).min()))
    _report(
        "criterion 6 (best convex majorization)",
        [
            ("LLA line >= value", worst_line >= -1e-10, f"min slack {worst_line:.2e}"),
            ("LQA quad >= LLA line", worst_quad >= -1e-10, f"min slack {worst_quad:.2e}"),
        ],
    )


def test_criterion_07_profile_convergence():
    lam = 2.0
    zgrid = np.round(np.arange(-10.0, 10.0 + 1e-9, 0.01), 10)
    log_rule = np.array([threshold.one_step_rule(PenaltySpec("log", lam), z) for z in zgrid])
    sups = []
    pointwise_ok = True
    for q in (0.1, 0.05, 0.01):
        rule = np.array(
            [threshold.one_step_rule(PenaltySpec("lq", lam / q, q=q), z) for z in zgrid]
        )
        diff = np.abs(rule - log_rule)
        sups.append(float(diff.max()))
        if q == 0.01:
            pointwise_ok = bool(np.all(diff <= 0.02 * (1.0 + np.abs(zgrid))))
    _report(
        "criterion 7 (profile convergence to the logarithm rule)",
        [
            ("monotone in q", sups[0] > sups[1] > sups[2], f"sups={[f'{s:.4f}' for s in sups]}"),
            ("pointwise bound at q=0.01", pointwise_ok, "|diff| <= 0.02(1+|z|)"),
        ],
    )


def test_criterion_08_orthonormal_scad_identities():
    a_lam = 3.7 * 2.0
    identity_ok = all(
        threshold.one_step_rule(SCAD2, float(z)) == float(z)
        for z in np.concatenate([np.linspace(a_lam, 12.0, 50), -np.linspace(a_lam, 12.0, 50)])
    )
    zero_ok = all(
        threshold.one_step_rule(SCAD2, float(z)) == 0.0 for z in np.linspace(-2.0, 2.0, 81)
    )
    table = threshold.emit_curve(SCAD2, "one_step", np.round(np.arange(-10.0, 10.0 + 1e-9, 0.01), 10))
    _report(
        "criterion 8 (orthonormal one-step SCAD identities)",
        [
            ("identity for |z| >= a*lam", identity_ok, "exact"),
            ("zero for |z| <= lam", zero_ok, "exact"),
            ("continuity flags", table.discontinuities == (), f"{len(table.discontinuities)} flags"),
        ],
    )


def test_criterion_09_weighted_l1_oracle_equivalence():
    from test_wlasso import random_problem

    worst_coord, worst_obj, worst_kkt = 0.0, 0.0, 0.0
    for seed in range(200):
        prob = random_problem(10_000 + seed)
        sol = wlasso.solve(prob, tol=1e-8)
        oracle = grid_search_oracle(prob)
        worst_coord = max(worst_coord, float(np.max(np.abs(sol.beta - oracle))))
        worst_obj = max(worst_obj, abs(sol.objective - wlasso.objective(prob, oracle)))
        worst_kkt = max(worst_kkt, wlasso.certify_kkt(prob, sol.beta))
    _report(
        "criterion 9 (weighted-L1 oracle equivalence, 200 problems)",
        [
            ("coordinates", worst_coord <= 5e-3, f"max dev {worst_coord:.2e} <= 5e-3"),
            ("objective", worst_obj <= 1e-6, f"max dev {worst_obj:.2e} <= 1e-6"),
            ("KKT", worst_kkt <= 1e-7, f"max residual {worst_kkt:.2e} <= 1e-7"),
        ],
    )


def test_criterion_10_oracle_property_trend():
    reps = 200
    cf = {}
    for n in (100, 400, 1600):
        spec = sim.ScenarioSpec("linear", n, reps, ("one-step:scad",), seed=0, tuning="bic")
        report = sim.run_scenario(spec, threads=THREADS)
        cf[n] = _row(report, "One-step SCAD").correctfit

    spec = sim.ScenarioSpec("linear", 1600, reps, ("one-step:scad",), seed=0, tuning="bic")
    support = list(spec.true_support)
    bt = np.asarray(spec.beta_true)
    m = spec.methods[0]
    se_scad, se_oracle = [], []
    for r in range(reps):
        d = sim.generate(spec, r)
        b_full = glm.fit_mle(d)
        cv_seed = int(np.random.SeedSequence([spec.seed, r, 2]).generate_state(1)[0])
        bh = sim._fit_penalized(spec, m, d, b_full, cv_seed)
        b_or = np.linalg.lstsq(d.design[:, support], d.response, rcond=None)[0]
        se_scad.append(float(np.sum((bh[support] - bt[support]) ** 2)))
        se_oracle.append(float(np.sum((b_or - bt[support]) ** 2)))
    ratio = float(np.mean(se_scad) / np.mean(se_oracle))
    _report(
        "criterion 10 (oracle-property trend, BIC-tuned)",
        [
            (
                "correct-fit nondecreasing",
                cf[100] <= cf[400] <= cf[1600],
                f"{cf[100]:.3f} -> {cf[400]:.3f} -> {cf[1600]:.3f}",
            ),
            ("correct-fit at n=1600", cf[1600] >= 0.9, f"{cf[1600]:.3f} >= 0.9"),
            ("oracle MSE ratio", 0.9 <= ratio <= 1.3, f"{ratio:.4f} in [0.9, 1.3]"),
        ],
    )


def test_criterion_11_simulate_determinism(tmp_path):
    import subprocess
    import sys

    cfg = tmp_path / "det.cfg"
    cfg.write_text(
        "[det]\nexample = linear\nn = 40\nreplications = 6\nseed = 3\n"
        "methods = one-step:scad, subset:bic\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(sim.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    outputs = []
    for threads in ("1", "2", "3"):
        out = tmp_path / f"report_{threads}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "sparsefit", "simulate", "--config", str(cfg),
             "--threads", threads, "--out", str(out)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((out.read_bytes(), proc.stdout))
    same_files = outputs[0][0] == outputs[1][0] == outputs[2][0]
    same_stdout = outputs[0][1] == outputs[1][1] == outputs[2][1]
    _report(
        "criterion 11 (simulate determinism across --threads)",
        [
            ("report files byte-identical", same_files, "threads 1/2/3"),
            ("stdout tables identical", same_stdout, "threads 1/2/3"),
        ],
    )
