"""Benchmark of sparsefit: four workloads, end-to-end metrics, a traced per-layer run.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload sim_linear --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
runs a fixed, seed-determined set of units twice, untraced and then traced
(see tracer.py), checks that both passes produce identical outputs, and
reports the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are for people.  Any output
that fails its check makes the exit code 1.  See README.md in this directory.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKDIR = os.path.join(HERE, ".work")
SETUP_REPEATS = 3

#: (name, unit) of the metrics printed with --trace 0, for every workload
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("rep_s_p50", "s"),
    ("reps_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
)

#: the metrics printed with --trace 1, for every workload
PER_LAYER = (
    "lqa.lqa_fit.calls", "lqa.lqa_fit.self_s", "lqa.lqa_fit.iterations",
    "lqa.lqa_fit.nonconverged",
    "lqa.perturbed_lqa_fit.calls", "lqa.perturbed_lqa_fit.self_s",
    "lqa.perturbed_lqa_fit.iterations", "lqa.perturbed_lqa_fit.nonconverged",
    "lqa.perturbed_penalty_value.calls", "lqa.perturbed_penalty_value.self_s",
    "glm.fit_mle.calls", "glm.fit_mle.self_s", "glm.loglik.calls", "glm.loglik.self_s",
    "glm.score.calls", "glm.score.self_s", "glm.neg_hessian.calls", "glm.neg_hessian.self_s",
    "glm.load_csv.self_s",
    "subset.enumerate_subset_fits.calls", "subset.enumerate_subset_fits.self_s",
    "subset.select_from_enumeration.self_s",
    "wlasso.solve_gram.calls", "wlasso.solve_gram.self_s", "wlasso.solve_gram.sweeps",
    "wlasso.solve.calls", "wlasso.solve.self_s",
    "lla.one_step_path.calls", "lla.one_step_path.self_s", "lla.one_step_path.points",
    "lla.one_step_path.none", "lla.one_step_lambda_max.self_s",
    "lla.one_step.calls", "lla.one_step.self_s",
    "lla.penalized_objective.calls", "lla.penalized_objective.self_s",
    "lla.k_step.self_s", "lla.full_lla.self_s", "lla.full_lla.iterations",
    "penalty.value.calls", "penalty.value.self_s", "penalty.derivative.calls",
    "penalty.derivative.self_s", "penalty.lqa_coefficient.calls",
    "penalty.lqa_coefficient.self_s",
    "tuning.cv_select.calls", "tuning.cv_select.self_s", "tuning.cv_select.grid_points",
    "tuning.cv_select.grid_inf", "tuning.validation_loss.calls",
    "tuning.validation_loss.self_s",
    "sim.run_scenario.self_s", "sim.generate.self_s", "sim.model_error.calls",
    "sim.model_error.self_s",
    "threshold.emit_curve.self_s", "threshold.exact_rule.calls",
    "threshold.exact_rule.self_s", "threshold.one_step_rule.calls",
    "cli.fit.self_s", "cli.path.self_s", "cli.cv.self_s", "cli.threshold.self_s",
    "jsonio.dumps.calls", "jsonio.dumps.self_s",
)
OVERHEAD = "trace.overhead"


def per_layer_unit(name):
    if name == OVERHEAD:
        return "ratio"
    return "s" if name.endswith("_s") else "count"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("sim_linear", "sim_glm", "sim_lqa", "cli_session"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_package():
    """Import sparsefit from ./src with BLAS pinned to one thread; returns seconds."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "sparsefit", "__init__.py")):
        sys.exit("perfbench: run from the root of a sparsefit checkout (no src/sparsefit here)")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import sparsefit
    import sparsefit.cli  # noqa: F401  (the CLI pulls in click)
    seconds = time.perf_counter() - t0
    if not os.path.abspath(sparsefit.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: imported sparsefit from {sparsefit.__file__}, not from ./src")
    return seconds


def percentile_report(values):
    """Median and the highest of p90/p99 with at least ten samples beyond it."""
    if not values:
        return {"n": 0}
    out = {"n": len(values), "p50": statistics.median(values)}
    for p in (90, 99):
        if len(values) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return out


def measure(wl, seed, seconds, reference, import_s):
    """The untraced run: set-up, then the curves and units until ``seconds`` pass.

    Times are converted to seconds at the nominal host speed with the samples
    host.SpeedGauge takes while each piece of work runs; the raw seconds are
    in the details.
    """
    import host

    gauge = host.SpeedGauge()
    gauge.start()
    try:
        return _measure(wl, seed, seconds, reference, import_s, gauge)
    finally:
        gauge.stop()


def child_import_s():
    """Seconds a fresh interpreter takes to import sparsefit.cli from ./src."""
    code = ("import sys, time; sys.path.insert(0, 'src'); t0 = time.perf_counter(); "
            "import sparsefit.cli; print(time.perf_counter() - t0)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=120)
    return float(proc.stdout)


def _measure(wl, seed, seconds, reference, import_s, gauge):
    raw = {"setup": [], "curves": 0.0, "units": []}
    setups = []
    for _ in range(SETUP_REPEATS):  # each set-up: a fresh import, then the warm-up
        mark = gauge.mark()
        imported = child_import_s()
        nominal = imported * gauge.scale(mark)
        mark = gauge.mark()
        t0 = time.perf_counter()
        wl.setup()
        warm = time.perf_counter() - t0
        raw["setup"].append(imported + warm)
        setups.append(nominal + warm * gauge.scale(mark))
    attempted = failed = 0
    errors = []
    curve_s = 0.0
    rep_times, cmd_times = [], []
    start = time.perf_counter()
    if hasattr(wl, "run_curves"):
        attempted += 1
        try:
            raw["curves"], curve_s, out = wl.run_curves(gauge)
            errs = wl.check_curves(out, reference)
        except Exception as exc:  # a failing command is a failed unit, not a crash
            errs = [f"curves: {type(exc).__name__}: {exc}"]
        failed += bool(errs)
        errors += errs
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        attempted += 1
        mark = gauge.mark()
        try:
            key, unit_s, out, cmds = wl.run_unit(seed, k)
            scale = gauge.scale(mark)
            errs = wl.check(key, out, reference)
        except Exception as exc:
            errs = [f"unit {k}: {type(exc).__name__}: {exc}"]
        if errs:
            failed += 1
            errors += errs
        else:
            raw["units"].append(unit_s)
            rep_times.append(unit_s * scale)
            cmd_times += [c * scale for c in cmds]
        k += 1
    report_failures(errors)
    if not rep_times:
        rep_times = raw["units"] = [0.0]
    reps_per_s = len(rep_times) / sum(rep_times) if sum(rep_times) else 0.0
    raw_reps_per_s = len(raw["units"]) / sum(raw["units"]) if sum(raw["units"]) else 0.0
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": curve_s + wl.batch_units / reps_per_s if reps_per_s else 0.0,
        "rep_s_p50": statistics.median(rep_times),
        "reps_per_s": reps_per_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {
        "import_s": import_s,
        "setup_runs_s": setups,
        "rep_s": percentile_report(rep_times),
        "fail_frac": failed / attempted,
        "raw": {
            "setup_s": statistics.median(raw["setup"]),
            "wall_s": raw["curves"] + wl.batch_units / raw_reps_per_s if raw_reps_per_s else 0.0,
            "rep_s_p50": statistics.median(raw["units"]),
            "reps_per_s": raw_reps_per_s,
        },
        "speed_samples": len(gauge.samples),
        "speed_scale": gauge.scale(),
    }
    if hasattr(wl, "run_curves"):
        details["curve_s"] = curve_s
        details["cmd_s"] = percentile_report(cmd_times)
    return attempted, failed, metrics, details


def report_failures(errors):
    for e in errors:
        print(f"perfbench: FAIL {e}", file=sys.stderr)


def _fingerprint(output):
    return hashlib.sha256(json.dumps(output, sort_keys=True).encode()).hexdigest()


def trace_run(wl, seed, reference, src_digest):
    """Untraced then traced pass over the same units; per-layer metrics."""
    import sparsefit
    from sparsefit import (cli, glm, jsonio, lla, lqa, penalty, sim, subset, threshold,
                           tuning, wlasso)
    from tracer import Tracer

    wl.setup()
    tracer = Tracer([sparsefit, cli, glm, jsonio, lla, lqa, penalty, sim, subset,
                     threshold, tuning, wlasso],
                    {name.rpartition(".")[0] for name in PER_LAYER})

    def one_pass(traced):
        outputs, total = {}, 0.0
        if hasattr(wl, "run_curves"):
            if traced:
                tracer.begin_unit("curves")
            seconds, _, outputs["curves"] = wl.run_curves()
            if traced:
                tracer.end_unit()
            total += seconds
        for k in range(wl.trace_units):
            if traced:
                tracer.begin_unit(k)
            key, seconds, outputs[key], _ = wl.run_unit(seed, k)
            if traced:
                tracer.end_unit()
            total += seconds
        return total, outputs

    plain_s, plain = one_pass(traced=False)
    tracer.install()
    try:
        traced_s, traced = one_pass(traced=True)
    finally:
        tracer.uninstall()

    failed = 0
    for key, out in plain.items():
        check = wl.check_curves(out, reference) if key == "curves" else wl.check(key, out, reference)
        if _fingerprint(traced[key]) != _fingerprint(out):
            check.append(f"unit {key}: traced output differs from the untraced one")
        failed += bool(check)
        report_failures(check)
    counts_key = f"{src_digest[:16]}-{bench_digest()[:8]}-{wl.name}-{seed}"
    mismatches = check_counts(tracer.counts(), counts_key)
    failed += bool(mismatches)
    report_failures(mismatches)

    with open(os.path.join(WORKDIR, f"trace-{wl.name}-{seed}.json"), "w") as fh:
        json.dump({"spans": tracer.spans,
                   "functions": {name: {"calls": s[0], "total_s": s[1], "self_s": s[2]}
                                 for name, s in sorted(tracer.stats.items()) if s[0]},
                   "counters": dict(tracer.counters)}, fh)
    metrics = tracer.per_layer(PER_LAYER)
    metrics[OVERHEAD] = traced_s / plain_s
    details = {"untraced_s": plain_s, "traced_s": traced_s, "spans": len(tracer.spans)}
    return len(plain), failed, metrics, details


def bench_digest():
    """sha256 of this benchmark's own code, which decides what is counted."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(HERE)):
        if name.endswith(".py"):
            with open(os.path.join(HERE, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def check_counts(counts, key):
    """Counts depend only on the code and the seed: compare with an earlier traced run."""
    os.makedirs(os.path.join(WORKDIR, "counts"), exist_ok=True)
    path = os.path.join(WORKDIR, "counts", key + ".json")
    if not os.path.exists(path):
        with open(path, "w") as fh:
            json.dump(counts, fh, indent=1, sort_keys=True)
        return []
    with open(path) as fh:
        earlier = json.load(fh)
    return [f"count {name}: {earlier.get(name)} in an earlier traced run, {counts.get(name)} now"
            for name in sorted(set(earlier) | set(counts)) if earlier.get(name) != counts.get(name)]


def main(argv=None):
    args = parse_args(argv)
    import_s = import_package()
    import host
    import workloads

    facts = host.facts()
    print("# host " + json.dumps(facts, sort_keys=True))
    os.makedirs(WORKDIR, exist_ok=True)
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh).get(args.workload)
    wl = workloads.make(args.workload, WORKDIR)
    try:
        if args.trace:
            attempted, failed, values, details = trace_run(
                wl, args.seed, reference, facts["src_sha256"])
            units = {name: per_layer_unit(name) for name in values}
        else:
            attempted, failed, values, details = measure(
                wl, args.seed, args.seconds, reference, import_s)
            units = dict(END_TO_END)
    finally:
        for name in os.listdir(WORKDIR):
            if name.startswith(("data-", "out-")):
                os.remove(os.path.join(WORKDIR, name))
    print("# details " + json.dumps(details, sort_keys=True))
    for name, value in values.items():
        print(f"# {args.workload} {name} = {value} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
