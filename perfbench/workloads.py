"""The four workloads: inputs made from the seed, units of work, output checks.

A unit is the piece of work that is timed and checked.  In the ``sim_*``
workloads unit *k* of seed *s* is one public
``sim.run_scenario(ScenarioSpec(..., replications=1, seed=s+k), threads=1)``
call per scenario family of the workload (``sim_glm`` has two: a logistic
and a Poisson replication), each timed and checked on its own.  In
``cli_session`` unit *k* is five data commands (``fit --cv``,
``fit --method k-step``, ``fit --method full-lla``, ``path``, ``cv``) on each
of two CSVs that ``sim.generate`` makes for seed *s+k*, a Gaussian and a
logistic one; the session also runs four ``threshold`` curves once.  Every
input is a function of *s+k* alone, so a unit's output can be checked against
the recorded reference whenever *s+k* is one of the recorded keys, whatever
the seed of the run.
"""

import hashlib
import json
import math
import os
import time

from sparsefit import cli, sim

#: scenario keys as in scripts/configs/tables.cfg
EX1_N50 = {"example": "linear", "n": 50}
EX2_N200 = {"example": "logistic", "n": 200}
EX3_N60 = {"example": "poisson", "n": 60}

CLASSES = ("underfit", "correctfit", "overfit")
MRME_RTOL = 1e-9


class SimWorkload:
    """Replications of one scenario family, or of two families in pairs."""

    def __init__(self, name, scenarios, methods, batch_units, trace_units, **spec_extra):
        self.name = name
        self.scenarios = scenarios
        self.methods = methods
        self.batch_units = batch_units
        self.trace_units = trace_units
        self.spec_extra = spec_extra

    def spec(self, scenario, rep_seed, warm=False):
        kwargs = dict(scenario, replications=1, methods=self.methods, seed=rep_seed)
        kwargs.update(self.spec_extra)
        if warm:  # same code paths on a 4-predictor problem and a 2-point grid
            beta = sim.BETA_POISSON if scenario["example"] == "poisson" else sim.BETA_MAIN
            kwargs.update(p=4, beta_true=beta[:4], n_lambda=2)
        return sim.ScenarioSpec(**kwargs)

    def setup(self):
        """One warm-up replication of each scenario on a reduced problem.

        The warm-up is the same for every seed, so set-up time does not
        depend on the seed.
        """
        for scenario in self.scenarios:
            sim.run_scenario(self.spec(scenario, 0, warm=True), threads=1)

    def run_unit(self, seed, k):
        """Run unit k: one replication per scenario, all with seed ``seed + k``.

        Returns (key, seconds, outputs, seconds of each replication).
        """
        times, outputs = [], []
        for scenario in self.scenarios:
            spec = self.spec(scenario, seed + k)
            t0 = time.perf_counter()
            report = sim.run_scenario(spec, threads=1)
            times.append(time.perf_counter() - t0)
            outputs.append(report.to_dict())
        return str(seed + k), sum(times), outputs, times

    def check(self, key, outputs, reference):
        """Error messages for one unit's reports; empty when they are right."""
        errors, summaries = [], []
        for scenario, output in zip(self.scenarios, outputs):
            errs, summary = self._check_report(self.spec(scenario, int(key)), output)
            errors += [f"rep seed {key} {scenario['example']}: {e}" for e in errs]
            summaries.append(summary)
        if errors or reference is None or key not in reference:
            return errors
        for scenario, summary, want_rows in zip(self.scenarios, summaries, reference[key]):
            for got, want in zip(summary, want_rows):
                where = f"rep seed {key} {scenario['example']} {got[0]}"
                if got[:4] != want[:4]:
                    errors.append(f"{where}: {got[1:4]} != reference {want[1:4]}")
                elif abs(got[4] - want[4]) > MRME_RTOL * abs(want[4]):
                    errors.append(f"{where}: MRME {got[4]!r} != reference {want[4]!r}")
        return errors

    @staticmethod
    def _check_report(spec, output):
        """Structural checks; returns (errors, [method, C, IC, class, MRME] rows)."""
        if output["failures"] != 0 or not output["valid"] or output["replications_used"] != 1:
            return [f"replication failed: {output['failures']} failures"], []
        rows = output["rows"]
        if [r["method"] for r in rows] != [m.label for m in spec.methods]:
            return [f"method rows {[r['method'] for r in rows]}"], []
        n_true = len(spec.true_support)
        errors, summary = [], []
        for r in rows:
            flags = [r[c] for c in CLASSES]
            if sorted(flags) != [0.0, 0.0, 1.0]:
                errors.append(f"{r['method']}: fit class {flags} is not one-hot")
                continue
            cls = CLASSES[flags.index(1.0)]
            c, ic = r["c"], r["ic"]
            if not (c == int(c) and 0 <= c <= n_true and ic == int(ic) and 0 <= ic <= spec.p - n_true):
                errors.append(f"{r['method']}: C={c} IC={ic} out of range")
            expect = "underfit" if c < n_true else ("correctfit" if ic == 0 else "overfit")
            if cls != expect:
                errors.append(f"{r['method']}: class {cls} contradicts C={c} IC={ic}")
            if not (math.isfinite(r["mrme"]) and r["mrme"] >= 0.0):
                errors.append(f"{r['method']}: MRME {r['mrme']}")
            summary.append([r["method"], int(c), int(ic), cls, r["mrme"]])
        return errors, summary

    def reference_entry(self, outputs):
        return [
            [[r["method"], int(r["c"]), int(r["ic"]),
              CLASSES[[r[c] for c in CLASSES].index(1.0)], r["mrme"]]
             for r in output["rows"]]
            for output in outputs
        ]


def _digest(data):
    return hashlib.sha256(data).hexdigest()


def _check_fit(text, p):
    doc = json.loads(text)
    coef = doc["coefficients"]
    errors = []
    if doc["schema"] != "sparsefit/1" or doc["converged"] is not True:
        errors.append("fit: bad schema or not converged")
    if len(coef) != p or not all(math.isfinite(c) for c in coef):
        errors.append("fit: coefficients not finite")
    if doc["support"] != [j for j, c in enumerate(coef) if c != 0.0]:
        errors.append("fit: support does not match the nonzero coefficients")
    if not all(math.isfinite(v) for v in doc["objective_trace"]) or not doc["lambda"] > 0:
        errors.append("fit: objective trace or lambda not finite")
    return errors


def _check_table(lines, header, n_rows, finite=True):
    if lines[0] != header or len(lines) != n_rows + 1:
        return [f"table header {lines[0]!r} or {len(lines) - 1} rows"]
    rows = [[float(c) for c in line.split(",")] for line in lines[1:]]
    bad = [r for r in rows if not all(math.isfinite(v) if finite else v == v for v in r)]
    return [f"{len(bad)} rows with non-finite values"] if bad else []


class CliSession:
    """One person at a terminal: data commands on two datasets, threshold curves."""

    name = "cli_session"
    batch_units = 10
    trace_units = 1
    n_lambda = 100
    scenarios = (("gaussian", EX1_N50), ("logistic", EX2_N200))
    curves = (
        ("threshold-exact-scad", "scad:lambda=2,a=3.7", "exact"),
        ("threshold-one-step-scad", "scad:lambda=2,a=3.7", "one-step"),
        ("threshold-exact-lq", "lq:lambda=2,q=0.5", "exact"),
        ("threshold-one-step-lq", "lq:lambda=2,q=0.5", "one-step"),
    )

    def __init__(self, workdir):
        self.workdir = workdir

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def write_dataset(self, family, scenario, data_seed):
        """CSV of the dataset ``sim.generate`` makes for ``scenario`` and ``data_seed``."""
        spec = sim.ScenarioSpec(**scenario, replications=1, methods=("full",), seed=data_seed)
        d = sim.generate(spec, 0)
        lines = [",".join([f"x{j + 1}" for j in range(d.p)] + ["y"])]
        for row, y in zip(d.design.tolist(), d.response.tolist()):
            lines.append(",".join(format(v, ".17g") for v in row + [y]))
        path = self._path(f"data-{family}.csv")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        return path

    @staticmethod
    def commands(path, family, data_seed):
        data = ["--data", path, "--response", "y", "--family", family]
        return [
            ("fit-cv", ["fit", *data, "--method", "one-step", "--penalty", "scad:lambda=1",
                        "--cv", "--seed", str(data_seed)]),
            ("fit-k-step", ["fit", *data, "--method", "k-step", "--penalty", "scad:lambda=0.2",
                            "--k", "2"]),
            ("fit-full-lla", ["fit", *data, "--method", "full-lla", "--penalty", "scad:lambda=0.2"]),
            ("path", ["path", *data, "--penalty", "scad:lambda=1"]),
            ("cv", ["cv", *data, "--penalty", "scad:lambda=1", "--seed", str(data_seed)]),
        ]

    def _invoke(self, label, argv):
        """Run one command in-process; returns (seconds, output bytes)."""
        out = self._path(f"out-{label}")
        if os.path.exists(out):
            os.remove(out)
        t0 = time.perf_counter()
        try:
            cli.main([*argv, "--out", out], standalone_mode=False)
        except SystemExit as exc:
            raise RuntimeError(f"{label} exited with code {exc.code}") from None
        seconds = time.perf_counter() - t0
        with open(out, "rb") as fh:
            return seconds, fh.read()

    def setup(self):
        """Warm-up, the same for every seed: unit 0 of seed 0, each curve on 7 points."""
        self.run_unit(0, 0)
        for label, pen, mode in self.curves:
            self._invoke(label, ["threshold", "--penalty", pen, "--mode", mode,
                                 "--zmin", "0", "--zmax", "3", "--step", "0.5"])

    def run_unit(self, seed, k):
        """Five data commands on the Gaussian and on the logistic dataset of seed+k.

        Returns (key, seconds, outputs, seconds of each command).
        """
        data_seed = seed + k
        times, outputs = [], {}
        for family, scenario in self.scenarios:
            path = self.write_dataset(family, scenario, data_seed)
            for label, argv in self.commands(path, family, data_seed):
                seconds, data = self._invoke(label, argv)
                times.append(seconds)
                outputs[f"{family}/{label}"] = data.decode()
        return str(data_seed), sum(times), outputs, times

    def run_curves(self, gauge=None):
        """The four threshold curves on the default z grid.

        Returns (seconds, seconds at nominal host speed, outputs); the second
        equals the first without a ``gauge`` (host.SpeedGauge).
        """
        raw = nominal = 0.0
        outputs = {}
        for label, pen, mode in self.curves:
            mark = gauge.mark() if gauge else 0
            seconds, data = self._invoke(label, ["threshold", "--penalty", pen, "--mode", mode])
            raw += seconds
            nominal += seconds * (gauge.scale(mark) if gauge else 1.0)
            outputs[label] = data.decode()
        return raw, nominal, outputs

    def check(self, key, output, reference):
        """Structural checks on every output, byte identity where recorded."""
        p = 12
        names = ",".join(f"x{j + 1}" for j in range(p))
        errors = []
        for family, _ in self.scenarios:
            try:
                for label in ("fit-cv", "fit-k-step", "fit-full-lla"):
                    errors += [f"{family}/{label}: {e}"
                               for e in _check_fit(output[f"{family}/{label}"], p)]
                errors += _check_table(output[f"{family}/path"].splitlines(), f"lambda,{names}",
                                       self.n_lambda)
                cv_lines = output[f"{family}/cv"].splitlines()
                lam_star = float(cv_lines[0].removeprefix("# lambda_star = "))
                errors += _check_table(cv_lines[1:], "lambda,loss", self.n_lambda, finite=False)
                if lam_star not in [float(line.split(",")[0]) for line in cv_lines[2:]]:
                    errors.append(f"{family}/cv: lambda_star {lam_star!r} is not a grid point")
            except (ValueError, KeyError, IndexError) as exc:
                errors.append(f"{family}: malformed output: {exc!r}")
        return errors + self._against_reference(key, output, reference)

    def check_curves(self, output, reference):
        errors = []
        for label, text in output.items():
            lines = text.splitlines()
            if not lines[0].startswith("# discontinuities: "):
                errors.append(f"{label}: no discontinuity report")
            try:
                errors += [f"{label}: {e}" for e in _check_table(lines[1:], "z,theta", 2001)]
            except ValueError as exc:
                errors.append(f"{label}: malformed output: {exc!r}")
        return errors + self._against_reference("curves", output, reference)

    @staticmethod
    def _against_reference(key, output, reference):
        if reference is None or key not in reference:
            return []
        want = reference[key]
        return [f"{key} {label}: output differs from the reference"
                for label, text in output.items() if _digest(text.encode()) != want.get(label)]

    @staticmethod
    def reference_entry(output):
        return {label: _digest(text.encode()) for label, text in output.items()}


def make(name, workdir):
    """The workload called ``name``; ``workdir`` holds cli_session's files."""
    if name == "sim_linear":
        return SimWorkload(name, (EX1_N50,), (
            "one-step:scad", "one-step:log", "one-step:lq(q=0.01)", "subset:aic", "subset:bic"),
            batch_units=10, trace_units=3)
    if name == "sim_glm":
        return SimWorkload(name, (EX2_N200, EX3_N60), (
            "one-step:scad", "one-step:log", "subset:bic"), batch_units=5, trace_units=1)
    if name == "sim_lqa":
        # a 10-point lambda grid instead of 100 keeps a replication near 4 s
        return SimWorkload(name, (EX1_N50,), ("lqa:scad", "plqa:scad"),
                           batch_units=5, trace_units=2, n_lambda=10)
    if name == "cli_session":
        return CliSession(workdir)
    raise KeyError(name)


WORKLOADS = ("sim_linear", "sim_glm", "sim_lqa", "cli_session")
