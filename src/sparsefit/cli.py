"""Command-line surface: fit, path, cv, threshold curves, and simulations.

CSV in, JSON/CSV out.  Exit codes: 0 success, 2 bad flags, 3 data and other
solver errors, 4 solver non-convergence (``fit`` still writes a partial fit,
when there is one, with ``"converged": false``).
"""

import configparser
import os
import sys
from dataclasses import fields, replace

import click
import numpy as np

from . import glm, jsonio, lla, methods, sim, subset, threshold, tuning
from .exceptions import DataError, NonConvergence, SparsefitError
from .lla import FitResult
from .penalty import format_penalty, parse_penalty

_METHODS = tuple(m.replace("_", "-") for m in methods.METHODS) + ("subset",)

EXIT_DATA = 3
EXIT_NONCONVERGENCE = 4


def _fail_data(msg):
    click.echo(f"error: {msg}", err=True)
    sys.exit(EXIT_DATA)


def _fail_solver(exc, write_partial=None):
    """Exit 4 on NonConvergence, after ``write_partial`` of its partial fit
    when it carries one, and 3 on any other package error."""
    if not isinstance(exc, NonConvergence):
        _fail_data(exc)
    if write_partial is not None and isinstance(exc.result, FitResult):
        write_partial(exc.result)
    click.echo(f"error: {exc}", err=True)
    sys.exit(EXIT_NONCONVERGENCE)


def _write(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _g17(x):
    return jsonio._format_float(float(x))


@click.group()
def main():
    """Sparse estimation with concave penalties: one-step LLA, LQA baselines,
    best-subset selection, thresholding curves, and simulation studies."""


def _load(data, response, family, intercept):
    try:
        return glm.load_csv(data, response, family, intercept)
    except DataError as exc:
        _fail_data(exc)


def _parse_penalty_flag(text):
    if text is None:
        raise click.UsageError("this method requires --penalty")
    try:
        return parse_penalty(text)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _fit_json(fit, family, names, pen=None):
    doc = {
        "schema": "sparsefit/1",
        "method": fit.method,
        "family": family,
        "penalty": format_penalty(replace(pen, lam=fit.lam)) if pen is not None else None,
        "lambda": fit.lam,
        "coefficients": list(map(float, fit.coefficients)),
        "intercept": fit.intercept,
        "support": list(fit.support),
        "iterations": fit.iterations,
        "objective_trace": list(map(float, fit.objective_trace)),
        "converged": fit.converged,
        "feature_names": names,
    }
    return jsonio.dumps(doc) + "\n"


@main.command()
@click.option("--data", required=True, help="input CSV with a header row")
@click.option("--response", required=True, help="name of the response column")
@click.option("--family", type=click.Choice(glm.FAMILIES), default="gaussian")
@click.option("--method", type=click.Choice(_METHODS), default="one-step")
@click.option("--penalty", "penalty_str", default=None, help='e.g. "scad:lambda=2,a=3.7"')
@click.option("--lambda", "lam", type=float, default=None, help="override the penalty level")
@click.option("--cv", is_flag=True, help="pick lambda by k-fold cross-validation")
@click.option("--criterion", type=click.Choice(subset.CRITERIA), default="bic")
@click.option("--k", type=click.IntRange(min=1), default=2, help="number of steps for k-step")
@click.option("--eps0", type=float, default=None, help="LQA deletion cutoff")
@click.option("--tau0", type=float, default=None, help="perturbed-LQA perturbation")
@click.option("--folds", type=click.IntRange(min=2), default=tuning.DEFAULT_FOLDS)
@click.option("--intercept", is_flag=True)
@click.option("--seed", type=int, default=0)
@click.option("--out", default=None, help="write JSON here instead of stdout")
def fit(data, response, family, method, penalty_str, lam, cv, criterion, k,
        eps0, tau0, folds, intercept, seed, out):
    """Fit one model and emit the result as JSON."""
    if eps0 is not None and not eps0 > 0:
        raise click.UsageError("--eps0 must be positive")
    if tau0 is not None and not tau0 > 0:
        raise click.UsageError("--tau0 must be positive")
    if lam is not None and not 0 <= lam < np.inf:  # also rejects nan
        raise click.UsageError("--lambda must be finite and nonnegative")
    dataset, names = _load(data, response, family, intercept)
    if method == "subset":
        try:
            res = subset.best_subset(dataset, criterion)
        except SparsefitError as exc:
            _fail_solver(exc)
        _write(_fit_json(res, family, names), out)
        return
    pen = _parse_penalty_flag(penalty_str)
    if cv and lam is not None:
        raise click.UsageError("--lambda and --cv are mutually exclusive")
    if cv and folds > dataset.n:
        raise click.UsageError(f"--folds {folds} exceeds the {dataset.n} data rows")
    name = method.replace("-", "_")
    opts = dict(k=k, eps0=eps0, tau0=tau0)
    if lam is not None:
        pen = replace(pen, lam=lam)
    try:
        if cv:
            res = methods.tune_and_fit(name, dataset, pen, folds=folds, seed=seed, **opts)
        else:
            res = methods.fit(name, dataset, pen, **opts)
    except SparsefitError as exc:
        _fail_solver(exc, lambda partial: _write(_fit_json(partial, family, names, pen), out))
    _write(_fit_json(res, family, names, pen), out)


@main.command()
@click.option("--data", required=True)
@click.option("--response", required=True)
@click.option("--family", type=click.Choice(glm.FAMILIES), default="gaussian")
@click.option("--penalty", "penalty_str", required=True,
              help="penalty family; its lambda= is ignored in favor of the grid")
@click.option("--n-lambda", type=click.IntRange(min=1), default=tuning.DEFAULT_N_LAMBDA)
@click.option("--min-ratio", type=float, default=tuning.DEFAULT_MIN_RATIO)
@click.option("--intercept", is_flag=True)
@click.option("--out", default=None)
def path(data, response, family, penalty_str, n_lambda, min_ratio, intercept, out):
    """One-step coefficient profile over the default lambda grid (CSV)."""
    if not 0.0 < min_ratio < 1.0:  # also rejects nan, which click.FloatRange lets through
        raise click.UsageError("--min-ratio must lie in (0, 1)")
    dataset, names = _load(data, response, family, intercept)
    pen = _parse_penalty_flag(penalty_str)
    try:
        b0 = glm.fit_mle(dataset)
        lam_max = lla.one_step_lambda_max(dataset, pen, b0=b0)
        grid = tuning.default_lambda_grid(lam_max, n_lambda, min_ratio)
        fits = lla.one_step_path(dataset, pen, grid, b0=b0)
    except SparsefitError as exc:
        _fail_solver(exc)
    cols = ["lambda"] + (["intercept"] if intercept else []) + names
    lines = [",".join(cols)]
    for lam, fitres in zip(grid, fits):
        if fitres is None:
            vals = [float("nan")] * (len(cols) - 1)
        else:
            vals = ([fitres.intercept] if intercept else []) + list(fitres.coefficients)
        lines.append(",".join([_g17(lam)] + [_g17(v) for v in vals]))
    _write("\n".join(lines) + "\n", out)


@main.command()
@click.option("--data", required=True)
@click.option("--response", required=True)
@click.option("--family", type=click.Choice(glm.FAMILIES), default="gaussian")
@click.option("--method", type=click.Choice(("one-step", "lqa", "plqa")), default="one-step")
@click.option("--penalty", "penalty_str", required=True)
@click.option("--folds", type=click.IntRange(min=2), default=tuning.DEFAULT_FOLDS)
@click.option("--n-lambda", type=click.IntRange(min=1), default=tuning.DEFAULT_N_LAMBDA)
@click.option("--min-ratio", type=float, default=tuning.DEFAULT_MIN_RATIO)
@click.option("--intercept", is_flag=True)
@click.option("--seed", type=int, default=0)
@click.option("--out", default=None)
def cv(data, response, family, method, penalty_str, folds, n_lambda, min_ratio,
       intercept, seed, out):
    """Cross-validation curve as CSV; the chosen lambda is on the first line."""
    if not 0.0 < min_ratio < 1.0:
        raise click.UsageError("--min-ratio must lie in (0, 1)")
    dataset, _ = _load(data, response, family, intercept)
    if folds > dataset.n:  # the bound simulate applies to cv_folds
        raise click.UsageError(f"--folds {folds} exceeds the {dataset.n} data rows")
    pen = _parse_penalty_flag(penalty_str)
    try:
        lam_star, curve = methods.select_lambda(method.replace("-", "_"), dataset, pen, None,
                                                n_lambda, min_ratio, "cv", folds, seed)
    except SparsefitError as exc:
        _fail_solver(exc)
    lines = [f"# lambda_star = {_g17(lam_star)}", "lambda,loss"]
    lines += [f"{_g17(lam)},{_g17(loss)}" for lam, loss in curve]
    _write("\n".join(lines) + "\n", out)


@main.command("threshold")
@click.option("--penalty", "penalty_str", required=True)
@click.option("--mode", type=click.Choice(("exact", "one-step")), default="one-step")
@click.option("--zmin", type=float, default=-10.0)
@click.option("--zmax", type=float, default=10.0)
@click.option("--step", type=float, default=0.01)
@click.option("--out", default=None)
def threshold_cmd(penalty_str, mode, zmin, zmax, step, out):
    """Thresholding-rule curve theta(z) on a z grid, with a jump report."""
    pen = _parse_penalty_flag(penalty_str)
    if not np.isfinite([zmin, zmax, step]).all():
        raise click.UsageError("--zmin, --zmax and --step must be finite")
    if not step > 0 or not zmax > zmin:
        raise click.UsageError("need step > 0 and zmax > zmin")
    grid = np.arange(zmin, zmax + step / 2.0, step)
    table = threshold.emit_curve(pen, mode.replace("-", "_"), grid)
    if table.discontinuities:
        report = "# discontinuities: " + ";".join(_g17(z) for z in table.discontinuities)
    else:
        report = "# discontinuities: none"
    lines = [report, "z,theta"]
    lines += [f"{_g17(z)},{_g17(t)}" for z, t in zip(table.z, table.theta)]
    _write("\n".join(lines) + "\n", out)


#: defaults of the ScenarioSpec fields that have none of their own
_SECTION_DEFAULTS = {"example": "linear", "n": 50, "replications": 100}


def _scenario_from_section(section, reps, seed):
    """ScenarioSpec of a config section: one key per field, cast to the
    field's type (tuples are comma-separated); unknown keys are errors."""
    types = {f.name: f.type for f in fields(sim.ScenarioSpec)}
    kwargs = dict(_SECTION_DEFAULTS)
    for key, text in section.items():
        if key not in types:
            raise DataError(f"unknown config key {key!r}")
        if types[key] is tuple:
            kwargs[key] = tuple(s.strip() for s in text.split(",") if s.strip())
        else:
            kwargs[key] = types[key](text.strip())
    if not kwargs.get("methods"):
        raise DataError("config section needs a methods = ... line")
    if reps is not None:
        kwargs["replications"] = reps
    if seed is not None:
        kwargs["seed"] = seed
    return sim.ScenarioSpec(**kwargs)


@main.command()
@click.option("--config", "config_path", required=True, help="scenario config file")
@click.option("--scenario", default=None, help="run a single named section")
@click.option("--reps", type=int, default=None, help="override replications")
@click.option("--seed", type=int, default=None, help="override the seed")
@click.option("--threads", type=int, default=None,
              help="worker processes (default: SPARSEFIT_THREADS or 1)")
@click.option("--out", default=None, help="write the JSON report here")
def simulate(config_path, scenario, reps, seed, threads, out):
    """Run simulation scenarios from a config file and print metric tables."""
    if threads is None:
        threads = int(os.environ.get("SPARSEFIT_THREADS", "1"))
    parser = configparser.ConfigParser()
    try:
        with open(config_path) as fh:
            parser.read_file(fh)
    except (OSError, configparser.Error) as exc:
        _fail_data(f"cannot read config {config_path}: {exc}")
    names = [scenario] if scenario else parser.sections()
    if scenario and scenario not in parser.sections():
        _fail_data(f"no scenario section named {scenario!r}")
    if not names:
        _fail_data(f"{config_path}: no scenario sections")
    reports = {}
    for name in names:
        try:
            spec = _scenario_from_section(parser[name], reps, seed)
        except (DataError, ValueError) as exc:
            _fail_data(f"[{name}] {exc}")
        report = sim.run_scenario(spec, threads=threads)
        reports[name] = report
        click.echo(f"[{name}]")
        click.echo(sim.format_table(report))
    doc = {name: rep.to_dict() for name, rep in reports.items()}
    if out:
        with open(out, "w") as fh:
            fh.write(jsonio.dumps(doc) + "\n")


if __name__ == "__main__":
    main()
