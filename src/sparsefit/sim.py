"""Benchmark scenarios: data generators, model error, and the replication driver.

Three scenario families: a Gaussian linear model with AR(0.5) covariates, a
logistic model whose even-indexed covariates are dichotomized, and a Poisson
log-linear model.  Each replication generates data, fits a full-model
baseline plus every requested method (lambda tuned by CV or BIC where
applicable), and scores model error against the truth; the report aggregates
the median relative model error (MRME), the average counts of correctly kept
(C) and wrongly kept (IC) coefficients, and under/correct/over-fit
proportions.

Randomness is counter-based: every draw comes from a stream keyed by
(seed, replication index, purpose tag), so results are byte-identical no
matter how replications are scheduled.
"""

import concurrent.futures
import re
from dataclasses import asdict, dataclass, field

import numpy as np

from . import glm, methods, subset, tuning
from .penalty import FAMILIES, SCAD_DEFAULT_A, PenaltySpec, penalty_from_params

#: the standard coefficient vectors, zero-padded to 12 coordinates
BETA_MAIN = (3.0, 1.5, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
BETA_POISSON = (1.2, 0.6, 0.0, 0.0, 0.8, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

EXAMPLES = ("linear", "logistic", "poisson")

RHO = 0.5  # covariates are N(0, AR(RHO))
TEST_POINTS = 10_000  # Monte Carlo rows of the logistic model error

#: lambda selectors: k-fold CV (prediction) or BIC (selection-consistent)
TUNINGS = ("cv", "bic")

_TAG_DATA = 0
_TAG_TEST = 1
_TAG_CV = 2


@dataclass(frozen=True)
class MethodSpec:
    """One row of a scenario: an estimator plus its tuning flavor."""

    kind: str  # one_step | lqa | plqa | subset | oracle | full
    pen: PenaltySpec | None = None  # the penalty family and shape at lambda = 1
    criterion: str | None = None
    label: str = ""


def parse_method(text: str) -> MethodSpec:
    """Parse a method descriptor such as ``one-step:scad`` or ``subset:bic``.

    Grammar: ``oracle``, ``full``, ``subset:aic|bic`` (or bare ``aic``/
    ``bic``), and ``<kind>:<family>[(key=value,...)]`` with kind one of
    one-step/lqa/plqa, family scad/lq/log/l1, and keys those of
    :func:`penalty.penalty_from_params` without ``lambda``.  Labels name a
    SCAD ``a`` other than the default, as in ``One-step SCAD(a=3)``, and the
    ``q`` of lq, as in ``LQA L_0.5``.
    """
    t = text.strip().lower()
    if t == "oracle":
        return MethodSpec("oracle", label="Oracle")
    if t == "full":
        return MethodSpec("full", label="Full model")
    if t in ("aic", "bic"):
        return MethodSpec("subset", criterion=t, label=t.upper())
    head, _, tail = t.partition(":")
    if head == "subset":
        if tail not in ("aic", "bic"):
            raise ValueError(f"subset criterion must be aic or bic, got {tail!r}")
        return MethodSpec("subset", criterion=tail, label=tail.upper())
    kind = head.replace("-", "_")
    if kind not in ("one_step", "lqa", "plqa"):
        raise ValueError(f"unknown method kind {head!r} in {text!r}")
    m = re.fullmatch(rf"({'|'.join(FAMILIES)})(?:\(([^)]*)\))?", tail)
    if not m:
        raise ValueError(f"bad penalty in method {text!r}")
    family = m.group(1)
    pen = penalty_from_params(family, m.group(2), text, lam=1.0)
    fam_label = {"scad": "SCAD", "log": "LOG", "l1": "L1"}.get(family, f"L_{pen.q:g}")
    if family == "scad" and pen.a != SCAD_DEFAULT_A:
        fam_label += f"(a={pen.a:g})"
    if kind == "one_step":
        label = f"One-step {fam_label}"
    elif kind == "lqa":
        label = fam_label if family == "scad" else f"LQA {fam_label}"
    else:
        label = f"P-{fam_label}" if family == "scad" else f"P-LQA {fam_label}"
    return MethodSpec(kind, pen, None, label)


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything that determines a simulation run (and hence its report)."""

    example: str
    n: int
    replications: int
    methods: tuple
    p: int = 12
    beta_true: tuple = ()
    seed: int = 0
    n_lambda: int = tuning.DEFAULT_N_LAMBDA
    tuning: str = "cv"  # shadows the module only inside this class body

    def __post_init__(self):
        if self.example not in EXAMPLES:
            raise ValueError(f"unknown example {self.example!r}")
        if self.tuning not in TUNINGS:
            raise ValueError(f"tuning must be one of {TUNINGS}, got {self.tuning!r}")
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if self.n < tuning.DEFAULT_FOLDS:
            raise ValueError(f"n = {self.n} is below the {tuning.DEFAULT_FOLDS} CV folds")
        if self.n_lambda < 1:
            raise ValueError("n_lambda must be at least 1")
        if self.example == "logistic" and self.p % 2 != 0:
            raise ValueError("the logistic example needs an even p")
        methods = tuple(
            parse_method(m) if isinstance(m, str) else m for m in self.methods
        )
        object.__setattr__(self, "methods", methods)
        if not methods:
            raise ValueError("methods must be nonempty")
        if not self.beta_true:
            if self.p != 12:
                raise ValueError("beta_true must be given explicitly when p != 12")
            default = BETA_POISSON if self.example == "poisson" else BETA_MAIN
            object.__setattr__(self, "beta_true", default)
        beta = tuple(float(b) for b in self.beta_true)
        if len(beta) != self.p:
            raise ValueError("beta_true length must equal p")
        object.__setattr__(self, "beta_true", beta)

    @property
    def true_support(self) -> tuple:
        return tuple(j for j, b in enumerate(self.beta_true) if b != 0.0)


def ar_covariance(p: int, rho: float) -> np.ndarray:
    """Covariance with entries rho^|i-j|."""
    if not -1.0 < rho < 1.0:
        raise ValueError("rho must lie in (-1, 1)")
    idx = np.arange(p)
    return rho ** np.abs(idx[:, None] - idx[None, :])


def _rng(spec: ScenarioSpec, rep_index: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([spec.seed, rep_index, tag])


def _draw_covariates(spec: ScenarioSpec, rng: np.random.Generator, size: int) -> np.ndarray:
    chol = np.linalg.cholesky(ar_covariance(spec.p, RHO))
    z = rng.standard_normal((size, spec.p)) @ chol.T
    if spec.example != "logistic":
        return z
    x = z.copy()
    x[:, 1::2] = (z[:, 1::2] < 0.0).astype(float)
    return x


def generate(spec: ScenarioSpec, rep_index: int) -> glm.Dataset:
    """The data of replication ``rep_index``: covariates first, then responses.

    linear: y = x' beta + standard normal noise, x ~ N(0, AR(RHO));
    logistic: Bernoulli responses, odd covariates continuous, even ones
    I(z < 0); poisson: rate exp(x' beta), covariates as in the linear case.
    """
    rng = _rng(spec, rep_index, _TAG_DATA)
    x = _draw_covariates(spec, rng, spec.n)
    eta = x @ np.asarray(spec.beta_true)
    if spec.example == "linear":
        return glm.Dataset(x, eta + rng.standard_normal(spec.n), "gaussian")
    if spec.example == "logistic":
        y = (rng.random(spec.n) < glm._mean("logistic", eta)).astype(float)
        return glm.Dataset(x, y, "logistic")
    return glm.Dataset(x, rng.poisson(np.exp(eta)).astype(float), "poisson")


def model_error(family: str, beta_hat, beta_true, sigma=None, test_design=None) -> float:
    """Expected squared difference of fitted and true mean functions.

    Closed form for the linear model (quadratic form in sigma) and the
    Poisson model (normal moment generating function); Monte Carlo over
    ``test_design`` rows for the logistic model.
    """
    bh = np.asarray(beta_hat, dtype=float)
    bt = np.asarray(beta_true, dtype=float)
    if bh.shape != bt.shape:
        raise ValueError("coefficient vectors must have equal length")
    if family == "gaussian":
        diff = bh - bt
        return float(diff @ np.asarray(sigma) @ diff)
    if family == "poisson":
        S = np.asarray(sigma)

        def mgf(a):
            return float(np.exp(0.5 * a @ S @ a))

        return mgf(2.0 * bh) - 2.0 * mgf(bh + bt) + mgf(2.0 * bt)
    if family == "logistic":
        if test_design is None:
            raise ValueError("logistic model error needs a Monte Carlo test design")
        X = np.asarray(test_design)
        mu_hat, mu_true = glm._mean("logistic", X @ bh), glm._mean("logistic", X @ bt)
        return float(np.mean((mu_hat - mu_true) ** 2))
    raise ValueError(f"unknown family {family!r}")


def _fit_penalized(spec, m, data, b_full, cv_seed):
    """Coefficients of ``m`` tuned by ``spec.tuning`` (CV seeded by ``cv_seed``,
    or BIC) and refit on the full data, an LQA refit without its objective
    trace; see :func:`methods.tune_and_fit`."""
    return methods.tune_and_fit(m.kind, data, m.pen, b_full, spec.n_lambda,
                                selector=spec.tuning, seed=cv_seed, trace=False).coefficients


def _run_replication(spec: ScenarioSpec, rep_index: int):
    """``(ME ratio, C, IC, fit class)`` of each method, in ``spec.methods`` order."""
    data = generate(spec, rep_index)
    sigma = ar_covariance(spec.p, RHO)
    beta_true = np.asarray(spec.beta_true)
    test_design = None
    if spec.example == "logistic":
        test_design = _draw_covariates(spec, _rng(spec, rep_index, _TAG_TEST), TEST_POINTS)
    b_full = glm.fit_mle(data)
    me_full = model_error(data.family, b_full, beta_true, sigma, test_design)
    cv_seed = int(np.random.SeedSequence([spec.seed, rep_index, _TAG_CV]).generate_state(1)[0])
    true_set = set(spec.true_support)
    subset_fits = None
    rows = []
    for m in spec.methods:
        if m.kind == "oracle":
            beta_hat = beta_true.copy()
        elif m.kind == "full":
            beta_hat = b_full.copy()
        elif m.kind == "subset":
            if subset_fits is None:  # one search serves every subset criterion
                criteria = tuple(s.criterion for s in spec.methods if s.kind == "subset")
                subset_fits = subset.enumerate_subset_fits(data, criteria)
            (cols, _, beta_hat), _, _ = subset.select_from_enumeration(
                subset_fits, m.criterion, data.n
            )
        else:
            beta_hat = _fit_penalized(spec, m, data, b_full, cv_seed)
        me = model_error(data.family, beta_hat, beta_true, sigma, test_design)
        kept = set(int(j) for j in np.flatnonzero(beta_hat))
        c = len(kept & true_set)
        ic = len(kept - true_set)
        if c < len(true_set):
            cls = "under"
        elif ic == 0:
            cls = "correct"
        else:
            cls = "over"
        rows.append((me / me_full, c, ic, cls))
    return rows


def _replication_worker(args):
    spec, rep_index = args
    try:
        return _run_replication(spec, rep_index)
    except tuning.SOLVER_ERRORS as exc:  # solver failures are recorded, not fatal
        return f"failed: {type(exc).__name__}: {exc}"


@dataclass(frozen=True)
class MethodRow:
    method: str
    mrme: float
    c: float
    ic: float
    underfit: float
    correctfit: float
    overfit: float


@dataclass(frozen=True)
class SimulationReport:
    example: str
    n: int
    p: int
    rho: float
    seed: int
    replications: int
    replications_used: int
    failures: int
    valid: bool
    rows: tuple
    failure_messages: tuple = field(default=())

    def to_dict(self) -> dict:
        doc = {"schema": "sparsefit/1", **asdict(self)}
        del doc["failure_messages"]
        return doc


def format_table(report: SimulationReport) -> str:
    """Aligned text block with the usual benchmark columns."""
    head = (
        f"example={report.example} n={report.n} p={report.p} rho={report.rho:g} "
        f"seed={report.seed} replications={report.replications_used}/{report.replications}"
        f" failures={report.failures}\n"
    )
    width = max([len("Method")] + [len(r.method) for r in report.rows])
    lines = [
        head,
        f"{'Method':<{width}}  {'MRME':>6}  {'C':>5}  {'IC':>5}  "
        f"{'Under-fit':>9}  {'Correct-fit':>11}  {'Over-fit':>8}",
    ]
    for r in report.rows:
        lines.append(
            f"{r.method:<{width}}  {r.mrme:>6.3f}  {r.c:>5.2f}  {r.ic:>5.2f}  "
            f"{r.underfit:>9.3f}  {r.correctfit:>11.3f}  {r.overfit:>8.3f}"
        )
    return "\n".join(lines) + "\n"


def run_scenario(spec: ScenarioSpec, threads: int = 1) -> SimulationReport:
    """Run every replication and aggregate the per-method metrics.

    ``threads`` only controls scheduling (a process pool when > 1); the
    report is a pure function of ``spec``.  Replications that raise are
    excluded and counted; the report is marked invalid when more than 2% of
    them fail.
    """
    args = [(spec, r) for r in range(spec.replications)]
    if threads > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_replication_worker, args, chunksize=8))
    else:
        results = [_replication_worker(a) for a in args]
    ok = [r for r in results if not isinstance(r, str)]
    messages = tuple(r for r in results if isinstance(r, str))
    failures = len(messages)
    rows = []
    for i, m in enumerate(spec.methods):
        ratios = np.array([r[i][0] for r in ok])
        cs = np.array([r[i][1] for r in ok], dtype=float)
        ics = np.array([r[i][2] for r in ok], dtype=float)
        cls = [r[i][3] for r in ok]
        n_ok = max(len(ok), 1)
        rows.append(
            MethodRow(
                m.label,
                float(np.median(ratios)) if len(ok) else float("nan"),
                float(np.mean(cs)) if len(ok) else float("nan"),
                float(np.mean(ics)) if len(ok) else float("nan"),
                cls.count("under") / n_ok,
                cls.count("correct") / n_ok,
                cls.count("over") / n_ok,
            )
        )
    valid = failures <= 0.02 * spec.replications
    return SimulationReport(
        spec.example,
        spec.n,
        spec.p,
        RHO,
        spec.seed,
        spec.replications,
        len(ok),
        failures,
        valid,
        tuple(rows),
        messages,
    )
