import numpy as np
import pytest

from sparsefit import glm


def orthonormal_gaussian(z, n=None):
    """Gaussian dataset whose design satisfies X'X = n I and whose OLS
    solution is exactly ``z`` (response constructed noiselessly)."""
    z = np.asarray(z, dtype=float)
    p = z.size
    if n is None:
        n = 4 * p
    rng = np.random.default_rng(12345)
    Q, _ = np.linalg.qr(rng.standard_normal((n, p)))
    X = Q * np.sqrt(n)
    return glm.Dataset(X, X @ z, "gaussian")


def random_dataset(seed, n, p, family="gaussian", beta=None, rho=0.5):
    """Small synthetic dataset with AR(rho) covariates."""
    rng = np.random.default_rng(seed)
    idx = np.arange(p)
    chol = np.linalg.cholesky(rho ** np.abs(idx[:, None] - idx[None, :]))
    X = rng.standard_normal((n, p)) @ chol.T
    if beta is None:
        beta = np.zeros(p)
        beta[: min(3, p)] = [2.0, -1.0, 0.5][: min(3, p)]
    mu = X @ beta
    if family == "gaussian":
        y = mu + rng.standard_normal(n)
    elif family == "logistic":
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-mu))).astype(float)
    else:
        y = rng.poisson(np.exp(np.clip(mu, None, 10.0))).astype(float)
    return glm.Dataset(X, y, family)


def design_dataset(family, design):
    """40 x 5 data of ``family``: "plain" has no intercept, "intercept" has one,
    and "duplicated" also copies column 0 into column 3."""
    d = random_dataset(40 + glm.FAMILIES.index(family), 40, 5, family)
    X = d.design.copy()
    if design == "duplicated":
        X[:, 3] = X[:, 0]
    return glm.Dataset(X, d.response, family, intercept=design != "plain")


def qr_lambda_max(prob):
    """Smallest lambda at which every penalized coordinate of a weighted lasso
    with unit weight profile u is zero, from its n-row data: max_j |x_j^T r0| /
    u_j over finite positive u_j, where r0 is the response with the span of
    the zero-weight columns taken out by QR (with a 1e-10 relative nudge)."""
    u = prob.weights
    y = prob.wresponse
    free = np.where(u == 0.0)[0]
    if free.size:
        Q, _ = np.linalg.qr(prob.wdesign[:, free])
        r0 = y - Q @ (Q.T @ y)
    else:
        r0 = y
    pen = np.where(np.isfinite(u) & (u > 0.0))[0]
    if pen.size == 0:
        return 0.0
    return float(np.max(np.abs(prob.wdesign[:, pen].T @ r0) / u[pen])) * (1.0 + 1e-10)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
