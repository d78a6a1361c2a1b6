"""Cross-fund dependence model for the standardized alpha estimates.

The covariance of the alpha estimates is ``c_ij * ||h||^2`` where c_ij is the
sample covariance of the two funds' excess-return columns (i.i.d.-in-time
convention) and h is the shared intercept extractor. Its correlation matrix
Sigma is eigendecomposed once and split into l common factors plus an
idiosyncratic level: loadings C (used by the mixture fit) and a strict-factor
part Sigma ~ B B' + lambda_p I (used by simulation and the posterior Monte
Carlo). Only the split is kept; Sigma and its eigenvectors are not.

Two splits share that form. A correlation given by hand is taken as exact:
l counts the eigenvalues above 1, lambda_p is the smallest eigenvalue and B
spans every eigenvalue above it, so B B' + lambda_p I reproduces Sigma. A
*sample* correlation of p funds over T months (``n_obs=T``) has rank at most
T - 1, and when p > T every nonzero eigenvalue exceeds 1 on average, so the
exact split would keep ~T factors of noise. There the factor rank is
estimated as the number of eigenvalues above the Marchenko-Pastur edge
``(1 + sqrt(p / (T - 1)))**2`` -- the principal-factor view of Fan, Han & Gu
(2012) -- and the rest of the spectrum is averaged into the probabilistic-PCA
noise level ``lambda_p = (p - sum of the l kept eigenvalues) / (p - l)``, with
``B = V_l sqrt(Lambda_l - lambda_p)`` and ``C = V_l sqrt(Lambda_l)``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .panel import AlphaEstimates, ReturnPanel

EIGENVALUE_FLOOR = 1e-6
_TIE_TOL = 1e-10


@dataclass(eq=False)
class DependenceModel:
    """Factor split of the alpha-estimate correlation matrix.

    C holds the loadings of the l common factors; eta_sq[i] is the
    idiosyncratic share 1 - ||C[i]||^2. B and lambda_p give the strict-factor
    model ``B @ B.T + lambda_p * I``. For a correlation taken as exact, l
    counts the eigenvalues > 1, B spans every eigen-direction whose eigenvalue
    lies strictly above lambda_p (the smallest eigenvalue), and the model
    reproduces the correlation up to float error. For a sample correlation, l
    is the number of eigenvalues above the Marchenko-Pastur edge, B spans the
    same l directions, and lambda_p is the mean of the discarded eigenvalues.
    Columns of C and B follow the eigenvalue order, each signed so that its
    largest-magnitude entry is positive.
    """

    eigenvalues: np.ndarray  # p, non-increasing
    l: int
    C: np.ndarray  # p x l
    B: np.ndarray  # p x rank
    lambda_p: float
    eta_sq: np.ndarray  # p

    @property
    def p(self) -> int:
        return self.eta_sq.shape[0]

    @property
    def rank(self) -> int:
        return self.B.shape[1]


def _fix_eigenvector_signs(vectors: np.ndarray) -> np.ndarray:
    """Make each column's largest-magnitude entry positive (ties: lowest index)."""
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0.0] = 1.0
    return vectors * signs


def marchenko_pastur_edge(p: int, n_obs: int) -> float:
    """Upper edge of the eigenvalue bulk of a p-variate sample correlation
    over n_obs observations (n_obs - 1 degrees of freedom) of pure noise."""
    return (1.0 + math.sqrt(p / (n_obs - 1))) ** 2


def dependence_from_correlation(
    sigma: np.ndarray, *, n_obs: int | None = None
) -> DependenceModel:
    """Build the model from an already-formed correlation matrix.

    Without `n_obs` the matrix is taken as exact and the split reproduces it.
    With `n_obs` -- the number of observations a sample correlation was
    formed from, at least 2 -- the factor rank is estimated at the
    Marchenko-Pastur edge (see the module docstring).
    """
    if n_obs is not None and n_obs < 2:
        raise DataError(f"n_obs must be >= 2, got {n_obs}")
    sigma = np.asarray(sigma, dtype=float)
    p = sigma.shape[0]
    if sigma.shape != (p, p):
        raise DataError("correlation matrix must be square")
    if not np.allclose(sigma, sigma.T, atol=1e-8):
        raise DataError("correlation matrix must be symmetric")
    sigma = 0.5 * (sigma + sigma.T)
    np.fill_diagonal(sigma, 1.0)

    eigvals, eigvecs = np.linalg.eigh(sigma)
    eigvals = eigvals[::-1].copy()
    eigvecs = eigvecs[:, ::-1].copy()
    if eigvals[-1] <= 0.0:
        # On the estimated-rank path lambda_p does not come from the smallest
        # eigenvalue, so the clamp changes no model quantity: stay quiet there.
        if n_obs is None:
            warnings.warn(
                f"smallest eigenvalue {eigvals[-1]:.3e} <= 0; clamping to {EIGENVALUE_FLOOR:g}",
                RuntimeWarning,
                stacklevel=2,
            )
        eigvals = np.maximum(eigvals, EIGENVALUE_FLOOR)
    eigvecs = _fix_eigenvector_signs(eigvecs)

    if n_obs is None:
        lambda_p = float(eigvals[-1])
        l = int(np.sum(eigvals > 1.0))  # strictly above 1; exact ties excluded
        keep = eigvals - lambda_p > _TIE_TOL
    else:
        l = int(np.sum(eigvals > marchenko_pastur_edge(p, n_obs)))
        # floored for a correlation of rank exactly l, where the rest is zero
        lambda_p = max((p - float(np.sum(eigvals[:l]))) / (p - l), EIGENVALUE_FLOOR)
        keep = np.arange(p) < l
    C = eigvecs[:, :l] * np.sqrt(eigvals[:l])
    B = eigvecs[:, keep] * np.sqrt(eigvals[keep] - lambda_p)

    eta_sq = 1.0 - np.sum(C * C, axis=1)
    eta_sq = np.clip(eta_sq, 0.0, 1.0)

    return DependenceModel(
        eigenvalues=eigvals, l=l, C=C, B=B, lambda_p=lambda_p, eta_sq=eta_sq
    )


def build_dependence(estimates: AlphaEstimates, panel: ReturnPanel) -> DependenceModel:
    """Form the alpha-estimate correlation from the panel's excess returns and
    split it.

    Sigma is a sample correlation over the panel's T months, so the factor
    rank is estimated (``n_obs=T``).
    """
    if estimates.fund_ids != panel.fund_ids:
        raise DataError("estimates and panel disagree on fund ids")
    y = estimates.excess_returns
    n_obs = y.shape[0]
    if n_obs < 2:
        raise DataError("need at least two months to form a covariance")
    cov = np.cov(y, rowvar=False, ddof=1)
    cov = np.atleast_2d(cov)
    h_sq = float(estimates.h @ estimates.h)
    alpha_cov = h_sq * cov

    d = np.sqrt(np.diag(alpha_cov))
    sigma = alpha_cov / np.outer(d, d)
    return dependence_from_correlation(sigma, n_obs=n_obs)
