"""Eigenstructure of the alpha-statistic correlation and its factor splits."""

import warnings

import numpy as np
import pytest

from fundselect.dependence import (
    build_dependence,
    dependence_from_correlation,
    marchenko_pastur_edge,
)
from fundselect.errors import DataError
from fundselect.panel import FactorSeries, ReturnPanel, carhart_fit, month_range


def random_correlation(p, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(p, p + 3))
    cov = a @ a.T / (p + 3)
    d = np.sqrt(np.diag(cov))
    return cov / np.outer(d, d)


def test_identity_gives_no_factors():
    dep = dependence_from_correlation(np.eye(7))
    assert dep.l == 0
    assert dep.C.shape == (7, 0)
    assert dep.lambda_p == pytest.approx(1.0)
    # all eigenvalues tie at the floor, so B keeps no columns
    assert dep.B.shape == (7, 0)
    assert np.allclose(dep.eta_sq, 1.0)
    assert np.allclose(dep.B @ dep.B.T + dep.lambda_p * np.eye(7), np.eye(7))


def test_equicorrelated_closed_form():
    """rho = 0.5, p = 4: spectrum (2.5, .5, .5, .5), one common factor, and
    the trailing eigenvalue tie truncates B to a single column of norm sqrt(2)."""
    p, rho = 4, 0.5
    sigma = np.full((p, p), rho)
    np.fill_diagonal(sigma, 1.0)
    dep = dependence_from_correlation(sigma)

    assert np.allclose(dep.eigenvalues, [2.5, 0.5, 0.5, 0.5])
    assert dep.l == 1
    assert dep.lambda_p == pytest.approx(0.5)
    assert dep.C.shape == (4, 1)
    assert np.allclose(np.abs(dep.C[:, 0]), np.sqrt(2.5) / 2.0)
    assert dep.B.shape[1] == 1
    assert np.linalg.norm(dep.B[:, 0]) == pytest.approx(np.sqrt(2.0))
    assert np.allclose(dep.B @ dep.B.T + dep.lambda_p * np.eye(p), sigma, atol=1e-12)


@pytest.mark.parametrize("p,seed", [(5, 0), (12, 1), (40, 2)])
def test_reconstruction_and_eta_range(p, seed):
    sigma = random_correlation(p, seed)
    dep = dependence_from_correlation(sigma)
    recon = dep.B @ dep.B.T + dep.lambda_p * np.eye(p)
    rel = np.linalg.norm(recon - sigma) / np.linalg.norm(sigma)
    assert rel < 1e-8
    assert np.all(dep.eta_sq >= 0.0) and np.all(dep.eta_sq <= 1.0)
    # eta_sq + factor share = 1 for each row
    row_share = np.sum(dep.C**2, axis=1)
    assert np.allclose(np.clip(1.0 - row_share, 0.0, 1.0), dep.eta_sq)


def test_eigenvalues_sum_to_p():
    sigma = random_correlation(23, 5)
    dep = dependence_from_correlation(sigma)
    assert float(dep.eigenvalues.sum()) == pytest.approx(23.0, abs=1e-9)


def test_l_counts_strictly_above_one():
    sigma = np.diag([1.0, 1.0, 1.0])  # ties at exactly 1 are excluded
    dep = dependence_from_correlation(sigma)
    assert dep.l == 0


def test_sign_convention_is_deterministic():
    sigma = random_correlation(9, 8)
    a = dependence_from_correlation(sigma)
    b = dependence_from_correlation(sigma.copy())
    assert np.array_equal(a.B, b.B)
    assert a.rank == 8  # every eigen-direction above the smallest eigenvalue
    for j in range(a.rank):
        col = a.B[:, j]
        assert col[np.argmax(np.abs(col))] > 0


def test_nonpositive_eigenvalue_clamped_with_warning():
    # rank-1 "correlation": eigenvalues (2, 0) before clamping
    sigma = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.warns(RuntimeWarning, match="clamp"):
        dep = dependence_from_correlation(sigma)
    assert dep.lambda_p == pytest.approx(1e-6)
    assert np.all(dep.eigenvalues > 0)


def _factor_sample_correlation(p, n_obs, n_factors, seed):
    rng = np.random.default_rng(seed)
    loadings = rng.normal(0.0, 2.0, size=(p, n_factors))
    y = rng.standard_normal((n_obs, n_factors)) @ loadings.T + rng.standard_normal((n_obs, p))
    return np.corrcoef(y, rowvar=False)


def test_sample_correlation_rank_at_marchenko_pastur_edge():
    """p > T: the exact split keeps ~T noise factors, the estimated split
    keeps the eigenvalues above the noise edge and averages the rest."""
    p, n_obs = 200, 60
    sigma = _factor_sample_correlation(p, n_obs, 3, seed=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no clamp warning on this path
        dep = dependence_from_correlation(sigma, n_obs=n_obs)

    vals = dep.eigenvalues
    # reference: the three leading eigenvectors, largest-magnitude entry positive
    vecs = np.linalg.eigh(sigma)[1][:, ::-1][:, :3]
    vecs = vecs * np.sign(vecs[np.argmax(np.abs(vecs), axis=0), np.arange(3)])
    assert dep.l == 3
    assert vals[2] > marchenko_pastur_edge(p, n_obs) > vals[3]
    assert dep.lambda_p == pytest.approx((p - vals[:3].sum()) / (p - 3), rel=1e-12)
    assert dep.rank == 3
    np.testing.assert_allclose(dep.C, vecs[:, :3] * np.sqrt(vals[:3]), rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        dep.B, vecs[:, :3] * np.sqrt(vals[:3] - dep.lambda_p), rtol=0, atol=1e-12
    )
    # the model keeps the trace: unit variances on average
    assert np.mean(np.sum(dep.B**2, axis=1) + dep.lambda_p) == pytest.approx(1.0, abs=1e-9)

    with pytest.warns(RuntimeWarning, match="clamp"):
        exact = dependence_from_correlation(sigma)
    assert exact.l > dep.l and exact.rank == n_obs - 1


def test_sample_size_validated():
    with pytest.raises(DataError, match="n_obs"):
        dependence_from_correlation(np.eye(3), n_obs=1)


def test_build_dependence_matches_excess_correlation():
    rng = np.random.default_rng(31)
    T, p = 120, 6
    dates = tuple(month_range("2000-01", "2009-12"))
    fac = rng.normal(0.0, 0.04, size=(T, 4))
    factors = FactorSeries(dates=dates, factors=fac, rf=np.full(T, 0.002))
    # a shared shock gives the funds one common factor, so B and C are not empty
    returns = rng.normal(0.005, 0.05, size=(T, p)) + rng.normal(0.0, 0.05, size=(T, 1))
    panel = ReturnPanel(dates=dates, fund_ids=tuple(f"F{i}" for i in range(p)), returns=returns)
    est = carhart_fit(panel, factors)
    dep = build_dependence(est, panel)

    ref = dependence_from_correlation(
        np.corrcoef(est.excess_returns, rowvar=False), n_obs=T
    )
    assert dep.l == ref.l == 1
    assert dep.lambda_p == pytest.approx(ref.lambda_p, rel=1e-12)
    np.testing.assert_allclose(dep.eigenvalues, ref.eigenvalues, rtol=0, atol=1e-10)
    np.testing.assert_allclose(dep.B, ref.B, rtol=0, atol=1e-10)
    np.testing.assert_allclose(dep.C, ref.C, rtol=0, atol=1e-10)


def test_fund_id_mismatch_rejected():
    rng = np.random.default_rng(1)
    T = 60
    dates = tuple(month_range("2000-01", "2004-12"))
    factors = FactorSeries(
        dates=dates, factors=rng.normal(0, 0.04, (T, 4)), rf=np.zeros(T)
    )
    panel = ReturnPanel(
        dates=dates, fund_ids=("A", "B"), returns=rng.normal(0, 0.05, (T, 2))
    )
    est = carhart_fit(panel, factors)
    other = ReturnPanel(
        dates=dates, fund_ids=("A", "C"), returns=panel.returns.copy()
    )
    with pytest.raises(Exception, match="fund"):
        build_dependence(est, other)
