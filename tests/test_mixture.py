"""Mixture-prior machinery: LAD factor removal, moment inversion, TV-scored grid fit."""

import warnings

import numpy as np
import pytest
from scipy.optimize import linprog

from fundselect.dependence import dependence_from_correlation
from fundselect.errors import ConfigError, DataError, FitFailedError
from fundselect.mixture import (
    GridConfig,
    MixtureParams,
    PooledMoments,
    fit_mixture,
    forward_moments,
    lad_regress,
    pooled_moments,
    simulate_z,
    solve_moments,
    total_variation,
)

# ---------------------------------------------------------------- dataclasses


def test_params_validation():
    good = MixtureParams(pi0=0.1, pi1=0.7, pi2=0.2, nu0=-0.1, nu1=-0.6, nu2=1.1,
                         tau1_sq=0.1, tau2_sq=0.15)
    assert good.as_dict()["nu2"] == 1.1
    with pytest.raises(ValueError, match="sum to 1"):
        MixtureParams(pi0=0.5, pi1=0.5, pi2=0.2, nu0=0.0, nu1=0.0, nu2=0.0,
                      tau1_sq=0.1, tau2_sq=0.1)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        MixtureParams(pi0=1.2, pi1=-0.1, pi2=-0.1, nu0=0.0, nu1=0.0, nu2=0.0,
                      tau1_sq=0.1, tau2_sq=0.1)
    with pytest.raises(ValueError, match="spike"):
        MixtureParams(pi0=1.0, pi1=0.0, pi2=0.0, nu0=0.2, nu1=0.0, nu2=0.0,
                      tau1_sq=0.1, tau2_sq=0.1)
    with pytest.raises(ValueError, match="variances"):
        MixtureParams(pi0=1.0, pi1=0.0, pi2=0.0, nu0=0.0, nu1=0.0, nu2=0.0,
                      tau1_sq=0.0, tau2_sq=0.1)


def test_grid_config_defaults_and_validation():
    g = GridConfig()
    assert g.n_points == len(g.m_grid) * len(g.nu0_grid) * len(g.tau_grid) ** 2
    assert g.n_points == 36_504
    with pytest.raises(ConfigError, match="nonempty"):
        GridConfig(m_grid=())
    with pytest.raises(ConfigError, match="percentages"):
        GridConfig(m_grid=(0.0, 30.0))
    with pytest.raises(ConfigError, match="spike grid"):
        GridConfig(nu0_grid=(0.1,))
    with pytest.raises(ConfigError, match="variance grid"):
        GridConfig(tau_grid=(0.1, -0.2))


# ------------------------------------------------------------------------ LAD


def test_lad_exact_recovery():
    rng = np.random.default_rng(0)
    c = rng.normal(size=(50, 2))
    v = np.array([1.5, -0.75])
    v_hat = lad_regress(c @ v, c)
    np.testing.assert_allclose(v_hat, v, atol=1e-6)


def test_lad_shrugs_off_outliers():
    """A handful of gross outliers should barely move the LAD fit, while the
    least-squares fit gets dragged."""
    rng = np.random.default_rng(3)
    c = rng.normal(size=(120, 2))
    v = np.array([0.8, -0.4])
    z = c @ v + 0.05 * rng.standard_normal(120)
    z[np.argsort(c[:, 0])[-6:]] += 40.0  # all on rows leaning the same way
    v_lad = lad_regress(z, c)
    v_ls = np.linalg.lstsq(c, z, rcond=None)[0]
    assert np.max(np.abs(v_lad - v)) < 0.05
    assert np.max(np.abs(v_ls - v)) > 0.5


def test_lad_matches_linear_program():
    """IRLS should land on the same objective as an exact LP formulation."""
    rng = np.random.default_rng(42)
    n, k = 80, 3
    c = rng.normal(size=(n, k))
    v = np.array([0.7, -1.3, 0.25])
    z = c @ v + rng.laplace(scale=0.3, size=n)

    v_irls = lad_regress(z, c)
    obj_irls = np.abs(z - c @ v_irls).sum()

    # minimize sum(t) with t >= |z - c v|, split into two one-sided constraints
    a_ub = np.block([[c, -np.eye(n)], [-c, -np.eye(n)]])
    b_ub = np.concatenate([z, -z])
    cost = np.concatenate([np.zeros(k), np.ones(n)])
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub,
                  bounds=[(None, None)] * k + [(0, None)] * n, method="highs")
    assert res.status == 0
    assert obj_irls <= res.fun + 1e-5 * (1.0 + res.fun)
    np.testing.assert_allclose(v_irls, res.x[:k], atol=1e-4)


def test_lad_validation():
    c = np.ones((5, 1))
    with pytest.raises(DataError, match="2-d"):
        lad_regress(np.ones(5), np.ones(5))
    with pytest.raises(DataError, match="disagree"):
        lad_regress(np.ones(4), c)
    with pytest.raises(DataError, match="at least as many rows"):
        lad_regress(np.ones(1), np.ones((1, 2)))
    with pytest.raises(DataError, match="identically zero"):
        lad_regress(np.ones(5), np.zeros((5, 1)))
    assert lad_regress(np.ones(5), np.ones((5, 0))).shape == (0,)


# --------------------------------------------------------------- moments


def test_pooled_moments_by_hand():
    mom = pooled_moments(np.array([1.0, -1.0]), np.array([0.3, 0.5]))
    assert mom.m1 == 0.0
    assert mom.m2 == 1.0
    assert mom.m3 == 0.0
    assert mom.m4 == 1.0
    assert mom.eta_sq_bar == pytest.approx(0.4)
    assert mom.eta_4_bar == pytest.approx(0.17)


def test_pooled_moments_validation():
    with pytest.raises(DataError, match="empty"):
        pooled_moments(np.array([]), np.array([]))
    with pytest.raises(DataError, match="matching shapes"):
        pooled_moments(np.ones(3), np.ones(4))


def test_forward_moments_against_monte_carlo():
    """The four moment formulas should match brute-force sampling from the
    mixture-plus-noise model within Monte Carlo error."""
    rng = np.random.default_rng(7)
    n = 200_000
    pi = (0.1, 0.7, 0.2)
    u1, u2, tau_sq, eta_sq = -0.5, 1.2, 0.1, 0.5
    comp = rng.choice(3, size=n, p=pi)
    normals = rng.standard_normal(n)
    mu = np.select(
        [comp == 0, comp == 1],
        [0.0, u1 + np.sqrt(tau_sq) * normals],
        default=u2 + np.sqrt(tau_sq) * normals,
    )
    h = mu + np.sqrt(eta_sq) * rng.standard_normal(n)

    want = forward_moments(pi[1], pi[2], u1, u2, tau_sq, tau_sq,
                           eta_sq, eta_sq**2)
    for k, target in enumerate(want, start=1):
        sample = float(np.mean(h**k))
        se = float(np.std(h**k, ddof=1)) / np.sqrt(n)
        assert abs(sample - target) < 5.0 * se, f"moment {k}"


def test_moment_roundtrip_reference_point():
    m = forward_moments(0.7, 0.2, -0.5, 1.2, 0.1, 0.1, 0.5, 0.3)
    mom = PooledMoments(m1=m[0], m2=m[1], m3=m[2], m4=m[3],
                        eta_sq_bar=0.5, eta_4_bar=0.3)
    sol = solve_moments(mom, 0.1, 0.1)
    assert sol is not None
    np.testing.assert_allclose(sol, [0.1, 0.7, 0.2, -0.5, 1.2], atol=1e-8)


def test_moment_roundtrip_random_tuples():
    """Inverting the forward map recovers the generating tuple whenever the
    components are separated from the spike (collapsed components are not
    identifiable from moments)."""
    rng = np.random.default_rng(1)
    for _ in range(100):
        pi0 = rng.uniform(0.05, 0.3)
        pi1 = (1 - pi0) * rng.uniform(0.55, 0.8)
        pi2 = 1 - pi0 - pi1
        u1 = rng.uniform(-1.0, -0.3)
        u2 = rng.uniform(0.8, 1.8)
        t1 = rng.uniform(0.05, 0.2)
        t2 = rng.uniform(0.05, 0.2)
        eta = rng.uniform(0.3, 1.0)
        eta4 = eta**2 * rng.uniform(1.0, 1.4)
        m = forward_moments(pi1, pi2, u1, u2, t1, t2, eta, eta4)
        mom = PooledMoments(m1=m[0], m2=m[1], m3=m[2], m4=m[3],
                            eta_sq_bar=eta, eta_4_bar=eta4)
        sol = solve_moments(mom, t1, t2)
        assert sol is not None
        assert sol[3] <= sol[4], "components must come back in offset order"
        np.testing.assert_allclose(sol, [pi0, pi1, pi2, u1, u2], atol=1e-6)


def test_solve_moments_pure_spike():
    """Population moments of spike-only data invert to weight 1 on the spike."""
    mom = PooledMoments(m1=0.0, m2=0.5, m3=0.0, m4=0.9,
                        eta_sq_bar=0.5, eta_4_bar=0.3)
    sol = solve_moments(mom, 0.1, 0.1)
    assert sol is not None
    np.testing.assert_allclose(sol[:3], [1.0, 0.0, 0.0], atol=1e-6)
    assert np.all(np.isfinite(sol))


def test_solve_moments_dead_component_boundary():
    """With one true weight at zero, the live component is still pinned down;
    the dead component's offset is arbitrary."""
    m = forward_moments(0.9, 0.0, -0.3, 1.0, 0.1, 0.1, 0.5, 0.3)
    mom = PooledMoments(m1=m[0], m2=m[1], m3=m[2], m4=m[3],
                        eta_sq_bar=0.5, eta_4_bar=0.3)
    sol = solve_moments(mom, 0.1, 0.1)
    assert sol is not None
    pi0, pi1, pi2, u1, u2 = sol
    assert pi0 == pytest.approx(0.1, abs=1e-6)
    live = (pi1, u1) if pi1 > pi2 else (pi2, u2)
    assert live[0] == pytest.approx(0.9, abs=1e-6)
    assert live[1] == pytest.approx(-0.3, abs=1e-6)


def test_solve_moments_rejects_bad_variances():
    mom = PooledMoments(m1=0.0, m2=1.0, m3=0.0, m4=3.0,
                        eta_sq_bar=0.5, eta_4_bar=0.3)
    with pytest.raises(DataError, match="positive"):
        solve_moments(mom, 0.0, 0.1)


# ------------------------------------------------------------- simulation, TV


def test_simulate_z_seeding():
    dep = dependence_from_correlation(np.eye(80))
    params = MixtureParams(pi0=0.1, pi1=0.7, pi2=0.2, nu0=-0.1, nu1=-0.6,
                           nu2=1.1, tau1_sq=0.1, tau2_sq=0.1)
    a = simulate_z(params, dep, 77)
    b = simulate_z(params, dep, 77)
    np.testing.assert_array_equal(a, b)
    gen = np.random.default_rng(5)
    c = simulate_z(params, dep, gen)
    d = simulate_z(params, dep, gen)
    assert not np.array_equal(c, d), "a shared generator must advance"


def test_simulate_z_spike_marginal():
    dep = dependence_from_correlation(np.eye(2000))
    params = MixtureParams(pi0=1.0, pi1=0.0, pi2=0.0, nu0=-0.3, nu1=0.0,
                           nu2=0.0, tau1_sq=0.1, tau2_sq=0.1)
    z = simulate_z(params, dep, 11)
    assert z.shape == (2000,)
    assert abs(float(np.mean(z)) + 0.3) < 4.0 / np.sqrt(2000)
    assert abs(float(np.var(z)) - 1.0) < 0.1


def test_simulate_z_mixture_mean():
    """Pooled over draws, the sample mean matches the prior mean pi1*nu1 +
    pi2*nu2 = -0.11 well inside Monte Carlo error."""
    dep = dependence_from_correlation(np.eye(600))
    params = MixtureParams(pi0=0.1, pi1=0.7, pi2=0.2, nu0=0.0, nu1=-0.5,
                           nu2=1.2, tau1_sq=0.1, tau2_sq=0.1)
    draws = [simulate_z(params, dep, 130 + k) for k in range(10)]
    pooled_mean = float(np.mean(np.concatenate(draws)))
    assert abs(pooled_mean + 0.11) < 0.065


def test_total_variation_extremes():
    a = np.linspace(0.0, 1.0, 50)
    assert total_variation(a, a) == 0.0
    assert total_variation(a, a + 10.0) == 1.0


def test_total_variation_symmetric_and_permutation_invariant():
    rng = np.random.default_rng(2)
    a = rng.standard_normal(400)
    b = rng.standard_normal(300) + 0.4
    assert total_variation(a, b) == total_variation(b, a)
    assert total_variation(a, b) == total_variation(rng.permutation(a), b)


def test_total_variation_same_distribution_is_small():
    rng = np.random.default_rng(99)
    a = rng.standard_normal(100_000)
    b = rng.standard_normal(100_000)
    assert total_variation(a, b) < 0.02


def test_total_variation_rejects_empty():
    with pytest.raises(DataError, match="nonempty"):
        total_variation(np.array([]), np.ones(3))


# ------------------------------------------------------------------- grid fit


def _equicorr(p, rho):
    sigma = np.full((p, p), rho)
    np.fill_diagonal(sigma, 1.0)
    return dependence_from_correlation(sigma)


def test_fit_recovers_spike_location(coarse_grids):
    """On data simulated from a known prior, the fitted spike lands on the
    true grid point and the trace covers the whole grid in lexical order."""
    dep = _equicorr(600, 0.3)
    true = MixtureParams(pi0=0.1, pi1=0.7, pi2=0.2, nu0=-0.1, nu1=-0.6,
                         nu2=1.1, tau1_sq=0.12, tau2_sq=0.12)
    z = simulate_z(true, dep, 401)
    params, diag = fit_mixture(z, dep, coarse_grids, seed=11)

    assert params.nu0 == pytest.approx(true.nu0, abs=1e-12)
    assert diag.m_pct in coarse_grids.m_grid
    assert 0.0 < diag.tv < 0.3
    assert diag.v_hat.shape == (dep.l,)
    assert len(diag.grid_trace) == coarse_grids.n_points
    lex = [(m, n, t1, t2)
           for m in coarse_grids.m_grid
           for n in coarse_grids.nu0_grid
           for t1 in coarse_grids.tau_grid
           for t2 in coarse_grids.tau_grid]
    got = [(r["m"], r["nu0"], r["tau1_sq"], r["tau2_sq"]) for r in diag.grid_trace]
    assert got == lex


def test_fit_without_common_factors(coarse_grids):
    """l = 0 skips the LAD stage entirely; the spike still lands within one
    grid step of the truth."""
    dep = dependence_from_correlation(np.eye(600))
    true = MixtureParams(pi0=0.1, pi1=0.7, pi2=0.2, nu0=-0.1, nu1=-0.6,
                         nu2=1.1, tau1_sq=0.12, tau2_sq=0.12)
    z = simulate_z(true, dep, 1000)
    params, diag = fit_mixture(z, dep, coarse_grids, seed=5)
    assert diag.v_hat.shape == (0,)
    assert abs(params.nu0 - true.nu0) <= 0.1 + 1e-12


def test_fit_is_deterministic(coarse_grids):
    dep = _equicorr(600, 0.3)
    true = MixtureParams(pi0=0.1, pi1=0.7, pi2=0.2, nu0=-0.1, nu1=-0.6,
                         nu2=1.1, tau1_sq=0.12, tau2_sq=0.12)
    z = simulate_z(true, dep, 401)
    run1 = fit_mixture(z, dep, coarse_grids, seed=11)
    run2 = fit_mixture(z, dep, coarse_grids, seed=11)
    assert run1[0] == run2[0]
    assert run1[1].tv == run2[1].tv


def test_fit_spike_only_data_has_no_feasible_cell(coarse_grids):
    """Statistics with no real skill component sit on the boundary of the
    moment model: the exact solve finds no valid cell and the failure carries
    the full trace."""
    dep = dependence_from_correlation(np.eye(600))
    null = MixtureParams(pi0=1.0, pi1=0.0, pi2=0.0, nu0=0.0, nu1=0.0,
                         nu2=0.0, tau1_sq=0.1, tau2_sq=0.1)
    z = simulate_z(null, dep, 500)
    with pytest.raises(FitFailedError, match="no feasible grid point") as exc_info:
        fit_mixture(z, dep, coarse_grids, seed=7)
    trace = exc_info.value.trace
    assert len(trace) == coarse_grids.n_points
    assert not any(r["feasible"] for r in trace)


def test_fit_warns_when_subset_cannot_support_lad():
    """A subset percentage smaller than the factor count marks its grid cells
    infeasible instead of crashing."""
    p = 60
    sigma = np.eye(p)
    for blk in (slice(0, 30), slice(30, 60)):
        sigma[blk, blk] = 0.5
    np.fill_diagonal(sigma, 1.0)
    dep = dependence_from_correlation(sigma)
    assert dep.l == 2
    params = MixtureParams(pi0=0.3, pi1=0.5, pi2=0.2, nu0=0.0, nu1=-0.5,
                           nu2=1.2, tau1_sq=0.1, tau2_sq=0.1)
    z = simulate_z(params, dep, 9)
    tiny = GridConfig(m_grid=(1.0,), nu0_grid=(0.0,), tau_grid=(0.1, 0.2))
    with pytest.warns(RuntimeWarning, match="cannot support the factor regression"):
        with pytest.raises(FitFailedError) as exc_info:
            fit_mixture(z, dep, tiny, seed=3)
    assert len(exc_info.value.trace) == tiny.n_points


def test_fit_input_validation(coarse_grids, identity_dep):
    with pytest.raises(DataError, match="at least 50"):
        fit_mixture(np.zeros(49), identity_dep, coarse_grids)
    with pytest.raises(DataError, match="disagree on p"):
        fit_mixture(np.zeros(61), identity_dep, coarse_grids)
