"""Mixture-prior machinery: LAD factor removal, moment inversion, TV-scored grid fit."""

import warnings
from dataclasses import astuple

import numpy as np
import pytest
from scipy.optimize import linprog

from fundselect.dependence import build_dependence, dependence_from_correlation
from fundselect.errors import ConfigError, DataError, FitFailedError
from fundselect import mixture
from fundselect.mixture import (
    _SCORE_CHUNK,
    _TV_DRAWS,
    FitDiagnostics,
    GridConfig,
    MixtureParams,
    PooledMoments,
    _jacobian,
    _newton_cells,
    _newton_starts,
    _newton_steps,
    _residuals,
    _simulate_rows,
    _solve_moment_batch,
    _tv_rows,
    fit_mixture,
    forward_moments,
    lad_regress,
    pooled_moments,
    simulate_z,
    solve_moments,
    total_variation,
)
from fundselect.panel import carhart_fit
from fundselect.simlab import SimSetting, generate_panel, synthetic_factors
from fundselect.streams import substream

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
    with pytest.warns(RuntimeWarning, match="cannot support the factor regression") as record:
        with pytest.raises(FitFailedError) as exc_info:
            fit_mixture(z, dep, tiny, seed=3)
    assert len(exc_info.value.trace) == tiny.n_points
    # the warning points at the caller of fit_mixture
    assert [w.filename for w in record if "factor regression" in str(w.message)] == [__file__]


def test_fit_input_validation(coarse_grids, identity_dep):
    with pytest.raises(DataError, match="at least 50"):
        fit_mixture(np.zeros(49), identity_dep, coarse_grids)
    with pytest.raises(DataError, match="disagree on p"):
        fit_mixture(np.zeros(61), identity_dep, coarse_grids)


# ---------------------------------------------- batched fit vs per-point loop
#
# The fit solves the moment systems of a cell with an active-set Newton
# iteration and scores blocks of grid points in one simulation and binning
# pass. The references below do the same arithmetic the plain way -- every
# row that has not stalled on every Newton iteration, one simulate_z draw and
# two np.histogram calls per score -- and the batched results must equal
# them bit for bit.


def _ref_solve_moment_batch(targets, tau1_arr, tau2_arr, eta_bar, eta4_bar, stall=True):
    """Every row on every iteration. With stall=True a row whose residual
    is still >= 1e-8 and has fallen by less than 1e-3 of itself over the last
    10 iterations is frozen: it takes no more steps and its system is not
    factored again."""
    n = tau1_arr.shape[0]
    n_start = 8
    starts = _newton_starts(targets)
    X = np.repeat(starts[None, :, :], n, axis=0).reshape(n * n_start, 4)
    t1 = np.repeat(tau1_arr, n_start)
    t2 = np.repeat(tau2_arr, n_start)
    tgt = targets[None, :]

    R = _residuals(X, t1, t2, tgt, eta_bar, eta4_bar)
    rnorm = np.max(np.abs(R), axis=1)
    history = [rnorm]
    frozen = np.zeros(n * n_start, dtype=bool)
    for _ in range(60):
        if np.all(rnorm < 1e-12):
            break
        J = _jacobian(X, t1, t2, eta_bar, eta4_bar)
        G = np.einsum("nij,nik->njk", J, J)
        ridge = 1e-12 * (1.0 + np.trace(G, axis1=1, axis2=2))
        G[:, np.arange(4), np.arange(4)] += ridge[:, None]
        g = np.einsum("nij,ni->nj", J, R)
        step = np.zeros_like(g)
        try:
            step[~frozen] = np.linalg.solve(G[~frozen], g[~frozen][..., None])[..., 0]
        except np.linalg.LinAlgError:
            break
        step = np.where(np.isfinite(step), step, 0.0)

        alpha = np.ones(n * n_start)
        accepted = (rnorm < 1e-12) | frozen
        X_next = X.copy()
        R_next = R.copy()
        rn_next = rnorm.copy()
        for _bt in range(30):
            work = ~accepted
            if not np.any(work):
                break
            Xc = X[work] - alpha[work, None] * step[work]
            Rc = _residuals(Xc, t1[work], t2[work], tgt, eta_bar, eta4_bar)
            rc = np.max(np.abs(Rc), axis=1)
            ok = rc < rnorm[work]
            ok = np.where(np.isfinite(rc), ok, False)
            idx = np.nonzero(work)[0]
            good = idx[ok]
            X_next[good] = Xc[ok]
            R_next[good] = Rc[ok]
            rn_next[good] = rc[ok]
            accepted[good] = True
            alpha[idx[~ok]] *= 0.5
        X, R, rnorm = X_next, R_next, rn_next
        history.append(rnorm)
        if stall and len(history) > 10:
            before = history[-11]
            frozen |= (rnorm >= 1e-8) & (before - rnorm < 1e-3 * before)

    pi1, pi2 = X[:, 0], X[:, 1]
    pi0 = 1.0 - pi1 - pi2
    slack = 1e-8
    valid = (
        np.all(np.isfinite(X), axis=1)
        & (rnorm < 1e-8)
        & (X[:, 2] <= X[:, 3])
        & (pi1 >= -slack) & (pi1 <= 1.0 + slack)
        & (pi2 >= -slack) & (pi2 <= 1.0 + slack)
        & (pi0 >= -slack) & (pi0 <= 1.0 + slack)
    )
    rnorm_sel = np.where(valid, rnorm, np.inf).reshape(n, n_start)
    best_start = np.argmin(rnorm_sel, axis=1)
    feasible = np.isfinite(rnorm_sel[np.arange(n), best_start])
    chosen = X.reshape(n, n_start, 4)[np.arange(n), best_start]
    chosen = np.where(feasible[:, None], chosen, np.nan)
    return feasible, chosen


def _ref_simulate_z(params, dep, rng):
    p = dep.p
    u = rng.random(p)
    comp = (u >= params.pi0).astype(int) + (u >= params.pi0 + params.pi1).astype(int)
    normals = rng.standard_normal(p)
    mu = np.where(
        comp == 0,
        params.nu0,
        np.where(comp == 1,
                 params.nu1 + np.sqrt(params.tau1_sq) * normals,
                 params.nu2 + np.sqrt(params.tau2_sq) * normals),
    )
    w = rng.standard_normal(dep.rank)
    xi = rng.standard_normal(p)
    return mu + dep.B @ w + np.sqrt(dep.lambda_p) * xi


def _ref_total_variation(a, b):
    lo = min(a.min(), b.min())
    hi = max(a.max(), b.max())
    n_bins = max(int(np.ceil((hi - lo) / 0.1)), 1)
    edges = lo + 0.1 * np.arange(n_bins + 1)
    pa, _ = np.histogram(a, bins=edges)
    pb, _ = np.histogram(b, bins=edges)
    return float(min(0.5 * np.abs(pa / a.size - pb / b.size).sum(), 1.0))


def _ref_clip_weights(pi0, pi1, pi2):
    """The weights clipped to [0, 1] and renormalized, one point at a time."""
    w = np.clip([pi0, pi1, pi2], 0.0, 1.0)
    w = w / w.sum()
    return float(w[0]), float(w[1]), float(w[2])


def _ref_fit(z, dep, grids, seed):
    """The grid search one point at a time: same trace, params and winner."""
    p = z.size
    tau_pairs = [(t1, t2) for t1 in grids.tau_grid for t2 in grids.tau_grid]
    tau1_arr = np.asarray([t[0] for t in tau_pairs])
    tau2_arr = np.asarray([t[1] for t in tau_pairs])
    abs_sorted = np.sort(np.abs(z))
    eta_bar = float(np.mean(dep.eta_sq))
    eta4_bar = float(np.mean(dep.eta_sq**2))
    trace, best_tv, best = [], np.inf, None
    for mi, m_pct in enumerate(grids.m_grid):
        cut = min(max(int(p * m_pct / 100.0), 1), p)
        subset = np.abs(z) <= abs_sorted[cut - 1]
        lad_failed = False
        if dep.l > 0:
            try:
                v_hat = lad_regress(z[subset], dep.C[subset])
            except DataError:
                lad_failed = True
                v_hat = np.zeros(dep.l)
            cv = dep.C @ v_hat
        else:
            v_hat, cv = np.zeros(0), np.zeros(p)
        for ni, nu0 in enumerate(grids.nu0_grid):
            if lad_failed:
                trace += [{"m": m_pct, "nu0": nu0, "tau1_sq": t1, "tau2_sq": t2,
                           "feasible": False, "tv": None} for t1, t2 in tau_pairs]
                continue
            mom = pooled_moments(z - cv - nu0, dep.eta_sq)
            targets = np.asarray([mom.m1, mom.m2, mom.m3, mom.m4])
            feasible, sols = _ref_solve_moment_batch(
                targets, tau1_arr, tau2_arr, eta_bar, eta4_bar)
            cell_base = (mi * len(grids.nu0_grid) + ni) * len(tau_pairs)
            for ti, (t1, t2) in enumerate(tau_pairs):
                rec = {"m": m_pct, "nu0": nu0, "tau1_sq": t1, "tau2_sq": t2,
                       "feasible": bool(feasible[ti]), "tv": None}
                if feasible[ti]:
                    pi1, pi2, u1, u2 = sols[ti]
                    pi0, pi1, pi2 = _ref_clip_weights(1.0 - pi1 - pi2, pi1, pi2)
                    params = MixtureParams(
                        pi0=pi0, pi1=pi1, pi2=pi2, nu0=float(nu0),
                        nu1=float(nu0 + u1), nu2=float(nu0 + u2),
                        tau1_sq=float(t1), tau2_sq=float(t2))
                    rng = substream(seed, "fit_tv", cell_base + ti)
                    score = 0.0
                    for _ in range(_TV_DRAWS):
                        score += _ref_total_variation(z, _ref_simulate_z(params, dep, rng))
                    score /= _TV_DRAWS
                    rec["tv"] = score
                    if score < best_tv:
                        best_tv, best = score, (params, float(m_pct), v_hat.copy())
                trace.append(rec)
    if best is None:
        raise FitFailedError(
            f"no feasible grid point among {len(trace)} candidates", trace=trace)
    params, m_pct, v_hat = best
    return params, FitDiagnostics(m_pct=m_pct, v_hat=v_hat, tv=best_tv, grid_trace=trace)


def _fit_outcome(fit, z, dep, grids, seed):
    """The fit's result -- (params, diagnostics), or the FitFailedError
    message and trace -- with every float as its repr, so that equality is
    equality of bits; and the grid trace."""
    try:
        params, diag = fit(z, dep, grids, seed)
    except FitFailedError as exc:
        return ("failed", str(exc), repr(exc.trace)), exc.trace
    outcome = (repr(params), diag.m_pct, diag.v_hat.tobytes(), repr(diag.tv),
               repr(diag.grid_trace))
    return outcome, diag.grid_trace


_BIT_TAUS = (0.05, 0.08, 0.10, 0.12, 0.15, 0.20, 0.25, 0.30)


def _sim_case():
    setting = SimSetting(p=150, sparsity="s1", dependence="d1", theta=0.1, reps=1, seed=3)
    factors = synthetic_factors(setting.n_months, substream(3, "factors"))
    panel, factors, _ = generate_panel(setting, substream(3, "rep", 0), factors=factors)
    estimates = carhart_fit(panel, factors)
    return estimates.z, build_dependence(estimates, panel), (20.0, 40.0), (-0.5, -0.2, 0.0)


def _identity_case():
    dep = dependence_from_correlation(np.eye(200))
    true = MixtureParams(pi0=0.1, pi1=0.7, pi2=0.2, nu0=-0.1, nu1=-0.6,
                         nu2=1.1, tau1_sq=0.12, tau2_sq=0.12)
    return simulate_z(true, dep, 2), dep, (20.0, 40.0), (-0.5, -0.1, 0.0)


def _two_block_case(draw_seed):
    """l = 2 blocks; m = 1% leaves one row for two loadings, so LAD fails."""
    sigma = np.eye(60)
    for blk in (slice(0, 30), slice(30, 60)):
        sigma[blk, blk] = 0.5
    np.fill_diagonal(sigma, 1.0)
    dep = dependence_from_correlation(sigma)
    params = MixtureParams(pi0=0.3, pi1=0.5, pi2=0.2, nu0=0.0, nu1=-0.5,
                           nu2=1.2, tau1_sq=0.1, tau2_sq=0.1)
    return simulate_z(params, dep, draw_seed), dep, (1.0, 30.0, 60.0), (-0.2, 0.0)


def _spike_only_case():
    dep = dependence_from_correlation(np.eye(200))
    null = MixtureParams(pi0=1.0, pi1=0.0, pi2=0.0, nu0=0.0, nu1=0.0,
                         nu2=0.0, tau1_sq=0.1, tau2_sq=0.1)
    return simulate_z(null, dep, 500), dep, (20.0, 40.0), (-0.1, 0.0)


@pytest.mark.parametrize(
    "case, l_positive, lad_fails, empty_cell, partial_chunk, fails",
    [
        (_sim_case, True, False, False, False, False),
        (_identity_case, False, False, False, True, False),
        (lambda: _two_block_case(9), True, True, True, True, False),
        (lambda: _two_block_case(10), True, True, True, False, True),
        (_spike_only_case, False, False, True, False, True),
    ],
    ids=["factor-panel", "no-factors", "lad-fails", "lad-fails-no-fit", "spike-only"],
)
def test_batched_fit_matches_per_point_reference(
    case, l_positive, lad_fails, empty_cell, partial_chunk, fails
):
    z, dep, m_grid, nu0_grid = case()
    grids = GridConfig(m_grid=m_grid, nu0_grid=nu0_grid, tau_grid=_BIT_TAUS)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got, trace = _fit_outcome(fit_mixture, z, dep, grids, 5)
    assert got == _fit_outcome(_ref_fit, z, dep, grids, 5)[0]

    # the case covers what its flags say
    assert (dep.l > 0) == l_positive
    assert (got[0] == "failed") == fails
    assert any("factor regression" in str(w.message) for w in caught) == lad_fails
    n_tau = len(_BIT_TAUS) ** 2
    cell_counts = [sum(r["feasible"] for r in trace[start:start + n_tau])
                   for start in range(0, len(trace), n_tau)]
    assert (0 in cell_counts) == empty_cell
    assert any(c % _SCORE_CHUNK for c in cell_counts) == partial_chunk


def test_score_blocks_may_span_cells(monkeypatch):
    """Scoring the feasible candidates one at a time, seven at a time or all
    at once gives the same scores, bit for bit, and the same fit."""
    z, dep, m_grid, nu0_grid = _sim_case()
    grids = GridConfig(m_grid=m_grid, nu0_grid=nu0_grid, tau_grid=_BIT_TAUS)
    _, rows, feasible = mixture._grid_candidates(z, dep, grids)
    scores = mixture._score_candidates(z, dep, rows, feasible, 5)
    fit = _fit_outcome(fit_mixture, z, dep, grids, 5)[0]
    # some block of seven holds rows of two cells
    cells = np.flatnonzero(feasible) // len(_BIT_TAUS) ** 2
    assert any(len(set(cells[i:i + 7].tolist())) > 1 for i in range(0, cells.size, 7))
    assert np.isnan(scores).tolist() == (~feasible).tolist()
    for chunk in (1, 7, int(feasible.sum())):
        monkeypatch.setattr(mixture, "_SCORE_CHUNK", chunk)
        got = mixture._score_candidates(z, dep, rows, feasible, 5)
        assert np.array_equal(got, scores, equal_nan=True)
        assert _fit_outcome(fit_mixture, z, dep, grids, 5)[0] == fit


def test_tied_scores_go_to_the_first_feasible_point(monkeypatch):
    """With every score equal, the winner is the first feasible grid point
    in lexical order: here the first cell of the second m, since the first
    m's subset cannot support the factor regression."""
    monkeypatch.setattr(mixture, "_score_points",
                        lambda z_sorted, dep, rows, rngs: np.zeros(len(rows)))
    z, dep, m_grid, nu0_grid = _two_block_case(9)
    grids = GridConfig(m_grid=m_grid, nu0_grid=nu0_grid, tau_grid=_BIT_TAUS)
    with pytest.warns(RuntimeWarning, match="factor regression"):
        v_hats, rows, feasible = mixture._grid_candidates(z, dep, grids)
        params, diag = fit_mixture(z, dep, grids, seed=5)
    first = int(np.argmax(feasible))
    per_m = len(nu0_grid) * len(_BIT_TAUS) ** 2
    assert first >= per_m  # no point of the first m is feasible
    rec = diag.grid_trace[first]
    assert rec["feasible"] and not any(r["feasible"] for r in diag.grid_trace[:first])
    assert params == MixtureParams(*rows[first].tolist())
    assert (params.nu0, params.tau1_sq, params.tau2_sq) == (rec["nu0"], rec["tau1_sq"],
                                                            rec["tau2_sq"])
    assert diag.m_pct == rec["m"] == m_grid[first // per_m]
    np.testing.assert_array_equal(diag.v_hat, v_hats[first // per_m])
    assert diag.tv == 0.0


def _moment_targets():
    """Twelve moment-target vectors (targets, eta_bar, eta4_bar): population
    moments of separated mixtures, the pure-spike and dead-component cases,
    and the pooled moments of a simulated cross-section."""
    rng = np.random.default_rng(1)
    out = []
    for _ in range(8):
        pi0 = rng.uniform(0.05, 0.3)
        pi1 = (1 - pi0) * rng.uniform(0.55, 0.8)
        t1, t2 = rng.uniform(0.05, 0.2, size=2)
        eta = rng.uniform(0.3, 1.0)
        eta4 = eta**2 * rng.uniform(1.0, 1.4)
        m = forward_moments(pi1, 1 - pi0 - pi1, rng.uniform(-1.0, -0.3),
                            rng.uniform(0.8, 1.8), t1, t2, eta, eta4)
        out.append((np.asarray(m), eta, eta4))
    out.append((np.array([0.0, 0.5, 0.0, 0.9]), 0.5, 0.3))  # pure spike
    dead = forward_moments(0.9, 0.0, -0.3, 1.0, 0.1, 0.1, 0.5, 0.3)
    out.append((np.asarray(dead), 0.5, 0.3))
    z, dep, _, _ = _identity_case()
    for nu0 in (-0.1, 0.0):
        mom = pooled_moments(z - nu0, dep.eta_sq)
        out.append((np.array([mom.m1, mom.m2, mom.m3, mom.m4]),
                    mom.eta_sq_bar, mom.eta_4_bar))
    return out


def test_active_set_newton_matches_full_batch():
    taus = np.asarray(GridConfig().tau_grid[::3])
    tau1 = np.repeat(taus, taus.size)
    tau2 = np.tile(taus, taus.size)
    n_feasible = 0
    for targets, eta, eta4 in _moment_targets():
        feasible, sols = _solve_moment_batch(targets, tau1, tau2, eta, eta4)
        ref_feasible, ref_sols = _ref_solve_moment_batch(targets, tau1, tau2, eta, eta4)
        np.testing.assert_array_equal(feasible, ref_feasible)
        assert np.array_equal(sols, ref_sols, equal_nan=True)
        n_feasible += int(feasible.sum())
    assert n_feasible > 0


def _panel_targets(kind):
    """Moment targets (targets, eta_bar, eta4_bar) of two (m, nu0) cells of
    a simulated p=200 panel under the dependence design kind, as the fit
    builds them."""
    setting = SimSetting(p=200, sparsity="s1", dependence=kind, theta=0.1, reps=1, seed=3)
    panel, factors, _ = generate_panel(setting, substream(3, "rep", 0))
    estimates = carhart_fit(panel, factors)
    dep = build_dependence(estimates, panel)
    z = estimates.z
    out = []
    for m_pct, nu0 in ((20.0, -0.2), (40.0, 0.0)):
        subset = np.abs(z) <= np.sort(np.abs(z))[int(z.size * m_pct / 100.0) - 1]
        cv = dep.C @ lad_regress(z[subset], dep.C[subset])
        mom = pooled_moments(z - cv - nu0, dep.eta_sq)
        out.append((np.array([mom.m1, mom.m2, mom.m3, mom.m4]),
                    mom.eta_sq_bar, mom.eta_4_bar))
    return out


def test_stall_rule_keeps_feasibility_and_moves_roots_only_in_last_bits():
    """Stopping the rows that creep changes no feasibility and moves no
    chosen root by more than 1e-9, on the moment targets above and on cells
    of d1, d2 and d3 panels; on some of them it does move a root."""
    taus = np.asarray(GridConfig().tau_grid[::3])
    tau1 = np.repeat(taus, taus.size)
    tau2 = np.tile(taus, taus.size)
    cases = _moment_targets() + [c for kind in ("d1", "d2", "d3") for c in _panel_targets(kind)]
    moved = 0
    for targets, eta, eta4 in cases:
        feasible, sols = _ref_solve_moment_batch(targets, tau1, tau2, eta, eta4)
        full_feasible, full_sols = _ref_solve_moment_batch(
            targets, tau1, tau2, eta, eta4, stall=False)
        np.testing.assert_array_equal(feasible, full_feasible)
        np.testing.assert_allclose(sols[feasible], full_sols[feasible], rtol=0, atol=1e-9)
        moved += not np.array_equal(sols, full_sols, equal_nan=True)
    assert moved > 0


_STACK_ETA = (0.5, 0.3)  # (eta_bar, eta4_bar) shared by the stacked cells


def _stacked_cells():
    """Moment targets of four cells that share (eta_bar, eta4_bar), and the
    variance pairs they solve: a separated mixture, the pure spike, a target
    with no feasible row, and a wide mixture some of whose rows stop because
    no step length lowers their residual."""
    eta, eta4 = _STACK_ETA
    targets = np.stack([
        forward_moments(0.6, 0.25, -0.6, 1.2, 0.1, 0.15, eta, eta4),
        [0.0, 0.5, 0.0, 0.9],
        [0.0, 0.3, 0.0, 0.5],
        forward_moments(0.5, 0.3, -3.0, 4.0, 0.1, 0.15, eta, eta4),
    ])
    taus = np.asarray(GridConfig().tau_grid[::3])
    return targets, np.repeat(taus, taus.size), np.tile(taus, taus.size)


def _stalled_rows(targets, tau1, tau2):
    """Number of rows of the cell's solve that end unconverged at a point
    where none of the 30 step lengths lowers the residual."""
    eta, eta4 = _STACK_ETA
    X, rnorm = _newton_cells(targets[None], tau1, tau2, eta, eta4)
    t1, t2 = np.repeat(tau1, 8), np.repeat(tau2, 8)
    live = rnorm >= 1e-12
    step, _ = _newton_steps(X[live], _residuals(X[live], t1[live], t2[live], targets, eta, eta4),
                            t1[live], t2[live], eta, eta4, np.zeros(int(live.sum()), dtype=int))
    step = np.where(np.isfinite(step), step, 0.0)
    stalled = np.ones(len(step), dtype=bool)
    for j in range(30):
        Xc = X[live] - 0.5**j * step
        rc = np.max(np.abs(_residuals(Xc, t1[live], t2[live], targets, eta, eta4)), axis=1)
        stalled &= ~(rc < rnorm[live])
    return int(stalled.sum())


@pytest.mark.parametrize("solve_rows", [None, 1300, 1], ids=["one-block", "two-cells", "per-cell"])
def test_stacked_newton_matches_each_cell_alone(monkeypatch, solve_rows):
    """One stacked solve over four cells equals, cell by cell and bit for
    bit, the full-batch iteration of each cell alone, however many cells a
    block of `_SOLVE_ROWS` holds."""
    if solve_rows is not None:
        monkeypatch.setattr(mixture, "_SOLVE_ROWS", solve_rows)
    targets, tau1, tau2 = _stacked_cells()
    feasible, sols = _solve_moment_batch(targets, tau1, tau2, *_STACK_ETA)
    assert feasible.shape == (4, tau1.size) and sols.shape == (4, tau1.size, 4)
    for cell, t in enumerate(targets):
        ref_feasible, ref_sols = _ref_solve_moment_batch(t, tau1, tau2, *_STACK_ETA)
        np.testing.assert_array_equal(feasible[cell], ref_feasible)
        assert np.array_equal(sols[cell], ref_sols, equal_nan=True)

    # every step length 1, 1/2, ..., 2**-29 is tried, in order
    assert np.concatenate(mixture._STEP_LENGTHS).tolist() == [0.5**j for j in range(30)]
    # the cells cover what their docstring says
    counts = feasible.sum(axis=1).tolist()
    assert counts[0] > 0 and counts[1] == tau1.size and counts[2] == 0 and counts[3] > 0
    assert _stalled_rows(targets[0], tau1, tau2) == 0
    assert _stalled_rows(targets[3], tau1, tau2) > 0


def test_singular_system_stops_only_its_own_cell(monkeypatch):
    """A solver that refuses every batch holding a system with an entry above
    1e12 (as LAPACK refuses an exactly singular one) stops the wide cell,
    which alone reaches such entries; the stacked solve then equals each
    cell solved alone under the same solver, and the other cells are
    untouched."""
    targets, tau1, tau2 = _stacked_cells()
    clean = [_ref_solve_moment_batch(t, tau1, tau2, *_STACK_ETA) for t in targets]
    real_solve = np.linalg.solve

    def refusing_solve(a, b):
        if np.abs(a).max() > 1e12:
            raise np.linalg.LinAlgError("Singular matrix")
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", refusing_solve)
    feasible, sols = _solve_moment_batch(targets, tau1, tau2, *_STACK_ETA)
    for cell, t in enumerate(targets):
        ref_feasible, ref_sols = _ref_solve_moment_batch(t, tau1, tau2, *_STACK_ETA)
        np.testing.assert_array_equal(feasible[cell], ref_feasible)
        assert np.array_equal(sols[cell], ref_sols, equal_nan=True)
        stopped = not np.array_equal(ref_sols, clean[cell][1], equal_nan=True)
        assert stopped == (cell == 3)


def test_batched_simulation_matches_four_draw_reference():
    """A simulated block -- p uniforms and then 2p + rank normals per row, one
    row per generator -- equals, row by row, simulate_z drawn the old way:
    labels, component normals, factor vector and noise one by one."""
    params = [MixtureParams(pi0=0.1, pi1=0.7, pi2=0.2, nu0=-0.1, nu1=-0.6,
                            nu2=1.1, tau1_sq=0.1, tau2_sq=0.15),
              MixtureParams(pi0=0.3, pi1=0.3, pi2=0.4, nu0=0.0, nu1=-0.2,
                            nu2=0.9, tau1_sq=0.05, tau2_sq=0.3)] * 3
    for dep in (_equicorr(97, 0.3), _sim_case()[1], dependence_from_correlation(np.eye(51))):
        p = dep.p
        rngs = [np.random.default_rng(k) for k in range(len(params))]
        u = np.stack([rng.random(p) for rng in rngs])
        normals = np.stack([rng.standard_normal(2 * p + dep.rank) for rng in rngs])
        block = _simulate_rows(np.array([astuple(q) for q in params]), dep, u, normals)
        for j, q in enumerate(params):
            want = _ref_simulate_z(q, dep, np.random.default_rng(j))
            np.testing.assert_array_equal(block[j], want)
            np.testing.assert_array_equal(simulate_z(q, dep, np.random.default_rng(j)), want)


def test_batched_tv_matches_histogram_on_edge_cases():
    """The one-pass binning reproduces np.histogram's counts on rows built
    to sit on, just beside and just past its bin edges."""
    lo = -3.0
    edges = lo + 0.1 * np.arange(19)
    hi = np.nextafter(edges[18], np.inf)
    # ceil((hi - lo) / 0.1) = 18 bins whose last edge rounds below hi, so
    # np.histogram drops hi
    assert max(int(np.ceil((hi - lo) / 0.1)), 1) == 18 and edges[18] < hi
    a = np.array([lo, -2.05, -1.5, -1.25])
    rows = [
        np.concatenate([edges[:5], edges[9:12]]),         # on interior edges
        np.array([lo, -2.6, -2.0, -1.5, -1.3, -1.25, -1.22, edges[18]]),  # max on last edge
        np.array([lo, -2.0, -1.9, -1.3, -1.25, -1.22, -1.21, hi]),  # past the last edge
        np.nextafter(edges[2:10], -np.inf),                # just below edges
        np.nextafter(edges[2:10], np.inf),                 # just above edges
        np.full(8, -2.05),                                  # narrow range
    ]
    b = np.stack(rows)
    got = _tv_rows(np.sort(a), b)
    want = [_ref_total_variation(a, row) for row in rows]
    assert got.tolist() == want
    assert len(set(got.tolist())) > 1
    # data on interior edges, twice on the last one and so at the pooled
    # maximum, which the closed last bin holds
    data = np.concatenate([edges[[0, 3, 3, 7, 12]], [edges[18], edges[18]]])
    got = _tv_rows(np.sort(data), b)
    assert got.tolist() == [_ref_total_variation(data, row) for row in rows]

    # constant samples: one bin
    const = np.full(5, 0.7)
    assert _tv_rows(np.sort(const), np.stack([const, const + 0.0])).tolist() == [0.0, 0.0]
    assert total_variation(const, const) == _ref_total_variation(const, const) == 0.0

    # samples of different sizes, rows of different widths, one batch
    rng = np.random.default_rng(8)
    a = rng.standard_normal(37)
    b = np.stack([rng.standard_normal(23) * s + c
                  for s, c in ((0.2, 0.0), (1.0, 0.3), (3.0, -1.0), (0.01, 5.0))])
    assert _tv_rows(np.sort(a), b).tolist() == [_ref_total_variation(a, row) for row in b]
    for row in b:
        assert total_variation(a, row) == _ref_total_variation(a, row)
        assert total_variation(row, a) == _ref_total_variation(row, a)
