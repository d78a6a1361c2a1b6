"""Mixture-prior machinery: LAD factor removal, moment inversion, likelihood-scored grid fit."""

import warnings

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.special import logsumexp
from scipy.stats import norm

from fundselect.dependence import build_dependence, dependence_from_correlation
from fundselect.errors import ConfigError, DataError, FitFailedError
from fundselect import mixture
from fundselect.mixture import (
    _TV_DRAWS,
    FitDiagnostics,
    GridConfig,
    MixtureParams,
    PooledMoments,
    _newton_starts,
    _project,
    _solve_moment_batch,
    _vp_rows,
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


def test_moment_roundtrip_heavy_tail():
    """A small slab far out in the right tail -- weight 0.01-0.05 at offset
    4-8, the shape of the roots on weak-factor backtest windows -- is
    recovered too."""
    rng = np.random.default_rng(2)
    for _ in range(100):
        pi0 = rng.uniform(0.05, 0.3)
        pi2 = rng.uniform(0.01, 0.05)
        pi1 = 1 - pi0 - pi2
        u1 = rng.uniform(-1.0, -0.5)
        u2 = rng.uniform(4.0, 8.0)
        t1, t2 = rng.uniform(0.05, 0.2, size=2)
        eta = rng.uniform(0.3, 1.0)
        eta4 = eta**2 * rng.uniform(1.0, 1.4)
        m = forward_moments(pi1, pi2, u1, u2, t1, t2, eta, eta4)
        mom = PooledMoments(m1=m[0], m2=m[1], m3=m[2], m4=m[3],
                            eta_sq_bar=eta, eta_4_bar=eta4)
        sol = solve_moments(mom, t1, t2)
        assert sol is not None
        np.testing.assert_allclose(sol, [pi0, pi1, pi2, u1, u2], atol=1e-6)


def test_wide_starts_find_the_roots_the_base_starts_miss(monkeypatch):
    """Moments of a spike-heavy window with a slab at 2.5 and a small one at
    7, the shape of the roots on weak-factor backtest windows, have no root
    the base starts reach; the wide round finds the generating one."""
    m = forward_moments(0.25, 0.02, 2.5, 7.0, 0.2, 0.1, 0.95, 0.95)
    mom = PooledMoments(*m, eta_sq_bar=0.95, eta_4_bar=0.95)
    np.testing.assert_allclose(solve_moments(mom, 0.2, 0.1), [0.73, 0.25, 0.02, 2.5, 7.0],
                               atol=1e-9)
    base = mixture._newton_starts
    monkeypatch.setattr(mixture, "_newton_starts", lambda targets, wide=False: base(targets))
    assert solve_moments(mom, 0.2, 0.1) is None


def test_dead_slab_carries_no_offset():
    """A slab whose weight solves to within `_PI_FLOOR` of zero is dropped:
    weight and offset 0. The pure spike solves to exactly (1, 0, 0, 0, 0);
    a tiny slab far out is no root, since without it the moments do not
    fit; and no candidate of the fits below keeps a slab lighter than the
    floor."""
    mom = PooledMoments(m1=0.0, m2=0.5, m3=0.0, m4=0.9, eta_sq_bar=0.5, eta_4_bar=0.3)
    assert solve_moments(mom, 0.1, 0.1) == (1.0, 0.0, 0.0, 0.0, 0.0)
    for pi2, u2 in ((3e-5, 13.8), (5e-4, 6.9)):
        m = forward_moments(0.7, pi2, -0.5, u2, 0.1, 0.1, 0.5, 0.3)
        assert solve_moments(PooledMoments(*m, eta_sq_bar=0.5, eta_4_bar=0.3), 0.1, 0.1) is None
    for case in (_two_block_case(9), _spike_only_case(), _identity_case()):
        z, dep, m_grid, nu0_grid = case
        grids = GridConfig(m_grid=m_grid, nu0_grid=nu0_grid, tau_grid=_BIT_TAUS)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, rows, feasible = mixture._grid_candidates(z, dep, grids)
        weights, nu = rows[feasible, 1:3], rows[feasible, 3:6]
        assert np.all((weights == 0.0) | (weights >= mixture._PI_FLOOR))
        assert np.all((nu[:, 1:] == nu[:, :1])[weights == 0.0])


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
    # the documented draw order: labels, component normals, factor vector, noise
    for dep in (dep, _equicorr(97, 0.3)):
        np.testing.assert_array_equal(simulate_z(params, dep, np.random.default_rng(3)),
                                      _ref_simulate_z(params, dep, np.random.default_rng(3)))


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
    """On data simulated from a known prior, every one of draws 1000-1029
    that fits puts the spike within one grid step of the truth, and the
    trace covers the whole grid in lexical order. (With the truth at -0.1 on
    this grid the step holds every spike value; criterion 6, with the truth
    at the grid's end, is the check that can miss.)"""
    dep = _equicorr(600, 0.3)
    true = MixtureParams(pi0=0.1, pi1=0.7, pi2=0.2, nu0=-0.1, nu1=-0.6,
                         nu2=1.1, tau1_sq=0.12, tau2_sq=0.12)
    fitted = 0
    for draw in range(1000, 1030):
        try:
            params, diag = fit_mixture(simulate_z(true, dep, draw), dep, coarse_grids, seed=11)
        except FitFailedError:
            continue
        fitted += 1
        assert abs(params.nu0 - true.nu0) <= 0.1 + 1e-12
        assert diag.m_pct in coarse_grids.m_grid
        assert 0.0 < diag.tv < 0.3
        assert diag.v_hat.shape == (dep.l,)
    assert fitted > 0
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
# The fit solves the moment systems of a cell with an active-set
# variable-projection iteration and scores every candidate by the composite
# likelihood of the de-factored statistics. The references below do the same
# work the plain way -- every row that has not stalled on every iteration,
# one step length at a time, each pair's starts picked from one by one, each
# score through scipy's normal log density and logsumexp, one simulate_z
# draw and two np.histogram calls per TV draw. The moment solve must equal
# them bit for bit, the scores within rtol 1e-12 (the sums run in another
# order).


def _ref_vp_rows(U, t1, t2, b, eta_bar, eta4_bar, stall=True):
    """Every row on every iteration. With stall=True a row whose residual
    is still >= 1e-8 and has fallen by less than 1e-3 of itself over the last
    10 iterations is frozen: it takes no more steps. A non-finite step is a
    zero step."""
    u1, u2 = U[:, 0].copy(), U[:, 1].copy()
    pi1, pi2, rnorm = _project(u1, u2, t1, t2, b, eta_bar, eta4_bar)
    history = [rnorm]
    frozen = np.zeros(u1.size, dtype=bool)
    for _ in range(60):
        if np.all(rnorm < 1e-12):
            break
        s1, s2 = _project(u1, u2, t1, t2, b, eta_bar, eta4_bar, step=True)[3:]
        bad = ~(np.isfinite(s1) & np.isfinite(s2))
        s1[bad] = 0.0
        s2[bad] = 0.0

        alpha = np.ones(u1.size)
        accepted = (rnorm < 1e-12) | frozen
        nxt = [v.copy() for v in (u1, u2, pi1, pi2, rnorm)]
        for _bt in range(30):
            work = ~accepted
            if not np.any(work):
                break
            u1c = u1[work] - alpha[work] * s1[work]
            u2c = u2[work] - alpha[work] * s2[work]
            p1c, p2c, rc = _project(u1c, u2c, t1[work], t2[work], b[:, work], eta_bar, eta4_bar)
            ok = (rc < rnorm[work]) & np.isfinite(rc)
            idx = np.nonzero(work)[0]
            good = idx[ok]
            for dst, src in zip(nxt, (u1c, u2c, p1c, p2c, rc)):
                dst[good] = src[ok]
            accepted[good] = True
            alpha[idx[~ok]] *= 0.5
        u1, u2, pi1, pi2, rnorm = nxt
        history.append(rnorm)
        if stall and len(history) > 10:
            before = history[-11]
            frozen |= (rnorm >= 1e-8) & (before - rnorm < 1e-3 * before)
    return np.column_stack([pi1, pi2, u1, u2])


def _ref_solve_moment_batch(targets, tau1_arr, tau2_arr, eta_bar, eta4_bar, stall=True):
    """One cell: the base starts for every pair, the wide starts for the
    pairs they leave without a valid root; within a pair, the valid root
    with the smallest residual, the earlier start on a tie. A slab whose
    weight ends within `_PI_FLOOR` of zero gets weight and offset 0 first."""
    n = tau1_arr.shape[0]
    b = targets - np.array([0.0, eta_bar, 0.0, 3.0 * eta4_bar])
    feasible = np.zeros(n, dtype=bool)
    chosen = np.full((n, 4), np.nan)
    for wide in (False, True):
        todo = np.flatnonzero(~feasible)
        starts = _newton_starts(targets, wide)
        k = len(starts)
        X = _ref_vp_rows(np.tile(starts, (todo.size, 1)), np.repeat(tau1_arr[todo], k),
                         np.repeat(tau2_arr[todo], k),
                         np.repeat(b[:, None], todo.size * k, axis=1), eta_bar, eta4_bar, stall)
        for i, pair in enumerate(todo.tolist()):
            best = None
            for x in X[i * k:(i + 1) * k]:
                x = x.copy()
                for c in (0, 1):
                    if abs(x[c]) < mixture._PI_FLOOR:
                        x[c] = x[c + 2] = 0.0
                with np.errstate(invalid="ignore", over="ignore"):
                    r = np.max(np.abs(np.array(forward_moments(
                        *x, tau1_arr[pair], tau2_arr[pair], eta_bar, eta4_bar)) - targets))
                weights = (x[0], x[1], 1.0 - x[0] - x[1])
                if (np.all(np.isfinite(x)) and r < 1e-8 and x[2] <= x[3]
                        and all(-1e-8 <= w <= 1.0 + 1e-8 for w in weights)
                        and (best is None or r < best[0])):
                    best = (r, x)
            if best is not None:
                feasible[pair] = True
                chosen[pair] = best[1]
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


def _ref_score(h, eta_sq, params):
    """The mean negative log-likelihood of h under params with per-fund
    noise variances eta_sq, one grid point at a time; the spike has no
    density where eta_sq = 0."""
    spike = np.full(h.shape, -np.inf)
    live = eta_sq > 0.0
    spike[live] = norm.logpdf(h[live], params.nu0, np.sqrt(eta_sq[live]))
    logs = np.stack([spike,
                     norm.logpdf(h, params.nu1, np.sqrt(params.tau1_sq + eta_sq)),
                     norm.logpdf(h, params.nu2, np.sqrt(params.tau2_sq + eta_sq))])
    weights = np.array([params.pi0, params.pi1, params.pi2])[:, None]
    return float(-np.mean(logsumexp(logs, axis=0, b=np.broadcast_to(weights, logs.shape))))


def _ref_fit(z, dep, grids, seed):
    """The grid search one point at a time: same trace, params and winner;
    then the winner's TV from `_TV_DRAWS` plain draws of the "fit_tv"
    substream."""
    p = z.size
    tau_pairs = [(t1, t2) for t1 in grids.tau_grid for t2 in grids.tau_grid]
    tau1_arr = np.asarray([t[0] for t in tau_pairs])
    tau2_arr = np.asarray([t[1] for t in tau_pairs])
    abs_sorted = np.sort(np.abs(z))
    eta_bar = float(np.mean(dep.eta_sq))
    eta4_bar = float(np.mean(dep.eta_sq**2))
    trace, best_score, best = [], np.inf, None
    for m_pct in grids.m_grid:
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
        for nu0 in grids.nu0_grid:
            if lad_failed:
                trace += [{"m": m_pct, "nu0": nu0, "tau1_sq": t1, "tau2_sq": t2,
                           "feasible": False, "score": None} for t1, t2 in tau_pairs]
                continue
            mom = pooled_moments(z - cv - nu0, dep.eta_sq)
            targets = np.asarray([mom.m1, mom.m2, mom.m3, mom.m4])
            feasible, sols = _ref_solve_moment_batch(
                targets, tau1_arr, tau2_arr, eta_bar, eta4_bar)
            for ti, (t1, t2) in enumerate(tau_pairs):
                rec = {"m": m_pct, "nu0": nu0, "tau1_sq": t1, "tau2_sq": t2,
                       "feasible": bool(feasible[ti]), "score": None}
                if feasible[ti]:
                    pi1, pi2, u1, u2 = sols[ti]
                    pi0, pi1, pi2 = _ref_clip_weights(1.0 - pi1 - pi2, pi1, pi2)
                    params = MixtureParams(
                        pi0=pi0, pi1=pi1, pi2=pi2, nu0=float(nu0),
                        nu1=float(nu0 + u1), nu2=float(nu0 + u2),
                        tau1_sq=float(t1), tau2_sq=float(t2))
                    rec["score"] = score = _ref_score(z - cv, dep.eta_sq, params)
                    if score < best_score:
                        best_score, best = score, (params, float(m_pct), v_hat.copy())
                trace.append(rec)
    if best is None:
        raise FitFailedError(
            f"no feasible grid point among {len(trace)} candidates", trace=trace)
    params, m_pct, v_hat = best
    rng = substream(seed, "fit_tv")
    tv = 0.0
    for _ in range(_TV_DRAWS):
        tv += _ref_total_variation(z, _ref_simulate_z(params, dep, rng))
    tv /= _TV_DRAWS
    return params, FitDiagnostics(m_pct=m_pct, v_hat=v_hat, score=best_score, tv=tv,
                                  grid_trace=trace)


def _fit_outcome(fit, z, dep, grids, seed):
    """The fit's result -- (params, diagnostics) with the scores left out of
    the trace, or the FitFailedError message and trace -- with every float
    as its repr, so that equality is equality of bits; the scores, as
    (winning score, each point's score or NaN); and the grid trace."""
    try:
        params, diag = fit(z, dep, grids, seed)
    except FitFailedError as exc:
        return ("failed", str(exc), repr(exc.trace)), None, exc.trace
    points = [{k: v for k, v in rec.items() if k != "score"} for rec in diag.grid_trace]
    outcome = (repr(params), diag.m_pct, diag.v_hat.tobytes(), repr(diag.tv), repr(points))
    scores = [np.nan if rec["score"] is None else rec["score"] for rec in diag.grid_trace]
    return outcome, np.array([diag.score, *scores]), diag.grid_trace


def _assert_fits_match(z, dep, grids, seed):
    """The fit equals the per-point reference: the same winner, moment
    solve, feasibility trace and winner's TV bit for bit, and the same
    scores within rtol 1e-12. Returns the fit's outcome and trace."""
    got, got_scores, trace = _fit_outcome(fit_mixture, z, dep, grids, seed)
    want, want_scores, _ = _fit_outcome(_ref_fit, z, dep, grids, seed)
    assert got == want
    if got_scores is not None:
        np.testing.assert_allclose(got_scores, want_scores, rtol=1e-12, atol=0.0)
    return got, trace


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
    "case, l_positive, lad_fails, empty_cell, fails",
    [
        (_sim_case, True, False, False, False),
        (_identity_case, False, False, False, False),
        (lambda: _two_block_case(9), True, True, True, False),
        (lambda: _two_block_case(10), True, True, True, True),
        (_spike_only_case, False, False, True, True),
    ],
    ids=["factor-panel", "no-factors", "lad-fails", "lad-fails-no-fit", "spike-only"],
)
def test_batched_fit_matches_per_point_reference(case, l_positive, lad_fails, empty_cell, fails):
    z, dep, m_grid, nu0_grid = case()
    grids = GridConfig(m_grid=m_grid, nu0_grid=nu0_grid, tau_grid=_BIT_TAUS)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got, trace = _assert_fits_match(z, dep, grids, 5)

    # the case covers what its flags say
    assert (dep.l > 0) == l_positive
    assert (got[0] == "failed") == fails
    assert any("factor regression" in str(w.message) for w in caught) == lad_fails
    n_tau = len(_BIT_TAUS) ** 2
    cell_counts = [sum(r["feasible"] for r in trace[start:start + n_tau])
                   for start in range(0, len(trace), n_tau)]
    assert (0 in cell_counts) == empty_cell


def test_fit_does_not_depend_on_the_seed():
    """Two seeds give the same winner and the same score at every grid
    point; the seed moves only the winner's simulated TV."""
    z, dep, m_grid, nu0_grid = _sim_case()
    grids = GridConfig(m_grid=m_grid, nu0_grid=nu0_grid, tau_grid=_BIT_TAUS)
    (params_a, diag_a), (params_b, diag_b) = (fit_mixture(z, dep, grids, seed=s) for s in (5, 6))
    assert repr(params_a) == repr(params_b)
    assert repr(diag_a.grid_trace) == repr(diag_b.grid_trace)
    assert (diag_a.score, diag_a.runner_up_gap) == (diag_b.score, diag_b.runner_up_gap)
    assert diag_a.tv != diag_b.tv


def test_zero_idiosyncratic_share_scores_finite():
    """A share class listed twice (two funds at correlation 1) gets an
    idiosyncratic share of exactly 0, where the spike, a point mass, has no
    density. Every feasible score stays finite and the fit equals the
    reference, on every draw of this design that fits."""
    p = 400
    sigma = np.full((p, p), 0.3)
    np.fill_diagonal(sigma, 1.0)
    sigma[0, 1] = sigma[1, 0] = 1.0
    dep = dependence_from_correlation(sigma)
    assert np.any(dep.eta_sq == 0.0)
    true = MixtureParams(pi0=0.1, pi1=0.7, pi2=0.2, nu0=-0.1, nu1=-0.6,
                         nu2=1.1, tau1_sq=0.12, tau2_sq=0.12)
    grids = GridConfig(m_grid=(20.0, 40.0), nu0_grid=(-0.2, -0.1, 0.0), tau_grid=_BIT_TAUS)
    fitted = 0
    for draw in range(3):
        got, trace = _assert_fits_match(simulate_z(true, dep, draw), dep, grids, 5)
        if got[0] != "failed":
            fitted += 1
            assert all(np.isfinite(r["score"]) for r in trace if r["feasible"])
    assert fitted > 0


def test_tied_scores_go_to_the_first_feasible_point(monkeypatch):
    """With every score equal, the winner is the first feasible grid point
    in lexical order: here the first cell of the second m, since the first
    m's subset cannot support the factor regression."""
    monkeypatch.setattr(mixture, "_score_candidates",
                        lambda z, dep, v_hats, rows, feasible: np.where(feasible, 0.0, np.nan))
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
    assert diag.score == 0.0


def test_runner_up_gap_is_second_best_minus_best(monkeypatch):
    """The fit reports how far the second-best feasible score lies above the
    winning one, and None when only one point is feasible."""
    z, dep, m_grid, nu0_grid = _identity_case()
    grids = GridConfig(m_grid=m_grid, nu0_grid=nu0_grid, tau_grid=_BIT_TAUS)
    _, diag = fit_mixture(z, dep, grids, seed=5)
    scores = sorted(r["score"] for r in diag.grid_trace if r["feasible"])
    assert diag.score == scores[0] and diag.runner_up_gap == scores[1] - scores[0]

    v_hats, rows, feasible = mixture._grid_candidates(z, dep, grids)
    only = np.zeros_like(feasible)
    only[np.argmax(feasible)] = True
    monkeypatch.setattr(mixture, "_grid_candidates", lambda *args: (v_hats, rows, only))
    assert fit_mixture(z, dep, grids, seed=5)[1].runner_up_gap is None


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
        (feasible,), (sols,) = _solve_moment_batch(targets[None], tau1, tau2, eta, eta4)
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
    of d1, d2 and d3 panels; on some of them it does stop rows early."""
    taus = np.asarray(GridConfig().tau_grid[::3])
    tau1 = np.repeat(taus, taus.size)
    tau2 = np.tile(taus, taus.size)
    cases = _moment_targets() + [c for kind in ("d1", "d2", "d3") for c in _panel_targets(kind)]
    stopped = 0
    for targets, eta, eta4 in cases:
        feasible, sols = _ref_solve_moment_batch(targets, tau1, tau2, eta, eta4)
        full_feasible, full_sols = _ref_solve_moment_batch(
            targets, tau1, tau2, eta, eta4, stall=False)
        np.testing.assert_array_equal(feasible, full_feasible)
        np.testing.assert_allclose(sols[feasible], full_sols[feasible], rtol=0, atol=1e-9)
        rows = (np.tile(_newton_starts(targets), (tau1.size, 1)), np.repeat(tau1, 8),
                np.repeat(tau2, 8), np.repeat(
                    (targets - np.array([0.0, eta, 0.0, 3.0 * eta4]))[:, None], 8 * tau1.size, axis=1))
        stopped += not np.array_equal(_ref_vp_rows(*rows, eta, eta4),
                                      _ref_vp_rows(*rows, eta, eta4, stall=False), equal_nan=True)
    assert stopped > 0


_STACK_ETA = (0.5, 0.3)  # (eta_bar, eta4_bar) shared by the stacked cells


def _stacked_cells():
    """Moment targets of four cells that share (eta_bar, eta4_bar), and the
    variance pairs they solve: a separated mixture some of whose rows stop
    because no step length lowers their residual, the pure spike, a target
    with no feasible row, and a wide mixture."""
    eta, eta4 = _STACK_ETA
    targets = np.stack([
        forward_moments(0.6, 0.25, -0.6, 1.2, 0.1, 0.15, eta, eta4),
        [0.0, 0.5, 0.0, 0.9],
        [0.0, 0.3, 0.0, 0.5],
        forward_moments(0.5, 0.3, -3.0, 4.0, 0.1, 0.15, eta, eta4),
    ])
    taus = np.asarray(GridConfig().tau_grid[::3])
    return targets, np.repeat(taus, taus.size), np.tile(taus, taus.size)


def _base_rows(targets, tau1, tau2):
    """The base-start rows of one cell of `_stacked_cells`: offsets,
    variances and right-hand sides, as `_vp_rows` takes them."""
    eta, eta4 = _STACK_ETA
    U = np.tile(_newton_starts(targets), (tau1.size, 1))
    b = targets - np.array([0.0, eta, 0.0, 3.0 * eta4])
    return U, np.repeat(tau1, 8), np.repeat(tau2, 8), np.repeat(b[:, None], len(U), axis=1)


def _stalled_rows(targets, tau1, tau2):
    """Number of base rows of the cell's solve that end unconverged at a
    point where none of the 30 step lengths lowers the residual."""
    eta, eta4 = _STACK_ETA
    U, t1, t2, b = _base_rows(targets, tau1, tau2)
    X = _vp_rows(U[:, 0], U[:, 1], t1, t2, b, eta, eta4)
    _, _, rnorm, s1, s2 = _project(X[:, 2], X[:, 3], t1, t2, b, eta, eta4, step=True)
    live = rnorm >= 1e-12
    s1 = np.where(np.isfinite(s1), s1, 0.0)[live]
    s2 = np.where(np.isfinite(s2), s2, 0.0)[live]
    stalled = np.ones(int(live.sum()), dtype=bool)
    for j in range(30):
        rc = _project(X[live, 2] - 0.5**j * s1, X[live, 3] - 0.5**j * s2,
                      t1[live], t2[live], b[:, live], eta, eta4)[2]
        stalled &= ~(rc < rnorm[live])
    return int(stalled.sum())


@pytest.mark.parametrize("solve_rows", [None, 1300, 648, 8],
                         ids=["one-block", "two-cells", "per-cell", "per-pair"])
def test_stacked_newton_matches_each_cell_alone(monkeypatch, solve_rows):
    """One stacked solve over four cells equals, cell by cell and bit for
    bit, the plain iteration of each cell alone, whether a block of
    `_SOLVE_ROWS` rows holds all four cells, parts of two, exactly one (81
    pairs of 8 starts) or one variance pair."""
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
    assert mixture._STEP_LENGTHS.tolist() == [0.5**j for j in range(30)]
    # the cells cover what their docstring says
    counts = feasible.sum(axis=1).tolist()
    assert counts[0] > 0 and counts[1] == tau1.size and counts[2] == 0 and counts[3] > 0
    assert _stalled_rows(targets[0], tau1, tau2) > 0


def test_singular_system_stops_only_its_own_row():
    """A row whose weight matrix is rank-deficient -- tau1 = tau2 and
    u1 = u2 give two equal columns -- gets non-finite weights and keeps its
    offsets, and never becomes a root; the rows stacked around it equal,
    bit for bit, their solve without it."""
    eta, eta4 = _STACK_ETA
    targets, tau1, tau2 = _stacked_cells()
    U, t1, t2, b = _base_rows(targets[0], tau1, tau2)
    clean = _vp_rows(U[:, 0], U[:, 1], t1, t2, b, eta, eta4)
    k = 37
    U = np.insert(U, k, [0.4, 0.4], axis=0)
    t1, t2 = np.insert(t1, k, 0.1), np.insert(t2, k, 0.1)
    b = np.insert(b, k, b[:, 0], axis=1)
    X = _vp_rows(U[:, 0], U[:, 1], t1, t2, b, eta, eta4)
    assert not np.isfinite(X[k, :2]).any()
    assert X[k, 2:].tolist() == [0.4, 0.4]
    np.testing.assert_array_equal(np.delete(X, k, axis=0), clean)


def test_projected_step_is_gauss_newton_on_the_residual():
    """The Golub-Pereyra step equals the Gauss-Newton step on a central
    finite-difference Jacobian of the projected residual, and the weights
    are the least-squares solution of the 4x2 system."""
    eta, eta4 = 0.5, 0.3
    rng = np.random.default_rng(4)
    for _ in range(20):
        u = rng.normal(size=2)
        t1, t2 = rng.uniform(0.05, 0.3, size=2)
        b = rng.normal(size=4)

        def residual(u1, u2):
            pi1, pi2, _ = _project(u1, u2, t1, t2, b, eta, eta4)
            return np.array(forward_moments(pi1, pi2, u1, u2, t1, t2, eta, eta4)) - (
                b + np.array([0.0, eta, 0.0, 3.0 * eta4]))

        pi1, pi2, rnorm, s1, s2 = _project(u[0], u[1], t1, t2, b, eta, eta4, step=True)
        r = residual(*u)
        assert rnorm == pytest.approx(np.max(np.abs(r)), rel=1e-9, abs=1e-12)
        h = 1e-6
        J = np.column_stack([(residual(*(u + h * e)) - residual(*(u - h * e))) / (2 * h)
                             for e in np.eye(2)])
        np.testing.assert_allclose([s1, s2], np.linalg.lstsq(J, r, rcond=None)[0],
                                   rtol=1e-5, atol=1e-7)
        A = np.empty((4, 2))
        for c, (uc, tc) in enumerate(((u[0], t1), (u[1], t2))):
            one = np.array(forward_moments(1.0, 0.0, uc, 0.0, tc, 1.0, eta, eta4))
            A[:, c] = one - np.array([0.0, eta, 0.0, 3.0 * eta4])
        np.testing.assert_allclose([pi1, pi2], np.linalg.lstsq(A, b, rcond=None)[0],
                                   rtol=1e-9, atol=1e-12)


def test_batched_tv_matches_histogram_on_edge_cases():
    """total_variation equals the plain two-histogram reference on samples
    built to sit on, just beside and just past its bin edges."""
    lo = -3.0
    edges = lo + 0.1 * np.arange(19)
    hi = np.nextafter(edges[18], np.inf)
    # ceil((hi - lo) / 0.1) = 18 bins whose last edge rounds below hi, so
    # np.histogram drops hi
    assert max(int(np.ceil((hi - lo) / 0.1)), 1) == 18 and edges[18] < hi
    rows = [
        np.concatenate([edges[:5], edges[9:12]]),         # on interior edges
        np.array([lo, -2.6, -2.0, -1.5, -1.3, -1.25, -1.22, edges[18]]),  # max on last edge
        np.array([lo, -2.0, -1.9, -1.3, -1.25, -1.22, -1.21, hi]),  # past the last edge
        np.nextafter(edges[2:10], -np.inf),                # just below edges
        np.nextafter(edges[2:10], np.inf),                 # just above edges
        np.full(8, -2.05),                                  # narrow range
    ]
    # data on interior edges, twice on the last one and so at the pooled
    # maximum, which the closed last bin holds
    for a in (np.array([lo, -2.05, -1.5, -1.25]),
              np.concatenate([edges[[0, 3, 3, 7, 12]], [edges[18], edges[18]]])):
        got = [total_variation(a, row) for row in rows]
        assert got == [_ref_total_variation(a, row) for row in rows]
        assert len(set(got)) > 1

    # constant samples: one bin
    const = np.full(5, 0.7)
    assert total_variation(const, const) == _ref_total_variation(const, const) == 0.0

    # samples of different sizes and widths
    rng = np.random.default_rng(8)
    a = rng.standard_normal(37)
    for s, c in ((0.2, 0.0), (1.0, 0.3), (3.0, -1.0), (0.01, 5.0)):
        row = rng.standard_normal(23) * s + c
        assert total_variation(a, row) == _ref_total_variation(a, row)
        assert total_variation(row, a) == _ref_total_variation(row, a)
