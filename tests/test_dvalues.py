"""Tests for the posterior sign-probability engine.

The closed-form component masses are checked against adaptive quadrature
oracles, and the Monte Carlo d-values against an independent tensor-grid
Gauss-Hermite quadrature over the latent factor vector, both implemented
here from the model density alone.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite_e import hermegauss
from scipy import integrate
from scipy.special import log_ndtr
from scipy.stats import norm

from fundselect.dependence import DependenceModel, dependence_from_correlation
from fundselect.dvalues import (
    ESS_WARN_THRESHOLD,
    DValueReport,
    component_mass_nonnegative,
    component_mass_nonpositive,
    compute_dvalues,
    local_fdr,
)
from fundselect.errors import DataError, NumericalError
from fundselect.mixture import MixtureParams

BASE = MixtureParams(
    pi0=0.1, pi1=0.7, pi2=0.2, nu0=-0.1, nu1=-0.6, nu2=1.1, tau1_sq=0.1, tau2_sq=0.1
)
BASE_SPIKE_AT_ZERO = MixtureParams(
    pi0=0.1, pi1=0.7, pi2=0.2, nu0=0.0, nu1=-0.5, nu2=1.2, tau1_sq=0.1, tau2_sq=0.1
)


def _corr(p: int, rho: float) -> np.ndarray:
    sigma = np.full((p, p), rho)
    np.fill_diagonal(sigma, 1.0)
    return sigma


SIGMA3 = np.array([[1.0, 0.5, 0.3], [0.5, 1.0, 0.2], [0.3, 0.2, 1.0]])


# ---------------------------------------------------------------------------
# closed-form component masses
# ---------------------------------------------------------------------------


def _mass_by_quadrature(mu0, tau_sq, lam, shift, z, side):
    """Integrate N(z; mu+shift, lam) * N(mu; mu0, tau_sq) over a half-line."""

    def integrand(mu):
        return norm.pdf(z, loc=mu + shift, scale=math.sqrt(lam)) * norm.pdf(
            mu, loc=mu0, scale=math.sqrt(tau_sq)
        )

    lo, hi = (-np.inf, 0.0) if side == "neg" else (0.0, np.inf)
    val, err = integrate.quad(integrand, lo, hi, epsabs=1e-13, epsrel=1e-11)
    assert err < 1e-10
    return val


def test_mass_symmetric_point():
    """Centered component, no shift, z at the mode: each half is pdf(0)/2."""
    expected = 0.5 / math.sqrt(2.0 * math.pi)
    g = component_mass_nonpositive(0.0, 0.5, 0.5, 0.0, 0.0)
    q = component_mass_nonnegative(0.0, 0.5, 0.5, 0.0, 0.0)
    assert g == pytest.approx(expected, abs=1e-12)
    assert q == pytest.approx(expected, abs=1e-12)


def test_mass_matches_quadrature_reference_point():
    g = component_mass_nonpositive(0.3, 0.2, 0.7, -0.1, 1.1)
    q = component_mass_nonnegative(0.3, 0.2, 0.7, -0.1, 1.1)
    assert g == pytest.approx(_mass_by_quadrature(0.3, 0.2, 0.7, -0.1, 1.1, "neg"), abs=1e-8)
    assert q == pytest.approx(_mass_by_quadrature(0.3, 0.2, 0.7, -0.1, 1.1, "pos"), abs=1e-8)


def test_mass_matches_quadrature_random_tuples():
    rng = np.random.default_rng(12)
    for _ in range(25):
        mu0 = rng.uniform(-2, 2)
        tau_sq = rng.uniform(0.02, 1.5)
        lam = rng.uniform(0.05, 2.0)
        shift = rng.uniform(-1, 1)
        z = rng.uniform(-3, 3)
        g = component_mass_nonpositive(mu0, tau_sq, lam, shift, z)
        q = component_mass_nonnegative(mu0, tau_sq, lam, shift, z)
        assert g == pytest.approx(_mass_by_quadrature(mu0, tau_sq, lam, shift, z, "neg"), abs=1e-8)
        assert q == pytest.approx(_mass_by_quadrature(mu0, tau_sq, lam, shift, z, "pos"), abs=1e-8)


def test_mass_halves_sum_to_marginal_density():
    """nonpositive + nonnegative mass = N(z; mu0+shift, tau_sq+lam) density."""
    rng = np.random.default_rng(77)
    for _ in range(30):
        mu0 = rng.uniform(-2, 2)
        tau_sq = rng.uniform(0.02, 1.5)
        lam = rng.uniform(0.05, 2.0)
        shift = rng.uniform(-1, 1)
        z = rng.uniform(-3, 3)
        total = component_mass_nonpositive(
            mu0, tau_sq, lam, shift, z
        ) + component_mass_nonnegative(mu0, tau_sq, lam, shift, z)
        marginal = norm.pdf(z, loc=mu0 + shift, scale=math.sqrt(tau_sq + lam))
        assert total == pytest.approx(marginal, abs=1e-12)


def test_mass_component_far_below_zero():
    """A component at -100 has essentially all mass non-positive."""
    mu0, tau_sq, lam, shift = -100.0, 0.01, 0.7, 0.3
    z = -99.5  # keep the marginal density representable
    g = component_mass_nonpositive(mu0, tau_sq, lam, shift, z)
    marginal = norm.pdf(z, loc=mu0 + shift, scale=math.sqrt(tau_sq + lam))
    assert abs(g / marginal - 1.0) < 1e-12
    assert component_mass_nonnegative(mu0, tau_sq, lam, shift, z) < 1e-300


def test_mass_is_zero_where_z_has_zero_density():
    assert component_mass_nonpositive(0.0, 0.5, 0.5, 0.0, 1e200) == 0.0
    assert component_mass_nonnegative(0.0, 0.5, 0.5, 0.0, -1e200) == 0.0


def test_mass_rejects_nonpositive_variances():
    with pytest.raises(DataError):
        component_mass_nonpositive(0.0, 0.0, 0.5, 0.0, 0.0)
    with pytest.raises(DataError):
        component_mass_nonpositive(0.0, 0.5, -0.1, 0.0, 0.0)
    with pytest.raises(DataError):
        component_mass_nonnegative(0.0, -1.0, 0.5, 0.0, 0.0)


# ---------------------------------------------------------------------------
# marginal local false discovery rate
# ---------------------------------------------------------------------------


def test_local_fdr_pure_spike_is_one():
    spike = MixtureParams(
        pi0=1.0, pi1=0.0, pi2=0.0, nu0=-0.3, nu1=0.0, nu2=0.0, tau1_sq=0.1, tau2_sq=0.1
    )
    np.testing.assert_array_equal(local_fdr(np.array([-1.0, 0.0, 2.5]), spike), 1.0)
    assert local_fdr(3.0, spike) == 1.0


def test_local_fdr_symmetric_prior_at_zero():
    sym = MixtureParams(
        pi0=0.0, pi1=0.5, pi2=0.5, nu0=0.0, nu1=-0.8, nu2=0.8, tau1_sq=0.2, tau2_sq=0.2
    )
    assert local_fdr(0.0, sym) == pytest.approx(0.5, abs=1e-12)


def test_local_fdr_matches_quadrature():
    params = BASE_SPIKE_AT_ZERO
    z = 2.0
    num = params.pi0 * norm.pdf(z, 0.0, 1.0)
    den = params.pi0 * norm.pdf(z, 0.0, 1.0)
    for pi, nu, tau_sq in (
        (params.pi1, params.nu1, params.tau1_sq),
        (params.pi2, params.nu2, params.tau2_sq),
    ):
        num += pi * _mass_by_quadrature(nu, tau_sq, 1.0, 0.0, z, "neg")
        den += pi * norm.pdf(z, nu, math.sqrt(1.0 + tau_sq))
    assert local_fdr(z, params) == pytest.approx(num / den, abs=1e-8)


def test_local_fdr_vectorizes_and_caps_at_one():
    z = np.linspace(-4, 4, 41)
    vals = local_fdr(z, BASE)
    assert vals.shape == z.shape
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    # more negative z means more posterior mass on a non-positive mean
    assert vals[0] > vals[-1]
    assert isinstance(local_fdr(1.0, BASE), float)


# ---------------------------------------------------------------------------
# Monte Carlo d-values: exact special cases
# ---------------------------------------------------------------------------


def test_dvalues_pure_negative_spike_is_exact():
    """With all prior mass on a negative spike, d == 1 and los == 0 exactly."""
    dep = dependence_from_correlation(SIGMA3)
    spike = MixtureParams(
        pi0=1.0, pi1=0.0, pi2=0.0, nu0=-0.2, nu1=0.0, nu2=0.0, tau1_sq=0.1, tau2_sq=0.1
    )
    report = compute_dvalues(np.array([0.5, -1.0, 2.0]), dep, spike, n_samples=1000, seed=3)
    np.testing.assert_array_equal(report.d, 1.0)
    np.testing.assert_array_equal(report.los, 0.0)


def test_dvalues_all_mass_positive_component():
    """A single component far above zero drives d to 0 and los to 1."""
    dep = dependence_from_correlation(SIGMA3)
    pos = MixtureParams(
        pi0=0.0, pi1=0.0, pi2=1.0, nu0=0.0, nu1=0.0, nu2=50.0, tau1_sq=0.01, tau2_sq=0.01
    )
    report = compute_dvalues(np.array([49.0, 50.5, 51.0]), dep, pos, n_samples=500, seed=1)
    assert np.all(report.d < 1e-6)
    assert np.all(report.los > 1.0 - 1e-6)


# ---------------------------------------------------------------------------
# Monte Carlo d-values vs tensor-grid quadrature
# ---------------------------------------------------------------------------


def _dvalues_by_quadrature(z, dep, params, n_nodes=120):
    """Deterministic Gauss-Hermite tensor quadrature over the latent factors.

    Integrates the posterior ratio against the standard normal factor law on
    a dense product grid; practical only for rank(B) <= 2 but independent of
    the sampling code entirely.
    """
    nodes, wts = hermegauss(n_nodes)
    rank = dep.rank
    grids = np.meshgrid(*([nodes] * rank), indexing="ij")
    W = np.stack([g.ravel() for g in grids])
    logwt = np.zeros(W.shape[1])
    for ax in np.meshgrid(*([np.log(wts)] * rank), indexing="ij"):
        logwt += ax.ravel()

    lam = dep.lambda_p
    dev = np.asarray(z, dtype=float)[:, None] - dep.B @ W

    def logpdf(x, mean, var):
        return -0.5 * math.log(2.0 * math.pi * var) - (x - mean) ** 2 / (2.0 * var)

    def log_half_mass(nu, tau_sq, sign):
        var = tau_sq + lam
        sig_sq = lam * tau_sq / var
        beta = sig_sq * (dev / lam + nu / tau_sq)
        return logpdf(dev, nu, var) + norm.logcdf(sign * beta / math.sqrt(sig_sq))

    component_logs = []
    numerator_logs = []
    spec = [
        (params.pi0, params.nu0, 0.0),
        (params.pi1, params.nu1, params.tau1_sq),
        (params.pi2, params.nu2, params.tau2_sq),
    ]
    for pi, nu, tau_sq in spec:
        if pi == 0.0:
            continue
        if tau_sq == 0.0:  # the spike
            component_logs.append(math.log(pi) + logpdf(dev, nu, lam))
            if nu <= 0.0:
                numerator_logs.append(component_logs[-1])
        else:
            component_logs.append(math.log(pi) + logpdf(dev, nu, tau_sq + lam))
            numerator_logs.append(math.log(pi) + log_half_mass(nu, tau_sq, -1.0))

    logf = np.logaddexp.reduce(np.stack(component_logs), axis=0)
    lognum = np.logaddexp.reduce(np.stack(numerator_logs), axis=0)
    total = logf.sum(axis=0)

    d = np.empty(dev.shape[0])
    for i in range(dev.shape[0]):
        rest = total - logf[i]
        a = logwt + rest + lognum[i]
        b = logwt + rest + logf[i]
        shift = max(float(a.max()), float(b.max()))
        d[i] = np.exp(a - shift).sum() / np.exp(b - shift).sum()
    return d


def test_dvalues_match_tensor_quadrature():
    """p=3 with a rank-2 factor part: sampled d-values hit the quadrature."""
    dep = dependence_from_correlation(SIGMA3)
    assert dep.rank == 2
    z = np.array([1.5, -0.5, 0.3])
    reference = _dvalues_by_quadrature(z, dep, BASE)
    report = compute_dvalues(z, dep, BASE, n_samples=100_000, seed=5)
    np.testing.assert_allclose(report.d, reference, atol=5e-3)
    # frozen check that the oracle itself is sane at this point
    np.testing.assert_allclose(
        reference, [0.295922, 0.956851, 0.816024], atol=1e-5
    )
    assert 0.0 < report.ess <= report.n_samples


def test_dvalues_rank_zero_matches_marginal_fdr_numerator():
    """Identity correlation has no factor part; d reduces to a closed form.

    With B empty the posterior is unit-wise: d_i = (spike + negative-half
    masses) / marginal density at z_i, evaluable without any sampling.
    """
    dep = dependence_from_correlation(np.eye(4))
    assert dep.rank == 0
    z = np.array([-1.2, 0.0, 0.8, 2.5])
    params = BASE_SPIKE_AT_ZERO
    num = params.pi0 * norm.pdf(z, 0.0, 1.0)
    den = params.pi0 * norm.pdf(z, 0.0, 1.0)
    for pi, nu, tau_sq in (
        (params.pi1, params.nu1, params.tau1_sq),
        (params.pi2, params.nu2, params.tau2_sq),
    ):
        num += pi * np.array(
            [component_mass_nonpositive(nu, tau_sq, 1.0, 0.0, zi) for zi in z]
        )
        den += pi * norm.pdf(z, nu, math.sqrt(1.0 + tau_sq))
    report = compute_dvalues(z, dep, params, n_samples=200, seed=0)
    np.testing.assert_allclose(report.d, num / den, atol=1e-10)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def test_dvalues_complement_identity_negative_spike():
    """nu0 < 0: the spike sits in exactly one half-line, so d + los == 1."""
    dep = dependence_from_correlation(_corr(40, 0.4))
    z = np.random.default_rng(21).normal(0.0, 1.3, size=40)
    report = compute_dvalues(z, dep, BASE, n_samples=400, seed=9)
    assert float(np.max(np.abs(report.d + report.los - 1.0))) < 1e-10


def test_dvalues_overlap_identity_spike_at_zero():
    """nu0 == 0: the spike counts toward both halves, so d + los >= 1."""
    dep = dependence_from_correlation(_corr(40, 0.4))
    z = np.random.default_rng(22).normal(0.0, 1.3, size=40)
    report = compute_dvalues(z, dep, BASE_SPIKE_AT_ZERO, n_samples=400, seed=9)
    overlap = report.d + report.los - 1.0
    assert float(np.min(overlap)) >= -1e-10
    # the overlap is the posterior spike mass, which is genuinely positive here
    assert float(np.max(overlap)) > 0.01


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    rho=st.floats(0.0, 0.7),
    scale=st.floats(0.2, 3.0),
    spike_at_zero=st.booleans(),
)
def test_dvalues_bounds_property(seed, rho, scale, spike_at_zero):
    """d and los stay in [0, 1] across priors, correlations and z scales."""
    rng = np.random.default_rng(seed)
    p = int(rng.integers(2, 9))
    dep = dependence_from_correlation(_corr(p, rho))
    z = rng.normal(0.0, scale, size=p)
    params = BASE_SPIKE_AT_ZERO if spike_at_zero else BASE
    report = compute_dvalues(z, dep, params, n_samples=300, seed=seed)
    assert np.all((report.d >= 0.0) & (report.d <= 1.0))
    assert np.all((report.los >= 0.0) & (report.los <= 1.0))
    assert float(np.min(report.d + report.los)) >= 1.0 - 1e-10


def test_dvalues_permutation_equivariance():
    """Relabeling funds permutes d-values exactly when the factor rows follow.

    The eigensystem is data, not something recomputed inside the engine, so a
    hand-permuted model must reproduce the permuted posterior bit-for-bit.
    """
    p = 12
    rng = np.random.default_rng(33)
    raw = rng.normal(size=(5 * p, p)) @ np.diag(rng.uniform(0.5, 2.0, p))
    raw[:, 0] += raw[:, 1]  # give the matrix real structure
    sigma = np.corrcoef(raw, rowvar=False)
    dep = dependence_from_correlation(sigma)
    z = rng.normal(0.0, 1.2, size=p)

    perm = rng.permutation(p)
    dep_perm = DependenceModel(
        eigenvalues=dep.eigenvalues,
        l=dep.l,
        C=dep.C[perm],
        B=dep.B[perm],
        lambda_p=dep.lambda_p,
        eta_sq=dep.eta_sq[perm],
    )
    base = compute_dvalues(z, dep, BASE, n_samples=2000, seed=14)
    permuted = compute_dvalues(z[perm], dep_perm, BASE, n_samples=2000, seed=14)
    # identical draws, so only the order of the per-unit log-weight summation
    # can differ: agreement must be at rounding level, not sampling level
    np.testing.assert_allclose(permuted.d, base.d[perm], rtol=0, atol=1e-13)
    np.testing.assert_allclose(permuted.los, base.los[perm], rtol=0, atol=1e-13)
    assert permuted.ess == pytest.approx(base.ess, abs=1e-9)


def test_dvalues_localize_a_narrow_factor_posterior():
    """p = 300 funds over T = 60 months: the factor posterior's sd is about
    1/sqrt(p), far inside the prior, yet the mode-centred proposal keeps
    most draws effective and two seeds agree closely."""
    rng = np.random.default_rng(61)
    p, n_obs = 300, 60
    loadings = rng.normal(0.0, 2.0, size=(p, 3))
    y = rng.standard_normal((n_obs, 3)) @ loadings.T + rng.standard_normal((n_obs, p))
    dep = dependence_from_correlation(np.corrcoef(y, rowvar=False), n_obs=n_obs)
    assert dep.rank == 3
    spike = rng.random(p) < BASE.pi0
    slab = np.where(rng.random(p) < BASE.pi1 / (1.0 - BASE.pi0), BASE.nu1, BASE.nu2)
    mu = np.where(spike, BASE.nu0, slab + math.sqrt(0.1) * rng.standard_normal(p))
    z = mu + dep.B @ rng.standard_normal(3) + math.sqrt(dep.lambda_p) * rng.standard_normal(p)

    a = compute_dvalues(z, dep, BASE, n_samples=1000, seed=1)
    b = compute_dvalues(z, dep, BASE, n_samples=1000, seed=2)
    assert min(a.ess, b.ess) > 500
    assert float(np.max(np.abs(a.d - b.d))) < 0.02


def test_dvalues_deterministic_for_fixed_seed():
    dep = dependence_from_correlation(_corr(10, 0.3))
    z = np.random.default_rng(40).normal(size=10)
    a = compute_dvalues(z, dep, BASE, n_samples=600, seed=42)
    b = compute_dvalues(z, dep, BASE, n_samples=600, seed=42)
    np.testing.assert_array_equal(a.d, b.d)
    np.testing.assert_array_equal(a.los, b.los)
    assert a.ess == b.ess
    c = compute_dvalues(z, dep, BASE, n_samples=600, seed=43)
    assert not np.array_equal(a.d, c.d)


def _three_factor_dep(p: int) -> DependenceModel:
    B = 0.3 * np.random.default_rng(17).standard_normal((p, 3))
    return DependenceModel(eigenvalues=np.ones(p), l=3, C=B, B=B, lambda_p=0.6,
                           eta_sq=np.full(p, 0.6))


def _tile_case(name):
    """(z, dep, params, n_samples) for one bit-identity case of the tiles."""
    rng = np.random.default_rng(31)
    if name == "rank0-spike-at-zero":
        return rng.normal(size=129), dependence_from_correlation(np.eye(129)), BASE_SPIKE_AT_ZERO, 300
    if name == "rank1":
        return rng.normal(0.3, 1.2, size=137), dependence_from_correlation(_corr(137, 0.3)), BASE, 777
    if name == "rank3-spike-at-zero":
        return rng.normal(size=257), _three_factor_dep(257), BASE_SPIKE_AT_ZERO, 300
    # a few funds in the far tails, where half masses and ratios reach 0 and 1
    z = rng.normal(size=137)
    z[::17] = np.array([38.0, -38.0, 30.0, -30.0, 25.0, -25.0, 37.0, -37.0, 20.0])
    return z, _three_factor_dep(137), BASE, 300


@pytest.mark.parametrize(
    "case", ["rank0-spike-at-zero", "rank1", "rank3-spike-at-zero", "far-tails"]
)
def test_dvalues_do_not_depend_on_the_tile_height(case, monkeypatch):
    """One tile of all p funds is the untiled computation; a ragged last tile
    (7 rows) and the default height must reproduce it bit for bit, in the
    d-values, the los, the ESS, and the Newton starts the mode screen picks
    with the modes they reach."""
    from fundselect import dvalues

    z, dep, params, n_samples = _tile_case(case)
    ascend = dvalues._newton_ascent
    runs = []
    for rows in (z.size, 7, 32):
        ascents = []

        def spy(w0, *args):
            ascents.append((w0, ascend(w0, *args)))
            return ascents[-1][1]

        with monkeypatch.context() as m:
            m.setattr(dvalues, "_TILE_ROWS", rows)
            m.setattr(dvalues, "_newton_ascent", spy)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                report = compute_dvalues(z, dep, params, n_samples=n_samples, seed=5)
        runs.append((report, ascents))
    (ref, ref_ascents), others = runs[0], runs[1:]
    assert len(ref_ascents) == (1 + dvalues._SCREEN_STARTS if dep.rank else 0)
    for report, ascents in others:
        np.testing.assert_array_equal(report.d, ref.d)
        np.testing.assert_array_equal(report.los, ref.los)
        assert report.ess == ref.ess
        assert len(ascents) == len(ref_ascents)
        for (w0, (w, value, factor)), (w0_ref, (w_ref, value_ref, factor_ref)) in zip(
            ascents, ref_ascents
        ):
            np.testing.assert_array_equal(w0, w0_ref)
            np.testing.assert_array_equal(w, w_ref)
            assert value == value_ref
            np.testing.assert_array_equal(factor, factor_ref)


def test_dead_funds_fail_alike_for_every_tile_height(monkeypatch):
    """Funds of zero density under every draw are masked tile by tile; every
    weight then vanishes, with the same report whatever the tile height."""
    from fundselect import dvalues

    dep = dependence_from_correlation(_corr(20, 0.5))
    z = np.random.default_rng(2).normal(size=20)
    z[[3, 11]] = 1e200
    messages = set()
    for rows in (20, 7, 32):
        monkeypatch.setattr(dvalues, "_TILE_ROWS", rows)
        with pytest.raises(NumericalError, match="weights vanished") as err:
            compute_dvalues(z, dep, BASE, n_samples=300, seed=0)
        messages.add(str(err.value))
    assert len(messages) == 1


def _log_domain_reference(dev, params, lam):
    """log f, P(mu <= 0 | dev) and P(mu >= 0 | dev) at noise variance `lam`,
    with every density and mass in the log domain (norm.logpdf, log_ndtr,
    np.logaddexp); ratios of 0 where f(dev) = 0. The masses are taken relative
    to the largest component, so that no ratio is the exp of a difference of
    two logs near -1000, which alone would cost ~1e-13."""

    def logsumexp3(a, b, c):
        return np.logaddexp(np.logaddexp(a, b), c)

    def log_halves(nu, tau_sq):
        sig_sq = lam * tau_sq / (tau_sq + lam)
        q = sig_sq * (dev / lam + nu / tau_sq) / math.sqrt(sig_sq)
        return log_ndtr(-q), log_ndtr(q)

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        c0, c1, c2 = (
            np.log(pi) + norm.logpdf(dev, nu, math.sqrt(var))
            for pi, nu, var in ((params.pi0, params.nu0, lam),
                                (params.pi1, params.nu1, params.tau1_sq + lam),
                                (params.pi2, params.nu2, params.tau2_sq + lam))
        )
        logf = logsumexp3(c0, c1, c2)
        top = np.maximum(np.maximum(c0, c1), c2)
        r0, r1, r2 = c0 - top, c1 - top, c2 - top
        neg1, pos1 = log_halves(params.nu1, params.tau1_sq)
        neg2, pos2 = log_halves(params.nu2, params.tau2_sq)
        r0_los = r0 if params.nu0 == 0.0 else np.full_like(r0, -np.inf)
        log_s = logsumexp3(r0, r1, r2)
        d = np.exp(logsumexp3(r0, r1 + neg1, r2 + neg2) - log_s)
        los = np.exp(logsumexp3(r0_los, r1 + pos1, r2 + pos2) - log_s)
    dead = ~np.isfinite(logf)
    d[dead] = 0.0
    los[dead] = 0.0
    return logf, d, los


REFERENCE_PARAMS = [
    BASE,
    BASE_SPIKE_AT_ZERO,
    MixtureParams(pi0=0.3, pi1=0.7, pi2=0.0, nu0=-0.2, nu1=-0.4, nu2=0.8,
                  tau1_sq=0.05, tau2_sq=0.3),
    MixtureParams(pi0=0.2, pi1=0.0, pi2=0.8, nu0=0.0, nu1=-0.4, nu2=0.8,
                  tau1_sq=0.05, tau2_sq=0.3),
]
REFERENCE_IDS = ["spike-below-zero", "spike-at-zero", "empty-upper-slab", "empty-lower-slab"]


@pytest.mark.parametrize("params", REFERENCE_PARAMS, ids=REFERENCE_IDS)
@pytest.mark.parametrize("lam", [0.02, 1.0])
def test_tile_chain_matches_the_log_domain_reference(params, lam):
    """The linear posterior ratios agree with the log-domain reference to
    1e-13 over deviations in [-40, 40], and so does log f, relatively; rows of
    zero density give log f = -inf and ratios of 0."""
    from fundselect import dvalues

    dev = np.linspace(-40.0, 40.0, 30 * 64).reshape(30, 64)
    dev[[4, 17]] = 1e200  # dead rows: zero density under every component
    logf, d, los = dvalues._tile_ratios(dev, dvalues._components(params, lam), params, lam)
    ref_logf, ref_d, ref_los = _log_domain_reference(dev, params, lam)
    np.testing.assert_allclose(logf, ref_logf, rtol=1e-14, atol=1e-13)
    assert np.isneginf(logf[[4, 17]]).all() and np.isfinite(np.delete(logf, [4, 17], 0)).all()
    np.testing.assert_allclose(d, ref_d, rtol=0, atol=1e-13)
    np.testing.assert_allclose(los, ref_los, rtol=0, atol=1e-13)
    assert (d[[4, 17]] == 0.0).all() and (los[[4, 17]] == 0.0).all()


def _per_slab_tile_ratios(dev, comps, params, lam):
    """Reference: the tile chain with one `_half_probabilities` call per
    slab, each on the tile's own shape."""
    from fundselect import dvalues

    (e0, e1, e2), total, logf = dvalues._shifted_weights(dvalues._component_logs(dev, comps))
    neg1, pos1 = dvalues._half_probabilities(dev, params.nu1, params.tau1_sq, lam)
    neg2, pos2 = dvalues._half_probabilities(dev, params.nu2, params.tau2_sq, lam)
    with np.errstate(invalid="ignore"):
        ratio_d = (e0 + e1 * neg1 + e2 * neg2) / total
        ratio_los = ((params.nu0 == 0.0) * e0 + e1 * pos1 + e2 * pos2) / total
    dead = ~np.isfinite(logf)
    ratio_d[dead] = 0.0
    ratio_los[dead] = 0.0
    return logf, ratio_d, ratio_los


@pytest.mark.parametrize("params", REFERENCE_PARAMS, ids=REFERENCE_IDS)
@pytest.mark.parametrize("lam", [0.02, 1.0])
def test_tile_chain_matches_the_per_slab_chain_bit_for_bit(params, lam):
    """Both slabs' half probabilities come from one stacked call; log f and
    both ratios keep the per-slab chain's bits, on the log-domain test's
    grid, dead rows included, and on a 1-d tile as `local_fdr` passes it."""
    from fundselect import dvalues

    dev = np.linspace(-40.0, 40.0, 30 * 64).reshape(30, 64)
    dev[[4, 17]] = 1e200
    comps = dvalues._components(params, lam)
    for tile in (dev, dev[5]):
        got = dvalues._tile_ratios(tile, comps, params, lam)
        want = _per_slab_tile_ratios(tile, comps, params, lam)
        for g, w in zip(got, want):
            assert g.shape == w.shape == tile.shape
            assert g.view(np.int64).tolist() == w.view(np.int64).tolist()


@pytest.mark.parametrize("params", REFERENCE_PARAMS, ids=REFERENCE_IDS)
def test_local_fdr_matches_the_log_domain_reference(params):
    """local_fdr is the tile chain at unit noise: within 1e-13 of the
    log-domain reference over z in [-40, 40], and 0 where z has zero density."""
    z = np.linspace(-40.0, 40.0, 4001)
    ref = np.minimum(_log_domain_reference(z, params, 1.0)[1], 1.0)
    np.testing.assert_allclose(local_fdr(z, params), ref, rtol=0, atol=1e-13)
    np.testing.assert_array_equal(local_fdr(np.array([1e200, -1e200]), params), 0.0)
    assert local_fdr(1e200, params) == 0.0


def test_dvalues_error_shrinks_at_root_n_rate():
    """Across replicate seeds, doubling n_samples shrinks the spread ~1/sqrt(2)."""
    dep = dependence_from_correlation(_corr(30, 0.3))
    z = np.random.default_rng(4).normal(0.0, 1.2, size=30)
    spreads = []
    for n_samples in (400, 800):
        draws = np.stack(
            [
                compute_dvalues(z, dep, BASE, n_samples=n_samples, seed=k).d
                for k in range(20)
            ]
        )
        spreads.append(float(np.mean(np.std(draws, axis=0, ddof=1))))
    ratio = spreads[1] / spreads[0]
    target = 1.0 / math.sqrt(2.0)
    assert target * 0.8 < ratio < target * 1.2


# ---------------------------------------------------------------------------
# degeneracy handling and validation
# ---------------------------------------------------------------------------


def test_dvalues_warns_on_low_effective_sample_size():
    """The effective sample size never exceeds the number of draws, so a run
    with fewer draws than the threshold must report an ESS below it and warn."""
    dep = dependence_from_correlation(_corr(300, 0.5))
    z = np.random.default_rng(8).normal(2.0, 1.5, size=300)
    n_samples = 40
    assert n_samples < ESS_WARN_THRESHOLD
    with pytest.warns(RuntimeWarning, match="effective sample size"):
        report = compute_dvalues(z, dep, BASE, n_samples=n_samples, seed=2)
    assert report.ess < ESS_WARN_THRESHOLD
    assert report.ess >= 1.0


def test_dvalues_raises_when_all_weights_vanish():
    dep = dependence_from_correlation(_corr(3, 0.5))
    z = np.array([1e200, 1e200, -1e200])
    with pytest.raises(NumericalError, match="weights vanished"):
        compute_dvalues(z, dep, BASE, n_samples=64, seed=0)


def test_dvalues_raise_when_a_posterior_probability_leaves_unit_interval(monkeypatch):
    """The range check on P(mu <= 0 | Z) is a raised NumericalError, not an
    assert that `python -O` would strip."""
    from fundselect import dvalues

    half_probabilities = dvalues._half_probabilities

    def inflated(dev, mu0, tau_sq, noise_var):
        neg, pos = half_probabilities(dev, mu0, tau_sq, noise_var)
        return 3.0 * neg, pos

    monkeypatch.setattr(dvalues, "_half_probabilities", inflated)
    dep = dependence_from_correlation(_corr(5, 0.3))
    with pytest.raises(NumericalError, match=r"left \[0, 1\]: it spans"):
        compute_dvalues(np.full(5, -2.0), dep, BASE, n_samples=64, seed=0)


def test_dvalues_input_validation():
    dep = dependence_from_correlation(_corr(4, 0.2))
    z = np.zeros(4)
    empty_dep = DependenceModel(
        eigenvalues=np.zeros(0),
        l=0,
        C=np.zeros((0, 0)),
        B=np.zeros((0, 0)),
        lambda_p=1.0,
        eta_sq=np.zeros(0),
    )
    with pytest.raises(DataError):
        compute_dvalues(np.zeros(0), empty_dep, BASE)
    with pytest.raises(DataError):
        compute_dvalues(np.zeros(5), dep, BASE)
    with pytest.raises(DataError):
        compute_dvalues(z, dep, BASE, n_samples=1)


def test_dvalue_report_carries_run_metadata():
    dep = dependence_from_correlation(_corr(5, 0.1))
    report = compute_dvalues(np.zeros(5), dep, BASE, n_samples=128, seed=7)
    assert isinstance(report, DValueReport)
    assert report.n_samples == 128
    assert report.seed == 7
    assert report.d.shape == (5,)
    assert report.los.shape == (5,)
    assert 0.0 < report.ess <= 128.0
