"""Tests for the decision procedures.

The loss-optimal rule is checked against exhaustive enumeration of all 2^p
decision vectors, and the Benjamini-Hochberg implementation against an
independent adjusted-p-value oracle, both implemented here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import norm

from fundselect.errors import DataError
from fundselect.selection import (
    SelectionResult,
    bh_select,
    one_sided_pvalues,
    optimal_decision,
    select_fdr_stepup,
    select_unskilled,
    storey_select,
)

dvectors = st.lists(
    st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=40
).map(np.asarray)


# ---------------------------------------------------------------------------
# loss-optimal rule
# ---------------------------------------------------------------------------


def _loss_of_decision(d: np.ndarray, decisions: np.ndarray, lam: float) -> float:
    """Expected posterior loss of an arbitrary 0/1 decision vector.

    Mean selected d-value (weighted by lam) plus mean unselected skill mass,
    with empty means counting as zero.
    """
    sel = decisions.astype(bool)
    false = lam * float(np.mean(d[sel])) if sel.any() else 0.0
    miss = float(np.mean(1.0 - d[~sel])) if (~sel).any() else 0.0
    return false + miss


def _exhaustive_minimum(d: np.ndarray, lam: float) -> float:
    p = d.size
    masks = np.arange(2**p)
    bits = (masks[:, None] >> np.arange(p)) & 1  # 2^p x p
    count = bits.sum(axis=1)
    sel_mass = bits @ d
    with np.errstate(invalid="ignore", divide="ignore"):
        false = lam * sel_mass / count
        miss = ((1.0 - d).sum() - (bits @ (1.0 - d))) / (p - count)
    false[count == 0] = 0.0
    miss[count == p] = 0.0
    return float(np.min(false + miss))


def test_optimal_decision_two_point_example():
    """d = (0, 0.5) at lam = 1: cut losses are 0.75, 0.5, 0.25 -> keep both."""
    res = optimal_decision(np.array([0.0, 0.5]), lam=1.0)
    assert res.k == 2
    np.testing.assert_array_equal(res.decisions, [1, 1])
    assert _loss_of_decision(np.array([0.0, 0.5]), res.decisions, 1.0) == pytest.approx(0.25)


def test_optimal_decision_heavy_penalty_selects_nothing():
    res = optimal_decision(np.array([0.9, 0.9, 0.9]), lam=10.0)
    assert res.k == 0
    np.testing.assert_array_equal(res.decisions, 0)


def test_optimal_decision_matches_exhaustive_search():
    """The sorted-cut rule attains the global optimum over all 2^p decisions."""
    rng = np.random.default_rng(1234)
    for _ in range(200):
        p = int(rng.integers(2, 11))
        d = rng.uniform(0.0, 1.0, size=p)
        lam = float(rng.choice([0.1, 0.5, 1.0, 2.0, 10.0]))
        res = optimal_decision(d, lam)
        achieved = _loss_of_decision(d, res.decisions, lam)
        assert achieved == pytest.approx(_exhaustive_minimum(d, lam), abs=1e-12)


def test_optimal_decision_validation():
    with pytest.raises(DataError):
        optimal_decision(np.array([0.5]), lam=0.0)
    with pytest.raises(DataError):
        optimal_decision(np.array([1.5]), lam=1.0)
    with pytest.raises(DataError):
        optimal_decision(np.zeros(0), lam=1.0)


# ---------------------------------------------------------------------------
# step-up rule on d-values
# ---------------------------------------------------------------------------


def test_stepup_worked_example():
    """Running means 0.01, 0.03, 0.0867, 0.19 against theta = 0.1 give k = 3."""
    res = select_fdr_stepup(np.array([0.01, 0.05, 0.2, 0.5]), theta=0.1)
    assert res.k == 3
    np.testing.assert_array_equal(res.decisions, [1, 1, 1, 0])
    assert res.conditional_fdr == pytest.approx((0.01 + 0.05 + 0.2) / 3)
    assert res.conditional_fdr <= 0.1
    assert res.conditional_fnr == pytest.approx(0.5)
    assert res.threshold == 0.1


def test_stepup_uniform_small_values_selects_all():
    res = select_fdr_stepup(np.full(7, 0.02), theta=0.1)
    assert res.k == 7
    assert res.conditional_fnr == 0.0


def test_stepup_everything_above_theta_selects_none():
    res = select_fdr_stepup(np.array([0.5, 0.9, 0.96]), theta=0.1)
    assert res.k == 0
    np.testing.assert_array_equal(res.decisions, 0)
    assert res.conditional_fdr == 0.0


def test_stepup_never_splits_a_tie_group():
    """A cut that would take some but not all equal d-values retreats past them.

    Means 0.05, 0.075, 0.0833, 0.0875: the largest cut within theta = 0.08 is
    2, but that would select one of three equal values, so the rule falls back
    to k = 1. Selection stays a function of the value, not the unit label.
    """
    res = select_fdr_stepup(np.array([0.05, 0.1, 0.1, 0.1]), theta=0.08)
    assert res.k == 1
    np.testing.assert_array_equal(res.decisions, [1, 0, 0, 0])
    res_wide = select_fdr_stepup(np.array([0.05, 0.1, 0.1, 0.1]), theta=0.09)
    assert res_wide.k == 4  # mean 0.0875 fits, so the whole tie group enters


@settings(max_examples=200, deadline=None)
@given(d=dvectors, theta=st.floats(0.01, 0.99))
def test_stepup_properties(d, theta):
    res = select_fdr_stepup(d, theta)
    assert res.k == int(res.decisions.sum())
    if res.k >= 1:
        assert res.conditional_fdr <= theta + 1e-12
    # selected values never exceed unselected ones
    if 0 < res.k < d.size:
        assert d[res.decisions == 1].max() <= d[res.decisions == 0].min() + 1e-12
    # running and leftover means are both nondecreasing in the cut
    s = np.sort(d)
    running = np.cumsum(s) / np.arange(1, d.size + 1)
    assert np.all(np.diff(running) >= -1e-12)
    leftover = (np.cumsum(s[::-1]) / np.arange(1, d.size + 1))[::-1]
    assert np.all(np.diff(leftover) >= -1e-12)


@settings(max_examples=100, deadline=None)
@given(
    d=dvectors,
    theta1=st.floats(0.01, 0.99),
    theta2=st.floats(0.01, 0.99),
)
def test_stepup_nested_in_theta(d, theta1, theta2):
    lo, hi = sorted((theta1, theta2))
    sel_lo = select_fdr_stepup(d, lo).decisions
    sel_hi = select_fdr_stepup(d, hi).decisions
    assert np.all(sel_hi >= sel_lo)


@settings(max_examples=100, deadline=None)
@given(d=dvectors, theta=st.floats(0.01, 0.99), seed=st.integers(0, 2**31 - 1))
def test_stepup_permutation_equivariant(d, theta, seed):
    perm = np.random.default_rng(seed).permutation(d.size)
    base = select_fdr_stepup(d, theta).decisions
    permuted = select_fdr_stepup(d[perm], theta).decisions
    np.testing.assert_array_equal(permuted, base[perm])


def test_stepup_validation():
    with pytest.raises(DataError):
        select_fdr_stepup(np.array([0.1]), theta=0.0)
    with pytest.raises(DataError):
        select_fdr_stepup(np.array([0.1]), theta=1.0)
    with pytest.raises(DataError):
        select_fdr_stepup(np.array([0.1, np.nan]), theta=0.5)
    with pytest.raises(DataError):
        select_fdr_stepup(np.array([[0.1, 0.2]]), theta=0.5)


# ---------------------------------------------------------------------------
# unskilled selection
# ---------------------------------------------------------------------------


def test_unskilled_small_example():
    res = select_unskilled(np.array([0.01, 0.2]), theta=0.05)
    assert res.k == 1
    np.testing.assert_array_equal(res.decisions, [1, 0])


@settings(max_examples=50, deadline=None)
@given(v=dvectors, theta=st.floats(0.01, 0.99))
def test_unskilled_mirrors_stepup(v, theta):
    """The unskilled rule is the identical algorithm on the mirror inputs."""
    a = select_unskilled(v, theta)
    b = select_fdr_stepup(v, theta)
    np.testing.assert_array_equal(a.decisions, b.decisions)
    assert a.k == b.k


# ---------------------------------------------------------------------------
# classical baselines
# ---------------------------------------------------------------------------


def _bh_oracle(pvals: np.ndarray, level: float) -> np.ndarray:
    """Benjamini-Hochberg via monotone adjusted p-values (independent of the
    step-up scan in the implementation)."""
    n = pvals.size
    order = np.argsort(pvals)
    ranked = pvals[order] * n / np.arange(1, n + 1)
    adjusted = np.minimum.accumulate(ranked[::-1])[::-1]
    out = np.zeros(n, dtype=int)
    out[order] = (adjusted <= level).astype(int)
    return out


def test_one_sided_pvalues():
    z = np.array([-1.0, 0.0, 2.0])
    np.testing.assert_allclose(one_sided_pvalues(z), 1.0 - norm.cdf(z), atol=1e-15)
    # relative accuracy into the far upper tail, where p reaches ~6e-300
    z = np.concatenate([np.linspace(-37.0, 37.0, 20000), [-1e-300, 1e-300, 0.7071, -0.7071]])
    np.testing.assert_allclose(one_sided_pvalues(z), ndtr(-z), rtol=1e-13, atol=0.0)
    ends = one_sided_pvalues(np.array([0.0, np.inf, -np.inf]))
    assert ends.tolist() == [0.5, 0.0, 1.0]
    assert one_sided_pvalues(z.reshape(4, -1)).shape == (4, 5001)


def test_bh_worked_example():
    """p-values (0.001, 0.2, 0.9) at theta = 0.15: only 0.001 <= 0.05 passes."""
    z = norm.isf(np.array([0.001, 0.2, 0.9]))
    res = bh_select(z, theta=0.15)
    assert res.k == 1
    np.testing.assert_array_equal(res.decisions, [1, 0, 0])


def test_bh_rejects_nothing_when_pvalues_large():
    res = bh_select(np.full(5, -40.0), theta=0.15)  # p-values ~ 1
    assert res.k == 0


def test_bh_matches_adjusted_pvalue_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        n = int(rng.integers(1, 60))
        z = rng.normal(rng.uniform(-1, 2), 1.5, size=n)
        theta = float(rng.uniform(0.02, 0.5))
        res = bh_select(z, theta)
        np.testing.assert_array_equal(res.decisions, _bh_oracle(one_sided_pvalues(z), theta))


def test_storey_reduces_to_bh_when_null_fraction_estimate_caps():
    """All-negative z give p-values above 1/2, so the null estimate caps at 1."""
    z = -np.abs(np.random.default_rng(3).normal(1.0, 0.5, size=30))
    b = bh_select(z, theta=0.15)
    s = storey_select(z, theta=0.15)
    np.testing.assert_array_equal(s.decisions, b.decisions)


def test_storey_is_less_conservative_on_signal_heavy_data():
    rng = np.random.default_rng(5)
    z = np.concatenate([rng.normal(3.0, 1.0, 30), rng.normal(0.0, 1.0, 70)])
    b = bh_select(z, theta=0.15)
    s = storey_select(z, theta=0.15)
    assert np.all(s.decisions >= b.decisions)  # never loses a rejection
    assert s.k > b.k  # and strictly gains here (28 -> 29)


def test_null_simulation_keeps_false_discovery_rate_at_level():
    """All-null panels: the share of replications with any rejection stays
    near theta for both baselines (every rejection is false under the null)."""
    rng = np.random.default_rng(17)
    theta = 0.1
    reps = 1000
    hits_bh = hits_storey = 0
    for _ in range(reps):
        z = norm.isf(rng.uniform(size=100))
        hits_bh += bh_select(z, theta).k >= 1
        hits_storey += storey_select(z, theta).k >= 1
    assert hits_bh / reps <= theta + 0.02
    assert hits_storey / reps <= theta + 0.02


def test_baseline_validation():
    with pytest.raises(DataError):
        bh_select(np.zeros(0), theta=0.1)
    with pytest.raises(DataError):
        bh_select(np.zeros(3), theta=1.5)


# ---------------------------------------------------------------------------
# result contract
# ---------------------------------------------------------------------------


def test_selection_result_fields():
    res = select_fdr_stepup(np.array([0.02, 0.6]), theta=0.1)
    assert isinstance(res, SelectionResult)
    assert res.decisions.dtype.kind == "i"
    assert res.k == 1
    assert res.threshold == 0.1
    assert res.conditional_fdr == pytest.approx(0.02)
    assert res.conditional_fnr == pytest.approx(0.4)
