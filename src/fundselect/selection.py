"""Selection rules on posterior probabilities and classical p-values.

Two families live here. The posterior rules consume d-values (or their
mirror for unskilled funds): a loss-optimal rule for a given false-positive /
false-negative tradeoff, and a step-up rule that caps the conditional FDR at a
level theta. The classical baselines consume one-sided p-values from the
z statistics: Benjamini-Hochberg and its adaptive (null-fraction estimating)
variant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError

# Storey's null-fraction tuning point (Storey 2002): p-values above it are
# taken to come from nulls.
STOREY_LAMBDA = 0.5


@dataclass(eq=False)
class SelectionResult:
    """A 0/1 decision vector plus the realized conditional error rates."""

    decisions: np.ndarray  # 0/1 ints, one per unit
    k: int
    threshold: float  # the theta or lambda the rule ran at
    conditional_fdr: float
    conditional_fnr: float


def _as_prob_vector(values, name: str) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise DataError(f"{name} must be a nonempty 1-d vector")
    if np.any(~np.isfinite(v)) or np.any(v < 0.0) or np.any(v > 1.0):
        raise DataError(f"{name} must lie in [0, 1]")
    return v


def _result_from_sorted(values, order, k, threshold) -> SelectionResult:
    p = values.size
    decisions = np.zeros(p, dtype=int)
    decisions[order[:k]] = 1
    sorted_v = values[order]
    if k >= 1:
        cond_fdr = float(np.mean(sorted_v[:k]))
    else:
        cond_fdr = 0.0
    if k < p:
        cond_fnr = float(1.0 - np.mean(sorted_v[k:]))
    else:
        cond_fnr = 0.0
    return SelectionResult(
        decisions=decisions,
        k=int(k),
        threshold=float(threshold),
        conditional_fdr=cond_fdr,
        conditional_fnr=cond_fnr,
    )


def optimal_decision(dvalues, lam: float) -> SelectionResult:
    """Minimize expected (false discovery rate + lam * false omission-style
    miss rate) over the nested family of keep-the-smallest-j rules.

    Evaluates the posterior loss at every cut j = 0..p over the ascending
    d-values (0/0 = 0 at the endpoints) and returns the first minimizer.
    """
    d = _as_prob_vector(dvalues, "dvalues")
    if lam <= 0.0:
        raise DataError("lambda must be positive")
    p = d.size
    order = np.argsort(d, kind="stable")
    sorted_d = d[order]
    prefix = np.concatenate([[0.0], np.cumsum(sorted_d)])  # prefix[j] = sum of j smallest
    total = prefix[-1]

    js = np.arange(p + 1)
    with np.errstate(invalid="ignore", divide="ignore"):
        miss = ((p - js) - (total - prefix)) / (p - js)  # mean skill mass left behind
        false = lam * prefix / js
    miss[p] = 0.0
    false[0] = 0.0
    loss = miss + false
    j_star = int(np.argmin(loss))  # first minimum wins ties
    return _result_from_sorted(d, order, j_star, lam)


def _stepup_core(values: np.ndarray, theta: float) -> tuple[np.ndarray, int]:
    p = values.size
    order = np.argsort(values, kind="stable")
    sorted_v = values[order]
    running_mean = np.cumsum(sorted_v) / np.arange(1, p + 1)
    feasible = np.nonzero(running_mean <= theta)[0]
    if feasible.size == 0:
        return order, 0
    k = int(feasible[-1]) + 1
    # k - 1 is the last cut that passes, so a tie across it cannot be taken
    # whole: retreat to the largest cut that splits no tie and still passes.
    while 0 < k < p and sorted_v[k - 1] == sorted_v[k]:
        k -= 1
    while k > 0 and running_mean[k - 1] > theta:
        k -= 1
    return order, k


def _stepup_select(values, name: str, theta: float) -> SelectionResult:
    v = _as_prob_vector(values, name)
    if not 0.0 < theta < 1.0:
        raise DataError("theta must lie in (0, 1)")
    order, k = _stepup_core(v, theta)
    return _result_from_sorted(v, order, k, theta)


def select_fdr_stepup(dvalues, theta: float) -> SelectionResult:
    """Largest selection whose average selected d-value stays within theta."""
    return _stepup_select(dvalues, "dvalues", theta)


def select_unskilled(los, theta: float) -> SelectionResult:
    """Same step-up rule applied to the mirror posteriors (P(mu >= 0 | Z))."""
    return _stepup_select(los, "los", theta)


def one_sided_pvalues(z) -> np.ndarray:
    """Upper-tail p-values 1 - Phi(z) = erfc(z / sqrt(2)) / 2 for 'skilled
    means positive' nulls.

    `math.erfc`, one element at a time, keeps the relative accuracy of the
    far upper tail (z = 37 gives ~6e-300) without loading `scipy.special`;
    numpy has no erf, and a p-value vector costs milliseconds this way.
    """
    zv = np.asarray(z, dtype=float)
    half = math.sqrt(0.5)
    return np.array([0.5 * math.erfc(v * half) for v in zv.ravel().tolist()]).reshape(zv.shape)


def _baseline_pvalues(z, theta: float) -> np.ndarray:
    zv = np.asarray(z, dtype=float)
    if zv.ndim != 1 or zv.size == 0:
        raise DataError("z must be a nonempty 1-d vector")
    if not 0.0 < theta < 1.0:
        raise DataError("theta must lie in (0, 1)")
    return one_sided_pvalues(zv)


def _bh_result(pvals: np.ndarray, level: float, theta: float) -> SelectionResult:
    """BH step-up on `pvals` at `level`, reported at the requested `theta`."""
    p = pvals.size
    order = np.argsort(pvals, kind="stable")
    thresholds = level * np.arange(1, p + 1) / p
    passing = np.nonzero(pvals[order] <= thresholds)[0]
    k = int(passing[-1]) + 1 if passing.size else 0
    decisions = np.zeros(p, dtype=int)
    decisions[order[:k]] = 1
    return SelectionResult(
        decisions=decisions,
        k=k,
        threshold=float(theta),
        conditional_fdr=float("nan"),
        conditional_fnr=float("nan"),
    )


def bh_select(z, theta: float) -> SelectionResult:
    """Benjamini-Hochberg at level theta on one-sided p-values from z."""
    return _bh_result(_baseline_pvalues(z, theta), theta, theta)


def storey_select(z, theta: float) -> SelectionResult:
    """Adaptive BH: estimate the null fraction from p-values above
    STOREY_LAMBDA, then run BH at theta divided by that estimate."""
    pvals = _baseline_pvalues(z, theta)
    pi0_hat = np.sum(pvals > STOREY_LAMBDA) / ((1.0 - STOREY_LAMBDA) * pvals.size)
    pi0_hat = min(float(pi0_hat), 1.0)
    level = theta / pi0_hat if pi0_hat > 0.0 else 1.0
    return _bh_result(pvals, min(level, 1.0), theta)
