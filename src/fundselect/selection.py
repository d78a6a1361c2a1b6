"""Selection rules on posterior probabilities and classical p-values.

Two families live here. The posterior rules consume d-values (or their
mirror for unskilled funds): a loss-optimal rule for a given false-positive /
false-negative tradeoff, and a step-up rule that caps the conditional FDR at a
level theta. The classical baselines consume one-sided p-values from the
z statistics: Benjamini-Hochberg and its adaptive (null-fraction estimating)
variant. `rank_compare` contrasts the top funds by d-value with the top funds
by p-value.
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


# Cephes' ndtr.c rational approximations, coefficients from the highest power
# down: erf(x) = x T(x^2) / U(x^2) for |x| < 1, and exp(x^2) erfc(x) = P(x) / Q(x)
# for 1 <= x < 8 and R(x) / S(x) beyond.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_SQRT_HALF = math.sqrt(0.5)
_SQUARE_STEP = 1.0 / 128.0  # |x| rounded to a multiple of this squares exactly
_TAIL_CLIP = 40.0  # |q| past which Phi(-q) is exactly 0 or 1 in doubles


def _horner(x, coefs):
    """coefs[0] x^n + ... + coefs[n] on one new array, in place; a leading 1
    costs no product."""
    if coefs[0] == 1.0:
        out = x + coefs[1]
    else:
        out = x * coefs[0]
        out += coefs[1]
    for c in coefs[2:]:
        out *= x
        out += c
    return out


def _rational(x, num, den):
    """num(x) / den(x), on one new array."""
    out = _horner(x, num)
    out /= _horner(x, den)
    return out


def _scaled_erfc(ax):
    """exp(x^2) erfc(x) at x = ax >= 1 (or NaN): P/Q below 8, R/S from 8 on,
    each on its own elements only."""
    big = ax >= 8.0
    if not big.any():
        return _rational(ax, _ERFC_P, _ERFC_Q)
    out = np.empty_like(ax)
    mid, big = np.flatnonzero(~big), np.flatnonzero(big)
    out[mid] = _rational(ax.take(mid), _ERFC_P, _ERFC_Q)
    out[big] = _rational(ax.take(big), _ERFC_R, _ERFC_S)
    return out


def _normal_tail(q) -> np.ndarray:
    """Phi(-q) = erfc(x) / 2 with x = q / sqrt(2), elementwise, for any shape.

    The flat input splits by |x| < 1, and each element runs one Cephes
    branch on a compacted array: 1/2 - erf(x)/2 below, else the tail
    erfc(|x|) / 2, or its complement for x < 0. The tail multiplies
    exp(x^2) erfc(x) by exp(-x^2) = exp(m^2 - x^2) exp(-m^2), where m is |x|
    rounded to a multiple of 1/128, as Cephes' expx2 does: m^2 is exact and
    m^2 - x^2 = (m - |x|)(m + |x|) is small, so rounding x^2 costs no relative
    accuracy far in the tail. Past |q| = 40 the tail is 0 (Phi(-q) underflows
    from q ~ 37.5 on); NaN takes the tail branch and stays NaN. The split
    gathers and scatters by index: a boolean mask with the branches mixed
    costs several times as much per element.
    """
    shape = np.shape(q)
    x = np.clip(np.asarray(q, dtype=float).reshape(-1), -_TAIL_CLIP, _TAIL_CLIP)
    x *= _SQRT_HALF
    ax = np.abs(x)
    near = ax < 1.0
    out = np.empty_like(x)

    idx = np.flatnonzero(near)
    xn = x.take(idx)
    z = xn * xn
    erf = _horner(z, _ERF_T)
    erf *= xn
    erf /= _horner(z, _ERF_U)
    erf *= -0.5
    erf += 0.5
    out[idx] = erf

    idx = np.flatnonzero(~near)
    ax = ax.take(idx)
    tail = _scaled_erfc(ax)
    m = np.rint(ax * (1.0 / _SQUARE_STEP))
    m *= _SQUARE_STEP
    rest = m - ax  # exact
    rest *= m + ax  # m^2 - x^2, to an ulp or two
    tail *= 0.5
    tail *= np.exp(rest, out=rest)
    m *= m
    tail *= np.exp(np.negative(m, out=m), out=m)
    out[idx] = tail
    below = np.flatnonzero(x <= -1.0)  # the tail's elements with x < 0
    out[below] = 1.0 - out[below]
    return out.reshape(shape)


def one_sided_pvalues(z) -> np.ndarray:
    """Upper-tail p-values 1 - Phi(z) = erfc(z / sqrt(2)) / 2 for 'skilled
    means positive' nulls, to full relative accuracy far into the upper tail
    (z = 37 gives ~6e-300)."""
    return _normal_tail(z)


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


def rank_compare(
    z: np.ndarray,
    dvalues: np.ndarray,
    pvalues: np.ndarray,
    top_n: int = 50,
) -> dict:
    """Contrast the `top_n` funds by posterior d-value with the `top_n` by
    one-sided p-value, dropping the overlap from both sides.

    Returns per-group index lists and summary statistics of each metric inside
    each disagreement group.
    """
    z = np.asarray(z, dtype=float)
    dvalues = np.asarray(dvalues, dtype=float)
    pvalues = np.asarray(pvalues, dtype=float)
    p = z.shape[0]
    if dvalues.shape != (p,) or pvalues.shape != (p,):
        raise DataError("z, dvalues, pvalues must share one length")
    if not 1 <= top_n <= p:
        raise DataError(f"top_n must be in [1, {p}], got {top_n}")

    by_d = np.argsort(dvalues, kind="stable")[:top_n]
    by_p = np.argsort(pvalues, kind="stable")[:top_n]
    shared = set(by_d.tolist()) & set(by_p.tolist())
    d_only = [int(i) for i in by_d if int(i) not in shared]
    p_only = [int(i) for i in by_p if int(i) not in shared]

    def _stats(idx: list[int]) -> dict:
        if not idx:
            return {"n": 0}
        sub_d = dvalues[idx]
        sub_p = pvalues[idx]
        sub_z = z[idx]
        return {
            "n": len(idx),
            "d_median": float(np.median(sub_d)),
            "d_min": float(sub_d.min()),
            "d_max": float(sub_d.max()),
            "p_median": float(np.median(sub_p)),
            "p_min": float(sub_p.min()),
            "p_max": float(sub_p.max()),
            "z_median": float(np.median(sub_z)),
        }

    return {
        "top_n": top_n,
        "overlap": sorted(int(i) for i in shared),
        "d_only": d_only,
        "p_only": p_only,
        "d_only_stats": _stats(d_only),
        "p_only_stats": _stats(p_only),
    }
