"""Posterior probabilities of non-skill (d-values) under the fitted model.

Conditional on the common-factor vector W ~ N(0, I), the statistics decouple:
Z_i | W ~ N(mu_i + b_i W, lambda_p) with mu_i from the mixture prior. The
posterior P(mu_i <= 0 | Z) is therefore a posterior expectation over W of a
ratio of one-dimensional Gaussian masses, estimated by self-normalized
importance sampling. The companion quantity ("los") is P(mu_i >= 0 | Z); with
a strictly negative spike the two sum to one exactly.

The posterior of W is far narrower than its prior once p is large (its sd
shrinks like 1/sqrt(p)) and can have several modes, so draws from the prior
would leave a single effective sample. The proposal is instead centred on the
posterior's modes: damped Newton ascent on the exact log-posterior, whose
gradient and Hessian follow in closed form from the per-fund mixture density,
runs from W = 0 and from the best few of a batch of prior draws; each distinct
mode contributes one multivariate-t component (5 degrees of freedom, 1.2x the
inverse-Hessian scale) weighted by its Laplace evidence. With no factors
(rank 0) the posterior needs no sampling and every draw carries equal weight.

One max-shift kernel gives every density: with c_c = log pi_c + log
N(dev; mean_c, var_c) for the spike and both slabs and top = max c,
e_c = exp(c_c - top) and log f = log(e0 + e1 + e2) + top feed the importance
weights and the mode search, and a posterior ratio is linear,
sum_c e_c P_c(half) / sum_c e_c, with each slab's half probabilities from one
normal tail, `selection._normal_tail` (NumPy alone: the package imports no
SciPy). `local_fdr` is the same chain at unit noise without factors, and a
closed-form mass is a component's joint density times its half probability.

For each block of draws the factor contribution B W is one matrix product;
the elementwise chain that follows (component log densities, half
probabilities, posterior ratios) then runs on tiles of `_TILE_ROWS` funds, so
its temporaries stay in cache. Every element goes through the same
operations as on the whole block, and the sums over funds and draws still run
on full (p, draws) arrays, so the results do not depend on the tile height,
bit for bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dependence import DependenceModel
from .errors import DataError, NumericalError
from .mixture import MixtureParams
from .selection import _normal_tail
from .streams import substream

ESS_WARN_THRESHOLD = 50.0
_LOG_2PI = math.log(2.0 * math.pi)
_BLOCK_SIZE = 256  # factor draws per block, in the sampler and the mode screen
_TILE_ROWS = 64  # funds per tile of a block's elementwise work (64 x 256 doubles: 128 KiB)

# posterior-mode search and proposal shape
_SCREEN_DRAWS = 2000  # prior draws screened for Newton starting points
_SCREEN_STARTS = 8  # best screened draws used as starts, besides W = 0
_NEWTON_MAX_ITER = 100
_NEWTON_TOL = 1e-18  # stop once the Newton decrement g' A^-1 g falls below
_QUADRATIC_REGION = 1e-6  # decrement below which full steps skip the line search
_SAME_MODE = 0.1  # modes closer than this many posterior sds are one mode
_T_DF = 5.0
_T_SCALE = 1.2


@dataclass(eq=False)
class DValueReport:
    """Monte Carlo posterior summaries for each fund."""

    d: np.ndarray
    los: np.ndarray
    ess: float
    n_samples: int
    seed: int


def _posterior_q(dev, mu0, tau_sq, noise_var):
    """q = beta / sqrt(sig_sq), where N(beta, sig_sq) is the posterior of mu ~
    N(mu0, tau_sq) given x = mu + N(0, noise_var) = dev: P(mu <= 0 | x) = Phi(-q)."""
    sig_sq = noise_var * tau_sq / (tau_sq + noise_var)
    beta = sig_sq * (dev / noise_var + mu0 / tau_sq)
    return beta / np.sqrt(sig_sq)


def _half_probabilities(dev, mu0, tau_sq, noise_var):
    """P(mu <= 0 | x = dev) and P(mu >= 0 | x = dev): the smaller half is one
    normal tail, Phi(-|q|), the larger its complement."""
    q = _posterior_q(dev, mu0, tau_sq, noise_var)
    small = _normal_tail(np.abs(q))
    large, up = 1.0 - small, q > 0.0
    return np.where(up, small, large), np.where(up, large, small)


def _log_weight(pi):
    return np.log(pi) if pi > 0.0 else -np.inf


def _components(params: MixtureParams, noise_var: float):
    """(log weight, mean, variance) of the spike and both slabs in the law of a
    statistic with noise variance `noise_var`."""
    return (
        (_log_weight(params.pi0), params.nu0, noise_var),
        (_log_weight(params.pi1), params.nu1, params.tau1_sq + noise_var),
        (_log_weight(params.pi2), params.nu2, params.tau2_sq + noise_var),
    )


def _component_logs(dev, comps):
    """log pi_c + log N(dev; mean_c, var_c) for each component."""
    # deviations beyond ~1e154 square to inf; the resulting -inf log
    # density is exactly right, so silence the benign overflow signal
    with np.errstate(over="ignore"):
        return [
            lw + (-0.5 * (_LOG_2PI + math.log(var)) - (dev - mean) ** 2 / (2.0 * var))
            for lw, mean, var in comps
        ]


def _shifted_weights(logs):
    """e_c = exp(c_c - top) for the three component logs, written over them,
    their total and log f = log(total) + top, where top = max_c c_c, or 0
    where every c_c is -inf (there total = 0 and log f = -inf)."""
    top = np.maximum(np.maximum(logs[0], logs[1]), logs[2])
    top[~np.isfinite(top)] = 0.0
    e = [np.exp(np.subtract(c, top, out=c), out=c) for c in logs]
    total = e[0] + e[1]
    total += e[2]
    with np.errstate(divide="ignore"):
        logf = np.log(total)
    logf += top
    return e, total, logf


def _component_masses(mu0, tau_sq, lambda_p, shift, z):
    """The component's joint density at z times its two half probabilities."""
    if tau_sq <= 0.0 or lambda_p <= 0.0:
        raise DataError("variances must be positive")
    dev = np.float64(z - shift)  # squares to inf, not OverflowError, beyond ~1e154
    (log_joint,) = _component_logs(dev, ((0.0, mu0, tau_sq + lambda_p),))
    neg, pos = _half_probabilities(dev, mu0, tau_sq, lambda_p)
    return math.exp(log_joint) * neg, math.exp(log_joint) * pos


def component_mass_nonpositive(mu0, tau_sq, lambda_p, shift, z) -> float:
    """Joint density mass of {statistic = z, component mean <= 0} for one
    Gaussian prior component N(mu0, tau_sq), given factor contribution `shift`."""
    return float(_component_masses(mu0, tau_sq, lambda_p, shift, z)[0])


def component_mass_nonnegative(mu0, tau_sq, lambda_p, shift, z) -> float:
    """Complementary mass over nonnegative component means."""
    return float(_component_masses(mu0, tau_sq, lambda_p, shift, z)[1])


def _tiled_log_density(dev, comps):
    """log f(dev) for the spike-and-slab mixture, one tile of funds at a time."""
    logf = np.empty_like(dev)
    for start in range(0, dev.shape[0], _TILE_ROWS):
        rows = slice(start, start + _TILE_ROWS)
        logf[rows] = _shifted_weights(_component_logs(dev[rows], comps))[2]
    return logf


def _tile_ratios(dev, comps, params, lam):
    """log f(dev), P(mu <= 0 | dev) and P(mu >= 0 | dev) for one tile of funds
    (rows of dev) at noise variance `lam`; the ratios are 0 where f(dev) = 0."""
    (e0, e1, e2), total, logf = _shifted_weights(_component_logs(dev, comps))
    neg1, pos1 = _half_probabilities(dev, params.nu1, params.tau1_sq, lam)
    neg2, pos2 = _half_probabilities(dev, params.nu2, params.tau2_sq, lam)
    with np.errstate(invalid="ignore"):
        ratio_d = (e0 + e1 * neg1 + e2 * neg2) / total
        ratio_los = ((params.nu0 == 0.0) * e0 + e1 * pos1 + e2 * pos2) / total
    dead = ~np.isfinite(logf)
    ratio_d[dead] = 0.0
    ratio_los[dead] = 0.0
    return logf, ratio_d, ratio_los


def _log_posterior(w, z, B, comps):
    """Unnormalized log-posterior of the factor vector with its gradient and
    Hessian, from the closed-form score of each fund's mixture density."""
    dev = z - B @ w
    logs = _component_logs(dev, comps)
    logf = _shifted_weights([lc.copy() for lc in logs])[2]
    value = float(logf.sum() - 0.5 * (w @ w))
    # far from the data the score terms overflow; such points have zero
    # density, and callers look at their value only
    with np.errstate(over="ignore", invalid="ignore"):
        resp = [np.exp(lc - logf) for lc in logs]
        scores = [-(dev - mean) / var for _, mean, var in comps]
        d1 = sum(r * s for r, s in zip(resp, scores))  # (log f)'
        d2 = sum(r * (s * s - 1.0 / var) for r, s, (_, _, var) in zip(resp, scores, comps))
        d2 = d2 - d1 * d1  # (log f)''
        grad = -w - B.T @ d1
        hess = (B.T * d2) @ B - np.eye(w.size)
    return value, grad, hess


def _precision_factor(a):
    """Lower Cholesky factor of the symmetric matrix a; where a is not positive
    definite, its eigenvalues below the prior precision are lifted to it."""
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(a)
        return np.linalg.cholesky((vecs * np.maximum(vals, 1.0)) @ vecs.T)


def _newton_ascent(w, z, B, comps):
    """Damped Newton ascent to a local posterior mode; None from a start of
    zero posterior density. Returns (mode, log-posterior, precision factor)."""
    value, grad, hess = _log_posterior(w, z, B, comps)
    if not np.isfinite(value):
        return None
    for _ in range(_NEWTON_MAX_ITER):
        factor = _precision_factor(-hess)
        step = np.linalg.solve(factor.T, np.linalg.solve(factor, grad))
        decrement = float(grad @ step)
        if not decrement > _NEWTON_TOL:
            break
        t = 1.0
        while True:
            trial = _log_posterior(w + t * step, z, B, comps)
            if trial[0] >= value + 0.25 * t * decrement or (
                decrement < _QUADRATIC_REGION and np.isfinite(trial[0])
            ):
                break
            t *= 0.5
            if t < 1e-10:
                trial = None
                break
        if trial is None:
            break
        w = w + t * step
        value, grad, hess = trial
    return w, value, _precision_factor(-hess)


def _posterior_modes(z, B, comps, seed):
    """Distinct local modes of the factor posterior, each with its log-posterior
    and the Cholesky factor of its negative Hessian.

    Starts are W = 0 and the best `_SCREEN_STARTS` of `_SCREEN_DRAWS` prior
    draws from the substream (seed, "dvalues", "modes"), screened in blocks.
    """
    rank = B.shape[1]
    rng = substream(seed, "dvalues", "modes")
    screen = rng.standard_normal((rank, _SCREEN_DRAWS))
    logpost = np.concatenate([
        _tiled_log_density(z[:, None] - B @ blk, comps).sum(axis=0)
        - 0.5 * np.sum(blk * blk, axis=0)
        for blk in np.split(screen, range(_BLOCK_SIZE, _SCREEN_DRAWS, _BLOCK_SIZE), axis=1)
    ])
    order = [j for j in np.argsort(-logpost, kind="stable") if np.isfinite(logpost[j])]
    starts = [np.zeros(rank)] + [screen[:, j] for j in order[:_SCREEN_STARTS]]

    modes = []
    for w0 in starts:
        found = _newton_ascent(w0, z, B, comps)
        if found is None:
            continue
        w = found[0]
        if any(
            np.linalg.norm(factor.T @ (w - mode)) < _SAME_MODE for mode, _, factor in modes
        ):
            continue
        modes.append(found)
    return modes


def _t_log_density(w, mode, factor):
    """Log density at the columns of w of the multivariate t with `_T_DF`
    degrees of freedom, centre `mode` and scale `_T_SCALE`^2 (factor factor')^-1."""
    rank = mode.size
    delta_sq = np.sum((factor.T @ (w - mode[:, None])) ** 2, axis=0) / _T_SCALE**2
    log_det_scale = 2.0 * rank * math.log(_T_SCALE) - 2.0 * float(np.sum(np.log(np.diag(factor))))
    return (
        math.lgamma(0.5 * (_T_DF + rank)) - math.lgamma(0.5 * _T_DF)
        - 0.5 * rank * math.log(_T_DF * math.pi) - 0.5 * log_det_scale
        - 0.5 * (_T_DF + rank) * np.log1p(delta_sq / _T_DF)
    )


def _draw_proposal(rng, nb, modes, log_alpha):
    """nb draws of W from the mode-centred t mixture, with each draw's log of
    prior density over proposal density.

    Draw order: component labels, standard normals (rank x nb), chi-square
    mixing variables.
    """
    rank = modes[0][0].size
    cum = np.cumsum(np.exp(log_alpha))
    comp = np.minimum(np.searchsorted(cum / cum[-1], rng.random(nb), side="right"), len(modes) - 1)
    x = rng.standard_normal((rank, nb))
    mix = np.sqrt(_T_DF / rng.chisquare(_T_DF, nb))
    W = np.empty((rank, nb))
    for k, (mode, _, factor) in enumerate(modes):
        take = comp == k
        W[:, take] = mode[:, None] + _T_SCALE * mix[take] * np.linalg.solve(factor.T, x[:, take])
    log_q = np.logaddexp.reduce(
        [la + _t_log_density(W, mode, factor) for la, (mode, _, factor) in zip(log_alpha, modes)],
        axis=0,
    )
    log_prior = -0.5 * (rank * _LOG_2PI + np.sum(W * W, axis=0))
    return W, log_prior - log_q


def compute_dvalues(
    z: np.ndarray,
    dep: DependenceModel,
    params: MixtureParams,
    n_samples: int = 2000,
    seed: int = 0,
) -> DValueReport:
    """Self-normalized importance-sampling estimate of d = P(mu <= 0 | Z) per fund.

    The proposal is a multivariate-t mixture centred on the posterior modes of
    the factor vector (see the module docstring); the mode search is
    deterministic given `seed`. Factor draws arrive in blocks; block b uses the
    substream (seed, "dvalues", b), so results are independent of how work is
    scheduled and the first draws of a longer run coincide with a shorter
    run's. A warning is issued when the effective sample size drops below 50.
    """
    z = np.asarray(z, dtype=float)
    p = z.size
    if p == 0:
        raise DataError("empty statistic vector")
    if dep.p != p:
        raise DataError("dependence model and statistic vector disagree on p")
    if n_samples < 2:
        raise DataError("n_samples must be >= 2")

    lam = dep.lambda_p
    B = dep.B
    rank = dep.rank
    comps = _components(params, lam)

    if rank:
        modes = _posterior_modes(z, B, comps, seed)
        if not modes:
            # zero posterior density at every start: any proposal will do,
            # and the vanished weights are reported below
            modes = [(np.zeros(rank), 0.0, np.eye(rank))]
        # Laplace evidence of each mode: log-posterior minus half the log
        # determinant of its precision
        log_alpha = np.array(
            [value - float(np.sum(np.log(np.diag(factor)))) for _, value, factor in modes]
        )
        log_alpha -= np.logaddexp.reduce(log_alpha)

    # streaming self-normalized accumulation with a running max
    run_max = -np.inf
    s0 = 0.0
    s2 = 0.0
    sd = np.zeros(p)
    sl = np.zeros(p)
    logf = ratio_d = ratio_los = None  # (p, nb) per block, refilled tile by tile

    n_blocks = (n_samples + _BLOCK_SIZE - 1) // _BLOCK_SIZE
    drawn = 0
    for b in range(n_blocks):
        nb = min(_BLOCK_SIZE, n_samples - drawn)
        drawn += nb
        rng = substream(seed, "dvalues", b)
        if rank:
            W, log_ratio = _draw_proposal(rng, nb, modes, log_alpha)
        else:
            W, log_ratio = np.zeros((0, nb)), np.zeros(nb)
        dev = z[:, None] - (B @ W)  # p x nb : z minus factor contribution
        if logf is None or logf.shape[1] != nb:
            logf, ratio_d, ratio_los = (np.empty((p, nb)) for _ in range(3))
        for start in range(0, p, _TILE_ROWS):
            rows = slice(start, start + _TILE_ROWS)
            logf[rows], ratio_d[rows], ratio_los[rows] = _tile_ratios(
                dev[rows], comps, params, lam)

        lo, hi = float(np.min(ratio_d)), float(np.max(ratio_d))
        if not (lo >= 0.0 and hi <= 1.0 + 1e-9):
            raise NumericalError(
                "posterior probability of mu <= 0 left [0, 1]: it spans "
                f"[{lo!r}, {hi!r}]"
            )
        np.minimum(ratio_d, 1.0, out=ratio_d)
        np.minimum(ratio_los, 1.0, out=ratio_los)

        logw = logf.sum(axis=0) + log_ratio  # nb
        block_max = float(np.max(logw))
        if block_max > run_max:
            if np.isfinite(run_max):
                scale = math.exp(run_max - block_max)
                s0 *= scale
                sd *= scale
                sl *= scale
                s2 *= scale * scale
            run_max = block_max
        if not np.isfinite(run_max):
            continue  # every weight so far is zero
        wex = np.exp(logw - run_max)
        # One summation algorithm for every accumulator: when a posterior
        # ratio is identically 1 (e.g. a pure non-positive spike) the
        # numerator terms equal the denominator terms bit-for-bit, so the
        # final ratio is exactly 1.0 rather than 1 +/- a few ulp.
        s0 += float(wex.sum())
        s2 += float((wex * wex).sum())
        sd += (ratio_d * wex).sum(axis=1)
        sl += (ratio_los * wex).sum(axis=1)

    if not np.isfinite(run_max) or s0 <= 0.0:
        raise NumericalError(
            "all Monte Carlo weights vanished; the data are impossible under "
            f"the supplied model (max log-weight {run_max})"
        )

    d = sd / s0
    los = sl / s0
    ess = s0 * s0 / s2
    if ess < ESS_WARN_THRESHOLD:
        warnings.warn(
            f"effective sample size {ess:.1f} < {ESS_WARN_THRESHOLD:g}; "
            "increase n_samples",
            RuntimeWarning,
            stacklevel=2,
        )
    return DValueReport(d=d, los=los, ess=float(ess), n_samples=n_samples, seed=seed)


def local_fdr(z, params: MixtureParams) -> np.ndarray:
    """Posterior probability of a nonpositive mean under independence (unit
    noise variance, no factor conditioning), 0 where z has zero density.
    Vectorized over z."""
    zv = np.asarray(z, dtype=float)
    out = _tile_ratios(zv.reshape(-1), _components(params, 1.0), params, 1.0)[1]
    out = np.minimum(out, 1.0).reshape(zv.shape)
    return out if out.shape else float(out)
