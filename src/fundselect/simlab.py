"""Synthetic panels with known skill, and the study harness around them.

A study draws true standardized alphas from the reference mixture, plants them
in factor-structured monthly returns, runs the full pipeline (regression,
dependence model, mixture fit, posterior probabilities, selection), and scores
realized false-discovery / false-negative proportions against the truth,
alongside the BH and adaptive-BH baselines. Replications run in parallel with
per-replication substreams, so results do not depend on the worker count.

Worker threads: `map_jobs` starts at most one process per job, up to the
requested workers, and sets every OpenBLAS loaded in each to one thread. The
package imports no SciPy, so that is NumPy's OpenBLAS alone unless a caller
has loaded SciPy's too. With one worker the jobs run in the calling
process, also on one thread, and the caller's thread counts come back
afterwards; the CLI sets its own process the same way when it starts. No
BLAS call in the pipeline gets faster on two threads (the largest, the thin
SVD of the dependence model at p=2000, T=240, takes longer), while a second
thread spins beside every small call, and with as many processes as cores
the threads of different processes spin against each other. The study's
results are the same bits with one worker process or several.
"""

from __future__ import annotations

import ctypes
import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .dependence import build_dependence
from .errors import ConfigError, DataError, FundselectError
from .mixture import GridConfig, MixtureParams, fit_mixture
from .dvalues import compute_dvalues
from .panel import (FACTOR_COLUMNS, MIN_WINDOW_MONTHS, FactorSeries, ReturnPanel,
                    _factor_regression, carhart_fit)
from .selection import bh_select, select_fdr_stepup, storey_select
from .streams import substream

SPARSITY_WEIGHTS = {"s1": (0.1, 0.7, 0.2), "s2": (0.1, 0.2, 0.7)}
DEPENDENCE_KINDS = ("d1", "d2", "d3")

# Reference prior for the true standardized alphas (weights come from the
# sparsity setting).
BASE_NU0 = 0.0
BASE_NU1 = -0.5
BASE_NU2 = 1.2
BASE_TAU1_SQ = 0.1
BASE_TAU2_SQ = 0.1

# Monthly factor moments of typical magnitude for the synthetic series.
_FACTOR_MEANS = (0.006, 0.0002, 0.0002, 0.004)
_FACTOR_SDS = (0.045, 0.030, 0.030, 0.045)
_RF_MONTHLY = 0.002

# Hurst exponent of the d3 design's long-memory base.
FGN_HURST = 0.9


@dataclass(frozen=True)
class SimSetting:
    """One study configuration."""

    p: int
    sparsity: str  # "s1" or "s2"
    dependence: str  # "d1", "d2", or "d3"
    theta: float
    reps: int
    seed: int
    n_months: int = 120

    def __post_init__(self):
        if self.p < 50:
            raise ConfigError(f"p must be >= 50, got {self.p}")
        if self.sparsity not in SPARSITY_WEIGHTS:
            raise ConfigError(f"sparsity must be one of {sorted(SPARSITY_WEIGHTS)}")
        if self.dependence not in DEPENDENCE_KINDS:
            raise ConfigError(f"dependence must be one of {DEPENDENCE_KINDS}")
        if not 0.0 <= self.theta < 1.0:
            raise ConfigError("theta must lie in [0, 1)")
        if self.reps < 1:
            raise ConfigError("reps must be >= 1")
        if self.n_months < MIN_WINDOW_MONTHS:
            raise ConfigError(f"n_months must be >= {MIN_WINDOW_MONTHS}, got {self.n_months}")


@dataclass(eq=False)
class SimMetrics:
    """Aggregated study outcome for one method."""

    method: str
    mean_fdp: float
    mean_fnp: float
    mean_selected: float
    fdp: list[float] = field(default_factory=list)
    fnp: list[float] = field(default_factory=list)
    selected: list[int] = field(default_factory=list)


def true_mixture(sparsity: str) -> MixtureParams:
    pi0, pi1, pi2 = SPARSITY_WEIGHTS[sparsity]
    return MixtureParams(
        pi0=pi0, pi1=pi1, pi2=pi2,
        nu0=BASE_NU0, nu1=BASE_NU1, nu2=BASE_NU2,
        tau1_sq=BASE_TAU1_SQ, tau2_sq=BASE_TAU2_SQ,
    )


def fgn_covariance(p: int) -> np.ndarray:
    """Long-memory banded matrix: M[i, j] depends on the lag k = |i - j| as
    half the second difference of k^(2H), H = FGN_HURST."""
    k = np.abs(np.subtract.outer(np.arange(p), np.arange(p))).astype(float)
    two_h = 2.0 * FGN_HURST
    return 0.5 * ((k + 1.0) ** two_h - 2.0 * k**two_h + np.abs(k - 1.0) ** two_h)


def _cov_to_corr(m: np.ndarray) -> np.ndarray:
    d = np.sqrt(np.diag(m))
    out = m / np.outer(d, d)
    out = 0.5 * (out + out.T)
    np.fill_diagonal(out, 1.0)
    return out


# Each dependence design: its loading draw (from the generator, for p funds)
# and its base matrix.
_DESIGNS = {
    "d1": (lambda rng, p: rng.normal(0.0, 2.0, size=(p, 4)), np.eye),
    "d2": (lambda rng, p: rng.normal(0.0, 2.0, size=(p, 10)),
           lambda p: 0.8 ** np.abs(np.subtract.outer(np.arange(p), np.arange(p)))),
    "d3": (lambda rng, p: rng.uniform(-1.0, 1.0, size=(p, 10)), fgn_covariance),
}


def epsilon_correlation(kind: str, p: int, rng: np.random.Generator) -> np.ndarray:
    """Residual correlation matrix for one of the three dependence designs.

    d1: four N(0, 4) loading columns against an identity base.
    d2: ten N(0, 4) loading columns against a 0.8^|i-j| base.
    d3: ten Uniform(-1, 1) loading columns against a long-memory base.
    """
    if kind not in _DESIGNS:
        raise ConfigError(f"unknown dependence kind {kind!r}")
    loadings, base = _DESIGNS[kind]
    a = loadings(rng, p)
    return _cov_to_corr(a @ a.T + base(p))


def synthetic_factors(n_months: int, rng: np.random.Generator) -> FactorSeries:
    """I.I.D. normal factor draws with typical monthly moments, constant rf."""
    dates = tuple(f"{2000 + i // 12:04d}-{i % 12 + 1:02d}" for i in range(n_months))
    cols = [
        rng.normal(_FACTOR_MEANS[j], _FACTOR_SDS[j], size=n_months)
        for j in range(len(FACTOR_COLUMNS))
    ]
    return FactorSeries(
        dates=dates,
        factors=np.column_stack(cols),
        rf=np.full(n_months, _RF_MONTHLY),
    )


def generate_panel(
    setting: SimSetting,
    rng: np.random.Generator,
    *,
    factors: FactorSeries | None = None,
) -> tuple[ReturnPanel, FactorSeries, np.ndarray]:
    """Draw one synthetic panel; returns (panel, factors, true mu).

    Returns are alpha + factor exposure + correlated residual noise, where
    alpha = mu * sigma, mu comes from the sparsity mixture, betas sit near the
    market and sigma is uniform on [0.1, 0.5]. Residual sds are back-solved so
    the pipeline's estimated alpha s.e. reproduces sigma.
    """
    p = setting.p
    if factors is None:
        factors = synthetic_factors(setting.n_months, substream(setting.seed, "factors"))
    T = factors.factors.shape[0]

    mu = true_mixture(setting.sparsity).draw_means(rng, p)
    betas = rng.normal(loc=np.array([1.0, 0.2, 0.2, 0.2]), scale=0.5, size=(p, 4))
    sigma = rng.uniform(0.1, 0.5, size=p)

    h_norm = float(np.linalg.norm(_factor_regression(factors)[1][0]))
    factor_cov = np.cov(factors.factors, rowvar=False, ddof=1)
    factor_var = np.einsum("ij,jk,ik->i", betas, factor_cov, betas)
    resid_var = np.maximum((sigma / h_norm) ** 2 - factor_var, 1e-6)
    resid_sd = np.sqrt(resid_var)

    # a a' plus a positive-definite base is positive definite
    try:
        chol = np.linalg.cholesky(epsilon_correlation(setting.dependence, p, rng))
    except np.linalg.LinAlgError:
        raise DataError(
            f"residual correlation for {setting.dependence} is not positive definite"
        ) from None

    shocks = rng.standard_normal((T, p)) @ chol.T
    eps = shocks * resid_sd[None, :]
    alpha = mu * sigma
    returns = alpha[None, :] + factors.factors @ betas.T + eps + factors.rf[:, None]

    panel = ReturnPanel(
        dates=factors.dates,
        fund_ids=tuple(f"F{i:05d}" for i in range(p)),
        returns=returns,
    )
    return panel, factors, mu


def planted_panel(
    p: int,
    n_months: int,
    n_planted: int,
    alpha_monthly: float,
    seed: int,
) -> tuple[ReturnPanel, FactorSeries, np.ndarray]:
    """Return-scale panel with a known planted subset; returns (panel,
    factors, planted mask).

    Unlike `generate_panel`, which calibrates alphas in standardized units for
    the replication studies, this builds a panel whose return magnitudes are
    plausible enough to compound: a fixed monthly alpha on `n_planted`
    randomly chosen funds (all others have alpha exactly zero) over
    market-hedged noise. Exposures are kept near zero on purpose — the
    pipeline reads cross-fund dependence off the excess-return covariance, so
    a shared priced factor would be double-counted there while contributing
    nothing to the alpha-estimate noise that covariance stands in for.
    """
    if not 0 <= n_planted <= p:
        raise ConfigError(f"n_planted must be in [0, {p}], got {n_planted}")
    rng = substream(seed, "planted-panel")
    dates = tuple(f"{2000 + i // 12:04d}-{i % 12 + 1:02d}" for i in range(n_months))
    means = (0.005, 0.001, 0.001, 0.002)
    sds = (0.015, 0.008, 0.008, 0.010)
    fac = np.column_stack(
        [rng.normal(means[j], sds[j], size=n_months) for j in range(4)]
    )
    factors = FactorSeries(dates=dates, factors=fac, rf=np.full(n_months, _RF_MONTHLY))

    betas = rng.normal(0.0, 0.05, size=(p, 4))
    resid_sd = rng.uniform(0.006, 0.012, size=p)
    eps = rng.standard_normal((n_months, p)) * resid_sd[None, :]

    planted = np.zeros(p, dtype=bool)
    if n_planted:
        planted[rng.choice(p, size=n_planted, replace=False)] = True
    alpha = np.where(planted, alpha_monthly, 0.0)

    returns = alpha[None, :] + fac @ betas.T + eps + factors.rf[:, None]
    panel = ReturnPanel(
        dates=dates,
        fund_ids=tuple(f"F{i:05d}" for i in range(p)),
        returns=returns,
    )
    return panel, factors, planted


def fdp_fnp(decisions: np.ndarray, mu: np.ndarray) -> tuple[float, float]:
    """Realized false-discovery and false-negative proportions (0/0 = 0)."""
    sel = np.asarray(decisions).astype(bool)
    mu = np.asarray(mu, dtype=float)
    n_sel = int(sel.sum())
    n_unsel = int(sel.size - n_sel)
    fdp = float(np.sum(sel & (mu <= 0.0)) / n_sel) if n_sel else 0.0
    fnp = float(np.sum(~sel & (mu > 0.0)) / n_unsel) if n_unsel else 0.0
    return fdp, fnp


def _run_one_rep(args) -> dict:
    (setting, rep, grids, n_samples, factors) = args
    rng = substream(setting.seed, "rep", rep)
    panel, factors, mu = generate_panel(setting, rng, factors=factors)

    out = {"rep": rep}
    if setting.theta == 0.0:
        # degenerate level: reject nothing, for every method
        zero = np.zeros(setting.p, dtype=int)
        for method in ("dvalue", "bh", "storey"):
            fdp, fnp = fdp_fnp(zero, mu)
            out[method] = {"fdp": fdp, "fnp": fnp, "selected": 0}
        return out

    estimates = carhart_fit(panel, factors)
    dep = build_dependence(estimates, panel)
    params, _ = fit_mixture(
        estimates.z, dep, grids=grids,
        seed=int(substream(setting.seed, "fitseed", rep).integers(2**63)),
    )
    report = compute_dvalues(
        estimates.z, dep, params,
        n_samples=n_samples,
        seed=int(substream(setting.seed, "dvseed", rep).integers(2**63)),
    )

    ours = select_fdr_stepup(report.d, setting.theta)
    bh = bh_select(estimates.z, setting.theta)
    storey = storey_select(estimates.z, setting.theta)
    for method, res in (("dvalue", ours), ("bh", bh), ("storey", storey)):
        fdp, fnp = fdp_fnp(res.decisions, mu)
        out[method] = {"fdp": fdp, "fnp": fnp, "selected": int(res.k)}
    return out


def usable_cores() -> int:
    """Cores this process may run on: its CPU affinity where the platform
    reports one, else every core of the host."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Thread-count entry points of the OpenBLAS builds NumPy and SciPy ship with;
# the builds with 64-bit integers add a suffix, the wheels' builds a prefix.
_OPENBLAS_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads")


def _openblas_thread_controls() -> list[tuple]:
    """(set_num_threads, get_num_threads) of each OpenBLAS library this
    process has already loaded, found by name in /proc/self/maps; empty
    where there is none or the platform has no such file."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _OPENBLAS_SYMBOLS:
            if hasattr(lib, symbol.format("set")):
                setter = getattr(lib, symbol.format("set"))
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter = getattr(lib, symbol.format("get"))
                getter.argtypes, getter.restype = [], ctypes.c_int
                controls.append((setter, getter))
                break
    return controls


def _limit_blas_threads(threads: int) -> None:
    """Run every loaded OpenBLAS on `threads` threads."""
    for set_num_threads, _ in _openblas_thread_controls():
        set_num_threads(threads)


def map_jobs(fn, jobs: list, workers: int, catch: tuple = ()) -> list:
    """[fn(job) for job in jobs], run on min(workers, len(jobs)) processes,
    or in this process when that is at most one; `fn` and each job must
    pickle. Every job runs OpenBLAS on one thread: in this process, the
    caller's thread counts come back when the jobs end, also on an error.
    An exception of a type in `catch` stands in for its job's result; any
    other propagates, the one of the earliest job first."""
    def outcome(call, *args):
        try:
            return call(*args)
        except catch as exc:
            return exc

    processes = min(workers, len(jobs))
    if processes <= 1:
        controls = _openblas_thread_controls()
        before = [get_num_threads() for _, get_num_threads in controls]
        _limit_blas_threads(1)
        try:
            return [outcome(fn, job) for job in jobs]
        finally:
            for (set_num_threads, _), threads in zip(controls, before):
                set_num_threads(threads)
    with ProcessPoolExecutor(max_workers=processes, initializer=_limit_blas_threads,
                             initargs=(1,)) as pool:
        futures = [pool.submit(fn, job) for job in jobs]
        return [outcome(fut.result) for fut in futures]


# What one replication may raise and still count as one failed replication:
# the package's own errors, and a singular or ill-posed numerical step.
_REP_FAILURES = (FundselectError, np.linalg.LinAlgError, ValueError)


def run_sim_study(
    setting: SimSetting,
    *,
    grids: GridConfig | None = None,
    n_samples: int = 2000,
    workers: int = 1,
) -> dict[str, SimMetrics]:
    """Run the replications and aggregate per-method metrics.

    Replication r is fully determined by (setting.seed, r); the factor series
    is drawn once per study. The replications run through `map_jobs` on at
    most `workers` processes (see the module docstring). A replication that
    raises a FundselectError, LinAlgError or ValueError fails; failed
    replications are dropped with a warning as long as they stay under 10% of
    the total.
    """
    factors = synthetic_factors(setting.n_months, substream(setting.seed, "factors"))
    jobs = [(setting, r, grids, n_samples, factors) for r in range(setting.reps)]
    outcomes = map_jobs(_run_one_rep, jobs, workers, catch=_REP_FAILURES)
    results = [out for out in outcomes if not isinstance(out, Exception)]
    failures = [(r, str(out)) for r, out in enumerate(outcomes) if isinstance(out, Exception)]

    if failures:
        if len(failures) >= 0.1 * setting.reps:
            raise DataError(
                f"{len(failures)}/{setting.reps} replications failed; "
                f"first failure (rep {failures[0][0]}): {failures[0][1]}"
            )
        warnings.warn(
            f"dropped {len(failures)} failed replication(s): "
            + ", ".join(str(r) for r, _ in failures),
            RuntimeWarning,
            stacklevel=2,
        )

    out: dict[str, SimMetrics] = {}
    for method in ("dvalue", "bh", "storey"):
        fdp = [res[method]["fdp"] for res in results]
        fnp = [res[method]["fnp"] for res in results]
        sel = [res[method]["selected"] for res in results]
        out[method] = SimMetrics(
            method=method,
            mean_fdp=math.fsum(fdp) / len(fdp),
            mean_fnp=math.fsum(fnp) / len(fnp),
            mean_selected=math.fsum(sel) / len(sel),
            fdp=fdp,
            fnp=fnp,
            selected=sel,
        )
    return out
