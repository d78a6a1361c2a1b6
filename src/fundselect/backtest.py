"""Rolling annual re-selection backtest."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dependence import build_dependence
from .dvalues import compute_dvalues
from .errors import ConfigError, DataError, FitFailedError
from .mixture import FitDiagnostics, GridConfig, fit_mixture
from .panel import (ReturnTable, _parse_factors_csv, _parse_monthly_csv, _parse_returns_csv,
                    assemble_window, carhart_fit)
from .pool import map_jobs
from .selection import bh_select, select_fdr_stepup, storey_select
from .streams import substream

STRATEGIES = ("dvalue", "bh", "storey")


@dataclass(frozen=True)
class BacktestConfig:
    start_year: int
    end_year: int
    window_years: int = 10
    theta: float = 0.15
    fallback: str = "hold-cash"
    benchmark_csv: str | None = None
    n_samples: int = 2000
    grids: GridConfig | None = None

    def __post_init__(self) -> None:
        if self.window_years < 1:
            raise ConfigError(f"window_years must be >= 1, got {self.window_years}")
        if not 0.0 < self.theta < 1.0:
            raise ConfigError(f"theta must be in (0, 1), got {self.theta}")
        if self.end_year < self.start_year:
            raise ConfigError(
                f"end_year {self.end_year} precedes start_year {self.start_year}"
            )
        if self.fallback not in ("hold-cash", "hold-index"):
            raise ConfigError(
                f"fallback must be 'hold-cash' or 'hold-index', got {self.fallback!r}"
            )
        if self.fallback == "hold-index" and self.benchmark_csv is None:
            raise ConfigError("fallback 'hold-index' requires benchmark_csv")


@dataclass
class PortfolioTrack:
    """Year-end portfolio values per strategy, plus what was held each year
    and how each year's mixture fit went (`_year_holdings`).

    `annualized` is the geometric mean yearly return ``(last / first) **
    (1 / years) - 1``. A track that ends at or below zero has lost everything
    (a negative ratio has no real root), so its annualized return is -1.0.
    """

    years: list[int]
    values: dict[str, list[float]]  # strategy -> [initial, end-of-year-1, ...]
    selections: dict[str, dict[int, list[str]]]
    annualized: dict[str, float] = field(init=False, default_factory=dict)
    fits: dict[int, dict] = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = len(self.years)
        for name, track in self.values.items():
            if len(track) != n + 1:
                raise DataError(f"track {name!r} has {len(track)} values for {n} years")
            ratio = track[-1] / track[0]
            self.annualized[name] = ratio ** (1.0 / n) - 1.0 if ratio > 0.0 else -1.0


def _parse_benchmark_csv(path: str) -> dict[str, float]:
    """Read the benchmark file (``date,ret``) into {date: ret}."""
    out = {date: vals[0] for date, vals in _parse_monthly_csv(path, ("ret",)).items()}
    if not out:
        raise DataError(f"{path}: no benchmark rows")
    return out


def _month_return(
    held: list[str],
    month: str,
    table: ReturnTable,
    benchmark: dict[str, float] | None,
    fallback: str,
) -> float:
    """Equal-weight return of the held funds for one month, read off the
    month's row of the returns table.

    A fund missing the month (no row, or the 0.0 missing-data sentinel) drops
    out with the weight renormalized over the rest; an empty book falls back
    to cash or to the benchmark.
    """
    t = table.row_of.get(month)
    if t is not None:
        rets = table.matrix[t, [table.col_of[fund] for fund in held]]
        rets = rets[~np.isnan(rets) & (rets != 0.0)]
        if rets.size:
            return float(np.mean(rets))
    if fallback == "hold-cash":
        return 0.0
    if month not in benchmark:
        raise DataError(f"benchmark series missing month {month}")
    return benchmark[month]


def _year_holdings(job) -> tuple[dict[str, list[str]], dict]:
    """Fund ids per strategy for one holding year: window -> `carhart_fit` ->
    dependence -> fit -> d-values -> selections, seeded by (seed, year) alone;
    and the year's fit record: its status (`fit`, or `refused` when no grid
    point is feasible), the fit surface (`FitDiagnostics.surface`), the
    dependence model's factor count `l` and the d-values' effective sample
    size `ess` (None in a refused year)."""
    table, by_date, config, seed, year = job
    window = (f"{year - config.window_years}-01", f"{year - 1}-12")
    panel, factors, _log = assemble_window(table, by_date, window)
    estimates = carhart_fit(panel, factors)
    dep = build_dependence(estimates, panel)
    fit_seed = int(substream(seed, "backtest-fit", year).integers(2**63))
    try:
        params, diag = fit_mixture(
            estimates.z, dep, grids=config.grids, seed=fit_seed
        )
    except FitFailedError as exc:
        # A window where no grid point admits a valid moment solution gives
        # no usable skill prior, so the posterior strategy has no evidence
        # to act on: it holds nothing that year and the fallback applies.
        # The p-value strategies need only the statistics and still run.
        dvalue_ids: list[str] = []
        fit = {"status": "refused", **FitDiagnostics.refused_surface(exc.trace),
               "l": dep.l, "ess": None}
    else:
        dv_seed = int(substream(seed, "backtest-dv", year).integers(2**63))
        report = compute_dvalues(
            estimates.z, dep, params, n_samples=config.n_samples, seed=dv_seed
        )
        fit = {"status": "fit", **diag.surface(), "l": dep.l, "ess": report.ess}
        res = select_fdr_stepup(report.d, config.theta)
        dvalue_ids = [estimates.fund_ids[i] for i in np.flatnonzero(res.decisions)]

    picked = {
        "bh": bh_select(estimates.z, config.theta),
        "storey": storey_select(estimates.z, config.theta),
    }
    holdings = {
        name: [estimates.fund_ids[i] for i in np.flatnonzero(res.decisions)]
        for name, res in picked.items()
    }
    holdings["dvalue"] = dvalue_ids
    holdings["index"] = []
    return holdings, fit


def run_backtest(
    returns_csv: str,
    factors_csv: str,
    config: BacktestConfig,
    seed: int = 0,
    workers: int = 1,
) -> PortfolioTrack:
    """Re-select funds each January from the trailing window, hold equal-weight
    for the calendar year, and compound monthly.

    For holding year y the estimation window is the `window_years` calendar
    years ending in December of y-1.  Selection at level theta runs once per
    strategy (posterior step-up, BH, Storey); an `index` track, an empty
    book that always falls back to the benchmark, is added when a benchmark
    file is configured. The years' holdings run through `pool.map_jobs` on
    at most `workers` processes (the first failing year raises); the
    compounding runs here, year by year. Each job carries the returns table
    (`panel.ReturnTable`: the month x fund matrix and its two axes), so a
    worker receives one array, and each month's compounding reads one row
    of it.
    """
    table = _parse_returns_csv(returns_csv)
    by_date = _parse_factors_csv(factors_csv)
    benchmark = (
        _parse_benchmark_csv(config.benchmark_csv) if config.benchmark_csv else None
    )

    years = list(range(config.start_year, config.end_year + 1))
    tracks = list(STRATEGIES) + (["index"] if benchmark is not None else [])
    values: dict[str, list[float]] = {t: [1.0] for t in tracks}
    selections: dict[str, dict[int, list[str]]] = {t: {} for t in tracks}

    held_months = {y: [d for d in (f"{y}-{m:02d}" for m in range(1, 13)) if d in by_date]
                   for y in years}
    for year in years:
        if not held_months[year]:
            raise DataError(f"factor series has no months in holding year {year}")

    jobs = [(table, by_date, config, seed, year) for year in years]
    fits = {}
    for year, (holdings, fit) in zip(years, map_jobs(_year_holdings, jobs, workers)):
        fits[year] = fit
        for name in tracks:
            fallback = "hold-index" if name == "index" else config.fallback
            selections[name][year] = holdings[name]
            value = values[name][-1]
            for month in held_months[year]:
                value *= 1.0 + _month_return(
                    holdings[name], month, table, benchmark, fallback
                )
            values[name].append(value)

    return PortfolioTrack(years=years, values=values, selections=selections, fits=fits)

