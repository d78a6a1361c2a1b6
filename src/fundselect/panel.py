"""Monthly return-panel ingestion and four-factor alpha estimation.

Input files are plain CSV. Fund returns arrive long form (``date,fund_id,ret``,
dates as YYYY-MM); factors arrive wide form (``date,mkt_rf,smb,hml,mom,rf``).
Cleaning keeps only funds with a complete record over the requested window and
drops any fund that reports a return of exactly 0.0 inside it (the usual
missing-value sentinel in survivor databases).

Alphas come from the time-series regression of each fund's excess return on
[1, mkt_rf, smb, hml, mom]. The intercept estimate is a fixed linear functional
of the fund's excess returns, ``alpha_i = h @ y_i``, and the vector ``h`` is
shared by all funds; everything downstream (standard errors, the cross-fund
covariance of the alpha estimates) is built from that single vector.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError

FACTOR_COLUMNS = ("mkt_rf", "smb", "hml", "mom")
MIN_WINDOW_MONTHS = 12  # shortest estimation window a fit accepts
_DATE_RE = re.compile(r"^(\d{4})-(\d{2})$")


def month_index(date: str) -> int:
    """Map 'YYYY-MM' to a single integer month count (gap checks, ranges)."""
    m = _DATE_RE.match(date)
    if m is None:
        raise DataError(f"bad date {date!r}: expected YYYY-MM")
    year, month = int(m.group(1)), int(m.group(2))
    if not 1 <= month <= 12:
        raise DataError(f"bad date {date!r}: month out of range")
    return year * 12 + (month - 1)


def _check_date(date: str, path: str, lineno: int) -> None:
    """month_index's format check, its error prefixed with `path:lineno`."""
    try:
        month_index(date)
    except DataError as exc:
        raise DataError(f"{path}:{lineno}: {exc}") from None


def month_range(start: str, end: str) -> list[str]:
    """All months from start to end inclusive, as YYYY-MM strings."""
    lo, hi = month_index(start), month_index(end)
    if hi < lo:
        raise DataError(f"window {start}..{end} is reversed")
    return [f"{i // 12:04d}-{i % 12 + 1:02d}" for i in range(lo, hi + 1)]


def window_months(start: str, end: str) -> list[str]:
    """month_range of an estimation window of at least MIN_WINDOW_MONTHS."""
    months = month_range(start, end)
    if len(months) < MIN_WINDOW_MONTHS:
        raise DataError(
            f"window {start}..{end} spans {len(months)} months; need >= {MIN_WINDOW_MONTHS}"
        )
    return months


@dataclass(eq=False)
class ReturnPanel:
    """Aligned monthly net returns: a T x p matrix plus its date/fund labels."""

    dates: tuple[str, ...]
    fund_ids: tuple[str, ...]
    returns: np.ndarray  # T x p

    @property
    def n_months(self) -> int:
        return len(self.dates)

    @property
    def n_funds(self) -> int:
        return len(self.fund_ids)


@dataclass(eq=False)
class FactorSeries:
    """Monthly factor returns and the risk-free rate on the same date grid."""

    dates: tuple[str, ...]
    factors: np.ndarray  # T x 4, columns FACTOR_COLUMNS
    rf: np.ndarray  # T


@dataclass(eq=False)
class AlphaEstimates:
    """Per-fund regression output plus the shared intercept extractor h.

    ``alpha_hat[i] == h @ excess_returns[:, i]`` and ``z = alpha_hat / sigma``
    hold by construction. ``sigma`` is the alpha standard error implied by the
    fund's total excess-return variance (i.i.d.-in-time convention).
    """

    fund_ids: tuple[str, ...]
    alpha_hat: np.ndarray  # p
    beta_hat: np.ndarray  # p x 4
    sigma: np.ndarray  # p
    z: np.ndarray  # p
    residuals: np.ndarray  # T x p
    h: np.ndarray  # T
    excess_returns: np.ndarray  # T x p


def _parse_returns_csv(path: str) -> dict[str, dict[str, float]]:
    """Read the long-form returns file into {fund_id: {date: ret}}.

    Fields are CSV (a quoted fund id may hold commas) with surrounding
    whitespace ignored; blank lines are skipped. A fund id must be non-empty
    and on one line, since the CLI writes it into line-per-record outputs.
    A bad field count, fund id, return or a repeated (fund, date) raises
    DataError naming the file and line, as does a bad date. Each distinct
    date text is validated once and every row with it shares one key string;
    each distinct fund id text is checked once.
    """
    by_fund: dict[str, dict[str, float]] = {}
    dates: dict[str, str] = {}  # date field as written -> validated key
    rows_by_field: dict[str, dict[str, float]] = {}  # fund field as written -> its rows
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header[:3]] != ["date", "fund_id", "ret"]:
            raise DataError(f"{path}: expected header 'date,fund_id,ret'")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 3:
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                raise DataError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
            date_s, fund_s, ret_s = row
            date = dates.get(date_s)
            if date is None:
                date = date_s.strip()
                _check_date(date, path, lineno)
                dates[date_s] = date
            fund_rows = rows_by_field.get(fund_s)
            if fund_rows is None:
                fund = fund_s.strip()
                if not fund:
                    raise DataError(f"{path}:{lineno}: empty fund_id")
                if "\n" in fund or "\r" in fund:
                    raise DataError(f"{path}:{lineno}: fund_id {fund!r} spans lines")
                fund_rows = rows_by_field[fund_s] = by_fund.setdefault(fund, {})
            try:
                ret = float(ret_s)
            except ValueError:
                raise DataError(
                    f"{path}:{lineno}: bad return value {ret_s.strip()!r}"
                ) from None
            if not math.isfinite(ret):
                raise DataError(f"{path}:{lineno}: non-finite return")
            if date in fund_rows:
                raise DataError(
                    f"{path}:{lineno}: duplicate row for fund {fund_s.strip()} at {date}"
                )
            fund_rows[date] = ret
    return by_fund


def _parse_monthly_csv(path: str, columns: tuple[str, ...]) -> dict[str, list[float]]:
    """Read a wide-form monthly file (header ``date`` then `columns`) into
    {date: [values]}. Blank lines are skipped. A bad field count, date or
    value, or a repeated month, raises DataError naming the file and line."""
    expected = ["date", *columns]
    out: dict[str, list[float]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header[: len(expected)]] != expected:
            raise DataError(f"{path}: expected header '{','.join(expected)}'")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(expected):
                raise DataError(
                    f"{path}:{lineno}: expected {len(expected)} fields, got {len(row)}"
                )
            date = row[0].strip()
            _check_date(date, path, lineno)
            if date in out:
                raise DataError(f"{path}:{lineno}: duplicate month {date}")
            vals = []
            for name, cell in zip(columns, row[1:]):
                try:
                    val = float(cell)
                except ValueError:
                    raise DataError(
                        f"{path}:{lineno}: non-numeric {name} {cell.strip()!r}"
                    ) from None
                if not math.isfinite(val):
                    raise DataError(f"{path}:{lineno}: non-finite {name}")
                vals.append(val)
            out[date] = vals
    return out


def _parse_factors_csv(path: str) -> dict[str, tuple[np.ndarray, float]]:
    """Read the factor file into {date: (factor row, rf)}."""
    rows = _parse_monthly_csv(path, (*FACTOR_COLUMNS, "rf"))
    return {date: (np.asarray(vals[:4], dtype=float), vals[4]) for date, vals in rows.items()}


def assemble_window(
    by_fund: dict[str, dict[str, float]],
    by_date: dict[str, tuple[np.ndarray, float]],
    window: tuple[str, str],
) -> tuple[ReturnPanel, FactorSeries, dict]:
    """Clean and align already-parsed data over `window`; returns the cleaning
    log as the third element."""
    months = window_months(window[0], window[1])

    missing_factor_months = [m for m in months if m not in by_date]
    if missing_factor_months:
        raise DataError(
            "factor series does not cover the window; "
            f"first missing month {missing_factor_months[0]}"
        )

    dropped_zero: list[str] = []
    dropped_incomplete: list[str] = []
    kept: list[str] = []
    columns: list[np.ndarray] = []
    for fund in sorted(by_fund):
        rows = by_fund[fund]
        vals = [rows.get(m) for m in months]
        if any(v is None for v in vals):
            dropped_incomplete.append(fund)
            continue
        col = np.asarray(vals, dtype=float)
        if np.any(col == 0.0):
            dropped_zero.append(fund)
            continue
        kept.append(fund)
        columns.append(col)

    log = {
        "dropped_zero": dropped_zero,
        "dropped_incomplete": dropped_incomplete,
        "retained": len(kept),
    }
    if not kept:
        raise DataError(
            f"no eligible funds in {window[0]}..{window[1]} "
            f"(dropped {len(dropped_zero)} zero-sentinel, {len(dropped_incomplete)} incomplete)"
        )

    panel = ReturnPanel(
        dates=tuple(months),
        fund_ids=tuple(kept),
        returns=np.column_stack(columns),
    )
    factors = FactorSeries(
        dates=tuple(months),
        factors=np.vstack([by_date[m][0] for m in months]),
        rf=np.asarray([by_date[m][1] for m in months], dtype=float),
    )
    return panel, factors, log


def _check_design_rank(design: np.ndarray) -> None:
    """Raise naming the redundant column if the regression design is singular."""
    names = ("const",) + FACTOR_COLUMNS
    # Scale columns first so the singular-value test is unit-free.
    norms = np.linalg.norm(design, axis=0)
    dead = np.nonzero(norms == 0.0)[0]
    if dead.size:
        raise NumericalError(
            f"regression design is rank deficient: column {names[dead[0]]!r} is zero"
        )
    scaled = design / norms
    svals = np.linalg.svd(scaled, compute_uv=False)
    if svals[-1] > 1e-10 * svals[0]:
        return
    _, _, vt = np.linalg.svd(scaled)
    offender = int(np.argmax(np.abs(vt[-1])))
    raise NumericalError(
        f"regression design is rank deficient: column {names[offender]!r} is redundant"
    )


def _factor_regression(factors: FactorSeries) -> tuple[np.ndarray, np.ndarray]:
    """The regression design [1, factors] (T x 5) and its coefficient
    extractor (5 x T), whose first row is the intercept extractor h; raises
    if the design is singular."""
    design = np.column_stack([np.ones(factors.factors.shape[0]), factors.factors])
    _check_design_rank(design)
    # One solve gives the whole coefficient extractor.
    return design, np.linalg.solve(design.T @ design, design.T)


def carhart_fit(panel: ReturnPanel, factors: FactorSeries) -> AlphaEstimates:
    """Regress each fund's excess return on the four factors plus a constant.

    Returns estimates for every fund, the shared intercept-extractor vector h,
    and alpha standard errors computed from the total variance of the fund's
    excess returns (same convention used to assemble the cross-fund covariance
    of the alpha estimates downstream).
    """
    if panel.dates != factors.dates:
        raise DataError("panel and factor dates are not aligned")
    T = panel.returns.shape[0]
    if T <= 6:
        raise DataError(f"window of {T} months cannot identify 5 coefficients")

    design, extractor = _factor_regression(factors)
    excess = panel.returns - factors.rf[:, None]
    h = extractor[0]
    coefs = extractor @ excess  # 5 x p
    alpha = coefs[0]
    betas = coefs[1:].T  # p x 4
    residuals = excess - design @ coefs

    h_norm = float(np.linalg.norm(h))
    sigma = h_norm * np.std(excess, axis=0, ddof=1)
    degenerate = sigma <= 1e-15 * (1.0 + np.abs(alpha))
    if np.any(degenerate):
        bad = int(np.argmax(degenerate))
        raise NumericalError(
            f"fund {panel.fund_ids[bad]!r} has constant excess returns; alpha s.e. is zero"
        )
    z = alpha / sigma

    return AlphaEstimates(
        fund_ids=panel.fund_ids,
        alpha_hat=alpha,
        beta_hat=betas,
        sigma=sigma,
        z=z,
        residuals=residuals,
        h=h,
        excess_returns=excess,
    )
