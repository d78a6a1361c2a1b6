"""Monthly return-panel ingestion and four-factor alpha estimation.

Input files are plain CSV. Fund returns arrive long form (``date,fund_id,ret``,
dates as YYYY-MM); factors arrive wide form (``date,mkt_rf,smb,hml,mom,rf``).
Cleaning keeps only funds with a complete record over the requested window and
drops any fund that reports a return of exactly 0.0 inside it (the usual
missing-value sentinel in survivor databases).

The returns file is read into a `ReturnTable`: the sorted month axis, the
sorted fund axis and one month x fund float matrix, NaN where the file has no
row (non-finite returns are rejected, so NaN means nothing else). The matrix
is dense, a cell for every fund in every month of the file, so a sparse panel
costs its whole rectangle. The reader takes the file in 64 Ki-character
chunks. Text without a quote is split by `str.split`; from the first chunk
that holds a quote on, `csv.reader` splits the records. Both end a record at
\\r\\n, \\r or \\n, as csv.reader does on a file opened with newline="", and
both feed one validator that works on columns. `assemble_window` cuts a
window out of the matrix by slicing.

Alphas come from the time-series regression of each fund's excess return on
[1, mkt_rf, smb, hml, mom]. The intercept estimate is a fixed linear functional
of the fund's excess returns, ``alpha_i = h @ y_i``, and the vector ``h`` is
shared by all funds; everything downstream (standard errors, the cross-fund
covariance of the alpha estimates) is built from that single vector.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
import re
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError

FACTOR_COLUMNS = ("mkt_rf", "smb", "hml", "mom")
MIN_WINDOW_MONTHS = 12  # shortest estimation window a fit accepts
_DATE_RE = re.compile(r"^(\d{4})-(\d{2})$", re.ASCII)
_CHUNK_CHARS = 1 << 16  # characters the returns reader takes per read
_NOT_SEPARATORS = bytes(b for b in range(256) if b not in b",\n")  # deleted by translate
_CSV_BATCH = 4096  # csv.reader records per batch of the returns reader


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


@contextlib.contextmanager
def open_text(path: str):
    """`path` opened as UTF-8 text for csv.reader (newline=""). Bytes that
    are not UTF-8 raise DataError naming their line: the newlines before the
    first bad byte, plus one."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            with open(path, "rb") as raw:
                data = raw.read()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                line = data.count(b"\n", 0, exc.start) + 1
                raise DataError(f"{path}:{line}: not UTF-8 text") from None
            raise


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


class ReturnTable(Mapping):
    """The long returns file as one dense month x fund matrix.

    `dates` is the sorted month axis (YYYY-MM), `fund_ids` the sorted fund
    axis, and ``matrix[t, j]`` is fund j's return in month t, NaN where the
    file has no row (the reader rejects non-finite returns, so NaN means
    nothing else). The matrix is dense: it holds a cell for every fund in
    every month of the file, 8 bytes each (30,000 funds over 600 months
    take 144 MB). Read as a Mapping, the table is fund_id -> {date: ret}
    over the rows the file has, each inner dict built on access.
    """

    def __init__(self, dates: tuple[str, ...], fund_ids: tuple[str, ...], matrix: np.ndarray):
        self.dates = tuple(dates)
        self.fund_ids = tuple(fund_ids)
        self.matrix = matrix  # len(dates) x len(fund_ids)
        self.row_of = {d: t for t, d in enumerate(self.dates)}
        self.col_of = {f: j for j, f in enumerate(self.fund_ids)}

    def __reduce__(self):  # pickle the axes and the matrix, not the lookups
        return type(self), (self.dates, self.fund_ids, self.matrix)

    def __getitem__(self, fund: str) -> dict[str, float]:
        col = self.matrix[:, self.col_of[fund]]
        rows = np.flatnonzero(~np.isnan(col))
        return dict(zip([self.dates[t] for t in rows], col[rows].tolist()))

    def __iter__(self):
        return iter(self.fund_ids)

    def __len__(self) -> int:
        return len(self.fund_ids)

    def block(self, months: list[str]) -> np.ndarray:
        """The len(months) x funds rows of `months`, all NaN in a month the
        file lacks."""
        at = [self.row_of.get(m) for m in months]
        if None not in at:  # consecutive months of a sorted axis are adjacent rows
            return self.matrix[at[0]:at[-1] + 1]
        gap = np.full(len(self.fund_ids), np.nan)
        return np.vstack([gap if t is None else self.matrix[t] for t in at])


def _screen(nfields: np.ndarray, first_field, first: int):
    """Positions of the 3-field records of a batch, the first on line
    `first`, that precede its first bad record; and that record's (line,
    field count), or None. A record of at most one blank field is a blank
    line and is skipped; `first_field(k)` is record k's first field."""
    blank, stop = [], len(nfields)
    for k in np.flatnonzero(nfields != 3).tolist():
        if nfields[k] > 1 or first_field(k).strip():
            stop = k
            break
        blank.append(k)
    bad = (first + stop, int(nfields[stop])) if stop < len(nfields) else None
    return np.delete(np.arange(stop), blank), bad


def _split_batch(text: str, n: int, first: int):
    """Columns of the `n` quote-free records of `text`, each ended by \\n, the
    first on line `first`: what csv.reader makes of them, by str.split."""
    if text.encode().translate(None, _NOT_SEPARATORS) == b",,\n" * n:  # 3 fields each
        cells = text.replace("\n", ",").split(",")  # 3n fields and a final ""
        return first + np.arange(n), cells[0:-1:3], cells[1::3], cells[2::3], None
    records = text.split("\n")[:-1]
    commas = np.fromiter(map(str.count, records, itertools.repeat(",")), np.intp, n)
    keep, bad = _screen(commas + 1, records.__getitem__, first)
    cells = ",".join([records[k] for k in keep]).split(",") if len(keep) else []
    return first + keep, cells[0::3], cells[1::3], cells[2::3], bad


def _csv_batch(rows: list[list[str]], first: int):
    """Columns of csv.reader rows, the first on line `first`."""
    keep, bad = _screen(np.fromiter(map(len, rows), np.intp, len(rows)),
                        lambda k: rows[k][0] if rows[k] else "", first)
    dates, funds, rets = zip(*[rows[k] for k in keep]) if len(keep) else ((), (), ())
    return first + keep, dates, funds, rets, bad


def _return_batches(fh, lineno: int):
    """Batches of the returns file's records from `lineno` on: (line numbers,
    date fields, fund fields, return fields, first bad record as (line,
    field count) or None). The file is read in chunks. Records end at
    \\r\\n, \\r or \\n, where csv.reader on a file opened with newline=""
    ends them; text without a quote is split by str.split, and from the
    first chunk that holds a quote on, csv.reader takes the records over."""
    pending = ""  # the partial record at the end of the text read so far
    while True:
        chunk = fh.read(_CHUNK_CHARS)
        if '"' in chunk:
            lines = io.StringIO(pending + chunk + fh.readline(), newline="")
            reader = csv.reader(itertools.chain(lines, fh))
            while rows := list(itertools.islice(reader, _CSV_BATCH)):
                yield _csv_batch(rows, lineno)
                lineno += len(rows)
            return
        text = pending + chunk
        # a final \r may be the first half of a \r\n
        cut = max(text.rfind("\n"), text.rfind("\r", 0, len(text) - 1)) + 1 if chunk else len(text)
        text, pending = text[:cut], text[cut:]
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        if not chunk and text and not text.endswith("\n"):
            text += "\n"  # the last record, unterminated
        if text:
            n = text.count("\n")
            yield _split_batch(text, n, lineno)
            lineno += n
        if not chunk:
            return


def _float_or_nan(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _row_problem(date_s: str, fund_s: str, ret_s: str) -> str:
    """What is wrong with a data row known to be bad, checks in order: the
    date, the fund id, the return."""
    try:
        month_index(date_s.strip())
    except DataError as exc:
        return str(exc)
    fund = fund_s.strip()
    if not fund:
        return "empty fund_id"
    if "\n" in fund or "\r" in fund:
        return f"fund_id {fund!r} spans lines"
    try:
        float(ret_s)
    except ValueError:
        return f"bad return value {ret_s.strip()!r}"
    return "non-finite return"


def _parse_returns_csv(path: str) -> ReturnTable:
    """Read the long-form returns file into a ReturnTable.

    Fields are CSV (a quoted fund id may hold commas) with surrounding
    whitespace ignored; blank lines are skipped. A fund id must be non-empty
    and on one line, since the CLI writes it into line-per-record outputs.
    A bad field count, date, fund id or return, or a repeated (fund, month),
    raises DataError naming the file and line of the earliest bad row. Each
    distinct date text and fund id text is checked once; returns convert by
    float(), a batch at a time.
    """
    month_of: dict[str, int] = {}  # date field as written -> month index, -1 if bad
    code_of: dict[str, int] = {}  # fund field as written -> fund code, -1 if bad
    fund_code: dict[str, int] = {}  # fund id -> fund code, in order of first sight
    parts = []  # per batch: line numbers, month indices, fund codes, returns

    def columns() -> list[np.ndarray]:
        if not parts:
            return [np.empty(0, np.int32)] * 4
        return [np.concatenate(col) for col in zip(*parts)]

    def first_repeat(stop: int | None = None) -> None:
        """Raise for the first repeated (fund, month) of the rows before line `stop`."""
        lines, months, codes, _ = columns()
        if stop is not None:
            lines, months, codes = (col[lines < stop] for col in (lines, months, codes))
        keys = months.astype(np.int64) * len(fund_code) + codes
        order = np.argsort(keys, kind="stable")  # a repeat sorts after its first
        repeats = order[1:][keys[order][1:] == keys[order][:-1]]
        if repeats.size:
            at = repeats.min()
            month, fund = int(months[at]), list(fund_code)[codes[at]]
            raise DataError(f"{path}:{lines[at]}: duplicate row for fund {fund} at "
                            f"{month // 12:04d}-{month % 12 + 1:02d}")

    with open_text(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header[:3]] != ["date", "fund_id", "ret"]:
            raise DataError(f"{path}: expected header 'date,fund_id,ret'")
        for lines, dates, funds, rets, bad in _return_batches(fh, 2):
            for text in set(dates).difference(month_of):
                try:
                    month_of[text] = month_index(text.strip())
                except DataError:
                    month_of[text] = -1
            for text in set(funds).difference(code_of):
                fund = text.strip()
                ok = fund and "\n" not in fund and "\r" not in fund
                code_of[text] = fund_code.setdefault(fund, len(fund_code)) if ok else -1
            n = len(lines)
            months = np.fromiter(map(month_of.__getitem__, dates), np.int32, n)
            codes = np.fromiter(map(code_of.__getitem__, funds), np.int32, n)
            try:
                vals = np.fromiter(map(float, rets), float, n)
            except ValueError:
                vals = np.array([_float_or_nan(s) for s in rets], dtype=float)
            wrong = np.flatnonzero((months < 0) | (codes < 0) | ~np.isfinite(vals))
            parts.append((lines, months, codes, vals))
            if wrong.size:
                k = wrong[0]
                first_repeat(lines[k])
                raise DataError(f"{path}:{lines[k]}: {_row_problem(dates[k], funds[k], rets[k])}")
            if bad is not None:
                first_repeat(bad[0])
                raise DataError(f"{path}:{bad[0]}: expected 3 fields, got {bad[1]}")

    _, months, codes, vals = columns()
    axis, rows = np.unique(months, return_inverse=True)
    fund_ids = sorted(fund_code)
    col = np.empty(len(fund_ids), np.intp)
    col[[fund_code[f] for f in fund_ids]] = np.arange(len(fund_ids))
    matrix = np.full((len(axis), len(fund_ids)), np.nan)
    matrix[rows, col[codes]] = vals
    if np.count_nonzero(~np.isnan(matrix)) != len(vals):  # two rows share a cell
        first_repeat()
    return ReturnTable(tuple(f"{m // 12:04d}-{m % 12 + 1:02d}" for m in axis.tolist()),
                       tuple(fund_ids), matrix)


def _parse_monthly_csv(path: str, columns: tuple[str, ...]) -> dict[str, list[float]]:
    """Read a wide-form monthly file (header ``date`` then `columns`) into
    {date: [values]}. Blank lines are skipped. A bad field count, date or
    value, or a repeated month, raises DataError naming the file and line."""
    expected = ["date", *columns]
    out: dict[str, list[float]] = {}
    with open_text(path) as fh:
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
    table: ReturnTable,
    by_date: dict[str, tuple[np.ndarray, float]],
    window: tuple[str, str],
) -> tuple[ReturnPanel, FactorSeries, dict]:
    """Clean and align already-parsed data over `window`, cutting it from the
    table's matrix; returns the cleaning log as the third element."""
    months = window_months(window[0], window[1])

    missing_factor_months = [m for m in months if m not in by_date]
    if missing_factor_months:
        raise DataError(
            "factor series does not cover the window; "
            f"first missing month {missing_factor_months[0]}"
        )

    block = table.block(months)
    complete = ~np.isnan(block).any(axis=0)
    zero = complete & (block == 0.0).any(axis=0)
    kept = np.flatnonzero(complete & ~zero)
    log = {
        "dropped_zero": [table.fund_ids[j] for j in np.flatnonzero(zero)],
        "dropped_incomplete": [table.fund_ids[j] for j in np.flatnonzero(~complete)],
        "retained": len(kept),
    }
    if not len(kept):
        raise DataError(
            f"no eligible funds in {window[0]}..{window[1]} "
            f"(dropped {len(log['dropped_zero'])} zero-sentinel, "
            f"{len(log['dropped_incomplete'])} incomplete)"
        )

    panel = ReturnPanel(
        dates=tuple(months),
        fund_ids=tuple(table.fund_ids[j] for j in kept),
        returns=np.take(block, kept, axis=1),  # C order: BLAS sums, so the bits, follow it
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
