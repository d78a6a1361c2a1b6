"""Ingestion, cleaning, and the four-factor alpha regression."""

import csv
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fundselect import panel as panel_module
from fundselect.errors import DataError, NumericalError
from fundselect.panel import (
    FactorSeries,
    ReturnPanel,
    _parse_factors_csv,
    _parse_returns_csv,
    assemble_window,
    carhart_fit,
    month_index,
    month_range,
)

RNG = np.random.default_rng(20260401)


def _write_files(tmp_path, returns_rows, factor_rows):
    returns_csv = tmp_path / "returns.csv"
    factors_csv = tmp_path / "factors.csv"
    returns_csv.write_text("date,fund_id,ret\n" + "".join(r + "\n" for r in returns_rows))
    factors_csv.write_text(
        "date,mkt_rf,smb,hml,mom,rf\n" + "".join(r + "\n" for r in factor_rows)
    )
    return str(returns_csv), str(factors_csv)


def _load(returns_csv, factors_csv, window):
    """Parse both files and assemble the window, as the CLI does."""
    return assemble_window(_parse_returns_csv(returns_csv), _parse_factors_csv(factors_csv), window)


def _factor_rows(months):
    rows = []
    for i, m in enumerate(months):
        rows.append(f"{m},{0.01 + 0.001 * i},{0.002},{-0.001},{0.003},{0.0015}")
    return rows


def test_month_range_spans_year_boundary():
    months = month_range("2004-11", "2005-02")
    assert months == ["2004-11", "2004-12", "2005-01", "2005-02"]


def test_month_index_rejects_bad_strings():
    for bad in ("2004-13", "2004-00", "200411", "2004-1", "abcd-ef"):
        with pytest.raises(DataError):
            month_index(bad)


def test_month_range_rejects_reversed_window():
    with pytest.raises(DataError, match="reversed"):
        month_range("2005-02", "2005-01")


def test_load_panel_drops_zero_sentinel_and_incomplete(tmp_path):
    """Fund B reports an exact 0.0 inside the window, fund C misses a month;
    both get dropped and logged, fund A survives."""
    months = month_range("2010-01", "2010-12")
    rows = []
    for m in months:
        rows.append(f"{m},A,0.01")
        ret_b = "0.0" if m == "2010-06" else "0.02"
        rows.append(f"{m},B,{ret_b}")
        if m != "2010-09":
            rows.append(f"{m},C,0.005")
    returns_csv, factors_csv = _write_files(tmp_path, rows, _factor_rows(months))

    panel, factors, log = _load(returns_csv, factors_csv, ("2010-01", "2010-12"))
    assert panel.fund_ids == ("A",)
    assert panel.n_months == 12
    assert factors.factors.shape == (12, 4)
    assert log["dropped_zero"] == ["B"]
    assert log["dropped_incomplete"] == ["C"]
    assert log["retained"] == 1


def test_load_panel_requires_twelve_months(tmp_path):
    months = month_range("2010-01", "2010-06")
    rows = [f"{m},A,0.01" for m in months]
    returns_csv, factors_csv = _write_files(tmp_path, rows, _factor_rows(months))
    with pytest.raises(DataError, match="12"):
        _load(returns_csv, factors_csv, ("2010-01", "2010-06"))


def test_load_panel_flags_missing_factor_month(tmp_path):
    months = month_range("2010-01", "2010-12")
    rows = [f"{m},A,0.01" for m in months]
    returns_csv, factors_csv = _write_files(tmp_path, rows, _factor_rows(months[:-1]))
    with pytest.raises(DataError, match="2010-12"):
        _load(returns_csv, factors_csv, ("2010-01", "2010-12"))


def test_load_panel_no_eligible_funds(tmp_path):
    months = month_range("2010-01", "2010-12")
    rows = [f"{m},A,0.0" for m in months]  # all zero-sentinel
    returns_csv, factors_csv = _write_files(tmp_path, rows, _factor_rows(months))
    with pytest.raises(DataError, match="no eligible funds"):
        _load(returns_csv, factors_csv, ("2010-01", "2010-12"))


def test_returns_parser_line_numbers_and_duplicates(tmp_path):
    months = month_range("2010-01", "2010-12")
    rows = [f"{m},A,0.01" for m in months] + ["2010-03,A,0.02"]
    returns_csv, factors_csv = _write_files(tmp_path, rows, _factor_rows(months))
    with pytest.raises(DataError, match=":14"):
        _load(returns_csv, factors_csv, ("2010-01", "2010-12"))


def test_returns_parser_rejects_non_numeric(tmp_path):
    months = month_range("2010-01", "2010-12")
    rows = [f"{m},A,0.01" for m in months[:-1]] + [f"{months[-1]},A,oops"]
    returns_csv, factors_csv = _write_files(tmp_path, rows, _factor_rows(months))
    with pytest.raises(DataError, match="oops"):
        _load(returns_csv, factors_csv, ("2010-01", "2010-12"))


def _noiseless_panel(T=60, p=5, seed=7):
    """Returns built exactly as alpha + F beta + rf: residuals are zero, so
    the regression must recover alpha and beta to machine precision."""
    rng = np.random.default_rng(seed)
    dates = tuple(month_range("2005-01", "2005-12") + month_range("2006-01", "2009-12"))[:T]
    fac = rng.normal(0.0, 0.04, size=(T, 4))
    rf = np.full(T, 0.002)
    alpha = rng.normal(0.0, 0.003, size=p)
    beta = rng.normal(0.5, 0.3, size=(p, 4))
    returns = alpha[None, :] + fac @ beta.T + rf[:, None]
    panel = ReturnPanel(
        dates=dates, fund_ids=tuple(f"F{i}" for i in range(p)), returns=returns
    )
    factors = FactorSeries(dates=dates, factors=fac, rf=rf)
    return panel, factors, alpha, beta


def test_carhart_noiseless_recovery():
    """With zero residuals the regression is exact; sigma stays positive
    because it is driven by total excess-return dispersion, not residuals."""
    panel, factors, alpha, beta = _noiseless_panel()
    est = carhart_fit(panel, factors)
    assert np.allclose(est.alpha_hat, alpha, atol=1e-12)
    assert np.allclose(est.beta_hat, beta, atol=1e-10)
    assert np.allclose(est.residuals, 0.0, atol=1e-12)
    assert np.all(est.sigma > 0)


def test_carhart_rejects_constant_excess_returns():
    T = 60
    dates = tuple(month_range("2001-01", "2005-12"))
    rng = np.random.default_rng(3)
    fac = rng.normal(0.0, 0.05, size=(T, 4))
    returns = np.column_stack([np.full(T, 0.004), rng.normal(0.0, 0.03, size=T)])
    panel = ReturnPanel(dates=dates, fund_ids=("A", "B"), returns=returns)
    factors = FactorSeries(dates=dates, factors=fac, rf=np.zeros(T))
    with pytest.raises(NumericalError):
        carhart_fit(panel, factors)


def test_carhart_h_vector_reproduces_alpha():
    rng = np.random.default_rng(11)
    T, p = 90, 8
    dates = tuple(month_range("2001-01", "2008-06"))
    fac = rng.normal(0.0, 0.05, size=(T, 4))
    rf = np.full(T, 0.001)
    returns = rng.normal(0.01, 0.05, size=(T, p))
    panel = ReturnPanel(dates=dates, fund_ids=tuple(f"F{i}" for i in range(p)), returns=returns)
    factors = FactorSeries(dates=dates, factors=fac, rf=rf)
    est = carhart_fit(panel, factors)

    # h is the first row of the design pseudo-inverse
    design = np.column_stack([np.ones(T), fac])
    h_direct = np.linalg.pinv(design)[0]
    assert np.allclose(est.h, h_direct, atol=1e-12)
    assert np.allclose(est.h @ est.excess_returns, est.alpha_hat, rtol=1e-10)
    # z * sigma == alpha exactly
    assert np.allclose(est.z * est.sigma, est.alpha_hat, rtol=0, atol=1e-16)


def test_carhart_residuals_orthogonal_to_design():
    rng = np.random.default_rng(4)
    T, p = 72, 6
    dates = tuple(month_range("2001-01", "2006-12"))
    fac = rng.normal(0.0, 0.05, size=(T, 4))
    panel = ReturnPanel(
        dates=dates,
        fund_ids=tuple(f"F{i}" for i in range(p)),
        returns=rng.normal(0.0, 0.04, size=(T, p)),
    )
    factors = FactorSeries(dates=dates, factors=fac, rf=np.full(T, 0.002))
    est = carhart_fit(panel, factors)
    design = np.column_stack([np.ones(T), fac])
    cross = design.T @ est.residuals
    scale = np.linalg.norm(design, axis=0)[:, None] * np.linalg.norm(est.residuals, axis=0)
    assert np.all(np.abs(cross) <= 1e-8 * np.maximum(scale, 1e-30))


def test_carhart_alpha_shift_invariance():
    """Adding a constant c to one fund's returns moves its alpha by exactly c."""
    rng = np.random.default_rng(9)
    T = 60
    dates = tuple(month_range("2001-01", "2005-12"))
    fac = rng.normal(0.0, 0.05, size=(T, 4))
    base = rng.normal(0.0, 0.04, size=(T, 2))
    shifted = base.copy()
    shifted[:, 1] += 0.004
    factors = FactorSeries(dates=dates, factors=fac, rf=np.zeros(T))
    est_a = carhart_fit(
        ReturnPanel(dates=dates, fund_ids=("A", "B"), returns=base), factors
    )
    est_b = carhart_fit(
        ReturnPanel(dates=dates, fund_ids=("A", "B"), returns=shifted), factors
    )
    assert est_b.alpha_hat[1] - est_a.alpha_hat[1] == pytest.approx(0.004, abs=1e-12)
    assert est_b.alpha_hat[0] == pytest.approx(est_a.alpha_hat[0], abs=1e-15)
    # the shift leaves the dispersion, hence sigma, untouched
    assert est_b.sigma[1] == pytest.approx(est_a.sigma[1], rel=1e-12)


def test_carhart_names_rank_deficient_column():
    rng = np.random.default_rng(2)
    T = 60
    dates = tuple(month_range("2001-01", "2005-12"))
    fac = rng.normal(0.0, 0.05, size=(T, 4))
    fac[:, 2] = 2.0 * fac[:, 0]  # hml collinear with mkt_rf
    panel = ReturnPanel(
        dates=dates, fund_ids=("A",), returns=rng.normal(0.0, 0.04, size=(T, 1))
    )
    factors = FactorSeries(dates=dates, factors=fac, rf=np.zeros(T))
    with pytest.raises(NumericalError, match=r"rank deficient.*(mkt_rf|hml)"):
        carhart_fit(panel, factors)


# ---------------------------------------------------------------------------
# returns and factor readers


def _reference_parse_returns_csv(path):
    """The row-by-row returns reader the one-pass parser replaced: every field
    stripped, every date regex-validated and every return checked with
    np.isfinite, row by row. Kept as the reference for results and errors."""
    by_fund = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header[:3]] != ["date", "fund_id", "ret"]:
            raise DataError(f"{path}: expected header 'date,fund_id,ret'")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise DataError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
            date, fund, ret_s = row[0].strip(), row[1].strip(), row[2].strip()
            try:
                month_index(date)
            except DataError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
            if not fund:
                raise DataError(f"{path}:{lineno}: empty fund_id")
            try:
                ret = float(ret_s)
            except ValueError:
                raise DataError(f"{path}:{lineno}: bad return value {ret_s!r}") from None
            if not np.isfinite(ret):
                raise DataError(f"{path}:{lineno}: non-finite return")
            fund_rows = by_fund.setdefault(fund, {})
            if date in fund_rows:
                raise DataError(f"{path}:{lineno}: duplicate row for fund {fund} at {date}")
            fund_rows[date] = ret
    return by_fund


def _outcome(parse, path):
    """A parser's result, or the message of the DataError it raised."""
    try:
        return parse(path)
    except DataError as exc:
        return f"DataError: {exc}"


def test_returns_parser_matches_reference_on_generated_panel(tmp_path):
    """A panel with quoted ids, padded fields and blank lines parses to the
    same dict as the reference."""
    rng = np.random.default_rng(5)
    months = month_range("2008-07", "2010-06")
    funds = ["F00", 'Fund 1, "Class A"', "F 2", "F03"]
    path = tmp_path / "returns.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([" date", "fund_id ", "ret", "extra header cell"])
        for t, m in enumerate(months):
            for i, fund in enumerate(funds):
                if (t + i) % 7 == 3:
                    continue  # gaps, as in a real panel
                date = f" {m} " if t % 5 == 0 else m
                fid = f"\t{fund}" if i == 3 and t % 2 else fund
                writer.writerow([date, fid, f" {rng.normal(0.0, 0.05)!r}\t"])
            if t % 6 == 0:
                fh.write("\n   \n")
    got = _parse_returns_csv(str(path))
    assert got == _reference_parse_returns_csv(str(path))
    assert set(got) == set(funds)
    assert sum(len(v) for v in got.values()) > 0.8 * len(months) * len(funds)


_GOOD = ["2001-01,A,0.01", "2001-02,A,-0.02", "", "2001-01, B ,0.03"]
_HEADER = "date,fund_id,ret"


@pytest.mark.parametrize(
    "header,rows,expect",
    [
        pytest.param("date,fund,ret", _GOOD, ": expected header", id="bad-header"),
        pytest.param("", [], ": expected header", id="empty-file"),
        pytest.param(_HEADER, [*_GOOD, "2001-03,A"], ":6: expected 3 fields", id="too-few-fields"),
        pytest.param(_HEADER, [*_GOOD, "2001-03,A,1,2"], ":6: expected 3", id="too-many-fields"),
        pytest.param(_HEADER, [*_GOOD, "2001-3,A,0.1"], ":6: bad date '2001-3'", id="bad-date"),
        pytest.param(_HEADER, [*_GOOD, "2001-13,A,0.1"], ":6: bad date '2001-13': month out",
                     id="month-13"),
        pytest.param(_HEADER, [*_GOOD, "2001-00,C,0.1"], ":6: bad date '2001-00': month out",
                     id="month-0"),
        pytest.param(_HEADER, [*_GOOD, "2001-03,  ,0.1"], ":6: empty fund_id", id="blank-fund-id"),
        pytest.param(_HEADER, [*_GOOD, '2001-03,"",0.1'], ":6: empty fund_id", id="empty-fund-id"),
        pytest.param(_HEADER, [*_GOOD, "2001-03,A,oops"], ":6: bad return", id="bad-return"),
        pytest.param(_HEADER, [*_GOOD, "2001-03,A, "], ":6: bad return value", id="blank-return"),
        pytest.param(_HEADER, [*_GOOD, "2001-03,A,nan"], ":6: non-finite", id="nan-return"),
        pytest.param(_HEADER, [*_GOOD, "2001-03,A, -inf "], ":6: non-finite", id="inf-return"),
        pytest.param(_HEADER, [*_GOOD, "2001-03,A,1e999"], ":6: non-finite", id="overflow-return"),
        pytest.param(_HEADER, [*_GOOD, "2001-02 ,A,0.5"], ":6: duplicate row", id="duplicate"),
        pytest.param(_HEADER, [*_GOOD, " 2001-01,\tB,0.5"], ":6: duplicate", id="padded-duplicate"),
        pytest.param(_HEADER, ["", " ", *_GOOD, "", "2001-02, A ,x"], ":9: bad return",
                     id="blank-lines-error"),
        pytest.param(_HEADER, ["", " ", *_GOOD, "", " 2001-04 , A , 0.5 "], None,
                     id="blank-lines-ok"),
    ],
)
def test_returns_parser_errors_match_reference(tmp_path, header, rows, expect):
    """Same result, or the same DataError message with the same line number."""
    path = tmp_path / "returns.csv"
    path.write_text("".join(f"{r}\n" for r in [header, *rows]) if header else "")
    want = _outcome(_reference_parse_returns_csv, str(path))
    assert _outcome(_parse_returns_csv, str(path)) == want
    if expect is None:
        assert want["A"] == {"2001-01": 0.01, "2001-02": -0.02, "2001-04": 0.5}
    else:
        assert want.startswith("DataError: ") and expect in want


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(
    st.tuples(
        st.sampled_from(["2001-01", " 2001-02", "2001-02\t", "2001-1", "2001-13", "x"]),
        st.sampled_from(["A", " A", "B ", 'C, "c"', "", " "]),
        st.one_of(
            st.floats(allow_nan=True, allow_infinity=True).map(repr),
            st.text(st.sampled_from(" \t\u00a0\u20030123456789.-+eEinfa_"), max_size=8),
        ),
    ),
    max_size=8,
))
def test_returns_parser_agrees_with_reference_on_any_rows(tmp_path_factory, rows):
    """Whatever the fields hold (padding of any whitespace, bad dates, ids
    and returns, repeats), both readers give the same dict or error."""
    path = tmp_path_factory.mktemp("ret") / "returns.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["date", "fund_id", "ret"])
        writer.writerows(rows)
    assert _outcome(_parse_returns_csv, str(path)) == _outcome(
        _reference_parse_returns_csv, str(path)
    )


@pytest.mark.parametrize("fund", ["A\nB", "A\r\nB", "A\rB"])
def test_returns_parser_rejects_fund_id_spanning_lines(tmp_path, fund):
    """The CLI writes one record per line, so such an id could not be read
    back from its own outputs."""
    path = tmp_path / "returns.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)  # quotes a field holding \r or \n
        writer.writerows([["date", "fund_id", "ret"], ["2001-01", "A", "0.1"],
                          ["2001-01", fund, "0.2"]])
    with pytest.raises(DataError) as info:
        _parse_returns_csv(str(path))
    assert str(info.value) == f"{path}:3: a quoted field spans lines"


@pytest.mark.parametrize("reader", ["returns", "factors"])
def test_a_value_spanning_lines_is_a_bad_record(tmp_path, reader):
    """A quoted value that float() would take, "0.01\\n", spans lines: it is
    a bad record, named by its first line, not a value that shifts the line
    numbers of the errors after it."""
    path = tmp_path / f"{reader}.csv"
    if reader == "returns":
        path.write_text('date,fund_id,ret\n2001-01,A,"0.01\n"\n2001-02,A,0.02\n2001-3,A,x\n')
        parse = _parse_returns_csv
    else:
        path.write_text('date,mkt_rf,smb,hml,mom,rf\n2001-01,0,0,0,0,"0.01\n"\n'
                        "2001-02,0,0,0,0,0\n2001-3,0,0,0,0,0\n")
        parse = _parse_factors_csv
    with pytest.raises(DataError) as info:
        parse(str(path))
    assert str(info.value) == f"{path}:2: a quoted field spans lines"


@pytest.mark.parametrize("reader", ["returns", "factors"])
def test_header_must_be_the_first_line(tmp_path, reader):
    """A blank first line is refused: the header is line 1, so that every
    later line keeps its own number."""
    path = tmp_path / f"{reader}.csv"
    if reader == "returns":
        path.write_text("\ndate,fund_id,ret\n2001-01,A,0.01\n")
        parse, header = _parse_returns_csv, "date,fund_id,ret"
    else:
        path.write_text("\ndate,mkt_rf,smb,hml,mom,rf\n2001-01,0,0,0,0,0\n")
        parse, header = _parse_factors_csv, "date,mkt_rf,smb,hml,mom,rf"
    with pytest.raises(DataError) as info:
        parse(str(path))
    assert str(info.value) == f"{path}: expected header '{header}'"


# Single-line fund ids, with no surrounding whitespace (the readers strip it).
_FUND_IDS = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"),
    min_size=1, max_size=12,
).filter(lambda s: s == s.strip())
_MONTHS = month_range("1990-01", "2009-12")
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=80, deadline=None)
@given(panel=st.dictionaries(
    _FUND_IDS, st.dictionaries(st.sampled_from(_MONTHS), _FINITE, min_size=1, max_size=6),
    max_size=6,
))
@example(panel={'F1, "Class A"': {"2001-01": -0.5}, '"q"': {"2001-02": 0.0}, "#": {"2001-01": 1.0}})
def test_returns_csv_round_trips(tmp_path_factory, panel):
    """A returns file written by csv.writer, quoting and all, reads back the
    same {fund: {date: ret}}."""
    path = tmp_path_factory.mktemp("ret") / "returns.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "fund_id", "ret"])
        writer.writerows(
            (date, fund, ret) for fund, rows in panel.items() for date, ret in rows.items()
        )
    assert _parse_returns_csv(str(path)) == panel


@settings(max_examples=80, deadline=None)
@given(table=st.dictionaries(
    st.sampled_from(_MONTHS), st.tuples(*[_FINITE] * 5), max_size=8,
))
def test_factors_csv_round_trips(tmp_path_factory, table):
    """A factor file written by csv.writer reads back the same factor rows
    and risk-free rates."""
    path = tmp_path_factory.mktemp("fac") / "factors.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "mkt_rf", "smb", "hml", "mom", "rf"])
        writer.writerows((date, *vals) for date, vals in table.items())
    got = _parse_factors_csv(str(path))
    assert set(got) == set(table)
    for date, vals in table.items():
        row, rf = got[date]
        assert row.tolist() == list(vals[:4]) and rf == vals[4]


@pytest.mark.parametrize(
    "date,expect",
    [pytest.param("2001-3", ":3: bad date '2001-3': expected YYYY-MM", id="bad-date"),
     pytest.param("2001-13", ":3: bad date '2001-13': month out of range", id="month-13")],
)
def test_factors_parser_names_the_line_of_a_bad_date(tmp_path, date, expect):
    path = tmp_path / "factors.csv"
    path.write_text(f"date,mkt_rf,smb,hml,mom,rf\n2001-01,0,0,0,0,0\n{date},0,0,0,0,0\n")
    with pytest.raises(DataError) as info:
        _parse_factors_csv(str(path))
    assert str(info.value) == f"{path}{expect}"


@settings(max_examples=150, deadline=None)
@given(
    records=st.lists(st.one_of(
        st.tuples(
            st.sampled_from(["2001-01", "2001-02", " 2001-03", "2001-13"]),
            st.sampled_from(["A", "B", " C", "D\x0bE", "F\x85G", "H I", 'J, "j"']),
            st.sampled_from(["0.01", "-0.5", " 1e-3", "0.0", "x"]),
        ).map(lambda row: ",".join(f'"{c.replace(chr(34), 2 * chr(34))}"' if '"' in c or "," in c
                                   else c for c in row)),
        st.sampled_from(["", " ", "2001-04,A"]),
    ), max_size=12),
    ends=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=13, max_size=13),
    last_end=st.booleans(),
    chunk=st.sampled_from([1, 2, 3, 7, 64, 1 << 16]),
)
def test_returns_reader_splits_records_where_csv_reader_does(
        tmp_path_factory, records, ends, last_end, chunk):
    """Records end at \\r\\n, \\r or \\n, and nowhere else (not at the other
    breaks str.splitlines knows), whatever the size of the chunks the file
    is read in and whether a quote hands the records to csv.reader."""
    path = tmp_path_factory.mktemp("ret") / "returns.csv"
    text = "".join(r + e for r, e in zip(["date,fund_id,ret", *records], ends))
    with open(path, "w", newline="") as fh:
        fh.write(text if last_end else text.rstrip("\r\n"))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(panel_module, "_CHUNK_CHARS", chunk)
        m.setattr(panel_module, "_CSV_BATCH", 3)
        got = _outcome(_parse_returns_csv, str(path))
    assert got == _outcome(_reference_parse_returns_csv, str(path))


def test_return_table_is_a_month_by_fund_matrix(tmp_path):
    """Sorted axes, one cell per fund and month of the file, NaN where the
    file has no row; the Mapping view reads the rows back."""
    path = tmp_path / "returns.csv"
    path.write_text("date,fund_id,ret\n2001-03,B,0.3\n2001-01,B,0.1\n2001-01,A,-0.2\n"
                    "2001-02,A,0.0\n")
    table = _parse_returns_csv(str(path))
    assert table.dates == ("2001-01", "2001-02", "2001-03")
    assert table.fund_ids == ("A", "B")
    np.testing.assert_array_equal(table.matrix, [[-0.2, 0.1], [0.0, np.nan], [np.nan, 0.3]])
    assert table["B"] == {"2001-01": 0.1, "2001-03": 0.3}
    assert len(table) == 2 and list(table) == ["A", "B"]
    assert sum(len(v) for v in table.values()) == 4


def test_return_table_survives_pickling(tmp_path):
    """Backtest jobs carry the table to pool workers by pickle."""
    path = tmp_path / "returns.csv"
    path.write_text('date,fund_id,ret\n2001-01,"F, 1",0.1\n2001-02,G,0.2\n2001-03,"F, 1",0.0\n')
    table = _parse_returns_csv(str(path))
    back = pickle.loads(pickle.dumps(table))
    assert back == table
    assert (back.dates, back.fund_ids) == (table.dates, table.fund_ids)
    np.testing.assert_array_equal(back.matrix, table.matrix)  # NaN where NaN
    assert (back.row_of, back.col_of) == (table.row_of, table.col_of)


def test_window_month_that_no_fund_reports_drops_every_fund(tmp_path):
    """A window month missing from the whole file leaves every fund
    incomplete."""
    months = month_range("2010-01", "2010-12")
    rows = [f"{m},{f},0.01" for m in months if m != "2010-05" for f in ("A", "B")]
    returns_csv, factors_csv = _write_files(tmp_path, rows, _factor_rows(months))
    with pytest.raises(DataError, match=r"dropped 0 zero-sentinel, 2 incomplete"):
        _load(returns_csv, factors_csv, ("2010-01", "2010-12"))


@pytest.mark.parametrize("reader", ["returns", "factors"])
def test_dates_take_ascii_digits_only(tmp_path, reader):
    """A date in other Unicode digits is a bad date on its line, not a month
    that no window holds."""
    path = tmp_path / f"{reader}.csv"
    if reader == "returns":
        path.write_text("date,fund_id,ret\n2001-01,A,0.1\n٢٠٠١-١٢,A,0.2\n",
                        encoding="utf-8")
        parse = _parse_returns_csv
    else:
        path.write_text("date,mkt_rf,smb,hml,mom,rf\n2001-01,0,0,0,0,0\n"
                        "٢٠٠١-١٢,0,0,0,0,0\n", encoding="utf-8")
        parse = _parse_factors_csv
    with pytest.raises(DataError) as info:
        parse(str(path))
    assert str(info.value) == (
        f"{path}:3: bad date '٢٠٠١-١٢': expected YYYY-MM")
    with pytest.raises(DataError, match="expected YYYY-MM"):
        month_index("٢٠٠١-١٢")


def _reference_assemble(by_fund, months):
    """The dict-walking window assembly the matrix slice replaced: the
    sorted funds with every window month present and none at 0.0."""
    kept, zero, incomplete = [], [], []
    for fund in sorted(by_fund):
        vals = [by_fund[fund].get(m) for m in months]
        if None in vals:
            incomplete.append(fund)
        elif 0.0 in vals:
            zero.append(fund)
        else:
            kept.append((fund, vals))
    return kept, zero, incomplete


@settings(max_examples=60, deadline=None)
@given(cells=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 27),
                                st.sampled_from([0.0, -0.0, 0.01, -0.02, 0.5e-300])),
                      max_size=120),
       start=st.integers(0, 16))
def test_assemble_window_matches_the_dict_walk(tmp_path_factory, cells, start):
    """The window cut from the matrix keeps, drops and orders funds as the
    per-fund dict walk does, and its returns are the file's values bit for
    bit, in C order."""
    months = month_range("2001-01", "2003-04")  # 28 months
    path = tmp_path_factory.mktemp("win") / "returns.csv"
    rows = {(f"F{f}", months[t]): ret for f, t, ret in cells}
    path.write_text("date,fund_id,ret\n"
                    + "".join(f"{d},{f},{r!r}\n" for (f, d), r in rows.items()))
    table = _parse_returns_csv(str(path))
    window = months[start:start + 12]
    by_date = {m: (np.zeros(4), 0.0) for m in months}
    kept, zero, incomplete = _reference_assemble(dict(table.items()), window)
    if not kept:
        with pytest.raises(DataError, match="no eligible funds"):
            assemble_window(table, by_date, (window[0], window[-1]))
        return
    panel, _, log = assemble_window(table, by_date, (window[0], window[-1]))
    assert log == {"dropped_zero": zero, "dropped_incomplete": incomplete, "retained": len(kept)}
    assert panel.fund_ids == tuple(f for f, _ in kept)
    assert panel.returns.flags["C_CONTIGUOUS"]
    assert panel.returns.tobytes() == np.column_stack([v for _, v in kept]).tobytes()
