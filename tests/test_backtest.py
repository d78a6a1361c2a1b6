"""Rolling backtest: config checks, monthly compounding, fallbacks, rank report."""

import json
import warnings

import numpy as np
import pytest

from conftest import write_panel_csvs
from fundselect.backtest import (
    BacktestConfig,
    PortfolioTrack,
    _month_return,
    _parse_benchmark_csv,
    run_backtest,
)
from fundselect.errors import ConfigError, DataError, FitFailedError
from fundselect.panel import ReturnTable
from fundselect.selection import rank_compare
from fundselect.simlab import planted_panel


def _write_benchmark(tmp_path, months, rets, name="bench.csv"):
    path = tmp_path / name
    with open(path, "w", newline="\n") as fh:
        fh.write("date,ret\n")
        for m, r in zip(months, rets):
            fh.write(f"{m},{float(r)!r}\n")
    return str(path)


def _holding_months(years):
    return [f"{y}-{m:02d}" for y in years for m in range(1, 13)]


# ---------------------------------------------------------------------------
# configuration and track bookkeeping


@pytest.mark.parametrize(
    "kwargs",
    [
        {"window_years": 0},
        {"theta": 0.0},
        {"theta": 1.0},
        {"start_year": 2010, "end_year": 2009},
        {"fallback": "hold-bonds"},
        {"fallback": "hold-index"},  # benchmark_csv missing
    ],
)
def test_config_rejects_bad_values(kwargs):
    base = {"start_year": 2005, "end_year": 2006}
    base.update(kwargs)
    with pytest.raises(ConfigError):
        BacktestConfig(**base)


def test_track_annualized_matches_hand_computation():
    track = PortfolioTrack(
        years=[2005, 2006],
        values={"dvalue": [1.0, 1.1, 1.21]},
        selections={"dvalue": {2005: ["f1"], 2006: []}},
    )
    assert track.annualized["dvalue"] == pytest.approx(0.1, abs=1e-12)


def test_track_annualizes_a_wiped_out_strategy_to_total_loss():
    """A track that turns negative has no real annualized return; it is a
    total loss, -1.0, which the CLI's JSON writer can encode."""
    track = PortfolioTrack(
        years=[2010, 2011], values={"bh": [1.0, -3.0, -2140.0]}, selections={}
    )
    assert type(track.annualized["bh"]) is float
    assert track.annualized["bh"] == -1.0
    assert json.loads(json.dumps(track.annualized, allow_nan=False)) == {"bh": -1.0}


def test_track_rejects_length_mismatch():
    with pytest.raises(DataError, match="values for"):
        PortfolioTrack(
            years=[2005, 2006],
            values={"dvalue": [1.0, 1.1]},
            selections={"dvalue": {}},
        )


# ---------------------------------------------------------------------------
# monthly return bookkeeping


def _table(by_fund):
    """A ReturnTable holding the rows of {fund: {date: ret}}, NaN elsewhere."""
    dates = sorted({date for rows in by_fund.values() for date in rows})
    funds = sorted(by_fund)
    matrix = np.full((len(dates), len(funds)), np.nan)
    for j, fund in enumerate(funds):
        for date, ret in by_fund[fund].items():
            matrix[dates.index(date), j] = ret
    return ReturnTable(tuple(dates), tuple(funds), matrix)


def test_month_return_equal_weights_present_funds():
    table = _table({"a": {"2005-01": 0.02}, "b": {"2005-01": 0.04}})
    got = _month_return(["a", "b"], "2005-01", table, None, "hold-cash")
    assert got == pytest.approx(0.03, abs=1e-15)


def test_month_return_renormalizes_over_missing_and_sentinel():
    table = _table({
        "a": {"2005-01": 0.02, "2005-02": 0.01},
        "b": {"2005-02": 0.03},  # no row that month
        "c": {"2005-01": 0.0, "2005-02": 0.05},  # the missing-data sentinel
    })
    assert np.isnan(table.matrix[0, 1])
    got = _month_return(["a", "b", "c"], "2005-01", table, None, "hold-cash")
    assert got == pytest.approx(0.02, abs=1e-15)
    got = _month_return(["c", "b"], "2005-02", table, None, "hold-cash")
    assert got == pytest.approx(0.04, abs=1e-15)


def test_month_return_empty_book_falls_back():
    empty = _table({})
    assert _month_return([], "2005-01", empty, None, "hold-cash") == 0.0
    bench = {"2005-01": 0.007}
    got = _month_return([], "2005-01", empty, bench, "hold-index")
    assert got == 0.007
    with pytest.raises(DataError, match="missing month"):
        _month_return([], "2005-02", empty, bench, "hold-index")
    # a book whose every fund lacks the month falls back too
    table = _table({"a": {"2005-02": 0.01}, "b": {"2005-01": 0.0}})
    assert _month_return(["a", "b"], "2005-01", table, bench, "hold-index") == 0.007


def test_benchmark_parser_rejects_malformed_files(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("month,value\n2005-01,0.01\n")
    with pytest.raises(DataError, match="expected header"):
        _parse_benchmark_csv(str(bad_header))

    dup = tmp_path / "d.csv"
    dup.write_text("date,ret\n2005-01,0.01\n2005-01,0.02\n")
    with pytest.raises(DataError, match="duplicate month"):
        _parse_benchmark_csv(str(dup))

    nonnum = tmp_path / "n.csv"
    nonnum.write_text("date,ret\n2005-01,abc\n")
    with pytest.raises(DataError, match="non-numeric"):
        _parse_benchmark_csv(str(nonnum))

    empty = tmp_path / "e.csv"
    empty.write_text("date,ret\n")
    with pytest.raises(DataError, match="no benchmark rows"):
        _parse_benchmark_csv(str(empty))

    extra = tmp_path / "x.csv"
    extra.write_text("date,ret\n2005-01,0.01\n2005-02,0.01,0.02\n")
    with pytest.raises(DataError) as info:
        _parse_benchmark_csv(str(extra))
    assert str(info.value) == f"{extra}:3: expected 2 fields, got 3"


@pytest.mark.parametrize(
    "date,why",
    [pytest.param("2010-1", "expected YYYY-MM", id="bad-date"),
     pytest.param("2010-13", "month out of range", id="month-13")],
)
def test_benchmark_parser_names_the_line_of_a_bad_date(tmp_path, date, why):
    path = tmp_path / "bench.csv"
    path.write_text(f"date,ret\n2010-02,0.01\n{date},0.02\n")
    with pytest.raises(DataError) as info:
        _parse_benchmark_csv(str(path))
    assert str(info.value) == f"{path}:3: bad date {date!r}: {why}"


# ---------------------------------------------------------------------------
# full runs on a small planted panel (7 years of data, 2-year backtest)


@pytest.fixture(scope="module")
def planted_run(tmp_path_factory):
    """One backtest on a 60-fund panel with 12 planted funds, plus the inputs."""
    tmp_path = tmp_path_factory.mktemp("bt")
    panel, factors, mask = planted_panel(
        p=60, n_months=84, n_planted=12, alpha_monthly=0.01, seed=21
    )
    returns_csv, factors_csv = write_panel_csvs(tmp_path, panel, factors)
    months = _holding_months([2005, 2006])
    bench_csv = _write_benchmark(
        tmp_path, months, [0.003 + 0.002 * np.sin(t) for t in range(len(months))]
    )
    from fundselect.mixture import GridConfig

    config = BacktestConfig(
        start_year=2005,
        end_year=2006,
        window_years=5,
        theta=0.15,
        benchmark_csv=bench_csv,
        n_samples=300,
        grids=GridConfig(
            m_grid=(20.0, 40.0),
            nu0_grid=(-0.2, -0.1, 0.0),
            tau_grid=(0.05, 0.08, 0.10, 0.12, 0.15, 0.20, 0.25, 0.30),
        ),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        track = run_backtest(returns_csv, factors_csv, config, seed=3)
    return {
        "track": track,
        "panel": panel,
        "factors": factors,
        "mask": mask,
        "returns_csv": returns_csv,
        "factors_csv": factors_csv,
        "config": config,
        "bench_csv": bench_csv,
    }


def test_backtest_track_structure(planted_run):
    track = planted_run["track"]
    assert track.years == [2005, 2006]
    for name in ("dvalue", "bh", "storey", "index"):
        assert len(track.values[name]) == 3
        assert track.values[name][0] == 1.0
        assert name in track.annualized
    assert set(track.selections["dvalue"]) == {2005, 2006}
    assert track.selections["index"] == {2005: [], 2006: []}


def test_backtest_selects_every_planted_fund(planted_run):
    panel, mask = planted_run["panel"], planted_run["mask"]
    planted_ids = {panel.fund_ids[i] for i in np.flatnonzero(mask)}
    for year in (2005, 2006):
        held = set(planted_run["track"].selections["dvalue"][year])
        assert planted_ids <= held


def test_backtest_compounding_matches_hand_recomputation(planted_run):
    track = planted_run["track"]
    panel = planted_run["panel"]
    col = {fund: i for i, fund in enumerate(panel.fund_ids)}
    row = {date: t for t, date in enumerate(panel.dates)}
    value = 1.0
    expected = [value]
    for year in (2005, 2006):
        held = track.selections["dvalue"][year]
        for m in range(1, 13):
            t = row[f"{year}-{m:02d}"]
            rets = [
                float(panel.returns[t, col[f]])
                for f in held
                if panel.returns[t, col[f]] != 0.0
            ]
            value *= 1.0 + (float(np.mean(rets)) if rets else 0.0)
        expected.append(value)
    np.testing.assert_allclose(track.values["dvalue"], expected, rtol=1e-12)


def test_backtest_index_track_compounds_benchmark_exactly(planted_run):
    bench = _parse_benchmark_csv(planted_run["bench_csv"])
    value = 1.0
    expected = [value]
    for year in (2005, 2006):
        for m in range(1, 13):
            value *= 1.0 + bench[f"{year}-{m:02d}"]
        expected.append(value)
    np.testing.assert_allclose(track_values := planted_run["track"].values["index"], expected, rtol=0, atol=0)
    assert track_values[-1] != 1.0


def test_backtest_records_each_years_fit(planted_run):
    """Each holding year carries its fit record: the grid size, the feasible
    count, the winning score, the runner-up gap and the winner's TV of the
    fit that year's d-values came from, the window's factor count and the
    d-values' effective sample size."""
    track, config = planted_run["track"], planted_run["config"]
    assert sorted(track.fits) == track.years
    for fit in track.fits.values():
        assert fit["status"] == "fit"
        assert 0 < fit["n_feasible"] <= fit["n_grid_points"] == config.grids.n_points
        assert np.isfinite(fit["score"])
        assert fit["runner_up_gap"] is None or fit["runner_up_gap"] >= 0.0
        assert 0.0 < fit["tv"] <= 1.0
        assert isinstance(fit["l"], int) and 0 <= fit["l"] < 12 * config.window_years
        assert isinstance(fit["ess"], float) and 1.0 <= fit["ess"] <= config.n_samples


def test_backtest_is_deterministic(planted_run):
    config = planted_run["config"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        again = run_backtest(
            planted_run["returns_csv"], planted_run["factors_csv"], config, seed=3
        )
    assert again.values == planted_run["track"].values
    assert again.selections == planted_run["track"].selections


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_index_track_needs_every_benchmark_month(planted_run, tmp_path):
    """The index track compounds the benchmark whatever the strategies'
    fallback, so a month missing from it fails the run under hold-cash too."""
    months = [m for m in _holding_months([2006]) if m != "2006-07"]
    config = BacktestConfig(
        start_year=2006,
        end_year=2006,
        window_years=5,
        theta=0.15,
        benchmark_csv=_write_benchmark(tmp_path, months, [0.004] * len(months)),
        n_samples=300,
        grids=planted_run["config"].grids,
    )
    assert config.fallback == "hold-cash"
    with pytest.raises(DataError, match="missing month 2006-07"):
        run_backtest(
            planted_run["returns_csv"], planted_run["factors_csv"], config, seed=3
        )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_backtest_missing_holding_year_months_raises(planted_run):
    config = BacktestConfig(
        start_year=2006,
        end_year=2007,  # factor series ends 2006-12
        window_years=5,
        theta=0.15,
        n_samples=300,
        grids=planted_run["config"].grids,
    )
    with pytest.raises(DataError, match="holding year 2007"):
        run_backtest(
            planted_run["returns_csv"], planted_run["factors_csv"], config, seed=3
        )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_backtest_later_year_error_is_the_same_on_any_worker_count(planted_run, tmp_path):
    """Every fund carries the missing-data sentinel in 2005-06, so only the
    last of three windows (2003-2005) has no eligible fund: one process and a
    pool of two raise that year's DataError alike."""
    panel = planted_run["panel"]
    returns = panel.returns.copy()
    returns[panel.dates.index("2005-06")] = 0.0
    returns_csv, factors_csv = write_panel_csvs(
        tmp_path, type(panel)(dates=panel.dates, fund_ids=panel.fund_ids, returns=returns),
        planted_run["factors"],
    )
    config = BacktestConfig(start_year=2004, end_year=2006, window_years=3, theta=0.15,
                            n_samples=300, grids=planted_run["config"].grids)
    errors = []
    for workers in (1, 2):
        with pytest.raises(DataError, match="no eligible funds in 2003-01..2005-12") as err:
            run_backtest(returns_csv, factors_csv, config, seed=3, workers=workers)
        errors.append((type(err.value), str(err.value)))
    assert errors[0] == errors[1]


def test_backtest_fit_failure_empties_posterior_book(planted_run, monkeypatch):
    def _always_fails(*args, **kwargs):
        raise FitFailedError("no feasible grid point", trace=[{"feasible": False}] * 7)

    monkeypatch.setattr("fundselect.backtest.fit_mixture", _always_fails)
    config = BacktestConfig(
        start_year=2005,
        end_year=2005,
        window_years=5,
        theta=0.15,
        n_samples=300,
        grids=planted_run["config"].grids,
    )
    track = run_backtest(
        planted_run["returns_csv"], planted_run["factors_csv"], config, seed=3
    )
    assert track.selections["dvalue"][2005] == []
    assert track.values["dvalue"] == [1.0, 1.0]  # hold-cash all year
    # the window's factor count is known before the fit, so it is kept
    assert track.fits == {2005: {"status": "refused", "n_feasible": 0, "n_grid_points": 7,
                                 "score": None, "runner_up_gap": None, "tv": None,
                                 "l": planted_run["track"].fits[2005]["l"], "ess": None}}
    # the p-value strategies are unaffected by the posterior fit
    assert track.selections["bh"][2005] == planted_run["track"].selections["bh"][2005]


def test_backtest_empty_book_tracks_fallback(tmp_path):
    """With nothing selected by BH/Storey, hold-cash stays flat and hold-index
    reproduces the benchmark track bit for bit."""
    from fundselect.mixture import GridConfig

    panel, factors, _ = planted_panel(
        p=60, n_months=84, n_planted=0, alpha_monthly=0.0, seed=10
    )
    returns_csv, factors_csv = write_panel_csvs(tmp_path, panel, factors)
    months = _holding_months([2005, 2006])
    bench_csv = _write_benchmark(
        tmp_path, months, [0.004 - 0.001 * (t % 3) for t in range(len(months))]
    )
    grids = GridConfig(
        m_grid=(20.0, 40.0),
        nu0_grid=(-0.2, -0.1, 0.0),
        tau_grid=(0.05, 0.08, 0.10, 0.12, 0.15, 0.20, 0.25, 0.30),
    )
    common = dict(
        start_year=2005, end_year=2006, window_years=5, theta=0.15,
        n_samples=300, grids=grids,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        cash = run_backtest(
            returns_csv, factors_csv, BacktestConfig(**common), seed=4
        )
    assert cash.selections["bh"] == {2005: [], 2006: []}
    assert cash.selections["storey"] == {2005: [], 2006: []}
    assert cash.values["bh"] == [1.0, 1.0, 1.0]
    assert cash.values["storey"] == [1.0, 1.0, 1.0]

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        indexed = run_backtest(
            returns_csv,
            factors_csv,
            BacktestConfig(**common, fallback="hold-index", benchmark_csv=bench_csv),
            seed=4,
        )
    assert indexed.values["bh"] == indexed.values["index"]
    assert indexed.values["storey"] == indexed.values["index"]


# ---------------------------------------------------------------------------
# rank comparison report


def test_rank_compare_concordant_rankings_leave_no_disagreement():
    rng = np.random.default_rng(0)
    d = np.sort(rng.uniform(size=40))
    p = d * 0.5  # same ordering
    z = -d
    out = rank_compare(z, d, p, top_n=10)
    assert out["d_only"] == [] and out["p_only"] == []
    assert out["overlap"] == sorted(range(10))
    assert out["d_only_stats"] == {"n": 0}


def test_rank_compare_opposed_rankings_disagree_completely():
    n, top = 30, 8
    d = np.linspace(0.01, 0.99, n)
    p = d[::-1].copy()
    z = np.linspace(3, -3, n)
    out = rank_compare(z, d, p, top_n=top)
    assert out["overlap"] == []
    assert len(out["d_only"]) == top and len(out["p_only"]) == top
    assert out["d_only"] == list(range(top))
    assert out["p_only"] == list(range(n - 1, n - top - 1, -1))
    stats = out["d_only_stats"]
    assert stats["n"] == top
    for key in ("d_median", "d_min", "d_max", "p_median", "p_min", "p_max", "z_median"):
        assert key in stats
    assert out["d_only_stats"]["d_median"] < out["p_only_stats"]["d_median"]


def test_rank_compare_validates_inputs():
    d = np.linspace(0, 1, 10)
    with pytest.raises(DataError, match="share one length"):
        rank_compare(np.zeros(9), d, d)
    with pytest.raises(DataError, match="top_n"):
        rank_compare(np.zeros(10), d, d, top_n=11)
    with pytest.raises(DataError, match="top_n"):
        rank_compare(np.zeros(10), d, d, top_n=0)
