"""Shared fixtures: tiny CSV panels on disk and small dependence models."""

import csv

import numpy as np
import pytest

from fundselect.dependence import dependence_from_correlation
from fundselect.mixture import GridConfig


def pytest_collection_modifyitems(items):
    """Mark the acceptance gates, so `-m "not acceptance"` runs the unit suite."""
    for item in items:
        if item.path.name == "test_acceptance.py":
            item.add_marker(pytest.mark.acceptance)


@pytest.fixture
def coarse_grids():
    """Small search grids so fit tests stay fast.

    The variance grid still needs a decent spread: the moment system is solved
    exactly, so too few (tau1, tau2) pairs can leave every cell infeasible on
    an unlucky draw.
    """
    return GridConfig(
        m_grid=(20.0, 40.0),
        nu0_grid=(-0.2, -0.1, 0.0),
        tau_grid=(0.05, 0.08, 0.10, 0.12, 0.15, 0.20, 0.25, 0.30),
    )


@pytest.fixture
def identity_dep():
    return dependence_from_correlation(np.eye(60))


@pytest.fixture
def equicorr_dep():
    p, rho = 60, 0.3
    sigma = np.full((p, p), rho)
    np.fill_diagonal(sigma, 1.0)
    return dependence_from_correlation(sigma)


def write_panel_csvs(tmp_path, panel, factors, subdir=None):
    """Dump a (panel, factors) pair in the CLI's CSV formats; returns paths."""
    base = tmp_path if subdir is None else tmp_path / subdir
    base.mkdir(parents=True, exist_ok=True)
    returns_csv = base / "returns.csv"
    factors_csv = base / "factors.csv"
    with open(returns_csv, "w", newline="") as fh:
        # csv quoting keeps ids with commas or quotes intact; plain ids are
        # written as bare text
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["date", "fund_id", "ret"])
        for t, date in enumerate(panel.dates):
            for i, fund in enumerate(panel.fund_ids):
                writer.writerow([date, fund, repr(float(panel.returns[t, i]))])
    with open(factors_csv, "w", newline="\n") as fh:
        fh.write("date,mkt_rf,smb,hml,mom,rf\n")
        for t, date in enumerate(factors.dates):
            row = ",".join(repr(float(v)) for v in factors.factors[t])
            fh.write(f"{date},{row},{float(factors.rf[t])!r}\n")
    return str(returns_csv), str(factors_csv)
