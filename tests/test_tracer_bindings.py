"""The benchmark's tracer (perfbench/tracer.py) wraps fundselect functions by
module and attribute name, so a rename would silently zero its metrics. These
tests load the tracer from its file, unchanged, and check what it binds."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from fundselect.dependence import dependence_from_correlation
from fundselect.mixture import _TV_DRAWS, MixtureParams, fit_mixture, simulate_z
from fundselect.panel import _parse_returns_csv

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    if not TRACER.is_file():
        pytest.skip("perfbench/tracer.py is not in this checkout")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_binding_names_a_callable(tracer):
    for mod, attr, _, _ in tracer.BINDINGS:
        assert callable(getattr(importlib.import_module(f"fundselect.{mod}"), attr, None)), \
            f"fundselect.{mod}.{attr}"


def test_fit_info_reads_a_real_fit(tracer, coarse_grids):
    dep = dependence_from_correlation(np.eye(200))
    true = MixtureParams(pi0=0.1, pi1=0.7, pi2=0.2, nu0=-0.1, nu1=-0.6,
                         nu2=1.1, tau1_sq=0.12, tau2_sq=0.12)
    result = fit_mixture(simulate_z(true, dep, 2), dep, coarse_grids, seed=0)
    info = tracer._fit_info(result)
    assert info["grid_points"] == coarse_grids.n_points
    assert info["feasible"] == sum(r["feasible"] for r in result[1].grid_trace) > 0


def test_traced_fit_times_the_winners_tv(tracer, coarse_grids):
    """A fit draws its winner's TV through mixture's module-level
    simulate_z and total_variation, so a traced fit records `_TV_DRAWS`
    spans of each and the tracer's score metrics read them."""
    dep = dependence_from_correlation(np.eye(200))
    true = MixtureParams(pi0=0.1, pi1=0.7, pi2=0.2, nu0=-0.1, nu1=-0.6,
                         nu2=1.1, tau1_sq=0.12, tau2_sq=0.12)
    z = simulate_z(true, dep, 2)
    spans = tracer.Tracer()
    with tracer.installed(spans):
        fit_mixture(z, dep, coarse_grids, seed=0)
    names = [s[tracer.NAME] for s in spans.spans]
    assert names.count("mixture.simulate_z") == names.count("mixture.total_variation") == _TV_DRAWS
    metrics = tracer.layer_metrics(spans.spans)
    assert metrics["mixture.simulate_calls"] == _TV_DRAWS
    assert metrics["mixture.score_s"] > 0.0


def test_parsed_rows_counts_the_data_rows_of_a_table(tracer, tmp_path):
    """`panel.rows` reads the returns table through its Mapping view: one
    per data row, blank lines and the header not counted."""
    path = tmp_path / "returns.csv"
    rows = [f"2001-{m:02d},{fund},0.01" for m in range(1, 13) for fund in ("A", '"B, b"', "C")
            if (m, fund) != (5, "C")]
    path.write_text("date,fund_id,ret\n" + "\n".join(rows[:10]) + "\n\n  \n"
                    + "\n".join(rows[10:]) + "\n")
    assert tracer._parsed_rows(_parse_returns_csv(str(path))) == {"rows": len(rows)} == {"rows": 35}
