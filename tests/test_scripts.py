"""The repository's scripts: the panel writer, run as `python3
scripts/make_synthetic_panel.py` would, and the benchmark-file comparison."""

import csv
import json
import runpy
import subprocess
import sys
from pathlib import Path

from fundselect.cli import main
from fundselect.panel import _parse_factors_csv, _parse_returns_csv
from fundselect.simlab import SimSetting, generate_panel, synthetic_factors
from fundselect.streams import substream

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "make_synthetic_panel.py"


def _run_script(monkeypatch, *args):
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), *args])
    runpy.run_path(str(SCRIPT), run_name="__main__")


def test_mixture_panel_reads_back_to_the_generated_values(tmp_path, monkeypatch):
    out = tmp_path / "mix"
    _run_script(monkeypatch, "--p", "60", "--months", "24", "--seed", "3", "--dep", "d2",
                "--out-dir", str(out))

    setting = SimSetting(p=60, sparsity="s1", dependence="d2", theta=0.1, reps=1, seed=3,
                         n_months=24)
    factors = synthetic_factors(24, substream(3, "factors"))
    panel, factors, mu = generate_panel(setting, substream(3, "panel"), factors=factors)

    by_fund = _parse_returns_csv(str(out / "returns.csv"))
    assert sorted(by_fund) == list(panel.fund_ids)
    for i, fund in enumerate(panel.fund_ids):
        assert by_fund[fund] == dict(zip(panel.dates, panel.returns[:, i].tolist()))
    by_date = _parse_factors_csv(str(out / "factors.csv"))
    assert list(by_date) == list(factors.dates)
    for t, date in enumerate(factors.dates):
        row, rf = by_date[date]
        assert row.tolist() == factors.factors[t].tolist() and rf == factors.rf[t]
    with open(out / "truth.csv", newline="") as fh:
        truth = list(csv.DictReader(fh))
    assert [float(r["mu"]) for r in truth] == mu.tolist()
    assert [int(r["planted"]) for r in truth] == (mu > 0).astype(int).tolist()


def test_planted_panel_feeds_a_benchmark_backtest(tmp_path, monkeypatch):
    out = tmp_path / "planted"
    _run_script(monkeypatch, "--p", "60", "--months", "96", "--seed", "4", "--planted", "6",
                "--benchmark", "--out-dir", str(out))
    with open(out / "truth.csv", newline="") as fh:
        assert sum(int(r["planted"]) for r in csv.DictReader(fh)) == 6

    bt = tmp_path / "bt"
    code = main([
        "backtest", "--returns", str(out / "returns.csv"), "--factors", str(out / "factors.csv"),
        "--benchmark", str(out / "benchmark.csv"), "--fallback", "hold-index",
        "--start-year", "2006", "--end-year", "2007", "--window-years", "5",
        "--grid-m=20,40", "--grid-nu0=-0.2,0", "--grid-tau=0.05,0.1,0.2,0.3",
        "--mc-samples", "200", "--out", str(bt),
    ])
    assert code == 0
    with open(bt / "backtest_track.csv", newline="") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    index = [r for r in rows if r["strategy"] == "index"]
    assert [r["year"] for r in index] == ["2005", "2006", "2007"]


ROOT = Path(__file__).resolve().parents[1]
COMPARE = ROOT / "scripts" / "bench_compare.py"


def _compare(*paths):
    run = subprocess.run([sys.executable, str(COMPARE), *map(str, paths)],
                         capture_output=True, text=True)
    return run.returncode, run.stdout.splitlines(), run.stderr


def test_bench_compare_lines_up_two_trajectory_files():
    """One row per workload and end-to-end metric both files hold: each
    file's change median, the move between them and each file's wins."""
    code, lines, _ = _compare(ROOT / "BENCH_23.json", ROOT / "BENCH_24.json")
    assert code == 0
    rows = {tuple(line.split()[:2]): line.split()[2:] for line in lines[1:]}
    assert len(rows) == 18 == len(lines) - 1
    assert {w for w, _ in rows} == {"simulate-p500", "backtest-p500", "dvalues-p2000"}
    assert rows["dvalues-p2000", "cpu_s"] == ["s", "1.5623", "1.19458", "-23.5%", "10/10", "10/10"]
    assert rows["backtest-p500", "setup_s"] == ["s", "0.168126", "0.215123", "+28.0%", "4/10",
                                                "7/10"]


def test_bench_compare_refuses_a_file_of_another_shape(tmp_path):
    bench = json.loads((ROOT / "BENCH_24.json").read_text())
    del bench["workloads"]["dvalues-p2000"]["metrics"]["cpu_s"]["change"]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(bench))
    code, lines, err = _compare(ROOT / "BENCH_23.json", broken)
    assert code == 2 and lines == []
    assert "dvalues-p2000 cpu_s: needs the keys" in err
    for other in ({"workloads": {}}, [1, 2]):
        broken.write_text(json.dumps(other))
        assert _compare(broken, ROOT / "BENCH_24.json")[0] == 2
    broken.write_text("not json")
    assert _compare(ROOT / "BENCH_23.json", broken)[0] == 2
    assert _compare(ROOT / "BENCH_23.json")[0] == 2
