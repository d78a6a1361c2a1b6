"""End-to-end command-line checks: exit codes, file formats, reproducibility."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fundselect
from conftest import write_panel_csvs
from fundselect.cli import _read_dvalue_csv, build_parser, main
from fundselect.errors import DataError, FitFailedError
from fundselect.selection import select_fdr_stepup
from fundselect import simlab
from fundselect.simlab import planted_panel

GRID_FLAGS = [
    "--grid-m=20,40",
    "--grid-nu0=-0.2,-0.1,0",
    "--grid-tau=0.05,0.08,0.10,0.12,0.15,0.20,0.25,0.30",
]
WINDOW = "2000-01:2004-12"


@pytest.fixture(scope="module")
def panel_files(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli-panel")
    panel, factors, mask = planted_panel(
        p=60, n_months=84, n_planted=12, alpha_monthly=0.01, seed=21
    )
    returns_csv, factors_csv = write_panel_csvs(tmp_path, panel, factors)
    return {"returns": returns_csv, "factors": factors_csv, "mask": mask}


@pytest.fixture()
def dvalue_csv(tmp_path):
    """A small hand-made d-value file in the CLI's own output format."""
    path = tmp_path / "dv.csv"
    rows = [
        ("F1", 2.5, 0.01, 0.99),
        ("F2", 1.8, 0.05, 0.95),
        ("F3", 1.2, 0.20, 0.80),
        ("F4", 0.1, 0.20, 0.80),  # tie with F3
        ("F5", -0.4, 0.70, 0.30),
        ("F6", -1.1, 0.95, 0.05),
    ]
    with open(path, "w", newline="\n") as fh:
        fh.write("# manifest: manifest-abcdef123456.json\n")
        fh.write("fund_id,z,d_value,los\n")
        for fid, z, d, los in rows:
            fh.write(f"{fid},{z!r},{d!r},{los!r}\n")
    return str(path)


def _manifest_line(path):
    return Path(path).read_text().splitlines()[0]


def _read_output_json(path):
    lines = Path(path).read_text().splitlines()
    assert lines[0].startswith("# manifest: manifest-")
    return json.loads("\n".join(lines[1:]))


def _manifests_in(out_dir):
    return sorted(p.name for p in Path(out_dir).glob("manifest-*.json"))


# ---------------------------------------------------------------------------
# happy paths


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fit_writes_manifest_and_params(panel_files, tmp_path):
    out = tmp_path / "fit"
    code = main(
        ["fit", "--returns", panel_files["returns"], "--factors", panel_files["factors"],
         "--window", WINDOW, *GRID_FLAGS, "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    manifests = _manifests_in(out)
    assert len(manifests) == 1
    manifest = json.loads((out / manifests[0]).read_text())
    assert manifest["command"] == "fit"
    assert manifest["hash"] in manifests[0]
    assert set(manifest["versions"]) == {"fundselect", "numpy", "python"}
    assert "workers" not in manifest["config"] and "out" not in manifest["config"]

    params = _read_output_json(out / "mixture_params.json")
    pi = params["params"]
    assert pi["pi0"] + pi["pi1"] + pi["pi2"] == pytest.approx(1.0, abs=1e-9)
    assert params["n_funds"] == 60
    assert _manifest_line(out / "cleaning.json") == f"# manifest: {manifests[0]}"
    diag = params["diagnostics"]
    assert set(diag) == {"m_pct", "v_hat", "n_grid_points", "n_feasible", "score",
                         "runner_up_gap", "tv"}
    assert 2 <= diag["n_feasible"] <= diag["n_grid_points"]
    assert np.isfinite(diag["score"]) and diag["runner_up_gap"] >= 0.0
    assert 0.0 < diag["tv"] <= 1.0

    # the factor-rank rule for p = 60 funds over the window's T = 60 months
    dep = params["dependence"]
    assert set(dep) == {"l", "lambda_p", "marchenko_pastur_edge", "eigenvalues_head"}
    assert dep["marchenko_pastur_edge"] == pytest.approx((1.0 + np.sqrt(60 / 59)) ** 2)
    head = dep["eigenvalues_head"]
    assert len(head) == dep["l"] + 1 and head == sorted(head, reverse=True)
    assert all(v > dep["marchenko_pastur_edge"] for v in head[:-1])
    assert head[-1] <= dep["marchenko_pastur_edge"]
    assert 0.0 < dep["lambda_p"] <= 1.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_dvalues_csv_format(panel_files, tmp_path):
    out = tmp_path / "dv"
    code = main(
        ["dvalues", "--returns", panel_files["returns"], "--factors", panel_files["factors"],
         "--window", WINDOW, *GRID_FLAGS, "--mc-samples", "300", "--seed", "3",
         "--out", str(out)]
    )
    assert code == 0
    lines = (out / "dvalues.csv").read_text().splitlines()
    assert lines[0].startswith("# manifest: manifest-")
    assert lines[1] == "fund_id,z,d_value,los,local_fdr"
    assert len(lines) == 2 + 60
    d_col = np.array([float(ln.split(",")[2]) for ln in lines[2:]])
    assert np.all((d_col >= 0.0) & (d_col <= 1.0))

    meta = _read_output_json(out / "dvalues_meta.json")
    assert meta["n_samples"] == 300
    assert 0.0 < meta["ess"] <= 300.0
    assert set(meta["params"]) >= {"pi0", "nu0", "tau1_sq"}
    assert set(meta["dependence"]) == {
        "l", "lambda_p", "marchenko_pastur_edge", "eigenvalues_head"
    }
    assert len(meta["dependence"]["eigenvalues_head"]) == meta["dependence"]["l"] + 1
    # the same fit surface as `fit` writes into mixture_params.json
    assert main(["fit", "--returns", panel_files["returns"], "--factors", panel_files["factors"],
                 "--window", WINDOW, *GRID_FLAGS, "--seed", "3", "--out", str(tmp_path / "f")]) == 0
    fit_diag = _read_output_json(tmp_path / "f" / "mixture_params.json")["diagnostics"]
    for key in ("n_grid_points", "n_feasible", "score", "runner_up_gap", "tv"):
        assert meta[key] == fit_diag[key]


def test_select_from_dvalue_file_matches_library(dvalue_csv, tmp_path):
    out = tmp_path / "sel"
    code = main(
        ["select", "--dvalues", dvalue_csv, "--theta", "0.3", "--lambda", "1.0",
         "--out", str(out)]
    )
    assert code == 0
    lines = (out / "selection.csv").read_text().splitlines()
    header = lines[1].split(",")
    assert header == [
        "fund_id", "d_value", "selected_skilled", "selected_unskilled",
        "p_value", "bh_selected", "storey_selected", "lambda_selected",
    ]
    body = [ln.split(",") for ln in lines[2:]]
    d = np.array([float(r[1]) for r in body])
    got = np.array([int(r[2]) for r in body])
    want = select_fdr_stepup(d, 0.3).decisions
    np.testing.assert_array_equal(got, want)

    meta = _read_output_json(out / "selection_meta.json")
    assert meta["skilled"]["k"] == int(want.sum())
    assert meta["lambda"]["lam"] == 1.0
    assert {"bh", "storey", "unskilled"} <= set(meta)


def test_rank_compare_from_dvalue_file(dvalue_csv, tmp_path):
    out = tmp_path / "rc"
    code = main(["rank-compare", "--dvalues", dvalue_csv, "--top-n", "3", "--out", str(out)])
    assert code == 0
    result = _read_output_json(out / "rank_compare.json")
    assert result["top_n"] == 3
    for key in ("overlap", "d_only", "p_only"):
        assert key in result and f"{key}_funds" in result
    named = set(result["overlap_funds"]) | set(result["d_only_funds"]) | set(result["p_only_funds"])
    assert named <= {"F1", "F2", "F3", "F4", "F5", "F6"}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_backtest_smoke(panel_files, tmp_path):
    out = tmp_path / "bt"
    code = main(
        ["backtest", "--returns", panel_files["returns"], "--factors", panel_files["factors"],
         "--start-year", "2005", "--end-year", "2005", "--window-years", "5",
         *GRID_FLAGS, "--mc-samples", "300", "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    lines = (out / "backtest_track.csv").read_text().splitlines()
    assert lines[1] == "year,strategy,value,selected_count"
    first = lines[2].split(",")
    assert first[0] == "2004" and float(first[2]) == 1.0  # seed row per strategy
    sel = _read_output_json(out / "backtest_selections.json")
    assert set(sel["annualized"]) == {"dvalue", "bh", "storey"}
    assert sel["years"] == [2005]
    assert set(sel["fits"]) == {"2005"}
    fit = sel["fits"]["2005"]
    assert set(fit) == {"status", "n_feasible", "n_grid_points", "score", "runner_up_gap", "tv",
                        "l", "ess"}
    assert fit["status"] in ("fit", "refused")
    assert 0 <= fit["n_feasible"] <= fit["n_grid_points"] == 2 * 3 * 8 * 8
    assert ((fit["status"] == "fit") == (fit["score"] is not None) == (fit["tv"] is not None)
            == (fit["ess"] is not None) == (fit["n_feasible"] > 0))
    assert isinstance(fit["l"], int) and fit["l"] >= 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_backtest_bytes_identical_across_worker_counts(panel_files, tmp_path):
    """Three holding years on one process and on a pool of two: the same
    manifest and the same bytes in every output."""
    args = ["backtest", "--returns", panel_files["returns"], "--factors", panel_files["factors"],
            "--start-year", "2004", "--end-year", "2006", "--window-years", "4",
            *GRID_FLAGS, "--mc-samples", "300", "--seed", "3"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main([*args, "--out", str(out1), "--workers", "1"]) == 0
    assert main([*args, "--out", str(out2), "--workers", "2"]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir()) and len(names) == 3
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert _read_output_json(out1 / "backtest_selections.json")["years"] == [2004, 2005, 2006]


# ---------------------------------------------------------------------------
# reproducibility contract


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_rerun_bytes_identical_across_worker_counts(tmp_path):
    """Same mathematical config, different --out/--workers: same manifest name,
    byte-identical outputs."""
    args = [
        "simulate", "--p", "60", "--sparsity", "s1", "--dep", "d1",
        "--theta", "0.1", "--reps", "2", "--months", "120",
        "--mc-samples", "300", *GRID_FLAGS, "--seed", "5",
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main([*args, "--out", str(out1), "--workers", "1"]) == 0
    assert main([*args, "--out", str(out2), "--workers", "2"]) == 0

    m1, m2 = _manifests_in(out1), _manifests_in(out2)
    assert m1 == m2 and len(m1) == 1
    for name in (m1[0], "sim_summary.csv", "sim_reps.csv", "sim_detail.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_manifest_hash_tracks_math_config_only(dvalue_csv, tmp_path):
    base = ["select", "--dvalues", dvalue_csv, "--theta", "0.3"]
    outs = [tmp_path / c for c in "abc"]
    assert main([*base, "--out", str(outs[0]), "--workers", "1"]) == 0
    assert main([*base, "--out", str(outs[1]), "--workers", "4"]) == 0
    assert main([*base, "--seed", "7", "--out", str(outs[2])]) == 0
    names = [_manifests_in(o)[0] for o in outs]
    assert names[0] == names[1]
    assert names[2] != names[0]


# ---------------------------------------------------------------------------
# configuration file


def test_config_file_supplies_defaults_but_flags_win(dvalue_csv, tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(f"[select]\ntheta = 0.3\ndvalues = {dvalue_csv}\n")

    out1 = tmp_path / "from-ini"
    assert main(["select", "--config", str(ini), "--out", str(out1)]) == 0
    meta = _read_output_json(out1 / "selection_meta.json")
    assert meta["theta"] == 0.3

    out2 = tmp_path / "flag-wins"
    assert main(
        ["select", "--config", str(ini), "--theta", "0.05", "--out", str(out2)]
    ) == 0
    meta = _read_output_json(out2 / "selection_meta.json")
    assert meta["theta"] == 0.05


def test_config_file_errors(dvalue_csv, tmp_path, capsys):
    missing = main(["select", "--dvalues", dvalue_csv, "--config", str(tmp_path / "no.ini")])
    assert missing == 2
    assert "config file not found" in capsys.readouterr().err

    bad = tmp_path / "bad.ini"
    bad.write_text("[select]\nthet = 0.3\n")
    code = main(["select", "--dvalues", dvalue_csv, "--config", str(bad)])
    assert code == 2
    assert "unknown key" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# error channel -> exit codes


def test_unknown_flag_exits_2(capsys):
    assert main(["select", "--no-such-flag"]) == 2
    assert "[config-error]" in capsys.readouterr().err


def test_missing_required_flags_exit_2(capsys):
    assert main(["fit"]) == 2
    assert "missing required flag" in capsys.readouterr().err


def test_backtest_names_its_missing_flags_by_their_spelling(panel_files, capsys):
    code = main(["backtest", "--returns", panel_files["returns"],
                 "--factors", panel_files["factors"]])
    assert code == 2
    err = capsys.readouterr().err
    assert "[config-error] missing required flag(s): --start-year, --end-year\n" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["select", "--theta", "1.5"], "--theta"),
        (["select", "--theta", "0"], "--theta"),
        (["select", "--theta", "nan"], "--theta"),
        (["select", "--lambda", "-1"], "--lambda"),
        (["simulate", "--p", "60", "--reps", "1", *GRID_FLAGS, "--mc-samples", "1"],
         "--mc-samples"),
        (["dvalues", "--mc-samples", "two"], "--mc-samples"),
        (["rank-compare", "--top-n", "0"], "--top-n"),
        (["select", "--workers", "-3"], "--workers"),
        (["select", "--config", "{ini}"], "--theta"),
        (["simulate", "--p", "60", "--reps", "1", "--months", "3"], "--months"),
    ],
    ids=["theta-above-1", "theta-0", "theta-nan", "lambda-negative", "mc-samples-1",
         "mc-samples-text", "top-n-0", "workers-negative", "theta-from-ini", "months-3"],
)
def test_bad_numeric_flags_are_config_errors(argv, flag, dvalue_csv, tmp_path, capsys):
    """A numeric flag out of its range is refused while the command line is
    parsed, before any work, whether it comes as a flag or from the INI."""
    ini = tmp_path / "run.ini"
    ini.write_text("[select]\ntheta = 1.5\n")
    argv = [a.format(ini=ini) for a in argv]
    if argv[0] in ("select", "rank-compare"):
        argv += ["--dvalues", dvalue_csv]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert f"[config-error] argument {flag}: must be " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["select", "rank-compare"])
def test_dvalue_commands_need_a_dvalue_file(command, tmp_path, capsys):
    """select and rank-compare read only a d-value file: without --dvalues,
    from a flag or the INI, they exit 2 and write nothing."""
    ini = tmp_path / "run.ini"
    ini.write_text(f"[{command}]\nseed = 4\n")
    out = tmp_path / "out"
    for extra in ([], ["--config", str(ini)]):
        assert main([command, *extra, "--out", str(out)]) == 2
        assert "[config-error] missing required flag(s): --dvalues\n" in capsys.readouterr().err
        assert not out.exists()


def test_dvalue_commands_take_no_panel(dvalue_csv, panel_files, tmp_path, capsys):
    """A panel flag on select is an unrecognized argument, and a panel key in
    its INI section an unknown key."""
    out = tmp_path / "out"
    assert main(["select", "--dvalues", dvalue_csv, "--returns", panel_files["returns"],
                 "--out", str(out)]) == 2
    assert "[config-error] unrecognized arguments: --returns" in capsys.readouterr().err
    ini = tmp_path / "run.ini"
    ini.write_text(f"[select]\ndvalues = {dvalue_csv}\nreturns = {panel_files['returns']}\n")
    assert main(["select", "--config", str(ini), "--out", str(out)]) == 2
    assert "[config-error] unknown key 'returns' in config section [select]" in \
        capsys.readouterr().err
    assert not out.exists()


def test_missing_input_file_exits_2(tmp_path, capsys):
    code = main(
        ["fit", "--returns", str(tmp_path / "nope.csv"), "--factors",
         str(tmp_path / "nope2.csv"), "--window", WINDOW, "--out", str(tmp_path)]
    )
    assert code == 2
    assert "file not found" in capsys.readouterr().err


def test_malformed_dvalue_file_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("fund_id,d_value\nF1,1.5\n")
    assert main(["select", "--dvalues", str(bad), "--out", str(tmp_path)]) == 3
    assert "[data-error]" in capsys.readouterr().err

    noz = tmp_path / "noz.csv"
    noz.write_text("fund_id,d_value\nF1,0.5\nF2,0.2\n")
    assert main(["rank-compare", "--dvalues", str(noz), "--top-n", "1", "--out", str(tmp_path)]) == 3
    assert "needs a z column" in capsys.readouterr().err


@pytest.mark.parametrize(
    "body,expect",
    [pytest.param("F1,0.5\n\nF2,abc\n", ":5: non-numeric d_value", id="after-blank-line"),
     pytest.param('"F1\nClass A",0.5\nF2,0.2\n', ":3: a quoted field spans lines",
                  id="id-spans-lines"),
     pytest.param("F1,0.1\n\nF1,0.2\nF2,0.9\n", ":5: duplicate fund_id 'F1'",
                  id="duplicate-id")],
)
def test_dvalue_file_errors_name_the_physical_line(tmp_path, body, expect):
    """Line numbers count every line of the file: the manifest line, the
    header and blank lines included."""
    path = tmp_path / "dv.csv"
    path.write_text(f"# manifest: manifest-abcdef123456.json\nfund_id,d_value\n{body}")
    with pytest.raises(DataError) as info:
        _read_dvalue_csv(str(path))
    assert str(info.value) == f"{path}{expect}"


def _with_bad_byte(src, dst, line):
    """Copy `src` to `dst` with a 0xff byte put into line `line`."""
    lines = Path(src).read_bytes().split(b"\n")
    lines[line - 1] = lines[line - 1][:3] + b"\xff" + lines[line - 1][3:]
    dst.write_bytes(b"\n".join(lines))
    return str(dst)


@pytest.mark.parametrize("which,line", [("returns", 4000), ("factors", 3), ("benchmark", 2),
                                        ("dvalues", 4)])
def test_non_utf8_input_is_a_data_error(which, line, panel_files, dvalue_csv, tmp_path, capsys):
    """A byte that is not UTF-8, in any input file, exits 3 naming the file
    and its line, and leaves no --out. The returns file's bad byte lies
    beyond the reader's first chunk."""
    bench = tmp_path / "bench.csv"
    bench.write_text("date,ret\n" + "".join(f"{y}-{m:02d},0.001\n"
                                            for y in range(2000, 2007) for m in range(1, 13)))
    files = {"returns": panel_files["returns"], "factors": panel_files["factors"],
             "benchmark": str(bench), "dvalues": dvalue_csv}
    files[which] = bad = _with_bad_byte(files[which], tmp_path / f"bad-{which}.csv", line)
    out = tmp_path / "out"
    if which == "dvalues":
        argv = ["select", "--dvalues", bad]
    elif which == "benchmark":
        argv = ["backtest", "--returns", files["returns"], "--factors", files["factors"],
                "--benchmark", bad, "--fallback", "hold-index", "--start-year", "2005",
                "--end-year", "2005", "--window-years", "5"]
    else:
        argv = ["dvalues", "--returns", files["returns"], "--factors", files["factors"],
                "--window", WINDOW]
    assert main([*argv, "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"[data-error] {bad}:{line}: not UTF-8 text\n"
    assert not out.exists()


# Single-line fund ids without surrounding whitespace, which the reader strips.
_FUND_IDS = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"), max_size=12
).filter(lambda s: s == s.strip())


@settings(max_examples=80, deadline=None)
@given(rows=st.lists(
    st.tuples(_FUND_IDS, st.floats(0.0, 1.0), st.floats(allow_nan=False, allow_infinity=False)),
    min_size=1, max_size=8, unique_by=lambda row: row[0],
))
@example(rows=[('F1, "Class A"', 0.25, -1.5), ('"q"', 1.0, 0.0), ("", 0.0, 2.0)])
def test_dvalue_csv_round_trips_quoted_fund_ids(tmp_path_factory, rows):
    """A file written by csv.writer, quoting and all, reads back the same
    fund ids, d-values and z values."""
    path = tmp_path_factory.mktemp("dv") / "dv.csv"
    with open(path, "w", newline="") as fh:
        fh.write("# manifest: manifest-abcdef123456.json\n")
        writer = csv.writer(fh)
        writer.writerow(["fund_id", "d_value", "z"])
        writer.writerows(rows)
    fund_ids, cols = _read_dvalue_csv(str(path))
    assert fund_ids == [fid for fid, _, _ in rows]
    assert cols["d_value"].tolist() == [d for _, d, _ in rows]
    assert cols["z"].tolist() == [z for _, _, z in rows]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_quoted_fund_id_survives_dvalues_then_select(tmp_path):
    """An id holding a comma and quotes, accepted on input, is written quoted
    into dvalues.csv and selection.csv, so `select --dvalues` reads the
    CLI's own output back."""
    panel, factors, _ = planted_panel(
        p=60, n_months=84, n_planted=12, alpha_monthly=0.01, seed=21
    )
    odd = 'Fund 3, "Class A"'
    panel.fund_ids = tuple(odd if f == panel.fund_ids[3] else f for f in panel.fund_ids)
    returns_csv, factors_csv = write_panel_csvs(tmp_path, panel, factors)
    dv, sel = tmp_path / "dv", tmp_path / "sel"
    assert main(
        ["dvalues", "--returns", returns_csv, "--factors", factors_csv, "--window", WINDOW,
         *GRID_FLAGS, "--mc-samples", "300", "--seed", "3", "--out", str(dv)]
    ) == 0
    assert main(["select", "--dvalues", str(dv / "dvalues.csv"), "--out", str(sel)]) == 0

    for path in (dv / "dvalues.csv", sel / "selection.csv"):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert all(len(r) == len(rows[0]) for r in rows)
        assert sorted(r[0] for r in rows[1:]) == sorted(panel.fund_ids)
    assert _read_dvalue_csv(str(dv / "dvalues.csv"))[0].count(odd) == 1


def test_invalid_simulation_setting_exits_2(capsys):
    assert main(["simulate", "--p", "10", "--reps", "1"]) == 2
    assert "[config-error]" in capsys.readouterr().err


def test_failing_commands_leave_no_files(dvalue_csv, panel_files, tmp_path, monkeypatch, capsys):
    """A command rejected before it writes any output writes no manifest
    either, not even into the default --out (the working directory)."""
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert main(["fit"]) == 2
    assert main(["select", "--dvalues", dvalue_csv, "--returns", panel_files["returns"]]) == 2
    assert main(["simulate", "--p", "10", "--reps", "1"]) == 2
    panel = ["--returns", panel_files["returns"], "--factors", panel_files["factors"]]
    capsys.readouterr()
    for window, why in (("2000-1:2004-12", "bad date '2000-1'"),
                        ("2004-12:2000-01", "window 2004-12..2000-01 is reversed"),
                        ("2003-01:2003-06", "window 2003-01..2003-06 spans 6 months; need >= 12")):
        assert main(["fit", *panel, "--window", window]) == 2
        assert f"[config-error] argument --window: {why}" in capsys.readouterr().err
    assert list(cwd.iterdir()) == []


def test_numerical_failure_exits_4(panel_files, tmp_path, capsys, monkeypatch):
    def _always_fails(*args, **kwargs):
        raise FitFailedError("no feasible grid point")

    monkeypatch.setattr("fundselect.cli.fit_mixture", _always_fails)
    code = main(
        ["fit", "--returns", panel_files["returns"], "--factors", panel_files["factors"],
         "--window", WINDOW, *GRID_FLAGS, "--out", str(tmp_path / "nf")]
    )
    assert code == 4
    assert "[numerical-error]" in capsys.readouterr().err


def test_failure_after_the_first_output_leaves_no_files(panel_files, tmp_path, monkeypatch, capsys):
    """A handler that fails after rendering some of its outputs writes none of
    them: dvalues fails on its last file, after cleaning.json and dvalues.csv."""
    from fundselect.cli import _RunContext

    render_json = _RunContext.write_json

    def fail_on_meta(self, name, obj):
        if name == "dvalues_meta.json":
            raise DataError("injected failure")
        render_json(self, name, obj)

    monkeypatch.setattr(_RunContext, "write_json", fail_on_meta)
    out = tmp_path / "dv"
    code = main(
        ["dvalues", "--returns", panel_files["returns"], "--factors", panel_files["factors"],
         "--window", WINDOW, *GRID_FLAGS, "--mc-samples", "200", "--out", str(out)]
    )
    assert code == 3
    assert "[data-error] injected failure" in capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []


def test_failed_write_removes_what_it_wrote(dvalue_csv, tmp_path, monkeypatch, capsys):
    """A write that fails part-way -- here the second file opened for
    writing -- removes the file it wrote and the --out it made, keeps an
    --out that was there before, and exits 2; so does an --out under a
    regular file."""
    import builtins

    real_open = builtins.open

    def open_failing_second_write(file, mode="r", *args, **kwargs):
        if "w" in mode:
            writes.append(file)
            if len(writes) == 2:
                raise OSError(28, "No space left on device", file)
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr("fundselect.cli.open", open_failing_second_write, raising=False)
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "other.txt").write_text("x")
    for out in (tmp_path / "new" / "sel", kept):
        writes = []
        assert main(["select", "--dvalues", dvalue_csv, "--theta", "0.3", "--out", str(out)]) == 2
        assert "[config-error] cannot write the outputs" in capsys.readouterr().err
        assert len(writes) == 2
    assert not (tmp_path / "new").exists()
    assert [p.name for p in kept.iterdir()] == ["other.txt"]

    monkeypatch.undo()
    afile = tmp_path / "afile"
    afile.write_text("y")
    assert main(["select", "--dvalues", dvalue_csv, "--out", str(afile / "sub")]) == 2
    assert "[config-error] cannot write the outputs" in capsys.readouterr().err
    assert afile.read_text() == "y"


def _subprocess_env(**extra):
    """This environment with the package's source first on PYTHONPATH."""
    src = str(Path(fundselect.__file__).resolve().parents[1])
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}


def test_cli_import_does_not_load_scipy_special():
    """SciPy is a test-only dependency: importing the CLI loads none of it."""
    code = ("import sys, fundselect.cli; "
            "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], 'loaded'")
    subprocess.run([sys.executable, "-c", code], env=_subprocess_env(), check=True)


# Runs each argv list it is given through the CLI and reports, as JSON lines,
# whether scipy.special is loaded: in this process after each call, and in a
# pool worker after each replication or holding year it ran.
_SCIPY_SPECIAL_PROBE = """
import json, sys
from fundselect import backtest, cli, simlab

def report(where):
    print(json.dumps([where, "scipy.special" in sys.modules]), flush=True)

def rep(args):
    out = run_one_rep(args)
    report("worker")
    return out

def year(job):
    out = year_holdings(job)
    report("worker")
    return out

run_one_rep, year_holdings = simlab._run_one_rep, backtest._year_holdings
simlab._run_one_rep, backtest._year_holdings = rep, year
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
    report(argv[0])
"""


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_no_run_loads_scipy_special(panel_files, tmp_path):
    """A dvalues call, a simulate call and a backtest call, the latter two on
    a pool of two, leave scipy.special unloaded in the CLI's process and in
    every pool worker, each of which computed d-values."""
    panel = ["--returns", panel_files["returns"], "--factors", panel_files["factors"]]
    calls = [
        ["simulate", "--p", "60", "--sparsity", "s1", "--dep", "d1", "--theta", "0.1",
         "--reps", "2", "--months", "120", *GRID_FLAGS, "--mc-samples", "200",
         "--workers", "2", "--out", str(tmp_path / "sim")],
        ["dvalues", *panel, "--window", WINDOW, *GRID_FLAGS, "--mc-samples", "200",
         "--out", str(tmp_path / "dv")],
        ["backtest", *panel, "--start-year", "2005", "--end-year", "2006",
         "--window-years", "5", *GRID_FLAGS, "--mc-samples", "200", "--seed", "3",
         "--workers", "2", "--out", str(tmp_path / "bt")],
    ]
    run = subprocess.run([sys.executable, "-c", _SCIPY_SPECIAL_PROBE, json.dumps(calls)],
                         env=_subprocess_env(), check=True, capture_output=True, text=True)
    reports = [json.loads(line) for line in run.stdout.splitlines() if line.startswith('["')]
    assert [where for where, _ in reports] == ["worker", "worker", "simulate", "dvalues",
                                               "worker", "worker", "backtest"]
    assert not any(loaded for _, loaded in reports)
    fits = _read_output_json(tmp_path / "bt" / "backtest_selections.json")["fits"]
    assert {fit["status"] for fit in fits.values()} == {"fit"}


_OPENBLAS_PROBE = """
import json, sys
from fundselect import cli, simlab

def libraries():
    with open("/proc/self/maps") as fh:
        return sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})

before = libraries()  # NumPy's, loaded with the package
code = cli.main(sys.argv[1:])
threads = [get() for _, get in simlab._openblas_thread_controls()]
print(json.dumps([code, threads, before, libraries()]))
"""


def test_dvalues_run_leaves_every_openblas_on_one_thread(panel_files, tmp_path):
    """A dvalues run maps no OpenBLAS besides the one NumPy brought, and runs
    it on one thread whatever OPENBLAS_NUM_THREADS the caller set."""
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("no /proc/self/maps on this platform")
    argv = ["dvalues", "--returns", panel_files["returns"], "--factors", panel_files["factors"],
            "--window", WINDOW, *GRID_FLAGS, "--mc-samples", "200", "--out", str(tmp_path / "dv")]
    run = subprocess.run([sys.executable, "-c", _OPENBLAS_PROBE, *argv],
                         env=_subprocess_env(OPENBLAS_NUM_THREADS="2"), check=True,
                         capture_output=True, text=True)
    code, threads, before, after = json.loads(run.stdout.splitlines()[-1])
    assert code == 0
    assert after == before
    if not threads:
        pytest.skip("no OpenBLAS loaded")
    assert threads == [1] * len(threads)


_COMMON = {"--config", "--out", "--seed", "--workers"}
_PANEL = {"--returns", "--factors", "--window"}
_GRIDS = {"--grid-m", "--grid-nu0", "--grid-tau"}


@pytest.mark.parametrize("command, options", [
    ("fit", _COMMON | _PANEL | _GRIDS),
    ("dvalues", _COMMON | _PANEL | _GRIDS | {"--mc-samples"}),
    ("select", _COMMON | {"--dvalues", "--theta", "--lambda"}),
    ("simulate", _COMMON | _GRIDS | {"--p", "--sparsity", "--dep", "--theta", "--reps",
                                     "--months", "--mc-samples"}),
    ("backtest", _COMMON | _PANEL | _GRIDS | {"--start-year", "--end-year", "--window-years",
                                              "--theta", "--fallback", "--benchmark",
                                              "--mc-samples"}),
    ("rank-compare", _COMMON | {"--dvalues", "--top-n"}),
])
def test_each_command_has_exactly_its_options(command, options):
    """Each subcommand's option set is pinned: a new or dropped flag is a
    deliberate edit here."""
    _, by_name = build_parser()
    got = {opt for action in by_name[command]._actions for opt in action.option_strings}
    assert got - {"-h", "--help"} == options
    assert set(by_name) == {"fit", "dvalues", "select", "simulate", "backtest", "rank-compare"}


def test_workers_help_names_the_commands_that_use_it():
    parser, by_name = build_parser()
    for name, sub in by_name.items():
        (action,) = [a for a in sub._actions if a.dest == "workers"]
        assert "simulate" in action.help and "backtest" in action.help, name
        assert "one process" in action.help, name


def test_cli_runs_openblas_on_one_thread(dvalue_csv, tmp_path):
    """A CLI call leaves every loaded OpenBLAS on one thread, for itself and
    for the pool workers it forks."""
    controls = simlab._openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS loaded in this process")
    before = [get() for _, get in controls]
    try:
        for set_num_threads, _ in controls:
            set_num_threads(2)
        assert main(["select", "--dvalues", dvalue_csv, "--out", str(tmp_path / "o")]) == 0
        assert [get() for _, get in simlab._openblas_thread_controls()] == [1] * len(controls)
    finally:
        for (set_num_threads, _), threads in zip(controls, before):
            set_num_threads(threads)
