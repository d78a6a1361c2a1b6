"""The benchmark's workloads: inputs made from a seed, the CLI calls that
run on them, and what the outputs of those calls must satisfy.

An operation is one CLI call, one simulation replication or one backtest
year; `check` counts how many were attempted and how many failed.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

import checker

# 2 x 3 x 16 = 96 grid points: the fit stays small next to parsing,
# the dependence model and the d-value sampler.
COARSE_GRIDS = ("--grid-m=20,40", "--grid-nu0=-0.2,-0.1,0", "--grid-tau=0.05,0.1,0.2,0.3")


@dataclass(frozen=True)
class Call:
    """One CLI invocation: its arguments after `fundselect`, where it
    writes, and the output files it must leave there."""

    argv: list[str]
    out_dir: str
    outputs: tuple[str, ...]


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    findings: list[str] = field(default_factory=list)
    fdps: list[float] = field(default_factory=list)  # one per d-value selection
    hashes: list[dict[str, str]] = field(default_factory=list)  # one per call


def _write_rows(path: str, header: str, rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


def write_panel(directory: str, panel, factors, mu, planted) -> dict[str, str]:
    """Write the CLI's CSV pair plus truth.csv, in the format of
    scripts/make_synthetic_panel.py."""
    os.makedirs(directory, exist_ok=True)
    paths = {n: os.path.join(directory, f"{n}.csv") for n in ("returns", "factors", "truth")}
    _write_rows(
        paths["returns"],
        "date,fund_id,ret",
        (
            f"{date},{fund},{float(panel.returns[t, i])!r}"
            for t, date in enumerate(panel.dates)
            for i, fund in enumerate(panel.fund_ids)
        ),
    )
    _write_rows(
        paths["factors"],
        "date,mkt_rf,smb,hml,mom,rf",
        (
            f"{date}," + ",".join(repr(float(v)) for v in factors.factors[t])
            + f",{float(factors.rf[t])!r}"
            for t, date in enumerate(factors.dates)
        ),
    )
    _write_rows(
        paths["truth"],
        "fund_id,mu,planted",
        (f"{fund},{float(mu[i])!r},{int(planted[i])}" for i, fund in enumerate(panel.fund_ids)),
    )
    return paths


def _checked_call(call: Call, returncode: int, reference, specific) -> tuple[list[str], dict]:
    """Checks every call gets (exit code, manifests, repeat hashes) plus the
    call's own `specific(call)` checks."""
    findings = checker.check_exit(returncode)
    if not findings:
        findings = checker.check_manifests(call.out_dir, call.outputs)
    if not findings:
        try:
            findings = specific(call)
        except (OSError, ValueError, KeyError, TypeError, csv.Error) as exc:
            findings = [f"unreadable output: {exc!r}"]
    hashes = checker.body_hashes(call.out_dir, call.outputs)
    findings += checker.check_repeat(hashes, reference)
    return [f"{call.argv[0]}: {f}" for f in findings], hashes


class DValuesP2000:
    """Desk-scale shape: a p=2000, T=240 mixture panel through `dvalues` on
    coarse grids, then `select`. CSV parsing, the O(p^3) eigendecomposition
    and the p x rank d-value sampler carry the run; the fit stays small."""

    name = "dvalues-p2000"
    p, months, theta = 2000, 240, 0.1
    selections = 1

    def make_inputs(self, directory: str, seed: int) -> dict:
        import numpy as np
        from fundselect.simlab import SimSetting, generate_panel, synthetic_factors
        from fundselect.streams import substream

        setting = SimSetting(p=self.p, sparsity="s1", dependence="d1", theta=self.theta,
                             reps=1, seed=seed, n_months=self.months)
        factors = synthetic_factors(self.months, substream(seed, "factors"))
        panel, factors, mu = generate_panel(setting, substream(seed, "panel"), factors=factors)
        paths = write_panel(directory, panel, factors, mu, mu > 0)
        paths["window"] = f"{panel.dates[0]}:{panel.dates[-1]}"
        paths["null_ids"] = {f for f, m in zip(panel.fund_ids, np.asarray(mu)) if m <= 0.0}
        return paths

    def calls(self, inputs: dict, out_root: str, seed: int, workers: int) -> list[Call]:
        dv_out = os.path.join(out_root, "dvalues")
        sel_out = os.path.join(out_root, "select")
        common = ["--seed", str(seed), "--workers", str(workers)]
        return [
            Call(["dvalues", "--returns", inputs["returns"], "--factors", inputs["factors"],
                  "--window", inputs["window"], *COARSE_GRIDS, *common, "--out", dv_out],
                 dv_out, ("cleaning.json", "dvalues.csv", "dvalues_meta.json")),
            Call(["select", "--dvalues", os.path.join(dv_out, "dvalues.csv"),
                  "--theta", str(self.theta), *common, "--out", sel_out],
                 sel_out, ("selection.csv", "selection_meta.json")),
        ]

    def check(self, inputs, calls, returncodes, references) -> Outcome:
        outcome = Outcome()

        def dvalues(call):
            rows = checker.read_csv_output(os.path.join(call.out_dir, "dvalues.csv"))
            return (checker.check_row_count(rows, self.p, "dvalues.csv")
                    + checker.check_unit_interval(rows, ("d_value", "los", "local_fdr"),
                                                  "dvalues.csv"))

        def select(call):
            rows = checker.read_csv_output(os.path.join(call.out_dir, "selection.csv"))
            findings = (checker.check_row_count(rows, self.p, "selection.csv")
                        + checker.check_unit_interval(rows, ("d_value",), "selection.csv"))
            if not findings:
                d = [float(r["d_value"]) for r in rows]
                chosen = [r["selected_skilled"] == "1" for r in rows]
                findings = checker.check_stepup(d, chosen, self.theta)
                picked = [r["fund_id"] for r, c in zip(rows, chosen) if c]
                outcome.fdps.append(checker.realized_fdp(picked, inputs["null_ids"]))
            return findings

        for call, rc, ref, specific in zip(calls, returncodes, references, (dvalues, select)):
            findings, hashes = _checked_call(call, rc, ref, specific)
            outcome.attempted += 1
            outcome.failed += bool(findings)
            outcome.findings += findings
            outcome.hashes.append(hashes)
        return outcome


class SimulateP500:
    """A replication study at p=500 with the default 26-value tau grid (676
    variance pairs per grid cell): the mixture fit is most of the work and
    there is no CSV I/O. Two replications, one per worker on two cores, keep
    a call near 8 s, so that a run holds enough repeats for its median to
    shed one slow sample."""

    name = "simulate-p500"
    p, reps, theta = 500, 2, 0.1
    selections = reps

    def make_inputs(self, directory: str, seed: int) -> dict:
        return {}  # the study draws its panels from --seed itself

    def calls(self, inputs: dict, out_root: str, seed: int, workers: int) -> list[Call]:
        out = os.path.join(out_root, "simulate")
        return [Call(["simulate", "--p", str(self.p), "--sparsity", "s1", "--dep", "d1",
                      "--theta", str(self.theta), "--reps", str(self.reps),
                      "--grid-m=20,40", "--grid-nu0=-0.2,0",
                      "--seed", str(seed), "--workers", str(workers), "--out", out],
                     out, ("sim_summary.csv", "sim_reps.csv", "sim_detail.json"))]

    def check(self, inputs, calls, returncodes, references) -> Outcome:
        outcome = Outcome(attempted=1 + self.reps)
        kept = 0

        def simulate(call):
            nonlocal kept
            reps = checker.read_csv_output(os.path.join(call.out_dir, "sim_reps.csv"))
            summary = checker.read_csv_output(os.path.join(call.out_dir, "sim_summary.csv"))
            ours = [r for r in reps if r["method"] == "dvalue"]
            kept = len(ours)
            outcome.fdps += [float(r["fdp"]) for r in ours]
            return (checker.check_row_count(reps, 3 * self.reps, "sim_reps.csv")
                    + checker.check_row_count(summary, 3, "sim_summary.csv")
                    + checker.check_unit_interval(reps, ("fdp", "fnp"), "sim_reps.csv"))

        findings, hashes = _checked_call(calls[0], returncodes[0], references[0], simulate)
        outcome.failed = bool(findings) + (self.reps - kept)
        outcome.findings = findings
        outcome.hashes.append(hashes)
        return outcome


class BacktestP500:
    """The same layers used differently: each holding year refits a p > T
    window with weak factors, so l = T-1 = 119, LAD runs on 119 columns and
    only part of the grid is feasible."""

    name = "backtest-p500"
    p, months, planted, alpha_monthly = 500, 156, 20, 0.005
    years, theta = (2010, 2011, 2012), 0.15
    strategies = ("bh", "dvalue", "storey")
    selections = len(years)

    def make_inputs(self, directory: str, seed: int) -> dict:
        from fundselect.simlab import planted_panel

        panel, factors, planted = planted_panel(
            self.p, self.months, self.planted, self.alpha_monthly, seed)
        mu = [self.alpha_monthly if flag else 0.0 for flag in planted]
        paths = write_panel(directory, panel, factors, mu, planted)
        paths["null_ids"] = {f for f, flag in zip(panel.fund_ids, planted) if not flag}
        return paths

    def calls(self, inputs: dict, out_root: str, seed: int, workers: int) -> list[Call]:
        out = os.path.join(out_root, "backtest")
        return [Call(["backtest", "--returns", inputs["returns"], "--factors", inputs["factors"],
                      "--start-year", str(self.years[0]), "--end-year", str(self.years[-1]),
                      "--window-years", "10", "--theta", str(self.theta), *COARSE_GRIDS,
                      "--seed", str(seed), "--workers", str(workers), "--out", out],
                     out, ("backtest_track.csv", "backtest_selections.json"))]

    def check(self, inputs, calls, returncodes, references) -> Outcome:
        outcome = Outcome(attempted=1 + len(self.years))
        done_years = 0

        def backtest(call):
            nonlocal done_years
            track = checker.read_csv_output(os.path.join(call.out_dir, "backtest_track.csv"))
            picks = checker.read_json_output(
                os.path.join(call.out_dir, "backtest_selections.json"))["selections"]
            findings = checker.check_row_count(
                track, (len(self.years) + 1) * len(self.strategies), "backtest_track.csv")
            for row in track:
                value = float(row["value"])
                if not 0.0 < value < float("inf"):
                    findings.append(f"backtest_track.csv: value {value} is not positive and finite")
                year, name = row["year"], row["strategy"]
                if int(year) in self.years and int(row["selected_count"]) != len(picks[name][year]):
                    findings.append(f"backtest_track.csv: {name} {year} count disagrees")
            dvalue = picks["dvalue"]
            done_years = sum(str(y) in dvalue for y in self.years)
            outcome.fdps += [checker.realized_fdp(dvalue[str(y)], inputs["null_ids"])
                             for y in self.years if str(y) in dvalue]
            return findings

        findings, hashes = _checked_call(calls[0], returncodes[0], references[0], backtest)
        outcome.failed = bool(findings) + (len(self.years) - done_years)
        outcome.findings = findings
        outcome.hashes.append(hashes)
        return outcome


WORKLOADS = {w.name: w for w in (DValuesP2000(), SimulateP500(), BacktestP500())}
