"""Command-line front end.

Every run hashes its mathematical configuration (everything except --out,
--config, --workers and, for select and rank-compare, --seed) into a
manifest written alongside the outputs; each output file names that
manifest on its first line, and rerunning with the same manifest reproduces
the bytes below that line exactly. Outputs are written only once the
command has succeeded, the manifest last, so a command that fails leaves no
file; a write that fails part-way removes the files it wrote and is a config
error.

Exit codes: 0 ok, 2 config error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import sys

# One BLAS thread per process (`pool` docstring), told to OpenBLAS before
# NumPy loads it, so that it starts no second thread in this process or in the
# pool workers forked from it. `main()` sets the loaded libraries again, for a
# caller that loaded NumPy first.
if "numpy" not in sys.modules:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from . import __version__
from .errors import ConfigError, DataError, NumericalError
from .panel import (
    MIN_WINDOW_MONTHS,
    _csv_records,
    _parse_factors_csv,
    _parse_returns_csv,
    assemble_window,
    carhart_fit,
    open_text,
    window_months,
)
from .pool import _limit_blas_threads, usable_cores
from .selection import (
    bh_select,
    one_sided_pvalues,
    optimal_decision,
    rank_compare,
    select_fdr_stepup,
    select_unskilled,
    storey_select,
)

# The fit, sampler, study and backtest names each command calls, imported on
# first use through the package's lazy exports (PEP 562), so that each command
# loads only the modules it runs: `select` and `rank-compare` none of them,
# `fit` and `dvalues` no study or pool machinery. `main()` binds a command's
# names before its handler runs; a name already bound, such as a wrapper or a
# test's patch set on this module, stays.
_COMMAND_NAMES = {
    "fit": ("GridConfig", "build_dependence", "fit_mixture", "marchenko_pastur_edge"),
    "dvalues": ("GridConfig", "build_dependence", "compute_dvalues", "fit_mixture", "local_fdr",
                "marchenko_pastur_edge"),
    "simulate": ("GridConfig", "SimSetting", "run_sim_study"),
    "backtest": ("BacktestConfig", "GridConfig", "run_backtest"),
}


def __getattr__(name: str):
    """Import a name of the command table from the package and bind it here."""
    if not any(name in names for names in _COMMAND_NAMES.values()):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(sys.modules[__package__], name)
    return value


_UNHASHED = {"command", "config", "out", "workers"}


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad flags through our error channel."""

    def error(self, message):
        raise ConfigError(message)


def _window_arg(text: str) -> tuple[str, str]:
    parts = text.split(":")
    if len(parts) != 2 or not parts[0] or not parts[1]:
        raise argparse.ArgumentTypeError(f"window must be START:END, got {text!r}")
    try:
        window_months(parts[0], parts[1])
    except DataError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return parts[0], parts[1]


def _checked(kind, ok, what: str):
    """An argparse type: `kind` of the text, refused as a usage error unless
    `ok` holds for it. INI values pass through the same type."""
    def parse(text: str):
        try:
            value = kind(text)
            valid = ok(value)
        except ValueError:
            valid = False
        if not valid:
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value
    return parse


_fdr_level = _checked(float, lambda v: 0.0 < v < 1.0, "a number in (0, 1)")
_positive = _checked(float, lambda v: 0.0 < v < math.inf, "a positive number")
_mc_samples = _checked(int, lambda v: v >= 2, "an integer >= 2")
_count = _checked(int, lambda v: v >= 1, "an integer >= 1")
_workers_arg = _checked(int, lambda v: v >= 0, "an integer >= 0")
_months = _checked(int, lambda v: v >= MIN_WINDOW_MONTHS, f"an integer >= {MIN_WINDOW_MONTHS}")


def _float_list(text: str) -> tuple[float, ...]:
    try:
        vals = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
    if not vals:
        raise argparse.ArgumentTypeError("empty grid")
    return vals


def _add_io(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--returns", help="monthly fund return CSV")
    sp.add_argument("--factors", help="factor + risk-free CSV")
    sp.add_argument("--window", type=_window_arg, help="estimation window START:END (YYYY-MM)")


def _add_grids(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--grid-m", type=_float_list, help="subset percentages, comma-separated")
    sp.add_argument("--grid-nu0", type=_float_list, help="spike locations, comma-separated")
    sp.add_argument("--grid-tau", type=_float_list, help="component variances, comma-separated")


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="INI config file (section per subcommand; flags override)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=".", help="output directory")
    sp.add_argument(
        "--workers", type=_workers_arg, default=0,
        help="worker processes for simulate's replications and backtest's holding years "
             "(0 = all available cores); every other command runs in one process",
    )


def build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    parser = _Parser(prog="fundselect", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)
    by_name: dict[str, _Parser] = {}

    sp = subs.add_parser("fit", help="fit the alpha prior from a return panel")
    _add_io(sp)
    _add_grids(sp)
    _add_common(sp)
    by_name["fit"] = sp

    sp = subs.add_parser("dvalues", help="fit, then compute posterior d-values")
    _add_io(sp)
    _add_grids(sp)
    sp.add_argument("--mc-samples", type=_mc_samples, default=2000)
    _add_common(sp)
    by_name["dvalues"] = sp

    sp = subs.add_parser("select", help="select skilled funds at a target FDR level")
    sp.add_argument("--dvalues", help="d-value CSV, as written by dvalues")
    sp.add_argument("--theta", type=_fdr_level, default=0.1, help="FDR target level")
    sp.add_argument("--lambda", dest="lam", type=_positive,
                    help="loss tradeoff for the exact rule")
    _add_common(sp)
    by_name["select"] = sp

    sp = subs.add_parser("simulate", help="run a synthetic replication study")
    sp.add_argument("--p", type=int, default=500, help="number of funds")
    sp.add_argument("--sparsity", default="s1", help="mixture weights pattern (s1 | s2)")
    sp.add_argument("--dep", default="d1", help="dependence pattern (d1 | d2 | d3)")
    sp.add_argument("--theta", type=float, default=0.1)
    sp.add_argument("--reps", type=int, default=50)
    sp.add_argument("--months", type=_months, default=120)
    sp.add_argument("--mc-samples", type=_mc_samples, default=2000)
    _add_grids(sp)
    _add_common(sp)
    by_name["simulate"] = sp

    sp = subs.add_parser("backtest", help="rolling annual re-selection backtest")
    _add_io(sp)
    _add_grids(sp)
    sp.add_argument("--start-year", type=int, help="first holding year")
    sp.add_argument("--end-year", type=int, help="last holding year")
    sp.add_argument("--window-years", type=int, default=10)
    sp.add_argument("--theta", type=float, default=0.15)
    sp.add_argument("--fallback", choices=["hold-cash", "hold-index"], default="hold-cash")
    sp.add_argument("--benchmark", help="benchmark return CSV (date,ret)")
    sp.add_argument("--mc-samples", type=_mc_samples, default=2000)
    _add_common(sp)
    by_name["backtest"] = sp

    sp = subs.add_parser("rank-compare", help="top-n by d-value vs top-n by p-value")
    sp.add_argument("--dvalues", help="d-value CSV with a z column, as written by dvalues")
    sp.add_argument("--top-n", type=_count, default=50)
    _add_common(sp)
    by_name["rank-compare"] = sp

    return parser, by_name


def _apply_config_file(argv, args, parser, by_name):
    """Merge INI values under the subcommand's section, then re-parse so
    explicit flags keep priority."""
    cp = configparser.ConfigParser()
    if not cp.read(args.config):
        raise ConfigError(f"config file not found: {args.config}")
    sub = by_name[args.command]
    if not cp.has_section(args.command):
        return args

    known: dict[str, str] = {}
    for action in sub._actions:
        if action.dest in ("help", "config"):
            continue
        known[action.dest] = action.dest
        for opt in action.option_strings:
            known[opt.lstrip("-").replace("-", "_")] = action.dest

    overrides: dict[str, str] = {}
    for key, value in cp.items(args.command):
        dest = known.get(key.replace("-", "_"))
        if dest is None:
            raise ConfigError(f"unknown key {key!r} in config section [{args.command}]")
        overrides[dest] = value
    sub.set_defaults(**overrides)
    return parser.parse_args(argv)


def _jsonable(value):
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in sorted(value.items())}
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        out = float(value)
        return out if math.isfinite(out) else None
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    return value


class _RunContext:
    """Where outputs go and which manifest they cite."""

    def __init__(self, args):
        # select and rank-compare draw nothing at random: their seed is no config
        unhashed = {*_UNHASHED, "seed"} if args.command in ("select", "rank-compare") else _UNHASHED
        config = {
            k: _jsonable(v) for k, v in sorted(vars(args).items()) if k not in unhashed
        }
        payload = json.dumps(
            {"command": args.command, "config": config},
            sort_keys=True,
            separators=(",", ":"),
        )
        self.hash = hashlib.sha256(payload.encode()).hexdigest()[:12]
        self.manifest_name = f"manifest-{self.hash}.json"
        self.out_dir = args.out
        self.manifest = {
            "command": args.command,
            "config": config,
            "hash": self.hash,
            "seed": config.get("seed"),
            "versions": {
                "fundselect": __version__,
                "numpy": np.__version__,
                "python": platform.python_version(),
            },
        }
        self.outputs: dict[str, str] = {}  # file name -> rendered text

    def write_csv(self, name: str, header: list[str], rows) -> None:
        """Render `rows` (sequences of fields) under `header` with CSV quoting,
        so a fund id holding a comma or a quote reads back intact."""
        buf = io.StringIO()
        buf.write(f"# manifest: {self.manifest_name}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        self.outputs[name] = buf.getvalue()

    def write_json(self, name: str, obj) -> None:
        text = json.dumps(_jsonable(obj), sort_keys=True, indent=2, allow_nan=False)
        self.outputs[name] = f"# manifest: {self.manifest_name}\n{text}\n"

    def save(self) -> None:
        """Write the rendered outputs under --out, creating it, and then the
        manifest. Handlers only render, so a command that fails writes
        nothing, not even --out. A write that fails part-way (a full disk,
        an --out under a regular file) removes the files it wrote and the
        directories it made, and raises ConfigError."""
        made, parent = [], os.path.abspath(self.out_dir)
        while not os.path.exists(parent):
            made.append(parent)
            parent = os.path.dirname(parent)
        written = []
        manifest = json.dumps(self.manifest, sort_keys=True, indent=2)
        try:
            os.makedirs(self.out_dir, exist_ok=True)
            for name, text in [*self.outputs.items(), (self.manifest_name, f"{manifest}\n")]:
                with open(os.path.join(self.out_dir, name), "w", newline="\n") as fh:
                    written.append(fh.name)
                    fh.write(text)
        except OSError as exc:
            with contextlib.suppress(OSError):  # leave what cannot go; report the write
                for path in written:
                    os.remove(path)
                for directory in filter(os.path.isdir, made):
                    os.rmdir(directory)
            raise ConfigError(f"cannot write the outputs under {self.out_dir}: {exc}") from None


def _fmt(x) -> str:
    return repr(float(x))


def _grids(args) -> GridConfig | None:
    given = {
        name: getattr(args, attr)
        for name, attr in (("m_grid", "grid_m"), ("nu0_grid", "grid_nu0"), ("tau_grid", "grid_tau"))
        if getattr(args, attr) is not None
    }
    return GridConfig(**given) if given else None


def _workers(args) -> int:
    return args.workers or usable_cores()


def _require_flags(args, *dests: str) -> None:
    missing = [f"--{dest.replace('_', '-')}" for dest in dests if getattr(args, dest) is None]
    if missing:
        raise ConfigError(f"missing required flag(s): {', '.join(missing)}")


def _load_window(args):
    _require_flags(args, "returns", "factors", "window")
    table = _parse_returns_csv(args.returns)
    by_date = _parse_factors_csv(args.factors)
    return assemble_window(table, by_date, tuple(args.window))


def _run_pipeline(args):
    """Shared panel -> fit path for fit and dvalues."""
    panel, factors, cleaning = _load_window(args)
    estimates = carhart_fit(panel, factors)
    dep = build_dependence(estimates, panel)
    params, diag = fit_mixture(estimates.z, dep, grids=_grids(args), seed=args.seed)
    return panel, cleaning, estimates, dep, params, diag


def _dependence_summary(dep, n_obs: int) -> dict:
    """The factor-rank rule at work: l, lambda_p, the Marchenko-Pastur edge
    and the eigenvalues around it (the l kept ones and the first dropped)."""
    return {
        "l": dep.l,
        "lambda_p": dep.lambda_p,
        "marchenko_pastur_edge": marchenko_pastur_edge(dep.p, n_obs),
        "eigenvalues_head": dep.eigenvalues[: dep.l + 1],
    }


def _selection_summary(res) -> dict:
    return {
        "k": res.k,
        "threshold": res.threshold,
        "conditional_fdr": res.conditional_fdr,
        "conditional_fnr": res.conditional_fnr,
    }


def _read_dvalue_csv(path: str) -> tuple[list[str], dict[str, np.ndarray]]:
    """Read a d-value CSV (our own output format, or any file with at least a
    fund_id and d_value column); a leading '# manifest:' line is skipped.
    Fields follow CSV quoting, so a quoted fund id may contain commas, but
    every record is one line, each fund id appears once, and a z column, where
    there is one, holds finite numbers. Blank lines are skipped; error
    messages name the file's own line numbers."""
    with open_text(path) as fh:
        records = list(_csv_records(fh, path))
    if records and records[0][1][0].startswith("#"):
        records = records[1:]
    if not records:
        raise DataError(f"{path}: empty d-value file")
    header = [c.strip() for c in records[0][1]]
    if "fund_id" not in header or "d_value" not in header:
        raise DataError(f"{path}: need fund_id and d_value columns, got {header}")
    idx = {name: i for i, name in enumerate(header)}
    fund_ids: list[str] = []
    seen: set[str] = set()
    numeric: dict[str, list[float]] = {name: [] for name in header if name != "fund_id"}
    for lineno, cells in records[1:]:
        if len(cells) != len(header):
            raise DataError(f"{path}:{lineno}: expected {len(header)} fields, got {len(cells)}")
        fund_id = cells[idx["fund_id"]].strip()
        if fund_id in seen:
            raise DataError(f"{path}:{lineno}: duplicate fund_id {fund_id!r}")
        seen.add(fund_id)
        fund_ids.append(fund_id)
        for name, vals in numeric.items():
            try:
                vals.append(float(cells[idx[name]]))
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-numeric {name}") from None
        if "z" in numeric and not math.isfinite(numeric["z"][-1]):
            raise DataError(f"{path}:{lineno}: non-finite z")
    cols = {name: np.asarray(vals, dtype=float) for name, vals in numeric.items()}
    d = cols["d_value"]
    if np.any(~np.isfinite(d)) or np.any(d < 0.0) or np.any(d > 1.0):
        raise DataError(f"{path}: d_value column must lie in [0, 1]")
    return fund_ids, cols


def _cmd_fit(args, ctx: _RunContext) -> None:
    panel, cleaning, estimates, dep, params, diag = _run_pipeline(args)
    ctx.write_json("cleaning.json", cleaning)
    ctx.write_json(
        "mixture_params.json",
        {
            "dependence": _dependence_summary(dep, panel.n_months),
            "params": params.as_dict(),
            "diagnostics": {"m_pct": diag.m_pct, "v_hat": diag.v_hat, **diag.surface()},
            "n_funds": len(estimates.fund_ids),
            "n_factors_rank": dep.rank,
        },
    )


def _cmd_dvalues(args, ctx: _RunContext) -> None:
    panel, cleaning, estimates, dep, params, diag = _run_pipeline(args)
    report = compute_dvalues(estimates.z, dep, params, n_samples=args.mc_samples, seed=args.seed)
    ctx.write_json("cleaning.json", cleaning)
    lfdr = local_fdr(estimates.z, params)
    rows = [
        [fid, _fmt(z), _fmt(d), _fmt(q), _fmt(l)]
        for fid, z, d, q, l in zip(
            estimates.fund_ids, estimates.z, report.d, report.los, lfdr
        )
    ]
    ctx.write_csv("dvalues.csv", ["fund_id", "z", "d_value", "los", "local_fdr"], rows)
    ctx.write_json(
        "dvalues_meta.json",
        {
            "dependence": _dependence_summary(dep, panel.n_months),
            "ess": report.ess,
            "n_samples": report.n_samples,
            "params": params.as_dict(),
            **diag.surface(),
        },
    )


def _cmd_select(args, ctx: _RunContext) -> None:
    _require_flags(args, "dvalues")
    fund_ids, cols = _read_dvalue_csv(args.dvalues)
    d, z, los = cols["d_value"], cols.get("z"), cols.get("los")

    skilled = select_fdr_stepup(d, args.theta)
    meta = {"theta": args.theta, "skilled": _selection_summary(skilled)}
    columns: list[tuple[str, list[str]]] = [
        ("fund_id", list(fund_ids)),
        ("d_value", [_fmt(v) for v in d]),
        ("selected_skilled", [str(int(v)) for v in skilled.decisions]),
    ]
    if los is not None:
        unskilled = select_unskilled(los, args.theta)
        columns.append(("selected_unskilled", [str(int(v)) for v in unskilled.decisions]))
        meta["unskilled"] = _selection_summary(unskilled)
    if z is not None:
        pvals = one_sided_pvalues(z)
        bh = bh_select(z, args.theta)
        storey = storey_select(z, args.theta)
        columns.append(("p_value", [_fmt(v) for v in pvals]))
        columns.append(("bh_selected", [str(int(v)) for v in bh.decisions]))
        columns.append(("storey_selected", [str(int(v)) for v in storey.decisions]))
        meta["bh"] = _selection_summary(bh)
        meta["storey"] = _selection_summary(storey)
    if args.lam is not None:
        exact = optimal_decision(d, args.lam)
        columns.append(("lambda_selected", [str(int(v)) for v in exact.decisions]))
        meta["lambda"] = {"lam": args.lam, **_selection_summary(exact)}

    header = [name for name, _ in columns]
    rows = zip(*(col for _, col in columns))
    ctx.write_csv("selection.csv", header, rows)
    ctx.write_json("selection_meta.json", meta)


def _cmd_simulate(args, ctx: _RunContext) -> None:
    setting = SimSetting(
        p=args.p,
        sparsity=args.sparsity,
        dependence=args.dep,
        theta=args.theta,
        reps=args.reps,
        seed=args.seed,
        n_months=args.months,
    )
    metrics = run_sim_study(
        setting, grids=_grids(args), n_samples=args.mc_samples, workers=_workers(args)
    )
    order = ("dvalue", "bh", "storey")
    summary_rows = [
        [
            name,
            _fmt(metrics[name].mean_fdp),
            _fmt(metrics[name].mean_fnp),
            _fmt(metrics[name].mean_selected),
        ]
        for name in order
    ]
    ctx.write_csv(
        "sim_summary.csv", ["method", "mean_fdp", "mean_fnp", "mean_selected"], summary_rows
    )

    long_rows = []
    for name in order:
        m = metrics[name]
        for i, (fdp, fnp, sel) in enumerate(zip(m.fdp, m.fnp, m.selected)):
            long_rows.append([i, name, _fmt(fdp), _fmt(fnp), int(sel)])
    ctx.write_csv("sim_reps.csv", ["rep", "method", "fdp", "fnp", "selected"], long_rows)

    detail = {name: dataclasses.asdict(metrics[name]) for name in order}
    for fields in detail.values():
        del fields["method"]
    ctx.write_json(
        "sim_detail.json", {"setting": dataclasses.asdict(setting), "metrics": detail}
    )


def _cmd_backtest(args, ctx: _RunContext) -> None:
    _require_flags(args, "returns", "factors", "start_year", "end_year")
    config = BacktestConfig(
        start_year=args.start_year,
        end_year=args.end_year,
        window_years=args.window_years,
        theta=args.theta,
        fallback=args.fallback,
        benchmark_csv=args.benchmark,
        n_samples=args.mc_samples,
        grids=_grids(args),
    )
    track = run_backtest(args.returns, args.factors, config, seed=args.seed,
                         workers=_workers(args))

    strategies = sorted(track.values)
    rows = []
    for name in strategies:
        rows.append([track.years[0] - 1, name, _fmt(track.values[name][0]), 0])
    for i, year in enumerate(track.years):
        for name in strategies:
            count = len(track.selections[name].get(year, []))
            rows.append([year, name, _fmt(track.values[name][i + 1]), count])
    ctx.write_csv("backtest_track.csv", ["year", "strategy", "value", "selected_count"], rows)
    ctx.write_json(
        "backtest_selections.json",
        {
            "annualized": track.annualized,
            "fits": {str(y): fit for y, fit in track.fits.items()},
            "selections": {
                name: {str(y): funds for y, funds in sel.items()}
                for name, sel in track.selections.items()
            },
            "years": track.years,
        },
    )


def _cmd_rank_compare(args, ctx: _RunContext) -> None:
    _require_flags(args, "dvalues")
    fund_ids, cols = _read_dvalue_csv(args.dvalues)
    if "z" not in cols:
        raise DataError(f"{args.dvalues}: rank-compare needs a z column")
    d, z = cols["d_value"], cols["z"]
    result = rank_compare(z, d, one_sided_pvalues(z), top_n=args.top_n)
    for key in ("overlap", "d_only", "p_only"):
        result[f"{key}_funds"] = [fund_ids[i] for i in result[key]]
    ctx.write_json("rank_compare.json", result)


_HANDLERS = {
    "fit": _cmd_fit,
    "dvalues": _cmd_dvalues,
    "select": _cmd_select,
    "simulate": _cmd_simulate,
    "backtest": _cmd_backtest,
    "rank-compare": _cmd_rank_compare,
}


def main(argv: list[str] | None = None) -> int:
    # one BLAS thread per process, pool workers included (`pool` docstring)
    _limit_blas_threads(1)
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, by_name = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            args = _apply_config_file(argv, args, parser, by_name)
        ctx = _RunContext(args)
        for name in _COMMAND_NAMES.get(args.command, ()):
            if name not in globals():
                __getattr__(name)
        _HANDLERS[args.command](args, ctx)
        ctx.save()
    except ConfigError as exc:
        print(f"[config-error] {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"[config-error] file not found: {exc.filename}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"[data-error] {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"[numerical-error] {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
