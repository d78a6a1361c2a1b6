"""In-memory span tracing of fundselect from outside the package.

`installed(tracer)` replaces the module-level functions that each layer
hands the next, as they are bound in the calling module's namespace (`cli`,
`backtest`, `simlab`, `mixture`), with wrappers that record one span per call:
name, start, end, parent span and run id, plus a few counts read off the
return value. The originals are put back on exit. `layer_metrics` turns the
spans into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import defaultdict

import numpy as np


def _parsed_rows(by_fund) -> dict:
    return {"rows": sum(len(v) for v in by_fund.values())}


def _dependence_info(dep) -> dict:
    nbytes = sum(v.nbytes for v in vars(dep).values() if isinstance(v, np.ndarray))
    return {"l": dep.l, "rank": dep.rank, "model_mib": nbytes / 2**20}


def _fit_info(result) -> dict:
    trace = result[1].grid_trace
    return {"grid_points": len(trace), "feasible": sum(1 for r in trace if r["feasible"])}


def _dvalue_info(report) -> dict:
    return {"draws": report.n_samples, "ess": report.ess}


# (module, attribute, span name, info extractor) for every traced binding.
# Functions are wrapped where the caller looks them up, so each call site
# is traced once whichever module defines the function.
BINDINGS = [
    *[(mod, attr, name, info)
      for mod in ("cli", "backtest")
      for attr, name, info in (
          ("_parse_returns_csv", "panel.parse", _parsed_rows),
          ("_parse_factors_csv", "panel.parse", None),
          ("assemble_window", "panel.assemble", None),
          ("carhart_fit", "panel.carhart", None),
          ("build_dependence", "dependence.build", _dependence_info),
          ("fit_mixture", "mixture.fit", _fit_info),
          ("compute_dvalues", "dvalues.compute", _dvalue_info),
          ("select_fdr_stepup", "selection.stepup", lambda r: {"k": r.k}),
          ("bh_select", "selection.bh", None),
          ("storey_select", "selection.storey", None),
      )],
    ("cli", "local_fdr", "dvalues.local_fdr", None),
    ("cli", "select_unskilled", "selection.unskilled", None),
    ("cli", "one_sided_pvalues", "selection.pvalues", None),
    ("cli", "run_sim_study", "simlab.study", None),
    ("cli", "run_backtest", "backtest.run", None),
    ("simlab", "_run_one_rep", "simlab.rep", None),
    ("simlab", "generate_panel", "simlab.generate", None),
    ("simlab", "carhart_fit", "panel.carhart", None),
    ("simlab", "build_dependence", "dependence.build", _dependence_info),
    ("simlab", "fit_mixture", "mixture.fit", _fit_info),
    ("simlab", "compute_dvalues", "dvalues.compute", _dvalue_info),
    ("simlab", "select_fdr_stepup", "selection.stepup", lambda r: {"k": r.k}),
    ("simlab", "bh_select", "selection.bh", None),
    ("simlab", "storey_select", "selection.storey", None),
    ("mixture", "lad_regress", "mixture.lad", None),
    ("mixture", "simulate_z", "mixture.simulate_z", None),
    ("mixture", "total_variation", "mixture.total_variation", None),
]

# span fields
NAME, START, END, PARENT, RUN, INFO = range(6)


class Tracer:
    """Collects spans in memory; one run id per CLI call."""

    def __init__(self):
        self.spans: list[list] = []
        self.run = 0
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, self.run, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str):
        """A root span around one CLI call, under a fresh run id."""
        self.run += 1
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, fn, name: str, info):
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[INFO] = {"error": type(exc).__name__}
                raise
            finally:
                self._close(rec)
            if info is not None:
                rec[INFO] = info(out)
            return out

        return traced

    def write(self, path: str) -> None:
        """One JSON array per line: name, start, end (seconds from the first
        span), parent index, run id, info."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s[NAME], s[START] - t0, s[END] - t0, s[PARENT],
                                     s[RUN], s[INFO]]) + "\n")


@contextlib.contextmanager
def installed(tracer: Tracer):
    saved = []
    try:
        for mod_name, attr, name, info in BINDINGS:
            mod = importlib.import_module(f"fundselect.{mod_name}")
            orig = getattr(mod, attr)
            saved.append((mod, attr, orig))
            setattr(mod, attr, tracer.wrap(orig, name, info))
        yield tracer
    finally:
        for mod, attr, orig in reversed(saved):
            setattr(mod, attr, orig)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer figures: summed durations, self times (a span's duration
    minus its direct children's) and counts."""
    dur = [s[END] - s[START] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += dur[i]
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[NAME]].append(i)

    def total(*names):
        return sum(dur[i] for n in names for i in by_name[n])

    def self_time(name):
        return sum(dur[i] - child_time[i] for i in by_name[name])

    def infos(name, key):
        return [spans[i][INFO][key] for i in by_name[name]
                if spans[i][INFO] and key in spans[i][INFO]]

    def errors(name, parent_name=None):
        return sum(1 for i in by_name[name]
                   if spans[i][INFO] and "error" in spans[i][INFO]
                   and (parent_name is None or spans[spans[i][PARENT]][NAME] == parent_name))

    # A backtest year runs from its window's assemble_window call to the next
    # one (or to the end of the backtest).
    years = []
    for b in by_name["backtest.run"]:
        starts = [spans[i][START] for i in by_name["panel.assemble"] if spans[i][PARENT] == b]
        ends = starts[1:] + [spans[b][END]]
        years += [e - s for s, e in zip(starts, ends)]

    grid = sum(infos("mixture.fit", "grid_points"))
    draws = infos("dvalues.compute", "draws")
    ess = infos("dvalues.compute", "ess")
    dvalue_names = ("dvalues.compute", "dvalues.local_fdr")
    selection_names = [n for n in by_name if n.startswith("selection.")]
    return {
        "panel.parse_s": total("panel.parse"),
        "panel.rows": sum(infos("panel.parse", "rows")),
        "panel.assemble_s": total("panel.assemble"),
        "panel.carhart_s": total("panel.carhart"),
        "dependence.build_s": total("dependence.build"),
        "dependence.l": _mean(infos("dependence.build", "l")),
        "dependence.rank": _mean(infos("dependence.build", "rank")),
        "dependence.model_mb": max(infos("dependence.build", "model_mib"), default=0.0),
        "mixture.fit_s": total("mixture.fit"),
        "mixture.fit_self_s": self_time("mixture.fit"),
        "mixture.score_s": total("mixture.simulate_z", "mixture.total_variation"),
        "mixture.simulate_calls": len(by_name["mixture.simulate_z"]),
        "mixture.lad_s": total("mixture.lad"),
        "mixture.lad_calls": len(by_name["mixture.lad"]),
        "mixture.grid_points": grid,
        "mixture.feasible_frac": sum(infos("mixture.fit", "feasible")) / grid if grid else 0.0,
        "dvalues.compute_s": total(*dvalue_names),
        "dvalues.draws": sum(draws),
        "dvalues.ess_frac": _mean(e / n for e, n in zip(ess, draws)),
        "selection.select_s": total(*selection_names),
        "selection.k": _mean(infos("selection.stepup", "k")),
        "simlab.generate_s": total("simlab.generate"),
        "simlab.rep_s": _mean(dur[i] for i in by_name["simlab.rep"]),
        "simlab.failed_reps": errors("simlab.rep"),
        "backtest.year_s": _mean(years),
        "backtest.fit_failed_years": errors("mixture.fit", "backtest.run"),
        "cli.self_s": self_time("cli.main"),
    }
