#!/usr/bin/env python3
"""Compare two benchmark trajectory files (BENCH_<n>.json) metric by metric.

    python3 scripts/bench_compare.py OLD.json NEW.json

Each file holds, per workload and end-to-end metric, a parent commit's and a
change's runs over alternating pairs (the shape of BENCH_24.json). For each
workload both files hold and each metric, this prints the change median of
OLD, the change median of NEW, the relative move from the first to the
second, and each file's wins over its own parent. Medians from two files
were measured on different days and seeds, so a move between them is a
trajectory, not a paired comparison; the wins are. Exits 2 when a file
cannot be read or is not in that shape.
"""

import json
import sys

_SIDE_KEYS = ("median", "q1", "q3")
_METRIC_KEYS = ("unit", "better", "parent", "change", "wins", "losses", "ties",
                "parent_runs", "change_runs")


class ShapeError(Exception):
    pass


def load(path: str) -> dict:
    """The file's {workload: {metric: record}}, checked against the shape."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ShapeError(f"{path}: cannot read: {exc}") from None
    workloads = data.get("workloads") if isinstance(data, dict) else None
    if not isinstance(workloads, dict) or not workloads:
        raise ShapeError(f"{path}: no 'workloads' object")
    for name, wl in workloads.items():
        metrics = wl.get("metrics") if isinstance(wl, dict) else None
        if not isinstance(metrics, dict) or not metrics:
            raise ShapeError(f"{path}: workload {name!r} has no 'metrics' object")
        for metric, rec in metrics.items():
            where = f"{path}: {name} {metric}"
            if not isinstance(rec, dict) or any(k not in rec for k in _METRIC_KEYS):
                raise ShapeError(f"{where}: needs the keys {', '.join(_METRIC_KEYS)}")
            if rec["better"] not in ("lower", "higher"):
                raise ShapeError(f"{where}: 'better' must be 'lower' or 'higher'")
            for side in ("parent", "change"):
                stats = rec[side]
                if not isinstance(stats, dict) or not all(
                        isinstance(stats.get(k), (int, float)) for k in _SIDE_KEYS):
                    raise ShapeError(f"{where}: '{side}' needs numeric {', '.join(_SIDE_KEYS)}")
            if len(rec["parent_runs"]) != len(rec["change_runs"]):
                raise ShapeError(f"{where}: parent and change runs differ in number")
    return {name: wl["metrics"] for name, wl in workloads.items()}


def _wins(rec: dict) -> str:
    return f"{rec['wins']}/{len(rec['change_runs'])}"


def compare(old: dict, new: dict) -> list[str]:
    lines = [f"{'workload':15s} {'metric':20s} {'unit':6s} {'old change':>11s} "
             f"{'new change':>11s} {'move':>8s} {'old wins':>9s} {'new wins':>9s}"]
    for name in [w for w in new if w in old]:
        for metric in [m for m in new[name] if m in old[name]]:
            a, b = old[name][metric], new[name][metric]
            before, after = a["change"]["median"], b["change"]["median"]
            move = f"{(after - before) / before:+.1%}" if before else "n/a"
            lines.append(f"{name:15s} {metric:20s} {b['unit']:6s} {before:11.6g} {after:11.6g} "
                         f"{move:>8s} {_wins(a):>9s} {_wins(b):>9s}")
    for label, only in (("old", set(old) - set(new)), ("new", set(new) - set(old))):
        if only:
            lines.append(f"only in the {label} file: {', '.join(sorted(only))}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: bench_compare.py OLD.json NEW.json", file=sys.stderr)
        return 2
    try:
        old, new = load(argv[0]), load(argv[1])
    except ShapeError as exc:
        print(f"bench_compare: {exc}", file=sys.stderr)
        return 2
    print("\n".join(compare(old, new)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
