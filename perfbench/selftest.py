#!/usr/bin/env python3
"""Self-test of the output checker: deliberately corrupted outputs must
each count as a failed operation, and the intact ones must not.

Run alone with `python3 perfbench/selftest.py`; `run.py` also runs it before
every benchmark run.
"""

from __future__ import annotations

import os
import sys
import tempfile

from workloads import Call, DValuesP2000

D_VALUES = (0.01, 0.02, 0.05, 0.3, 0.6, 0.9)  # step-up at theta=0.1 keeps 4
MANIFEST = "manifest-000000000000.json"


def _write(path: str, lines: list[str]) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("".join(line + "\n" for line in [f"# manifest: {MANIFEST}", *lines]))


def _fake_outputs(root: str, d_values, selected, drop_last_row=False) -> list[Call]:
    wl = DValuesP2000()
    calls = wl.calls({"returns": "r.csv", "factors": "f.csv", "window": "2000-01:2019-12"},
                     root, seed=0, workers=1)
    for call in calls:
        os.makedirs(call.out_dir, exist_ok=True)
        with open(os.path.join(call.out_dir, MANIFEST), "w") as fh:
            fh.write("{}\n")
    dv_dir, sel_dir = calls[0].out_dir, calls[1].out_dir
    ids = [f"F{i:05d}" for i in range(len(d_values))]
    _write(os.path.join(dv_dir, "dvalues.csv"),
           ["fund_id,z,d_value,los,local_fdr"]
           + [f"{f},0.0,{d!r},{1.0 - d!r},0.5" for f, d in zip(ids, d_values)])
    _write(os.path.join(dv_dir, "cleaning.json"), ["{}"])
    _write(os.path.join(dv_dir, "dvalues_meta.json"), ['{"ess": 100.0}'])
    rows = [f"{f},{d!r},{int(s)}" for f, d, s in zip(ids, d_values, selected)]
    _write(os.path.join(sel_dir, "selection.csv"),
           ["fund_id,d_value,selected_skilled"] + (rows[:-1] if drop_last_row else rows))
    _write(os.path.join(sel_dir, "selection_meta.json"), ["{}"])
    return calls


def run(work_dir: str) -> list[str]:
    """Returns what went wrong; empty when the checker behaves."""
    wl = DValuesP2000()
    wl.p = len(D_VALUES)
    truth = {"null_ids": {"F00003", "F00004", "F00005"}}
    good_sel = [True, True, True, True, False, False]
    problems = []
    with tempfile.TemporaryDirectory(dir=work_dir) as tmp:
        calls = _fake_outputs(os.path.join(tmp, "good"), D_VALUES, good_sel)
        base = wl.check(truth, calls, [0, 0], [None, None])
        if base.failed:
            problems.append(f"intact outputs flagged: {base.findings}")

        cases = {
            "d_value > 1": _fake_outputs(os.path.join(tmp, "range"),
                                         (*D_VALUES[:-1], 1.5), good_sel),
            "missing row": _fake_outputs(os.path.join(tmp, "short"), D_VALUES, good_sel,
                                         drop_last_row=True),
            "step-up not maximal": _fake_outputs(os.path.join(tmp, "stepup"), D_VALUES,
                                                 [True, True, True, False, False, False]),
        }
        for label, case_calls in cases.items():
            got = wl.check(truth, case_calls, [0, 0], [None, None])
            if got.failed < 1:
                problems.append(f"{label}: not counted as a failure")

        repeat = _fake_outputs(os.path.join(tmp, "repeat"), D_VALUES, good_sel)
        _write(os.path.join(repeat[0].out_dir, "dvalues_meta.json"), ['{"ess": 101.0}'])
        got = wl.check(truth, repeat, [0, 0], base.hashes)
        if got.failed < 1:
            problems.append("differing repeat hash: not counted as a failure")
    return problems


if __name__ == "__main__":
    work = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".bench_work")
    os.makedirs(work, exist_ok=True)
    found = run(work)
    for line in found:
        print(f"selftest: {line}", file=sys.stderr)
    print("selftest: ok" if not found else "selftest: FAILED")
    sys.exit(1 if found else 0)
