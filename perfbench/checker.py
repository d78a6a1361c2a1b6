"""Output checks for the fundselect CLI, used by the benchmark.

Every check returns a list of findings (strings); an empty list means the
output passed. The findings of one CLI call decide whether that call counts
as a failed operation.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

MANIFEST_PREFIX = "# manifest: "
# Slack for comparing a mean recomputed here with the program's own cumsum.
MEAN_TOL = 1e-12


def read_output(path: str) -> tuple[str, str]:
    """Split an output file into its manifest line and the text below it."""
    with open(path, newline="") as fh:
        text = fh.read()
    first, _, body = text.partition("\n")
    return first, body


def read_csv_output(path: str) -> list[dict[str, str]]:
    """Rows of a CLI CSV output, read below its manifest line."""
    _, body = read_output(path)
    return list(csv.DictReader(body.splitlines()))


def read_json_output(path: str):
    _, body = read_output(path)
    return json.loads(body)


def check_exit(returncode: int) -> list[str]:
    return [] if returncode == 0 else [f"exit code {returncode}"]


def check_manifests(out_dir: str, names: tuple[str, ...]) -> list[str]:
    """Each named output exists, and its first line names a manifest that
    exists next to it."""
    findings = []
    for name in names:
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path):
            findings.append(f"{name}: missing")
            continue
        first, _ = read_output(path)
        if not first.startswith(MANIFEST_PREFIX):
            findings.append(f"{name}: first line is not a manifest line")
            continue
        manifest = first[len(MANIFEST_PREFIX):].strip()
        if not os.path.isfile(os.path.join(out_dir, manifest)):
            findings.append(f"{name}: names {manifest}, which does not exist")
    return findings


def body_hashes(out_dir: str, names: tuple[str, ...]) -> dict[str, str]:
    """sha256 of each output's bytes below the manifest line."""
    out = {}
    for name in names:
        path = os.path.join(out_dir, name)
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                data = fh.read()
            out[name] = hashlib.sha256(data.partition(b"\n")[2]).hexdigest()
    return out


def check_repeat(hashes: dict[str, str], reference: dict[str, str] | None) -> list[str]:
    """Outputs of a repeat of one call must hash like the first run's."""
    if reference is None:
        return []
    return [
        f"{name}: bytes differ from an earlier run of the same seed"
        for name in sorted(reference)
        if hashes.get(name) != reference[name]
    ]


def check_row_count(rows: list, expected: int, what: str) -> list[str]:
    return [] if len(rows) == expected else [f"{what}: {len(rows)} rows, expected {expected}"]


def check_unit_interval(rows: list[dict[str, str]], columns: tuple[str, ...], what: str) -> list[str]:
    findings = []
    for col in columns:
        try:
            vals = [float(r[col]) for r in rows]
        except (KeyError, TypeError, ValueError):
            findings.append(f"{what}: column {col} missing or not numeric")
            continue
        bad = sum(1 for v in vals if not 0.0 <= v <= 1.0)
        if bad:
            findings.append(f"{what}: {bad} value(s) of {col} outside [0, 1]")
    return findings


def check_stepup(d: list[float], selected: list[bool], theta: float) -> list[str]:
    """The d-value step-up rule: the selected funds are the smallest d-values
    (a tie is never split), their mean is <= theta, and the selection is
    maximal: adding the next tie block of unselected d-values would push the
    mean above theta."""
    chosen = [v for v, s in zip(d, selected) if s]
    rest = [v for v, s in zip(d, selected) if not s]
    findings = []
    if chosen and sum(chosen) / len(chosen) > theta + MEAN_TOL:
        findings.append(f"step-up: mean selected d-value exceeds theta={theta}")
    if chosen and rest and max(chosen) >= min(rest):
        findings.append("step-up: selection is not the set of smallest d-values")
    if rest:
        lowest = min(rest)
        block = [v for v in rest if v == lowest]
        grown = chosen + block
        if sum(grown) / len(grown) <= theta - MEAN_TOL:
            findings.append("step-up: selection is not maximal")
    return findings


def realized_fdp(selected_ids, null_ids: set[str]) -> float:
    """False-discovery proportion of one selection (0 when nothing is
    selected)."""
    selected_ids = list(selected_ids)
    if not selected_ids:
        return 0.0
    return sum(1 for f in selected_ids if f in null_ids) / len(selected_ids)
