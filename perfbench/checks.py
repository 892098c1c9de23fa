"""Correctness checks on the output directory of one `sweatauth roc` run.

``run_problems`` is the per-run check behind ``fail_rate``: exit code,
tracebacks, score counts, and AUC, DeLong variance and EER against values
recorded for the same workload and seed. ``roc_csv_numeric`` is a named
check reported on its own: both ROC CSVs must parse as numbers and their
trapezoid area must equal the summary AUC.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

LABELS = ("k1", "accumulated")
# AUC, DeLong variance and EER must match the recorded reference this closely
REL_TOL = 1e-9
ABS_TOL = 1e-12
# trapezoid area of a ROC CSV against the summary AUC
AREA_TOL = 1e-9


def load_summary(out_dir):
    with open(os.path.join(out_dir, "summary.json"), "rb") as fh:
        return json.loads(fh.read())


def summary_digest(out_dir):
    """sha256 of summary.json, or None when it cannot be read."""
    try:
        with open(os.path.join(out_dir, "summary.json"), "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def run_problems(out_dir, exit_code, stderr_text, counts, reference) -> list:
    """Everything wrong with one run; an empty list means it passed.

    counts maps each label to its expected n_genuine and n_impostor;
    reference holds the config hash and each label's auc, variance and eer.
    """
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if "Traceback" in stderr_text:
        problems.append("traceback on stderr")
    try:
        summary = load_summary(out_dir)
    except (OSError, ValueError) as exc:
        return problems + [f"summary.json unreadable: {exc}"]
    if summary.get("config_hash") != reference["config_hash"]:
        problems.append(f"config_hash {summary.get('config_hash')!r} != "
                        f"{reference['config_hash']!r}")
    for label in LABELS:
        entry = summary.get(label)
        if not isinstance(entry, dict):
            problems.append(f"summary.json lacks {label}")
            continue
        for key, want in counts[label].items():
            if entry.get(key) != want:
                problems.append(f"{label}.{key} = {entry.get(key)!r}, expected {want}")
        for key, want in reference[label].items():
            got = entry.get(key)
            if (not isinstance(got, (int, float)) or isinstance(got, bool)
                    or not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)):
                problems.append(f"{label}.{key} = {got!r}, reference {want!r}")
    return problems


def roc_csv_numeric(out_dir) -> list:
    """Problems with roc_<label>.csv as numbers; an empty list means it passed."""
    try:
        summary = load_summary(out_dir)
    except (OSError, ValueError) as exc:
        return [f"summary.json unreadable: {exc}"]
    problems = []
    for label in LABELS:
        name = f"roc_{label}.csv"
        try:
            points = _read_roc_points(os.path.join(out_dir, name))
        except (OSError, ValueError) as exc:
            problems.append(f"{name}: {exc}")
            continue
        area = sum((f1 - f0) * (t0 + t1) / 2.0
                   for (f0, t0), (f1, t1) in zip(points, points[1:]))
        want = summary.get(label, {}).get("auc")
        if not isinstance(want, (int, float)) or abs(area - want) > AREA_TOL:
            problems.append(f"{name}: trapezoid area {area!r} != summary auc {want!r}")
    return problems


def _read_roc_points(path):
    points = []
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    if not lines or lines[0] != "threshold,fpr,tpr":
        raise ValueError("missing threshold,fpr,tpr header")
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        try:
            _, fpr, tpr = (float(f) for f in fields)
        except ValueError:
            raise ValueError(f"data line {lineno - 1} is not three numbers: {line[:60]!r}") from None
        points.append((fpr, tpr))
    if len(points) < 2:
        raise ValueError("fewer than two ROC points")
    return points
