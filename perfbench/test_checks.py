"""Tests for the benchmark's own checks: python3 -m pytest perfbench"""

import json
import os
import sys

import pytest

import checks
import run

REFERENCE = {
    "config_hash": "0123456789abcdef",
    "k1": {"auc": 0.75, "variance": 0.0012345678901234, "eer": 0.25},
    "accumulated": {"auc": 1.0, "variance": 0.0, "eer": 0.0},
}
COUNTS = {"k1": {"n_genuine": 2, "n_impostor": 2},
          "accumulated": {"n_genuine": 2, "n_impostor": 2}}
# (fpr, tpr) points whose trapezoid areas are the reference AUCs
POINTS = {"k1": [(0.0, 0.0), (0.0, 0.5), (0.5, 0.5), (0.5, 1.0), (1.0, 1.0)],
          "accumulated": [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)]}


def write_run(path, summary=None, roc_format=repr):
    os.makedirs(path, exist_ok=True)
    if summary is None:
        summary = {"config_hash": REFERENCE["config_hash"]}
        for label in checks.LABELS:
            summary[label] = dict(REFERENCE[label], **COUNTS[label])
    with open(os.path.join(path, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for label, points in POINTS.items():
        with open(os.path.join(path, f"roc_{label}.csv"), "w") as fh:
            fh.write("# config_hash=0123456789abcdef\nthreshold,fpr,tpr\n")
            for k, (fpr, tpr) in enumerate(points):
                fh.write(f"{roc_format(float(len(points) - k))},"
                         f"{roc_format(fpr)},{roc_format(tpr)}\n")
    return summary


def test_untampered_run_passes(tmp_path):
    write_run(tmp_path)
    assert checks.run_problems(tmp_path, 0, "", COUNTS, REFERENCE) == []
    assert checks.roc_csv_numeric(tmp_path) == []


@pytest.mark.parametrize("label,key,value", [
    ("k1", "auc", 0.7500001),
    ("k1", "variance", 0.00123457),
    ("accumulated", "eer", 0.04),
    ("accumulated", "auc", "1.0"),
    ("k1", "n_genuine", 3),
    ("accumulated", "n_impostor", 1),
])
def test_tampered_summary_is_rejected(tmp_path, label, key, value):
    summary = write_run(tmp_path)
    summary[label][key] = value
    write_run(tmp_path, summary)
    problems = checks.run_problems(tmp_path, 0, "", COUNTS, REFERENCE)
    assert len(problems) == 1 and f"{label}.{key}" in problems[0]


def test_changed_config_hash_and_missing_label_are_rejected(tmp_path):
    summary = write_run(tmp_path)
    summary["config_hash"] = "fedcba9876543210"
    del summary["accumulated"]
    write_run(tmp_path, summary)
    problems = checks.run_problems(tmp_path, 0, "", COUNTS, REFERENCE)
    assert any("config_hash" in p for p in problems)
    assert any("lacks accumulated" in p for p in problems)


def test_exit_code_traceback_and_missing_summary_are_rejected(tmp_path):
    write_run(tmp_path)
    stderr = "Traceback (most recent call last):\n  ...\nValueError: boom\n"
    problems = checks.run_problems(tmp_path, 1, stderr, COUNTS, REFERENCE)
    assert problems == ["exit code 1", "traceback on stderr"]
    os.remove(tmp_path / "summary.json")
    problems = checks.run_problems(tmp_path, 0, "", COUNTS, REFERENCE)
    assert len(problems) == 1 and "summary.json unreadable" in problems[0]


def test_roc_csv_numeric_rejects_numpy_scalar_reprs(tmp_path):
    write_run(tmp_path, roc_format=lambda x: f"np.float64({x!r})")
    problems = checks.roc_csv_numeric(tmp_path)
    assert len(problems) == 2
    assert all("is not three numbers" in p for p in problems)


def test_roc_csv_numeric_rejects_area_that_differs_from_auc(tmp_path):
    summary = write_run(tmp_path)
    summary["k1"]["auc"] = 0.8
    write_run(tmp_path, summary)
    problems = checks.roc_csv_numeric(tmp_path)
    assert len(problems) == 1 and "roc_k1.csv: trapezoid area 0.75" in problems[0]


def test_summary_bytes_must_repeat_across_runs(tmp_path):
    runs = []
    for k in range(3):
        out = tmp_path / f"run{k}"
        summary = write_run(out)
        runs.append({"out": out, "exit": 0, "stderr": "", "record": {}})
    summary["seeds"] = {"series_seed": 1}   # same values, different bytes
    write_run(tmp_path / "run2", summary)
    run.check_runs(runs, COUNTS, REFERENCE)
    assert [r["problems"] for r in runs[:2]] == [[], []]
    assert runs[2]["problems"] == ["summary.json differs from the first run of this seed"]


def test_percentile_tail_keeps_ten_samples_above():
    assert run.percentile_tail(list(range(10))) is None
    assert run.percentile_tail(list(range(11))) == (9, 0)
    p, value = run.percentile_tail([float(v) for v in range(100)])
    assert p == 90 and sum(v > value for v in range(100)) >= 10


def test_tracer_records_calls_through_from_imports():
    sys.path.insert(0, run.SRC)
    import numpy as np
    import sweatauth.pipeline as pipeline
    from sweatauth import auth
    from spans import Tracer, layer_of

    tracer = Tracer()
    tracer.install()
    assert tracer.bindings["sweatauth.auth.score_step"] >= 2
    tpl = auth.enroll([[0.0, 1.0], [1.0, 0.0]], k_reg=2, lam=0.1)
    pipeline.score_step(tpl, np.array([0.5, 0.5]))
    auth.score_step(tpl, np.array([0.5, 0.5]))
    names = [s[0] for s in tracer.spans]
    assert names.count("sweatauth.auth.score_step") == 2
    assert names.count("sweatauth.auth.enroll") == 1
    assert layer_of("sweatauth.metrics.write_roc_csv") == "cli"
    assert layer_of("sweatauth.pipeline.channel_features") == "transduce"
    assert layer_of("sweatauth._kernels.rk4_batch") == "kinetics"
