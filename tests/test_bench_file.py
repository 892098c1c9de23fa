"""tools/bench_file.py on synthetic perfbench records."""

import importlib.util
import json
import os
import re
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_file.py"
spec = importlib.util.spec_from_file_location("bench_file", TOOL)
bench_file = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_file)


def record(workload, trace, wall, sha="abc123"):
    return {"workload": workload, "seed": 3, "workload_seed": 3, "seconds": 44.0,
            "trace": trace, "metrics": {"wall_s": {"value": wall, "unit": "s"}},
            "provenance": {"backend": "numpy", "numpy": "2.0", "python": "3.11.7",
                           "blas_threads": "1", "nproc": 2, "git_sha": sha}}


def write_records(results, recs):
    """Each record in its own file, later ones newer."""
    results.mkdir(parents=True, exist_ok=True)
    for k, (name, rec) in enumerate(recs):
        path = results / f"{name}.json"
        path.write_text(json.dumps(rec))
        os.utime(path, ns=(10 ** 18 + k * 10 ** 9,) * 2)


def test_newest_record_per_workload_and_trace(tmp_path):
    write_records(tmp_path / "results", [
        ("a", record("identity", 0, 1.0)),
        ("b", record("sex-separation", 1, 2.0)),
        ("c", record("identity", 1, 3.0)),
        ("z", record("identity", 0, 4.0)),   # newer than a, though it sorts last by name
        ("d", record("sex-separation", 0, 5.0)),
    ])
    assert bench_file.main(["--change", "x", "--side", "after", "--note", "n",
                            "--results", str(tmp_path / "results"),
                            "--out", str(tmp_path), "--order", "before, after"]) == 0
    [path] = tmp_path.glob("BENCH_*_x_after.json")
    assert re.fullmatch(r"BENCH_\d{4}-\d\d-\d\d_x_after\.json", path.name)
    got = json.loads(path.read_text())
    assert list(got) == ["side", "git_sha", "note", "commands", "machine", "records"]
    assert (got["side"], got["git_sha"], got["note"]) == ("after", "abc123", "n")
    assert got["commands"] == ["python3 perfbench/run.py --seed 3 --seconds 44 --trace 0",
                               "python3 perfbench/run.py --seed 3 --seconds 44 --trace 1"]
    assert {k: got["machine"][k] for k in ("nproc", "blas_threads", "order")} == \
        {"nproc": 2, "blas_threads": 1, "order": "before, after"}
    assert list(got["records"]) == ["identity/trace0", "sex-separation/trace0",
                                    "sex-separation/trace1", "identity/trace1"]
    assert [r["metrics"]["wall_s"]["value"] for r in got["records"].values()] == [4.0, 5.0, 2.0, 3.0]


def test_records_of_two_commits_need_a_sha(tmp_path):
    results = tmp_path / "results"
    write_records(results, [("a", record("identity", 0, 1.0)),
                            ("b", record("sex-separation", 0, 1.0, sha="def456"))])
    argv = ["--change", "y", "--side", "before", "--note", "n", "--results", str(results),
            "--out", str(tmp_path)]
    with pytest.raises(SystemExit, match="the records disagree on git_sha"):
        bench_file.main(argv)
    assert bench_file.main(argv + ["--git-sha", "working tree"]) == 0
    [path] = tmp_path.glob("BENCH_*_y_before.json")
    got = json.loads(path.read_text())
    assert got["git_sha"] == "working tree"
    assert [r["provenance"]["git_sha"] for r in got["records"].values()] == ["working tree"] * 2


def test_after_naming_the_before_sha_is_refused(tmp_path):
    results = tmp_path / "results"
    write_records(results, [("a", record("identity", 0, 1.0))])
    argv = ["--change", "z", "--note", "n", "--results", str(results), "--out", str(tmp_path)]
    assert bench_file.main(argv + ["--side", "before"]) == 0
    with pytest.raises(SystemExit, match="the after records name the sha of .*abc123: pass --git-sha"):
        bench_file.main(argv + ["--side", "after"])
    assert not list(tmp_path.glob("BENCH_*_z_after.json"))
    assert bench_file.main(argv + ["--side", "after", "--git-sha", "def456"]) == 0
    [path] = tmp_path.glob("BENCH_*_z_after.json")
    assert json.loads(path.read_text())["records"]["identity/trace0"]["provenance"]["git_sha"] == "def456"


def test_no_records_is_an_error(tmp_path, capsys):
    assert bench_file.main(["--change", "y", "--side", "before", "--note", "n",
                            "--results", str(tmp_path), "--out", str(tmp_path)]) == 1
    assert "no perfbench records" in capsys.readouterr().err
