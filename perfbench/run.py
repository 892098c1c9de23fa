#!/usr/bin/env python3
"""End-to-end benchmark of `sweatauth roc`, with a traced per-layer run.

usage: python3 perfbench/run.py --workload NAME... --seed N --seconds S --trace 0|1

Without --workload it runs identity, sex-separation and identity-n100-coarse
in turn, each printing its own block and JSON line.

Run it from the root of a checkout: the package is imported from ./src and
nothing is installed. Every run of a workload is a fresh
``sweatauth roc --jobs 1`` child process (closed loop, one client, runs back
to back, BLAS held at one thread). The workload's config is copied from
perfbench/workloads/ and the seed reaches the program only as
``--seed-override N % 16``; perfbench/reference.json holds the expected
results for each of those 16 seeds.

--trace 0 measures end-to-end metrics: a few set-up probes (spawn until the
config is loaded), then full runs until S seconds have passed, at least two.
--trace 1 times the kernel layer (perfbench/kernels.py), then alternates
untraced runs with runs that wrap every public function of the package in a
span (perfbench/spans.py), at least one of each, and reports per-layer
metrics; trace.overhead_s is the traced minus the untraced median wall.

Every run is checked (perfbench/checks.py); the named check roc_csv_numeric
is reported but kept out of fail_rate. Human-readable lines go to stdout,
then one JSON line: {"correct", "attempted", "failed", "metrics"}. A full
record of the run is written under .perfbench/results/.

To record new reference values after a deliberate change of results:
python3 perfbench/run.py --record-reference
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(HERE, "reference.json")

sys.path.insert(0, HERE)
import checks  # noqa: E402
from spans import layer_of  # noqa: E402

WORKLOADS = ("identity", "sex-separation", "identity-n100-coarse")
N_SEEDS = 16              # workload seed = --seed % N_SEEDS
SETUP_PROBES = 5          # set-up only children per end-to-end run
MIN_RUNS = 2              # full runs per end-to-end run, for the determinism check
RUN_LIMIT_S = 170.0       # no child may end later than this after start
UNACCOUNTED_SHARE = 0.05  # traced run flags itself above this share of wall
KERNEL_CASCADES = ("AltPoxHrp", "GldhA", "AspGlu")
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class ChildTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ChildTimeout()


def spawn(argv, out_dir, tag, timeout_s):
    """Run one child to completion; wall, cpu and peak RSS are its own."""
    stdout = open(os.path.join(out_dir, f"{tag}.out"), "wb")
    stderr = open(os.path.join(out_dir, f"{tag}.err"), "wb")
    env = dict(os.environ, **CHILD_ENV)
    with stdout, stderr:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, *argv], stdout=stdout, stderr=stderr,
                                cwd=ROOT, env=env)
        signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, max(timeout_s, 1.0))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.monotonic()
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(os.path.join(out_dir, f"{tag}.err"), errors="replace") as fh:
        stderr_text = fh.read()
    return {"tag": tag, "start": start, "wall_s": end - start,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "exit": proc.returncode, "stderr": stderr_text}


def run_child(run_dir, tag, config, seed, deadline, trace=False, setup_only=False):
    out = os.path.join(run_dir, tag)
    os.makedirs(out)
    record_path = os.path.join(out, "record.json")
    argv = [os.path.join(HERE, "child.py"), "--src", SRC, "--record", record_path]
    argv += ["--trace"] * trace + ["--setup-only"] * setup_only
    argv += ["--", "roc", "--config", config, "--out", out,
             "--seed-override", str(seed), "--jobs", "1"]
    res = spawn(argv, out, "child", deadline - time.monotonic())
    res.update(tag=tag, out=out)
    try:
        with open(record_path) as fh:
            res["record"] = json.load(fh)
        res["setup_s"] = res["record"]["setup_done"] - res["start"]
    except (OSError, ValueError, KeyError):
        res["record"] = None
    return res


def check_runs(runs, counts, reference):
    """Per-run problems, including summary.json bytes differing between runs."""
    digests = [checks.summary_digest(r["out"]) for r in runs]
    first = next((d for d in digests if d), None)
    for r, digest in zip(runs, digests):
        r["problems"] = checks.run_problems(r["out"], r["exit"], r["stderr"],
                                            counts, reference)
        if r["record"] is None:
            r["problems"].append("child wrote no record")
        if digest and digest != first:
            r["problems"].append("summary.json differs from the first run of this seed")
        r["roc_csv_numeric"] = checks.roc_csv_numeric(r["out"])


def percentile_tail(values):
    """Highest whole percentile with at least ten samples above it, or None."""
    n = len(values)
    if n < 11:
        return None
    p = int(100 * (n - 10) / n)
    rank = max(0, min(n - 1, -(-p * n // 100) - 1))
    return p, sorted(values)[rank]


def end_to_end(runs, probes, rows):
    wall = [r["wall_s"] for r in runs]
    setup = [r["setup_s"] for r in runs + probes if "setup_s" in r]
    failed = sum(bool(r["problems"]) for r in runs)
    return {
        "wall_s": (statistics.median(wall), "s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in runs), "s"),
        "rows_per_s": (rows / statistics.median(wall), "1/s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
        "setup_s": (statistics.median(setup) if setup else 0.0, "s"),
        "pass_rate": ((len(runs) - failed) / len(runs), "ratio"),
    }


def layer_metrics(run, untraced_wall):
    """Per-layer metrics from one traced run's spans."""
    rec = run["record"]
    spans = rec["spans"]
    layers = [layer_of(s[0]) if s[0].startswith("sweatauth.") else s[0] for s in spans]
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]

    def total(pred, value=lambda i, s: s[2] - s[1]):
        return sum(value(i, s) for i, s in enumerate(spans) if pred(i, s))

    def named(fn):
        return lambda i, s: s[0] == "sweatauth." + fn

    def top_of(layer):
        return lambda i, s: layers[i] == layer and (s[3] < 0 or layers[s[3]] != layer)

    def work(key):
        return lambda i, s: (s[4] or {}).get(key, 0)

    def self_time(i, s):
        return s[2] - s[1] - child_time[i]

    integrate = total(top_of("kinetics"))
    batch = named("kinetics.simulate_batch")
    trace = named("kinetics.simulate")
    rk4_steps = total(lambda i, s: batch(i, s) or trace(i, s),
                      lambda i, s: work("rows")(i, s) * work("steps")(i, s))
    top_level = total(lambda i, s: s[3] < 0)
    window = rec["dump_start"] - run["start"]
    m = {
        "config.load_s": (total(top_of("config")), "s"),
        "cohort.sample_s": (total(top_of("cohort")), "s"),
        "cohort.individuals": (total(named("cohort.mimic_cohort"), work("individuals")), "count"),
        "kinetics.integrate_s": (integrate, "s"),
        "kinetics.batch_calls": (total(batch, lambda i, s: 1), "count"),
        "kinetics.rows": (total(batch, work("rows")), "count"),
        "kinetics.rk4_steps": (rk4_steps, "count"),
        "kinetics.rhs_evals": (4 * rk4_steps, "count"),
        "kinetics.row_steps_per_s": (rk4_steps / integrate if integrate else 0.0, "1/s"),
        "kinetics.trace_calls": (total(trace, lambda i, s: 1), "count"),
        "transduce.self_s": (total(lambda i, s: layers[i] == "transduce", self_time), "s"),
        "digitize.consolidate_s": (total(named("digitize.consolidate")), "s"),
        "digitize.consolidate_calls": (total(named("digitize.consolidate"), lambda i, s: 1), "count"),
        "auth.enroll_s": (total(named("auth.enroll")), "s"),
        "auth.enroll_calls": (total(named("auth.enroll"), lambda i, s: 1), "count"),
        "auth.score_s": (total(named("auth.score_step")), "s"),
        "auth.score_calls": (total(named("auth.score_step"), lambda i, s: 1), "count"),
        "metrics.roc_s": (total(named("metrics.roc_curve")), "s"),
        "metrics.delong_s": (total(named("metrics.delong_variance")), "s"),
        "metrics.pairs": (total(named("metrics.delong_variance"), work("pairs")), "count"),
        "metrics.roc_points": (total(named("metrics.roc_curve"), work("points")), "count"),
        "cli.write_s": (total(top_of("cli")), "s"),
        "cli.bytes_written": (total(top_of("cli"), work("bytes")), "B"),
        "pipeline.self_s": (total(lambda i, s: layers[i] == "pipeline", self_time), "s"),
        "trace.wall_s": (run["wall_s"], "s"),
        "trace.overhead_s": (run["wall_s"] - untraced_wall, "s"),
        "trace.unaccounted_s": (window - top_level, "s"),
    }
    coverage = {layer: layers.count(layer) for layer in sorted(set(layers))}
    return m, coverage, window


def provenance(runs):
    rec = next((r["record"] for r in runs if r.get("record")), {}) or {}
    sha = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        sha = got.stdout.strip() or sha
    return {"backend": rec.get("backend"), "numpy": rec.get("numpy"),
            "python": rec.get("python", platform.python_version()),
            "blas_threads": CHILD_ENV["OPENBLAS_NUM_THREADS"],
            "nproc": len(os.sched_getaffinity(0)), "git_sha": sha}


def print_metric(name, value, unit, note=""):
    print(f"  {name:<34} {value:>16.6g} {unit:<6} {note}".rstrip())


def run_benchmark(workload, seed, seconds, trace):
    run_dir = os.path.join(WORK_DIR, f"{workload}-s{seed}-t{trace}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        return _run_in(run_dir, workload, seed, seconds, trace)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run_in(run_dir, workload, seed, seconds, trace):
    with open(REFERENCE) as fh:
        ref = json.load(fh)["workloads"][workload]
    work_seed = seed % N_SEEDS
    reference = ref["seeds"][str(work_seed)]
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    config = os.path.join(run_dir, "config.json")
    shutil.copyfile(os.path.join(HERE, "workloads", f"{workload}.json"), config)
    with open(config) as fh:
        cfg = json.load(fh)
    rows = (sum(g["n"] for g in cfg["cohort"]["groups"])
            * cfg["cohort"]["schedule"]["steps"] * len(cfg["channels"]))

    probes, runs, traced, kernel = [], [], [], {}
    try:
        if trace:
            res = spawn([os.path.join(HERE, "kernels.py"), "--src", SRC, "--config", config,
                         "--seed", str(seed)], run_dir, "kernels", deadline - time.monotonic())
            if res["exit"] == 0:
                with open(os.path.join(run_dir, "kernels.out")) as fh:
                    kernel = json.load(fh)
            # untraced and traced runs alternate, so both see the same machine
            while not traced or _room(start, seconds, runs + traced, pair=True):
                runs.append(run_child(run_dir, f"untraced{len(runs)}", config,
                                      work_seed, deadline))
                traced.append(run_child(run_dir, f"traced{len(traced)}", config,
                                        work_seed, deadline, trace=True))
        else:
            for k in range(SETUP_PROBES):
                probes.append(run_child(run_dir, f"probe{k}", config, work_seed,
                                        deadline, setup_only=True))
            while len(runs) < MIN_RUNS or _room(start, seconds, runs):
                runs.append(run_child(run_dir, f"run{len(runs)}", config, work_seed, deadline))
        check_runs(runs + traced, ref["counts"], reference)
    except ChildTimeout:
        print("a child did not finish in time", file=sys.stderr)
        return 1

    all_runs = runs + traced
    failed = [r for r in all_runs if r["problems"]]
    problems = [f"{r['tag']}: {p}" for r in failed for p in r["problems"]]
    problems += [f"{p['tag']}: set-up probe exit {p['exit']}"
                 for p in probes if p["exit"] != 0 or "setup_s" not in p]
    roc_bad = [r for r in all_runs if r["roc_csv_numeric"]]
    prov = provenance(all_runs)

    print(f"workload {workload}: seed {seed} -> --seed-override {work_seed}, "
          f"config_hash {sorted({(r['record'] or {}).get('config_hash') for r in all_runs}, key=str)}")
    print(f"  provenance: " + " ".join(f"{k}={v}" for k, v in prov.items()))
    fail_rate = len(failed) / len(all_runs)
    metrics, notes = {}, {}
    if trace:
        untraced_wall = statistics.median(r["wall_s"] for r in runs)
        per_run = [layer_metrics(r, untraced_wall) for r in traced if r["record"]]
        for m, coverage, window in per_run:
            share = m["trace.unaccounted_s"][0] / window
            print(f"  trace coverage: spans per layer {coverage}; "
                  f"unaccounted {share:.2%} of {window:.3f} s")
            if share > UNACCOUNTED_SHARE:
                problems.append(f"trace: unaccounted {share:.2%} of wall exceeds "
                                f"{UNACCOUNTED_SHARE:.0%}; a layer has lost its wrapper")
        if per_run:
            metrics = {name: (statistics.median(m[name][0] for m, _, _ in per_run), unit)
                       for name, (_, unit) in per_run[0][0].items()}
        else:
            problems.append("trace: no traced run wrote its spans")
        for kind in KERNEL_CASCADES:
            metrics[f"kinetics.{kind}.row_steps_per_s"] = (kernel.get(kind, 0.0), "1/s")
        if not kernel:
            problems.append("kernel layer run failed")
        print(f"  {len(traced)} traced and {len(runs)} untraced runs; "
              f"untraced wall {untraced_wall:.3f} s (median)")
    else:
        metrics = end_to_end(runs, probes, rows)
        tail = percentile_tail([r["wall_s"] for r in runs])
        notes = {
            "wall_s": f"median of {len(runs)} runs; " + (
                f"p{tail[0]} {tail[1]:.4f} s" if tail else "tail percentile needs >= 11 runs"),
            "setup_s": f"median of {len(probes)} probes + {len(runs)} runs",
            "rows_per_s": f"{rows} assay rows per run",
        }
    for name, (value, unit) in metrics.items():
        print_metric(name, value, unit, notes.get(name, ""))
    print_metric("fail_rate", fail_rate, "ratio", f"{len(failed)} of {len(all_runs)} runs")
    verdict = "FAIL" if roc_bad else "pass"
    first_bad = roc_bad[0]["roc_csv_numeric"][0] if roc_bad else ""
    print(f"  check roc_csv_numeric: {verdict} ({len(roc_bad)} of {len(all_runs)} runs) "
          f"{first_bad}".rstrip())
    for p in problems:
        print(f"  problem: {p}")

    results_dir = os.path.join(WORK_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    result_path = os.path.join(results_dir, os.path.basename(run_dir) + ".json")
    with open(result_path, "w") as fh:
        json.dump({
            "workload": workload, "seed": seed, "workload_seed": work_seed,
            "seconds": seconds, "trace": trace, "provenance": prov,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "fail_rate": fail_rate, "problems": problems,
            "roc_csv_numeric": {r["tag"]: r["roc_csv_numeric"] for r in all_runs},
            "runs": [{k: r.get(k) for k in ("tag", "wall_s", "cpu_s", "peak_rss_mb",
                                            "setup_s", "exit", "problems")}
                     | {"config_hash": (r["record"] or {}).get("config_hash")}
                     for r in probes + all_runs],
        }, fh, indent=1)
    print(f"  record: {os.path.relpath(result_path, ROOT)}")
    print(json.dumps({
        "correct": not problems, "attempted": len(all_runs), "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _room(start, seconds, done, pair=False):
    """True when another run (or pair of runs) of the typical length still fits."""
    est = (2 if pair else 1) * statistics.median(r["wall_s"] for r in done)
    elapsed = time.monotonic() - start
    return elapsed + est <= seconds and elapsed + 1.5 * est <= RUN_LIMIT_S


def record_reference():
    """Re-record reference.json: every workload at every workload seed."""
    out = {"workloads": {}}
    for workload in WORKLOADS:
        entry = {"counts": {}, "seeds": {}}
        run_dir = os.path.join(WORK_DIR, f"reference-{workload}")
        shutil.rmtree(run_dir, ignore_errors=True)
        os.makedirs(run_dir)
        config = os.path.join(HERE, "workloads", f"{workload}.json")
        for s in range(N_SEEDS):
            res = run_child(run_dir, f"seed{s}", config, s, time.monotonic() + 600)
            if res["exit"] != 0:
                raise SystemExit(f"{workload} seed {s}: exit {res['exit']}\n{res['stderr']}")
            summary = checks.load_summary(res["out"])
            entry["counts"] = {lb: {k: summary[lb][k] for k in ("n_genuine", "n_impostor")}
                               for lb in checks.LABELS}
            entry["seeds"][str(s)] = {"config_hash": summary["config_hash"]} | {
                lb: {k: summary[lb][k] for k in ("auc", "variance", "eer")}
                for lb in checks.LABELS}
            print(f"{workload} seed {s}: {res['wall_s']:.2f} s", flush=True)
        shutil.rmtree(run_dir, ignore_errors=True)
        out["workloads"][workload] = entry
    with open(REFERENCE, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    # turn SIGTERM into SystemExit, so spawn() kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", nargs="+", choices=WORKLOADS, default=list(WORKLOADS),
                    help="one or more workloads, run one after the other (default: all)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=44.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="rewrite perfbench/reference.json from the current program")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "sweatauth", "__init__.py")):
        print(f"no sweatauth package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference()
        return 0
    return max(run_benchmark(w, args.seed, args.seconds, args.trace) for w in args.workload)


if __name__ == "__main__":
    sys.exit(main())
