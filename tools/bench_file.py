"""Write a BENCH file from the newest perfbench records, one per workload and trace.

usage: python3 tools/bench_file.py --change NAME --side before|after --note TEXT
           [--results DIR] [--git-sha TEXT] [--order TEXT] [--out DIR]

Reads every ``*.json`` record that ``perfbench/run.py`` left in DIR (default
``.perfbench/results``), keeps the newest (by modification time) of each
(workload, trace) pair, and writes them, keyed ``<workload>/trace<N>``, to
``BENCH_<today>_<change>_<side>.json`` in the --out directory (default: the
current one), with their provenance: the side of the comparison, the git sha,
the note, the ``perfbench/run.py`` commands that made them, and the machine.

The sha is the one the records name, unless --git-sha is given; then it
replaces the sha in every record too. ``perfbench/run.py`` names the checkout's
HEAD, which for a change run from its uncommitted working tree is the parent,
and names none in a copy that is not a git checkout: pass --git-sha for both.
An after file whose sha is that of a before file of the same change in --out
is refused.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import sys
import time


def newest_records(results_dir):
    """{(workload, trace): record} of the newest record of each pair, in run order."""
    paths = sorted(glob.glob(os.path.join(results_dir, "*.json")),
                   key=lambda p: (os.stat(p).st_mtime_ns, p))
    newest = {}
    for path in paths:
        with open(path) as fh:
            rec = json.load(fh)
        key = (rec["workload"], int(rec["trace"]))
        newest.pop(key, None)  # a later record of the pair moves to the end
        newest[key] = rec
    return dict(sorted(newest.items(), key=lambda item: item[0][1]))


def one_value(records, get, what):
    values = {get(rec) for rec in records}
    if len(values) != 1:
        raise SystemExit(f"the records disagree on {what}: {sorted(map(str, values))}")
    return values.pop()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def bench_file(records, side, note, git_sha=None, order=None):
    """The BENCH payload of records ({(workload, trace): record})."""
    recs = list(records.values())
    prov = [rec["provenance"] for rec in recs]
    if git_sha:
        for p in prov:
            p["git_sha"] = git_sha
    machine = {"cpu": cpu_model(),
               "nproc": one_value(prov, lambda p: p["nproc"], "nproc"),
               "blas_threads": int(one_value(prov, lambda p: p["blas_threads"], "BLAS threads")),
               "os": platform.system()}
    if order:
        machine["order"] = order
    commands = sorted({(rec["trace"], rec["seed"], rec["seconds"]) for rec in recs})
    return {
        "side": side,
        "git_sha": one_value(prov, lambda p: p["git_sha"], "git_sha"),
        "note": note,
        "commands": [f"python3 perfbench/run.py --seed {seed} --seconds {seconds:g} --trace {trace}"
                     for trace, seed, seconds in commands],
        "machine": machine,
        "records": {f"{workload}/trace{trace}": rec for (workload, trace), rec in records.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--change", required=True, help="the change's name in the file name")
    ap.add_argument("--side", required=True, choices=("before", "after"))
    ap.add_argument("--note", required=True)
    ap.add_argument("--results", default=os.path.join(".perfbench", "results"))
    ap.add_argument("--git-sha", default=None,
                    help="provenance text in place of the records' sha, in every record too")
    ap.add_argument("--order", default=None, help="how the runs of the pair were interleaved")
    ap.add_argument("--out", default=".")
    args = ap.parse_args(argv)
    records = newest_records(args.results)
    if not records:
        print(f"no perfbench records in {args.results}", file=sys.stderr)
        return 1
    payload = bench_file(records, args.side, args.note, args.git_sha, args.order)
    if args.side == "after":
        for before in glob.glob(os.path.join(args.out, f"BENCH_*_{args.change}_before.json")):
            with open(before) as fh:
                if json.load(fh)["git_sha"] == payload["git_sha"]:
                    raise SystemExit(f"the after records name the sha of {before}, "
                                     f"{payload['git_sha']}: pass --git-sha")
    path = os.path.join(args.out, f"BENCH_{time.strftime('%Y-%m-%d')}_{args.change}_{args.side}.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}: {', '.join(payload['records'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
