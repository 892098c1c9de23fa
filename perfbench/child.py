"""One `sweatauth` command in a fresh process, timed from the inside.

usage: python3 child.py --src DIR --record FILE [--trace] [--setup-only] -- ARGS...

ARGS are the `sweatauth` command line (for example ``roc --config c.json
--out d --seed-override 3 --jobs 1``). The package is imported from DIR.
FILE receives one JSON object: the ``time.monotonic()`` reading at which
``load_experiment`` first returned (the end of set-up), the resolved
config hash, provenance, the command's exit code and, with --trace, every
span recorded around the package's public functions. With --setup-only
the process stops once the config is loaded.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True)
    ap.add_argument("--record", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    t_import = time.monotonic()
    import numpy
    import sweatauth
    from sweatauth import cli

    t_imported = time.monotonic()
    if not os.path.abspath(sweatauth.__file__).startswith(src + os.sep):
        print(f"sweatauth imported from {sweatauth.__file__}, not {src}", file=sys.stderr)
        return 5

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.record("import", t_import, t_imported)
        tracer.install()

    record = {
        "backend": sweatauth.BACKEND,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
    }
    load = cli.load_experiment

    def load_experiment(*a, **kw):
        cfg = load(*a, **kw)
        record.setdefault("setup_done", time.monotonic())
        record.setdefault("config_hash", cfg.config_hash)
        return cfg

    cli.load_experiment = load_experiment
    if args.setup_only:
        ns = cli.build_parser().parse_args(argv)
        load_experiment(ns.config, seed_override=ns.seed_override)
        record["exit"] = 0
    else:
        record["exit"] = cli.main(argv)
    if tracer is not None:
        t_dump = time.monotonic()
        record["bindings"] = tracer.bindings
        record["spans"] = tracer.spans
        record["dump_start"] = t_dump
    with open(args.record, "w") as fh:
        json.dump(record, fh, separators=(",", ":"))
    return record["exit"]


if __name__ == "__main__":
    sys.exit(main())
