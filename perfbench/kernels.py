"""Kernel layer: batched RK4 throughput per cascade, in a process of its own.

usage: python3 kernels.py --src DIR --config FILE --seed N

Integrates ROWS rows of each cascade for STEPS steps of dt = 0.01 with
``kinetics.simulate_batch``, REPEATS times, the way
benchmarks/bench_kernels.py times its batch path: input analytes are drawn
uniformly from 20-400 µM by a generator seeded with N. ROWS is the batch
size of one identity channel. Prints one JSON object mapping each cascade
to its row-steps per second over the median repeat.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

CASCADES = ("AltPoxHrp", "GldhA", "AspGlu")
DT = 0.01
ROWS, STEPS, REPEATS = 375, 600, 3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    import numpy as np
    from sweatauth.config import load_experiment
    from sweatauth.kinetics import build_cascade, simulate_batch

    params = load_experiment(args.config).params
    rng = np.random.default_rng(args.seed)
    out = {}
    for kind in CASCADES:
        net = build_cascade(kind, params)
        C0 = np.tile(net.init_vector({}), (ROWS, 1))
        for sp in net.input_species:
            C0[:, net.index(sp)] = rng.uniform(20, 400, ROWS)
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            simulate_batch(net, C0, STEPS * DT, DT)
            times.append(time.perf_counter() - t0)
        out[kind] = ROWS * STEPS / statistics.median(times)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
