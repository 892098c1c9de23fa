"""Reference routes that the library's array code is checked against.

The library computes features from batch summaries only. These functions
are the explicit routes the batch results are checked against: per-step
rates of a recorded trace, the luminescence and amperometric signals built
on them, the gate-time feature of a sampled signal, and the reader of a
cohort CSV. ``identity_mode_scores`` is the list-building form of the
identity-mode score populations.
"""

import csv
import functools
import operator

import numpy as np

from sweatauth import metrics
from sweatauth.cohort import N_ACIDS
from sweatauth.errors import ConfigurationError
from sweatauth.pipeline import enroll_templates, score_step
from sweatauth.transduce import SignalTrace, reporter_step


def step_rates(network, concentrations) -> np.ndarray:
    """Per-step rates for a [T, n_species] concentration block."""
    C = np.atleast_2d(concentrations)
    names = network.species
    rates = np.empty((C.shape[0], len(network.steps)))
    for j, st in enumerate(network.steps):
        v = np.full(C.shape[0], st.vmax)
        for sp, _ in st.substrates:
            s = np.maximum(C[:, names.index(sp)], 0.0)
            v *= s / (st.km[sp] + s)
        rates[:, j] = v
    return rates


def _rate_signal(trace, network, transduction, gain):
    rates = step_rates(network, trace.concentrations)
    return SignalTrace(times=trace.times, channel=transduction,
                       values=gain * rates[:, reporter_step(network, transduction)])


def luminescence(trace, network, gain) -> SignalTrace:
    """Emission proportional to the instantaneous HRP/luminol reaction rate."""
    return _rate_signal(trace, network, "luminescence", gain)


def amperometric_current(trace, network, gain) -> SignalTrace:
    """Current proportional to the peroxide turnover rate at the reporter step."""
    return _rate_signal(trace, network, "amperometric", gain)


def endpoint_feature(signal, t_g: float, mode: str = "endpoint") -> float:
    """Scalar feature of a signal over the gate window [0, t_g].

    endpoint: |signal(t_g) - signal(0)|, direction-free magnitude.
    slope: magnitude of the least-squares slope over the window samples.
    """
    if mode not in ("endpoint", "slope"):
        raise ConfigurationError(f"unknown feature mode {mode!r}")
    times = np.asarray(signal.times, dtype=float)
    if t_g < times[0] or t_g > times[-1] + 1e-12:
        raise ValueError(f"t_g={t_g} outside trace horizon [{times[0]}, {times[-1]}]")
    if mode == "endpoint":
        k = int(np.argmin(np.abs(times - t_g)))
        return float(abs(signal.values[k] - signal.values[0]))
    mask = times <= t_g + 1e-12
    t = times[mask]
    y = np.asarray(signal.values, dtype=float)[mask]
    tc = t - t.mean()
    denom = float(tc @ tc)
    if denom == 0.0:
        return 0.0
    return float(abs(tc @ (y - y.mean()) / denom))


def read_cohort_csv(path):
    """Inverse of cohort.write_cohort_csv; returns (ids, values[n, 23])."""
    ids, rows = [], []
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    for i, row in enumerate(csv.reader(lines)):
        if i == 0:
            continue
        ids.append(row[0])
        rows.append([float(x) for x in row[1:]])
    return ids, np.array(rows) if rows else np.empty((0, N_ACIDS))


def left_sum(scores):
    """scores added from left to right starting from 0, as Python 3.11's sum() does.

    Python 3.12's sum() compensates its float additions, so it can differ in
    the last bit: sum([0.1] * 10) is 1.0 on 3.12 and 0.9999999999999999 on 3.11.
    """
    return functools.reduce(operator.add, scores, 0)


def identity_mode_scores(result, auth_cfg, k_reg, k_acc):
    """pipeline._identity_mode_scores as Python lists grown one probe individual at a time."""
    n = len(result.profiles)
    cont = result.outputs[:, k_reg:k_reg + k_acc]
    gen_steps, imp_steps, gen_acc, imp_acc = [], [], [], []
    for i, tpl in enumerate(enroll_templates(result, auth_cfg)):
        for j, probes in enumerate(cont):
            scores = [score_step(tpl, y) for y in probes]
            (gen_steps if j == i else imp_steps).extend(scores)
            (gen_acc if j == i else imp_acc).append(left_sum(scores))
    extras = {"n_genuine_users": n, "n_impostor_users": n}
    return ({"k1": metrics.ScoredPopulation(gen_steps, imp_steps),
             "accumulated": metrics.ScoredPopulation(gen_acc, imp_acc)}, extras)
