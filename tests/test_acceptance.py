"""Acceptance gate: one test per release criterion, each printing a
[PASS]/[FAIL] line with its elapsed time (run with -s to see them all).

Each criterion's runtime budget covers everything it runs; the numpy
kernels need no warm-up.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from sweatauth import cli
from sweatauth.config import load_experiment
from sweatauth.digitize import FilterParams, hill_filter
from sweatauth.kinetics import build_cascade, conserved_moieties, mm_rate, simulate
from sweatauth.metrics import ScoredPopulation, auc, delong_variance, roc_curve
from sweatauth.pipeline import RunPlan, run_auth_eval
from sweatauth.transduce import absorbance, builtin_optics

_elapsed = {}


@contextmanager
def criterion(number, description, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    _elapsed[number] = elapsed
    print(f"[PASS] criterion {number}: {description} ({elapsed:.2f}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s budget"


def test_c01_half_saturation_exact():
    with criterion(1, "mm_rate at s=km equals kcat*e_total/2 to 1e-12 relative", 1.0):
        rng = np.random.default_rng(101)
        for _ in range(100):
            kcat = rng.uniform(0.1, 1e3)
            e_total = rng.uniform(1e-3, 50.0)
            km = rng.uniform(1e-2, 1e4)
            got = mm_rate(km, kcat, e_total, km)
            want = 0.5 * kcat * e_total
            assert abs(got - want) <= 1e-12 * want


def test_c02_conservation(params):
    with criterion(2, "moiety totals drift < 1e-6 relative over 600 s at dt=0.01", 10.0):
        cases = {
            "AltLdh": {"Ala": 80.0, "KTG": 150.0, "NADH": 120.0},
            "AlaAspGlu": {"Ala": 60.0, "Asp": 40.0, "Glu": 30.0},
        }
        for kind, init in cases.items():
            net = build_cascade(kind, params)
            tr = simulate(net, init, 600.0, 0.01)
            for w in conserved_moieties(net):
                pools = tr.concentrations @ w
                assert abs(pools[0]) > 1.0, "test init must make every pool nonzero"
                drift = np.max(np.abs(pools - pools[0])) / abs(pools[0])
                assert drift < 1e-6, (kind, w, drift)


def test_c03_integrator_order(params):
    with criterion(3, "Richardson dt-halving error ratio in [12, 20]", 10.0):
        net = build_cascade("AltLdh", params)
        init = {"Ala": 50.0, "KTG": 150.0, "NADH": 120.0}
        T, dt = 20.0, 0.2
        ref = simulate(net, init, T, dt / 8).concentrations[-1]
        e1 = np.max(np.abs(simulate(net, init, T, dt).concentrations[-1] - ref))
        e2 = np.max(np.abs(simulate(net, init, T, dt / 2).concentrations[-1] - ref))
        ratio = e1 / e2
        assert 12.0 <= ratio <= 20.0, ratio


def test_c04_absorbance_decrease_shape(params):
    with criterion(4, "340 nm trace non-increasing, drop grows with alanine", 5.0):
        net = build_cascade("AltLdh", params)
        optics = builtin_optics("NADH", params)
        drops = []
        for ala in (20.0, 50.0, 100.0):
            tr = simulate(net, {"Ala": ala, "KTG": 400.0, "NADH": 200.0}, 120.0, 0.01)
            sig = absorbance(tr, optics)
            assert np.all(np.diff(sig.values) <= 1e-12)
            drops.append(sig.values[0] - sig.values[-1])
        assert drops[0] < drops[1] < drops[2]


def test_c05_sex_separation_auc():
    with criterion(5, "25v25 shifted cohort AUC >= 0.95; unshifted in [0.4, 0.6]", 60.0):
        shifted, _, _ = run_auth_eval(RunPlan(load_experiment("builtin:sex-separation")))
        assert shifted["k1"]["auc"] >= 0.95, shifted["k1"]["auc"]
        null, _, _ = run_auth_eval(RunPlan(load_experiment("builtin:sex-separation-null")))
        assert 0.4 <= null["k1"]["auc"] <= 0.6, null["k1"]["auc"]


def test_c06_auc_oracle_equivalence():
    with criterion(6, "trapezoid ROC area equals pair-count AUC to 1e-9", 5.0):
        rng = np.random.default_rng(606)
        for trial in range(200):
            n_g = int(rng.integers(1, 51))
            n_i = int(rng.integers(1, 51))
            if trial % 3 == 0:  # integer grid forces heavy ties
                g = rng.integers(0, 5, n_g).astype(float)
                i = rng.integers(0, 5, n_i).astype(float)
            else:
                g = rng.normal(0.4, 1.0, n_g)
                i = rng.normal(0.0, 1.0, n_i)
            pop = ScoredPopulation(g, i)
            pairs = (g[:, None] > i[None, :]).sum() + 0.5 * (g[:, None] == i[None, :]).sum()
            want = pairs / (n_g * n_i)
            assert abs(auc(pop) - want) < 1e-9
            assert abs(roc_curve(pop).trapezoid_area() - want) < 1e-9


def test_c07_delong_vs_bootstrap():
    with criterion(7, "DeLong variance within 20% of 2000-resample bootstrap", 30.0):
        rng = np.random.default_rng(2024)
        g = rng.normal(1.0, 1.0, 25)
        i = rng.normal(0.0, 1.0, 25)
        res = delong_variance(ScoredPopulation(g, i))
        boot = np.empty(2000)
        for b in range(2000):
            gb = rng.choice(g, size=25, replace=True)
            ib = rng.choice(i, size=25, replace=True)
            boot[b] = auc(ScoredPopulation(gb, ib))
        bvar = boot.var(ddof=1)
        assert abs(res.variance - bvar) / bvar < 0.2, (res.variance, bvar)


def test_c08_filter_digitization():
    with criterion(8, "hill n=8 squeezes CV-0.2 inputs to output sd < 0.05", 5.0):
        rng = np.random.default_rng(808)
        p = FilterParams(k_half=10.0, hill_n=8.0, out_lo=0.0, out_hi=1.0)
        sigma = math.sqrt(math.log1p(0.2 ** 2))
        for center in (0.2 * p.k_half, 5.0 * p.k_half):
            draws = center * np.exp(sigma * rng.standard_normal(10_000) - 0.5 * sigma ** 2)
            outs = np.array([hill_filter(x, p) for x in draws])
            assert outs.std() < 0.05, (center, outs.std())


def test_c09_time_series_benefit():
    with criterion(9, "identity EER with 10-step accumulation <= single-step EER", 60.0):
        summary, _, _ = run_auth_eval(RunPlan(load_experiment("builtin:identity")))
        e1 = summary["k1"]["eer"]
        e10 = summary["accumulated"]["eer"]
        assert e10 <= e1, (e10, e1)


def test_c10_determinism(tmp_path):
    budget = 2.0 * _elapsed.get(5, 60.0)
    with criterion(10, "two identical roc runs produce byte-identical reports", budget):
        outs = []
        for name in ("run_a", "run_b"):
            out = tmp_path / name
            code = cli.main(["roc", "--config", "builtin:sex-separation",
                             "--out", str(out)])
            assert code == 0
            outs.append(out)
        for fname in ("roc_k1.csv", "roc_accumulated.csv", "summary.json"):
            a = (outs[0] / fname).read_bytes()
            b = (outs[1] / fname).read_bytes()
            assert a == b, f"{fname} differs between reruns"
