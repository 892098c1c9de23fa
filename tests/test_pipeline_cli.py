import copy
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (amperometric_current, endpoint_feature, identity_mode_scores, left_sum,
                     luminescence, step_rates)
from sweatauth import cli, metrics, pipeline
from sweatauth.auth import VerifyPolicy, enroll, verify_series
from sweatauth.cohort import ACID_INDEX
from sweatauth.config import (builtin_experiment, default_distribution_dict, default_params_dict,
                              load_experiment)
from sweatauth.kinetics import simulate, simulate_batch
from sweatauth.pipeline import (RunPlan, _identity_mode_scores, build_channel, channel_features,
                                enroll_templates, integrate_channels, run_auth_eval, run_pipeline)
from sweatauth.transduce import absorbance, builtin_optics
from test_metrics import loop_eer


def small_config(**tweaks):
    """Trimmed sex-separation experiment for fast tests."""
    raw = builtin_experiment("sex-separation")
    raw["cohort"]["groups"][0]["n"] = 6
    raw["cohort"]["groups"][1]["n"] = 6
    raw["cohort"]["schedule"]["steps"] = 5
    raw["kinetics"]["dt"] = 0.02
    raw["kinetics"]["t_g"] = 60.0
    raw["auth"]["k_reg"] = 2
    raw["auth"]["accumulate_k"] = 3
    for key, value in tweaks.items():
        section, _, leaf = key.partition(".")
        if leaf:
            raw[section][leaf] = value
        else:
            raw[section] = value
    return raw


def features_of(channels, X_flat, t_g, dt):
    """[B, n_channels] features of one union batch, the way run_pipeline makes them."""
    res = integrate_channels(channels, X_flat, t_g, dt)
    return np.stack([channel_features(ch, res, j) for j, ch in enumerate(channels)], axis=1)


def oracle_channel_features(ch, X_flat, t_g, dt):
    """The former per-channel route: one batch of the channel's own cascade."""
    C0 = np.tile(ch.network.init_vector({}), (len(X_flat), 1))
    for acid in ch.inputs:
        C0[:, ch.network.index(acid)] = X_flat[:, ACID_INDEX[acid]]
    res = simulate_batch(ch.network, C0, t_g, dt, [(0, ch.signal)])
    if ch.feature == "endpoint":
        return ch.scale * res.endpoint_delta()[:, 0]
    return ch.scale * np.abs(res.slope()[:, 0])


@pytest.fixture(scope="module")
def small_result():
    return run_pipeline(RunPlan(load_experiment(small_config())))


# ------------------------------------------------------------- pipeline

def test_pipeline_shapes(small_result):
    assert small_result.features.shape == (12, 5, 1)
    assert small_result.outputs.shape == (12, 5, 1)
    assert small_result.bands.shape == (12, 5, 1)
    assert small_result.plan.grouping.n_outputs == 1


def test_output_timestamps_include_gate_delay(small_result):
    sched = small_result.plan.schedule
    assert small_result.timestamps.shape == (5,)
    for k, t in enumerate(small_result.timestamps):
        assert t == sched.t0 + k * sched.tau + small_result.plan.t_g


def test_pipeline_deterministic(small_result):
    again = run_pipeline(RunPlan(load_experiment(small_config())))
    np.testing.assert_array_equal(again.features, small_result.features)
    np.testing.assert_array_equal(again.outputs, small_result.outputs)
    assert again.bands.tolist() == small_result.bands.tolist()


def test_channel_feature_matches_trace_route(params, small_result):
    # the batched endpoint feature must agree with the explicit route:
    # simulate -> absorbance -> endpoint_feature
    cfg = load_experiment(small_config())
    entry = cfg.section("channels")[0]
    ch = build_channel(entry, params)
    x = np.zeros((1, 23))
    x[0, 0] = 137.0  # Ala column
    batched = features_of([ch], x, 60.0, 0.02)[0, 0]
    tr = simulate(ch.network, {"Ala": 137.0}, 60.0, 0.02)
    sig = absorbance(tr, builtin_optics("ABTSox", params))
    assert batched == pytest.approx(endpoint_feature(sig, 60.0, "endpoint"), rel=1e-9)


def test_slope_feature_route(params):
    cfg = load_experiment(small_config())
    entry = dict(cfg.section("channels")[0])
    entry["feature"] = "slope"
    ch = build_channel(entry, params)
    x = np.zeros((1, 23))
    x[0, 0] = 90.0
    batched = features_of([ch], x, 60.0, 0.02)[0, 0]
    tr = simulate(ch.network, {"Ala": 90.0}, 60.0, 0.02)
    sig = absorbance(tr, builtin_optics("ABTSox", params))
    assert batched == pytest.approx(endpoint_feature(sig, 60.0, "slope"), rel=1e-9)


@pytest.mark.parametrize("cascade, transduction, readout", [
    ("GldhC", "luminescence", luminescence),
    ("AltPoxHrp", "amperometric", amperometric_current),
])
@pytest.mark.parametrize("feature", ["endpoint", "slope"])
def test_rate_channel_feature_route(params, cascade, transduction, readout, feature):
    # rate readouts through the pipeline agree with the explicit route:
    # simulate -> luminescence / amperometric_current -> endpoint_feature
    ch = build_channel({"cascade": cascade, "transduction": transduction,
                        "feature": feature}, params)
    (acid,) = ch.inputs
    x = np.zeros((2, 23))
    x[:, ACID_INDEX[acid]] = [80.0, 150.0]
    batched = features_of([ch], x, 60.0, 0.05)[:, 0]
    for b in range(2):
        tr = simulate(ch.network, {acid: x[b, ACID_INDEX[acid]]}, 60.0, 0.05)
        expected = endpoint_feature(readout(tr, ch.network, ch.scale), 60.0, feature)
        assert expected > 0.0
        assert batched[b] == pytest.approx(expected, rel=1e-9)


def oracle_rate_slope_features(ch, C0, t_g, dt):
    """The former per-row route: one recorded trace per row, centred least squares."""
    out = np.empty(C0.shape[0])
    names = ch.network.species
    for b in range(C0.shape[0]):
        tr = simulate(ch.network, dict(zip(names, C0[b])), t_g, dt)
        rates = step_rates(ch.network, tr.concentrations)[:, ch.signal]
        t = tr.times - tr.times.mean()
        out[b] = ch.scale * abs(float(t @ (rates - rates.mean()) / (t @ t)))
    return out


@pytest.mark.parametrize("cascade, transduction", [("GldhC", "luminescence"),
                                                   ("AltPoxHrp", "amperometric")])
def test_rate_slope_matches_per_row_oracle(params, monkeypatch, cascade, transduction):
    # a 375-row rate-slope channel is one batch pass, with no per-row simulate
    import sweatauth.kinetics
    import sweatauth.pipeline

    ch = build_channel({"cascade": cascade, "transduction": transduction,
                        "feature": "slope"}, params)
    x = np.zeros((375, 23))
    for acid in ch.inputs:
        x[:, ACID_INDEX[acid]] = np.linspace(20.0, 400.0, 375)
    calls = []
    batch = sweatauth.pipeline.simulate_batch
    monkeypatch.setattr(sweatauth.pipeline, "simulate_batch",
                        lambda *a, **kw: calls.append(a) or batch(*a, **kw))
    monkeypatch.setattr(sweatauth.kinetics, "simulate", None)
    got = features_of([ch], x, 20.0, 0.05)[:, 0]
    assert len(calls) == 1
    monkeypatch.undo()
    rows = np.arange(0, 375, 53)
    C0 = np.tile(ch.network.init_vector({}), (len(rows), 1))
    for acid in ch.inputs:
        C0[:, ch.network.index(acid)] = x[rows, ACID_INDEX[acid]]
    want = oracle_rate_slope_features(ch, C0, 20.0, 0.05)
    assert np.all(want > 0.0)
    np.testing.assert_allclose(got[rows], want, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("transduction", ["luminescence", "amperometric"])
def test_rate_channel_without_reporter_step(params, transduction):
    from sweatauth.errors import ConfigurationError

    with pytest.raises(ConfigurationError, match="GldhA cascade lacks the required reporter step"):
        build_channel({"cascade": "GldhA", "transduction": transduction}, params)


IDENTITY_CHANNELS = builtin_experiment("identity")["channels"]
ALT_ABSORBANCE = {"cascade": "AltPoxHrp", "transduction": "absorbance", "feature": "endpoint"}
ALT_CURRENT = {"cascade": "AltPoxHrp", "transduction": "amperometric", "feature": "slope"}


@pytest.mark.parametrize("entries, n_blocks", [
    (IDENTITY_CHANNELS, 3),
    ([ALT_ABSORBANCE, ALT_CURRENT], 1),
    ([{"cascade": "AspGlu", "inputs": ["Asp"]},
      {"cascade": "AspGlu", "inputs": ["Asp", "Glu"]}], 2),
    ([{"cascade": "GldhC", "transduction": "luminescence", "feature": "slope"}], 1),
    ([ALT_CURRENT, *IDENTITY_CHANNELS, ALT_ABSORBANCE], 3),
], ids=["identity", "one-block-two-signals", "two-input-lists", "gldhc-luminescence-slope",
        "identity-and-alt-signals"])
def test_union_features_match_per_channel_batches(params, monkeypatch, entries, n_blocks):
    # one batch for all channels, one block per (cascade, inputs) pair, and
    # every channel's features bit for bit those of its own batch
    import sweatauth.pipeline

    channels = [build_channel(e, params) for e in entries]
    X = np.random.default_rng(len(entries)).uniform(20.0, 400.0, (7, 23))
    unions = []
    monkeypatch.setattr(sweatauth.pipeline, "simulate_batch",
                        lambda net, *a: unions.append(net) or simulate_batch(net, *a))
    got = features_of(channels, X, 20.0, 0.05)
    assert len(unions) == 1 and len(unions[0].blocks) == n_blocks
    for j, ch in enumerate(channels):
        assert np.array_equal(got[:, j], oracle_channel_features(ch, X, 20.0, 0.05)), ch.name


def test_run_pipeline_makes_one_batch_call(monkeypatch):
    import sweatauth.pipeline

    raw = builtin_experiment("identity")
    raw["cohort"]["groups"][0]["n"] = 3
    raw["cohort"]["schedule"]["steps"] = 2
    raw["kinetics"].update(t_g=10.0, dt=0.05)
    cfg = load_experiment(raw)
    calls = []
    monkeypatch.setattr(sweatauth.pipeline, "simulate_batch",
                        lambda *a: calls.append(a) or simulate_batch(*a))
    result = run_pipeline(RunPlan(cfg))
    (network, init_matrix, *_), = calls
    assert network.kind.value == "AltPoxHrp+GldhA+AspGlu"
    assert init_matrix.shape == (3 * 2, network.species_offsets[-1])
    assert result.features.shape == (3, 2, 3)


def test_enroll_templates_one_per_individual(small_result):
    templates = enroll_templates(small_result, {"k_reg": 2, "lambda": 0.01})
    assert [t.user_id for t in templates] == [p.id for p in small_result.profiles]
    for tpl, y in zip(templates, small_result.outputs):
        expected = enroll(y[:2], k_reg=2, lam=0.01)
        np.testing.assert_array_equal(tpl.mean, expected.mean)
        np.testing.assert_array_equal(tpl.covariance, expected.covariance)
        sched = small_result.plan.schedule
        assert tpl.created_at == sched.t0 + 2 * sched.tau


def test_doubled_alanine_raises_every_feature():
    # linear regime: halving the mean keeps every draw well below reagent
    # limits, so doubling the baseline doubles the endpoint feature
    base = small_config()
    base["distribution_overrides"] = {"acids": {"Ala": {"mean_uM": 50.0}}}
    doubled = copy.deepcopy(base)
    doubled["distribution_overrides"]["acids"]["Ala"]["mean_uM"] = 100.0
    f_base = run_pipeline(RunPlan(load_experiment(base))).features
    f_doub = run_pipeline(RunPlan(load_experiment(doubled))).features
    assert np.all(f_doub > f_base)
    np.testing.assert_allclose(f_doub, 2.0 * f_base, rtol=0.01)


def test_genuine_accumulated_statistic_beats_impostor():
    # 25 vs 25 cohorts with the 1.5x alanine shift: verify female streams
    # and male streams against the pooled female template; at k = 10 the
    # genuine accumulated statistic must sit above the impostor one
    result = run_pipeline(RunPlan(load_experiment("builtin:sex-separation")))
    k_reg, k = 3, 10
    females = [i for i, g in enumerate(result.group_of) if g == "female"]
    males = [i for i, g in enumerate(result.group_of) if g == "male"]
    reg = np.concatenate(result.outputs[females, :k_reg])
    tpl = enroll(reg, k_reg=len(reg), lam=1e-3)
    policy = VerifyPolicy(accept_thr=np.inf, reject_thr=-np.inf, drift_offset=0.0)

    def accumulated(idx):
        stats = []
        for i in idx:
            stream = result.outputs[i, k_reg:k_reg + k]
            decision = verify_series(tpl, stream, policy)
            stats.append(decision.statistic)
        return np.mean(stats)

    assert accumulated(females) > accumulated(males)


# ------------------------------------------------------------- auth eval

def test_group_eval_summary_contents():
    cfg = load_experiment(small_config())
    summary, curves, _ = run_auth_eval(RunPlan(cfg))
    assert summary["config_hash"] == cfg.config_hash
    assert summary["seeds"]["groups"] == {"female": 1101, "male": 2202}
    assert set(curves) == {"k1", "accumulated"}
    for label in ("k1", "accumulated"):
        assert 0.0 <= summary[label]["auc"] <= 1.0
        assert 0.0 <= summary[label]["eer"] <= 1.0
    assert summary["accumulated"]["k"] == 3


def trimmed_identity(seed_override=None):
    """The plan of the builtin identity experiment trimmed for fast tests: 6 individuals,
    7 steps."""
    raw = builtin_experiment("identity")
    raw["cohort"]["groups"][0]["n"] = 6
    raw["cohort"]["schedule"]["steps"] = 7
    raw["auth"]["k_reg"] = 3
    raw["auth"]["accumulate_k"] = 4
    raw["kinetics"]["dt"] = 0.02
    return RunPlan(load_experiment(raw, seed_override=seed_override))


def test_identity_eval_runs():
    summary, _, _ = run_auth_eval(trimmed_identity())
    assert summary["mode"] == "identity"
    assert summary["k1"]["n_genuine"] == 6 * 4
    assert summary["k1"]["n_impostor"] == 6 * 5 * 4


@pytest.mark.parametrize("seed", [3, 11])
def test_identity_scores_match_list_building_oracle(seed):
    plan = trimmed_identity(seed)
    result = run_pipeline(plan)
    got, extras = _identity_mode_scores(result, plan.auth, 3, 4)
    want, want_extras = identity_mode_scores(result, plan.auth, 3, 4)
    assert extras == want_extras
    for label in ("k1", "accumulated"):
        assert got[label].genuine.tobytes() == want[label].genuine.tobytes()
        assert got[label].impostor.tobytes() == want[label].impostor.tobytes()
    assert got["k1"].impostor.size == 6 * 5 * 4


def test_identity_scores_hold_no_copy_of_the_populations(monkeypatch):
    # 100 individuals, 10 steps: the four returned arrays hold 110,000
    # scores (0.88 MB); one [template, probe individual, step] array split by
    # a mask held about 0.8 MB more
    n, k_reg, k_acc = 100, 2, 10
    result = SimpleNamespace(
        outputs=np.random.default_rng(9).uniform(0, 1, (n, k_reg + k_acc, 3)),
        profiles=[SimpleNamespace(id=f"u{i:03d}") for i in range(n)],
        plan=SimpleNamespace(schedule=SimpleNamespace(t0=0.0, tau=1.0)))
    monkeypatch.setattr(pipeline, "score_step", lambda tpl, y: float(y[0] - tpl.mean[0]))
    tracemalloc.start()
    try:
        pops, _ = _identity_mode_scores(result, {"k_reg": k_reg, "lambda": 1e-3}, k_reg, k_acc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = sum(a.nbytes for pop in pops.values() for a in (pop.genuine, pop.impostor))
    assert returned == 8 * (n * n * k_acc + n * n)
    assert peak < returned + 2**16, peak - returned


def test_accumulated_scores_add_steps_left_to_right(monkeypatch, small_result):
    # pair (0, 1) has large terms that cancel: a compensated sum (Python
    # 3.12's sum()) keeps the 1.0 that adding from the left loses; pair
    # (0, 2) sums to +0.0 from a start of 0, and to -0.0 from -0.0
    k_acc = 3
    n = len(small_result.profiles)
    values = np.random.default_rng(5).choice([0.1, 0.7, 1e16, -1e16, 1.0, -0.0],
                                             n * n * k_acc).tolist()
    values[:3 * k_acc] = [0.1, 0.1, 0.1, 1e16, 1.0, -1e16, -0.0, -0.0, -0.0]
    calls = iter(values)
    monkeypatch.setattr(pipeline, "score_step", lambda tpl, y: next(calls))
    pops, _ = _identity_mode_scores(small_result, {"k_reg": 2, "lambda": 1e-3}, 2, k_acc)
    rows = np.array(values).reshape(n, n, k_acc)
    for i in range(n):
        for j in range(n):
            want = left_sum(rows[i, j].tolist())
            got = (pops["accumulated"].genuine[i] if i == j else
                   pops["accumulated"].impostor[i * (n - 1) + j - (j > i)])
            assert got == want and np.signbit(got) == np.signbit(want), (i, j)
    assert pops["k1"].genuine.tolist() == [s for i in range(n) for s in rows[i, i]]
    assert pops["accumulated"].genuine[0] == 0.30000000000000004
    assert pops["accumulated"].impostor[0] == 0.0
    assert not np.signbit(pops["accumulated"].impostor[1])


def test_auth_eval_builds_one_roc_curve_per_label(monkeypatch):
    built = []
    roc_curve = metrics.roc_curve
    monkeypatch.setattr(metrics, "roc_curve", lambda pop: built.append(pop) or roc_curve(pop))
    for plan in (RunPlan(load_experiment(small_config())), trimmed_identity()):
        built.clear()
        summary, curves, _ = run_auth_eval(plan)
        assert len(built) == 2
        for pop, label in zip(built, ("k1", "accumulated")):
            assert summary[label]["eer"] == curves[label].eer() == loop_eer(pop)


def test_eval_insufficient_steps():
    from sweatauth.errors import InsufficientDataError

    raw = small_config()
    raw["auth"]["accumulate_k"] = 10  # 2 + 10 > 5 steps
    with pytest.raises(InsufficientDataError):
        run_auth_eval(RunPlan(load_experiment(raw)))


# ------------------------------------------------------------- cli

def run_cli(*argv):
    return cli.main(list(argv))


def test_cmd_cohort_writes_25x23(tmp_path):
    out = tmp_path / "cohort"
    assert run_cli("cohort", "--config", "builtin:sex-separation", "--out", str(out)) == 0
    for group in ("female", "male"):
        lines = (out / f"cohort_{group}.csv").read_text().strip().splitlines()
        assert lines[0].startswith("# config_hash=")
        header = lines[1].split(",")
        assert len(header) == 24 and header[0] == "id"
        assert len(lines) == 2 + 25
        assert all(len(ln.split(",")) == 24 for ln in lines[2:])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["groups"]["female"]["stored_values"] == 575


def test_cmd_cohort_empty(tmp_path):
    raw = small_config()
    raw["cohort"]["groups"] = [dict(raw["cohort"]["groups"][0], n=0)]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "cohort0"
    assert run_cli("cohort", "--config", str(path), "--out", str(out)) == 0
    lines = (out / "cohort_female.csv").read_text().strip().splitlines()
    assert len(lines) == 2  # hash comment plus header, no rows


def test_cmd_cohort_rerun_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_cli("cohort", "--config", "builtin:sex-separation", "--out", str(out1))
    run_cli("cohort", "--config", "builtin:sex-separation", "--out", str(out2))
    assert (out1 / "cohort_female.csv").read_bytes() == (out2 / "cohort_female.csv").read_bytes()
    assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()


def test_cmd_pipeline_single_channel_single_column(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(small_config()))
    out = tmp_path / "pipe"
    assert run_cli("pipeline", "--config", str(path), "--out", str(out)) == 0
    lines = (out / "outputs.csv").read_text().strip().splitlines()
    header = lines[1].split(",")
    assert header == ["id", "group", "k", "timestamp_s", "y0", "band0"]
    assert len(lines) == 2 + 12 * 5


def test_cmd_pipeline_one_step(tmp_path):
    raw = small_config()
    raw["cohort"]["schedule"]["steps"] = 1
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "pipe1"
    assert run_cli("pipeline", "--config", str(path), "--out", str(out)) == 0
    lines = (out / "outputs.csv").read_text().strip().splitlines()
    assert len(lines) == 2 + 12  # one output vector per individual


def test_cmd_roc_summary_provenance(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(small_config()))
    out = tmp_path / "roc"
    assert run_cli("roc", "--config", str(path), "--out", str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config_hash"]
    assert summary["params_hash"]
    assert summary["seeds"]["series_seed"] == 3303
    assert (out / "roc_k1.csv").exists()
    assert (out / "roc_accumulated.csv").exists()


def test_cmd_roc_insufficient_users(tmp_path):
    raw = small_config()
    raw["cohort"]["groups"][0]["n"] = 1
    raw["cohort"]["groups"][1]["n"] = 0
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert run_cli("roc", "--config", str(path), "--out", str(tmp_path / "r")) == 3


def test_cmd_bad_config_exit_code(tmp_path):
    raw = small_config()
    raw["channels"][0]["cascade"] = "NoSuchCascade"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert run_cli("roc", "--config", str(path), "--out", str(tmp_path / "x")) == 2
    assert run_cli("roc", "--config", str(tmp_path / "missing.json"),
                   "--out", str(tmp_path / "y")) == 2


def text_file(path, text) -> str:
    path.write_text(text)
    return str(path)


def json_file(path, obj) -> str:
    return text_file(path, json.dumps(obj))


def edited(tree, *keys, value):
    """tree with the key at the end of the path keys set to value."""
    node = tree
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return tree


def without(tree, *keys):
    """tree with the key at the end of the path keys deleted."""
    node = tree
    for key in keys[:-1]:
        node = node[key]
    del node[keys[-1]]
    return tree


@pytest.mark.parametrize("edit, message", [
    (lambda raw, tmp: [raw], "{config}: not a JSON object"),
    (lambda raw, tmp: dict(raw, distribution=json_file(
        tmp / "dist.json", without(default_distribution_dict(), "acids", "Ala", "cv"))),
     "distribution.acids.Ala.cv: required key is missing"),
    (lambda raw, tmp: dict(raw, params=json_file(
        tmp / "params.json", without(default_params_dict(), "enzymes", "ALT", "kcat"))),
     "params.enzymes.ALT.kcat: required key is missing"),
    (lambda raw, tmp: dict(raw, params=json_file(tmp / "params.json", [])),
     "{tmp}/params.json: not a JSON object"),
    # open() reads an integer, True included, as a file descriptor
    (lambda raw, tmp: dict(raw, params=5), "params: not a non-empty string: 5"),
    (lambda raw, tmp: dict(raw, params=True), "params: not a non-empty string: True"),
    (lambda raw, tmp: dict(raw, distribution=""), "distribution: not a non-empty string: ''"),
    (lambda raw, tmp: dict(raw, distribution="."), ".: cannot read: Is a directory"),
    (lambda raw, tmp: dict(raw, params=str(tmp / "missing.json")),
     "{tmp}/missing.json: cannot read: No such file or directory"),
    (lambda raw, tmp: dict(raw, distribution_overrides=[1]),
     "distribution_overrides: not an object: [1]"),
    (lambda raw, tmp: dict(raw, distribution=json_file(
        tmp / "dist.json", dict(default_distribution_dict(), acids=["Ala"]))),
     "distribution.acids: not an object: ['Ala']"),
    (lambda raw, tmp: dict(raw, distribution_overrides={"acids": 1}),
     "distribution.acids: not an object: 1"),
    (lambda raw, tmp: dict(raw, params=json_file(
        tmp / "params.json", dict(default_params_dict(), reagents=["KTG"]))),
     "params.reagents: not an object: ['KTG']"),
    (lambda raw, tmp: dict(raw, params=json_file(
        tmp / "params.json", dict(default_params_dict(), enzymes=[]))),
     "params.enzymes: not an object: []"),
    (lambda raw, tmp: dict(raw, params=json_file(
        tmp / "params.json", dict(default_params_dict(), buffered=5))),
     "params.buffered: not a list: 5"),
    (lambda raw, tmp: dict(raw, params=json_file(
        tmp / "params.json", dict(default_params_dict(), buffered="O2"))),
     "params.buffered: not a list: 'O2'"),
    (lambda raw, tmp: dict(raw, params=json_file(
        tmp / "params.json", dict(default_params_dict(), gains=[]))),
     "params.gains: not an object: []"),
    (lambda raw, tmp: dict(raw, params=json_file(
        tmp / "params.json", dict(default_params_dict(), reagents={"KTG": [500.0]}))),
     "params.reagents.KTG: not a number: [500.0]"),
    (lambda raw, tmp: dict(raw, distribution_overrides={"demographics": ["sex"]}),
     "distribution.demographics: not an object: ['sex']"),
    (lambda raw, tmp: dict(raw, params=json_file(
        tmp / "params.json", dict(default_params_dict(), path_length_cm="x"))),
     "params.path_length_cm: not a number: 'x'"),
    (lambda raw, tmp: dict(raw, params=json_file(
        tmp / "params.json", without(default_params_dict(), "optics", "ABTSox", "epsilon"))),
     "params.optics.ABTSox.epsilon: required key is missing"),
    # the distribution's demographic vocabulary: a list of strings per field
    (lambda raw, tmp: dict(raw, distribution_overrides={"demographics": {"sex": 5}}),
     "distribution.demographics.sex: not a list: 5"),
    (lambda raw, tmp: dict(raw, distribution_overrides={"demographics": {"sex": "female"}}),
     "distribution.demographics.sex: not a list: 'female'"),
    # the top level of the experiment
    (lambda raw, tmp: dict(raw, distribution_overides={"acids": {"Ala": {"mean_uM": 999.0}}}),
     "distribution_overides: unknown key"),
    (lambda raw, tmp: dict(raw, name=[]), "name: not a string: []"),
    # numbers and keys of the data files
    (lambda raw, tmp: dict(raw, params=json_file(
        tmp / "params.json", edited(default_params_dict(), "reagents", "KTG", value=True))),
     "params.reagents.KTG: not a number: True"),
    (lambda raw, tmp: dict(raw, params=json_file(
        tmp / "params.json", edited(default_params_dict(), "enzymes", "ALT", "kcat", value="80"))),
     "params.enzymes.ALT.kcat: not a number: '80'"),
    (lambda raw, tmp: dict(raw, distribution=json_file(
        tmp / "dist.json", edited(default_distribution_dict(), "acids", "Ala", "cv", value="0.1"))),
     "distribution.acids.Ala.cv: not a number: '0.1'"),
    (lambda raw, tmp: dict(raw, params=json_file(
        tmp / "params.json", edited(default_params_dict(), "bufered", value=["O2"]))),
     "params.bufered: unknown key"),
    (lambda raw, tmp: dict(raw, params=json_file(
        tmp / "params.json", edited(default_params_dict(), "enzymes", "ALT", "kcatt", value=80.0))),
     "params.enzymes.ALT.kcatt: unknown key"),
    (lambda raw, tmp: dict(raw, distribution_overrides={"acids": {"Ala": {"shift": {}}}}),
     "distribution.acids.Ala.shift: unknown key"),
    # ALT is the first enzyme; json.load reads 1e400 as inf
    (lambda raw, tmp: dict(raw, params=text_file(tmp / "params.json", json.dumps(
        default_params_dict()).replace('"e_total": 1.0', '"e_total": 1e400', 1))),
     "params.enzymes.ALT.e_total: must be finite and >= 0, got inf"),
    (lambda raw, tmp: dict(raw, params=json_file(
        tmp / "params.json", edited(default_params_dict(), "buffered", value=["Nope"]))),
     "params.buffered[0]: 'Nope' is not a species of any cascade"),
    # the distribution's own rules
    (lambda raw, tmp: dict(raw, distribution=json_file(
        tmp / "dist.json", without(default_distribution_dict(), "acids", "Ala"))),
     "distribution spec missing acids: ['Ala']"),
    (lambda raw, tmp: dict(raw, distribution_overrides={"acids": {"Xyz": {"mean_uM": 1.0,
                                                                          "cv": 0.1}}}),
     "distribution spec has unknown acids: ['Xyz']"),
    (lambda raw, tmp: dict(raw, distribution_overrides={"acids": {"Ala": {"shifts": {
        "sexmale": 1.5}}}}),
     "Ala: shift key 'sexmale' must look like 'field=value'"),
    # params that cannot build the configured channel
    (lambda raw, tmp: dict(raw, params=json_file(
        tmp / "params.json", without(default_params_dict(), "enzymes", "ALT", "km", "Ala"))),
     "channels[0]: ALT: missing Km for substrate Ala"),
    (lambda raw, tmp: dict(raw, params=json_file(
        tmp / "params.json", without(default_params_dict(), "enzymes", "POx"))),
     "channels[0]: no kinetic parameters for enzyme 'POx'"),
    (lambda raw, tmp: dict(raw, params=json_file(
        tmp / "params.json", without(default_params_dict(), "optics", "ABTSox"))),
     "channels[0]: no optics entry for species 'ABTSox'"),
    (lambda raw, tmp: dict(raw, params=json_file(
        tmp / "params.json", edited(default_params_dict(), "optics", "ABTSox", "wavelength",
                                    value=400))),
     "channels[0]: built-in channel ABTSox reads at 405 nm, got 400.0"),
], ids=["config-is-a-list", "acid-without-cv", "enzyme-without-kcat", "params-is-a-list",
        "params-is-a-number", "params-is-true", "distribution-is-empty",
        "distribution-is-a-directory", "params-file-missing", "overrides-is-a-list", "acids-is-a-list",
        "acids-overridden-by-a-number", "reagents-is-a-list", "enzymes-is-a-list",
        "buffered-is-a-number", "buffered-is-a-string", "gains-is-a-list",
        "reagent-is-a-list", "demographics-is-a-list",
        "path-length-is-a-string", "optics-entry-without-epsilon", "number-vocabulary",
        "string-vocabulary", "misspelled-overrides", "list-name", "true-reagent", "text-kcat",
        "text-cv", "misspelled-buffered", "misspelled-kcat", "misspelled-shifts",
        "overflowing-e-total", "buffered-species-not-wired", "distribution-without-an-acid",
        "unknown-acid", "malformed-shift-key", "enzyme-without-a-km", "params-without-an-enzyme",
        "chromophore-without-optics", "chromophore-at-another-wavelength"])
def test_cmd_rejects_malformed_config_files(tmp_path, capsys, monkeypatch, edit, message):
    config = json_file(tmp_path / "cfg.json", edit(small_config(), tmp_path))
    monkeypatch.setattr(pipeline, "mimic_cohort", no_integration)
    monkeypatch.setattr(pipeline, "simulate_batch", no_integration)
    assert run_cli("roc", "--config", config, "--out", str(tmp_path / "m")) == 2
    message = message.format(config=config, tmp=tmp_path)
    assert capsys.readouterr().err == f"configuration error: {message}\n"


@pytest.mark.parametrize("content, message", [
    ("{not json", ": invalid JSON: Expecting property name enclosed in double quotes: "
                  "line 1 column 2 (char 1)"),
    ('{"k2": {"auc": 0.5, "eer": 0.5}}', ".k2: unknown key"),
    ('{"k1": {"eer": 0.5}}', ".k1.auc: required key is missing"),
    ("[]", ": not an object: []"),
    ('{"mode": "group"}', ".k1: required key is missing"),
    ('{"k1": {"auc": 0.5, "eer": true}}', ".k1.eer: not a number: True"),
    ('{"k1": {"auc": 0.5, "eer": NaN}}', ".k1.eer: must be finite, got nan"),
    ('[{"k1": {"auc": 0.5, "eer": 0.5}}]', ": not an object: [{'k1': {'auc': 0.5, 'eer': 0.5}}]"),
    (None, ": cannot read: No such file or directory"),
], ids=["not-json", "without-k1", "k1-without-auc", "not-an-object", "only-k1-missing",
        "boolean-eer", "nan-eer", "list-of-summaries", "missing-file"])
def test_cmd_report_rejects_malformed_summary(tmp_path, capsys, content, message):
    path = tmp_path / "exp" / "summary.json"
    path.parent.mkdir()
    if content is None:  # a dangling link: os.walk lists it, open() finds no file
        path.symlink_to(tmp_path / "gone.json")
    else:
        path.write_text(content)
    assert run_cli("report", "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err == f"configuration error: {path}{message}\n"


def test_every_csv_starts_with_the_config_hash_and_uses_bare_newlines(tmp_path):
    raw = small_config()
    config = json_file(tmp_path / "cfg.json", raw)
    for command in ("cohort", "pipeline", "roc"):
        assert run_cli(command, "--config", config, "--out", str(tmp_path / command)) == 0
    written = sorted(tmp_path.glob("*/*.csv"))
    assert [p.name for p in written] == ["cohort_female.csv", "cohort_male.csv", "features.csv",
                                         "outputs.csv", "roc_accumulated.csv", "roc_k1.csv"]
    head = f"# config_hash={load_experiment(raw).config_hash}\n".encode()
    for p in written:
        data = p.read_bytes()
        assert b"\r" not in data, p.name
        assert data.startswith(head), p.name


def test_cmd_numerical_failure_exit_code(tmp_path):
    params = default_params_dict()
    for entry in params["enzymes"].values():
        entry["kcat"] = 1e160
        entry["e_total"] = 1e160
    ppath = tmp_path / "params.json"
    ppath.write_text(json.dumps(params))
    raw = small_config()
    raw["params"] = str(ppath)
    raw["kinetics"]["dt"] = 0.5
    raw["kinetics"]["t_g"] = 1.0
    cpath = tmp_path / "cfg.json"
    cpath.write_text(json.dumps(raw))
    assert run_cli("pipeline", "--config", str(cpath), "--out", str(tmp_path / "z")) == 4


def test_cmd_verify_bad_thresholds_exit_code(tmp_path, capsys, monkeypatch):
    raw = small_config()
    raw["auth"]["accept_thr"] = raw["auth"]["reject_thr"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    monkeypatch.setattr(pipeline, "simulate_batch", no_integration)
    assert run_cli("verify", "--config", str(path), "--out", str(tmp_path / "v")) == 2
    assert capsys.readouterr().err == ("configuration error: auth.accept_thr: -9.0 must be > "
                                       "auth.reject_thr = -9.0\n")


@pytest.mark.parametrize("edit, message", [
    (lambda auth: auth.update(acumulate_k=auth.pop("accumulate_k")),
     "auth.acumulate_k: unknown key"),
    (lambda auth: auth.update(score_channel=-1),
     "auth.score_channel: must be finite and >= 0, got -1"),
    (lambda auth: auth.update(accumulate_k=0), "auth.accumulate_k: must be finite and >= 1, got 0"),
    (lambda auth: auth.pop("k_reg"), "auth.k_reg: required key is missing"),
    (lambda auth: auth.update(k_reg="x"), "auth.k_reg: not an integer: 'x'"),
    (lambda auth: auth.update(k_reg=0), "auth.k_reg: must be finite and >= 1, got 0"),
    (lambda auth: auth.update({"lambda": "x"}), "auth.lambda: not a number: 'x'"),
    (lambda auth: auth.update({"lambda": -1}), "auth.lambda: must be finite and > 0, got -1"),
    (lambda auth: auth.update({"lambda": 0}), "auth.lambda: must be finite and > 0, got 0"),
    # values that int() or float() would once have converted
    (lambda auth: auth.update(k_reg=2.7), "auth.k_reg: not an integer: 2.7"),
    (lambda auth: auth.update(accumulate_k="3"), "auth.accumulate_k: not an integer: '3'"),
    (lambda auth: auth.update(score_channel=0.0), "auth.score_channel: not an integer: 0.0"),
    (lambda auth: auth.update({"lambda": "0.001"}), "auth.lambda: not a number: '0.001'"),
    (lambda auth: auth.update(accept_thr="3"), "auth.accept_thr: not a number: '3'"),
    (lambda auth: auth.update(drift_margin=None), "auth.drift_margin: not a number: None"),
    (lambda auth: auth.update(mode="identiy"), "auth.mode: 'identiy' is not one of group, identity"),
    (lambda auth: auth.update(mode=""), "auth.mode: '' is not one of group, identity"),
], ids=["misspelled-key", "negative-score-channel", "zero-accumulate-k", "missing-k-reg",
        "text-k-reg", "zero-k-reg", "text-lambda", "negative-lambda", "zero-lambda",
        "fractional-k-reg", "numeric-text-accumulate-k", "float-score-channel",
        "numeric-text-lambda", "numeric-text-accept-thr", "null-drift-margin",
        "misspelled-mode", "empty-mode"])
def test_cmd_rejects_bad_auth_section(tmp_path, capsys, monkeypatch, edit, message):
    raw = small_config()
    edit(raw["auth"])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    calls = []
    monkeypatch.setattr(pipeline, "simulate_batch", lambda *args: calls.append(args))
    assert run_cli("roc", "--config", str(path), "--out", str(tmp_path / "a")) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert calls == []  # refused at load, before any integration


def as_rate_channel(ch, **keys):
    del ch["species"]
    ch.update(transduction="amperometric", **keys)


@pytest.mark.parametrize("edit, message", [
    (lambda ch: ch.update(feture=ch.pop("feature")), "channels[0].feture: unknown key"),
    (lambda ch: ch.update(trasduction="amperometric"), "channels[0].trasduction: unknown key"),
    (lambda ch: ch.update(gain=2.0), "channels[0].gain: unknown key"),
    (lambda ch: ch.update(transduction="amperometric"), "channels[0].species: unknown key"),
    (lambda ch: as_rate_channel(ch, gain="x"), "channels[0].gain: not a number: 'x'"),
    (lambda ch: as_rate_channel(ch, gain=0), "channels[0].gain: must be finite and > 0, got 0"),
    (lambda ch: as_rate_channel(ch, gain="2.0"), "channels[0].gain: not a number: '2.0'"),
    (lambda ch: as_rate_channel(ch, gain=True), "channels[0].gain: not a number: True"),
    (lambda ch: ch.update(species="NADH"),
     "channels[0]: species 'NADH' is not in the AltPoxHrp cascade"),
    (lambda ch: ch.update(transduction="fluorescence"),
     "channels[0].transduction: 'fluorescence' is not one of absorbance, luminescence, "
     "amperometric"),
    (lambda ch: ch.pop("cascade"), "channels[0].cascade: required key is missing"),
    (lambda ch: ch.update(feature="peak"),
     "channels[0].feature: 'peak' is not one of endpoint, slope"),
    (lambda ch: ch.update(inputs=None), "channels[0].inputs: not a list: None"),
    (lambda ch: ch.update(inputs=True), "channels[0].inputs: not a list: True"),
    (lambda ch: ch.update(inputs=-1), "channels[0].inputs: not a list: -1"),
    (lambda ch: ch.update(inputs=0), "channels[0].inputs: not a list: 0"),
    (lambda ch: ch.update(inputs=[[]]), "channels[0].inputs[0]: not a string: []"),
    (lambda ch: ch.update(inputs=["Ala", {}]),
     "channels[0].inputs[1]: not a string: {}"),
    (lambda ch: ch.update(transduction=[]), "channels[0].transduction: not a string: []"),
    (lambda ch: ch.update(transduction={}), "channels[0].transduction: not a string: {}"),
    (lambda ch: ch.update(cascade=7), "channels[0].cascade: not a string: 7"),
    (lambda ch: ch.update(inputs=["Glu"]),
     "channels[0]: 'Glu' is not an input of the AltPoxHrp cascade"),
    (lambda ch: ch.update(inputs=["Xyz"]),
     "channels[0]: 'Xyz' is not an input of the AltPoxHrp cascade"),
    (lambda ch: ch.update(cascade="AltPox"),
     "channels[0].cascade: 'AltPox' is not one of AltLdh, AltPoxHrp, GldhA, GldhB, GldhC, "
     "AlaGlu, AspGlu, AlaAspGlu"),
    (lambda ch: as_rate_channel(ch, cascade="GldhA", inputs=["Glu"]),
     "channels[0]: GldhA cascade lacks the required reporter step for amperometric"),
], ids=["misspelled-feature", "misspelled-transduction", "gain-on-absorbance",
        "species-on-rate-channel", "text-gain", "zero-gain", "numeric-text-gain", "true-gain",
        "species-not-in-cascade",
        "unknown-transduction", "missing-cascade", "unknown-feature", "null-inputs",
        "true-inputs", "negative-inputs", "zero-inputs", "list-input", "object-input",
        "list-transduction", "object-transduction", "number-cascade", "input-of-another-cascade",
        "input-outside-the-panel", "unknown-cascade", "rate-channel-without-reporter-step"])
def test_cmd_rejects_bad_channel_entry(tmp_path, capsys, monkeypatch, edit, message):
    raw = small_config()
    edit(raw["channels"][0])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    monkeypatch.setattr(pipeline, "mimic_cohort", no_integration)
    monkeypatch.setattr(pipeline, "simulate_batch", no_integration)
    assert run_cli("pipeline", "--config", str(path), "--out", str(tmp_path / "c")) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"


@pytest.mark.parametrize("channels, message", [
    (["AltPoxHrp"], "channels[0]: not an object: 'AltPoxHrp'"),
    ([None], "channels[0]: not an object: None"),
    ({}, "channels: not a list: {}"),
    (None, "channels: not a list: None"),
], ids=["text-entry", "null-entry", "object-section", "null-section"])
def test_cmd_rejects_channels_that_are_not_objects(tmp_path, capsys, monkeypatch, channels,
                                                   message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(small_config(channels=channels)))
    monkeypatch.setattr(pipeline, "simulate_batch", no_integration)
    assert run_cli("roc", "--config", str(path), "--out", str(tmp_path / "c")) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"


@pytest.mark.parametrize("edit, message", [
    (lambda kin: kin.pop("dt"), "kinetics.dt: required key is missing"),
    (lambda kin: kin.update(dt="x"), "kinetics.dt: not a number: 'x'"),
    (lambda kin: kin.update(dtt=kin.pop("dt")), "kinetics.dtt: unknown key"),
    (lambda kin: kin.update(dt=0), "kinetics.dt: must be finite and > 0, got 0"),
    (lambda kin: kin.update(t_g=-60.0), "kinetics.t_g: must be finite and > 0, got -60.0"),
    (lambda kin: kin.update(t_g=float("inf")), "kinetics.t_g: must be finite and > 0, got inf"),
    (lambda kin: kin.update(t_g=None), "kinetics.t_g: not a number: None"),
    (lambda kin: kin.update(t_g=True), "kinetics.t_g: not a number: True"),
    (lambda kin: kin.update(t_g="60"), "kinetics.t_g: not a number: '60'"),
    # finite and > 0, but a run that would never end
    (lambda kin: kin.update(t_g=1e300),
     "kinetics: t_g / dt = 5e+301 RK4 steps exceeds the limit of 1,000,000"),
    (lambda kin: kin.update(dt=1e-300),
     "kinetics: t_g / dt = 6e+301 RK4 steps exceeds the limit of 1,000,000"),
    (lambda kin: kin.update(t_g=1_000_001.0, dt=1.0),
     "kinetics: t_g / dt = 1000001 RK4 steps exceeds the limit of 1,000,000"),
    # 3 steps would read the features at 0.9 s, not at t_g
    (lambda kin: kin.update(t_g=1.0, dt=0.3),
     "kinetics: t_g / dt = 3.333333 is not a whole number of RK4 steps, at least 1"),
    (lambda kin: kin.update(t_g=0.005, dt=0.01),
     "kinetics: t_g / dt = 0.5 is not a whole number of RK4 steps, at least 1"),
], ids=["missing-dt", "text-dt", "misspelled-dt", "zero-dt", "negative-t-g", "infinite-t-g",
        "null-t-g", "true-t-g", "numeric-text-t-g", "huge-t-g", "tiny-dt", "one-step-too-many",
        "t-g-between-steps", "t-g-below-one-step"])
def test_cmd_rejects_bad_kinetics_section(tmp_path, capsys, monkeypatch, edit, message):
    raw = small_config()
    edit(raw["kinetics"])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    monkeypatch.setattr(pipeline, "simulate_batch", no_integration)
    assert run_cli("roc", "--config", str(path), "--out", str(tmp_path / "k")) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"


def test_step_and_drift_limits_are_inclusive():
    # loading only: a run at the step or row limit would take minutes
    load_experiment(small_config(kinetics={"t_g": 1_000_000.0, "dt": 1.0}))
    raw = small_config()
    raw["cohort"]["noise"]["drift_rate"] = np.log(1e6) / (4 * 120.0)  # 5 samples 120 s apart
    load_experiment(raw)
    raw["cohort"]["groups"][1]["n"] = 200_000 - 6  # 1,000,000 rows of 5 steps
    load_experiment(raw)


def test_kinetics_check_leaves_config_hash_alone():
    raw = small_config()
    assert load_experiment(raw).config_hash == load_experiment(small_config()).config_hash
    assert raw["kinetics"] == {"t_g": 60.0, "dt": 0.02}


@pytest.mark.parametrize("command", ["pipeline", "roc"])
def test_cmd_empty_cohort_exit_code(tmp_path, capsys, monkeypatch, command):
    raw = small_config()
    for g in raw["cohort"]["groups"]:
        g["n"] = 0
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    monkeypatch.setattr(pipeline, "mimic_cohort", no_integration)
    monkeypatch.setattr(pipeline, "simulate_batch", no_integration)
    assert run_cli(command, "--config", str(path), "--out", str(tmp_path / "e")) == 3
    assert capsys.readouterr().err == "insufficient data: cohort is empty: every group has n = 0\n"


@pytest.mark.parametrize("digitize, message", [
    ({"aggregators": ["weighted-sum"], "weights": [[-1.0]]},
     "configuration error: group 0: Hill filter input must be >= 0, got -"),
    ({"filters": [{"k_half": 11.0, "kind": "passthrough"}]},
     "configuration error: group 0: value "),
], ids=["negative-weight-into-hill", "passthrough-outside-band-rails"])
def test_cmd_rejects_bad_digitize_section(tmp_path, capsys, digitize, message):
    raw = small_config()
    raw["digitize"].update(digitize)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert run_cli("pipeline", "--config", str(path), "--out", str(tmp_path / "d")) == 2
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("edit, message", [
    (lambda t: t.update(mean=[0.5, 0.5], covariance=[[1.0, 0.0], [0.0, 1.0]]),
     "[1]: template dimension 2 != 1 outputs"),
    (lambda t: t.update(covariance=[[-1.0]]), "[1]: Matrix is not positive definite"),
    (lambda t: t.pop("k_reg"), "[1].k_reg: required key is missing"),
    (lambda t: t.update(user_id=["a"]), "[1].user_id: not a string: ['a']"),
    (lambda t: t.update(covariance=[[float("nan")]]),
     "[1].covariance[0][0]: must be finite, got nan"),
    (lambda t: t.update(mean=[float("nan")]), "[1].mean[0]: must be finite, got nan"),
    (lambda t: t.update(created_at=float("inf")), "[1].created_at: must be finite, got inf"),
    (lambda t: t.update(k_reg=0), "[1].k_reg: must be finite and >= 1, got 0"),
    (lambda t: t.update(k_reg=2.0), "[1].k_reg: not an integer: 2.0"),
    (lambda t: t.update({"lambda": 0.0}), "[1].lambda: must be finite and > 0, got 0.0"),
    (lambda t: t.update(created=0.0), "[1].created: unknown key"),
    # the file holds templates for female-000 and female-001 of 12 individuals
    (lambda t: None, ": no template for female-002"),
], ids=["wrong-dimension", "not-positive-definite", "missing-k-reg", "list-user-id",
        "nan-covariance", "nan-mean", "infinite-created-at", "zero-k-reg", "float-k-reg",
        "zero-lambda", "misspelled-created-at", "missing-member"])
def test_cmd_verify_rejects_bad_templates(tmp_path, capsys, monkeypatch, edit, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(small_config()))
    tpath = tmp_path / "templates.json"
    entries = [{"user_id": f"female-00{i}", "k_reg": 2, "lambda": 0.001, "mean": [0.5],
                "covariance": [[0.01]]} for i in range(2)]
    edit(entries[1])
    tpath.write_text(json.dumps(entries))
    monkeypatch.setattr(pipeline, "mimic_cohort", no_integration)
    monkeypatch.setattr(pipeline, "simulate_batch", no_integration)
    assert run_cli("verify", "--config", str(path), "--out", str(tmp_path / "v"),
                   "--templates", str(tpath)) == 2
    assert capsys.readouterr().err == f"configuration error: {tpath}{message}\n"


@pytest.mark.parametrize("content, message", [
    (None, "No such file or directory"),
    ("{not json", "Expecting property name"),
    ('{"user_id": "female-000"}', "not a list: {'user_id': 'female-000'}"),
], ids=["missing-file", "not-json", "not-a-list"])
def test_cmd_verify_rejects_unreadable_templates(tmp_path, capsys, monkeypatch, content,
                                                 message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(small_config()))
    tpath = tmp_path / "templates.json"
    if content is not None:
        tpath.write_text(content)
    monkeypatch.setattr(pipeline, "simulate_batch", no_integration)
    assert run_cli("verify", "--config", str(path), "--out", str(tmp_path / "v"),
                   "--templates", str(tpath)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {tpath}: ") and message in err
    assert len(err.splitlines()) == 1


def test_cmd_rejects_jobs_other_than_one(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("roc", "--config", "builtin:sex-separation", "--jobs", "2",
                "--out", str(tmp_path / "j"))
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_cmd_enroll_then_verify(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(small_config()))
    out = tmp_path / "auth"
    assert run_cli("enroll", "--config", str(path), "--out", str(out)) == 0
    templates = json.loads((out / "templates.json").read_text())
    assert len(templates) == 12
    assert all(t["k_reg"] == 2 for t in templates)
    assert run_cli("verify", "--config", str(path), "--out", str(out),
                   "--templates", str(out / "templates.json")) == 0
    audit = (out / "audit.csv").read_text().strip().splitlines()
    assert audit[0] == "timestamp_s,user_id,statistic,verdict"
    assert len(audit) == 1 + 12
    verdicts = {ln.split(",")[3] for ln in audit[1:]}
    assert verdicts <= {"accept", "reject", "continue"}


def test_cmd_report_aggregates(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(small_config()))
    out = tmp_path / "exp"
    run_cli("roc", "--config", str(path), "--out", str(out))
    assert run_cli("report", "--out", str(tmp_path)) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["n_experiments"] == 1


def test_report_without_summaries(tmp_path):
    assert run_cli("report", "--out", str(tmp_path)) == 3


def test_seed_override_changes_cohort(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(small_config()))
    a, b, c = (tmp_path / d for d in ("sa", "sb", "sc"))
    run_cli("cohort", "--config", str(path), "--out", str(a), "--seed-override", "9")
    run_cli("cohort", "--config", str(path), "--out", str(b), "--seed-override", "9")
    run_cli("cohort", "--config", str(path), "--out", str(c), "--seed-override", "10")
    assert (a / "cohort_female.csv").read_bytes() == (b / "cohort_female.csv").read_bytes()
    assert (a / "cohort_female.csv").read_bytes() != (c / "cohort_female.csv").read_bytes()


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "sweatauth.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for name in ("cohort", "pipeline", "enroll", "verify", "roc", "report"):
        assert name in proc.stdout


def no_integration(*args, **kwargs):
    raise AssertionError("a config error must be caught before any integration")


@pytest.mark.parametrize("edit, message", [
    (lambda raw: raw["cohort"]["groups"][0].update(n="x"),
     "cohort.groups[0].n: not an integer: 'x'"),
    (lambda raw: raw["cohort"]["groups"][0].update(n=-1),
     "cohort.groups[0].n: must be finite and >= 0, got -1"),
    (lambda raw: raw["cohort"]["groups"][0].pop("seed"),
     "cohort.groups[0].seed: required key is missing"),
    (lambda raw: raw["cohort"]["groups"][0].update(demographics={"sexx": "male"}),
     "cohort.groups[0].demographics.sexx: unknown key"),
    (lambda raw: raw["cohort"]["schedule"].update(steps="x"),
     "cohort.schedule.steps: not an integer: 'x'"),
    (lambda raw: raw["cohort"]["schedule"].update(tau=0),
     "cohort.schedule.tau: must be finite and > 0, got 0"),
    (lambda raw: raw["cohort"].update(noize=raw["cohort"].pop("noise")),
     "cohort.noize: unknown key"),
    (lambda raw: raw["cohort"].update(groups={}), "cohort.groups: not a list: {}"),
    (lambda raw: raw["digitize"].pop("groups"), "digitize.groups: required key is missing"),
    (lambda raw: raw["digitize"].update(filterz=raw["digitize"].pop("filters")),
     "digitize.filterz: unknown key"),
    (lambda raw: raw["digitize"]["filters"][0].update(k_half="x"),
     "digitize.filters[0].k_half: not a number: 'x'"),
    (lambda raw: raw["digitize"].update(aggregators=["median"]),
     "digitize.aggregators[0]: 'median' is not one of sum, weighted-sum, cascade-endpoint"),
    (lambda raw: raw["digitize"].update(groups=[[1]]),
     "digitize: group 0 indexes beyond the 1 channels"),
    (lambda raw: raw["digitize"].update(aggregators=["weighted-sum"], weights=[[1.0, 2.0]]),
     "digitize: group 0: weight count mismatch"),
    # 13 samples 120 s apart: exp(1440) overflows in cohort.sample_series
    (lambda raw: raw["cohort"]["schedule"].update(steps=13) or
     raw["cohort"]["noise"].update(drift_rate=1.0),
     "cohort.noise.drift_rate: 1.0 scales the last sample by exp(1440), "
     "beyond the limit of a factor 1e+06 over the schedule"),
    (lambda raw: raw["cohort"]["noise"].update(drift_rate=-0.5),
     "cohort.noise.drift_rate: -0.5 scales the last sample by exp(-240), "
     "beyond the limit of a factor 1e+06 over the schedule"),
    (lambda raw: raw["cohort"]["groups"][0].update(demographics={"sex": 5}),
     "cohort.groups[0].demographics.sex: not a string: 5"),
    (lambda raw: raw["cohort"]["schedule"].update(t0=float("-inf")),
     "cohort.schedule.t0: must be finite, got -inf"),
    # float(10**400) overflows
    (lambda raw: raw["cohort"]["schedule"].update(tau=10**400),
     f"cohort.schedule.tau: must be finite and > 0, got {10**400}"),
    # cohort sampling squares a CV of 1.3e154 or more to infinity
    (lambda raw: raw["cohort"]["noise"].update(cv=1e200),
     "cohort.noise.cv: 1e+200 exceeds the limit of 100"),
    (lambda raw: raw.update(distribution_overrides={"acids": {"Ala": {"cv": 1e200}}}),
     "distribution.acids.Ala.cv: 1e+200 exceeds the limit of 100"),
    # a value outside the distribution's demographic vocabulary, before any sampling
    (lambda raw: raw["cohort"]["groups"][0].update(demographics={"sex": "robot"}),
     "cohort.groups[0].demographics: demographic sex='robot' not in vocabulary "
     "['female', 'male']"),
    (lambda raw: raw.pop("digitize"), "experiment config missing section 'digitize'"),
    # weights are read only by weighted-sum groups, and hold one per channel of each group
    (lambda raw: raw["digitize"].update(weights=[[1.0, 2.0]]),
     "digitize: weights given, but no group is weighted-sum"),
    (lambda raw: raw["digitize"].update(aggregators=["weighted-sum"], weights=[[1.0], [1.0]]),
     "digitize: weights must align with groups"),
    (lambda raw: raw["digitize"].update(
        groups=[[0], [0]], aggregators=["weighted-sum", "sum"], weights=[[2.0], [1.0, 1.0]],
        filters=raw["digitize"]["filters"] * 2),
     "digitize: group 1: weight count mismatch"),
    # the rest of digitize.GroupingSpec, FilterParams and BandSpec
    (lambda raw: raw["digitize"].update(groups=[], aggregators=[], filters=[]),
     "digitize: need at least one group"),
    (lambda raw: raw["digitize"].update(aggregators=["sum", "sum"]),
     "digitize: one aggregator per group required"),
    (lambda raw: raw["digitize"].update(groups=[[]]), "digitize: empty group"),
    (lambda raw: raw["digitize"].update(groups=[[0, 0]], aggregators=["cascade-endpoint"]),
     "digitize: cascade-endpoint groups hold exactly one channel"),
    (lambda raw: raw["digitize"].update(filters=raw["digitize"]["filters"] * 2),
     "digitize: one filter per group required"),
    (lambda raw: raw["digitize"]["filters"][0].update(k_half=0.0), "digitize: k_half must be > 0"),
    (lambda raw: raw["digitize"]["filters"][0].update(hill_n=0.5),
     "digitize: hill_n must be >= 1"),
    (lambda raw: raw["digitize"]["filters"][0].update(out_lo=1.0, out_hi=0.0),
     "digitize: out_lo must be < out_hi"),
    (lambda raw: raw["digitize"]["filters"][0].update(kind="boxcar"),
     "digitize.filters[0].kind: 'boxcar' is not one of hill, passthrough"),
    (lambda raw: raw["digitize"]["bands"].update(boundaries=[0.6, 0.4], labels=["a", "b", "c"]),
     "digitize: band boundaries must be strictly ascending"),
    (lambda raw: raw["digitize"]["bands"].update(labels=["only"]),
     "digitize: need exactly len(boundaries)+1 labels"),
    (lambda raw: raw["digitize"]["bands"].update(boundaries=[1.5]),
     "digitize: boundaries must lie strictly inside the rails"),
], ids=["text-n", "negative-n", "missing-seed", "misspelled-demographic", "text-steps",
        "zero-tau", "misspelled-noise", "groups-not-a-list", "missing-digitize-groups",
        "misspelled-filters", "text-k-half", "unknown-aggregator", "group-beyond-channels",
        "weight-count-mismatch", "overflowing-drift", "vanishing-drift", "number-demographic",
        "minus-infinite-t0", "integer-tau-beyond-floats", "huge-noise-cv", "huge-acid-cv",
        "demographic-outside-the-vocabulary", "missing-section", "weights-without-weighted-sum",
        "weights-not-one-per-group", "weight-count-mismatch-of-a-sum-group", "no-groups",
        "aggregator-count", "empty-group", "two-channel-cascade-endpoint", "filter-count",
        "zero-k-half", "fractional-hill-n", "rails-out-of-order", "unknown-filter-kind",
        "descending-band-boundaries", "band-label-count", "band-boundary-beyond-the-rails"])
def test_cmd_rejects_bad_cohort_and_digitize_sections(tmp_path, capsys, monkeypatch, edit,
                                                      message):
    raw = small_config()
    edit(raw)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    monkeypatch.setattr(pipeline, "mimic_cohort", no_integration)
    monkeypatch.setattr(pipeline, "simulate_batch", no_integration)
    assert run_cli("pipeline", "--config", str(path), "--out", str(tmp_path / "p")) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"


@pytest.mark.parametrize("edit, code, message", [
    ({"accumulate_k": 10}, 3,
     "insufficient data: auth: k_reg + accumulate_k = 12 exceeds cohort.schedule.steps = 5"),
    ({"score_channel": 1}, 2, "configuration error: auth.score_channel: 1 is out of range: "
                              "digitize has 1 output groups"),
    ({"genuine_group": "nobody"}, 2, "configuration error: auth.genuine_group: 'nobody' is not "
                                     "a cohort group (groups: female, male)"),
    # scored against itself, the group would read AUC 0.5
    ({"impostor_group": "female"}, 2, "configuration error: auth.impostor_group: 'female' is "
                                      "also the genuine group; group mode compares two cohort "
                                      "groups"),
], ids=["window-beyond-schedule", "score-channel-beyond-outputs", "unknown-genuine-group",
        "impostors-are-the-genuine-group"])
def test_cmd_roc_checks_auth_against_schedule_and_outputs_first(tmp_path, capsys, monkeypatch,
                                                                edit, code, message):
    import sweatauth.pipeline

    raw = small_config()
    raw["auth"].update(edit)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    monkeypatch.setattr(sweatauth.pipeline, "simulate_batch", no_integration)
    assert run_cli("roc", "--config", str(path), "--out", str(tmp_path / "r")) == code
    assert capsys.readouterr().err == f"{message}\n"


def test_cmd_roc_group_mode_needs_two_configured_groups(tmp_path, capsys, monkeypatch):
    raw = small_config()
    raw["cohort"]["groups"].pop()  # both defaults name the one group left
    del raw["auth"]["genuine_group"], raw["auth"]["impostor_group"]
    monkeypatch.setattr(pipeline, "simulate_batch", no_integration)
    assert run_cli("roc", "--config", json_file(tmp_path / "cfg.json", raw),
                   "--out", str(tmp_path / "r")) == 2
    assert capsys.readouterr().err == ("configuration error: auth.impostor_group: 'female' is "
                                       "also the genuine group; group mode compares two cohort "
                                       "groups\n")


def test_cmd_roc_configured_group_without_members_exit_code(tmp_path, capsys, monkeypatch):
    raw = small_config()
    raw["cohort"]["groups"][1]["n"] = 0
    monkeypatch.setattr(pipeline, "simulate_batch", no_integration)
    assert run_cli("roc", "--config", json_file(tmp_path / "cfg.json", raw),
                   "--out", str(tmp_path / "r")) == 3
    assert capsys.readouterr().err == ("insufficient data: groups 'female'/'male' "
                                       "must both be non-empty\n")


@pytest.mark.parametrize("command, edit, code, message", [
    ("roc", lambda raw: raw["auth"].update(mode="identity") or
     raw["cohort"]["groups"][0].update(n=1) or raw["cohort"]["groups"][1].update(n=0), 3,
     "insufficient data: auth evaluation needs at least 2 individuals"),
    ("enroll", lambda raw: raw["auth"].update(k_reg=40), 3,
     "insufficient data: auth: k_reg = 40 exceeds cohort.schedule.steps = 5"),
    ("verify", lambda raw: raw["auth"].update(k_reg=40), 3,
     "insufficient data: auth: k_reg = 40 exceeds cohort.schedule.steps = 5"),
    ("verify", lambda raw: raw["auth"].update(accept_thr=-10, reject_thr=-9), 2,
     "configuration error: auth.accept_thr: -10 must be > auth.reject_thr = -9"),
    ("pipeline", lambda raw: raw["auth"].pop("accept_thr") and raw["auth"].update(reject_thr=3),
     2, "configuration error: auth.accept_thr: 3.0 must be > auth.reject_thr = 3"),
    # DeLong needs 2 accumulated scores per class, one per member in group mode
    ("roc", lambda raw: raw["cohort"]["groups"][0].update(n=1), 3,
     "insufficient data: groups 'female'/'male' need at least 2 members each: DeLong needs 2 "
     "accumulated scores per class"),
    ("enroll", lambda raw: raw.pop("auth"), 2,
     "configuration error: experiment config missing section 'auth'"),
], ids=["identity-of-one", "enroll-window-beyond-schedule", "verify-window-beyond-schedule",
        "verify-thresholds-out-of-order", "default-accept-at-reject", "group-of-one",
        "enroll-without-auth"])
def test_cmd_checks_auth_rules_before_integration(tmp_path, capsys, monkeypatch, command, edit,
                                                  code, message):
    raw = small_config()
    edit(raw)
    monkeypatch.setattr(pipeline, "mimic_cohort", no_integration)
    monkeypatch.setattr(pipeline, "simulate_batch", no_integration)
    assert run_cli(command, "--config", json_file(tmp_path / "cfg.json", raw),
                   "--out", str(tmp_path / "a")) == code
    assert capsys.readouterr().err == f"{message}\n"


def test_cmd_verify_registration_may_fill_the_schedule(tmp_path, capsys):
    raw = small_config()
    raw["auth"]["k_reg"] = raw["cohort"]["schedule"]["steps"]  # no probes left to verify
    out = tmp_path / "v"
    assert run_cli("verify", "--config", json_file(tmp_path / "cfg.json", raw),
                   "--out", str(out)) == 0
    rows = (out / "audit.csv").read_text().splitlines()[1:]
    assert len(rows) == 12
    assert all(r.startswith("0.0,") and r.endswith(",0.0,continue") for r in rows)


@pytest.mark.parametrize("command, edit, message", [
    ("pipeline", lambda groups: groups[1].update(name="female"),
     "cohort.groups[1].name: 'female' repeats entry [0]"),
    ("cohort", lambda groups: groups[1].update(name="female"),
     "cohort.groups[1].name: 'female' repeats entry [0]"),
    ("cohort", lambda groups: groups[0].update(name="a/b"),
     "cohort.groups[0].name: 'a/b' is part of a file name, so it may not hold '/', '\\' or NUL"),
    ("cohort", lambda groups: groups[1].update(name="a\\b"),
     "cohort.groups[1].name: 'a\\\\b' is part of a file name, so it may not hold '/', '\\' or "
     "NUL"),
    ("cohort", lambda groups: groups[0].update(name="a\0b"),
     "cohort.groups[0].name: 'a\\x00b' is part of a file name, so it may not hold '/', '\\' or "
     "NUL"),
    ("cohort", lambda groups: groups[0].update(name=""),
     "cohort.groups[0].name: not a non-empty string: ''"),
], ids=["pipeline-repeated-name", "cohort-repeated-name", "slash", "backslash", "nul", "empty"])
def test_cmd_rejects_bad_group_names(tmp_path, capsys, monkeypatch, command, edit, message):
    raw = small_config()
    edit(raw["cohort"]["groups"])
    out = tmp_path / "out"
    monkeypatch.setattr(pipeline, "mimic_cohort", no_integration)
    monkeypatch.setattr(pipeline, "simulate_batch", no_integration)
    assert run_cli(command, "--config", json_file(tmp_path / "cfg.json", raw),
                   "--out", str(out)) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert list(out.iterdir()) == []


# every value here fails at its check; a run below the limits is never tried
@pytest.mark.parametrize("command, edit, message", [
    ("cohort", lambda raw: raw["cohort"]["groups"][0].update(n=10**12),
     "cohort: 1,000,000,000,006 individuals x 5 schedule steps = 5,000,000,000,030 batch rows "
     "exceeds the limit of 1,000,000"),
    ("pipeline", lambda raw: raw["cohort"]["schedule"].update(steps=10**12),
     "cohort: 12 individuals x 1,000,000,000,000 schedule steps = 12,000,000,000,000 batch "
     "rows exceeds the limit of 1,000,000"),
    ("roc", lambda raw: raw["cohort"]["groups"][1].update(n=200_000 - 5),
     "cohort: 200,001 individuals x 5 schedule steps = 1,000,005 batch rows exceeds the "
     "limit of 1,000,000"),
    ("roc", lambda raw: raw["auth"].update(mode="identity") or
     raw["cohort"]["groups"][1].update(n=4_994),
     "auth: identity mode scores 5,000 x 4,999 x accumulate_k 3 = 74,985,000 impostor scores, "
     "beyond the limit of 50,000,000"),
], ids=["cohort-n", "pipeline-steps", "one-row-too-many", "identity-impostor-scores"])
def test_cmd_refuses_runs_too_large_to_allocate(tmp_path, capsys, monkeypatch, command, edit,
                                                message):
    raw = small_config()
    edit(raw)
    monkeypatch.setattr(pipeline, "mimic_cohort", no_integration)
    monkeypatch.setattr(pipeline, "simulate_batch", no_integration)
    assert run_cli(command, "--config", json_file(tmp_path / "cfg.json", raw),
                   "--out", str(tmp_path / "big")) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"


def test_cmd_verify_rejects_repeated_user_ids(tmp_path, capsys, monkeypatch):
    tpath = tmp_path / "templates.json"
    entries = [{"user_id": "female-000", "k_reg": 2, "lambda": 0.001, "mean": [mean],
                "covariance": [[0.01]]} for mean in (0.5, 0.7)]
    tpath.write_text(json.dumps(entries))
    monkeypatch.setattr(pipeline, "simulate_batch", no_integration)
    assert run_cli("verify", "--config", json_file(tmp_path / "cfg.json", small_config()),
                   "--out", str(tmp_path / "v"), "--templates", str(tpath)) == 2
    assert capsys.readouterr().err == (f"configuration error: {tpath}[1].user_id: "
                                       "'female-000' repeats entry [0]\n")


# The refusals that no table above reaches, each of a value given on the command line.
# With the tables above, every ConfigurationError and InsufficientDataError that a
# config or a --templates file can raise comes before any sampling or integration. The
# two that depend on the sampled values, a negative Hill filter input and an output
# outside the band rails, come after it (test_cmd_rejects_bad_digitize_section).
@pytest.mark.parametrize("argv, message", [
    (["cohort", "--config", "builtin:sex-separation", "--seed-override", "-1"],
     "--seed-override: must be finite and >= 0, got -1"),
    (["roc", "--config", "builtin:sex-separatoin"],
     "unknown builtin experiment 'sex-separatoin'; available: ['identity', 'sex-separation', "
     "'sex-separation-null']"),
], ids=["negative-seed-override", "unknown-builtin"])
def test_cmd_refuses_command_line_values_before_any_work(tmp_path, capsys, monkeypatch, argv,
                                                         message):
    out = tmp_path / "out"
    monkeypatch.setattr(pipeline, "mimic_cohort", no_integration)
    monkeypatch.setattr(pipeline, "simulate_batch", no_integration)
    assert run_cli(*argv, "--out", str(out)) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert list(out.iterdir()) == []


def test_plan_member_ids_are_the_sampled_ids(small_result):
    plan = small_result.plan
    assert [p.id for p in small_result.profiles] == [m for *_, ids in plan.groups for m in ids]
    assert small_result.group_of == [g["name"] for g, _, ids in plan.groups for _ in ids]


def test_omitted_series_seed_records_the_seed_it_samples_with(tmp_path):
    omitted, zero = small_config(), small_config()
    del omitted["cohort"]["series_seed"]
    zero["cohort"]["series_seed"] = 0
    runs = []
    for name, raw in (("omitted", omitted), ("zero", zero)):
        out = tmp_path / name
        cfg = json_file(tmp_path / f"{name}.json", raw)
        assert run_cli("cohort", "--config", cfg, "--out", str(out)) == 0
        assert run_cli("roc", "--config", cfg, "--out", str(out)) == 0
        runs.append((json.loads((out / "manifest.json").read_text())["seeds"],
                     json.loads((out / "summary.json").read_text())["seeds"],
                     (out / "roc_k1.csv").read_text().splitlines()[1:]))
    seeds = {"groups": {"female": 1101, "male": 2202}, "series_seed": 0}
    assert runs[0][:2] == runs[1][:2] == (seeds, seeds)
    assert runs[0][2] == runs[1][2]


def test_cmd_roc_identity_mode_ignores_score_channel(tmp_path, capsys):
    raw = small_config()
    raw["auth"].update(mode="identity", score_channel=1)  # identity mode scores every output
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert run_cli("roc", "--config", str(path), "--out", str(tmp_path / "r")) == 0
    assert capsys.readouterr().err == ""


def test_section_checks_leave_raw_alone():
    assert load_experiment(small_config()).raw == small_config()


def _key_paths(node, path=()):
    """Every key or index path under a nested dict/list config section."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _key_paths(value, path + (key,))


@st.composite
def mutated_config(draw):
    """(small_config, its data files) with one key dropped, renamed or retyped: a key
    of the experiment's top level, anywhere in one of its sections, or anywhere in the
    params or the distribution file. The data files are named "{tmp}/<file>.json"."""
    raw = small_config()
    raw["kinetics"].update(t_g=2.0, dt=0.1)
    files = {"params": default_params_dict(), "distribution": default_distribution_dict()}
    for name in files:
        raw[name] = f"{{tmp}}/{name}.json"
    target = draw(st.sampled_from(["experiment", "cohort", "digitize", "auth", "kinetics",
                                   "channels", "params", "distribution"]))
    if target == "experiment":
        tree, paths = raw, [(key,) for key in raw]
    else:
        tree = files.get(target, raw.get(target))
        paths = list(_key_paths(tree))
    *parents, key = draw(st.sampled_from(sorted(paths, key=repr)))
    node = tree
    for p in parents:
        node = node[p]
    action = draw(st.sampled_from(["drop", "rename", "retype"]))
    if action == "drop":
        del node[key]
    elif action == "rename" and isinstance(node, dict):
        node[f"{key}x"] = node.pop(key)
    else:
        node[key] = draw(st.sampled_from(["x", None, [], {}, True, -1, 0]))
    return raw, files


@settings(max_examples=100, deadline=None)
@given(case=mutated_config())
def test_mutated_config_section_ends_in_one_line(case):
    # whatever one key of the experiment, a section or a data file holds, roc
    # ends with exit 0, or with exit 2, 3 or 4 and one stderr line: never
    # with a traceback
    import contextlib
    import io
    import tempfile

    raw, files = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, tree in files.items():
            json_file(Path(tmp) / f"{name}.json", tree)
            if isinstance(raw.get(name), str):
                raw[name] = raw[name].format(tmp=tmp)
        path = f"{tmp}/cfg.json"
        with open(path, "w") as fh:
            json.dump(raw, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run_cli("roc", "--config", path, "--out", f"{tmp}/out")
    assert code in (0, 2, 3, 4)
    assert (code == 0) == (err.getvalue() == "")
    assert err.getvalue().count("\n") == (code != 0)
