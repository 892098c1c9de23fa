"""End-to-end experiment runs: cohorts through cascades to auth metrics.

The hot loop is the batched cascade integration: every (individual, time
step) pair of an experiment becomes one row of one batch for the whole run.
Each distinct (cascade, inputs) pair of the configured channels is one block
of a ``CascadeUnion``, and the batch observes one signal per channel
(``transduce.readout``); gate-time features come from its endpoints or slope
sums, without full traces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import metrics
from ._artifacts import write_csv, write_json
from .auth import enroll, score_step
from .cohort import (ACID_INDEX, AMINO_ACIDS, N_ACIDS, Demographics, NoiseSpec,
                     SamplingSchedule, mimic_cohort, sample_series,
                     write_cohort_csv)
from .config import (ExperimentConfig, auth_groups, auth_setting, check_auth_fits,
                     collect_seeds)
from .digitize import BandSpec, FilterParams, GroupingSpec, consolidate
from .errors import ConfigurationError, InsufficientDataError
from .kinetics import BatchResult, CascadeUnion, build_cascade, simulate_batch
from .transduce import readout


@dataclass
class Channel:
    """One configured assay channel: a cascade plus its readout."""

    name: str
    network: object
    inputs: list
    feature: str
    signal: object   # observed species name, or reporter-step index (rate readouts)
    scale: float     # Beer-Lambert scale or gain


def build_channel(entry: dict, params, where: str = "channel") -> Channel:
    """Channel for one entry of the config's channel table; errors are prefixed with ``where``."""
    try:
        network = build_cascade(entry["cascade"], params)
        inputs = list(entry.get("inputs", network.input_species))
        for acid in inputs:
            if acid not in network.input_species:
                raise ConfigurationError(
                    f"{acid!r} is not an input of the {network.kind.value} cascade")
        feature = entry.get("feature", "endpoint")
        if feature not in ("endpoint", "slope"):
            raise ConfigurationError(f"unknown feature mode {feature!r}")
        signal, scale = readout(network, entry, params)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{where}: {exc}") from None
    return Channel(name=entry.get("name", network.kind.value), network=network,
                   inputs=inputs, feature=feature, signal=signal, scale=scale)


def channel_features(ch: Channel, res: BatchResult, column: int) -> np.ndarray:
    """Gate-time feature per batch row of a channel, from its signal ``column`` of res."""
    if ch.feature == "endpoint":
        return ch.scale * res.endpoint_delta()[:, column]
    return ch.scale * np.abs(res.slope()[:, column])


def integrate_channels(channels: list, X_flat: np.ndarray, t_g: float, dt: float) -> BatchResult:
    """One batch for all channels; column j of its signals belongs to channels[j].

    X_flat is [B, 23] sampled concentrations. Channels with the same cascade
    and inputs share a block, which each row seeds with its input analytes
    on top of the assay mix.
    """
    first = {}  # (cascade, inputs) -> the first channel with them, one block each
    for ch in channels:
        first.setdefault(_block_key(ch), ch)
    keys = list(first)
    union = CascadeUnion([ch.network for ch in first.values()])
    C0 = np.empty((len(X_flat), int(union.species_offsets[-1])))
    for lo, ch in zip(union.species_offsets, first.values()):
        C0[:, lo:lo + len(ch.network.species)] = ch.network.init_vector({})
        for acid in ch.inputs:
            C0[:, lo + ch.network.index(acid)] = X_flat[:, ACID_INDEX[acid]]
    return simulate_batch(union, C0, t_g, dt,
                          [(keys.index(_block_key(ch)), ch.signal) for ch in channels])


def _block_key(ch: Channel) -> tuple:
    return ch.network.kind, tuple(ch.inputs)


@dataclass
class PipelineResult:
    config: ExperimentConfig
    group_of: list
    profiles: list
    schedule: SamplingSchedule
    t_g: float
    channel_names: list
    features: np.ndarray   # [n_individuals, steps, n_channels]
    outputs: np.ndarray    # [n_individuals, steps, S] digitized outputs
    bands: np.ndarray      # [n_individuals, steps, S] band labels, None without bands

    @property
    def n_outputs(self) -> int:
        return self.outputs.shape[-1]

    @property
    def timestamps(self) -> np.ndarray:  # output time: sampling time plus the gate delay
        return self.schedule.timestamps() + self.t_g


def _digitize_specs(dig: dict, n_channels: int) -> tuple:
    """(grouping, filters, bands) of a digitize section; errors are prefixed ``digitize``."""
    try:
        grouping = GroupingSpec(groups=dig["groups"], aggregators=dig["aggregators"],
                                weights=dig.get("weights", []))
        for gi, idxs in enumerate(grouping.groups):
            if max(idxs) >= n_channels:
                raise ConfigurationError(f"group {gi} indexes beyond the {n_channels} channels")
        filters = [FilterParams(**f) for f in dig["filters"]]
        if len(filters) != grouping.n_outputs:
            raise ConfigurationError("one filter per group required")
        bands = BandSpec(**dig["bands"]) if dig.get("bands") else None
    except ConfigurationError as exc:
        raise ConfigurationError(f"digitize: {exc}") from None
    return grouping, filters, bands


def _cohort_groups(cfg: ExperimentConfig) -> list:
    """(group entry, members) per configured group; member ids are <group>-NNN."""
    groups = []
    for g in cfg.section("cohort")["groups"]:
        demo = Demographics(**g.get("demographics", {}))
        members = mimic_cohort(cfg.distribution, demo, int(g["n"]), int(g["seed"]))
        for k, p in enumerate(members):
            p.id = f"{g['name']}-{k:03d}"
        groups.append((g, members))
    return groups


def run_pipeline(cfg: ExperimentConfig) -> PipelineResult:
    """Cohort sampling, cascade simulation, and digitization for one config."""
    cohort_cfg = cfg.section("cohort")
    schedule = SamplingSchedule(**cohort_cfg["schedule"])
    noise = NoiseSpec(**cohort_cfg.get("noise", {}))
    series_seed = collect_seeds(cfg.raw)["series_seed"]

    profiles, group_of = [], []
    for g, members in _cohort_groups(cfg):
        profiles.extend(members)
        group_of.extend([g["name"]] * len(members))

    kin = cfg.section("kinetics")
    t_g, dt = float(kin["t_g"]), float(kin["dt"])
    channels = [build_channel(e, cfg.params, f"channels[{i}]")
                for i, e in enumerate(cfg.section("channels"))]
    grouping, filters, bands = _digitize_specs(cfg.section("digitize"), len(channels))
    if not profiles:
        raise InsufficientDataError("cohort is empty: every group has n = 0")

    n_indiv, steps = len(profiles), schedule.steps
    X = np.empty((n_indiv, steps, N_ACIDS))
    for i, p in enumerate(profiles):
        X[i] = sample_series(p, schedule, noise, series_seed)
    X_flat = X.reshape(n_indiv * steps, N_ACIDS)

    res = integrate_channels(channels, X_flat, t_g, dt)
    feats = np.empty((n_indiv * steps, len(channels)))
    for ci, ch in enumerate(channels):
        feats[:, ci] = channel_features(ch, res, ci)
    features = feats.reshape(n_indiv, steps, len(channels))

    outputs, labels = consolidate(grouping, features, filters, bands=bands)
    return PipelineResult(config=cfg, group_of=group_of, profiles=profiles,
                          schedule=schedule, t_g=t_g,
                          channel_names=[c.name for c in channels],
                          features=features, outputs=outputs, bands=labels)


# ----------------------------------------------------------------------
# authentication evaluation
# ----------------------------------------------------------------------

def run_auth_eval(cfg: ExperimentConfig):
    """Score genuine vs impostor streams and compute ROC/AUC/EER reports.

    Group mode compares two cohorts: per-step scores are the digitized
    output of the configured channel, accumulated scores its mean over the
    continuation window, and a pooled template enrolled on the genuine
    registration rows is reported as a secondary statistic. Identity mode
    enrolls one template per individual and scores own-against-other
    continuation streams.
    """
    check_auth_fits(cfg)
    result = run_pipeline(cfg)
    auth_cfg = cfg.section("auth")
    mode = auth_setting(auth_cfg, "mode")
    k_reg, k_acc = auth_cfg["k_reg"], auth_setting(auth_cfg, "accumulate_k")

    if mode == "group":
        pops, extras = _group_mode_scores(result, auth_cfg, k_reg, k_acc)
    else:  # "identity", the one other mode the AUTH table allows
        pops, extras = _identity_mode_scores(result, auth_cfg, k_reg, k_acc)

    summary = {
        "experiment": cfg.raw.get("name", ""),
        "mode": mode,
        "config_hash": cfg.config_hash,
        "params_hash": cfg.params_hash,
        "seeds": collect_seeds(cfg.raw),
        "k_reg": k_reg,
    }
    summary.update(extras)
    curves = {}
    for label, pop in pops.items():
        entry = metrics.delong_variance(pop).as_dict()
        curves[label] = metrics.roc_curve(pop)
        entry["eer"] = curves[label].eer()
        entry["n_genuine"] = int(pop.genuine.size)
        entry["n_impostor"] = int(pop.impostor.size)
        if label == "accumulated":
            entry["k"] = k_acc
        summary[label] = entry
    return summary, curves, result


def _group_mode_scores(result, auth_cfg, k_reg, k_acc):
    # two different cohort groups, both with members: checked by check_auth_fits
    gen_name, imp_name = auth_groups(result.config)
    gen_idx = [i for i, g in enumerate(result.group_of) if g == gen_name]
    imp_idx = [i for i, g in enumerate(result.group_of) if g == imp_name]
    sc = auth_setting(auth_cfg, "score_channel")  # < S, checked by check_auth_fits
    gen = result.outputs[gen_idx, k_reg:k_reg + k_acc]   # [n_gen, k_acc, S]
    imp = result.outputs[imp_idx, k_reg:k_reg + k_acc]

    k1 = metrics.ScoredPopulation(genuine=gen[..., sc].ravel(), impostor=imp[..., sc].ravel())
    acc = metrics.ScoredPopulation(genuine=gen[..., sc].mean(axis=1),
                                   impostor=imp[..., sc].mean(axis=1))

    # secondary: pooled template on the genuine registration rows
    lam = auth_setting(auth_cfg, "lambda")
    reg_rows = np.concatenate(result.outputs[gen_idx, :k_reg])
    tpl = enroll(reg_rows, k_reg=len(reg_rows), lam=lam, user_id=f"group:{gen_name}",
                 created_at=float(result.schedule.t0 + k_reg * result.schedule.tau))
    tpl_pop = metrics.ScoredPopulation(
        genuine=[score_step(tpl, y) for rows in gen for y in rows],
        impostor=[score_step(tpl, y) for rows in imp for y in rows])
    extras = {
        "genuine_group": gen_name,
        "impostor_group": imp_name,
        "n_genuine_users": len(gen_idx),
        "n_impostor_users": len(imp_idx),
        "template_k1_auc": metrics.auc(tpl_pop),
    }
    return {"k1": k1, "accumulated": acc}, extras


def enroll_templates(result: PipelineResult, auth_cfg: dict) -> list:
    """One template per individual, fitted on its first auth.k_reg outputs."""
    # float: templates.json records lambda as a float even when the config gives an integer
    k_reg, lam = auth_cfg["k_reg"], float(auth_setting(auth_cfg, "lambda"))
    created = float(result.schedule.t0 + k_reg * result.schedule.tau)
    return [enroll(y[:k_reg], k_reg=k_reg, lam=lam, user_id=p.id, created_at=created)
            for y, p in zip(result.outputs, result.profiles)]


def _identity_mode_scores(result, auth_cfg, k_reg, k_acc):
    """Populations of template i scored on the continuation of individual j.

    Genuine scores are the pairs i == j, impostor scores the rest, each in
    (template, probe individual, step) order. An accumulated score adds the
    k_acc step scores of one pair from left to right, starting from 0.0.
    """
    n = len(result.profiles)
    cont = result.outputs[:, k_reg:k_reg + k_acc]
    gen = np.empty((n, k_acc))         # [template, step]
    imp = np.empty((n, n - 1, k_acc))  # [template, other probe individual, step]
    for i, tpl in enumerate(enroll_templates(result, auth_cfg)):
        for j, probes in enumerate(cont):
            row = gen[i] if j == i else imp[i, j - (j > i)]
            row[:] = [score_step(tpl, y) for y in probes]
    acc_gen, acc_imp = np.zeros(n), np.zeros((n, n - 1))
    for step in range(k_acc):
        acc_gen += gen[:, step]
        acc_imp += imp[:, :, step]
    extras = {"n_genuine_users": n, "n_impostor_users": n}
    return ({"k1": metrics.ScoredPopulation(gen, imp),
             "accumulated": metrics.ScoredPopulation(acc_gen, acc_imp)}, extras)


# ----------------------------------------------------------------------
# artifact writers
# ----------------------------------------------------------------------

def write_outputs_csv(path, result: PipelineResult) -> None:
    """Digitized output streams: id, group, step, timestamp, S values, S bands."""
    S = result.n_outputs
    times = result.timestamps.tolist()
    bands = (result.bands.tolist() if result.bands is not None
             else [[[""] * S] * len(times)] * len(result.profiles))
    rows = ([p.id, group, k, times[k]] + values + labels
            for p, group, value_rows, label_rows
            in zip(result.profiles, result.group_of, result.outputs.tolist(), bands)
            for k, (values, labels) in enumerate(zip(value_rows, label_rows)))
    write_csv(path, ["id", "group", "k", "timestamp_s"]
              + [f"y{s}" for s in range(S)] + [f"band{s}" for s in range(S)],
              rows, result.config.config_hash)


def write_features_csv(path, result: PipelineResult) -> None:
    """Gate-time features: id, group, step, one value per channel."""
    rows = ([p.id, group, k] + values
            for p, group, value_rows
            in zip(result.profiles, result.group_of, result.features.tolist())
            for k, values in enumerate(value_rows))
    write_csv(path, ["id", "group", "k"] + list(result.channel_names), rows,
              result.config.config_hash)


def write_cohort_artifacts(cfg: ExperimentConfig, out_dir) -> list:
    """Per-group cohort CSVs plus a manifest; returns written paths."""
    import os

    paths = []
    groups_meta = {}
    for g, members in _cohort_groups(cfg):
        path = os.path.join(out_dir, f"cohort_{g['name']}.csv")
        write_cohort_csv(path, members, config_hash=cfg.config_hash)
        paths.append(path)
        groups_meta[g["name"]] = {"n": int(g["n"]), "seed": int(g["seed"]),
                                  "stored_values": int(g["n"]) * N_ACIDS}
    manifest = {
        "config_hash": cfg.config_hash,
        "params_hash": cfg.params_hash,
        "seeds": collect_seeds(cfg.raw),
        "groups": groups_meta,
        "acids": list(AMINO_ACIDS),
    }
    mpath = os.path.join(out_dir, "manifest.json")
    write_json(mpath, manifest)
    paths.append(mpath)
    return paths
