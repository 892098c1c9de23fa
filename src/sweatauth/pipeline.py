"""End-to-end experiment runs: cohorts through cascades to auth metrics.

The hot loop is the batched cascade integration: every (individual, time
step) pair of an experiment becomes one row of one batch for the whole run.
Each distinct (cascade, inputs) pair of the configured channels is one block
of a ``CascadeUnion``, and the batch observes one signal per channel
(``transduce.readout``); gate-time features come from its endpoints or, when
some channel reads a slope, its slope sums, without full traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import metrics
from ._artifacts import write_csv, write_json
from .auth import enroll, score_step
from .cohort import (ACID_INDEX, AMINO_ACIDS, N_ACIDS, Demographics, NoiseSpec,
                     SamplingSchedule, mimic_cohort, sample_series,
                     write_cohort_csv)
from .config import EXPERIMENT, MAX_SCORES, ExperimentConfig, with_defaults
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
    entry = with_defaults(EXPERIMENT.of["channels"].of, entry)
    try:
        network = build_cascade(entry["cascade"], params)
        inputs = list(entry.get("inputs", network.input_species))
        for acid in inputs:
            if acid not in network.input_species:
                raise ConfigurationError(
                    f"{acid!r} is not an input of the {network.kind.value} cascade")
        signal, scale = readout(network, entry, params)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{where}: {exc}") from None
    return Channel(name=entry.get("name", network.kind.value), network=network,
                   inputs=inputs, feature=entry["feature"], signal=signal, scale=scale)


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
                          [(keys.index(_block_key(ch)), ch.signal) for ch in channels],
                          any(ch.feature == "slope" for ch in channels))


def _block_key(ch: Channel) -> tuple:
    return ch.network.kind, tuple(ch.inputs)


class RunPlan:
    """What a run of one config does, worked out from the config alone: no sampling
    and no integration. Every command builds it first, so a config it refuses costs
    no work; each refusal is one ConfigurationError that starts with its config path."""

    def __init__(self, cfg: ExperimentConfig):
        self.config, cohort, kin = cfg, cfg.section("cohort"), cfg.section("kinetics")
        self.groups = []  # (cohort group entry, Demographics, member ids <group>-NNN)
        for i, g in enumerate(cohort["groups"]):
            demo = Demographics(**g["demographics"])
            try:
                demo.validate(cfg.distribution.demographics_vocabulary)
            except ConfigurationError as exc:
                raise ConfigurationError(f"cohort.groups[{i}].demographics: {exc}") from None
            self.groups.append((g, demo, [f"{g['name']}-{k:03d}" for k in range(g["n"])]))
        self.seeds = {"groups": {g["name"]: g["seed"] for g in cohort["groups"]},
                      "series_seed": cohort["series_seed"]}
        self.schedule = SamplingSchedule(**cohort["schedule"])
        self.noise = NoiseSpec(**cohort["noise"])
        self.t_g, self.dt = float(kin["t_g"]), float(kin["dt"])
        self.channels = [build_channel(e, cfg.params, f"channels[{i}]")
                         for i, e in enumerate(cfg.section("channels"))]
        dig = cfg.section("digitize")
        try:
            self.grouping = GroupingSpec(dig["groups"], dig["aggregators"], dig["weights"])
            self.filters = [FilterParams(**f) for f in dig["filters"]]
            self.grouping.check_fits(len(self.channels), self.filters)
            self.bands = BandSpec(**dig["bands"]) if dig.get("bands") else None
        except ConfigurationError as exc:
            raise ConfigurationError(f"digitize: {exc}") from None

    @cached_property
    def auth(self) -> dict:
        """The auth section with its table's defaults; group mode compares the first
        and the last cohort group unless it names others. Only the commands that
        evaluate auth read it, so a run that stops at the outputs need not have one."""
        auth = self.config.section("auth")
        names = [g["name"] for g, *_ in self.groups]
        auth.setdefault("genuine_group", names[0] if names else None)
        auth.setdefault("impostor_group", names[-1] if names else None)
        return auth


def check_registration_fits(plan: RunPlan) -> None:
    """The registration window of enroll and verify fits the schedule."""
    k_reg, steps = plan.auth["k_reg"], plan.schedule.steps
    if k_reg > steps:
        raise InsufficientDataError(f"auth: k_reg = {k_reg} exceeds cohort.schedule.steps = {steps}")


def check_auth_fits(plan: RunPlan) -> None:
    """The auth window fits the schedule; identity mode has at least 2 individuals and
    an impostor array within MAX_SCORES; in group mode score_channel names an output
    and the genuine and impostor groups are two different cohort groups of at least 2
    members each, since DeLong needs 2 accumulated scores per class.

    An empty cohort is left to run_pipeline, which refuses it for every command.
    """
    auth, steps = plan.auth, plan.schedule.steps
    k_acc = auth["accumulate_k"]
    need = auth["k_reg"] + k_acc
    if need > steps:
        raise InsufficientDataError(
            f"auth: k_reg + accumulate_k = {need} exceeds cohort.schedule.steps = {steps}")
    sizes = {g["name"]: len(ids) for g, _, ids in plan.groups}
    if auth["mode"] == "identity":
        n = sum(sizes.values())
        if n == 1:
            raise InsufficientDataError("auth evaluation needs at least 2 individuals")
        if n * (n - 1) * k_acc > MAX_SCORES:
            raise ConfigurationError(
                f"auth: identity mode scores {n:,} x {n - 1:,} x accumulate_k {k_acc} = "
                f"{n * (n - 1) * k_acc:,} impostor scores, beyond the limit of {MAX_SCORES:,}")
        return
    if auth["score_channel"] >= plan.grouping.n_outputs:
        raise ConfigurationError(f"auth.score_channel: {auth['score_channel']} is out of range: "
                                 f"digitize has {plan.grouping.n_outputs} output groups")
    genuine, impostor = auth["genuine_group"], auth["impostor_group"]
    for key in ("genuine_group", "impostor_group"):
        if auth[key] not in sizes:
            raise ConfigurationError(f"auth.{key}: {auth[key]!r} is not a cohort group "
                                     f"(groups: {', '.join(sizes) or 'none'})")
    if genuine == impostor:
        raise ConfigurationError(f"auth.impostor_group: {impostor!r} is also the genuine group; "
                                 "group mode compares two cohort groups")
    fewest = min(sizes[genuine], sizes[impostor])
    if any(sizes.values()) and fewest == 0:
        raise InsufficientDataError(f"groups {genuine!r}/{impostor!r} must both be non-empty")
    if fewest == 1:
        raise InsufficientDataError(f"groups {genuine!r}/{impostor!r} need at least 2 members "
                                    "each: DeLong needs 2 accumulated scores per class")


@dataclass
class PipelineResult:
    plan: RunPlan
    group_of: list
    profiles: list
    features: np.ndarray   # [n_individuals, steps, n_channels]
    outputs: np.ndarray    # [n_individuals, steps, S] digitized outputs
    bands: np.ndarray      # [n_individuals, steps, S] band labels, None without bands

    @property
    def timestamps(self) -> np.ndarray:  # output time: sampling time plus the gate delay
        return self.plan.schedule.timestamps() + self.plan.t_g


def _cohort_groups(plan: RunPlan) -> list:
    """(group entry, members) per configured group, with the plan's member ids."""
    groups = []
    for g, demo, ids in plan.groups:
        members = mimic_cohort(plan.config.distribution, demo, g["n"], g["seed"])
        for p, member_id in zip(members, ids):
            p.id = member_id
        groups.append((g, members))
    return groups


def run_pipeline(plan: RunPlan) -> PipelineResult:
    """Cohort sampling, cascade simulation, and digitization of one planned run."""
    if not any(ids for *_, ids in plan.groups):
        raise InsufficientDataError("cohort is empty: every group has n = 0")
    profiles = [p for _, members in _cohort_groups(plan) for p in members]

    n_indiv, steps, channels = len(profiles), plan.schedule.steps, plan.channels
    X = np.empty((n_indiv, steps, N_ACIDS))
    for i, p in enumerate(profiles):
        X[i] = sample_series(p, plan.schedule, plan.noise, plan.seeds["series_seed"])
    X_flat = X.reshape(n_indiv * steps, N_ACIDS)

    res = integrate_channels(channels, X_flat, plan.t_g, plan.dt)
    feats = np.empty((n_indiv * steps, len(channels)))
    for ci, ch in enumerate(channels):
        feats[:, ci] = channel_features(ch, res, ci)
    features = feats.reshape(n_indiv, steps, len(channels))

    outputs, labels = consolidate(plan.grouping, features, plan.filters, bands=plan.bands)
    return PipelineResult(plan=plan, group_of=[g["name"] for g, _, ids in plan.groups for _ in ids],
                          profiles=profiles, features=features, outputs=outputs, bands=labels)


# ----------------------------------------------------------------------
# authentication evaluation
# ----------------------------------------------------------------------

def run_auth_eval(plan: RunPlan):
    """Score genuine vs impostor streams and compute ROC/AUC/EER reports.

    Group mode compares two cohorts: per-step scores are the digitized
    output of the configured channel, accumulated scores its mean over the
    continuation window, and a pooled template enrolled on the genuine
    registration rows is reported as a secondary statistic. Identity mode
    enrolls one template per individual and scores own-against-other
    continuation streams.
    """
    check_auth_fits(plan)
    result = run_pipeline(plan)
    cfg, auth = plan.config, plan.auth
    mode, k_reg, k_acc = auth["mode"], auth["k_reg"], auth["accumulate_k"]

    if mode == "group":
        pops, extras = _group_mode_scores(result, auth, k_reg, k_acc)
    else:  # "identity", the one other mode the AUTH table allows
        pops, extras = _identity_mode_scores(result, auth, k_reg, k_acc)

    summary = {
        "experiment": with_defaults(EXPERIMENT, cfg.raw)["name"],
        "mode": mode,
        "config_hash": cfg.config_hash,
        "params_hash": cfg.params_hash,
        "seeds": plan.seeds,
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


def _group_mode_scores(result, auth, k_reg, k_acc):
    # two different cohort groups of at least 2 members each: checked by check_auth_fits
    gen_name, imp_name = auth["genuine_group"], auth["impostor_group"]
    gen_idx = [i for i, g in enumerate(result.group_of) if g == gen_name]
    imp_idx = [i for i, g in enumerate(result.group_of) if g == imp_name]
    sc = auth["score_channel"]  # < S, checked by check_auth_fits
    gen = result.outputs[gen_idx, k_reg:k_reg + k_acc]   # [n_gen, k_acc, S]
    imp = result.outputs[imp_idx, k_reg:k_reg + k_acc]

    k1 = metrics.ScoredPopulation(genuine=gen[..., sc].ravel(), impostor=imp[..., sc].ravel())
    acc = metrics.ScoredPopulation(genuine=gen[..., sc].mean(axis=1),
                                   impostor=imp[..., sc].mean(axis=1))

    # secondary: pooled template on the genuine registration rows
    reg_rows = np.concatenate(result.outputs[gen_idx, :k_reg])
    tpl = enroll(reg_rows, k_reg=len(reg_rows), lam=auth["lambda"], user_id=f"group:{gen_name}",
                 created_at=float(result.plan.schedule.t0 + k_reg * result.plan.schedule.tau))
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


def enroll_templates(result: PipelineResult, auth: dict) -> list:
    """One template per individual, fitted on its first auth.k_reg outputs."""
    # float: templates.json records lambda as a float even when the config gives an integer
    k_reg, lam, schedule = auth["k_reg"], float(auth["lambda"]), result.plan.schedule
    created = float(schedule.t0 + k_reg * schedule.tau)
    return [enroll(y[:k_reg], k_reg=k_reg, lam=lam, user_id=p.id, created_at=created)
            for y, p in zip(result.outputs, result.profiles)]


def _identity_mode_scores(result, auth, k_reg, k_acc):
    """Populations of template i scored on the continuation of individual j.

    Genuine scores are the pairs i == j, impostor scores the rest, each in
    (template, probe individual, step) order. An accumulated score adds the
    k_acc step scores of one pair from left to right, starting from 0.0.
    """
    n = len(result.profiles)
    cont = result.outputs[:, k_reg:k_reg + k_acc]
    gen = np.empty((n, k_acc))         # [template, step]
    imp = np.empty((n, n - 1, k_acc))  # [template, other probe individual, step]
    for i, tpl in enumerate(enroll_templates(result, auth)):
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
    S = result.plan.grouping.n_outputs
    times = result.timestamps.tolist()
    bands = (result.bands.tolist() if result.bands is not None
             else [[[""] * S] * len(times)] * len(result.profiles))
    rows = ([p.id, group, k, times[k]] + values + labels
            for p, group, value_rows, label_rows
            in zip(result.profiles, result.group_of, result.outputs.tolist(), bands)
            for k, (values, labels) in enumerate(zip(value_rows, label_rows)))
    write_csv(path, ["id", "group", "k", "timestamp_s"]
              + [f"y{s}" for s in range(S)] + [f"band{s}" for s in range(S)],
              rows, result.plan.config.config_hash)


def write_features_csv(path, result: PipelineResult) -> None:
    """Gate-time features: id, group, step, one value per channel."""
    rows = ([p.id, group, k] + values
            for p, group, value_rows
            in zip(result.profiles, result.group_of, result.features.tolist())
            for k, values in enumerate(value_rows))
    write_csv(path, ["id", "group", "k"] + [ch.name for ch in result.plan.channels], rows,
              result.plan.config.config_hash)


def write_cohort_artifacts(plan: RunPlan, out_dir) -> list:
    """Per-group cohort CSVs plus a manifest; returns written paths."""
    import os

    cfg, paths = plan.config, []
    groups_meta = {}
    for g, members in _cohort_groups(plan):
        path = os.path.join(out_dir, f"cohort_{g['name']}.csv")
        write_cohort_csv(path, members, config_hash=cfg.config_hash)
        paths.append(path)
        groups_meta[g["name"]] = {"n": g["n"], "seed": g["seed"],
                                  "stored_values": g["n"] * N_ACIDS}
    manifest = {
        "config_hash": cfg.config_hash,
        "params_hash": cfg.params_hash,
        "seeds": plan.seeds,
        "groups": groups_meta,
        "acids": list(AMINO_ACIDS),
    }
    mpath = os.path.join(out_dir, "manifest.json")
    write_json(mpath, manifest)
    paths.append(mpath)
    return paths
