"""Experiment configuration: packaged defaults, loading, hashing.

One JSON file drives an experiment end to end. All randomness is seeded
from the file (no ambient entropy), and every artifact records the hash of
the fully resolved configuration (experiment + distribution + kinetic
parameters) so reruns are tamper-evident.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .cohort import DEMOGRAPHIC_FIELDS, GroupDistributionSpec
from .errors import ConfigurationError, InsufficientDataError
from .kinetics import KineticParams


# every key that pipeline.run_auth_eval and the cli commands read from "auth"
AUTH_KEYS = frozenset({
    "mode", "k_reg", "accumulate_k", "lambda", "score_channel", "genuine_group",
    "impostor_group", "accept_thr", "reject_thr", "drift_margin",
})
ACCUMULATE_K = 10  # auth.accumulate_k when not given
# Largest kinetics.t_g / kinetics.dt. The builtin runs take 12,000 RK4 steps
# (t_g = 120 s at dt = 0.01); this allows about 80 times that, minutes on the
# builtin cohorts, and refuses the step counts that would run for days.
MAX_STEPS = 1_000_000
# Largest factor by which cohort.noise.drift_rate may scale a sample over the
# schedule, up or down: far beyond any drift of sweat concentrations, and far
# from overflowing baseline * drift * noise.
MAX_DRIFT = 1e6


def canonical_hash(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _read_json(path) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}") from None
    except OSError as exc:  # a directory, a permission, a device
        raise ConfigurationError(f"cannot read config file {path}: {exc.strerror or exc}") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ConfigurationError(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{path}: not a JSON object")
    return raw


def _packaged(name) -> dict:
    with resources.files("sweatauth.data").joinpath(name).open() as fh:
        return json.load(fh)


def default_distribution_dict() -> dict:
    return _packaged("distribution.json")


def default_params_dict() -> dict:
    return _packaged("params.json")


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _deep_merge(out[k], v)
        else:
            out[k] = copy.deepcopy(v)
    return out


@dataclass
class ExperimentConfig:
    raw: dict                     # the experiment section as given
    distribution: GroupDistributionSpec
    distribution_dict: dict
    params: KineticParams
    params_dict: dict
    config_hash: str
    params_hash: str

    def section(self, name: str) -> dict:
        if name not in self.raw:
            raise ConfigurationError(f"experiment config missing section {name!r}")
        return self.raw[name]


def load_experiment(source, seed_override: int = None) -> ExperimentConfig:
    """Resolve an experiment config from a path, builtin name, or dict.

    Strings starting with "builtin:" select a packaged experiment. The
    optional seed override deterministically rewrites every seed in the
    cohort section from the single given integer.
    """
    if isinstance(source, str):
        raw = builtin_experiment(source[8:]) if source.startswith("builtin:") else _read_json(source)
    elif isinstance(source, dict):
        raw = copy.deepcopy(source)
    else:
        raise ConfigurationError(f"unsupported config source {type(source).__name__}")

    dist_dict = (_read_json(_file_name(raw, "distribution")) if "distribution" in raw
                 else default_distribution_dict())
    overrides = raw.get("distribution_overrides", {})
    if not isinstance(overrides, dict):
        raise ConfigurationError(f"distribution_overrides: not an object: {overrides!r}")
    if overrides:
        dist_dict = _deep_merge(dist_dict, overrides)
    params_dict = (_read_json(_file_name(raw, "params")) if "params" in raw
                   else default_params_dict())

    if "cohort" in raw:
        _check_cohort(raw["cohort"])
    if seed_override is not None:
        _override_seeds(raw, seed_override)
    if "auth" in raw:
        _check_auth(raw["auth"])
    if "kinetics" in raw:
        check_keys(raw["kinetics"], "kinetics", ("t_g", "dt"), required=("t_g", "dt"))
        t_g, dt = (_json_number(raw["kinetics"][key], f"kinetics.{key}", low=0, strict=True)
                   for key in ("t_g", "dt"))
        if t_g / dt > MAX_STEPS:
            raise ConfigurationError(f"kinetics: t_g / dt = {t_g / dt:.7g} RK4 steps exceeds "
                                     f"the limit of {MAX_STEPS:,}")
    if "channels" in raw:
        _json_list(raw["channels"], "channels")
    if "digitize" in raw:
        _check_digitize(raw["digitize"])

    distribution = GroupDistributionSpec.from_dict(dist_dict)
    params_hash = canonical_hash(params_dict)
    params = KineticParams.from_dict(params_dict)
    config_hash = canonical_hash(
        {"experiment": raw, "distribution": dist_dict, "params": params_dict})
    return ExperimentConfig(raw=raw, distribution=distribution,
                            distribution_dict=dist_dict, params=params,
                            params_dict=params_dict, config_hash=config_hash,
                            params_hash=params_hash)


def _file_name(raw: dict, key: str) -> str:
    """raw[key] if it is a non-empty string: open() would read an integer as a file descriptor."""
    if not (isinstance(raw[key], str) and raw[key]):
        raise ConfigurationError(f"{key}: not a file name: {raw[key]!r}")
    return raw[key]


def check_keys(section: dict, where: str, allowed, required=()) -> None:
    """Reject keys of a config section outside allowed, and missing required ones."""
    if not isinstance(section, dict):
        raise ConfigurationError(f"{where}: not an object: {section!r}")
    for key in section:
        if key not in allowed:
            raise ConfigurationError(f"{where}.{key}: unknown key")
    for key in required:
        if key not in section:
            raise ConfigurationError(f"{where}.{key}: required key is missing")


def _json_number(value, where: str, low=-np.inf, integer=False, strict=False):
    """value if it is a JSON number (an integer with ``integer``), finite and >= low
    (> low with ``strict``).

    Numeric strings and booleans are rejected, since the readers of every
    config section use the values as they are.
    """
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        kind = "an integer" if integer else "a number"
        raise ConfigurationError(f"{where}: not {kind}: {value!r}")
    if not (low < value if strict else low <= value) or not value < np.inf:
        bound = "" if low == -np.inf else f" and {'>' if strict else '>='} {low}"
        raise ConfigurationError(f"{where}: must be finite{bound}, got {value}")
    return value


def _json_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigurationError(f"{where}: not a list: {value!r}")
    return value


def _check_cohort(cohort: dict) -> None:
    """Keys, types and ranges of the cohort section, as run_pipeline reads it."""
    check_keys(cohort, "cohort", ("groups", "schedule", "noise", "series_seed"),
               required=("groups", "schedule"))
    for i, g in enumerate(_json_list(cohort["groups"], "cohort.groups")):
        where = f"cohort.groups[{i}]"
        check_keys(g, where, ("name", "demographics", "n", "seed"), required=("name", "n", "seed"))
        if not isinstance(g["name"], str):
            raise ConfigurationError(f"{where}.name: not a string: {g['name']!r}")
        check_keys(g.get("demographics", {}), f"{where}.demographics", DEMOGRAPHIC_FIELDS)
        _json_number(g["n"], f"{where}.n", low=0, integer=True)
        _json_number(g["seed"], f"{where}.seed", low=0, integer=True)
    schedule = cohort["schedule"]
    check_keys(schedule, "cohort.schedule", ("t0", "tau", "steps"), required=("t0", "tau", "steps"))
    _json_number(schedule["t0"], "cohort.schedule.t0")
    _json_number(schedule["tau"], "cohort.schedule.tau", low=0, strict=True)
    _json_number(schedule["steps"], "cohort.schedule.steps", low=1, integer=True)
    noise = cohort.get("noise", {})
    check_keys(noise, "cohort.noise", ("cv", "drift_rate"))
    if "cv" in noise:
        _json_number(noise["cv"], "cohort.noise.cv", low=0)
    if "drift_rate" in noise:
        rate = _json_number(noise["drift_rate"], "cohort.noise.drift_rate")
        exponent = rate * (schedule["steps"] - 1) * schedule["tau"]
        if abs(exponent) > np.log(MAX_DRIFT):
            raise ConfigurationError(
                f"cohort.noise.drift_rate: {rate} scales the last sample by exp({exponent:g}), "
                f"beyond the limit of a factor {MAX_DRIFT:g} over the schedule")
    if "series_seed" in cohort:
        _json_number(cohort["series_seed"], "cohort.series_seed", low=0, integer=True)


def _check_digitize(dig: dict) -> None:
    """Keys and types of the digitize section; pipeline._digitize_specs checks the rest."""
    check_keys(dig, "digitize", ("groups", "aggregators", "weights", "filters", "bands"),
               required=("groups", "aggregators", "filters"))
    for i, group in enumerate(_json_list(dig["groups"], "digitize.groups")):
        for j, channel in enumerate(_json_list(group, f"digitize.groups[{i}]")):
            _json_number(channel, f"digitize.groups[{i}][{j}]", low=0, integer=True)
    _json_list(dig["aggregators"], "digitize.aggregators")
    for i, weights in enumerate(_json_list(dig.get("weights", []), "digitize.weights")):
        for j, w in enumerate(_json_list(weights, f"digitize.weights[{i}]")):
            _json_number(w, f"digitize.weights[{i}][{j}]")
    numbers = ("k_half", "hill_n", "out_lo", "out_hi")
    for i, f in enumerate(_json_list(dig["filters"], "digitize.filters")):
        check_keys(f, f"digitize.filters[{i}]", numbers + ("kind",), required=("k_half",))
        for key in numbers:
            if key in f:
                _json_number(f[key], f"digitize.filters[{i}].{key}")
    if dig.get("bands"):
        check_keys(dig["bands"], "digitize.bands", ("boundaries", "labels", "out_lo", "out_hi"),
                   required=("boundaries", "labels"))
        for j, b in enumerate(_json_list(dig["bands"]["boundaries"], "digitize.bands.boundaries")):
            _json_number(b, f"digitize.bands.boundaries[{j}]")
        _json_list(dig["bands"]["labels"], "digitize.bands.labels")
        for key in ("out_lo", "out_hi"):
            if key in dig["bands"]:
                _json_number(dig["bands"][key], f"digitize.bands.{key}")


def check_auth_fits(cfg: ExperimentConfig) -> None:
    """The auth window fits the schedule, and in group mode score_channel names an output.

    Checked where auth is evaluated rather than in load_experiment: runs
    that stop at the outputs never read auth, and need not fit it.
    """
    auth, steps = cfg.section("auth"), cfg.section("cohort")["schedule"]["steps"]
    need = auth["k_reg"] + auth.get("accumulate_k", ACCUMULATE_K)
    if need > steps:
        raise InsufficientDataError(
            f"auth: k_reg + accumulate_k = {need} exceeds cohort.schedule.steps = {steps}")
    n_outputs = len(cfg.section("digitize")["groups"])
    if auth.get("mode", "group") == "group" and auth.get("score_channel", 0) >= n_outputs:
        raise ConfigurationError(f"auth.score_channel: {auth['score_channel']} is out of "
                                 f"range: digitize has {n_outputs} output groups")


def _check_auth(auth: dict) -> None:
    """Keys, types and ranges of the auth section, as run_auth_eval and verify read it."""
    check_keys(auth, "auth", AUTH_KEYS, required=("k_reg",))
    for key, low in (("k_reg", 1), ("accumulate_k", 1), ("score_channel", 0)):
        if key in auth:
            _json_number(auth[key], f"auth.{key}", low=low, integer=True)
    if "lambda" in auth:
        _json_number(auth["lambda"], "auth.lambda", low=0, strict=True)
    for key in ("accept_thr", "reject_thr", "drift_margin"):
        if key in auth:
            _json_number(auth[key], f"auth.{key}")


def _override_seeds(raw: dict, master: int) -> None:
    ss = np.random.SeedSequence(master)
    cohort = raw.get("cohort", {})
    groups = cohort.get("groups", [])
    children = ss.generate_state(len(groups) + 1, dtype=np.uint64)
    for i, g in enumerate(groups):
        g["seed"] = int(children[i]) & 0x7FFFFFFF
    cohort["series_seed"] = int(children[-1]) & 0x7FFFFFFF


def collect_seeds(raw: dict) -> dict:
    cohort = raw.get("cohort", {})
    return {
        "groups": {g["name"]: g["seed"] for g in cohort.get("groups", [])},
        "series_seed": cohort.get("series_seed"),
    }


# ----------------------------------------------------------------------
# packaged experiments
# ----------------------------------------------------------------------

def builtin_experiment(name: str) -> dict:
    experiments = resources.files("sweatauth.data").joinpath("experiments")
    available = sorted(p.name[:-5] for p in experiments.iterdir()
                       if p.name.endswith(".json"))
    if name not in available:
        raise ConfigurationError(
            f"unknown builtin experiment {name!r}; available: {available}")
    return _packaged(f"experiments/{name}.json")
