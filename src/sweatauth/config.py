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

from .cohort import GroupDistributionSpec
from .errors import ConfigurationError
from .kinetics import KineticParams


# every key that pipeline.run_auth_eval and the cli commands read from "auth"
AUTH_KEYS = frozenset({
    "mode", "k_reg", "accumulate_k", "lambda", "score_channel", "genuine_group",
    "impostor_group", "accept_thr", "reject_thr", "drift_margin",
})


def canonical_hash(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _read_json(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"invalid JSON in {path}: {exc}") from None


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

    dist_dict = (_read_json(raw["distribution"]) if raw.get("distribution")
                 else default_distribution_dict())
    if raw.get("distribution_overrides"):
        dist_dict = _deep_merge(dist_dict, raw["distribution_overrides"])
    params_dict = (_read_json(raw["params"]) if raw.get("params")
                   else default_params_dict())

    if seed_override is not None:
        _override_seeds(raw, seed_override)
    if "auth" in raw:
        _check_auth(raw["auth"])
    if "kinetics" in raw:
        check_keys(raw["kinetics"], "kinetics", ("t_g", "dt"), required=("t_g", "dt"))
        for key in ("t_g", "dt"):
            positive_number(raw["kinetics"][key], f"kinetics.{key}")

    distribution = GroupDistributionSpec.from_dict(dist_dict)
    params_hash = canonical_hash(params_dict)
    params = KineticParams.from_dict(params_dict, source_hash=params_hash)
    config_hash = canonical_hash(
        {"experiment": raw, "distribution": dist_dict, "params": params_dict})
    return ExperimentConfig(raw=raw, distribution=distribution,
                            distribution_dict=dist_dict, params=params,
                            params_dict=params_dict, config_hash=config_hash,
                            params_hash=params_hash)


def check_keys(section: dict, where: str, allowed, required=()) -> None:
    """Reject keys of a config section outside allowed, and missing required ones."""
    for key in section:
        if key not in allowed:
            raise ConfigurationError(f"{where}.{key}: unknown key")
    for key in required:
        if key not in section:
            raise ConfigurationError(f"{where}.{key}: required key is missing")


def positive_number(value, where: str) -> float:
    """value as a finite float > 0, else a ConfigurationError naming where."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{where}: not a number: {value!r}") from None
    if not 0.0 < number < np.inf:
        raise ConfigurationError(f"{where}: must be finite and > 0, got {number}")
    return number


def _check_auth(auth: dict) -> None:
    """Reject unknown keys, a missing k_reg and bad values before any work is done."""
    check_keys(auth, "auth", AUTH_KEYS, required=("k_reg",))
    for key, low in (("k_reg", 1), ("accumulate_k", 1), ("score_channel", 0)):
        if key not in auth:
            continue
        try:
            value = int(auth[key])
        except (TypeError, ValueError):
            raise ConfigurationError(f"auth.{key}: not an integer: {auth[key]!r}") from None
        if value < low:
            raise ConfigurationError(f"auth.{key}: must be >= {low}, got {value}")
    if "lambda" in auth:
        positive_number(auth["lambda"], "auth.lambda")


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
