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
import sys
from dataclasses import dataclass
from functools import partial
from importlib import resources
from typing import NamedTuple

import numpy as np

from .cohort import DEMOGRAPHIC_FIELDS, GroupDistributionSpec
from .digitize import AGGREGATORS, FILTER_KINDS, FilterParams
from .errors import ConfigurationError
from .kinetics import WIRED_SPECIES, CascadeKind, KineticParams, step_count
from .transduce import REPORTER_STEPS


# Largest kinetics.t_g / kinetics.dt. The builtin runs take 12,000 RK4 steps
# (t_g = 120 s at dt = 0.01); this allows about 80 times that, minutes on the
# builtin cohorts, and refuses the step counts that would run for days.
MAX_STEPS = 1_000_000
# Largest number of batch rows of a run, cohort individuals x cohort.schedule.steps.
# run_pipeline's tracemalloc peak is about 1.9 KB per row for the identity channels'
# three cascades (n = 400, 6,000 rows; 1.0 KB for sex-separation's one at 5,200 rows),
# so this is about 1.9 GB: 170 times an n = 400 identity cohort, and far below the
# TiB that an n or a steps of 10**12 would ask for before failing.
MAX_ROWS = 1_000_000
# Largest impostor score array of identity mode, n * (n - 1) * auth.accumulate_k
# floats: 30 times the 1.6 million of an n = 400 identity cohort. A roc run holds
# about 27 bytes per score (its n = 400 peak is 79 MB), so this is about 1.4 GB,
# and its score_step calls take about 8 minutes at 9 us each.
MAX_SCORES = 50_000_000
# Largest factor by which cohort.noise.drift_rate may scale a sample over the
# schedule, up or down: far beyond any drift of sweat concentrations, and far
# from overflowing baseline * drift * noise.
MAX_DRIFT = 1e6
# Largest coefficient of variation of a lognormal draw (cohort.noise.cv and each
# distribution acid's cv): far above any sweat CV (the packaged ones are
# 0.15-0.45), and far below the 1.3e154 at which cohort squares it to infinity.
MAX_CV = 100.0


def canonical_hash(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _read_json(path, rule=None):
    """The JSON value in the file at path, checked against rule with the path as its root.

    Without a rule the value must be an object. Every failure is a one-line
    ConfigurationError that starts with the path.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:  # missing, a directory, a permission, a device
        raise ConfigurationError(f"{path}: cannot read: {exc.strerror or exc}") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ConfigurationError(f"{path}: invalid JSON: {exc}") from None
    if rule is not None:
        _walk(raw, rule, str(path))
    elif not isinstance(raw, dict):
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


# ----------------------------------------------------------------------
# the schema: one table of keys per config section and data file
# ----------------------------------------------------------------------

class _Rule(NamedTuple):
    """What one JSON value must be; ``_walk`` checks a value against it."""

    kind: str               # "number", "integer", "string", "list", "object"; others go unchecked
    of: object = None       # list: its items' rule; object: its key table, or all values' rule;
    #                         string: the values it may take, if only some
    low: float = -np.inf    # number: its bound (> low with strict); string: its least length
    strict: bool = False
    required: bool = False
    default: object = None  # what with_defaults gives a missing key; never written into raw
    then: object = None     # cross-field rule then(value, where), run once value is checked


_number, _integer, _string, _list, _object = (
    partial(_Rule, kind) for kind in ("number", "integer", "string", "list", "object"))
_positive = partial(_number, low=0, strict=True)


def _at(where: str, key: str) -> str:
    return f"{where}.{key}" if where else key  # the top level's where is empty


def check_keys(section: dict, where: str, allowed, required=()) -> None:
    """Reject keys of a config section outside allowed, and missing required ones."""
    if not isinstance(section, dict):
        raise ConfigurationError(f"{where}: not an object: {section!r}")
    for key in section:
        if key not in allowed:
            raise ConfigurationError(f"{_at(where, key)}: unknown key")
    for key in required:
        if key not in section:
            raise ConfigurationError(f"{_at(where, key)}: required key is missing")


def _json_number(value, where: str, low=-np.inf, integer=False, strict=False):
    """value if it is a JSON number (an integer with ``integer``), finite and >= low
    (> low with ``strict``). Numeric strings and booleans are refused, since the
    readers use values as they are, and so are integers beyond the float range."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        kind = "an integer" if integer else "a number"
        raise ConfigurationError(f"{where}: not {kind}: {value!r}")
    if not (low < value if strict else low <= value) or not abs(value) <= sys.float_info.max:
        bound = "" if low == -np.inf else f" and {'>' if strict else '>='} {low}"
        raise ConfigurationError(f"{where}: must be finite{bound}, got {value}")
    return value


def _walk(value, rule: _Rule, where: str) -> None:
    """Check value against rule, depth first: the first violation is a ConfigurationError
    whose one line starts with its path, such as ``params.enzymes.ALT.km.Ala``."""
    if rule.kind in ("number", "integer"):
        _json_number(value, where, rule.low, rule.kind == "integer", rule.strict)
    elif rule.kind == "string":
        if not (isinstance(value, str) and len(value) >= rule.low):
            raise ConfigurationError(
                f"{where}: not a {'non-empty ' if rule.low > 0 else ''}string: {value!r}")
        if rule.of and value not in rule.of:
            raise ConfigurationError(f"{where}: {value!r} is not one of {', '.join(rule.of)}")
    elif rule.kind == "list":
        if not isinstance(value, list):
            raise ConfigurationError(f"{where}: not a list: {value!r}")
        for i, item in enumerate(value):
            _walk(item, rule.of, f"{where}[{i}]")
    elif rule.kind == "object":
        table = rule.of if isinstance(rule.of, dict) else None
        check_keys(value, where, value if table is None else table,
                   [key for key, r in (table or {}).items() if r.required])
        for key, item in value.items():
            _walk(item, rule.of if table is None else table[key], _at(where, key))
    if rule.then:
        rule.then(value, where)


def with_defaults(rule: _Rule, value):
    """A copy of value in which each key missing from an object, at any depth, takes its
    table's default, if it has one. No default lies inside a map, which is not copied."""
    if rule.kind == "list":
        return [with_defaults(rule.of, item) for item in value]
    if rule.kind != "object" or not isinstance(rule.of, dict):
        return value
    return {key: with_defaults(r, value[key] if key in value else r.default)
            for key, r in rule.of.items() if key in value or r.default is not None}


def _cohort_limits(cohort: dict, where: str) -> None:
    rate = with_defaults(EXPERIMENT.of["cohort"], cohort)["noise"]["drift_rate"]
    schedule = cohort["schedule"]
    span = float(schedule["tau"]) * (schedule["steps"] - 1)
    if not np.isfinite(float(schedule["t0"]) + span):
        raise ConfigurationError(
            f"{where}.schedule: t0 = {schedule['t0']:g} plus tau = {schedule['tau']:g} times "
            f"{schedule['steps'] - 1:,} steps overflows; the sample times must be finite")
    exponent = rate * span
    if abs(exponent) > np.log(MAX_DRIFT):
        raise ConfigurationError(
            f"{where}.noise.drift_rate: {rate} scales the last sample by exp({exponent:g}), "
            f"beyond the limit of a factor {MAX_DRIFT:g} over the schedule")
    n = sum(g["n"] for g in cohort["groups"])
    if n * schedule["steps"] > MAX_ROWS:
        raise ConfigurationError(
            f"{where}: {n:,} individuals x {schedule['steps']:,} schedule steps = "
            f"{n * schedule['steps']:,} batch rows exceeds the limit of {MAX_ROWS:,}")


def _unique(key: str):
    """Rule for a list of objects: no two items share the value of key."""
    def check(items: list, where: str) -> None:
        first = {}
        for i, item in enumerate(items):
            j = first.setdefault(item[key], i)
            if j != i:
                raise ConfigurationError(f"{where}[{i}].{key}: {item[key]!r} repeats entry [{j}]")
    return check


def _file_name_part(name: str, where: str) -> None:
    if set(name) & set("/\\\0"):
        raise ConfigurationError(
            f"{where}: {name!r} is part of a file name, so it may not hold '/', '\\' or NUL")


def _cv_limit(cv, where: str) -> None:
    if cv > MAX_CV:
        raise ConfigurationError(f"{where}: {cv:g} exceeds the limit of {MAX_CV:g}")


def _step_limit(kinetics: dict, where: str) -> None:
    steps = kinetics["t_g"] / kinetics["dt"]
    if steps > MAX_STEPS:
        raise ConfigurationError(
            f"{where}: t_g / dt = {steps:.7g} RK4 steps exceeds the limit of {MAX_STEPS:,}")
    try:
        step_count(kinetics["t_g"], kinetics["dt"])
    except ConfigurationError as exc:
        raise ConfigurationError(f"{where}: {exc}") from None


def _readout_key(channel: dict, where: str) -> None:
    """A rate transduction reads with a gain, absorbance reads a species; neither takes both."""
    other = "species" if channel.get("transduction") in REPORTER_STEPS else "gain"
    if other in channel:
        raise ConfigurationError(f"{where}.{other}: unknown key")


def _wired(species: str, where: str) -> None:
    if species not in WIRED_SPECIES:
        raise ConfigurationError(f"{where}: {species!r} is not a species of any cascade")


def _ordered_thresholds(auth: dict, where: str) -> None:
    accept, reject = (with_defaults(AUTH, auth)[key] for key in ("accept_thr", "reject_thr"))
    if not accept > reject:
        raise ConfigurationError(f"{where}.accept_thr: {accept} must be > "
                                 f"{where}.reject_thr = {reject}")


# every key that pipeline.run_auth_eval and the cli commands read from "auth";
# pipeline.check_auth_fits holds its rules against the schedule, the outputs and the groups
AUTH = _object({
    "mode": _string(("group", "identity"), default="group"),
    "k_reg": _integer(low=1, required=True),
    "accumulate_k": _integer(low=1, default=10),
    "lambda": _positive(default=1e-3),
    "score_channel": _integer(low=0, default=0),
    "genuine_group": _string(),   # default: the first cohort group
    "impostor_group": _string(),  # default: the last cohort group
    "accept_thr": _number(default=3.0),
    "reject_thr": _number(default=-9.0),
    "drift_margin": _number(default=0.5),
}, then=_ordered_thresholds)

EXPERIMENT = _object({
    "name": _string(default=""),
    # file names: open() would read an integer, True included, as a file descriptor
    "distribution": _string(low=1),
    "params": _string(low=1),
    "distribution_overrides": _object(_Rule("any")),  # checked merged into the distribution
    "cohort": _object({
        # a name names the group's cohort CSV and prefixes its member ids
        "groups": _list(_object({
            "name": _string(low=1, required=True, then=_file_name_part),
            "demographics": _object(dict.fromkeys(DEMOGRAPHIC_FIELDS, _string()), default={}),
            "n": _integer(low=0, required=True),
            "seed": _integer(low=0, required=True),
        }), required=True, then=_unique("name")),
        "schedule": _object({"t0": _number(required=True), "tau": _positive(required=True),
                             "steps": _integer(low=1, required=True)}, required=True),
        "noise": _object({"cv": _number(low=0, default=0.0, then=_cv_limit),
                          "drift_rate": _number(default=0.0)}, default={}),
        "series_seed": _integer(low=0, default=0),
    }, then=_cohort_limits),
    "kinetics": _object({"t_g": _positive(required=True),
                         "dt": _positive(required=True)}, then=_step_limit),
    "channels": _list(_object({
        **dict.fromkeys(("name", "species"), _string()),
        "cascade": _string(tuple(kind.value for kind in CascadeKind), required=True),
        "transduction": _string(("absorbance", *REPORTER_STEPS), default="absorbance"),
        "feature": _string(("endpoint", "slope"), default="endpoint"),
        "inputs": _list(_string()),
        "gain": _positive(),
    }, then=_readout_key)),
    # digitize.GroupingSpec checks the weights against the groups and their aggregators;
    # library callers build FilterParams directly, so the filters take its defaults
    "digitize": _object({
        "groups": _list(_list(_integer(low=0)), required=True),
        "aggregators": _list(_string(AGGREGATORS), required=True),
        "weights": _list(_list(_number()), default=()),
        "filters": _list(_object({
            "k_half": _number(required=True),
            "kind": _string(FILTER_KINDS, default=FilterParams.kind),
            **{key: _number(default=getattr(FilterParams, key))
               for key in ("hill_n", "out_lo", "out_hi")}}), required=True),
        "bands": _object({"boundaries": _list(_number(), required=True),
                          "labels": _list(_string(), required=True),
                          "out_lo": _number(), "out_hi": _number()}),
    }),
    "auth": AUTH,
})

DISTRIBUTION = _object({
    "comment": _string(),
    "version": _integer(),
    "demographics": _object(dict.fromkeys(DEMOGRAPHIC_FIELDS, _list(_string()))),
    "acids": _object(_object({"mean_uM": _positive(required=True),
                              "cv": _number(low=0, required=True, then=_cv_limit),
                              "shifts": _object(_positive())})),
})

PARAMS = _object({
    "comment": _string(),
    "version": _integer(),
    "enzymes": _object(_object({"kcat": _positive(required=True),
                                "e_total": _number(low=0, required=True),
                                "km": _object(_positive(), required=True)})),
    "reagents": _object(_number(low=0)),
    # library callers build KineticParams directly, so its defaults are the ones written down
    "buffered": _list(_string(then=_wired), default=KineticParams.buffered),
    "optics": _object(_object(dict.fromkeys(("wavelength", "epsilon"),
                                            _positive(required=True)))),
    "gains": _object(dict.fromkeys(REPORTER_STEPS, _positive())),
    "path_length_cm": _positive(default=KineticParams.path_length_cm),
})

# templates.json, as auth.save_templates writes it
TEMPLATES = _list(_object({
    "user_id": _string(required=True),
    "k_reg": _integer(low=1, required=True),
    "lambda": _positive(required=True),
    "created_at": _number(default=0.0),
    "mean": _list(_number(), required=True),
    "covariance": _list(_list(_number()), required=True),
    **dict.fromkeys(("config_hash", "params_hash"), _string()),
}), then=_unique("user_id"))

_CURVE = {"auc": _number(required=True), "eer": _number(required=True), "variance": _number(),
          "ci95": _list(_number()), "ci95_unclipped": _list(_number()),
          "n_genuine": _integer(low=0), "n_impostor": _integer(low=0), "k": _integer(low=1)}
# summary.json, as cli.cmd_roc writes it; cmd_report reads experiment, mode and k1
SUMMARY = _object({
    **dict.fromkeys(("experiment", "config_hash", "params_hash", "genuine_group",
                     "impostor_group"), _string()),
    "mode": AUTH.of["mode"],
    "seeds": _Rule("any"),
    **dict.fromkeys(("k_reg", "n_genuine_users", "n_impostor_users"), _integer(low=0)),
    "template_k1_auc": _number(),
    "k1": _object(_CURVE, required=True),
    "accumulated": _object(_CURVE),
})


@dataclass
class ExperimentConfig:
    raw: dict                     # the experiment section as given
    distribution: GroupDistributionSpec
    params: KineticParams
    config_hash: str
    params_hash: str

    def section(self, name: str):
        """The named section of raw, with its table's defaults."""
        if name not in self.raw:
            raise ConfigurationError(f"experiment config missing section {name!r}")
        return with_defaults(EXPERIMENT.of[name], self.raw[name])


def load_experiment(source, seed_override: int = None) -> ExperimentConfig:
    """Resolve an experiment config from a path, builtin name, or dict.

    Strings starting with "builtin:" select a packaged experiment. The
    experiment, its distribution (overrides merged) and its params are
    checked against their tables before anything reads them. The optional
    seed override, an integer >= 0, deterministically rewrites every seed
    in the cohort section from the single given integer.
    """
    if isinstance(source, str):
        raw = builtin_experiment(source[8:]) if source.startswith("builtin:") else _read_json(source)
    elif isinstance(source, dict):
        raw = copy.deepcopy(source)
    else:
        raise ConfigurationError(f"unsupported config source {type(source).__name__}")
    _walk(raw, EXPERIMENT, "")

    dist_dict = (_read_json(raw["distribution"]) if "distribution" in raw
                 else default_distribution_dict())
    if raw.get("distribution_overrides"):
        dist_dict = _deep_merge(dist_dict, raw["distribution_overrides"])
    _walk(dist_dict, DISTRIBUTION, "distribution")
    params_dict = _read_json(raw["params"]) if "params" in raw else default_params_dict()
    _walk(params_dict, PARAMS, "params")
    if seed_override is not None:
        _walk(seed_override, _integer(low=0), "--seed-override")
        _override_seeds(raw, seed_override)

    distribution = GroupDistributionSpec.from_dict(dist_dict)
    config_hash = canonical_hash(
        {"experiment": raw, "distribution": dist_dict, "params": params_dict})
    return ExperimentConfig(raw=raw, distribution=distribution,
                            params=KineticParams.from_dict(with_defaults(PARAMS, params_dict)),
                            config_hash=config_hash, params_hash=canonical_hash(params_dict))


def _override_seeds(raw: dict, master: int) -> None:
    ss = np.random.SeedSequence(master)
    cohort = raw.get("cohort", {})
    groups = cohort.get("groups", [])
    children = ss.generate_state(len(groups) + 1, dtype=np.uint64)
    for i, g in enumerate(groups):
        g["seed"] = int(children[i]) & 0x7FFFFFFF
    cohort["series_seed"] = int(children[-1]) & 0x7FFFFFFF


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
