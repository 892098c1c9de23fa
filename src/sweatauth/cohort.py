"""Synthetic individuals, cohorts, and noisy concentration time series.

Baseline concentrations are drawn per amino acid from a lognormal specified
by its own mean and coefficient of variation. Demographic effects are
multiplicative shifts on the mean. Everything is a pure function of
(spec, seed): the same inputs reproduce the same numbers bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._artifacts import write_csv
from .errors import ConfigurationError

# Canonical panel of the 23 amino acids tracked in sweat samples
# (20 proteinogenic plus citrulline, ornithine, taurine), alphabetical.
AMINO_ACIDS = (
    "Ala", "Arg", "Asn", "Asp", "Cit", "Cys", "Gln", "Glu", "Gly", "His",
    "Ile", "Leu", "Lys", "Met", "Orn", "Phe", "Pro", "Ser", "Tau", "Thr",
    "Trp", "Tyr", "Val",
)
N_ACIDS = len(AMINO_ACIDS)
ACID_INDEX = {name: i for i, name in enumerate(AMINO_ACIDS)}

DEMOGRAPHIC_FIELDS = ("sex", "age_group", "ethnicity", "physiological_state")


@dataclass(frozen=True)
class Demographics:
    sex: str = "female"
    age_group: str = "18-29"
    ethnicity: str = "unspecified"
    physiological_state: str = "rested"

    def validate(self, vocabulary: dict) -> None:
        """Check every field against the closed vocabulary of the spec."""
        for f in DEMOGRAPHIC_FIELDS:
            allowed = vocabulary.get(f, ())
            if getattr(self, f) not in allowed:
                raise ConfigurationError(
                    f"demographic {f}={getattr(self, f)!r} not in vocabulary {sorted(allowed)}")


@dataclass
class AcidDistribution:
    """Lognormal spec for one acid: mean (µM), CV, demographic mean shifts."""

    mean_uM: float
    cv: float
    shifts: dict = field(default_factory=dict)  # "field=value" -> multiplier

    def validate(self, name: str) -> None:
        if not self.mean_uM > 0:
            raise ConfigurationError(f"{name}: mean must be > 0")
        if self.cv < 0:
            raise ConfigurationError(f"{name}: CV must be >= 0")
        for key, mult in self.shifts.items():
            if "=" not in key:
                raise ConfigurationError(f"{name}: shift key {key!r} must look like 'field=value'")
            if not mult > 0:
                raise ConfigurationError(f"{name}: shift {key} must be > 0")


@dataclass
class GroupDistributionSpec:
    """Per-acid concentration distributions plus the demographic vocabulary."""

    acids: dict  # name -> AcidDistribution, must cover all 23
    demographics_vocabulary: dict = field(default_factory=dict)

    def validate(self) -> None:
        missing = [a for a in AMINO_ACIDS if a not in self.acids]
        if missing:
            raise ConfigurationError(f"distribution spec missing acids: {missing}")
        unknown = [a for a in self.acids if a not in ACID_INDEX]
        if unknown:
            raise ConfigurationError(f"distribution spec has unknown acids: {unknown}")
        for name, dist in self.acids.items():
            dist.validate(name)

    def shift_for(self, acid: str, demo: Demographics) -> float:
        """Product of all shift multipliers whose field=value matches demo."""
        mult = 1.0
        for key, m in self.acids[acid].shifts.items():
            f, _, v = key.partition("=")
            if getattr(demo, f, None) == v:
                mult *= m
        return mult

    def mean_vector(self, demo: Demographics) -> np.ndarray:
        return np.array([self.acids[a].mean_uM * self.shift_for(a, demo) for a in AMINO_ACIDS])

    def cv_vector(self) -> np.ndarray:
        return np.array([self.acids[a].cv for a in AMINO_ACIDS])

    @classmethod
    def from_dict(cls, raw: dict) -> "GroupDistributionSpec":
        """Spec of a distribution file, which config.load_experiment checks first."""
        acids = {name: AcidDistribution(
                     mean_uM=float(entry["mean_uM"]), cv=float(entry["cv"]),
                     shifts={k: float(v) for k, v in entry.get("shifts", {}).items()})
                 for name, entry in raw.get("acids", {}).items()}
        spec = cls(acids=acids, demographics_vocabulary=raw.get("demographics", {}))
        spec.validate()
        return spec


@dataclass
class NoiseSpec:
    """Multiplicative lognormal sampling noise plus optional slow drift.

    drift_rate is in 1/s; each time step is scaled by exp(drift_rate * (t - t0)).
    """

    cv: float = 0.0
    drift_rate: float = 0.0

    def validate(self) -> None:
        if self.cv < 0:
            raise ConfigurationError("noise CV must be >= 0")


@dataclass
class IndividualProfile:
    id: str
    demographics: Demographics
    baseline: np.ndarray  # µM, indexed by ACID_INDEX
    rng_seed: int


@dataclass(frozen=True)
class SamplingSchedule:
    t0: float
    tau: float
    steps: int

    def __post_init__(self):
        if not self.tau > 0:
            raise ConfigurationError("tau must be > 0")
        if self.steps < 1:
            raise ConfigurationError("steps must be >= 1")

    def timestamps(self) -> np.ndarray:
        return self.t0 + self.tau * np.arange(self.steps)


def _lognormal_sigma_mu(mean, cv):
    # Parameterized by the mean and CV of the lognormal itself:
    #   sigma^2 = ln(1 + cv^2),  mu = ln(mean) - sigma^2 / 2
    # so that E[X] = mean and CV[X] = cv exactly.
    sigma2 = np.log1p(np.square(cv))
    mu = np.log(mean) - 0.5 * sigma2
    return np.sqrt(sigma2), mu


def _draw_lognormal(rng, mean, cv, size):
    sigma, mu = _lognormal_sigma_mu(mean, cv)
    return np.exp(mu + sigma * rng.standard_normal(size))


def mimic_cohort(group: GroupDistributionSpec, demo: Demographics, n: int,
                 seed: int) -> list[IndividualProfile]:
    """Build a cohort of n individuals by pooled draw + random regrouping.

    For each acid a pool of n concentrations is drawn, then each pool is
    independently permuted (without replacement) and row k across the
    permuted pools becomes individual k's baseline. An n = 25 cohort
    therefore stores exactly 25 * 23 = 575 concentration values.
    """
    if n < 0:
        raise ConfigurationError("cohort size must be >= 0")
    group.validate()
    if group.demographics_vocabulary:
        demo.validate(group.demographics_vocabulary)
    rng = np.random.default_rng(seed)
    means = group.mean_vector(demo)
    cvs = group.cv_vector()
    pools = np.empty((n, N_ACIDS))
    for a in range(N_ACIDS):
        col = (_draw_lognormal(rng, means[a], cvs[a], size=n) if cvs[a] > 0
               else np.full(n, means[a]))
        pools[:, a] = rng.permutation(col)
    child_seeds = np.random.SeedSequence(seed).generate_state(max(n, 1), dtype=np.uint64)
    return [
        IndividualProfile(
            id=f"c{seed}-{k:03d}",
            demographics=demo,
            baseline=pools[k].copy(),
            rng_seed=int(child_seeds[k]),
        )
        for k in range(n)
    ]


def sample_series(profile: IndividualProfile, schedule: SamplingSchedule,
                  noise: NoiseSpec, seed: int) -> np.ndarray:
    """Sample the noisy concentration panel, [steps, 23] µM, at every schedule step.

    values[k, a] = baseline[a] * drift(t_k) * eps[k, a] with eps lognormal
    of mean 1 and the configured CV. All outputs are strictly positive.
    """
    noise.validate()
    rng = np.random.default_rng([seed & 0xFFFFFFFF, profile.rng_seed])
    t_rel = schedule.timestamps() - schedule.t0
    drift = np.exp(noise.drift_rate * t_rel)[:, None]
    base = profile.baseline[None, :]
    if noise.cv > 0:
        eps = _draw_lognormal(rng, 1.0, noise.cv, size=(schedule.steps, N_ACIDS))
    else:
        eps = 1.0
    return base * drift * eps


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------

def write_cohort_csv(path, profiles, config_hash: str = "") -> None:
    """One row per individual, columns are the 23 acid codes."""
    write_csv(path, ("id",) + AMINO_ACIDS, ([p.id] + p.baseline.tolist() for p in profiles),
              config_hash)
