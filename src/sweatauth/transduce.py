"""The readout rule: what a channel observes of a cascade, and at what scale.

Absorbance follows Beer-Lambert on a chromophore column; luminescence and
amperometric current are proportional to the instantaneous rate of the
reporter step (flash-type emission, faradaic turnover). All transductions
are homogeneous degree 1 in their gain parameter and never add noise of
their own: sampling noise enters once, in cohort sampling.

``readout`` resolves a channel entry to the (signal, scale) pair that
``kinetics.simulate_batch`` observes; ``absorbance`` reads a recorded trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .kinetics import KineticsTrace

BUILTIN_WAVELENGTHS = {"NADH": 340, "ABTSox": 405, "Formazan": 580}

UM_TO_M = 1e-6

# reporter step of each rate readout: (its enzyme, or None for any; a substrate it consumes)
REPORTER_STEPS = {"luminescence": ("HRP", "Luminol"), "amperometric": (None, "H2O2")}


@dataclass(frozen=True)
class OpticalConfig:
    wavelength: float        # nm
    epsilon: float           # molar absorptivity, M^-1 cm^-1
    path_length: float       # cm
    species: str

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ConfigurationError("epsilon must be > 0")
        if not self.path_length > 0:
            raise ConfigurationError("path length must be > 0")

    @property
    def scale(self) -> float:  # absorbance per µM: c in mol/L
        return self.epsilon * self.path_length * UM_TO_M


def builtin_optics(species: str, params) -> OpticalConfig:
    """OpticalConfig for one of the built-in chromophore channels."""
    if species not in params.optics:
        raise ConfigurationError(f"no optics entry for species {species!r}")
    entry = params.optics[species]
    wl, epsilon = float(entry["wavelength"]), float(entry["epsilon"])
    if species in BUILTIN_WAVELENGTHS and wl != BUILTIN_WAVELENGTHS[species]:
        raise ConfigurationError(
            f"built-in channel {species} reads at {BUILTIN_WAVELENGTHS[species]} nm, got {wl}")
    return OpticalConfig(wavelength=wl, epsilon=epsilon,
                         path_length=params.path_length_cm, species=species)


@dataclass
class SignalTrace:
    times: np.ndarray
    values: np.ndarray
    channel: str


def absorbance(trace: KineticsTrace, cfg: OpticalConfig) -> SignalTrace:
    """Beer-Lambert absorbance A(t) = epsilon * c(t) * path, c in mol/L."""
    c = trace.column(cfg.species)  # raises KeyError when absent
    return SignalTrace(times=trace.times, values=cfg.scale * c,
                       channel=f"A{cfg.wavelength:.0f}/{cfg.species}")


def reporter_step(network, transduction: str) -> int:
    """Index of the step whose rate a luminescence or amperometric readout follows."""
    enzyme, substrate = REPORTER_STEPS[transduction]
    for j, st in enumerate(network.steps):
        if enzyme in (None, st.enzyme) and substrate in (sp for sp, _ in st.substrates):
            return j
    raise ConfigurationError(
        f"{network.kind.value} cascade lacks the required reporter step for {transduction}")


def readout(network, entry: dict, params) -> tuple:
    """(signal, scale) of a channel entry, as ``kinetics.simulate_batch`` observes it.

    Absorbance: a chromophore (``species``, default the first reporter) and
    its Beer-Lambert scale. Luminescence, amperometric: the reporter step's
    rate and a ``gain`` (default ``params.gains``).
    """
    transduction = entry.get("transduction", "absorbance")
    if transduction == "absorbance":
        species = entry.get("species", network.reporter_species[0])
        if species not in network.species_names:
            raise ConfigurationError(f"species {species!r} is not in the {network.kind.value} cascade")
        return species, builtin_optics(species, params).scale
    if transduction not in REPORTER_STEPS:
        raise ConfigurationError(f"unknown transduction {transduction!r}")
    gain = entry.get("gain", params.gains.get(transduction, 1.0))
    return reporter_step(network, transduction), gain
