"""sweatauth: synthetic sweat amino-acid assays for continuous authentication.

Simulates enzymatic cascade readouts of per-individual amino-acid profiles,
digitizes the signals through sigmoidal filters, and evaluates template-based
continuous verification with ROC/AUC statistics.
"""

from ._kernels import BACKEND
from .auth import AuthDecision, Template, VerifyPolicy, enroll, score_step, verify_series
from .cohort import (AMINO_ACIDS, Demographics, GroupDistributionSpec, IndividualProfile,
                     NoiseSpec, SamplingSchedule, mimic_cohort, sample_series)
from .config import load_experiment
from .digitize import BandSpec, FilterParams, GroupingSpec, classify_band, consolidate, hill_filter
from .errors import ConfigurationError, InsufficientDataError, IntegrationError
from .kinetics import (CascadeKind, CascadeNetwork, CascadeUnion, KineticParams, KineticsTrace,
                       build_cascade, conserved_moieties, mm_rate, simulate,
                       simulate_batch)
from .metrics import RocCurve, ScoredPopulation, auc, delong_variance, roc_curve
from .transduce import OpticalConfig, SignalTrace, absorbance

__version__ = "0.1.0"
