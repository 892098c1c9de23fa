"""ROC curves, AUC with DeLong variance, and equal error rate.

Conventions: genuine scores are the positive class and a probe is accepted
when its score is >= threshold. Ties get half credit in the AUC
(Mann-Whitney convention) and cross together in the threshold sweep, so
the trapezoid area under the ROC equals the pairwise statistic exactly.

Each class is sorted once; `searchsorted` counts the other class below and
tied with every score (Sun & Xu 2014), O(n log n) with no pair matrix. Count
sums are exact multiples of 0.5: results equal the pairwise ones bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._artifacts import write_csv, write_json
from .errors import InsufficientDataError

# curve points that write_roc_csv turns into Python floats at a time (about 0.4 MB)
ROC_CSV_SLICE = 4096


@dataclass
class ScoredPopulation:
    genuine: np.ndarray
    impostor: np.ndarray

    def __post_init__(self):
        self.genuine = np.asarray(self.genuine, dtype=float).ravel()
        self.impostor = np.asarray(self.impostor, dtype=float).ravel()

    def require(self, min_per_class: int = 1) -> None:
        if self.genuine.size < min_per_class or self.impostor.size < min_per_class:
            raise InsufficientDataError(
                f"need at least {min_per_class} scores per class "
                f"(got {self.genuine.size} genuine, {self.impostor.size} impostor)")


@dataclass
class RocCurve:
    points: np.ndarray       # [K, 2] of (FPR, TPR), sweep from strict to lax
    thresholds: np.ndarray   # threshold yielding each point (leading +inf)

    def __post_init__(self):
        p = self.points
        if np.any(p < -1e-12) or np.any(p > 1 + 1e-12):
            raise ValueError("ROC rates must lie in [0, 1]")
        if np.any(np.diff(p[:, 0]) < -1e-12) or np.any(np.diff(p[:, 1]) < -1e-12):
            raise ValueError("ROC sweep must be monotone")
        if not (np.allclose(p[0], (0.0, 0.0)) and np.allclose(p[-1], (1.0, 1.0))):
            raise ValueError("ROC must run from (0,0) to (1,1)")

    def trapezoid_area(self) -> float:
        return float(np.trapezoid(self.points[:, 1], self.points[:, 0]))

    def eer(self) -> float:
        """Rate where FAR equals FRR, linearly interpolated along the sweep."""
        far = self.points[:, 0]
        frr = 1.0 - self.points[:, 1]
        diff = frr - far
        # sweep starts at (FAR 0, FRR 1) and ends at (FAR 1, FRR 0): diff crosses 0
        k = np.flatnonzero((diff[:-1] >= 0.0) & (diff[1:] <= 0.0))[0]
        span = diff[k] - diff[k + 1]
        alpha = diff[k] / span if span > 0 else 0.0
        return float(far[k] + alpha * (far[k + 1] - far[k]))


def _below(ref: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """Per probe: `ref` scores strictly below it plus half its ties."""
    s = np.sort(ref)
    lt = np.searchsorted(s, probes, "left")
    return lt + 0.5 * (np.searchsorted(s, probes, "right") - lt)


def roc_curve(pop: ScoredPopulation) -> RocCurve:
    """Threshold sweep over all distinct scores, ties crossing together."""
    pop.require(1)
    thresholds = np.unique(np.concatenate([pop.genuine, pop.impostor]))[::-1]
    points = np.zeros((thresholds.size + 1, 2))
    for col, scores in ((0, pop.impostor), (1, pop.genuine)):
        # rate accepted at each threshold: the scores not strictly below it
        below = np.searchsorted(np.sort(scores), thresholds, "left")
        points[1:, col] = (scores.size - below) / scores.size
    return RocCurve(points=points, thresholds=np.concatenate([[np.inf], thresholds]))


def auc(pop: ScoredPopulation) -> float:
    """Mann-Whitney statistic: P(genuine > impostor) + 0.5 * P(tie)."""
    pop.require(1)
    wins = _below(pop.impostor, pop.genuine)
    return float(wins.sum() / (pop.genuine.size * pop.impostor.size))


@dataclass
class DelongResult:
    auc: float
    variance: float
    ci: tuple            # 95% interval clipped to [0, 1]
    ci_unclipped: tuple

    def as_dict(self) -> dict:
        return {"auc": self.auc, "variance": self.variance,
                "ci95": list(self.ci), "ci95_unclipped": list(self.ci_unclipped)}


def delong_variance(pop: ScoredPopulation) -> DelongResult:
    """Structural-components variance of the AUC estimate.

    V10[i] averages the win/tie kernel of genuine i against all impostors,
    V01[j] symmetrically; var = var(V10)/n_genuine + var(V01)/n_impostor.
    """
    pop.require(2)
    n_g, n_i = pop.genuine.size, pop.impostor.size
    wins = _below(pop.impostor, pop.genuine)          # row sums of psi
    beaten = n_g - _below(pop.genuine, pop.impostor)  # column sums of psi
    v10, v01 = wins / n_i, beaten / n_g
    point = float(wins.sum() / (n_g * n_i))
    var = float(np.var(v10, ddof=1) / v10.size + np.var(v01, ddof=1) / v01.size)
    half = 1.96 * np.sqrt(var)
    lo, hi = point - half, point + half
    return DelongResult(auc=point, variance=var,
                        ci=(max(lo, 0.0), min(hi, 1.0)), ci_unclipped=(lo, hi))


def eer(pop: ScoredPopulation) -> float:
    """Equal error rate of pop's ROC curve (``RocCurve.eer``)."""
    return roc_curve(pop).eer()


def write_roc_csv(path, curve: RocCurve, config_hash: str = "") -> None:
    """One row per curve point, converted to Python floats a slice at a time."""
    def rows():
        for lo in range(0, curve.thresholds.size, ROC_CSV_SLICE):
            hi = lo + ROC_CSV_SLICE
            yield from zip(curve.thresholds[lo:hi].tolist(), curve.points[lo:hi, 0].tolist(),
                           curve.points[lo:hi, 1].tolist())

    write_csv(path, ["threshold", "fpr", "tpr"], rows(), config_hash)


def write_summary_json(path, payload: dict) -> None:
    write_json(path, payload)
