"""ROC curves, AUC with DeLong variance, and equal error rate.

Conventions: genuine scores are the positive class and a probe is accepted
when its score is >= threshold. Ties get half credit in the AUC
(Mann-Whitney convention) and cross together in the threshold sweep, so
the trapezoid area under the ROC equals the pairwise statistic exactly.

Each class is sorted once; `searchsorted` counts the other class below and
tied with every score (Sun & Xu 2014), O(n log n) with no pair matrix. Count
sums are exact multiples of 0.5: results equal the pairwise ones bit for bit.
Counts, curve checks, the EER search and CSV rows go a slice of SLICE scores
or points at a time, so no temporary beyond one sorted class grows with the
population.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._artifacts import write_csv, write_json
from .errors import InsufficientDataError

# scores or curve points handled at a time (write_roc_csv's Python floats: about 0.4 MB)
SLICE = 4096


@dataclass
class ScoredPopulation:
    genuine: np.ndarray
    impostor: np.ndarray

    def __post_init__(self):  # wraps contiguous float arrays without a copy
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
        for seg in _overlapping(p):
            if np.any(seg < -1e-12) or np.any(seg > 1 + 1e-12):
                raise ValueError("ROC rates must lie in [0, 1]")
        for seg in _overlapping(p):
            if np.any(np.diff(seg, axis=0) < -1e-12):
                raise ValueError("ROC sweep must be monotone")
        if not (np.allclose(p[0], (0.0, 0.0)) and np.allclose(p[-1], (1.0, 1.0))):
            raise ValueError("ROC must run from (0,0) to (1,1)")

    def trapezoid_area(self) -> float:
        return float(np.trapezoid(self.points[:, 1], self.points[:, 0]))

    def eer(self) -> float:
        """Rate where FAR equals FRR, linearly interpolated along the sweep."""
        # sweep starts at (FAR 0, FRR 1) and ends at (FAR 1, FRR 0): diff crosses 0
        for seg in _overlapping(self.points):
            far = seg[:, 0]
            diff = (1.0 - seg[:, 1]) - far  # FRR - FAR
            crossing = np.flatnonzero((diff[:-1] >= 0.0) & (diff[1:] <= 0.0))
            if crossing.size:
                k = crossing[0]
                span = diff[k] - diff[k + 1]
                alpha = diff[k] / span if span > 0 else 0.0
                return float(far[k] + alpha * (far[k + 1] - far[k]))
        raise ValueError("ROC sweep never crosses FAR = FRR")


def _overlapping(rows: np.ndarray):
    """Slices of SLICE + 1 rows, each starting on the last row of the one before."""
    for lo in range(0, max(len(rows) - 1, 1), SLICE):
        yield rows[lo:lo + SLICE + 1]


def _below(ref_sorted: np.ndarray, probes: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Per probe, into out: scores of ascending `ref_sorted` strictly below it plus half its ties."""
    for lo in range(0, probes.size, SLICE):
        p = probes[lo:lo + SLICE]
        lt = np.searchsorted(ref_sorted, p, "left")
        out[lo:lo + SLICE] = lt + 0.5 * (np.searchsorted(ref_sorted, p, "right") - lt)
    return out


def roc_curve(pop: ScoredPopulation) -> RocCurve:
    """Threshold sweep over all distinct scores, ties crossing together."""
    pop.require(1)
    distinct = np.unique(np.concatenate([pop.genuine, pop.impostor]))
    thresholds = np.empty(distinct.size + 1)
    thresholds[0], thresholds[1:] = np.inf, distinct[::-1]
    del distinct  # before points: one full-size temporary at a time
    points = np.zeros((thresholds.size, 2))
    for col, scores in ((0, pop.impostor), (1, pop.genuine)):
        s = np.sort(scores)
        for lo in range(1, thresholds.size, SLICE):
            # rate accepted at each threshold: the scores not strictly below it
            below = np.searchsorted(s, thresholds[lo:lo + SLICE], "left")
            points[lo:lo + SLICE, col] = (s.size - below) / s.size
        del s  # before the other class is sorted
    return RocCurve(points=points, thresholds=thresholds)


def auc(pop: ScoredPopulation) -> float:
    """Mann-Whitney statistic: P(genuine > impostor) + 0.5 * P(tie)."""
    pop.require(1)
    wins = _below(np.sort(pop.impostor), pop.genuine, np.empty(pop.genuine.size))
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
    wins = _below(np.sort(pop.impostor), pop.genuine, np.empty(n_g))  # row sums of psi
    v01 = _below(np.sort(pop.genuine), pop.impostor, np.empty(n_i))
    np.subtract(n_g, v01, out=v01)  # column sums of psi
    v01 /= n_g
    v10 = wins / n_i
    point = float(wins.sum() / (n_g * n_i))
    var = float(np.var(v10, ddof=1) / v10.size + np.var(v01, ddof=1) / v01.size)
    half = 1.96 * np.sqrt(var)
    lo, hi = point - half, point + half
    return DelongResult(auc=point, variance=var,
                        ci=(max(lo, 0.0), min(hi, 1.0)), ci_unclipped=(lo, hi))


def write_roc_csv(path, curve: RocCurve, config_hash: str = "") -> None:
    """One row per curve point, converted to Python floats a slice at a time."""
    def rows():
        for lo in range(0, curve.thresholds.size, SLICE):
            hi = lo + SLICE
            yield from zip(curve.thresholds[lo:hi].tolist(), curve.points[lo:hi, 0].tolist(),
                           curve.points[lo:hi, 1].tolist())

    write_csv(path, ["threshold", "fpr", "tpr"], rows(), config_hash)


def write_summary_json(path, payload: dict) -> None:
    write_json(path, payload)
