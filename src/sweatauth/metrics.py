"""ROC curves, AUC with DeLong variance, and equal error rate.

Conventions: genuine scores are the positive class and a probe is accepted
when its score is >= threshold. Ties get half credit in the AUC
(Mann-Whitney convention) and cross together in the threshold sweep, so
the trapezoid area under the ROC equals the pairwise statistic exactly.

Each class is sorted once; `searchsorted` counts the other class below and
tied with every score (Sun & Xu 2014), O(n log n) with no pair matrix. Count
sums are exact multiples of 0.5: results equal the pairwise ones bit for bit.
A finite ROC curve is the step polyline through its vertices (Fawcett 2006,
section 3), so a curve holds only its corners and both ends, at most
2 * min(n_genuine, n_impostor) + 2 points, which the EER, the area and the CSV
read. Beyond one buffer of the distinct scores and a sorted copy of each class,
which it drops on return, roc_curve holds only slices of SLICE sweep points;
delong_variance holds one float per score and one per genuine score.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._artifacts import write_csv, write_json
from .errors import InsufficientDataError

# scores, sweep points or CSV rows handled at a time (write_roc_csv's rows: about 0.5 MB)
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
    """Corners and both ends of the threshold sweep, from strict to lax. At a threshold
    a class's rate is the share of its scores not below it: FPR of the impostors, TPR
    of the genuine."""
    thresholds: np.ndarray   # strictly descending, leading +inf
    points: np.ndarray       # [K, 2] of (FPR, TPR), one per threshold

    def __post_init__(self):
        if np.any(self.thresholds[1:] >= self.thresholds[:-1]):
            raise ValueError("ROC thresholds must descend")
        if np.any(self.points[1:] < self.points[:-1]):
            raise ValueError("ROC rates must not fall along the sweep")
        if not (np.all(self.points[0] == 0.0) and np.all(self.points[-1] == 1.0)):
            raise ValueError("ROC must run from (0,0) to (1,1)")

    def trapezoid_area(self) -> float:
        return float(np.trapezoid(self.points[:, 1], self.points[:, 0]))

    def eer(self) -> float:
        """Rate where FAR equals FRR, on the first segment where FRR - FAR reaches 0:
        1 - TPR on a horizontal one, where FRR holds still, else FAR interpolated."""
        far, tpr = self.points.T
        diff = 1.0 - tpr
        diff -= far  # FRR - FAR: 1 at (0,0), -1 at (1,1), never rising
        k = np.flatnonzero(diff[1:] <= 0.0)[0]  # first segment to reach 0; diff[k] > 0
        if tpr[k] == tpr[k + 1]:
            return float(1.0 - tpr[k])
        alpha = diff[k] / (diff[k] - diff[k + 1])
        return float(far[k] + alpha * (far[k + 1] - far[k]))


def _accepted(ascending: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Per threshold, the share of the scores not strictly below it."""
    counts = np.searchsorted(ascending, thresholds, "left")
    np.subtract(ascending.size, counts, out=counts)
    return counts / ascending.size


def _below(ref_sorted: np.ndarray, probes: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Per probe, into out: scores of ascending `ref_sorted` strictly below it plus half its ties."""
    for lo in range(0, probes.size, SLICE):
        p = probes[lo:lo + SLICE]
        lt = np.searchsorted(ref_sorted, p, "left")
        out[lo:lo + SLICE] = lt + 0.5 * (np.searchsorted(ref_sorted, p, "right") - lt)
    return out


def roc_curve(pop: ScoredPopulation) -> RocCurve:
    """Corners and both ends of the threshold sweep over all distinct scores, ties crossing
    together. A point is dropped when both its neighbours share its FPR (a vertical run)
    or both share its TPR (a horizontal run): a corner of its run dominates it."""
    pop.require(1)
    sweep, genuine, impostor = _thresholds(pop), np.sort(pop.genuine), np.sort(pop.impostor)
    n, kept = sweep.size, []
    no_neighbour = np.full((1, 2), np.nan)  # at either end of the sweep, so the end is kept
    for lo in range(0, n, SLICE):
        t = sweep[max(lo - 1, 0):lo + SLICE + 1]  # the slice and a neighbour on each side
        rates = np.column_stack([_accepted(impostor, t), _accepted(genuine, t)])
        rates = np.concatenate([no_neighbour[:lo == 0], rates, no_neighbour[:lo + SLICE >= n]])
        mid = rates[1:-1]
        keep = ((rates[:-2] != mid) | (rates[2:] != mid)).all(axis=1)
        kept.append((sweep[lo:lo + SLICE][keep], mid[keep]))
    thresholds, points = map(np.concatenate, zip(*kept))
    return RocCurve(thresholds=thresholds, points=points)


def _thresholds(pop: ScoredPopulation) -> np.ndarray:
    """+inf, then the distinct scores descending: a view of one buffer of them all."""
    buf = np.concatenate([pop.genuine, pop.impostor, [np.inf]])
    scores = buf[:-1]
    scores.sort()  # np.unique's sort, so a tied -0.0 and 0.0 keep the same one
    k = 0  # distinct scores so far, moved down to scores[:k]
    for lo in range(0, scores.size, SLICE):
        seg = scores[lo:lo + SLICE]
        new = np.empty(seg.size, dtype=bool)
        new[0] = k == 0 or seg[0] != scores[k - 1]
        np.not_equal(seg[1:], seg[:-1], out=new[1:])
        kept = seg[new]
        scores[k:k + kept.size] = kept  # k <= lo: never ahead of what is still unread
        k += kept.size
    buf[k] = np.inf
    return buf[k::-1]


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
    v10 = _below(np.sort(pop.impostor), pop.genuine, np.empty(n_g))  # row sums of psi
    point = float(v10.sum() / (n_g * n_i))
    v10 /= n_i
    v01 = _below(np.sort(pop.genuine), pop.impostor, np.empty(n_i))
    np.subtract(n_g, v01, out=v01)  # column sums of psi
    v01 /= n_g
    var = float(_sample_var(v10) / n_g + _sample_var(v01) / n_i)
    half = 1.96 * np.sqrt(var)
    lo, hi = point - half, point + half
    return DelongResult(auc=point, variance=var,
                        ci=(max(lo, 0.0), min(hi, 1.0)), ci_unclipped=(lo, hi))


def _sample_var(x: np.ndarray):
    """np.var(x, ddof=1) in x's own memory, which it overwrites: np.var's operations
    in np.var's order, so the same bits without a copy of x."""
    x -= x.sum() / x.size
    np.multiply(x, x, out=x)
    return x.sum() / (x.size - 1)


def write_roc_csv(path, curve: RocCurve, config_hash: str = "") -> None:
    """One row per corner of the curve and one per end, in sweep order, converted to
    Python floats a slice at a time."""
    t, p = curve.thresholds, curve.points
    rows = (row for lo in range(0, t.size, SLICE)
            for row in zip(t[lo:lo + SLICE].tolist(), *p[lo:lo + SLICE].T.tolist()))
    write_csv(path, ["threshold", "fpr", "tpr"], rows, config_hash)


def write_summary_json(path, payload: dict) -> None:
    write_json(path, payload)
