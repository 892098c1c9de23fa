"""ROC curves, AUC with DeLong variance, and equal error rate.

Conventions: genuine scores are the positive class and a probe is accepted
when its score is >= threshold. Ties get half credit in the AUC
(Mann-Whitney convention) and cross together in the threshold sweep, so
the trapezoid area under the ROC equals the pairwise statistic exactly.

Each class is sorted once; `searchsorted` counts the other class below and
tied with every score (Sun & Xu 2014), O(n log n) with no pair matrix. Count
sums are exact multiples of 0.5: results equal the pairwise ones bit for bit.
A curve holds its thresholds and a sorted copy of each class, no matrix of
points: the thresholds are the distinct scores, sorted and compacted in place
in one buffer, and a point's rates are counted from the sorted classes when
they are read. Counts, curve checks, the EER search, the area and CSV rows go
a slice of SLICE scores or points at a time: beyond the arrays it returns,
roc_curve holds only slices, and delong_variance one float per score and one
per genuine score. The EER and the area read every point; the CSV holds only
the corners and both ends, since a point inside a vertical or horizontal run
is dominated by a corner of that run and lies on the same polyline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._artifacts import write_csv_lines, write_json
from .errors import InsufficientDataError

# scores or curve points handled at a time (write_roc_csv's rows: about 0.5 MB)
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
    """Threshold sweep from strict to lax. At each threshold a class's rate is the
    share of its scores not below it: FPR of the impostors, TPR of the genuine."""
    thresholds: np.ndarray   # strictly descending, leading +inf
    genuine: np.ndarray      # each class sorted ascending
    impostor: np.ndarray

    def __post_init__(self):
        # with both classes ascending and the thresholds descending, every rate lies
        # in [0, 1] and the sweep is monotone; the checks cover every score and point
        for name in ("genuine", "impostor"):
            if any(np.any(seg[1:] < seg[:-1]) for seg in _slices(getattr(self, name), 1)):
                raise ValueError(f"ROC {name} scores must be sorted ascending")
        if any(np.any(seg[1:] >= seg[:-1]) for seg in _slices(self.thresholds, 1)):
            raise ValueError("ROC thresholds must descend")
        ends = self.thresholds[[0, -1]]  # each rate runs from 0 to 1
        if not all(np.allclose(_accepted(s, ends), (0.0, 1.0))
                   for s in (self.impostor, self.genuine)):
            raise ValueError("ROC must run from (0,0) to (1,1)")

    @property
    def points(self) -> np.ndarray:
        """[K, 2] of (FPR, TPR), one per threshold, built on each access."""
        t = self.thresholds
        return np.column_stack([_accepted(self.impostor, t), _accepted(self.genuine, t)])

    def sweep(self, overlap: int = 0):
        """(thresholds, FPR, TPR) a slice of SLICE points at a time, each slice also
        holding the first `overlap` points of the next."""
        for t in _slices(self.thresholds, overlap):
            yield t, _accepted(self.impostor, t), _accepted(self.genuine, t)

    def trapezoid_area(self) -> float:
        return float(sum(np.trapezoid(tpr, far) for _, far, tpr in self.sweep(1)))

    def eer(self) -> float:
        """Rate where FAR equals FRR, linearly interpolated along the sweep."""
        # sweep starts at (FAR 0, FRR 1) and ends at (FAR 1, FRR 0): diff crosses 0
        for _, far, tpr in self.sweep(1):
            diff = 1.0 - tpr
            diff -= far  # FRR - FAR
            crossing = np.flatnonzero((diff[:-1] >= 0.0) & (diff[1:] <= 0.0))
            if crossing.size:
                k = crossing[0]
                span = diff[k] - diff[k + 1]
                alpha = diff[k] / span if span > 0 else 0.0
                return float(far[k] + alpha * (far[k + 1] - far[k]))
        raise ValueError("ROC sweep never crosses FAR = FRR")


def _slices(a: np.ndarray, overlap: int = 0):
    """a in slices of SLICE, each also holding the first `overlap` items of the next."""
    for lo in range(0, max(len(a) - overlap, 1), SLICE):
        yield a[lo:lo + SLICE + overlap]


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
    """Threshold sweep over all distinct scores, ties crossing together."""
    pop.require(1)
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
    return RocCurve(thresholds=buf[k::-1], genuine=np.sort(pop.genuine),
                    impostor=np.sort(pop.impostor))


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
    Python floats a slice at a time. A point is dropped when both its neighbours share
    its FPR (a vertical run) or both share its TPR (a horizontal run): a kept corner of
    its run dominates it, and the polyline through the kept rows is the same curve."""
    def lines():
        before = np.nan, np.nan  # (FPR, TPR) of the point before the slice: none at the start
        todo = curve.thresholds.size
        for ts, fs, ps in curve.sweep(1):
            last = ts.size == todo  # else the slice's last point is the next slice's first
            todo -= ts.size - 1
            n = ts.size - (not last)
            keep = np.ones(n, dtype=bool)
            for lead, rate in zip(before, (fs, ps)):
                r = np.concatenate([[lead], rate, [np.nan] if last else []])  # NaN: no neighbour
                keep &= (r[:-2] != r[1:-1]) | (r[2:] != r[1:-1])
            before = fs[n - 1], ps[n - 1]
            for t, f, p in zip(ts[:n][keep].tolist(), fs[:n][keep].tolist(),
                               ps[:n][keep].tolist()):
                yield f"{t!r},{f!r},{p!r}\n"

    write_csv_lines(path, ["threshold", "fpr", "tpr"], lines(), config_hash)


def write_summary_json(path, payload: dict) -> None:
    write_json(path, payload)
