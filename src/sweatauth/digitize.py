"""Consolidation, sigmoidal filtering, and banding of gate-time features.

Per-channel features are grouped per the consolidation spec (arithmetic
sums, or identity over a channel that is itself a multi-input cascade),
squeezed through Hill filters toward near-binary rails, and classified into
labelled bands.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

AGGREGATORS = ("sum", "weighted-sum", "cascade-endpoint")
FILTER_KINDS = ("hill", "passthrough")


@dataclass(frozen=True)
class FilterParams:
    """Hill transfer function parameters (or a linear passthrough)."""

    k_half: float
    hill_n: float = 8.0
    out_lo: float = 0.0
    out_hi: float = 1.0
    kind: str = "hill"   # one of FILTER_KINDS

    def __post_init__(self):
        if self.kind not in FILTER_KINDS:
            raise ConfigurationError(f"unknown filter kind {self.kind!r}")
        if self.kind == "hill":
            if not self.k_half > 0:
                raise ConfigurationError("k_half must be > 0")
            if self.hill_n < 1:
                raise ConfigurationError("hill_n must be >= 1")
        if not self.out_lo < self.out_hi:
            raise ConfigurationError("out_lo must be < out_hi")


def hill_filter(x: float, p: FilterParams) -> float:
    """out_lo + (out_hi - out_lo) * x^n / (k_half^n + x^n); passthrough: x."""
    if p.kind == "passthrough":
        return float(x)
    if x < 0:
        raise ValueError("hill filter input must be >= 0")
    if x == 0.0:
        return p.out_lo
    # branch on the saturation side so the ratio power never overflows
    if x <= p.k_half:
        r = (x / p.k_half) ** p.hill_n
        frac = r / (1.0 + r)
    else:
        q = (p.k_half / x) ** p.hill_n
        frac = 1.0 / (1.0 + q)
    return p.out_lo + (p.out_hi - p.out_lo) * frac


@dataclass
class GroupingSpec:
    """Consolidation of channel features into S grouped outputs.

    groups holds 0-based channel index lists; aggregators align with groups.
    "cascade-endpoint" marks a group whose single channel already performed
    the consolidation chemically (a multi-input cascade), so aggregation is
    identity and the group must contain exactly one channel. weights, if
    any, hold one weight per channel of every group, and only a
    "weighted-sum" group reads them, so some group must be one.
    """

    groups: list                       # list[list[int]]
    aggregators: list                  # one of AGGREGATORS per group
    weights: list = field(default_factory=list)  # per group, for weighted-sum

    def __post_init__(self):
        if len(self.groups) < 1:
            raise ConfigurationError("need at least one group")
        if len(self.aggregators) != len(self.groups):
            raise ConfigurationError("one aggregator per group required")
        if self.weights and "weighted-sum" not in self.aggregators:
            raise ConfigurationError("weights given, but no group is weighted-sum")
        if self.weights and len(self.weights) != len(self.groups):
            raise ConfigurationError("weights must align with groups")
        for gi, (g, agg) in enumerate(zip(self.groups, self.aggregators)):
            if agg not in AGGREGATORS:
                raise ConfigurationError(f"unknown aggregator {agg!r}")
            if not g:
                raise ConfigurationError("empty group")
            if agg == "cascade-endpoint" and len(g) != 1:
                raise ConfigurationError("cascade-endpoint groups hold exactly one channel")
            if self.weights and len(self.weights[gi]) != len(g):
                raise ConfigurationError(f"group {gi}: weight count mismatch")

    @property
    def n_outputs(self) -> int:
        return len(self.groups)

    def check_fits(self, n_channels: int, filters) -> None:
        """Each group indexes some of n_channels channels and has one filter, and a
        Hill-filtered weighted sum has no negative weight: the pipeline's features are
        never negative, so only a weight could feed the filter a negative input."""
        if len(filters) != self.n_outputs:
            raise ConfigurationError("one filter per group required")
        for gi, (idxs, agg, p) in enumerate(zip(self.groups, self.aggregators, filters)):
            if max(idxs) >= n_channels or min(idxs) < 0:
                raise ConfigurationError(f"group {gi} indexes beyond the {n_channels} channels")
            low = min(self.weights[gi]) if agg == "weighted-sum" and self.weights else 0.0
            if p.kind == "hill" and low < 0:
                raise ConfigurationError(
                    f"group {gi}: a Hill filter needs weights >= 0, got {low!r}")


@dataclass
class BandSpec:
    boundaries: list   # strictly ascending thresholds inside the rails
    labels: list       # len(boundaries) + 1 labels
    out_lo: float = 0.0
    out_hi: float = 1.0

    def __post_init__(self):
        b = list(self.boundaries)
        if any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
            raise ConfigurationError("band boundaries must be strictly ascending")
        if len(self.labels) != len(b) + 1:
            raise ConfigurationError("need exactly len(boundaries)+1 labels")
        if b and (b[0] <= self.out_lo or b[-1] >= self.out_hi):
            raise ConfigurationError("boundaries must lie strictly inside the rails")


def consolidate(grouping: GroupingSpec, features, filters, bands: BandSpec = None):
    """Aggregate features per group, filter each aggregate, optionally band.

    features is [..., C] per-channel scalars; filters supplies one FilterParams
    per group. Returns values [..., S] and band labels [..., S] (None without bands).
    """
    features = np.asarray(features, dtype=float)
    grouping.check_fits(features.shape[-1], filters)
    values = np.empty(features.shape[:-1] + (grouping.n_outputs,))
    labels = None if bands is None else np.empty(values.shape, dtype=object)
    for gi, (idxs, agg, p) in enumerate(zip(grouping.groups, grouping.aggregators, filters)):
        weighted = agg == "weighted-sum" and grouping.weights
        w = grouping.weights[gi] if weighted else [1.0] * len(idxs)
        if agg == "cascade-endpoint":  # chemistry already consolidated this group
            x = features[..., idxs[0]]
        else:  # weights of 1.0 make this the plain sum, bit for bit
            x = sum(wi * features[..., i] for wi, i in zip(w, idxs))
        if p.kind == "hill" and np.any(x < 0):
            raise ConfigurationError(
                f"group {gi}: Hill filter input must be >= 0, got {float(x.min())!r}")
        # scalar filter per element: Python float ** float, not np.power
        values[..., gi] = np.reshape([hill_filter(v, p) for v in x.ravel().tolist()], x.shape)
        if bands is not None:
            try:
                labels[..., gi] = classify_band(values[..., gi], bands)
            except ValueError as exc:
                raise ConfigurationError(f"group {gi}: {exc}") from None
    return values, labels


def classify_band(y, bands: BandSpec):
    """Label (object array for an array y) of the half-open interval holding y;
    boundaries go to the upper band."""
    y = np.asarray(y, dtype=float)
    bad = y[(y < bands.out_lo) | (y > bands.out_hi)]
    if bad.size:
        raise ValueError(f"value {bad[0]} outside rails [{bands.out_lo}, {bands.out_hi}]")
    b = np.asarray(bands.boundaries, dtype=float)
    return np.array(bands.labels, dtype=object)[np.searchsorted(b, y, side="right")]
