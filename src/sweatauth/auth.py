"""Template enrollment and sequential verification of output streams.

The template is a Gaussian model (mean + regularized covariance) of the
registration-window output vectors. Each probe vector scores as minus half
its squared Mahalanobis distance, so a probe at the template mean scores
exactly zero and scores fall monotonically with distance. Verification
accumulates drift-compensated scores against an accept/reject threshold
pair, sequential-test style.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from ._artifacts import open_artifact, write_json
from .config import TEMPLATES, _read_json, with_defaults
from .errors import ConfigurationError, InsufficientDataError


@dataclass
class Template:
    user_id: str
    mean: np.ndarray
    covariance: np.ndarray
    k_reg: int
    lam: float
    created_at: float = 0.0

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.covariance = np.asarray(self.covariance, dtype=float)
        if self.covariance.shape != (self.mean.size, self.mean.size):
            raise ValueError("covariance shape does not match mean")
        # symmetric positive definite after regularization
        np.linalg.cholesky(self.covariance)

    @property
    def dim(self) -> int:
        return self.mean.size


@dataclass
class VerifyPolicy:
    accept_thr: float
    reject_thr: float
    drift_offset: float = 0.0

    def __post_init__(self):
        if not self.accept_thr > self.reject_thr:
            raise ConfigurationError("accept_thr must be > reject_thr")


@dataclass
class AuthDecision:
    verdict: str     # accept | reject | continue
    statistic: float
    steps_read: int  # probes scored; the verdict came on the last, unless continue


def enroll(series, k_reg: int, lam: float, user_id: str = "user",
           created_at: float = 0.0) -> Template:
    """Fit a template on the first k_reg rows of the [k, S] registration series.

    covariance = sample covariance (ddof=1, zero for a single sample) plus
    lam * identity, which keeps it positive definite even when k_reg < S.
    """
    if k_reg < 1:
        raise InsufficientDataError("k_reg must be >= 1")
    X = np.asarray(series, dtype=float)
    if X.shape[0] < k_reg:
        raise InsufficientDataError(
            f"registration needs {k_reg} vectors, stream has {X.shape[0]}")
    X = X[:k_reg]
    mean = X.mean(axis=0)
    s = mean.size
    if k_reg == 1:
        cov = np.zeros((s, s))
    else:
        cov = np.cov(X, rowvar=False, ddof=1).reshape(s, s)
    try:
        return Template(user_id=user_id, mean=mean, covariance=cov + lam * np.eye(s),
                        k_reg=k_reg, lam=lam, created_at=created_at)
    except np.linalg.LinAlgError:
        raise InsufficientDataError(
            f"{user_id}: {k_reg} registration vectors plus auth.lambda = {lam:g} give a "
            f"covariance that is not positive definite; raise auth.lambda or auth.k_reg") from None


def score_step(tpl: Template, y) -> float:
    """-0.5 * squared Mahalanobis distance of y from the template."""
    v = np.asarray(y, dtype=float)
    if v.shape != tpl.mean.shape:
        raise ValueError(f"probe dimension {v.shape} != template dimension {tpl.mean.shape}")
    d = v - tpl.mean
    return float(-0.5 * d @ np.linalg.solve(tpl.covariance, d))


def verify_series(tpl: Template, stream, policy: VerifyPolicy) -> AuthDecision:
    """Sequentially accumulate drift-compensated scores until a verdict.

    statistic_k = sum_{i<=k} (score_i - drift_offset); accept when the
    statistic reaches accept_thr, reject at reject_thr, else continue.
    """
    stat, verdict, steps_read = 0.0, "continue", 0
    for steps_read, y in enumerate(stream, 1):
        stat += score_step(tpl, y) - policy.drift_offset
        if stat >= policy.accept_thr:
            verdict = "accept"
            break
        if stat <= policy.reject_thr:
            verdict = "reject"
            break
    return AuthDecision(verdict=verdict, statistic=stat, steps_read=steps_read)


def calibrate_drift_offset(genuine_scores, margin: float) -> float:
    """Median genuine per-step score minus a safety margin."""
    if len(genuine_scores) == 0:
        raise InsufficientDataError("need genuine scores to calibrate drift offset")
    return float(np.median(genuine_scores) - margin)


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------

def template_to_dict(tpl: Template, config_hash: str = "", params_hash: str = "") -> dict:
    return {
        "user_id": tpl.user_id,
        "k_reg": tpl.k_reg,
        "lambda": tpl.lam,
        "created_at": tpl.created_at,
        "mean": [float(x) for x in tpl.mean],
        "covariance": [[float(x) for x in row] for row in tpl.covariance],
        "config_hash": config_hash,
        "params_hash": params_hash,
    }


def template_from_dict(d: dict) -> Template:
    d = with_defaults(TEMPLATES.of, d)
    return Template(user_id=d["user_id"], mean=np.array(d["mean"]),
                    covariance=np.array(d["covariance"]), k_reg=int(d["k_reg"]),
                    lam=float(d["lambda"]), created_at=float(d["created_at"]))


def save_templates(path, templates, config_hash: str = "", params_hash: str = "") -> None:
    write_json(path, [template_to_dict(t, config_hash, params_hash) for t in templates])


def load_templates(path) -> list:
    """Templates saved by save_templates; a malformed file is a ConfigurationError."""
    entries = _read_json(path, TEMPLATES)
    templates = []
    for idx, d in enumerate(entries):
        try:
            templates.append(template_from_dict(d))
        except ValueError as exc:  # a shape or, as LinAlgError, a definiteness failure
            raise ConfigurationError(f"{path}[{idx}]: {exc}") from None
    return templates


def append_audit(path, rows) -> None:
    """Append (timestamp, user, statistic, verdict) rows to the audit CSV."""
    with open_artifact(path, "a", newline="") as fh:
        w = csv.writer(fh)
        if fh.tell() == 0:  # a new or empty file
            w.writerow(["timestamp_s", "user_id", "statistic", "verdict"])
        for t, user, stat, verdict in rows:
            w.writerow([repr(float(t)), user, repr(float(stat)), verdict])
