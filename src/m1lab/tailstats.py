"""Estimators and empirical diagnostics for heavy-tailed sample paths: tail
index, norming constant, extremal index, and anticluster / sign-switch
probes.

All estimators are scale invariant where the underlying quantity is (Hill,
blocks estimator), and thresholds are usually supplied as quantile levels
by callers so experiments stay scale-free.
"""

import json
from dataclasses import dataclass, field

import numpy as np


class EstimatorError(ValueError):
    pass


@dataclass(frozen=True)
class BlockingScheme:
    """Disjoint blocks of length r_n; k_n = floor(n / r_n) blocks."""

    r_n: int

    def __post_init__(self):
        if self.r_n < 1:
            raise EstimatorError("block length must be >= 1")

    @classmethod
    def from_exponent(cls, n, kappa=0.5):
        if not 0.0 < kappa < 1.0:
            raise EstimatorError("block exponent must lie in (0,1)")
        return cls(int(np.ceil(n**kappa)))

    def k_n(self, n):
        if self.r_n > n:
            raise EstimatorError("block length exceeds the sample size")
        return n // self.r_n


def hill_alpha(data, k):
    """Hill estimator of the tail index on the top k order statistics.

    alpha_hat = 1 / mean(log(|X|_(i) / |X|_(k+1))), i = 1..k, descending.
    Invariant under positive rescaling of the data.
    """
    x = np.abs(np.asarray(data, dtype=float))
    n = x.size
    if k <= 0 or k >= n:
        raise EstimatorError("need 0 < k < n order statistics")
    top = np.sort(x)[::-1][: k + 1]
    if top[-1] <= 0.0:
        raise EstimatorError("degenerate ties at zero in the top order statistics")
    logs = np.log(top[:k] / top[k])
    m = logs.mean()
    if m <= 0.0:
        raise EstimatorError("degenerate ties in the top order statistics")
    return float(1.0 / m)


def an_empirical(data, n):
    """(1 - 1/n)-quantile of |X| over the pooled sample."""
    if n < 2:
        raise EstimatorError("need n >= 2")
    return float(np.quantile(np.abs(np.asarray(data, dtype=float)), 1.0 - 1.0 / n))


def extremal_index_blocks(data, scheme, u):
    """Blocks estimator: (# blocks with max |X| > u) / (# exceedances of u)."""
    x = np.abs(np.asarray(data, dtype=float))
    n = x.size
    k_n = scheme.k_n(n)
    exceed = x > u
    total = int(exceed.sum())
    if total == 0:
        raise EstimatorError("no exceedances of the threshold")
    blocks = exceed[: k_n * scheme.r_n].reshape(k_n, scheme.r_n)
    hit = int(blocks.any(axis=1).sum())
    # the tail of the sample beyond k_n * r_n is ignored, as in the block count
    tail_exc = int(exceed[k_n * scheme.r_n :].sum())
    total -= tail_exc
    if total == 0:
        raise EstimatorError("no exceedances inside complete blocks")
    theta = hit / total
    return float(min(max(theta, np.finfo(float).tiny), 1.0))


def anticluster_diagnostic(data, scheme, u, m_grid):
    """P(max_{m <= |i| < r_n} |X_{t+i}| > u given |X_t| > u), per m.

    The window excludes lag r_n, so m = r_n scans an empty index set and
    reports probability 0.
    """
    x = np.abs(np.asarray(data, dtype=float))
    n = x.size
    r_n = scheme.r_n
    exceed = x > u
    anchors = np.flatnonzero(exceed)
    if anchors.size == 0:
        raise EstimatorError("no anchor exceedances")
    csum = np.concatenate([[0], np.cumsum(exceed)])
    # exceedances at lags -(r_n - 1)..-m and m..r_n - 1 of every anchor,
    # clipped to the sample
    lo = np.maximum(anchors - r_n + 1, 0)
    hi = np.minimum(anchors + r_n, n)

    curve = {}
    for m in m_grid:
        m = int(m)
        if m < 1 or m > r_n:
            raise EstimatorError("m grid must lie in [1, r_n]")
        left = csum[np.maximum(anchors - m + 1, 0)] - csum[lo]
        right = csum[hi] - csum[np.minimum(anchors + m, n)]
        curve[m] = int(np.count_nonzero(left + right)) / anchors.size
    return curve


def sign_switch_diagnostic(data, scheme, u):
    """Number of blocks whose exceedances of u contain both signs."""
    x = np.asarray(data, dtype=float)
    n = x.size
    k_n = scheme.k_n(n)
    trimmed = x[: k_n * scheme.r_n].reshape(k_n, scheme.r_n)
    exceed = np.abs(trimmed) > u
    pos = np.any(exceed & (trimmed > 0), axis=1)
    neg = np.any(exceed & (trimmed < 0), axis=1)
    return int(np.sum(pos & neg))


@dataclass
class TailDiagnostics:
    """Bundle of per-sample diagnostics plus the untestable-assumption flag."""

    alpha_hat: float
    an_hat: float
    theta_hat: float
    anticluster_curve: dict = field(default_factory=dict)
    sign_switch_violations: int = 0
    mixing_assumed: bool = True

    def jsonl_records(self, replicate=0):
        """One record per (replicate, diagnostic), with the flat field names
        alpha_hat / an_hat / theta_hat / m / prob / violations."""
        recs = [
            {
                "replicate": replicate,
                "diagnostic": "tail_summary",
                "alpha_hat": self.alpha_hat,
                "an_hat": self.an_hat,
                "theta_hat": self.theta_hat,
                "mixing_assumed": self.mixing_assumed,
            },
            {
                "replicate": replicate,
                "diagnostic": "sign_switch",
                "violations": self.sign_switch_violations,
            },
        ]
        for m, prob in sorted(self.anticluster_curve.items()):
            recs.append(
                {"replicate": replicate, "diagnostic": "anticluster", "m": m, "prob": prob}
            )
        return recs


# diagnose's threshold, a quantile level of |X|, and its Hill order
# statistic count n^K_FRAC
QUANTILE_LEVEL = 0.99
K_FRAC = 0.6


def diagnose(sample_values, scheme):
    """Convenience bundle: Hill, empirical norming, blocks theta, anticluster
    head, sign-switch count.  The threshold is the QUANTILE_LEVEL quantile
    of |X|."""
    x = np.asarray(sample_values, dtype=float)
    n = x.size
    k = max(10, int(np.ceil(n**K_FRAC)))
    u = float(np.quantile(np.abs(x), QUANTILE_LEVEL))
    alpha_hat = hill_alpha(x, min(k, n - 1))
    theta_hat = extremal_index_blocks(x, scheme, u)
    m_grid = [m for m in (1, 2, 3, 5, 8) if m <= scheme.r_n]
    curve = anticluster_diagnostic(x, scheme, u, m_grid)
    return TailDiagnostics(
        alpha_hat=alpha_hat,
        an_hat=an_empirical(x, n),
        theta_hat=theta_hat,
        anticluster_curve=curve,
        sign_switch_violations=sign_switch_diagnostic(x, scheme, u),
    )


def dump_jsonl(records, fileobj):
    for rec in records:
        fileobj.write(json.dumps(rec, sort_keys=True) + "\n")
