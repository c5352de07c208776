"""Cluster mark distributions: the law of one extremal cluster, normalized so
the largest absolute mark equals 1.

Two flavours: an analytic deterministic-shape law (finite-order linear
models: shape = coeffs / max|coeff| with a single random sign), and an
empirical pool extracted from exceedance blocks of a sample.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ClusterDistribution:
    """Sampler for normalized mark sequences (eta_j) with sup_j |eta_j| = 1.

    ``shape`` is the deterministic template when the law is analytic; a
    cluster draw is sign * shape with sign = +1 w.p. p, -1 w.p. q.  For
    empirical laws ``pool`` holds extracted clusters (rows padded with 0).
    ``anchor_probs`` is the distribution of the anchor position within the
    cluster (the index whose coefficient carries the conditioning value).
    """

    p: float = 1.0
    shape: np.ndarray | None = None
    anchor_probs: np.ndarray | None = None
    pool: np.ndarray | None = None

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("sign weight p must lie in [0,1]")
        if (self.shape is None) == (self.pool is None):
            raise ValueError("provide exactly one of shape (analytic) or pool (empirical)")
        if self.shape is not None:
            s = np.asarray(self.shape, dtype=float)
            m = np.abs(s).max()
            if m <= 0.0:
                raise ValueError("cluster shape must contain a nonzero mark")
            object.__setattr__(self, "shape", s / m)
        else:
            pool = np.asarray(self.pool, dtype=float)
            if pool.ndim != 2 or pool.shape[0] == 0:
                raise ValueError("empirical pool must be a nonempty 2-d array")
            mx = np.abs(pool).max(axis=1)
            if np.any(mx <= 0.0):
                raise ValueError("every pooled cluster needs a nonzero mark")
            object.__setattr__(self, "pool", pool / mx[:, None])

    @property
    def q(self):
        return 1.0 - self.p

    @property
    def is_deterministic(self):
        return self.shape is not None

    def sample(self, rng, size):
        """Draw ``size`` clusters as a (size, width) array of marks."""
        if self.is_deterministic:
            signs = 1.0 - 2.0 * (rng.random(size) >= self.p)
            return signs[:, None] * self.shape[None, :]
        idx = rng.integers(0, self.pool.shape[0], size=size)
        return self.pool[idx]

    def exact_sum_moments(self, alpha):
        """(c_plus, c_minus, r2, mean_sum, mean_sq, signed_alpha) when analytic.

        c_plus = E[(sum eta)^alpha; sum > 0], c_minus the mirror image,
        r2 = E(sum eta^2)^{alpha/2}; signed_alpha = E[sum sign(eta)|eta|^alpha]
        (the mark-level tail-balance functional).
        """
        if not self.is_deterministic:
            raise ValueError("exact moments need the analytic (deterministic) law")
        s = float(self.shape.sum())
        sq = float((self.shape**2).sum())
        a = abs(s) ** alpha
        if s > 0:
            c_plus = self.p * a
            c_minus = self.q * a
        elif s < 0:
            c_plus = self.q * a
            c_minus = self.p * a
        else:
            c_plus = c_minus = 0.0
        r2 = sq ** (alpha / 2.0)
        mean_sum = (self.p - self.q) * s
        signed = (self.p - self.q) * float(
            np.sum(np.sign(self.shape) * np.abs(self.shape) ** alpha)
        )
        return c_plus, c_minus, r2, mean_sum, sq, signed


def singleton_cluster(p=1.0):
    """Cluster of one mark, +1 w.p. p and -1 otherwise (i.i.d. models)."""
    return ClusterDistribution(p=p, shape=np.array([1.0]))


def extract_empirical_clusters(values, threshold, gap):
    """Group exceedances of |values| > threshold into clusters.

    Consecutive exceedances closer than ``gap`` belong to one cluster; each
    cluster keeps the run of values between its first and last exceedance,
    normalized later by the constructor.
    """
    values = np.asarray(values, dtype=float)
    idx = np.flatnonzero(np.abs(values) > threshold)
    if idx.size == 0:
        raise ValueError("no exceedances above the threshold")
    breaks = np.flatnonzero(np.diff(idx) > gap)
    starts = np.concatenate([[0], breaks + 1])
    ends = np.concatenate([breaks, [idx.size - 1]])
    runs = [values[idx[s] : idx[e] + 1] for s, e in zip(starts, ends)]
    width = max(r.size for r in runs)
    pool = np.zeros((len(runs), width))
    for i, r in enumerate(runs):
        pool[i, : r.size] = r
    return ClusterDistribution(p=1.0, pool=pool)
