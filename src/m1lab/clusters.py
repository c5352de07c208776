"""Cluster mark distributions: the law of one extremal cluster, normalized so
the largest absolute mark equals 1.

The law is analytic with a deterministic shape: for a finite-order linear
model, shape = coeffs / max|coeff| with a single random sign.  The i.i.d.
model is the order-0 case, whose shape is the one mark [1.0].
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ClusterDistribution:
    """Law of normalized mark sequences (eta_j) with sup_j |eta_j| = 1.

    ``shape`` is the deterministic template; a cluster is sign * shape with
    sign = +1 w.p. p, -1 w.p. q (``stable._series_blocks`` draws the signs).
    """

    shape: np.ndarray
    p: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("sign weight p must lie in [0,1]")
        s = np.asarray(self.shape, dtype=float)
        m = np.abs(s).max()
        if m <= 0.0:
            raise ValueError("cluster shape must contain a nonzero mark")
        object.__setattr__(self, "shape", s / m)

    @property
    def q(self):
        return 1.0 - self.p

    def exact_sum_moments(self, alpha):
        """(c_plus, c_minus, r2, mean_sum, mean_sq, signed_alpha).

        c_plus = E[(sum eta)^alpha; sum > 0], c_minus the mirror image,
        r2 = E(sum eta^2)^{alpha/2}; signed_alpha = E[sum sign(eta)|eta|^alpha]
        (the mark-level tail-balance functional).
        """
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
