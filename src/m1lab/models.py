"""Stationary heavy-tailed generators and their analytic tail quantities.

The canonical marginal is the two-sided unit Pareto: P(|X| > x) = x^{-alpha}
for x >= 1, sign +1 with probability p.  With that choice the norming
sequence solving n P(|X| > a_n) -> 1 is a_n = scale * n^{1/alpha} exactly,
which keeps the truncated-moment and small-jump bounds sharp.

The analytic family is the finite-order moving average ``LinearSpec``; the
i.i.d. model is its order 0, ``LinearSpec((1.0,), rv)``, and every
dispatcher below gives it the i.i.d. values bit for bit.

Generators are pure functions of (spec, n, seed).  Every seed rule and the
package's one generator constructor, ``seeded_rng``, live here: a purpose
draws from ``stream_seed``, replicate r from seed XOR r (``derive_seed``),
and ``replicate_samples`` yields them lazily; no state is shared.
"""

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .clusters import ClusterDistribution


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class RegVarSpec:
    """Two-sided Pareto marginal: tail index alpha, positive-tail weight p."""

    alpha: float
    p: float = 1.0
    scale: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise ModelError("tail index alpha must lie in (0,2)")
        if not 0.0 <= self.p <= 1.0:
            raise ModelError("positive-tail weight p must lie in [0,1]")
        if not self.scale > 0.0:
            raise ModelError("scale must be positive")

    @property
    def q(self):
        return 1.0 - self.p


@dataclass(frozen=True)
class LinearSpec:
    """Finite-order moving average X_i = sum_j coeffs[j] * Z_{i-j}.

    Order 0 with ``coeffs = (1.0,)`` is the i.i.d. model: theta = 1, the
    marginal weight p, a_n = scale * n^{1/alpha} and the one-mark cluster.
    """

    coeffs: tuple
    innovation: RegVarSpec

    def __post_init__(self):
        c = tuple(float(c) for c in self.coeffs)
        if len(c) == 0 or all(v == 0.0 for v in c):
            raise ModelError("linear model needs at least one nonzero coefficient")
        object.__setattr__(self, "coeffs", c)

    @property
    def order(self):
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class GarchSpec:
    """GARCH(1,1) with standard normal noise.

    sigma2_k = omega + (a1 Z_{k-1}^2 + b1) sigma2_{k-1}, X_k = sigma_k Z_k.
    """

    omega: float
    a1: float
    b1: float

    def __post_init__(self):
        if not self.omega > 0.0:
            raise ModelError("omega must be positive")
        if not (self.a1 >= 0.0 and self.b1 >= 0.0):
            raise ModelError("a1 and b1 must be nonnegative")


@dataclass(frozen=True)
class SquaredGarchSpec:
    inner: GarchSpec


ModelSpec = LinearSpec | GarchSpec | SquaredGarchSpec


@dataclass(frozen=True)
class SeriesSample:
    """A generated series."""

    values: np.ndarray


def seeded_rng(seed):
    """The package's one generator: PCG64 at the seed modulo 2^64."""
    return np.random.default_rng(np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF))


def stream_seed(base, tag):
    """Independent deterministic seed stream for a named purpose."""
    h = hashlib.blake2s(tag.encode(), digest_size=8).digest()
    return (int(base) ^ int.from_bytes(h, "little")) & 0xFFFFFFFFFFFFFFFF


def derive_seed(base, index):
    """Replicate seeds are base XOR index, so replications parallelize."""
    return (int(base) ^ int(index)) & 0xFFFFFFFFFFFFFFFF


def _pareto_draws(rv, n, rng):
    mag = (1.0 - rng.random(n)) ** (-1.0 / rv.alpha)
    sign = 1.0 - 2.0 * (rng.random(n) >= rv.p)
    return rv.scale * mag * sign


def sample_linear(spec, n, seed):
    """Moving average of i.i.d. heavy-tailed innovations.

    A burn-in of ``order`` innovations is discarded so the output window is
    stationary from its first element.
    """
    if n < 1:
        raise ModelError("need n >= 1")
    m = spec.order
    z = _pareto_draws(spec.innovation, n + m, seeded_rng(seed))
    phi = np.asarray(spec.coeffs)
    # order 0 (the i.i.d. model) scales the draws in place: no second array
    x = np.convolve(z, phi, mode="valid") if m > 0 else np.multiply(z, phi[0], out=z)
    return SeriesSample(x)


def linear_tail_ratio(spec):
    """sum_j |coeff_j|^alpha, the limit of P(|X0|>x) / P(|Z0|>x)."""
    alpha = spec.innovation.alpha
    return float(np.sum(np.abs(spec.coeffs) ** alpha))


def linear_extremal_index(spec):
    """max_j |coeff_j|^alpha / sum_j |coeff_j|^alpha."""
    alpha = spec.innovation.alpha
    a = np.abs(np.asarray(spec.coeffs)) ** alpha
    return float(a.max() / a.sum())


def linear_cluster_law(spec):
    """Cluster mark law of the moving average.

    One large innovation of sign s produces the run s * coeffs; normalized
    by the largest magnitude the marks are s * coeffs / max|coeffs|.  The
    sign variable is +/-1 with weights (p, q) of the innovation law.
    """
    return ClusterDistribution(p=spec.innovation.p, shape=np.asarray(spec.coeffs))


def _garch_path(spec, n, seed, burnin):
    """(X_k, sigma_k^2) for k = 1..n after a burn-in, from standard normal noise."""
    if n < 1:
        raise ModelError("need n >= 1")
    if burnin is None:
        # geometric-ergodicity heuristic; generous and configurable upstream
        rate = min(spec.a1 + spec.b1, 0.99)
        burn = max(1000, int(50.0 / (1.0 - rate)))
    else:
        burn = int(burnin)
    z = seeded_rng(seed).standard_normal(n + burn)
    denom = 1.0 - (spec.a1 + spec.b1)
    s0 = spec.omega / denom if denom > 0.0 else spec.omega
    return kernels.garch_recursion(z, spec.omega, spec.a1, spec.b1, s0, burn)


def sample_garch(spec, n, seed, burnin=None):
    if spec.a1 == 0.0 and spec.b1 == 0.0:
        import warnings

        warnings.warn(
            "a1 = b1 = 0 degenerates to i.i.d. scaled noise", UserWarning, stacklevel=2
        )
    x, _sig2 = _garch_path(spec, n, seed, burnin)
    return SeriesSample(x)


def sample_squared_garch(spec, n, seed, burnin=None):
    """Nonnegative vector series (X_k^2, sigma_k^2) of the inner GARCH."""
    x, sig2 = _garch_path(spec.inner, n, seed, burnin)
    return SeriesSample(np.column_stack([x**2, sig2]))


def garch_moment(spec, alpha):
    """E[(a1 Z^2 + b1)^alpha] for standard normal Z, by quadrature."""
    from scipy import integrate

    def integrand(z):
        return (spec.a1 * z * z + spec.b1) ** alpha * math.exp(-0.5 * z * z)

    val, err = integrate.quad(integrand, 0.0, np.inf, limit=200)
    val *= 2.0 / math.sqrt(2.0 * math.pi)
    return val, err


# the small exponent s at which E[(a1 Z^2 + b1)^s] - 1 carries the sign of
# E log(a1 Z^2 + b1), and the bracket's lower end in solve_garch_alpha
_GARCH_S_MIN = 1e-6


def require_stationary_garch(spec):
    """Raise ModelError unless E log(a1 Z^2 + b1) < 0, the condition for a
    strictly stationary GARCH(1,1) (Nelson 1990).

    As s -> 0+, E[(a1 Z^2 + b1)^s] - 1 = s E log(a1 Z^2 + b1) + O(s^2), so
    the sign is read off the moment at a small s.
    """
    if garch_moment(spec, _GARCH_S_MIN)[0] >= 1.0:
        raise ModelError(
            f"non-stationary GARCH (a1 = {spec.a1}, b1 = {spec.b1}): "
            "E log(a1 Z^2 + b1) >= 0"
        )


def solve_garch_alpha(spec, tol=1e-10, alpha_max=10.0):
    """Root of E[(a1 Z^2 + b1)^alpha] = 1 on (0, alpha_max].

    The root is the tail index of the squared-volatility recursion (the
    squared series; the raw series has twice this index).
    """
    if spec.a1 == 0.0 and spec.b1 == 0.0:
        raise ModelError("degenerate recursion (a1 = b1 = 0) has no moment root")
    if spec.b1 >= 1.0:
        raise ModelError(
            "no root: a1 Z^2 + b1 >= 1 almost surely, the moment never crosses 1"
        )

    require_stationary_garch(spec)

    def f(alpha):
        return garch_moment(spec, alpha)[0] - 1.0

    lo = _GARCH_S_MIN
    hi = None
    a = 0.25
    while a <= alpha_max:
        if f(a) > 0.0:
            hi = a
            break
        lo = a
        a *= 2.0
    if hi is None:
        raise ModelError(f"no sign change of the moment equation on (0, {alpha_max}]")
    from scipy import optimize

    root = optimize.brentq(f, lo, hi, xtol=tol, rtol=1e-16 * 16)
    return float(root)


def model_alpha(spec):
    """Tail index of the model's observed series."""
    if isinstance(spec, LinearSpec):
        return spec.innovation.alpha
    if isinstance(spec, GarchSpec):
        return 2.0 * solve_garch_alpha(spec)
    if isinstance(spec, SquaredGarchSpec):
        return solve_garch_alpha(spec.inner)
    raise ModelError(f"unknown model spec {type(spec).__name__}")


def model_positive_weight(spec):
    """Positive-tail weight of the observed series' marginal."""
    if isinstance(spec, LinearSpec):
        alpha = spec.innovation.alpha
        p = spec.innovation.p
        c = np.asarray(spec.coeffs)
        tot = np.sum(np.abs(c) ** alpha)
        pos = np.sum(np.abs(c[c > 0]) ** alpha)
        neg = np.sum(np.abs(c[c < 0]) ** alpha)
        return float((p * pos + (1.0 - p) * neg) / tot)
    # squares and volatilities are nonnegative
    return 1.0


def model_cluster_law(spec):
    if isinstance(spec, LinearSpec):
        return linear_cluster_law(spec)
    raise ModelError("no analytic cluster law for this model (iid or linear only)")


def model_extremal_index(spec):
    if isinstance(spec, LinearSpec):
        return linear_extremal_index(spec)
    raise ModelError("analytic extremal index available for iid and linear models only")


def sample_model(spec, n, seed):
    if isinstance(spec, LinearSpec):
        return sample_linear(spec, n, seed)
    if isinstance(spec, GarchSpec):
        return sample_garch(spec, n, seed)
    if isinstance(spec, SquaredGarchSpec):
        return sample_squared_garch(spec, n, seed)
    raise ModelError(f"unknown model spec {type(spec).__name__}")


def replicate_samples(spec, n, base, count):
    """Lazily ``sample_model(spec, n, derive_seed(base, r)).values``, r < count."""
    for r in range(count):
        yield sample_model(spec, n, derive_seed(base, r)).values


def an_theoretical(spec, n):
    """Norming constant with n P(|X| > a_n) = 1 for the canonical marginals."""
    if isinstance(spec, LinearSpec):
        # tail of the sum is the tail-ratio multiple of the innovation tail
        rv = spec.innovation
        return rv.scale * (linear_tail_ratio(spec) * n) ** (1.0 / rv.alpha)
    raise ModelError("theoretical norming needs an iid or linear spec")
