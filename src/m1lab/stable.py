"""Stable Levy limits of the partial-sum pair: characteristic constants from
cluster laws, the stable parameters (c, beta, tau) of the limit law in
closed form, exact stable variates, and series simulation from Poisson
points.  The quadrature of the jump-measure exponent, the independent
route that checks the closed form, is a test oracle
(``tests/stable_oracle.py``).

The limit pair is driven by a Poisson process on [0,1] x (0,inf) with
intensity Leb x nu, nu(dy) = theta * alpha * y^{-alpha-1} dy.  Each point
carries an i.i.d. cluster of normalized marks; the first coordinate sums
point * mark, the second sums the squares.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .models import seeded_rng
from .paths import STEP, CadlagPath
from .sumproc import JointPathPair


# the fewest Poisson points a series may keep; the config checks run.n_pts
# against it too
MIN_SERIES_POINTS = 1000

# the largest sd of the truncated remainder at alpha >= 1 a series may leave
TAIL_SD_TOL = 0.75

# extra breakpoints of a one-path draw on which the drift is sampled
DRIFT_GRID = 256

# draws per block of a series: each block's arrays are built, used and
# dropped before the next, so a batch's peak memory is one block's
SERIES_BLOCK = 128


class StableError(ValueError):
    pass


@dataclass(frozen=True)
class CharTriple:
    """Parameters of the limit pair's jump measures and drifts.

    First coordinate: index alpha, jump measure
    theta*alpha*(c_plus on x>0, c_minus on x<0)*|x|^{-alpha-1} dx, drift
    gamma1.  Second coordinate: index alpha/2, one-sided constant r2 =
    E(sum eta_j^2)^{alpha/2}, drift gamma2.  p and q are the positive- and
    negative-tail weights of the underlying marginal; they satisfy
    p - q = theta * E[sum_j sign(eta_j) |eta_j|^alpha].
    """

    alpha: float
    theta: float
    c_plus: float
    c_minus: float
    gamma1: float
    r2: float
    gamma2: float
    p: float = 1.0
    q: float = 0.0
    gamma1_flagged: bool = False

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise StableError("alpha must lie in (0,2)")
        if not 0.0 < self.theta <= 1.0:
            raise StableError("theta must lie in (0,1]")
        if self.c_plus < 0.0 or self.c_minus < 0.0:
            raise StableError("c_plus and c_minus must be nonnegative")
        if self.r2 < 0.0:
            raise StableError("r2 must be nonnegative")

    @property
    def regime(self):
        return "(0,1)" if self.alpha < 1.0 else "[1,2)"

    def l2_triple(self):
        """The second coordinate viewed as its own one-sided triple."""
        return CharTriple(
            alpha=self.alpha / 2.0,
            theta=self.theta,
            c_plus=self.r2,
            c_minus=0.0,
            gamma1=self.gamma2,
            r2=float("nan"),
            gamma2=float("nan"),
            p=1.0,
            q=0.0,
        )


@dataclass(frozen=True)
class StableParams:
    """(c, beta, tau) of exp{i tau z - c|z|^alpha (1 - i beta sgn(z) w(z))}
    with w(z) = tan(pi alpha / 2) for alpha != 1 and -(2/pi) log|z| for
    alpha = 1."""

    alpha: float
    c: float
    beta: float
    tau: float

    def __post_init__(self):
        if self.c <= 0.0:
            raise StableError("scale c must be positive")
        if not -1.0 <= self.beta <= 1.0:
            raise StableError("symmetry beta must lie in [-1,1]")


def _compensator_integral(triple):
    """integral of x over |x| <= 1 against the first coordinate's jump
    measure; finite only for alpha < 1 but used with its signed continuation
    for alpha > 1 where it equals -integral over |x| > 1."""
    a = triple.alpha
    return triple.theta * a * (triple.c_plus - triple.c_minus) / (1.0 - a)


def gamma1_for(alpha, theta, c_plus, c_minus, p, q):
    """Drift of the first limit coordinate.

    alpha < 1: the strictly-stable drift theta*alpha*(c+ - c-)/(1-alpha).
    alpha > 1: alpha/(alpha-1) * (p - q - theta*(c+ - c-)), the value that
    makes the truncated-mean-centered sums and the mark-compensated series
    agree (both have mean (p-q)*alpha/(alpha-1) at t=1).
    alpha = 1: 0; the mark-level compensator cancels the cluster-level one
    exactly because p - q = theta*E[sum eta] = theta*(c+ - c-) at alpha=1.
    """
    if alpha < 1.0:
        return theta * alpha * (c_plus - c_minus) / (1.0 - alpha)
    if alpha == 1.0:
        return 0.0
    return alpha / (alpha - 1.0) * (p - q - theta * (c_plus - c_minus))


def gamma2_for(alpha, theta, r2):
    """Drift of the squared coordinate (index alpha/2 < 1 always).

    Uncentered regime (alpha < 1): the strictly-stable drift
    theta*alpha*r2/(2-alpha).  Centered regime (alpha >= 1): the truncated
    second moment alpha/(2-alpha) is subtracted, shifting the drift to
    alpha/(2-alpha) * (theta*r2 - 1).
    """
    base = theta * alpha * r2 / (2.0 - alpha)
    if alpha < 1.0:
        return base
    return base - alpha / (2.0 - alpha)


def triple_from_cluster(alpha, theta, cluster, p=None):
    """Characteristic constants from a cluster mark law.

    c_plus = E[(sum eta)^alpha; sum > 0], c_minus the mirror image, r2 =
    E(sum eta^2)^{alpha/2}, evaluated exactly on the deterministic shape.
    When p is omitted it is recovered from the marginal-consistency identity
    p - q = theta * E[sum_j sign(eta_j)|eta_j|^alpha]; q = 1 - p.
    """
    c_plus, c_minus, r2, _mean_sum, _mean_sq, signed = cluster.exact_sum_moments(alpha)
    if p is None:
        diff = theta * signed
        p = (1.0 + diff) / 2.0
        q = (1.0 - diff) / 2.0
    else:
        q = 1.0 - p
    flagged = alpha == 1.0
    g1 = gamma1_for(alpha, theta, c_plus, c_minus, p, q)
    g2 = gamma2_for(alpha, theta, r2)
    return CharTriple(
        alpha=alpha,
        theta=theta,
        c_plus=c_plus,
        c_minus=c_minus,
        gamma1=g1,
        r2=r2,
        gamma2=g2,
        p=p,
        q=q,
        gamma1_flagged=flagged,
    )


def stable_params(triple):
    """(c, beta, tau) matching the Levy-Khintchine exponent of the triple.

    For alpha != 1 the jump integral evaluates in closed form:
    integral over x>0 of (e^{izx}-1[-izx]) alpha x^{-alpha-1} dx =
    -Gamma(1-alpha) |z|^alpha exp(-i pi alpha sgn(z)/2), so

        c    = theta (c+ + c-) Gamma(1-alpha) cos(pi alpha / 2)
        beta = (c+ - c-) / (c+ + c-)
        tau  = gamma1 - theta alpha (c+ - c-) / (1 - alpha)

    (the tau formula covers both regimes: for alpha < 1 it removes the
    small-jump compensator, for alpha > 1 it adds the large-jump tail mean).
    For alpha = 1 the same integral over x>0, compensated on x <= 1, is
    -(pi/2)|z| - i z log|z| + i z (1 - gamma_E), so

        c    = theta (c+ + c-) pi / 2
        tau  = gamma1 + theta (c+ - c-) (1 - gamma_E)

    with gamma_E Euler's constant.  ``tests/stable_oracle.py`` evaluates
    the same exponent by quadrature, an independent route the tests compare.
    """
    cp, cm = triple.c_plus, triple.c_minus
    tot = cp + cm
    if tot <= 0.0:
        raise StableError("degenerate law: c_plus + c_minus = 0")
    a = triple.alpha
    beta = (cp - cm) / tot
    if a == 1.0:
        c = triple.theta * tot * math.pi / 2.0
        tau = triple.gamma1 + triple.theta * (cp - cm) * (1.0 - np.euler_gamma)
    else:
        c = triple.theta * tot * math.gamma(1.0 - a) * math.cos(math.pi * a / 2.0)
        tau = triple.gamma1 - _compensator_integral(triple)
    return StableParams(alpha=a, c=c, beta=beta, tau=tau)


def cms_sampler(params, m, seed):
    """Stable variates by the trigonometric transform of (uniform, exponential).

    Draws V uniform on (-pi/2, pi/2) and W exponential, maps them through
    the standard one/two-branch recipe, then rescales to (c, beta, tau).
    Serves as the oracle route independent of the Poisson series.
    """
    rng = seeded_rng(seed)
    a, beta, c, tau = params.alpha, params.beta, params.c, params.tau
    v = (rng.random(m) - 0.5) * math.pi
    w = rng.exponential(size=m)
    if a == 1.0:
        half = math.pi / 2.0
        x = (1.0 / half) * (
            (half + beta * v) * np.tan(v)
            - beta * np.log((half * w * np.cos(v)) / (half + beta * v))
        )
        return c * x + (2.0 / math.pi) * beta * c * math.log(c) + tau
    t = beta * math.tan(math.pi * a / 2.0)
    b = math.atan(t) / a
    s = (1.0 + t * t) ** (1.0 / (2.0 * a))
    x = (
        s
        * np.sin(a * (v + b))
        / np.cos(v) ** (1.0 / a)
        * (np.cos(v - a * (v + b)) / w) ** ((1.0 - a) / a)
    )
    return c ** (1.0 / a) * x + tau


class _Series(NamedTuple):
    """Truncated LePage series of the limit pair for a batch or block of draws.

    ``times``, ``jump1`` and ``jump2`` have shape batch + (n_pts,); ``u``
    (the truncation level), ``drift1`` and ``drift2`` (the drift rates
    subtracted per unit time) have shape ``batch``.
    """

    times: np.ndarray
    jump1: np.ndarray
    jump2: np.ndarray
    u: np.ndarray
    drift1: np.ndarray
    drift2: np.ndarray


def _points(rng, theta, alpha, out):
    """Fill the rows of ``out`` with the next rows of Poisson points, each
    decreasing, and return it.

    The mean measure of nu(dy) = theta*alpha*y^{-alpha-1} dy on (y, inf) is
    theta * y^{-alpha}; pushing unit-rate Poisson arrivals Gamma_i through
    its inverse y = (Gamma_i / theta)^{-1/alpha} therefore yields exactly
    the points of the driving process, in decreasing order.
    """
    rng.standard_exponential(out=out)
    np.cumsum(out, axis=-1, out=out)
    np.divide(out, theta, out=out)
    return np.power(out, -1.0 / alpha, out=out)


def _uniforms_at(rng, state, skip, out):
    """Fill ``out`` with uniforms read ``skip`` outputs after ``state``; a
    double takes exactly one PCG64 output."""
    rng.bit_generator.state = state
    rng.bit_generator.advance(skip)
    return rng.random(out=out)


def _series_blocks(triple, cluster, n_draws, n_pts, seed):
    """The series of ``n_draws`` draws, ``SERIES_BLOCK`` rows at a time:
    yields ``(lo, series)`` for the rows lo, lo + 1, ... of each block.

    Every block holds the bits of the one batch that reads the stream in
    the order Poisson gaps, jump times, then one cluster sign per point.
    The exponential gaps take a variable number of stream outputs each, so
    a first pass draws them block by block, keeping only each row's
    truncation level and the generator state at each block start; the
    remainder-sd guard then sees every level before any block is built.  A
    block replays its gaps from its saved state and reads its times and
    signs at their offsets after the last gap.  Every later step is per row.
    A block's points (squared into ``jump2``) and times live in buffers that
    the next block overwrites.

    A cluster is sign * eta with the fixed shape eta = ``cluster.shape``, so
    a point's jumps are pts * sign * sum(eta) and pts^2 * sum(eta^2); at
    alpha >= 1 only the marks with pts * |eta_j| above the truncation level
    enter the first.  The points are squared in place once nothing else
    reads them.
    """
    if n_pts < MIN_SERIES_POINTS:
        raise StableError(f"n_pts >= {MIN_SERIES_POINTS} required")
    a = triple.alpha
    theta = triple.theta
    eta = cluster.shape
    rng = seeded_rng(seed)
    starts = range(0, n_draws, SERIES_BLOCK)
    # a block's points and uniforms, refilled by every block of both passes
    work = np.empty((2, min(SERIES_BLOCK, n_draws), n_pts))
    states = []
    u = np.empty(n_draws)
    for lo in starts:
        states.append(rng.bit_generator.state)
        rows = min(SERIES_BLOCK, n_draws - lo)
        u[lo : lo + rows] = _points(rng, theta, a, work[0, :rows])[:, -1]
    after_gaps = rng.bit_generator.state
    _cp, _cm, _r2, mean_sum, mean_sq, _sgn = cluster.exact_sum_moments(a)

    if a >= 1.0:
        var = theta * a * (triple.c_plus + triple.c_minus) * u ** (2.0 - a) / (2.0 - a)
        sd = np.sqrt(var).max()
        if sd > TAIL_SD_TOL:
            raise StableError(
                f"series tail too heavy (remainder sd {sd:.3f} > {TAIL_SD_TOL}); "
                "increase n_pts"
            )
        drift1 = _mark_drift_rate(triple, u)
    else:
        drift1 = -theta * a / (1.0 - a) * u ** (1.0 - a) * mean_sum
    drift2 = -theta * a / (2.0 - a) * u ** (2.0 - a) * mean_sq

    for lo, state in zip(starts, states):
        rows = min(SERIES_BLOCK, n_draws - lo)
        at = slice(lo, lo + rows)
        rng.bit_generator.state = state
        pts = _points(rng, theta, a, work[0, :rows])
        # the sign uniforms first: the times then take their buffer
        signs = _uniforms_at(rng, after_gaps, (n_draws + lo) * n_pts, work[1, :rows])
        signs = 1.0 - 2.0 * (signs >= cluster.p)
        times = _uniforms_at(rng, after_gaps, lo * n_pts, work[1, :rows])
        if a >= 1.0:
            keep = pts[..., None] * np.abs(eta) > u[at, None, None]
            jump1 = pts * (signs * (eta * keep).sum(axis=-1))
        else:
            jump1 = pts * (signs * eta.sum())
        jump2 = np.square(pts, out=pts)
        jump2 *= mean_sq
        yield lo, _Series(times, jump1, jump2, u[at], drift1[at], drift2[at])


def _mark_drift_rate(triple, u):
    """Rate of the mark-level compensator t * int_{u<|x|<=1} x mu(dx) at u;
    mu carries the marginal weights (p, q)."""
    a = triple.alpha
    diff = triple.p - triple.q
    uu = np.minimum(u, 1.0)
    if a == 1.0:
        return diff * np.log(1.0 / uu)
    return diff * a * (uu ** (1.0 - a) - 1.0) / (a - 1.0)


def levy_marginal_draws(triple, cluster, t_grid, n_draws, n_pts=2000, seed=0):
    """Joint draws of (L1(t), L2(t)) on a time grid, plus L2(1).

    L2 is always the plain sum of squared jumps (its index alpha/2 is below
    1, so it needs no centering); for alpha >= 1 the first coordinate keeps
    marks above the running truncation level u = smallest generated point
    and subtracts the mark-level compensator, matching the centered sums.
    The truncated remainder is mean zero with variance
    t * theta*alpha*(c+ + c-) u^{2-alpha} / (2-alpha); its square root must
    stay below ``TAIL_SD_TOL``.  The expected contribution of the points
    below u is added back as a deterministic drift: to L1 for alpha < 1, to
    L2 at every alpha.  The rows are filled one block of the series at a
    time.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    l1 = np.empty((n_draws, t_grid.size))
    l2 = np.empty((n_draws, t_grid.size))
    l2_total = np.empty(n_draws)
    for lo, (times, jump1, jump2, _u, drift1, drift2) in _series_blocks(
        triple, cluster, n_draws, n_pts, seed
    ):
        rows = np.arange(times.shape[0])
        at = slice(lo, lo + rows.size)
        # one flat gather per coordinate: row r's sorted jumps sit at flat
        # offsets r * n_pts + order[r]
        order = np.argsort(times, axis=1)
        order += rows[:, None] * n_pts
        c1 = np.take(jump1, order)
        c2 = np.take(jump2, order)
        np.cumsum(c1, axis=1, out=c1)
        np.cumsum(c2, axis=1, out=c2)
        for j, t in enumerate(t_grid):
            # a row's times are the same multiset sorted or not
            counts = np.count_nonzero(times <= t, axis=1)
            has = counts > 0
            l1[at, j] = np.where(has, c1[rows, np.maximum(counts - 1, 0)], 0.0)
            l2[at, j] = np.where(has, c2[rows, np.maximum(counts - 1, 0)], 0.0)
            l1[at, j] -= t * drift1
            l2[at, j] -= t * drift2
        l2_total[at] = c2[:, -1] - drift2
    return {"t_grid": t_grid, "l1": l1, "l2": l2, "l2_total": l2_total}


def simulate_levy_pair(triple, cluster, n_pts=2000, seed=0):
    """One path draw of the limit pair as step paths on [0,1].

    Jump times are shared between coordinates (the same Poisson points).
    Continuous drift parts (compensators and small-tail corrections) are
    sampled on ``DRIFT_GRID`` extra breakpoints.  The second coordinate is
    emitted uncentered (nondecreasing).  ``meta`` holds the totals at t = 1.
    """
    _lo, s = next(_series_blocks(triple, cluster, 1, n_pts, seed))
    times = s.times[0]
    u = float(s.u[0])
    drift1 = float(s.drift1[0])
    drift2 = float(s.drift2[0])
    # the grid holds t = 0, so every path starts at 0
    all_times = np.union1d(times, np.linspace(0.0, 1.0, DRIFT_GRID + 1))
    order = np.argsort(times)
    ts = times[order]
    cs1 = np.cumsum(s.jump1[0][order])
    cs2 = np.cumsum(s.jump2[0][order])
    idx = np.searchsorted(ts, all_times, side="right")
    v1 = np.where(idx > 0, cs1[np.maximum(idx - 1, 0)], 0.0) - all_times * drift1
    v2 = np.where(idx > 0, cs2[np.maximum(idx - 1, 0)], 0.0) - all_times * drift2
    meta = {"l1_total": float(cs1[-1] - drift1), "l2_total": float(cs2[-1] - drift2)}
    return JointPathPair(
        l1=CadlagPath(all_times, v1, STEP),
        l2=CadlagPath(all_times, v2, STEP),
        n=n_pts,
        a_n=float("nan"),
        u=u,
        b1n=drift1,
        b2n=drift2,
    ), meta

