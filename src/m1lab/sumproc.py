"""Partial-sum path functionals of a sample: the partial sums S_k and Q_k
of X/a_n and its square (formed only in :func:`partial_sums`), their joint
step-path pair, its truncated-mean centering constants, the self-normalized
values S_{floor(nt)} / V_n with V_n = sqrt(sum X_k^2), and block-collapsed
paths.

The self-normalized values are exactly scale invariant: in real arithmetic
S/V does not see a positive rescaling of the data, and in floating point
the invariance is bitwise for power-of-two factors (multiplication by 2^k
commutes with rounding through sums, squares, sqrt and the final division).
Negating the data negates the values bitwise for the same reason.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .models import LinearSpec, model_alpha, sample_model
from .paths import STEP, CadlagPath


class SumProcessError(ValueError):
    pass


CENTERING_MC_SIZE = 10**6


@dataclass(frozen=True)
class CenteringConstants:
    """Truncated-mean centerings b1n, b2n and their Monte Carlo errors."""

    b1n: float
    b2n: float
    se_b1n: float = 0.0
    se_b2n: float = 0.0


@dataclass(frozen=True)
class JointPathPair:
    """Step-path pair sharing breakpoints: normalized sums and squared sums."""

    l1: CadlagPath
    l2: CadlagPath
    n: int
    a_n: float
    u: float | None = None
    b1n: float = 0.0
    b2n: float = 0.0


def _pareto_truncated_abs_moment(alpha, power, upper):
    """E[|X|^power 1{|X| <= upper}] for the unit Pareto (support [1, inf))."""
    if upper <= 1.0:
        return 0.0
    expo = power - alpha
    if expo == 0.0:
        return alpha * np.log(upper)
    return alpha / expo * (upper**expo - 1.0)


@functools.lru_cache(maxsize=1)
def _centering_sample(spec):
    """The read-only ``CENTERING_MC_SIZE`` draws at seed 0 behind a Monte
    Carlo centering, drawn once per model and shared by every a_n."""
    sample = sample_model(spec, CENTERING_MC_SIZE, 0).values
    sample.flags.writeable = False
    return sample


def centering_constants(spec, a_n):
    """b1n = E[(X/a_n) 1{|X|/a_n <= 1}], b2n = E[(X^2/a_n^2) 1{X^2/a_n^2 <= 1}].

    Zero in the alpha < 1 regime.  An order-0 moving average X = c Z, with
    c = coeffs[0] * scale and Z the unit Pareto, takes closed-form Pareto
    integrals at the level a_n/|c|; every other model a Monte Carlo estimate
    over ``CENTERING_MC_SIZE`` draws at seed 0 (one sample per model, kept
    for the next call), with its standard errors.
    """
    alpha = model_alpha(spec)
    if alpha < 1.0:
        return CenteringConstants(0.0, 0.0)
    if isinstance(spec, LinearSpec) and spec.order == 0:
        rv = spec.innovation
        c = spec.coeffs[0] * rv.scale
        m1 = _pareto_truncated_abs_moment(alpha, 1.0, a_n / abs(c))
        m2 = _pareto_truncated_abs_moment(alpha, 2.0, a_n / abs(c))
        b1n = c * (rv.p - rv.q) * m1 / a_n
        b2n = c * c * m2 / (a_n * a_n)
        return CenteringConstants(b1n, b2n)
    y = _centering_sample(spec) / a_n
    t1 = np.where(np.abs(y) <= 1.0, y, 0.0)
    y2 = y * y
    t2 = np.where(y2 <= 1.0, y2, 0.0)
    b1n = float(t1.mean())
    b2n = float(t2.mean())
    se1 = float(t1.std(ddof=1) / np.sqrt(CENTERING_MC_SIZE))
    se2 = float(t2.std(ddof=1) / np.sqrt(CENTERING_MC_SIZE))
    return CenteringConstants(b1n, b2n, se1, se2)


def partial_sums(data, a_n):
    """S_k and Q_k, k = 0..n: the partial sums of X/a_n and of its square,
    each with a leading 0.  The one place the sums are formed."""
    y = np.asarray(data, dtype=float) / a_n
    s = np.concatenate([[0.0], np.cumsum(y)])
    return s, np.concatenate([[0.0], np.cumsum(np.square(y, out=y))])


def build_Ln(data, a_n):
    """Step-path pair on breakpoints k/n: partial sums of X/a_n and X^2/a_n^2."""
    s1, s2 = partial_sums(data, a_n)
    n = s1.size - 1
    if n == 0:
        raise SumProcessError("need a nonempty sample")
    times = np.arange(n + 1) / n
    return JointPathPair(
        l1=CadlagPath(times, s1, STEP),
        l2=CadlagPath(times, s2, STEP),
        n=n,
        a_n=a_n,
    )


def grid_index(n, t_grid):
    """Indices floor(n t) of the grid times, capped at n."""
    return np.minimum(np.floor(n * np.asarray(t_grid, dtype=float)).astype(int), n)


def self_normalized_at(data, t_grid):
    """Values S_{floor(nt)} / V_n on ``t_grid``, or at every t = k/n when it
    is None; V_n^2 is the last Q of :func:`partial_sums`."""
    s, q = partial_sums(data, 1.0)
    v2 = float(q[-1])
    if v2 == 0.0:
        raise SumProcessError("self-normalization undefined: all observations are zero")
    if t_grid is not None:
        s = s[grid_index(s.size - 1, t_grid)]
    return s / np.sqrt(v2)


def collapse_clusters(path, scheme):
    """Block-endpoint subsampling t -> value at r_n * floor(k_n t) / n.

    The collapsed path merges within-block jump successions into single
    jumps (the smoothed trajectory whose convergence holds in the stronger
    jump-matching topology).
    """
    n = path.times.size - 1
    if scheme.r_n > n:
        raise SumProcessError("block length exceeds the path resolution")
    k_n = n // scheme.r_n
    if scheme.r_n == 1:
        return path
    idx = np.arange(k_n + 1) * scheme.r_n
    times = np.arange(k_n + 1) / k_n
    return CadlagPath(times, path.values[idx], path.kind)


def save_joint_csv(pair, fileobj_or_name):
    """`t,l1,l2` rows under a metadata comment header."""
    own = isinstance(fileobj_or_name, (str, bytes))
    f = open(fileobj_or_name, "w") if own else fileobj_or_name
    try:
        u_txt = "none" if pair.u is None else format(pair.u, ".17g")
        f.write(
            f"# n={pair.n} an={format(pair.a_n, '.17g')} u={u_txt} "
            f"b1n={format(pair.b1n, '.17g')} b2n={format(pair.b2n, '.17g')}\n"
        )
        f.write("t,l1,l2\n")
        for i in range(pair.l1.times.size):
            f.write(
                ",".join(
                    (
                        format(pair.l1.times[i], ".17g"),
                        format(pair.l1.values[i, 0], ".17g"),
                        format(pair.l2.values[i, 0], ".17g"),
                    )
                )
                + "\n"
            )
    finally:
        if own:
            f.close()
