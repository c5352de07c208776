"""Independent reference computations the benchmark checks m1lab against.

Nothing here calls m1lab: each function is written from the definitions,
so a fault in the program cannot hide behind the same fault in its check.
Paths are passed as plain arrays (times, values, kind) with kind "step"
(right-continuous, constant between breakpoints) or "pl" (linear between
breakpoints); both are constant after the last breakpoint.
"""

import math

import numpy as np


def _right_values(times, values, kind, ts):
    """Path values at ts (right limits)."""
    if kind == "pl":
        return np.interp(ts, times, values)
    idx = np.searchsorted(times, ts, side="right") - 1
    return values[idx]


def _left_values(times, values, kind, ts):
    """Left limits at ts > 0."""
    if kind == "pl":
        return np.interp(ts, times, values)
    idx = np.maximum(np.searchsorted(times, ts, side="left") - 1, 0)
    return values[idx]


def uniform_distance(x, y):
    """Sup-norm distance of two scalar paths on the merged breakpoint grid.

    Between merged breakpoints both paths are affine, so the supremum is
    attained at a grid point, either as a value or as a left limit.
    """
    (xt, xv, xk), (yt, yv, yk) = x, y
    ts = np.union1d(np.union1d(xt, yt), [1.0])
    gap = np.abs(_right_values(xt, xv, xk, ts) - _right_values(yt, yv, yk, ts)).max()
    inner = ts[ts > 0.0]
    lgap = np.abs(_left_values(xt, xv, xk, inner) - _left_values(yt, yv, yk, inner)).max()
    return float(max(gap, lgap))


def graph_vertices(times, values, kind):
    """Vertices of the completed graph: jumps of a step path become vertical
    segments, and the polyline is extended to t = 1."""
    gt, gv = [times[0]], [values[0]]
    for i in range(1, len(times)):
        if kind == "step":
            gt.append(times[i])
            gv.append(values[i - 1])
        gt.append(times[i])
        gv.append(values[i])
    gt.append(1.0)
    gv.append(values[-1])
    keep = [0] + [
        i for i in range(1, len(gt)) if gt[i] != gt[i - 1] or gv[i] != gv[i - 1]
    ]
    return np.asarray(gt)[keep], np.asarray(gv)[keep]


def monotone_m1(x, y):
    """Strong M1 distance of nondecreasing scalar paths, in closed form.

    Both completed graphs are nondecreasing in t and v, so tau = t + v is a
    strictly increasing parameter along each of them.  Matching points with
    equal tau (clamped to each graph's tau range) is an optimal pair of
    parametric representations; both coordinates are affine in tau between
    vertices, so the sup-norm gap peaks on the merged tau grid.
    """
    pt, pv = graph_vertices(*x)
    qt, qv = graph_vertices(*y)
    tp, tq = pt + pv, qt + qv
    grid = np.union1d(tp, tq)
    a = np.clip(grid, tp[0], tp[-1])
    b = np.clip(grid, tq[0], tq[-1])
    dt = np.abs(np.interp(a, tp, pt) - np.interp(b, tq, qt))
    dv = np.abs(np.interp(a, tp, pv) - np.interp(b, tq, qv))
    return float(np.maximum(dt, dv).max())


def endpoint_gap(x, y):
    """Value gap at t = 0 and t = 1; every parametric matching pays it."""
    return float(max(abs(x[1][0] - y[1][0]), abs(x[1][-1] - y[1][-1])))


def karamata_limits(alpha, u):
    """Limits of the truncated first and second moments n E[(|X|/a_n)^k; |X| <= u a_n]."""
    return (
        u ** (1.0 - alpha) * alpha / (1.0 - alpha),
        u ** (2.0 - alpha) * alpha / (2.0 - alpha),
    )


def slutsky_bound(alpha, u, eps):
    """Markov bound on the truncation gap: alpha u^(1-alpha) (1/(1-alpha) + u/(2-alpha)) / eps."""
    return alpha * u ** (1.0 - alpha) * (1.0 / (1.0 - alpha) + u / (2.0 - alpha)) / eps


def linear_extremal_index(coeffs, alpha):
    """Extremal index of a moving average with nonnegative coefficients:
    max_j c_j^alpha / sum_j c_j^alpha."""
    powers = [abs(c) ** alpha for c in coeffs]
    return max(powers) / math.fsum(powers)
