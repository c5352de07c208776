"""Cadlag paths on [0,1] and the uniform, J1, strong-M1 and weak-M1 metrics.

Paths have finitely many breakpoints and are either right-continuous step
functions or continuous piecewise-linear interpolants.  The strong M1
distance between two scalar paths equals the continuous Frechet distance
between their completed graphs under the max(time, value) ground metric:
a pair of strong parametric representations with a common parameter is
exactly a pair of monotone traversals of the two graphs.  That distance is
computed by bisection over a free-space reachability sweep, which yields a
certified upper endpoint within a resolution-controlled gap of the true
infimum.  Radii well below the graphs' sup and inf gaps, or well above a
known upper end such as the J1 distance, are answered without a sweep.

Paths are immutable after construction and every operation here is a pure
function, safe for concurrent use.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels


class PathError(ValueError):
    """Invalid path construction or operation input."""


class DimensionError(PathError):
    """Coordinate-count mismatch between paths."""


class PreconditionError(PathError):
    """A documented operation precondition was violated."""


STEP = "step"
PL = "pl"


@dataclass(frozen=True)
class CadlagPath:
    """Breakpoint times (strictly increasing, starting at 0) and values.

    ``values`` has shape (k, d) with d in {1, 2}.  ``kind`` selects the
    interpolation rule: "step" holds the last value until the next
    breakpoint, "pl" joins breakpoints by straight lines (hence is
    continuous); both extend constantly after the final breakpoint.
    """

    times: np.ndarray
    values: np.ndarray
    kind: str = STEP

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if t.ndim != 1 or t.size == 0:
            raise PathError("a path needs at least one breakpoint (the value at t=0)")
        if v.shape[0] != t.size:
            raise PathError("times and values must have matching lengths")
        if v.shape[1] not in (1, 2):
            raise DimensionError("paths carry 1 or 2 coordinates")
        if t[0] != 0.0:
            raise PathError("first breakpoint must be t=0")
        if not (t[-1] <= 1.0 and np.all(t >= 0.0)):
            raise PathError("breakpoints must lie in [0,1]")
        if not np.all(np.diff(t) > 0.0):
            raise PathError("breakpoint times must be strictly increasing")
        if not np.all(np.isfinite(v)):
            raise PathError("path values must be finite")
        if self.kind not in (STEP, PL):
            raise PathError(f"unknown path kind {self.kind!r}")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    @property
    def dim(self):
        return self.values.shape[1]

    def coord(self, j):
        """Scalar component path."""
        return CadlagPath(self.times, self.values[:, j], self.kind)


def eval_path(path, t):
    """Right-continuous evaluation; accepts a scalar or an array of times."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t_arr < 0.0) or np.any(t_arr > 1.0):
        raise PathError("evaluation time outside [0,1]")
    idx = np.searchsorted(path.times, t_arr, side="right") - 1
    if path.kind == STEP:
        out = path.values[idx]
    else:
        nxt = np.minimum(idx + 1, len(path.times) - 1)
        t0 = path.times[idx]
        t1 = path.times[nxt]
        span = t1 - t0
        w = np.where(span > 0.0, (t_arr - t0) / np.where(span > 0.0, span, 1.0), 0.0)
        out = path.values[idx] + w[:, None] * (path.values[nxt] - path.values[idx])
    if np.isscalar(t) or np.ndim(t) == 0:
        return out[0]
    return out


def left_limit(path, t):
    """Limit from the left; defined on (0,1]."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t_arr <= 0.0) or np.any(t_arr > 1.0):
        raise PathError("left limits exist on (0,1] only")
    if path.kind == PL:
        out = np.atleast_2d(eval_path(path, t_arr))
    else:
        out = path.values[np.searchsorted(path.times, t_arr, side="left") - 1]
    if np.isscalar(t) or np.ndim(t) == 0:
        return out[0]
    return out


def _merged_times(x, y):
    ts = np.union1d(x.times, y.times)
    if ts[-1] < 1.0:
        ts = np.append(ts, 1.0)
    return ts


def uniform_distance(x, y):
    """Sup-norm distance, exact for step/pl paths via the merged grid.

    Between merged breakpoints both paths are affine, so the supremum of the
    max-norm difference is attained at a breakpoint or a one-sided limit.
    """
    if x.dim != y.dim:
        raise DimensionError("paths must share the coordinate count")
    ts = _merged_times(x, y)
    gaps = np.abs(np.atleast_2d(eval_path(x, ts)) - np.atleast_2d(eval_path(y, ts)))
    best = gaps.max()
    interior = ts[ts > 0.0]
    if interior.size:
        lgaps = np.abs(
            np.atleast_2d(left_limit(x, interior)) - np.atleast_2d(left_limit(y, interior))
        )
        best = max(best, lgaps.max())
    return float(best)


def _jumps(v):
    """Indices i >= 1 with v[i] != v[i - 1]: where a step path jumps."""
    return np.flatnonzero(v[1:] != v[:-1]) + 1


def completed_graph(path):
    """Vertices (t, v) of the completed graph of a scalar path.

    Jumps of step paths become vertical segments from (t_k, v_{k-1}) to
    (t_k, v_k); the polyline always spans t=0 to t=1.
    """
    t = path.times
    v = path.values[:, 0]
    if path.kind == PL:
        gt, gv = t.copy(), v.copy()
    else:
        k = _jumps(v)
        gt = np.concatenate([t[:1], np.repeat(t[k], 2)])
        gv = np.concatenate([v[:1], np.column_stack([v[k - 1], v[k]]).ravel()])
    if gt[-1] < 1.0:
        gt = np.append(gt, 1.0)
        gv = np.append(gv, gv[-1])
    return gt, gv


def _canonical_pair(x, y):
    """Deterministic argument ordering so the metrics are exactly symmetric."""
    kx = (x.kind, x.times.tobytes(), x.values.tobytes())
    ky = (y.kind, y.times.tobytes(), y.values.tobytes())
    return (x, y) if kx <= ky else (y, x)


def _paths_identical(x, y):
    return (
        x.kind == y.kind
        and x.times.shape == y.times.shape
        and np.array_equal(x.times, y.times)
        and np.array_equal(x.values, y.values)
    )


@dataclass(frozen=True)
class M1Result:
    """Bisection output: certified bracket around the true distance."""

    value: float
    lower: float
    upper: float
    uniform_bound: float
    tol: float


def _bisect_metric(x, y, resolution, feasible):
    """Bisect the distance of scalar paths x, y to a bracket of width at
    most max(uniform, 1e-12) / resolution.

    The bracket starts at [lo, hi]: hi is the uniform distance and lo the
    larger gap of the start and end values, which every alignment must
    match.  M1 <= J1 <= uniform, so hi is an upper end by theorem and is not
    asked of ``feasible``: at exactly that radius the decision can round to
    False by one ulp.
    """
    hi = uniform_distance(x, y)
    vx, vy = x.values[:, 0], y.values[:, 0]
    lo = max(abs(vx[0] - vy[0]), abs(vx[-1] - vy[-1]))
    tol = max(hi, 1e-12) / float(resolution)
    if hi <= lo + tol:
        return M1Result(hi, lo, hi, hi, tol)
    hi0 = hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return M1Result(hi, lo, hi, hi0, tol)


def _settled_bracket(pv, qv, upper):
    """(false_below, true_above) for the strong-M1 decision between the
    completed graphs with values pv and qv: radii below the first are
    infeasible and radii above the second feasible, without a sweep.

    The values of a completed graph span its path's [inf, sup], so every
    alignment pays max(|sup x - sup y|, |inf x - inf y|); ``upper`` is a
    certified upper end of M1.  Both bounds move outward by 1e-9 times the
    largest magnitude the kernel computes with (the unit time span and the
    values of both graphs).  Its window expressions round by a few ulps of
    that magnitude, so a settled answer is the one the kernel would give
    (``notes/decisions.md``, "Bisection: certified bounds settle
    decisions").
    """
    p_sup, p_inf = float(pv.max()), float(pv.min())
    q_sup, q_inf = float(qv.max()), float(qv.min())
    slack = 1e-9 * max(1.0, p_sup, -p_inf, q_sup, -q_inf)
    gap = max(abs(p_sup - q_sup), abs(p_inf - q_inf))
    return gap - slack, upper + slack


def m1_distance_detailed(x, y, resolution=4096, upper=np.inf):
    """Strong M1 distance of scalar paths with its certified bracket.

    ``upper`` is a certified upper end of the distance, such as
    :func:`j1_distance` of the same step paths (M1 <= J1).  It and the
    graphs' sup and inf gaps settle bisection radii well outside them
    without a kernel call; they change no midpoint and no returned bit.
    """
    if x.dim != 1 or y.dim != 1:
        raise DimensionError(
            "strong M1 is per-coordinate; use weak_m1_distance for multivariate paths"
        )
    n_feat = len(x.times) + len(y.times)
    if resolution < 2 * n_feat:
        raise PathError(
            f"resolution {resolution} too small; need >= {2 * n_feat} for these paths"
        )
    if _paths_identical(x, y):
        return M1Result(0.0, 0.0, 0.0, 0.0, 0.0)
    x, y = _canonical_pair(x, y)
    pt, pv = completed_graph(x)
    qt, qv = completed_graph(y)
    false_below, true_above = _settled_bracket(pv, qv, upper)

    def feasible(d):
        if d < false_below:
            return False
        if d > true_above:
            return True
        return bool(kernels.frechet_feasible(pt, pv, qt, qv, d))

    return _bisect_metric(x, y, resolution, feasible)


def m1_distance(x, y, resolution=4096):
    """Strong M1 distance (certified upper endpoint, <= uniform distance)."""
    return m1_distance_detailed(x, y, resolution).value


def weak_m1_distance(x, y, resolution=4096):
    """Product metric: max of per-coordinate strong M1 distances."""
    if x.dim != y.dim:
        raise DimensionError("paths must share the coordinate count")
    return max(
        m1_distance(x.coord(j), y.coord(j), resolution) for j in range(x.dim)
    )


def _jump_sequence(path):
    """Jump times of a scalar step path, and its levels: the start value,
    then the value after each jump."""
    t = path.times
    v = path.values[:, 0]
    k = _jumps(v)
    return t[k], np.concatenate([v[:1], v[k]])


def j1_distance(x, y, resolution=4096):
    """J1 distance between scalar step paths via jump alignment.

    Jumps must match in location (within the time distortion) and magnitude;
    unmatched jumps pay the full level gap against the other path.  Ties in
    the alignment are broken toward the earliest admissible placement.
    """
    if x.kind != STEP or y.kind != STEP:
        raise PreconditionError(
            "j1_distance handles step paths; refine piecewise-linear paths first "
            "(see step_refine)"
        )
    if x.dim != 1 or y.dim != 1:
        raise DimensionError("j1_distance is defined per coordinate")
    if resolution < 1:
        raise PathError(f"resolution {resolution} too small; need >= 1")
    if _paths_identical(x, y):
        return 0.0
    x, y = _canonical_pair(x, y)
    tx, levx = _jump_sequence(x)
    sy, levy = _jump_sequence(y)

    def feasible(d):
        return bool(kernels.j1_feasible(tx, sy, levx, levy, d))

    return _bisect_metric(x, y, resolution, feasible).value


def step_refine(path, per_segment=512):
    """Step approximation on a breakpoint-aware grid.

    Each interval between consecutive breakpoints (and the trailing stretch
    to t=1) is subdivided ``per_segment`` times, so a linear ramp becomes
    jumps of size (ramp height) / per_segment regardless of its width.
    """
    knots = path.times
    if knots[-1] < 1.0:
        knots = np.append(knots, 1.0)
    pieces = [
        np.linspace(knots[i], knots[i + 1], per_segment + 1)
        for i in range(knots.size - 1)
    ]
    ts = np.unique(np.concatenate(pieces))
    vals = np.atleast_2d(eval_path(path, ts))
    return CadlagPath(ts, vals, STEP)


def is_monotone_nondecreasing(path):
    return bool(np.all(np.diff(path.values, axis=0) >= 0.0))


def monotone_m1_distance(x, y):
    """Exact M1 distance between nondecreasing scalar paths.

    Both completed graphs are nondecreasing in time and value, so they are
    graphs over the diagonal level tau = t + v.  Matching equal-tau points
    (clamped at the ends) is an optimal monotone alignment: matched points
    differ along the antidiagonal, and any other monotone matching must
    cross every tau level at no smaller max-norm gap.  The sup over tau is
    attained on the merged vertex grid because both coordinates are
    piecewise linear in tau.
    """
    if x.dim != 1 or y.dim != 1:
        raise DimensionError("monotone M1 is defined for scalar paths")
    if not is_monotone_nondecreasing(x) or not is_monotone_nondecreasing(y):
        raise PreconditionError("monotone_m1_distance requires nondecreasing paths")
    pt, pv = completed_graph(x)
    qt, qv = completed_graph(y)
    tau_p = pt + pv
    tau_q = qt + qv
    grid = np.union1d(tau_p, tau_q)
    gp = np.clip(grid, tau_p[0], tau_p[-1])
    gq = np.clip(grid, tau_q[0], tau_q[-1])
    xp_t = np.interp(gp, tau_p, pt)
    xp_v = np.interp(gp, tau_p, pv)
    yq_t = np.interp(gq, tau_q, qt)
    yq_v = np.interp(gq, tau_q, qv)
    return float(np.maximum(np.abs(xp_t - yq_t), np.abs(xp_v - yq_v)).max())


def save_path_csv(path, fileobj_or_name):
    """Serialize as ``# kind=... d=...`` header plus ``t,v1[,v2]`` rows."""
    own = isinstance(fileobj_or_name, (str, bytes))
    f = open(fileobj_or_name, "w") if own else fileobj_or_name
    try:
        f.write(f"# kind={path.kind} d={path.dim}\n")
        for i in range(path.times.size):
            row = [format(path.times[i], ".17g")]
            row += [format(v, ".17g") for v in path.values[i]]
            f.write(",".join(row) + "\n")
    finally:
        if own:
            f.close()


def load_path_csv(fileobj_or_name):
    own = isinstance(fileobj_or_name, (str, bytes))
    f = open(fileobj_or_name, "r") if own else fileobj_or_name
    try:
        header = f.readline().strip()
        if not header.startswith("#"):
            raise PathError("missing header line '# kind=... d=...' (row 1)")
        fields = dict(
            tok.split("=", 1) for tok in header.lstrip("#").split() if "=" in tok
        )
        kind = fields.get("kind", STEP)
        try:
            dim = int(fields.get("d", "1"))
        except ValueError:
            raise PathError(f"header: d={fields['d']!r} is not an integer (row 1)") from None
        times = []
        vals = []
        for rownum, line in enumerate(f, start=2):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 1 + dim:
                raise PathError(f"row {rownum}: expected {1 + dim} columns, got {len(parts)}")
            try:
                nums = [float(p) for p in parts]
            except ValueError as exc:
                raise PathError(f"row {rownum}: {exc}") from None
            times.append(nums[0])
            vals.append(nums[1:])
        return CadlagPath(np.asarray(times), np.asarray(vals), kind)
    finally:
        if own:
            f.close()

