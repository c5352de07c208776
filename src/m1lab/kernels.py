"""Inner-loop kernels behind the path metrics and the GARCH sampler.

The two metric decision kernels are numpy sweeps: the strong-M1 free-space
sweep runs one column of cells per step and the J1 alignment DP one row of
states per step.  The GARCH recursion is a plain loop.  There is no
compiled route; ``USE_NUMBA`` stays for the records that name the route.
"""

import numpy as np

USE_NUMBA = False

# Absolute slack of the time band of a free-space column.  It only has to
# beat the rounding of ``_free_window`` on times in [0, 1] (about 1e-16), so
# that no cell whose windows come out free can fall outside the band.
BAND_SLACK = 1e-9


def _free_window(a, c0, c1, d):
    """Parameter window s in [0,1] with |a - (c0 + s*(c1-c0))| <= d.

    Elementwise over broadcast arrays; an empty window is (1, -1).
    """
    dc = c1 - c0
    flat = dc == 0.0
    span = np.where(flat, 1.0, dc)
    lo = (a - d - c0) / span
    hi = (a + d - c0) / span
    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    lo = np.maximum(lo, 0.0)
    hi = np.minimum(hi, 1.0)
    near = np.abs(a - c0) <= d
    lo = np.where(flat, np.where(near, 0.0, 1.0), lo)
    hi = np.where(flat, np.where(near, 1.0, -1.0), hi)
    return lo, hi


def _free_point_seg(a, c0, c1, d):
    """Free window of points a against segments c0 -> c1 at radius d.

    Points and segment ends are stacked (time, value) on axis 0, so one
    ``_free_window`` call gives both coordinates' windows; the result is
    their intersection, (1, -1) when the time window is empty.
    """
    lo, hi = _free_window(a, c0, c1, d)
    gone = lo[0] > hi[0]
    return (
        np.where(gone, 1.0, np.maximum(lo[0], lo[1])),
        np.where(gone, -1.0, np.minimum(hi[0], hi[1])),
    )


def _boundary_climb(a, c, d):
    """Reach [0, hi] along a boundary of the diagram, climbing from the origin.

    ``a`` is the corner point and ``c`` the other curve's vertices, both
    stacked (time, value).  Returns the reached mask, a prefix of the
    segments, and the windows' hi.
    """
    lo, hi = _free_point_seg(a, c[:, :-1], c[:, 1:], d)
    free = (lo <= 0.0) & (lo <= hi)
    through = np.logical_and.accumulate(free & (hi >= 1.0))
    reached = free.copy()
    reached[1:] &= through[:-1]
    return reached, hi


def _top_chain(start_alive, has_l, tlo, thi):
    """Which top edges of a column are reachable.

    T_j = (tlo_j, thi_j) where the cell has left reach; otherwise
    [max(tlo_j, T_{j-1}.lo), thi_j] when T_{j-1} is reachable, else empty.
    T_{-1} is the bottom boundary's reach [0, ...], empty unless
    ``start_alive``.  So T_j.lo is a running max over segments that restart
    at every cell with left reach, and a cell dies when that max exceeds
    thi; it stays dead until the next restart.  The max is taken on integer keys seg * m + rank, which order
    exactly like the values within a segment and never mix segments.
    """
    m = tlo.size + 1
    vals = np.empty(m)
    vals[0] = 0.0
    vals[1:] = tlo
    restart = np.empty(m, dtype=bool)
    restart[0] = True
    restart[1:] = has_l
    seg = np.cumsum(restart) - 1
    order = np.argsort(vals, kind="stable")
    rank = np.empty(m, dtype=np.int64)
    rank[order] = np.arange(m)
    base = seg * m
    running = vals[order[np.maximum.accumulate(base + rank) - base]]
    kill = np.empty(m, dtype=bool)
    kill[0] = not start_alive
    kill[1:] = running[1:] > thi
    kills = np.cumsum(kill)
    before = (kills - kill)[restart]
    return (kills == before[seg])[1:]


def frechet_feasible(pt, pv, qt, qv, d):
    """Monotone-path reachability in the free-space diagram at radius d.

    The curves are polylines (completed graphs); the ground metric is the
    max of time and value gaps, so cell free sets are convex and reach
    propagates through edge intervals (Alt & Godau 1995).  The sweep runs
    column by column over the curve with fewer segments, computes a
    column's edge windows at once, and visits only the rows whose time
    range lies within d (plus ``BAND_SLACK``) of the column's: outside that
    band both edge windows of a cell are empty.  It stops as soon as no
    right edge of a column is reachable and the bottom boundary is spent.
    """
    p = pt.shape[0] - 1
    q = qt.shape[0] - 1
    if abs(pt[0] - qt[0]) > d or abs(pv[0] - qv[0]) > d:
        return False
    if abs(pt[p] - qt[q]) > d or abs(pv[p] - qv[q]) > d:
        return False
    if p > q:
        # the cell rule is symmetric under left <-> bottom and right <-> top
        pt, pv, qt, qv, p, q = qt, qv, pt, pv, q, p

    ps = np.stack([pt, pv])
    qs = np.stack([qt, qv])
    bottom, _ = _boundary_climb(qs[:, :1], ps, d)
    n_bottom = int(bottom.sum())
    left, left_hi = _boundary_climb(ps[:, :1], qs, d)
    # reach on the left edges of the current column
    llo = np.where(left, 0.0, 1.0)
    lhi = np.where(left, left_hi, -1.0)
    # rows [a, b) of each column; never empty, since both graphs run from
    # time 0 to time 1 and the corner checks passed
    first = np.searchsorted(qt[1:], pt[:-1] - (d + BAND_SLACK), side="left")
    stop = np.searchsorted(qt[:-1], pt[1:] + (d + BAND_SLACK), side="right")
    prev_a, prev_b = 0, q
    for i in range(p):
        a, b = int(first[i]), int(stop[i])
        p0, p1 = ps[:, i : i + 1], ps[:, i + 1 : i + 2]
        q0, q1 = qs[:, a:b], qs[:, a + 1 : b + 1]
        rlo, rhi = _free_point_seg(p1, q0, q1, d)
        tlo, thi = _free_point_seg(q1, p0, p1, d)
        cur_llo = llo[a:b]
        has_l = cur_llo <= lhi[a:b]
        start_alive = a == 0 and i < n_bottom
        alive = _top_chain(start_alive, has_l, tlo, thi)
        has_b = np.empty(b - a, dtype=bool)
        has_b[0] = start_alive
        has_b[1:] = alive[:-1]
        nrlo = np.where(has_b, rlo, np.where(has_l, np.maximum(rlo, cur_llo), 1.0))
        nrhi = np.where(has_b | has_l, rhi, -1.0)
        if i == p - 1:
            right_ok = b == q and nrlo[-1] <= nrhi[-1] and nrhi[-1] >= 1.0
            top_ok = b == q and alive[-1] and thi[-1] >= 1.0
            return bool(right_ok or top_ok)
        llo[prev_a:prev_b] = 1.0
        lhi[prev_a:prev_b] = -1.0
        llo[a:b] = nrlo
        lhi[a:b] = nrhi
        prev_a, prev_b = a, b
        if i + 1 >= n_bottom and not np.any(nrlo <= nrhi):
            return False
    return False


def j1_feasible(tx, sy, levx, levy, d):
    """Jump-alignment feasibility for step functions at radius d.

    State (j, k) = first j jumps of x and k jumps of y emitted; the DP keeps
    the earliest admissible position of the last emitted event.  Unmatched
    jumps dwell next to the other path's current level; exact ties skip the
    intermediate level.  Greedy earliest placement is optimal because a
    smaller last-event position never hurts later moves.

    Row j is swept in two vector steps.  Emitting y's jumps alone is a
    forward chain in k, and since jump times increase strictly it is the
    boolean recurrence A_k = start_k or (A_{k-1} and lev_{k-1}), solved
    with last-index running maxima.  Emitting x's jump j (alone or with a
    y jump) is elementwise in k.
    """
    J = tx.shape[0]
    K = sy.shape[0]
    INF = 1e300
    if abs(levx[0] - levy[0]) > d:
        return False
    ks = np.arange(K)
    m_cur = np.full(K + 1, INF)
    m_cur[0] = 0.0
    lev_row = np.abs(levx[0] - levy) <= d
    for j in range(J + 1):
        # y jump k alone from state k: needs sy[k] >= m_cur[k] after the
        # chain's update of m_cur[k], and the level gap after the jump
        lev = lev_row[1:]
        start = sy >= m_cur[:-1]
        last_start = np.maximum.accumulate(np.where(start, ks, -1))
        last_break = np.maximum.accumulate(np.where(lev, -1, ks))
        emit = last_start > last_break
        m_cur[1:] = np.where(emit, np.minimum(m_cur[1:], sy), m_cur[1:])
        if j == J:
            break
        tj = tx[j]
        cap = min(tj + d, 1.0)
        lev_row = np.abs(levx[j + 1] - levy) <= d
        # x jump j alone (unreachable states give u = INF > cap) ...
        u = np.maximum(np.maximum(m_cur, tj - d), 0.0)
        m_next = np.where((u <= cap) & lev_row, u, INF)
        # ... or together with y jump k (sy[k] >= m_cur[k] implies reachable)
        both = (sy >= m_cur[:-1]) & (np.abs(sy - tj) <= d) & lev_row[1:]
        m_next[1:] = np.where(both, np.minimum(m_next[1:], sy), m_next[1:])
        m_cur = m_next
    return bool(m_cur[K] < INF)


def garch_recursion(z, omega, a1, b1, s0, burn):
    # sigma2[k] = omega + (a1*z[k-1]^2 + b1)*sigma2[k-1]; x[k] = sigma[k]*z[k].
    total = z.shape[0]
    n = total - burn
    x = np.empty(n)
    sig2 = np.empty(n)
    s = s0
    for k in range(total):
        if k > 0:
            zp = z[k - 1]
            s = omega + (a1 * zp * zp + b1) * s
        if k >= burn:
            sig2[k - burn] = s
            x[k - burn] = np.sqrt(s) * z[k]
    return x, sig2


__all__ = ["USE_NUMBA", "frechet_feasible", "j1_feasible", "garch_recursion"]
