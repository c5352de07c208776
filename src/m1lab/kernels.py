"""Inner-loop kernels behind the path metrics and the GARCH sampler.

The two metric decision kernels are numpy sweeps: the strong-M1 free-space
sweep runs one column of cells per step, over the curve with fewer
segments, and the J1 alignment DP one row of states per step, over the
shorter jump list.  The sweep takes both curves' segment geometry once per
call and the edge windows of a run of columns (up to ``RUN_CELLS`` band
cells) in one vector pass, so a column step only propagates reach; a
column's upward chain is an exact running max on complex keys
(``notes/decisions.md``, "Strong-M1 decision kernel").  The J1 DP's two
sweeps evaluate the same float expressions, so swapping the sweep's
orientation changes no decision.  The GARCH recursion
is a plain loop.  There is no compiled route; ``USE_NUMBA`` stays for the
records that name the route.
"""

import numpy as np

USE_NUMBA = False

# Absolute slack of the time band of a free-space column.  It only has to
# beat the rounding of ``_free_window`` on times in [0, 1] (about 1e-16), so
# that no cell whose windows come out free can fall outside the band.
BAND_SLACK = 1e-9

# Band cells whose edge windows ``frechet_feasible`` computes in one vector
# pass ahead of the column loop; a run always holds at least one whole
# column.  Larger runs cost memory and, after an early exit, wasted cells.
RUN_CELLS = 4096


def _segments(c):
    """The radius-free part of the windows against the segments
    c[:, j] -> c[:, j + 1] of stacked (time, value) vertices: their start
    points, which of them are flat, and the divisor (1 where flat)."""
    c0 = c[:, :-1]
    dc = c[:, 1:] - c0
    flat = dc == 0.0
    return c0, flat, np.where(flat, 1.0, dc)


def _free_window(a, c0, flat, span, d):
    """Parameter window s in [0,1] with |a - (c0 + s*(c1-c0))| <= d.

    ``flat`` and ``span`` come from ``_segments``.  Elementwise over
    broadcast arrays; an empty window is (1, -1).
    """
    # a span near zero overflows to +-inf, which the clip below maps to 0 or 1
    with np.errstate(over="ignore"):
        lo = (a - d - c0) / span
        hi = (a + d - c0) / span
    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    lo = np.maximum(lo, 0.0)
    hi = np.minimum(hi, 1.0)
    near = np.abs(a - c0) <= d
    lo = np.where(flat, np.where(near, 0.0, 1.0), lo)
    hi = np.where(flat, np.where(near, 1.0, -1.0), hi)
    return lo, hi


def _free_point_seg(a, segs, d):
    """Free window of the point a against the segments ``segs`` at radius d.

    The point is stacked (time, value) on axis 0, so one ``_free_window``
    call gives both coordinates' windows; the result is their
    intersection, empty (lo > hi) when either window is.
    """
    lo, hi = _free_window(a, *segs, d)
    return np.maximum(lo[0], lo[1]), np.minimum(hi[0], hi[1])


def _boundary_climb(a, segs, d):
    """Reach [0, hi] along a boundary of the diagram, climbing from the origin.

    ``a`` is the corner point, stacked (time, value), and ``segs`` the other
    curve's ``_segments``.  Returns the reached mask, a prefix of the
    segments, and the windows' hi.
    """
    lo, hi = _free_point_seg(a, segs, d)
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
    thi; it stays dead until the next restart.  Both running quantities are
    one ``np.maximum.accumulate`` over keys that put the segment number
    first: the max is taken on the complex keys seg + 1j * lo, which numpy
    orders lexicographically, so it is the very float that was largest in
    the segment; a death is the integer key 2 * seg + 1 against 2 * seg.
    """
    m = tlo.size + 1
    restart = np.empty(m, dtype=bool)
    restart[0] = True
    restart[1:] = has_l
    seg = np.cumsum(restart)
    keys = np.empty(m, dtype=complex)
    keys.real = seg
    keys.imag[0] = 0.0
    keys.imag[1:] = tlo
    running = np.maximum.accumulate(keys).imag
    kill = np.empty(m, dtype=np.int64)
    kill[0] = not start_alive
    np.greater(running[1:], thi, out=kill[1:])
    base = 2 * seg
    return (np.maximum.accumulate(base + kill) == base)[1:]


def frechet_feasible(pt, pv, qt, qv, d):
    """Monotone-path reachability in the free-space diagram at radius d.

    The curves are polylines (completed graphs); the ground metric is the
    max of time and value gaps, so cell free sets are convex and reach
    propagates through edge intervals (Alt & Godau 1995).  The sweep runs
    column by column over the curve with fewer segments and visits only the
    rows whose time range lies within d (plus ``BAND_SLACK``) of the
    column's: outside that band both edge windows of a cell are empty.  It
    stops as soon as no right edge of a column is reachable and the bottom
    boundary is spent.  Both curves' segment geometry is computed once per
    call, and the edge windows of a run of columns, up to ``RUN_CELLS``
    band cells and at least one column, in one ``_run_windows`` pass; the
    column step then only propagates reach.
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
    rows = _segments(qs)
    cols = _segments(ps)
    bottom, _ = _boundary_climb(qs[:, :1], cols, d)
    n_bottom = int(bottom.sum())
    left, left_hi = _boundary_climb(ps[:, :1], rows, d)
    # reach on the left edges of the current column
    llo = np.where(left, 0.0, 1.0)
    lhi = np.where(left, left_hi, -1.0)
    # rows [a, b) of each column; never empty, since both graphs run from
    # time 0 to time 1 and the corner checks passed.  Both ends only grow
    # with i, so a row a column leaves is never read again.
    first = np.searchsorted(qt[1:], pt[:-1] - (d + BAND_SLACK), side="left")
    stop = np.searchsorted(qt[:-1], pt[1:] + (d + BAND_SLACK), side="right")
    counts = stop - first
    # column i's band cells are [offsets[i], offsets[i + 1]) of all columns'
    offsets = np.zeros(p + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    firsts, stops, offs = first.tolist(), stop.tolist(), offsets.tolist()
    run_end = 0
    for i in range(p):
        if i == run_end:
            # the columns whose cells fit in RUN_CELLS, and at least column i
            run_base = offs[i]
            fit = int(np.searchsorted(offsets, run_base + RUN_CELLS, side="right"))
            run_end = max(fit - 1, i + 1)
            win = _run_windows(ps, qs, cols, rows, first[i:run_end], counts[i:run_end], i, d)
        a, b = firsts[i], stops[i]
        o, e = offs[i] - run_base, offs[i + 1] - run_base
        rlo, rhi, tlo, thi = (w[o:e] for w in win)
        cur_llo = llo[a:b]
        has_l = cur_llo <= lhi[a:b]
        start_alive = a == 0 and i < n_bottom
        alive = _top_chain(start_alive, has_l, tlo, thi)
        has_b = np.empty(b - a, dtype=bool)
        has_b[0] = start_alive
        has_b[1:] = alive[:-1]
        # a cell with neither reach gets hi = -1, so its lo needs no case
        nrlo = np.where(has_b, rlo, np.maximum(rlo, cur_llo))
        nrhi = np.where(has_b | has_l, rhi, -1.0)
        if i == p - 1:
            right_ok = b == q and nrlo[-1] <= nrhi[-1] and nrhi[-1] >= 1.0
            top_ok = b == q and alive[-1] and thi[-1] >= 1.0
            return bool(right_ok or top_ok)
        llo[a:b] = nrlo
        lhi[a:b] = nrhi
        if i + 1 >= n_bottom and not np.any(nrlo <= nrhi):
            return False
    return False


def _run_windows(ps, qs, cols, rows, first, counts, i0, d):
    """Edge windows of the band cells of the columns i0, i0 + 1, ...

    ``first`` and ``counts`` give each column's first band row and row
    count; the cells are flattened column by column.  Returns the right
    windows (each column's end point against its rows' segments) and the
    top windows (the rows' end points against the column's segment) as
    (rlo, rhi, tlo, thi).  Each window is the same elementwise expression
    on the same operands as one column at a time, so every bit is kept.
    """
    col = np.repeat(np.arange(i0, i0 + counts.size), counts)
    starts = np.cumsum(counts) - counts
    row = np.arange(col.size) + np.repeat(first - starts, counts)
    rlo, rhi = _free_point_seg(
        np.take(ps, col + 1, axis=1), tuple(np.take(s, row, axis=1) for s in rows), d
    )
    tlo, thi = _free_point_seg(
        np.take(qs, row + 1, axis=1), tuple(np.take(s, col, axis=1) for s in cols), d
    )
    return rlo, rhi, tlo, thi


def j1_feasible(tx, sy, levx, levy, d):
    """Jump-alignment feasibility for step functions at radius d.

    State (j, k) = first j jumps of x and k jumps of y emitted; the DP keeps
    the earliest admissible position of the last emitted event.  Unmatched
    jumps dwell next to the other path's current level; exact ties skip the
    intermediate level.  Greedy earliest placement is optimal because a
    smaller last-event position never hurts later moves.

    x's jump j is placed in [tx_j - d, tx_j + d] and y's stay at sy, so the
    two argument orders round differently and the decision is not exactly
    symmetric.  The DP runs one row of states per step over the shorter
    jump list, and both sweeps evaluate the same float expressions.  Row j
    of x is swept in two vector steps.  Emitting y's jumps alone is a
    forward chain in k, and since jump times increase strictly it is the
    boolean recurrence A_k = start_k or (A_{k-1} and lev_{k-1}), solved with
    last-index running maxima.  Emitting x's jump j (alone or with a y jump)
    is elementwise in k.  When x has more jumps, ``_j1_y_rows`` sweeps the
    rows of y.
    """
    J = tx.shape[0]
    K = sy.shape[0]
    INF = 1e300
    if abs(levx[0] - levy[0]) > d:
        return False
    if J > K:
        return _j1_y_rows(tx, sy, levx, levy, d)
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


def _j1_y_rows(tx, sy, levx, levy, d):
    """``j1_feasible``'s DP swept one row of y per step, vector over x.

    Emitting y's jump k (alone or with x jump j) is elementwise in j.
    Emitting x's jumps alone is a chain in j: x's jump j moves to
    max(m, c_j) with c_j = max(tx_j - d, 0), if m <= cap_j = min(tx_j + d,
    1).  Jump times increase within [0, 1], so c and cap do not decrease and
    c_j <= cap_j; a chain from state j0 to j thus ends at max(m_j0, c_{j-1})
    and is admissible iff m_j0 <= cap_j0 and every level it passes is within
    d.  Row k's chain is then a running min of the admissible starts over
    the runs of level-admissible states, one ``np.maximum.accumulate`` on
    the complex keys run + 1j * (-start) as in ``_top_chain``.
    """
    J = tx.shape[0]
    K = sy.shape[0]
    INF = 1e300
    lo = np.maximum(tx - d, 0.0)
    cap = np.minimum(tx + d, 1.0)
    m = np.full(J + 1, INF)
    m[0] = 0.0
    lev = np.abs(levx - levy[0]) <= d
    keys = np.empty(J, dtype=complex)
    for k in range(K + 1):
        # x jumps alone: a state whose level is too far starts a new run
        keys.real = np.cumsum(~lev)[:-1]
        keys.imag = -np.where(m[:-1] <= cap, m[:-1], INF)
        best = -np.maximum.accumulate(keys).imag
        m[1:] = np.where(lev[1:], np.minimum(m[1:], np.maximum(best, lo)), INF)
        if k == K:
            break
        s = sy[k]
        # y jump k alone, or together with x jump j
        start = s >= m
        near = np.abs(s - tx) <= d
        lev = np.abs(levx - levy[k + 1]) <= d
        reach = start.copy()
        reach[1:] |= start[:-1] & near
        m = np.where(reach & lev, s, INF)
    return bool(m[J] < INF)


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
