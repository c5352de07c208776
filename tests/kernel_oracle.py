"""The scalar strong-M1 and J1 decision kernels, kept as the test oracle.

These are the cell-by-cell sweeps the vectorized kernels in
``m1lab.kernels`` replaced, copied unchanged.  ``tests/test_kernels.py``
asserts that both give identical booleans.

``completed_graph`` and ``jump_sequence`` are the per-breakpoint loops that
built the kernels' inputs before ``m1lab.paths`` took them from one change
index, copied unchanged but for the dropped ``coord`` argument;
``tests/test_paths.py`` asserts identical arrays, zero signs and dtypes.
"""

import numpy as np


def _free_window(a, c0, c1, d):
    # Parameter window s in [0,1] with |a - (c0 + s*(c1-c0))| <= d.
    dc = c1 - c0
    if dc == 0.0:
        if abs(a - c0) <= d:
            return 0.0, 1.0
        return 1.0, -1.0
    # a span near zero overflows numpy scalars to +-inf, which the clip
    # below maps to 0 or 1
    with np.errstate(over="ignore", divide="ignore"):
        lo = (a - d - c0) / dc
        hi = (a + d - c0) / dc
    if lo > hi:
        lo, hi = hi, lo
    if lo < 0.0:
        lo = 0.0
    if hi > 1.0:
        hi = 1.0
    return lo, hi


def _free_point_seg(at, av, ct0, cv0, ct1, cv1, d):
    # Intersection of the time and value windows of a point against a segment.
    lo1, hi1 = _free_window(at, ct0, ct1, d)
    if lo1 > hi1:
        return 1.0, -1.0
    lo2, hi2 = _free_window(av, cv0, cv1, d)
    lo = lo1 if lo1 > lo2 else lo2
    hi = hi1 if hi1 < hi2 else hi2
    return lo, hi


def _frechet_feasible(pt, pv, qt, qv, d):
    """Monotone-path reachability in the free-space diagram at radius d.

    The curves are polylines (completed graphs); the ground metric is the
    max of time and value gaps, so cell free sets are convex and reach
    propagates through edge intervals.
    """
    p = pt.shape[0] - 1
    q = qt.shape[0] - 1
    if abs(pt[0] - qt[0]) > d or abs(pv[0] - qv[0]) > d:
        return False
    if abs(pt[p] - qt[q]) > d or abs(pv[p] - qv[q]) > d:
        return False

    # Reach on the left edges of the current column; start by climbing the
    # left boundary from the origin.
    llo = np.empty(q)
    lhi = np.empty(q)
    climbing = True
    for j in range(q):
        lo, hi = _free_point_seg(pt[0], pv[0], qt[j], qv[j], qt[j + 1], qv[j + 1], d)
        if climbing and lo <= 0.0 and lo <= hi:
            llo[j] = 0.0
            lhi[j] = hi
            climbing = hi >= 1.0
        else:
            llo[j] = 1.0
            lhi[j] = -1.0
            climbing = False

    bclimb = True
    top_lo = 1.0
    top_hi = -1.0
    for i in range(p):
        blo, bhi = _free_point_seg(qt[0], qv[0], pt[i], pv[i], pt[i + 1], pv[i + 1], d)
        if bclimb and blo <= 0.0 and blo <= bhi:
            cur_blo = 0.0
            cur_bhi = bhi
            bclimb = bhi >= 1.0
        else:
            cur_blo = 1.0
            cur_bhi = -1.0
            bclimb = False
        for j in range(q):
            has_l = llo[j] <= lhi[j]
            has_b = cur_blo <= cur_bhi
            rlo, rhi = _free_point_seg(
                pt[i + 1], pv[i + 1], qt[j], qv[j], qt[j + 1], qv[j + 1], d
            )
            tlo, thi = _free_point_seg(
                qt[j + 1], qv[j + 1], pt[i], pv[i], pt[i + 1], pv[i + 1], d
            )
            if has_b:
                nrlo = rlo
                nrhi = rhi
            elif has_l:
                nrlo = rlo if rlo > llo[j] else llo[j]
                nrhi = rhi
            else:
                nrlo = 1.0
                nrhi = -1.0
            if has_l:
                ntlo = tlo
                nthi = thi
            elif has_b:
                ntlo = tlo if tlo > cur_blo else cur_blo
                nthi = thi
            else:
                ntlo = 1.0
                nthi = -1.0
            llo[j] = nrlo
            lhi[j] = nrhi
            cur_blo = ntlo
            cur_bhi = nthi
        top_lo = cur_blo
        top_hi = cur_bhi

    right_ok = llo[q - 1] <= lhi[q - 1] and lhi[q - 1] >= 1.0
    top_ok = top_lo <= top_hi and top_hi >= 1.0
    return right_ok or top_ok


def _j1_feasible(tx, sy, levx, levy, d):
    """Jump-alignment feasibility for step functions at radius d.

    State (j, k) = first j jumps of x and k jumps of y emitted; the DP keeps
    the earliest admissible position of the last emitted event.  Unmatched
    jumps dwell next to the other path's current level; exact ties skip the
    intermediate level.  Greedy earliest placement is optimal because a
    smaller last-event position never hurts later moves.
    """
    J = tx.shape[0]
    K = sy.shape[0]
    INF = 1e300
    if abs(levx[0] - levy[0]) > d:
        return False
    m_cur = np.full(K + 1, INF)
    m_next = np.full(K + 1, INF)
    m_cur[0] = 0.0
    for j in range(J + 1):
        for k in range(K):
            cur = m_cur[k]
            if cur < INF and sy[k] >= cur and abs(levx[j] - levy[k + 1]) <= d:
                if sy[k] < m_cur[k + 1]:
                    m_cur[k + 1] = sy[k]
        if j == J:
            break
        for k in range(K + 1):
            m_next[k] = INF
        tj = tx[j]
        cap = tj + d
        if cap > 1.0:
            cap = 1.0
        for k in range(K + 1):
            cur = m_cur[k]
            if cur >= INF:
                continue
            u = cur if cur > tj - d else tj - d
            if u < 0.0:
                u = 0.0
            if u <= cap and abs(levx[j + 1] - levy[k]) <= d:
                if u < m_next[k]:
                    m_next[k] = u
            if k < K:
                s = sy[k]
                if s >= cur and abs(s - tj) <= d and abs(levx[j + 1] - levy[k + 1]) <= d:
                    if s < m_next[k + 1]:
                        m_next[k + 1] = s
        tmp = m_cur
        m_cur = m_next
        m_next = tmp
    return m_cur[K] < INF


def completed_graph(path):
    t = path.times
    v = path.values[:, 0]
    gt = [t[0]]
    gv = [v[0]]
    if path.kind == "pl":
        for i in range(1, t.size):
            gt.append(t[i])
            gv.append(v[i])
    else:
        for i in range(1, t.size):
            if v[i] != v[i - 1]:
                gt.append(t[i])
                gv.append(v[i - 1])
                gt.append(t[i])
                gv.append(v[i])
    if gt[-1] < 1.0:
        gt.append(1.0)
        gv.append(gv[-1])
    # drop zero-length segments
    out_t = [gt[0]]
    out_v = [gv[0]]
    for i in range(1, len(gt)):
        if gt[i] != out_t[-1] or gv[i] != out_v[-1]:
            out_t.append(gt[i])
            out_v.append(gv[i])
    if len(out_t) == 1:
        out_t.append(1.0)
        out_v.append(out_v[0])
    return np.asarray(out_t), np.asarray(out_v)


def jump_sequence(path):
    t = path.times
    v = path.values[:, 0]
    jt = []
    levels = [v[0]]
    for i in range(1, t.size):
        if v[i] != v[i - 1]:
            jt.append(t[i])
            levels.append(v[i])
    return np.asarray(jt), np.asarray(levels)
