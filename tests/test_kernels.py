"""The vectorized decision kernels give the same booleans as the scalar oracle.

``kernel_oracle`` holds the cell-by-cell free-space sweep and the
state-by-state J1 alignment DP that ``m1lab.kernels`` replaced.  The new
kernels evaluate the same window algebra in a different order, sweep only
a time band and may stop early, so the only acceptable difference is none.
"""

import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_oracle as oracle
from m1lab import config, kernels, lab, paths
from m1lab.paths import (
    CadlagPath,
    _jump_sequence,
    completed_graph,
    m1_distance_detailed,
    uniform_distance,
)


def _assert_m1_same(x, y, d):
    pt, pv = completed_graph(x)
    qt, qv = completed_graph(y)
    want = bool(oracle._frechet_feasible(pt, pv, qt, qv, d))
    assert kernels.frechet_feasible(pt, pv, qt, qv, d) is want, d
    assert kernels.frechet_feasible(qt, qv, pt, pv, d) is want, d


def _assert_j1_same(x, y, d):
    tx, levx = _jump_sequence(x)
    sy, levy = _jump_sequence(y)
    _assert_j1_args_same(tx, sy, levx, levy, d)


def _assert_j1_args_same(tx, sy, levx, levy, d):
    # the kernel sweeps the shorter jump list, so one of the two orders runs
    # its other sweep; each must give the oracle's decision in that order,
    # which may differ between the orders by a rounding
    want = bool(oracle._j1_feasible(tx, sy, levx, levy, d))
    assert kernels.j1_feasible(tx, sy, levx, levy, d) is want, d
    flip = bool(oracle._j1_feasible(sy, tx, levy, levx, d))
    assert kernels.j1_feasible(sy, tx, levy, levx, d) is flip, d
    return want


def _contrast_calls(monkeypatch, name):
    """Arguments of every ``name`` decision of the contrast check on a
    clustered MA(1) at n = 100 and 300; the check sees one CPU, so no
    replicate runs in a forked process, where no call would be recorded."""
    calls = []
    feasible = getattr(kernels, name)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})

    def recording(*args):
        calls.append(args)
        return feasible(*args)

    monkeypatch.setattr(kernels, name, recording)
    cfg, _ = config.parse_config(
        "",
        overrides=[
            "model.variant=linear",
            "model.coeffs=1.0, 0.5",
            "model.alpha=0.8",
            "run.contrast_n_grid=100, 300",
            "run.contrast_replicates=2",
        ],
    )
    lab.run_j1_vs_m1_contrast(cfg)
    monkeypatch.undo()
    return calls


def _radii(x, y, fracs):
    """0, the end-value gap, the uniform distance and fractions of it."""
    unif = uniform_distance(x, y)
    gap = max(abs(x.values[0, 0] - y.values[0, 0]), abs(x.values[-1, 0] - y.values[-1, 0]))
    return [0.0, float(gap), unif] + [f * unif for f in fracs]


@st.composite
def scalar_paths(draw, kinds=("step", "pl")):
    """Short paths; coarse grids give shared times, vertical and flat segments."""
    kind = draw(st.sampled_from(kinds))
    k = draw(st.integers(min_value=0, max_value=12))
    grid = draw(st.sampled_from([4, 16, None]))
    if grid is None:
        inner = draw(st.lists(st.floats(0.001, 1.0), max_size=k))
        values = draw(st.lists(st.floats(-3.0, 3.0), min_size=k + 1, max_size=k + 1))
    else:
        inner = [i / grid for i in draw(st.lists(st.integers(1, grid), max_size=k))]
        values = draw(st.lists(st.integers(-3, 3), min_size=k + 1, max_size=k + 1))
    times = np.unique(np.concatenate([[0.0], inner]))
    return CadlagPath(times, np.asarray(values[: times.size], dtype=float), kind)


FRACTIONS = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4)


class TestFrechetOracle:
    @settings(max_examples=150, deadline=None)
    @given(scalar_paths(), scalar_paths(), FRACTIONS)
    def test_random_pairs(self, x, y, fracs):
        for d in _radii(x, y, fracs):
            _assert_m1_same(x, y, d)

    def test_equal_time_vertical_segments(self):
        # both graphs jump at t = 0.5, by different amounts and directions
        x = CadlagPath([0.0, 0.5], [0.0, 1.0])
        for y in (
            CadlagPath([0.0, 0.5], [0.0, 2.0]),
            CadlagPath([0.0, 0.5], [0.25, -1.0]),
            CadlagPath([0.0, 0.5, 0.75], [0.0, 1.0, 0.5]),
        ):
            for d in (0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 2.0):
                _assert_m1_same(x, y, d)

    def test_radius_equal_to_a_vertex_time_gap(self):
        x = CadlagPath([0.0, 0.5], [0.0, 1.0])
        y = CadlagPath([0.0, 0.55, 0.8], [0.0, 1.0, 0.3])
        gaps = [0.55 - 0.5, 0.8 - 0.5, 0.8 - 0.55]
        for g in gaps:
            for d in (np.nextafter(g, 0.0), g, np.nextafter(g, 1.0)):
                _assert_m1_same(x, y, float(d))

    def test_one_segment_graphs(self):
        flat = CadlagPath([0.0], [0.3])
        assert completed_graph(flat)[0].size == 2
        ramp = CadlagPath([0.0, 1.0], [0.0, 1.0], "pl")
        jumpy = CadlagPath([0.0, 0.2, 0.4, 0.6, 0.8], [0.0, 1.0, -1.0, 0.5, 0.3])
        for other in (flat, CadlagPath([0.0], [-0.2]), ramp, jumpy):
            for d in (0.0, 0.1, 0.3, 0.5, 0.7, 1.0, 1.3):
                _assert_m1_same(flat, other, d)
                _assert_m1_same(ramp, other, d)

    def test_contrast_bisection_radii(self, monkeypatch):
        # every radius the contrast check's M1 bisections decide, at n = 100
        # and 300: the kernel's answer where it is asked, and where the
        # pair's bounds settle the radius (paths._settled_bracket) the
        # settled answer, each against the oracle.  The bisections are
        # replayed with the oracle deciding every radius; the radii inside
        # the bounds must be the ones the kernel was asked, in order
        pairs = []
        m1 = lab.m1_distance_detailed

        def recording(x, y, resolution, upper):
            pairs.append((x, y, resolution, upper))
            return m1(x, y, resolution, upper=upper)

        monkeypatch.setattr(lab, "m1_distance_detailed", recording)
        calls = _contrast_calls(monkeypatch, "frechet_feasible")
        asked, settled = [], []
        for x, y, resolution, upper in pairs:
            x, y = paths._canonical_pair(x, y)
            pt, pv = completed_graph(x)
            qt, qv = completed_graph(y)
            false_below, true_above = paths._settled_bracket(pv, qv, upper)

            def by_oracle(d):
                want = bool(oracle._frechet_feasible(pt, pv, qt, qv, d))
                if false_below <= d <= true_above:
                    asked.append(((pt, pv, qt, qv, d), want))
                else:
                    settled.append((bool(d > true_above), want, d))
                return want

            paths._bisect_metric(x, y, resolution, by_oracle)
        assert len(asked) + len(settled) > 40
        assert len(asked) == len(calls)
        for (args, want), call in zip(asked, calls):
            assert all(np.array_equal(a, b) for a, b in zip(args, call))
            assert kernels.frechet_feasible(*args) is want, args[-1]
        assert {a for a, want, d in settled} == {True, False}
        for answer, want, d in settled:
            assert answer is want, d
        assert {want for _, want in asked} == {True, False}


class TestJ1Oracle:
    @settings(max_examples=150, deadline=None)
    @given(scalar_paths(("step",)), scalar_paths(("step",)), FRACTIONS)
    def test_random_step_pairs(self, x, y, fracs):
        for d in _radii(x, y, fracs):
            _assert_j1_same(x, y, d)

    def test_equal_time_jumps(self):
        x = CadlagPath([0.0, 0.5], [0.0, 1.0])
        for y in (
            CadlagPath([0.0, 0.5], [0.0, 2.0]),
            CadlagPath([0.0, 0.25, 0.5], [0.0, 0.5, 1.0]),
            CadlagPath([0.0, 0.5, 0.75], [0.0, 1.0, 0.5]),
        ):
            for d in (0.0, 0.25, 0.5, 0.75, 1.0):
                _assert_j1_same(x, y, d)
                _assert_j1_same(y, x, d)

    def test_radius_equal_to_a_jump_time_gap(self):
        x = CadlagPath([0.0, 0.5], [0.0, 1.0])
        y = CadlagPath([0.0, 0.55, 0.8], [0.0, 1.0, 0.3])
        for g in (0.55 - 0.5, 0.8 - 0.5):
            for d in (np.nextafter(g, 0.0), g, np.nextafter(g, 1.0)):
                _assert_j1_same(x, y, float(d))
                _assert_j1_same(y, x, float(d))

    def test_no_jumps(self):
        flat = CadlagPath([0.0], [0.3])
        jumpy = CadlagPath([0.0, 0.2, 0.4], [0.0, 1.0, 0.3])
        for d in (0.0, 0.3, 0.7, 1.0):
            _assert_j1_same(flat, jumpy, d)
            _assert_j1_same(jumpy, flat, d)
            _assert_j1_same(flat, CadlagPath([0.0], [0.1]), d)

    def test_x_longer_rounds_as_x_rows(self):
        # 0.625 - d is exact and lands 2**-54 above y's jump, so the gap
        # exceeds d; y's jump + d rounds up to 0.625.  A sweep over y's rows
        # must still test x's window, not y's, or it answers True
        d = 0.32
        tx = np.array([0.625, 0.9])
        levx = np.array([0.0, 0.1, 0.12])
        sy = np.array([(0.625 - d) - 2.0**-54])
        levy = np.array([0.0, 0.35])
        assert sy[0] + d == 0.625 and 0.625 - d > sy[0]
        assert kernels.j1_feasible(tx, sy, levx, levy, d) is False
        assert bool(oracle._j1_feasible(tx, sy, levx, levy, d)) is False
        assert kernels.j1_feasible(sy, tx, levy, levx, d) is True
        assert bool(oracle._j1_feasible(sy, tx, levy, levx, d)) is True

    def test_rounding_ties_in_both_orders(self, rng):
        # times on a 1/64 grid and radii at every time and level gap with its
        # float neighbours, so x's window ends and y's jumps meet at half-ulp
        # ties where the two argument orders decide differently
        grid = np.arange(1, 64) / 64
        asymmetric = 0
        for _ in range(150):
            tx = np.unique(rng.choice(grid, int(rng.integers(1, 9))))
            sy = np.unique(rng.choice(grid, int(rng.integers(1, 9))))
            levx = rng.integers(-3, 4, tx.size + 1) / 8.0
            levy = rng.integers(-3, 4, sy.size + 1) / 8.0
            gaps = np.concatenate([
                np.abs(tx[:, None] - sy).ravel(),
                np.abs(levx[:, None] - levy).ravel() / 2,
            ])
            for g in np.unique(gaps):
                for d in (np.nextafter(g, 0.0), g, np.nextafter(g, 1.0)):
                    want = _assert_j1_args_same(tx, sy, levx, levy, float(d))
                    flip = bool(oracle._j1_feasible(sy, tx, levy, levx, float(d)))
                    asymmetric += want != flip
        assert asymmetric > 0

    def test_contrast_bisection_radii(self, monkeypatch):
        # every J1 decision of the contrast check, at n = 100 and 300; the
        # path comes first there, so its jump list is the longer one
        calls = _contrast_calls(monkeypatch, "j1_feasible")
        assert len(calls) > 40
        assert any(len(tx) > len(sy) for tx, sy, _, _, _ in calls)
        decisions = {_assert_j1_args_same(*args) for args in calls}
        assert decisions == {True, False}


@pytest.mark.parametrize("d", [0.0, 0.05, 0.3])
def test_window_matches_oracle_elementwise(d, rng):
    # the sweep's window routine against the scalar one, on shared
    # endpoints, flat segments (c1 == c0) and falling ones (c1 < c0)
    a = rng.random(50)
    c0 = np.round(rng.random(50), 1)
    c1 = np.where(rng.random(50) < 0.3, c0, rng.random(50))
    assert (c1 == c0).any() and (c1 < c0).any() and (c1 > c0).any()
    start, flat, span = kernels._segments(np.column_stack([c0, c1]))
    # entry (i, k) is point a[i] against segment k: a column's top edges
    # take a column of it, a point's right edge a row
    lo, hi = kernels._free_window(a[:, None], start.T, flat.T, span.T, d)
    for i in range(a.size):
        for k in range(a.size):
            assert (lo[i, k], hi[i, k]) == oracle._free_window(a[i], c0[k], c1[k], d)


def _chain_by_loop(start_alive, has_l, tlo, thi):
    alive, lo = start_alive, 0.0
    out = []
    for restart, a, b in zip(has_l, tlo, thi):
        if restart:
            alive, lo = a <= b, a
        elif alive:
            lo = max(lo, a)
            alive = lo <= b
        out.append(alive)
    return out


def test_top_chain_max_is_exact(rng):
    # a float offset per segment (lo + 2 * seg) would round 1e-17 away
    assert list(kernels._top_chain(True, np.array([False, True, False]),
                                   np.array([0.0, 1e-17, 0.0]),
                                   np.array([1.0, 1.0, 5e-18]))) == [True, True, False]
    values = np.array([0.0, 5e-18, 1e-17, 0.3, 0.7, 1.0, 1.5])
    for _ in range(300):
        m = int(rng.integers(1, 12))
        args = (bool(rng.random() < 0.8), rng.random(m) < 0.3,
                rng.choice(values, m), rng.choice(values, m))
        assert list(kernels._top_chain(*args)) == _chain_by_loop(*args)
    # long columns with thousands of restarts, on values one ulp apart
    ulp = np.nextafter(0.3, 1.0) - 0.3
    near = 0.3 + ulp * np.arange(-2, 3)
    for restart_frac in (0.3, 0.9):
        for _ in range(20):
            m = 5000
            args = (bool(rng.random() < 0.8), rng.random(m) < restart_frac,
                    rng.choice(near, m), rng.choice(near, m))
            assert int(args[1].sum()) > 1000
            assert list(kernels._top_chain(*args)) == _chain_by_loop(*args)


def _tiny_span_cases():
    # segments whose span underflows to a subnormal, rising and falling, so
    # (a -+ d - c0) / span overflows to +-inf before the clip to [0, 1]
    c0 = np.array([0.0, 1e-310, 0.0, 5e-324, 0.0, 0.4])
    c1 = np.array([1e-310, 0.0, 5e-324, 0.0, 0.0, 0.7])
    a = np.array([0.5, -0.5, 1e-310, 0.25, 0.0, 1.0])
    return a, c0, c1


@pytest.mark.parametrize("d", [0.0, 1e-310, 0.1])
def test_tiny_span_windows_match_oracle_without_warnings(d):
    a, c0, c1 = _tiny_span_cases()
    start, flat, span = kernels._segments(np.column_stack([c0, c1]))
    assert ((np.abs(span) < 1e-300) & ~flat).any()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lo, hi = kernels._free_window(a[:, None], start.T, flat.T, span.T, d)
    for i in range(a.size):
        for k in range(a.size):
            want = oracle._free_window(float(a[i]), float(c0[k]), float(c1[k]), d)
            assert (lo[i, k], hi[i, k]) == want


def test_tiny_span_decisions_match_oracle_without_warnings():
    # a graph whose first segment lasts 1e-310 in time and rises 1e-310
    x = CadlagPath([0.0, 1e-310, 0.5], [0.0, 1e-310, 1.0], "pl")
    y = CadlagPath([0.0, 0.25, 0.75], [0.0, 0.5, 1.0])
    pt, pv = completed_graph(x)
    qt, qv = completed_graph(y)
    assert 0.0 < pt[1] - pt[0] < 1e-300
    for d in (0.0, 0.1, 0.25, 0.5, 1.0, 2.0):
        with np.errstate(over="ignore"):
            want = bool(oracle._frechet_feasible(pt, pv, qt, qv, d))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kernels.frechet_feasible(pt, pv, qt, qv, d) is want, d
            assert kernels.frechet_feasible(qt, qv, pt, pv, d) is want, d


def _bracket(x, y):
    """The two ends of the M1 bisection's final bracket, where the decision
    flips from False to True."""
    res = m1_distance_detailed(x, y, resolution=8192)
    return [res.lower, res.upper]


def random_step_path(rng, n_jumps, scale=1.0):
    times = np.concatenate([[0.0], np.unique(rng.random(n_jumps))])
    return CadlagPath(times, scale * np.cumsum(rng.standard_normal(times.size)), "step")


class TestWindowRuns:
    """The sweep computes the edge windows of a run of columns, up to
    ``RUN_CELLS`` band cells, ahead of the column loop; these decisions
    cross run boundaries in each way a run can end, in both argument
    orders."""

    @staticmethod
    def _decide(monkeypatch, x, y, d):
        """The oracle's decision, checked in both orders, and per order the
        number of runs, the most cells in one run and the number of
        columns the sweep visited."""
        pt, pv = completed_graph(x)
        qt, qv = completed_graph(y)
        want = bool(oracle._frechet_feasible(pt, pv, qt, qv, d))
        windows, columns = [], []
        point_seg, top_chain = kernels._free_point_seg, kernels._top_chain

        def counted_windows(a, segs, d):
            windows.append(np.broadcast_shapes(a.shape, segs[0].shape)[1])
            return point_seg(a, segs, d)

        def counted_columns(*args):
            columns.append(1)
            return top_chain(*args)

        monkeypatch.setattr(kernels, "_free_point_seg", counted_windows)
        monkeypatch.setattr(kernels, "_top_chain", counted_columns)
        shapes = []
        for args in ((pt, pv, qt, qv, d), (qt, qv, pt, pv, d)):
            windows.clear()
            columns.clear()
            assert kernels.frechet_feasible(*args) is want, d
            # two boundary climbs, then a right and a top pass per run
            runs = windows[2::2]
            assert runs == windows[3::2]
            shapes.append((len(runs), max(runs, default=0), len(columns)))
        monkeypatch.undo()
        assert shapes[0] == shapes[1]
        return want, shapes[0]

    def test_band_over_several_runs(self, monkeypatch, rng):
        x = random_step_path(rng, 60)
        y = random_step_path(rng, 70)
        p = completed_graph(x)[0].size - 1
        q = completed_graph(y)[0].size - 1
        assert p * q > 3 * kernels.RUN_CELLS
        seen = set()
        for d in _radii(x, y, [0.3, 0.6, 0.9]) + _bracket(x, y):
            want, (runs, most, columns) = self._decide(monkeypatch, x, y, d)
            assert most <= kernels.RUN_CELLS
            if runs >= 3:
                seen.add(want)
        assert seen == {True, False}

    def test_column_band_over_the_cap(self, monkeypatch, rng):
        # at d >= 1 the band is every row, and the long graph has more
        # segments than a run has cells, so each run is one whole column
        x = random_step_path(rng, 3)
        y = random_step_path(rng, 2100)
        p = completed_graph(x)[0].size - 1
        q = completed_graph(y)[0].size - 1
        assert p < q and q > kernels.RUN_CELLS
        seen = set()
        for d in [max(1.0, uniform_distance(x, y))] + _bracket(x, y):
            assert d >= 1.0
            want, (runs, most, columns) = self._decide(monkeypatch, x, y, d)
            if runs == columns == p and most > kernels.RUN_CELLS:
                seen.add(want)
        assert seen == {True, False}

    def test_early_exit_inside_the_first_run(self, monkeypatch, rng):
        # a spike of x that y never comes near kills every reach at its
        # column; the whole diagram fits in one run
        x = CadlagPath([0.0, 0.4, 0.45, 0.8], [0.0, 10.0, 0.0, 0.5])
        y = random_step_path(rng, 30, scale=0.2)
        y = CadlagPath(y.times, y.values[:, 0] - y.values[0, 0], "step")
        p = completed_graph(x)[0].size - 1
        q = completed_graph(y)[0].size - 1
        assert p < q and p * q <= kernels.RUN_CELLS
        d = 1.0 + abs(0.5 - y.values[-1, 0])
        want, (runs, most, columns) = self._decide(monkeypatch, x, y, d)
        assert not want and runs == 1 and 0 < columns < p

    def test_run_windows_equal_per_column_windows(self, rng):
        # the bits of one column's windows, computed on its own slices, at
        # every cell of a run of columns with bands of any place and length
        pt, pv = completed_graph(random_step_path(rng, 20))
        qt, qv = completed_graph(random_step_path(rng, 40))
        ps, qs = np.stack([pt, pv]), np.stack([qt, qv])
        cols, rows = kernels._segments(ps), kernels._segments(qs)
        p, q = pt.size - 1, qt.size - 1
        for d in (0.0, 0.3, 1.0, 3.0):
            i0 = int(rng.integers(0, p - 5))
            first = rng.integers(0, q, 5)
            counts = rng.integers(1, q + 1 - first)
            got = kernels._run_windows(ps, qs, cols, rows, first, counts, i0, d)
            at = 0
            for i, a, n in zip(range(i0, i0 + 5), first, counts):
                right = kernels._free_point_seg(
                    ps[:, i + 1 : i + 2], tuple(s[:, a : a + n] for s in rows), d
                )
                top = kernels._free_point_seg(
                    qs[:, a + 1 : a + n + 1], tuple(s[:, i : i + 1] for s in cols), d
                )
                for w, want in zip(got, right + top):
                    assert w[at : at + n].tobytes() == want.tobytes()
                at += n
            assert all(w.size == at for w in got)

    @pytest.mark.parametrize("cells", [1, 7, 50])
    def test_small_runs_random_pairs(self, monkeypatch, rng, cells):
        # every run boundary lands somewhere else than in one whole pass
        monkeypatch.setattr(kernels, "RUN_CELLS", cells)
        for _ in range(20):
            x = random_step_path(rng, int(rng.integers(1, 25)))
            y = random_step_path(rng, int(rng.integers(1, 25)))
            for d in _radii(x, y, [0.2, 0.5, 0.8]):
                _assert_m1_same(x, y, d)
