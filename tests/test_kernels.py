"""The vectorized decision kernels give the same booleans as the scalar oracle.

``kernel_oracle`` holds the cell-by-cell free-space sweep and the
state-by-state J1 alignment DP that ``m1lab.kernels`` replaced.  The new
kernels evaluate the same window algebra in a different order, sweep only
a time band and may stop early, so the only acceptable difference is none.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_oracle as oracle
from m1lab import config, kernels, lab
from m1lab.paths import CadlagPath, _jump_sequence, completed_graph, uniform_distance


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
        # every decision the contrast check asks for, at n = 100 and 300
        calls = _contrast_calls(monkeypatch, "frechet_feasible")
        assert len(calls) > 40
        decisions = set()
        for pt, pv, qt, qv, d in calls:
            want = bool(oracle._frechet_feasible(pt, pv, qt, qv, d))
            assert kernels.frechet_feasible(pt, pv, qt, qv, d) is want, d
            decisions.add(want)
        assert decisions == {True, False}


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
