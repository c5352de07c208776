import io
import os
import sys
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_oracle as oracle
from m1lab import config, kernels, lab
from m1lab.paths import (
    PL,
    STEP,
    CadlagPath,
    DimensionError,
    PathError,
    PreconditionError,
    _bisect_metric,
    _canonical_pair,
    _jump_sequence,
    _settled_bracket,
    completed_graph,
    eval_path,
    is_monotone_nondecreasing,
    j1_distance,
    left_limit,
    load_path_csv,
    m1_distance,
    m1_distance_detailed,
    monotone_m1_distance,
    save_path_csv,
    step_refine,
    uniform_distance,
    weak_m1_distance,
)
from m1lab.sumproc import collapse_clusters
from m1lab.tailstats import BlockingScheme
from conftest import make_step_path

STEP_05 = CadlagPath([0.0, 0.5], [0.0, 1.0])
STEP_055 = CadlagPath([0.0, 0.55], [0.0, 1.0])
# M1 equals the uniform distance (the gap at t = 0.5), and the free-space
# decision at exactly that radius rounds to False by one ulp
PL_AT_UNIFORM = (
    CadlagPath([0.0, 0.5, 1.0], [66.02839825383293, -6.999349756108769, 73.78689018850021], PL),
    CadlagPath([0.0, 0.5, 1.0], [48.27474055436402, 29.449214867733257, 64.53892013106199], PL),
)


class TestConstruction:
    def test_empty_invalid(self):
        with pytest.raises(PathError):
            CadlagPath([], [])

    def test_first_breakpoint_zero(self):
        with pytest.raises(PathError):
            CadlagPath([0.1, 0.5], [0.0, 1.0])

    def test_strictly_increasing(self):
        with pytest.raises(PathError):
            CadlagPath([0.0, 0.5, 0.5], [0.0, 1.0, 2.0])

    @pytest.mark.parametrize("times", [[0.0, np.nan, 1.0], [0.0, 0.5, np.nan], [np.nan],
                                       [0.0, np.nan]])
    def test_nan_time(self, times):
        with pytest.raises(PathError):
            CadlagPath(times, np.zeros(len(times)))

    def test_finite_values(self):
        with pytest.raises(PathError):
            CadlagPath([0.0], [np.inf])

    def test_single_point_is_constant(self):
        p = CadlagPath([0.0], [3.0])
        assert eval_path(p, 0.0) == 3.0
        assert eval_path(p, 0.7) == 3.0


class TestEval:
    def test_right_continuity_at_jump(self):
        assert eval_path(STEP_05, 0.5) == 1.0

    def test_before_jump(self):
        assert eval_path(STEP_05, 0.49) == 0.0

    def test_constant(self):
        p = CadlagPath([0.0], [3.0])
        for t in (0.0, 0.3, 1.0):
            assert eval_path(p, t) == 3.0

    def test_domain(self):
        with pytest.raises(PathError):
            eval_path(STEP_05, 1.5)

    def test_left_limit_at_jump(self):
        assert left_limit(STEP_05, 0.5) == 0.0

    def test_left_limit_continuity_point(self):
        assert left_limit(STEP_05, 0.75) == 1.0

    def test_left_limit_pl_interpolates(self):
        ramp = CadlagPath([0.0, 0.4, 0.6], [0.0, 0.0, 1.0], PL)
        assert left_limit(ramp, 0.5) == pytest.approx(0.5)

    def test_left_limit_domain(self):
        with pytest.raises(PathError):
            left_limit(STEP_05, 0.0)


class TestUniform:
    def test_identity(self):
        assert uniform_distance(STEP_05, STEP_05) == 0.0

    def test_step_vs_constant(self):
        const = CadlagPath([0.0], [0.0])
        assert uniform_distance(STEP_05, const) == 1.0

    def test_step_vs_pre_jump_ramp_dense_grid_oracle(self, rng):
        # ramp rising over [0.5 - w, 0.5]: sup attained just below the jump
        w = 0.1
        ramp = CadlagPath([0.0, 0.5 - w, 0.5], [0.0, 0.0, 1.0], PL)
        d = uniform_distance(STEP_05, ramp)
        grid = np.linspace(1e-9, 1.0, 10**5)
        vals = np.abs(
            np.atleast_2d(eval_path(STEP_05, grid))[:, 0]
            - np.atleast_2d(eval_path(ramp, grid))[:, 0]
        )
        assert d >= vals.max() - 1e-12
        assert d == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        two = CadlagPath([0.0], [[1.0, 2.0]])
        with pytest.raises(DimensionError):
            uniform_distance(STEP_05, two)


class TestM1:
    def test_identity(self):
        assert m1_distance(STEP_05, STEP_05) == 0.0

    def test_ramp_spanning_jump(self):
        ramp = CadlagPath([0.0, 0.5, 0.51], [0.0, 0.0, 1.0], PL)
        assert m1_distance(STEP_05, ramp) <= 0.01 + 1e-3

    def test_time_shift(self):
        assert m1_distance(STEP_05, STEP_055) == pytest.approx(0.05, abs=1e-3)

    def test_symmetry_bitwise(self, rng):
        for _ in range(20):
            x = make_step_path(rng)
            y = make_step_path(rng)
            assert m1_distance(x, y) == m1_distance(y, x)

    def test_upper_bounded_by_uniform(self, rng):
        for _ in range(30):
            x = make_step_path(rng)
            y = make_step_path(rng)
            assert m1_distance(x, y) <= uniform_distance(x, y)

    def test_multicoordinate_rejected(self):
        two = CadlagPath([0.0], [[1.0, 2.0]])
        with pytest.raises(DimensionError, match="weak_m1"):
            m1_distance(two, two)

    def test_resolution_precondition(self):
        with pytest.raises(PathError, match="resolution"):
            m1_distance(STEP_05, STEP_055, resolution=4)

    def test_bracket_certified(self, rng):
        x = make_step_path(rng)
        y = make_step_path(rng)
        res = m1_distance_detailed(x, y)
        assert res.lower <= res.value <= res.upper <= res.uniform_bound + 1e-15
        assert res.upper - res.lower <= res.tol + 1e-15


class TestJ1:
    def test_identity(self):
        assert j1_distance(STEP_05, STEP_05) == 0.0

    def test_single_jump_alignment(self):
        assert j1_distance(STEP_05, STEP_055) == pytest.approx(0.05, abs=1e-3)

    def test_split_jump_cannot_match(self):
        half = CadlagPath([0.0, 0.5, 0.51], [0.0, 0.5, 1.0])
        assert j1_distance(STEP_05, half) >= 0.5 - 0.01

    def test_resolution_precondition(self):
        # the bisection stops at tol = uniform / resolution, which must be > 0
        for x, y in [(STEP_05, STEP_055), (STEP_05, STEP_05)]:
            with pytest.raises(PathError, match="resolution"):
                j1_distance(x, y, resolution=0)

    def test_pl_rejected(self):
        ramp = CadlagPath([0.0, 0.4, 0.6], [0.0, 0.0, 1.0], PL)
        with pytest.raises(PreconditionError, match="step_refine"):
            j1_distance(STEP_05, ramp)

    def test_dominates_m1(self, rng):
        for _ in range(30):
            x = make_step_path(rng)
            y = make_step_path(rng)
            res = m1_distance_detailed(x, y)
            assert res.value <= j1_distance(x, y) + res.tol + 1e-12


class TestWeakM1:
    def test_identical_2d(self):
        p = CadlagPath([0.0, 0.5], [[0.0, 1.0], [1.0, 2.0]])
        assert weak_m1_distance(p, p) == 0.0

    def test_uniform_gap_single_coordinate(self):
        x = CadlagPath([0.0], [[1.0, 1.0]])
        y = CadlagPath([0.0], [[1.0, 1.5]])
        assert weak_m1_distance(x, y) == pytest.approx(0.5, abs=1e-3)

    def test_componentwise_max(self):
        # coordinate 1: steps shifted by 0.05; coordinate 2: step vs ramp
        ramp = CadlagPath([0.0, 0.5, 0.51], [0.0, 0.0, 1.0], PL)
        x = CadlagPath(
            STEP_05.times, np.column_stack([STEP_05.values, STEP_05.values])
        )
        yv = np.column_stack(
            [
                np.atleast_2d(eval_path(STEP_055, STEP_055.times))[:, 0],
                np.atleast_2d(eval_path(ramp, STEP_055.times))[:, 0],
            ]
        )
        # build a path pair where coordinates give ~0.05 and ~0.01
        a = weak_m1_distance(
            CadlagPath(STEP_05.times, np.column_stack([STEP_05.values, STEP_05.values])),
            CadlagPath(STEP_055.times, np.column_stack([STEP_055.values, STEP_055.values])),
        )
        assert a == pytest.approx(0.05, abs=1e-3)


def _grid_path(rng, grid, scale, kind):
    """Up to 12 knots on the times k / grid, normal values times scale."""
    t = np.unique(np.concatenate([[0.0], rng.integers(1, grid + 1, 12) / grid]))
    return CadlagPath(t, rng.normal(size=t.size) * scale, kind)


class TestMetricProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_metric_axioms_on_random_steps(self, seed):
        rng = np.random.default_rng(seed)
        x = make_step_path(rng, max_jumps=8)
        y = make_step_path(rng, max_jumps=8)
        z = make_step_path(rng, max_jumps=8)
        dxy = m1_distance_detailed(x, y)
        dyx = m1_distance_detailed(y, x)
        assert dxy.value == dyx.value
        dxz = m1_distance_detailed(x, z)
        dyz = m1_distance_detailed(y, z)
        slack = 1e-6 + dxy.tol + dyz.tol + dxz.tol
        assert dxz.value <= dxy.value + dyz.value + slack
        assert m1_distance(x, x) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([STEP, PL]),
        st.sampled_from([STEP, PL]),
    )
    def test_bracket_within_uniform(self, seed, kind_x, kind_y):
        # knots on a shared coarse grid make common breakpoint times, where
        # the distance can equal the uniform one
        rng = np.random.default_rng(seed)
        grid = int(rng.integers(2, 40))
        scale = 10.0 ** rng.uniform(0.0, 4.0)
        x = _grid_path(rng, grid, scale, kind_x)
        y = _grid_path(rng, grid, scale, kind_y)
        res = m1_distance_detailed(x, y)
        assert res.lower <= res.value <= res.upper <= res.uniform_bound
        assert res.uniform_bound == uniform_distance(x, y)
        if kind_x == kind_y == STEP:
            assert j1_distance(x, y) <= uniform_distance(x, y)

    def test_bracket_at_uniform_rounding(self):
        x, y = PL_AT_UNIFORM
        unif = uniform_distance(x, y)
        pt, pv = completed_graph(x)
        qt, qv = completed_graph(y)
        assert not kernels.frechet_feasible(pt, pv, qt, qv, unif)
        res = m1_distance_detailed(x, y)
        assert res.lower <= res.value <= res.upper <= res.uniform_bound == unif

    def test_ramp_collapse_phenomenon(self):
        # many small same-direction jumps collapse to one in the graph metric
        for w in (0.1, 0.01, 0.001):
            ramp = CadlagPath([0.0, 0.5, 0.5 + w], [0.0, 0.0, 1.0], PL)
            assert m1_distance(STEP_05, ramp) <= w + 1e-3
            refined = step_refine(ramp, 2000)
            assert j1_distance(STEP_05, refined, resolution=8192) >= 0.5 - w


def _densify(gt, gv, spacing):
    pts_t, pts_v = [gt[0]], [gv[0]]
    for i in range(len(gt) - 1):
        seg = max(abs(gt[i + 1] - gt[i]), abs(gv[i + 1] - gv[i]))
        k = max(1, int(np.ceil(seg / spacing)))
        for j in range(1, k + 1):
            w = j / k
            pts_t.append(gt[i] + w * (gt[i + 1] - gt[i]))
            pts_v.append(gv[i] + w * (gv[i + 1] - gv[i]))
    return np.asarray(pts_t), np.asarray(pts_v)


def _discrete_frechet(pt, pv, qt, qv):
    dist = np.maximum(np.abs(pt[:, None] - qt[None, :]), np.abs(pv[:, None] - qv[None, :]))
    m, k = dist.shape
    d = np.empty((m, k))
    d[0, 0] = dist[0, 0]
    for i in range(1, m):
        d[i, 0] = max(d[i - 1, 0], dist[i, 0])
    for j in range(1, k):
        d[0, j] = max(d[0, j - 1], dist[0, j])
    for i in range(1, m):
        for j in range(1, k):
            d[i, j] = max(dist[i, j], min(d[i - 1, j], d[i, j - 1], d[i - 1, j - 1]))
    return d[-1, -1]


class TestAgainstBruteForce:
    def test_m1_matches_discrete_frechet_oracle(self, rng):
        # the discrete Frechet distance on densely resampled graphs brackets
        # the continuous one from above by at most the sampling spacing
        spacing = 0.02
        for _ in range(25):
            x = make_step_path(rng, max_jumps=7)
            y = make_step_path(rng, max_jumps=7)
            res = m1_distance_detailed(x, y, resolution=32768)
            pt, pv = _densify(*completed_graph(x), spacing)
            qt, qv = _densify(*completed_graph(y), spacing)
            oracle = _discrete_frechet(pt, pv, qt, qv)
            assert res.value <= oracle + res.tol + 1e-12
            assert res.value >= oracle - spacing - res.tol - 1e-12

    def test_j1_matches_placement_search_oracle(self, rng):
        # minimize max(time displacement, sup gap) over a candidate grid of
        # jump placements; an upper bound that the DP must not exceed and can
        # undershoot only within the grid resolution
        import itertools

        for _ in range(20):
            x = make_step_path(rng, max_jumps=3)
            y = make_step_path(rng, max_jumps=3)
            unif = uniform_distance(x, y)
            tol = max(unif, 1e-12) / 32768
            dp = j1_distance(x, y, resolution=32768)
            tx = x.times[1:]
            sy = y.times[1:]
            if tx.size == 0:
                assert dp == pytest.approx(unif, abs=tol)
                continue
            cands = []
            for t in tx:
                c = np.concatenate(
                    [np.linspace(max(t - unif, 1e-9), min(t + unif, 1.0), 31), sy]
                )
                cands.append(np.unique(c[c > 0]))
            best = unif
            for combo in itertools.product(*cands):
                u = np.asarray(combo)
                if np.any(np.diff(u) <= 0):
                    continue
                disp = float(np.abs(u - tx).max())
                if disp >= best:
                    continue
                xs = CadlagPath(np.concatenate([[0.0], u]), x.values[:, 0], STEP)
                best = min(best, max(disp, uniform_distance(xs, y)))
            assert dp <= best + tol + 1e-12
            assert dp >= best - 0.08


# repeats and signed zeros: +0.0 and -0.0 compare equal, so no jump
# separates them, yet a vertex must keep the sign its source value has
SIGNED_LEVELS = [0.0, -0.0, 1.0, -1.5, 2.0]


@st.composite
def extraction_paths(draw):
    """1-40 breakpoints on a coarse grid or at random, values from
    SIGNED_LEVELS or a normal."""
    k = draw(st.integers(min_value=0, max_value=39))
    if draw(st.booleans()):
        grid = draw(st.sampled_from([4, 16, 64]))
        inner = [i / grid for i in draw(st.lists(st.integers(1, grid), max_size=k))]
    else:
        inner = draw(st.lists(st.floats(0.001, 1.0), max_size=k))
    times = np.unique(np.concatenate([[0.0], inner]))
    level = st.sampled_from(SIGNED_LEVELS) | st.floats(-3.0, 3.0)
    if draw(st.booleans()):
        seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
        values = np.random.default_rng(seed).normal(size=times.size)
    else:
        values = draw(st.lists(level, min_size=times.size, max_size=times.size))
    return CadlagPath(times, np.asarray(values, dtype=float), draw(st.sampled_from([STEP, PL])))


def _assert_same_arrays(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)
        np.testing.assert_array_equal(np.signbit(g), np.signbit(w))


class TestGraphExtraction:
    """The change-index extraction against the former per-breakpoint loops."""

    @settings(max_examples=300, deadline=None)
    @given(extraction_paths())
    def test_matches_loop_oracle(self, path):
        _assert_same_arrays(completed_graph(path), oracle.completed_graph(path))
        if path.kind == STEP:
            _assert_same_arrays(_jump_sequence(path), oracle.jump_sequence(path))

    def test_signed_zero_keeps_pre_jump_value(self):
        # v[k - 1] is -0.0 while the previous jump level is +0.0
        path = CadlagPath([0.0, 0.25, 0.5, 0.75], [1.0, 0.0, -0.0, 2.0])
        gt, gv = completed_graph(path)
        np.testing.assert_array_equal(gt, [0.0, 0.25, 0.25, 0.75, 0.75, 1.0])
        np.testing.assert_array_equal(gv, [1.0, 1.0, 0.0, -0.0, 2.0, 2.0])
        assert np.signbit(gv).tolist() == [False, False, False, True, False, False]

    def test_returns_fresh_arrays(self):
        path = CadlagPath([0.0, 0.5, 1.0], [0.0, 1.0, 2.0], PL)
        gt, gv = completed_graph(path)
        assert not np.shares_memory(gt, path.times)
        assert not np.shares_memory(gv, path.values)


def _kernel_bisection(x, y, resolution, upper):
    """The M1 bisection of x, y with the kernel asked at every radius, and
    per radius (radius, the kernel's answer, the answer the known bounds
    settle it to or None)."""
    x, y = _canonical_pair(x, y)
    pt, pv = completed_graph(x)
    qt, qv = completed_graph(y)
    false_below, true_above = _settled_bracket(pv, qv, upper)
    decisions = []

    def kernel(d):
        want = bool(kernels.frechet_feasible(pt, pv, qt, qv, d))
        settled = False if d < false_below else True if d > true_above else None
        decisions.append((d, want, settled))
        return want

    return _bisect_metric(x, y, resolution, kernel), decisions


def _bits(res):
    return [float(v).hex() for v in astuple(res)]


def _assert_settled_exact(x, y, resolution, upper):
    """Every radius the known bounds settle gets the kernel's answer, so the
    bounded bisection returns the kernel-only bisection's bits.  Returns
    the result and the number of settled radii."""
    want, decisions = _kernel_bisection(x, y, resolution, upper)
    settled = [(d, kernel, s) for d, kernel, s in decisions if s is not None]
    for d, kernel, s in settled:
        assert s is kernel, d
    res = m1_distance_detailed(x, y, resolution, upper=upper)
    assert _bits(res) == _bits(want) == _bits(m1_distance_detailed(x, y, resolution))
    return res, len(settled)


def _assert_gaps_below(x, y, res):
    """The sup and inf gaps are lower bounds of M1, so of its upper end."""
    vx, vy = x.values[:, 0], y.values[:, 0]
    assert max(abs(vx.max() - vy.max()), abs(vx.min() - vy.min())) <= res.value


def _digest_configs():
    """(name, text, overrides) of every config ``benchmarks/bundle_digests.py``
    prints without ``--full``."""
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "benchmarks")
    sys.path.insert(0, bench)
    try:
        import bundle_digests
    finally:
        sys.path.remove(bench)
    return bundle_digests.CONFIGS + bundle_digests.VARIANTS


@st.composite
def collapse_pairs(draw):
    """A step path on the grid k / n, as ``build_Ln`` makes it, and its
    collapse over blocks of r >= 2 steps; repeated and zero steps occur."""
    n = draw(st.integers(min_value=2, max_value=60))
    r = draw(st.integers(min_value=2, max_value=n))
    step = st.one_of(st.integers(-2, 2).map(float), st.floats(-3.0, 3.0))
    steps = draw(st.lists(step, min_size=n, max_size=n))
    path = CadlagPath(np.arange(n + 1) / n, np.concatenate([[0.0], np.cumsum(steps)]))
    return path, collapse_clusters(path, BlockingScheme(r))


class TestSettledBisection:
    """The sup and inf gaps bound M1 from below and a certified upper end
    (J1 in the contrast check) from above; radii outside them take the
    bound's answer without a kernel call, and that answer must be the
    kernel's (``notes/decisions.md``, "Bisection: certified bounds settle
    decisions")."""

    def test_contrast_replicates_of_the_digest_configs(self, monkeypatch):
        pairs = []
        m1 = lab.m1_distance_detailed

        def recording(x, y, resolution, upper):
            pairs.append((x, y, resolution, upper))
            return m1(x, y, resolution, upper=upper)

        # one CPU: no replicate runs in a forked process, out of sight
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(lab, "m1_distance_detailed", recording)
        configs = _digest_configs()
        for _, text, overrides in configs:
            cfg, _ = config.parse_config(text, overrides=overrides)
            lab.run_j1_vs_m1_contrast(cfg)
        monkeypatch.undo()
        assert len(pairs) >= 4 * len(configs)
        settled = 0
        for x, y, resolution, upper in pairs:
            assert upper == j1_distance(x, y, resolution)
            res, count = _assert_settled_exact(x, y, resolution, upper)
            _assert_gaps_below(x, y, res)
            settled += count
        assert settled > len(pairs)

    @settings(max_examples=80, deadline=None)
    @given(collapse_pairs())
    def test_step_paths_against_their_collapse(self, pair):
        path, collapsed = pair
        upper = j1_distance(path, collapsed, 4096)
        res, _ = _assert_settled_exact(path, collapsed, 4096, upper)
        _assert_gaps_below(path, collapsed, res)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([STEP, PL]))
    def test_random_pairs_bounded_below_only(self, seed, kind):
        rng = np.random.default_rng(seed)
        x = make_step_path(rng, max_jumps=12)
        y = make_step_path(rng, max_jumps=12)
        y = CadlagPath(y.times, y.values, kind)
        res, _ = _assert_settled_exact(x, y, 4096, np.inf)
        _assert_gaps_below(x, y, res)

    def test_margin_scales_with_the_values(self):
        # two tents at a large offset whose M1 is the sup gap: the kernel
        # (and the oracle) answer True at a bisection radius 1e-3 relative
        # below the gap, where the rounding of the offset outweighs it, so a
        # margin relative to the gap alone would settle it wrongly
        off, rise, top = 333598.6377275545, 9.45993790508345e-07, 0.5600603155793924
        gap = 2.1279386848634682e-08
        x = CadlagPath([0.0, top, 1.0], [off, off + rise + gap, off], PL)
        y = CadlagPath([0.0, top, 1.0], [off, off + rise, off], PL)
        _, decisions = _kernel_bisection(x, y, 4096, np.inf)
        sup_gap = x.values.max() - y.values.max()
        early = [d for d, kernel, _ in decisions if kernel and d < sup_gap * (1 - 1e-9)]
        assert early
        pt, pv = completed_graph(x)
        qt, qv = completed_graph(y)
        for d in early:
            assert oracle._frechet_feasible(pt, pv, qt, qv, d)
        # rounding puts even the bisection's upper end below the gap
        res, settled = _assert_settled_exact(x, y, 4096, np.inf)
        assert settled == 0 and res.value < sup_gap


class TestMonotone:
    def test_is_monotone(self):
        assert is_monotone_nondecreasing(STEP_05)
        down = CadlagPath([0.0, 0.5], [1.0, 0.0])
        assert not is_monotone_nondecreasing(down)

    def test_identity(self):
        assert monotone_m1_distance(STEP_05, STEP_05) == 0.0

    def test_single_jump_shift(self):
        assert monotone_m1_distance(STEP_05, STEP_055) == pytest.approx(0.05)

    def test_linear_vs_square(self):
        lin = CadlagPath([0.0, 1.0], [0.0, 1.0], PL)
        tt = np.linspace(0.0, 1.0, 257)
        sq = CadlagPath(tt, tt**2, PL)
        exact = monotone_m1_distance(lin, sq)
        assert exact == pytest.approx(1.0 / 8.0, abs=2e-4)
        assert exact <= uniform_distance(lin, sq)
        # agrees with the free-space route
        assert m1_distance(lin, sq, resolution=8192) == pytest.approx(exact, abs=1e-3)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([STEP, PL]),
        st.sampled_from([STEP, PL]),
    )
    def test_agrees_with_m1_on_random_monotone_steps(self, seed, kind_x, kind_y):
        # the closed form is exact, so the bisection must land within its tol
        rng = np.random.default_rng(seed)
        x = make_step_path(rng)
        y = make_step_path(rng)
        xm = CadlagPath(x.times, np.sort(np.abs(x.values[:, 0])), kind_x)
        ym = CadlagPath(y.times, np.sort(np.abs(y.values[:, 0])), kind_y)
        res = m1_distance_detailed(xm, ym, resolution=16384)
        assert monotone_m1_distance(xm, ym) == pytest.approx(
            res.value, abs=res.tol + 1e-9
        )

    def test_rejects_non_monotone(self):
        down = CadlagPath([0.0, 0.5], [1.0, 0.0])
        with pytest.raises(PreconditionError):
            monotone_m1_distance(down, STEP_05)


class TestCsv:
    def test_roundtrip(self, rng):
        x = make_step_path(rng)
        buf = io.StringIO()
        save_path_csv(x, buf)
        back = load_path_csv(io.StringIO(buf.getvalue()))
        assert back.kind == x.kind
        assert np.array_equal(back.times, x.times)
        assert np.array_equal(back.values, x.values)

    def test_parse_error_carries_row(self):
        bad = "# kind=step d=1\n0,0\nnot_a_number,1\n"
        with pytest.raises(PathError, match="row 3"):
            load_path_csv(io.StringIO(bad))

    def test_column_count_error(self):
        bad = "# kind=step d=2\n0,0\n"
        with pytest.raises(PathError, match="row 2"):
            load_path_csv(io.StringIO(bad))
