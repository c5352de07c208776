import numpy as np
import pytest

from m1lab.models import (
    LinearSpec,
    RegVarSpec,
    an_theoretical,
    derive_seed,
    sample_linear,
)
from m1lab.tailstats import (
    BlockingScheme,
    EstimatorError,
    TailDiagnostics,
    an_empirical,
    anticluster_diagnostic,
    diagnose,
    extremal_index_blocks,
    hill_alpha,
    sign_switch_diagnostic,
)


class TestHill:
    def test_exact_pareto_alpha_one(self):
        s = sample_linear(LinearSpec((1.0,), RegVarSpec(1.0, p=1.0)), 10**6, seed=5)
        assert hill_alpha(s.values, 10**4) == pytest.approx(1.0, abs=0.05)

    def test_exact_pareto_alpha_half(self):
        s = sample_linear(LinearSpec((1.0,), RegVarSpec(0.5, p=1.0)), 10**6, seed=6)
        assert hill_alpha(s.values, 10**4) == pytest.approx(0.5, abs=0.03)

    def test_scale_invariance_exact_for_pow2(self):
        s = sample_linear(LinearSpec((1.0,), RegVarSpec(1.0)), 10**4, seed=7)
        assert hill_alpha(8.0 * s.values, 500) == hill_alpha(s.values, 500)

    def test_scale_invariance_near_exact_generally(self):
        s = sample_linear(LinearSpec((1.0,), RegVarSpec(1.0)), 10**4, seed=7)
        assert hill_alpha(10.0 * s.values, 500) == pytest.approx(
            hill_alpha(s.values, 500), rel=1e-12
        )

    def test_k_bounds(self):
        with pytest.raises(EstimatorError):
            hill_alpha([1.0, 2.0, 3.0], 0)
        with pytest.raises(EstimatorError):
            hill_alpha([1.0, 2.0, 3.0], 3)

    def test_zero_ties_rejected(self):
        with pytest.raises(EstimatorError):
            hill_alpha([0.0, 0.0, 0.0, 0.0], 2)


class TestNorming:
    def test_empirical_matches_theoretical_on_pool(self):
        spec = LinearSpec((1.0,), RegVarSpec(1.0, p=1.0))
        n = 10**4
        pooled = np.concatenate(
            [sample_linear(spec, n, derive_seed(55, r)).values for r in range(200)]
        )
        assert an_empirical(pooled, n) == pytest.approx(
            an_theoretical(spec, n), rel=0.15
        )

    def test_needs_two(self):
        with pytest.raises(EstimatorError):
            an_empirical([1.0], 1)


class TestBlocksEstimator:
    def test_iid_near_one(self):
        n = 10**5
        vals = []
        for rep in range(50):
            s = sample_linear(LinearSpec((1.0,), RegVarSpec(1.0, p=1.0)), n, derive_seed(9, rep))
            u = np.quantile(np.abs(s.values), 1.0 - 25.0 / n)
            vals.append(
                extremal_index_blocks(s.values, BlockingScheme.from_exponent(n), u)
            )
        assert 0.88 <= np.mean(vals) <= 1.0

    def test_ma_recovery(self):
        n = 10**5
        for coeffs, theta in [((1.0, 0.5), 2.0 / 3.0), ((1.0, 1.0), 0.5)]:
            vals = []
            for rep in range(30):
                s = sample_linear(
                    LinearSpec(coeffs, RegVarSpec(1.0, p=1.0)), n, derive_seed(13, rep)
                )
                u = np.quantile(np.abs(s.values), 1.0 - 25.0 / n)
                vals.append(
                    extremal_index_blocks(s.values, BlockingScheme.from_exponent(n), u)
                )
            assert np.mean(vals) == pytest.approx(theta, abs=0.08)

    def test_zero_exceedances(self):
        with pytest.raises(EstimatorError):
            extremal_index_blocks(np.ones(100), BlockingScheme(10), 5.0)

    def test_scale_invariance_pow2(self):
        s = sample_linear(LinearSpec((1.0,), RegVarSpec(1.0)), 10**4, seed=3)
        u = np.quantile(np.abs(s.values), 0.99)
        sch = BlockingScheme.from_exponent(10**4)
        assert extremal_index_blocks(4.0 * s.values, sch, 4.0 * u) == (
            extremal_index_blocks(s.values, sch, u)
        )


class TestAnticluster:
    def test_iid_matches_independence_form(self):
        n = 10**5
        u = 0.05  # threshold u * a_n; exceedance probability u^{-1}/n exactly
        spec = LinearSpec((1.0,), RegVarSpec(1.0, p=1.0))
        scheme = BlockingScheme.from_exponent(n)
        a_n = an_theoretical(spec, n)
        curves = []
        for rep in range(30):
            s = sample_linear(spec, n, derive_seed(31, rep))
            curve = anticluster_diagnostic(s.values, scheme, u * a_n, [1, 5, 20])
            curves.append([curve[m] for m in (1, 5, 20)])
        mean_curve = np.mean(curves, axis=0)
        p_exc = 1.0 / (u * a_n)
        for m, got in zip((1, 5, 20), mean_curve):
            want = 1.0 - (1.0 - p_exc) ** (2 * (scheme.r_n - m))
            assert got == pytest.approx(want, abs=0.03)

    def test_ma_drops_to_iid_level_beyond_range(self):
        n = 10**5
        lin = LinearSpec((1.0, 0.5), RegVarSpec(1.0, p=1.0))
        s = sample_linear(lin, n, seed=77)
        scheme = BlockingScheme.from_exponent(n)
        a_n = an_theoretical(lin, n)
        curve = anticluster_diagnostic(s.values, scheme, 0.05 * a_n, [1, 2, 5])
        assert curve[1] > 0.25  # lag-1 dependence visible
        assert curve[2] < curve[1] - 0.1
        assert curve[5] < curve[1] - 0.1

    def test_empty_window_at_rn(self):
        n = 10**4
        s = sample_linear(LinearSpec((1.0,), RegVarSpec(1.0)), n, seed=8)
        scheme = BlockingScheme.from_exponent(n)
        curve = anticluster_diagnostic(
            s.values, scheme, np.quantile(np.abs(s.values), 0.99), [scheme.r_n]
        )
        assert curve[scheme.r_n] == 0.0

    def test_monotone_nonincreasing_up_to_noise(self):
        n = 10**5
        lin = LinearSpec((1.0, 0.7), RegVarSpec(1.0, p=1.0))
        scheme = BlockingScheme.from_exponent(n)
        a_n = an_theoretical(lin, n)
        m_grid = [1, 2, 3, 5, 8, 13]
        curves = []
        for rep in range(50):
            s = sample_linear(lin, n, derive_seed(41, rep))
            curve = anticluster_diagnostic(s.values, scheme, 0.05 * a_n, m_grid)
            curves.append([curve[m] for m in m_grid])
        mean_curve = np.mean(curves, axis=0)
        increases = np.sum(np.diff(mean_curve) > 1e-3)
        assert increases <= 0.05 * len(m_grid)


def _anticluster_loop(data, scheme, u, m_grid):
    """The per-anchor loop anticluster_diagnostic replaced, copied unchanged."""
    x = np.abs(np.asarray(data, dtype=float))
    n = x.size
    r_n = scheme.r_n
    anchors = np.flatnonzero(x > u)
    if anchors.size == 0:
        raise EstimatorError("no anchor exceedances")
    exceed = (x > u).astype(np.int64)
    csum = np.concatenate([[0], np.cumsum(exceed)])

    def window_count(i, lo_off, hi_off):
        lo = max(i + lo_off, 0)
        hi = min(i + hi_off, n - 1)
        if hi < lo:
            return 0
        return csum[hi + 1] - csum[lo]

    curve = {}
    for m in m_grid:
        m = int(m)
        if m < 1 or m > r_n:
            raise EstimatorError("m grid must lie in [1, r_n]")
        if m == r_n:
            curve[m] = 0.0
            continue
        hits = 0
        for i in anchors:
            c = window_count(i, -(r_n - 1), -m) + window_count(i, m, r_n - 1)
            if c > 0:
                hits += 1
        curve[m] = hits / anchors.size
    return curve


class TestAnticlusterAgainstLoop:
    @pytest.mark.parametrize("seed", range(40))
    def test_same_curve(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 400))
        r_n = int(rng.integers(1, n + 1))
        x = rng.standard_cauchy(n)
        u = float(np.quantile(np.abs(x), rng.uniform(0.0, 0.99)))
        # exceedances in the first and last r_n places, where windows clip
        x[0] = x[-1] = 2.0 * abs(u) + 1.0
        m_grid = sorted({1, r_n, *rng.integers(1, r_n + 1, 4).tolist()})
        scheme = BlockingScheme(r_n)
        got = anticluster_diagnostic(x, scheme, u, m_grid)
        want = _anticluster_loop(x, scheme, u, m_grid)
        assert list(got) == list(want)
        for m in want:
            assert type(got[m]) is float
            assert got[m] == want[m], m

    def test_edges_and_full_window(self):
        # anchors at both ends, m = r_n and windows wider than the sample
        x = np.array([5.0, 0.0, 5.0, 0.0, 0.0, 5.0, 0.0, 5.0])
        for r_n in (1, 2, 3, 7, 8):
            scheme = BlockingScheme(r_n)
            m_grid = list(range(1, r_n + 1))
            assert anticluster_diagnostic(x, scheme, 1.0, m_grid) == _anticluster_loop(
                x, scheme, 1.0, m_grid
            )

    def test_m_outside_range(self):
        x = np.array([5.0, 0.0, 5.0])
        for m in (0, 3):
            with pytest.raises(EstimatorError):
                anticluster_diagnostic(x, BlockingScheme(2), 1.0, [m])


class TestSignSwitch:
    def test_all_positive_no_violations(self):
        s = sample_linear(LinearSpec((1.0,), RegVarSpec(1.0, p=1.0)), 10**4, seed=2)
        scheme = BlockingScheme.from_exponent(10**4)
        u = np.quantile(np.abs(s.values), 0.99)
        assert sign_switch_diagnostic(s.values, scheme, u) == 0

    def test_alternating_coefficients_force_violations(self):
        lin = LinearSpec((1.0, -1.0), RegVarSpec(1.0, p=1.0))
        s = sample_linear(lin, 10**5, seed=4)
        scheme = BlockingScheme.from_exponent(10**5)
        u = np.quantile(np.abs(s.values), 0.995)
        assert sign_switch_diagnostic(s.values, scheme, u) > 0

    def test_symmetric_iid_rarely_violates(self):
        s = sample_linear(LinearSpec((1.0,), RegVarSpec(1.0, p=0.5)), 10**5, seed=6)
        scheme = BlockingScheme.from_exponent(10**5)
        u = np.quantile(np.abs(s.values), 1.0 - 20.0 / 10**5)
        # with ~20 exceedances in ~316 blocks, collisions are rare
        assert sign_switch_diagnostic(s.values, scheme, u) <= 2


class TestDiagnosticsBundle:
    def test_jsonl_fields(self):
        s = sample_linear(LinearSpec((1.0,), RegVarSpec(1.0, p=1.0)), 10**4, seed=61)
        diag = diagnose(s.values, BlockingScheme.from_exponent(10**4))
        recs = diag.jsonl_records(replicate=3)
        names = {r["diagnostic"] for r in recs}
        assert {"tail_summary", "sign_switch", "anticluster"} <= names
        summary = next(r for r in recs if r["diagnostic"] == "tail_summary")
        assert {"alpha_hat", "an_hat", "theta_hat"} <= set(summary)
        assert summary["mixing_assumed"] is True
        anticluster = [r for r in recs if r["diagnostic"] == "anticluster"]
        assert all({"m", "prob"} <= set(r) for r in anticluster)
        assert all(0.0 <= r["prob"] <= 1.0 for r in anticluster)
        assert 0.0 < diag.theta_hat <= 1.0
