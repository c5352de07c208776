import math

import numpy as np
import pytest

from m1lab.lab import _partial_sum_marginals
from m1lab.models import LinearSpec, RegVarSpec, an_theoretical, sample_model
from m1lab.paths import eval_path
from m1lab.sumproc import (
    CenteringConstants,
    JointPathPair,
    SumProcessError,
    build_Ln,
    centering_constants,
    collapse_clusters,
    save_joint_csv,
    self_normalized_at,
    self_normalized_path,
)
from m1lab.tailstats import BlockingScheme


class TestCentering:
    def test_zero_below_one(self):
        cc = centering_constants(LinearSpec((1.0,), RegVarSpec(0.8, p=1.0)), 100.0)
        assert cc.b1n == 0.0 and cc.b2n == 0.0

    def test_closed_form_alpha_15(self):
        spec = LinearSpec((1.0,), RegVarSpec(1.5, p=1.0))
        n = 10**4
        a_n = an_theoretical(spec, n)
        cc = centering_constants(spec, a_n)
        want = (1.5 / 0.5) * (1.0 - a_n ** (-0.5)) / a_n
        assert cc.b1n == pytest.approx(want, rel=1e-12)

    def test_symmetric_first_moment_vanishes(self):
        spec = LinearSpec((1.0,), RegVarSpec(1.5, p=0.5))
        cc = centering_constants(spec, 100.0)
        assert cc.b1n == 0.0
        assert cc.b2n > 0.0

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 0.7, 1.0])
    def test_order_zero_takes_closed_form(self, p):
        # the i.i.d. model is the order-0 moving average: exact, se 0
        spec = LinearSpec((1.0,), RegVarSpec(1.5, p=p))
        n = 10**4
        a_n = an_theoretical(spec, n)
        cc = centering_constants(spec, a_n)
        m1 = (1.5 / 0.5) * (1.0 - a_n ** (-0.5))
        assert cc.b1n == pytest.approx((2.0 * p - 1.0) * m1 / a_n, rel=1e-12, abs=1e-15)
        assert cc.b2n == pytest.approx(3.0 * (a_n**0.5 - 1.0) / a_n**2, rel=1e-12)
        assert (cc.se_b1n, cc.se_b2n) == (0.0, 0.0)
        # a longer moving average at unit scale still takes Monte Carlo
        ma1 = LinearSpec((1.0, 0.5), RegVarSpec(1.5, p=p))
        assert centering_constants(ma1, a_n).se_b2n > 0.0

    def test_monte_carlo_branch_matches_closed_form(self):
        # the order-1 model (1, 0) has the i.i.d. law but takes Monte Carlo
        spec = LinearSpec((1.0,), RegVarSpec(1.5, p=1.0))
        n = 10**4
        a_n = an_theoretical(spec, n)
        exact = centering_constants(spec, a_n)
        mc = centering_constants(LinearSpec((1.0, 0.0), spec.innovation), a_n)
        assert mc.b1n == pytest.approx(exact.b1n, rel=0.05)
        assert mc.se_b1n > 0.0

    # (c0, scale, p, alpha): X = c0 * scale * Z with Z the unit Pareto
    SCALED = [(1.0, 3.7, 0.7, 1.5), (-2.0, 1.0, 0.7, 1.5), (1.0, 2.0**8, 1.0, 1.2),
              (0.5, 1.0, 0.3, 1.8), (2.0, 1.0, 0.5, 1.5)]

    @pytest.mark.parametrize("c0,scale,p,alpha", SCALED)
    def test_scaled_order_zero_closed_form(self, c0, scale, p, alpha):
        spec = LinearSpec((c0,), RegVarSpec(alpha, p=p, scale=scale))
        n = 10**4
        a_n = an_theoretical(spec, n)
        cc = centering_constants(spec, a_n)
        assert (cc.se_b1n, cc.se_b2n) == (0.0, 0.0)
        # against a Monte Carlo of the same model, within 4 se
        x = sample_model(spec, 10**6, 77).values / a_n
        t1 = np.where(np.abs(x) <= 1.0, x, 0.0)
        t2 = np.where(x * x <= 1.0, x * x, 0.0)
        for exact, t in ((cc.b1n, t1), (cc.b2n, t2)):
            se = t.std(ddof=1) / math.sqrt(t.size)
            assert abs(t.mean() - exact) <= 4.0 * se

    def test_scaled_order_zero_equals_unit_model_rescaled(self):
        # X = c Z: b1n(a_n) of c Z is sign(c) b1n(a_n/|c|) of Z, b2n likewise
        rv = RegVarSpec(1.5, p=0.7)
        a_n = 123.0
        unit = centering_constants(LinearSpec((1.0,), rv), a_n / 2.0)
        neg = centering_constants(LinearSpec((-2.0,), rv), a_n)
        assert neg.b1n == pytest.approx(-unit.b1n, rel=1e-14)
        assert neg.b2n == pytest.approx(unit.b2n, rel=1e-14)


class TestBuildLn:
    def test_two_point_example(self):
        pair = build_Ln([1.0, -1.0], 1.0)
        assert np.array_equal(pair.l1.values[:, 0], [0.0, 1.0, 0.0])
        assert np.array_equal(pair.l2.values[:, 0], [0.0, 1.0, 2.0])

    def test_uncentered_l2_total_exact(self, rng):
        x = rng.standard_normal(100)
        pair = build_Ln(x, 2.0)
        assert pair.l2.values[-1, 0] * 4.0 == pytest.approx(np.sum(x * x), rel=1e-12)

    def test_uncentered_l2_nondecreasing(self, rng):
        x = rng.standard_normal(500)
        pair = build_Ln(x, 1.0)
        assert np.all(np.diff(pair.l2.values[:, 0]) >= 0.0)

    def test_centered_symmetric_mean_near_zero(self):
        # the lab's centered partial sums, at the final grid time
        spec = LinearSpec((1.0,), RegVarSpec(1.5, p=0.5))
        rep1 = _partial_sum_marginals(spec, 500, [1.0], 1000, 17)[0]
        finals = rep1[:, -1]
        se = finals.std(ddof=1) / math.sqrt(finals.size)
        assert abs(finals.mean()) <= 4.0 * se


class TestSelfNormalized:
    def test_single_point_sign(self):
        p = self_normalized_path([3.0])
        assert eval_path(p, 1.0)[0] == 1.0
        q = self_normalized_path([-3.0])
        assert eval_path(q, 1.0)[0] == -1.0

    def test_bitwise_scale_invariance_pow2(self, rng):
        for _ in range(20):
            x = rng.standard_normal(200) * (1.0 - rng.random(200)) ** (-1.0 / 1.2)
            base = self_normalized_path(x)
            for lam in (2.0**10, 2.0**-20, 0.5, 4.0):
                scaled = self_normalized_path(lam * x)
                assert np.array_equal(base.values, scaled.values)

    def test_general_scale_invariance_within_ulps(self, rng):
        x = rng.standard_normal(300)
        a = self_normalized_path(x).values
        b = self_normalized_path(1e6 * x).values
        # non-power-of-two factors perturb each input by half an ulp; the
        # partial sums then agree to a few ulps rather than bitwise
        assert np.max(np.abs(a - b) / np.maximum(1.0, np.abs(a))) <= 1e-15

    def test_antisymmetry_bitwise(self, rng):
        x = rng.standard_normal(257)
        a = self_normalized_path(x).values
        b = self_normalized_path(-x).values
        assert np.array_equal(a, -b)

    def test_sup_bound_cauchy_schwarz(self, rng):
        # |S_k| <= sqrt(k) V_n <= sqrt(n) V_n
        for _ in range(200):
            n = int(rng.integers(1, 64))
            x = rng.standard_normal(n) * (1.0 - rng.random(n)) ** (-1.0)
            p = self_normalized_path(x)
            assert np.max(np.abs(p.values)) <= math.sqrt(n) + 1e-12

    def test_zero_data_rejected(self):
        with pytest.raises(SumProcessError):
            self_normalized_path(np.zeros(10))

    def test_grid_evaluation_matches_path(self, rng):
        x = rng.standard_normal(97)
        grid = np.array([0.25, 0.5, 0.75, 1.0])
        p = self_normalized_path(x)
        assert np.allclose(
            self_normalized_at(x, grid), np.atleast_2d(eval_path(p, grid))[:, 0]
        )


class TestCollapse:
    def test_identity_when_rn_one(self, rng):
        x = rng.standard_normal(50)
        p = self_normalized_path(x)
        assert collapse_clusters(p, BlockingScheme(1)) is p

    def test_full_collapse(self, rng):
        x = rng.standard_normal(50)
        p = self_normalized_path(x)
        c = collapse_clusters(p, BlockingScheme(50))
        assert np.array_equal(c.times, [0.0, 1.0])
        assert c.values[1, 0] == p.values[-1, 0]

    def test_rn_exceeds_n(self, rng):
        p = self_normalized_path(rng.standard_normal(10))
        with pytest.raises(SumProcessError):
            collapse_clusters(p, BlockingScheme(11))

    def test_collapse_tames_m1_not_j1(self):
        # clustered model: collapsed path is M1-close but J1-far
        from m1lab.models import sample_linear
        from m1lab.paths import j1_distance, m1_distance

        lin = LinearSpec((1.0, 1.0), RegVarSpec(0.8, p=1.0))
        n = 400
        s = sample_linear(lin, n, seed=5)
        pair = build_Ln(s.values, an_theoretical(lin, n))
        path = pair.l1
        collapsed = collapse_clusters(path, BlockingScheme.from_exponent(n))
        m1 = m1_distance(path, collapsed, resolution=4 * n + 16)
        j1 = j1_distance(path, collapsed, resolution=4 * n + 16)
        assert m1 < j1


class TestJointCsv:
    def test_header_and_rows(self, tmp_path):
        pair = build_Ln([1.0, -1.0], 1.0)
        f = tmp_path / "pair.csv"
        save_joint_csv(pair, str(f))
        lines = f.read_text().splitlines()
        assert lines[0].startswith("# n=2 an=1 u=none b1n=0 b2n=0")
        assert lines[1] == "t,l1,l2"
        assert len(lines) == 5
