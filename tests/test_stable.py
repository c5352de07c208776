import cmath
import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import ks_2samp

from m1lab.clusters import ClusterDistribution
from m1lab.models import (
    LinearSpec,
    RegVarSpec,
    linear_cluster_law,
    linear_extremal_index,
    model_positive_weight,
)
from m1lab.stable import (
    CharTriple,
    StableError,
    _series_blocks,
    charfn_stable,
    cms_sampler,
    gamma1_for,
    levy_exponent,
    levy_marginal_draws,
    simulate_levy_pair,
    stable_params,
    triple_from_cluster,
)


def one_mark(p):
    """The one-mark cluster of the i.i.d. model, +1 w.p. p and -1 otherwise."""
    return ClusterDistribution(np.array([1.0]), p)


class TestTripleFromCluster:
    def test_singleton_positive(self):
        tr = triple_from_cluster(0.8, 1.0, one_mark(1.0))
        assert tr.c_plus == 1.0 and tr.c_minus == 0.0 and tr.r2 == 1.0
        assert tr.p == pytest.approx(1.0)

    def test_singleton_two_point(self):
        tr = triple_from_cluster(0.8, 1.0, one_mark(0.3))
        assert tr.c_plus == pytest.approx(0.3)
        assert tr.c_minus == pytest.approx(0.7)
        assert tr.r2 == 1.0

    def test_gamma_branches(self):
        assert gamma1_for(0.5, 1.0, 1.0, 0.0, 1.0, 0.0) == pytest.approx(1.0)
        # alpha > 1: alpha/(alpha-1) * (p - q - theta*(c+ - c-)) with c+ = p
        assert gamma1_for(1.5, 1.0, 1.0, 0.0, 1.0, 0.0) == pytest.approx(0.0)
        assert gamma1_for(1.0, 1.0, 1.0, 0.0, 1.0, 0.0) == 0.0

    def test_alpha_one_flagged(self):
        tr = triple_from_cluster(1.0, 1.0, one_mark(0.8))
        assert tr.gamma1_flagged
        assert tr.gamma1 == 0.0

    def test_moment_inequality(self):
        # c+ + c- <= E(sum |eta|)^alpha for any cluster law
        lin = LinearSpec((1.0, -0.5, 0.25), RegVarSpec(0.9, p=0.6))
        cl = linear_cluster_law(lin)
        tr = triple_from_cluster(0.9, linear_extremal_index(lin), cl)
        abs_moment = np.sum(np.abs(cl.shape)) ** 0.9
        assert tr.c_plus + tr.c_minus <= abs_moment + 1e-12
        # marks of one sign with p = 1 attain the bound exactly
        lin = LinearSpec((1.0, 0.5), RegVarSpec(1.2, p=1.0))
        tr = triple_from_cluster(1.2, linear_extremal_index(lin), linear_cluster_law(lin), p=1.0)
        assert tr.c_plus == pytest.approx(1.5**1.2) and tr.c_minus == 0.0


class TestCharFn:
    def test_at_origin(self):
        sp = stable_params(triple_from_cluster(0.8, 1.0, one_mark(1.0)))
        assert charfn_stable(0.0, sp) == 1.0 + 0.0j

    def test_conjugate_symmetry(self):
        sp = stable_params(triple_from_cluster(1.2, 1.0, one_mark(0.7)))
        for z in (0.5, 1.0, 3.0):
            assert charfn_stable(-z, sp) == pytest.approx(
                charfn_stable(z, sp).conjugate()
            )

    def test_cauchy_case(self):
        from m1lab.stable import StableParams

        sp = StableParams(alpha=1.0, c=1.0, beta=0.0, tau=0.0)
        assert charfn_stable(1.0, sp) == pytest.approx(math.exp(-1.0))


class TestLevyExponent:
    def test_zero(self):
        tr = triple_from_cluster(0.8, 1.0, one_mark(1.0))
        assert levy_exponent(0.0, tr) == 0.0 + 0.0j

    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_matches_charfn_on_grid(self, alpha):
        tr = triple_from_cluster(alpha, 1.0, one_mark(1.0))
        sp = stable_params(tr)
        for z in np.linspace(-5.0, 5.0, 21):
            if z == 0.0:
                continue
            lhs = cmath.exp(levy_exponent(z, tr))
            rhs = complex(charfn_stable(z, sp))
            assert abs(lhs - rhs) / abs(rhs) <= 1e-3

    def test_two_sided_and_clustered(self):
        lin = LinearSpec((1.0, 0.5), RegVarSpec(0.8, p=0.7))
        tr = triple_from_cluster(
            0.8, linear_extremal_index(lin), linear_cluster_law(lin)
        )
        sp = stable_params(tr)
        for z in (-3.0, -1.0, 0.5, 2.0):
            lhs = cmath.exp(levy_exponent(z, tr))
            rhs = complex(charfn_stable(z, sp))
            assert abs(lhs - rhs) / abs(rhs) <= 1e-3

    def test_positive_measure_imaginary_sign(self):
        # one-sided small-alpha law: Im part of the exponent fixed for z > 0
        tr = triple_from_cluster(0.4, 1.0, one_mark(1.0))
        for z in (0.5, 1.0, 2.0):
            assert levy_exponent(z, tr).imag > 0.0

    def test_alpha_one_calibrated(self):
        tr = triple_from_cluster(1.0, 1.0, one_mark(0.8))
        sp = stable_params(tr)
        for z in (-2.0, -0.5, 0.5, 2.0):
            lhs = cmath.exp(levy_exponent(z, tr))
            rhs = complex(charfn_stable(z, sp))
            assert abs(lhs - rhs) / abs(rhs) <= 1e-2


class TestStableParams:
    def test_symmetric_beta_zero(self):
        tr = triple_from_cluster(0.8, 1.0, one_mark(0.5))
        assert stable_params(tr).beta == pytest.approx(0.0)

    def test_one_sided_beta_one(self):
        tr = triple_from_cluster(0.8, 1.0, one_mark(1.0))
        assert stable_params(tr).beta == 1.0

    def test_degenerate_rejected(self):
        tr = CharTriple(
            alpha=0.8, theta=1.0, c_plus=0.0, c_minus=0.0, gamma1=0.0, r2=1.0, gamma2=1.0
        )
        with pytest.raises(StableError):
            stable_params(tr)

    def test_strictly_stable_below_one(self):
        tr = triple_from_cluster(0.8, 1.0, one_mark(0.7))
        assert stable_params(tr).tau == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("shape", [(1.0,), (1.0, 0.5), (1.0, -0.6, 0.3), (-1.0, 0.4)])
    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 0.8, 1.0])
    def test_alpha_one_tau_closed_form_matches_quadrature(self, shape, p):
        # tau = gamma1 + theta (c+ - c-)(1 - gamma_E) against the imaginary
        # part of the quadrature exponent at z = 1, where log|z| vanishes;
        # (-1, 0.4) has a negative mark sum
        tr = triple_from_cluster(1.0, 0.7, ClusterDistribution(np.array(shape), p), p=p)
        assert abs(stable_params(tr).tau - levy_exponent(1.0, tr).imag) <= 1e-12


class TestCms:
    def test_symmetric_sign_balance(self):
        from m1lab.stable import StableParams

        sp = StableParams(alpha=1.3, c=1.0, beta=0.0, tau=0.0)
        x = cms_sampler(sp, 40000, seed=4)
        se = 0.5 / math.sqrt(x.size)
        assert abs(np.mean(x > 0) - 0.5) <= 3.0 * se

    def test_near_gaussian_central_band(self):
        from m1lab.stable import StableParams
        from scipy.stats import norm

        sp = StableParams(alpha=1.95, c=1.0, beta=0.0, tau=0.0)
        x = cms_sampler(sp, 10**5, seed=5)
        # scale: exp(-c|z|^a) ~ N(0, 2c^(2/a)-ish); compare central quantiles
        sigma = math.sqrt(2.0) * sp.c ** (1.0 / sp.alpha)
        for q in (0.25, 0.4, 0.6, 0.75):
            assert np.quantile(x, q) == pytest.approx(
                norm.ppf(q, scale=sigma), abs=0.1
            )

    @pytest.mark.parametrize("alpha,beta", [(0.7, 1.0), (1.4, 0.5), (1.0, 0.3)])
    def test_empirical_charfn_matches(self, alpha, beta):
        from m1lab.stable import StableParams

        sp = StableParams(alpha=alpha, c=0.9, beta=beta, tau=0.2)
        x = cms_sampler(sp, 2 * 10**5, seed=6)
        for z in (0.5, 1.0, 2.0):
            emp = np.exp(1j * z * x)
            est = emp.mean()
            se = emp.std() / math.sqrt(x.size)
            want = complex(charfn_stable(z, sp))
            assert abs(est - want) <= 3.0 * (abs(se) + 1e-4)


class TestSeries:
    def test_l2_path_nondecreasing_always(self):
        for alpha in (0.5, 0.8, 1.2, 1.5):
            tr = triple_from_cluster(alpha, 1.0, one_mark(0.6))
            for seed in range(5):
                pair, meta = simulate_levy_pair(
                    tr, one_mark(0.6), n_pts=1200, seed=seed
                )
                assert np.all(np.diff(pair.l2.values[:, 0]) >= -1e-15)

    def test_l1_jumps_subset_of_l2(self):
        # on the series itself, so the drift corrections do not mask the jumps
        lin = LinearSpec((1.0, 0.5), RegVarSpec(0.8, p=1.0))
        cl = linear_cluster_law(lin)
        tr = triple_from_cluster(0.8, linear_extremal_index(lin), cl)
        _lo, s = next(_series_blocks(tr, cl, 1, 1200, 9))
        assert set(np.flatnonzero(s.jump1)) <= set(np.flatnonzero(s.jump2))

    def test_npts_floor(self):
        tr = triple_from_cluster(0.8, 1.0, one_mark(1.0))
        with pytest.raises(StableError):
            levy_marginal_draws(tr, one_mark(1.0), [1.0], 10, n_pts=100)

    def test_clustered_draws_hold_no_mark_array(self):
        # one sign per point: a width-2 cluster peaks where the singleton does
        lin = LinearSpec((1.0, 0.5), RegVarSpec(0.8, p=0.5))
        peaks = []
        for cl, theta in [
            (one_mark(0.5), 1.0),
            (linear_cluster_law(lin), linear_extremal_index(lin)),
        ]:
            tr = triple_from_cluster(0.8, theta, cl)
            tracemalloc.start()
            try:
                levy_marginal_draws(tr, cl, [0.5, 1.0], 1000, n_pts=1000, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 2**20

    def test_tail_sd_gate_for_heavy_truncation(self):
        tr = triple_from_cluster(1.9, 1.0, one_mark(1.0))
        with pytest.raises(StableError, match="increase n_pts"):
            levy_marginal_draws(tr, one_mark(1.0), [1.0], 5, n_pts=1000)

    @pytest.mark.parametrize("alpha", [0.5, 0.8, 1.2, 1.5])
    def test_series_vs_cms(self, alpha):
        cl = one_mark(1.0)
        tr = triple_from_cluster(alpha, 1.0, cl)
        sp = stable_params(tr)
        d = levy_marginal_draws(tr, cl, [1.0], 2000, n_pts=2000, seed=11)
        cms = cms_sampler(sp, 2000, seed=12)
        assert ks_2samp(d["l1"][:, 0], cms).statistic < 0.06

    def test_l2_total_matches_half_index_law(self):
        tr = triple_from_cluster(0.5, 1.0, one_mark(1.0))
        d = levy_marginal_draws(tr, one_mark(1.0), [1.0], 2000, 2000, seed=15)
        sp2 = stable_params(tr.l2_triple())
        cms2 = cms_sampler(sp2, 2000, seed=16)
        assert ks_2samp(d["l2_total"], cms2).statistic < 0.06

    @pytest.mark.parametrize("alpha", [0.8, 1.5])
    def test_self_similarity(self, alpha):
        cl = one_mark(1.0)
        tr = triple_from_cluster(alpha, 1.0, cl)
        sp = stable_params(tr)
        s = 0.5
        d = levy_marginal_draws(tr, cl, [s, 1.0], 4000, 2000, seed=21)
        # strictly stable part: L1(t) - t*tau scales like t^{1/alpha}
        at_s = d["l1"][:, 0] - s * sp.tau
        at_1 = s ** (1.0 / alpha) * (d["l1"][:, 1] - sp.tau)
        assert ks_2samp(at_s, at_1).statistic < 0.06

    def test_cluster_clusters_share_poisson_points(self):
        # one draw: l1_total and l2_total come from the same realization
        cl = one_mark(1.0)
        tr = triple_from_cluster(0.8, 1.0, cl)
        pair, meta = simulate_levy_pair(tr, cl, n_pts=1500, seed=3)
        assert meta["l1_total"] == pytest.approx(pair.l1.values[-1, 0], rel=1e-9)
        assert meta["l2_total"] == pytest.approx(pair.l2.values[-1, 0], rel=1e-9)

    @pytest.mark.parametrize("alpha", [0.5, 0.8, 1.2, 1.5])
    @pytest.mark.parametrize("p", [0.5, 0.6, 0.7, 1.0])
    @pytest.mark.parametrize("coeffs", [(1.0,), (1.0, 0.5), (1.0, -0.6, 0.3)])
    def test_path_and_draws_share_one_series(self, alpha, coeffs, p):
        # At one seed both samplers draw the same Poisson points and marks, so
        # the path's totals are the single draw's values at t = 1, exactly.
        spec = LinearSpec(coeffs, RegVarSpec(alpha, p=p))
        cl = linear_cluster_law(spec)
        tr = triple_from_cluster(
            alpha, linear_extremal_index(spec), cl, p=model_positive_weight(spec)
        )
        for seed in range(8):
            pair, meta = simulate_levy_pair(tr, cl, n_pts=1000, seed=seed)
            d = levy_marginal_draws(tr, cl, [1.0], 1, n_pts=1000, seed=seed)
            assert meta["l1_total"] == d["l1"][0, 0]
            assert pair.l1.values[-1, 0] == d["l1"][0, 0]
            assert meta["l2_total"] == d["l2_total"][0]
