import math

import numpy as np
import pytest

import mc_oracle as oracle
from m1lab.clusters import ClusterDistribution
from m1lab.models import (
    GarchSpec,
    LinearSpec,
    ModelError,
    RegVarSpec,
    SquaredGarchSpec,
    an_theoretical,
    derive_seed,
    garch_moment,
    linear_cluster_law,
    linear_extremal_index,
    linear_tail_ratio,
    model_alpha,
    model_cluster_law,
    model_extremal_index,
    model_positive_weight,
    replicate_samples,
    sample_garch,
    sample_linear,
    sample_model,
    sample_squared_garch,
    seeded_rng,
    solve_garch_alpha,
    stream_seed,
)
from m1lab.stable import _series_blocks, triple_from_cluster
from m1lab.tailstats import BlockingScheme, hill_alpha, sign_switch_diagnostic


class TestRegVarSpec:
    def test_alpha_range(self):
        with pytest.raises(ModelError):
            RegVarSpec(2.5)
        with pytest.raises(ModelError):
            RegVarSpec(0.0)

    def test_q_complement(self):
        assert RegVarSpec(1.0, p=0.3).q == pytest.approx(0.7)

    @pytest.mark.parametrize("build", [
        lambda: RegVarSpec(1.0, scale=math.nan),
        lambda: GarchSpec(math.nan, 0.5, 0.3),
        lambda: GarchSpec(1.0, math.nan, 0.3),
        lambda: GarchSpec(1.0, 0.5, math.nan),
    ])
    def test_nan_parameters_refused(self, build):
        # NaN fails every comparison, so each check asks for the valid range
        with pytest.raises(ModelError):
            build()


class TestIid:
    def test_extreme_quantile_near_norming(self):
        # alpha=1, n=1e6: the (1 - 1/n)-quantile targets n^{1/alpha}
        s = sample_linear(LinearSpec((1.0,), RegVarSpec(1.0, p=1.0)), 10**6, seed=42)
        q = np.quantile(np.abs(s.values), 1.0 - 1e-6)
        assert 0.3 * 10**6 <= q <= 3.0 * 10**6

    def test_all_positive_when_p_one(self):
        s = sample_linear(LinearSpec((1.0,), RegVarSpec(0.8, p=1.0)), 10**4, seed=1)
        assert np.all(s.values > 0)

    def test_deterministic(self):
        a = sample_linear(LinearSpec((1.0,), RegVarSpec(1.2, p=0.5)), 1000, seed=7)
        b = sample_linear(LinearSpec((1.0,), RegVarSpec(1.2, p=0.5)), 1000, seed=7)
        assert np.array_equal(a.values, b.values)


# the order-0 grid: tail index, positive-tail weight, scale, sample size
ORDER0_ALPHAS = (0.3, 0.5, 0.8, 1.0, 1.2, 1.5, 1.9)
ORDER0_PS = (0.0, 0.3, 0.5, 0.7, 1.0)
ORDER0_SCALES = (1.0, 2.0**8, 1.0 + 1e-12, 3.7)
ORDER0_NS = (1, 7, 100, 10**3, 10**4)


class TestLinear:
    def test_order_zero_matches_iid(self):
        # the i.i.d. model is the order-0 moving average: its draws are those
        # of the former i.i.d. sampler, bit for bit, over the order-0 grid
        for alpha in ORDER0_ALPHAS:
            for p in ORDER0_PS:
                for scale in ORDER0_SCALES:
                    rv = RegVarSpec(alpha, p=p, scale=scale)
                    for n in ORDER0_NS:
                        for seed in (0, 3, 2**64 - 1):
                            got = sample_model(LinearSpec((1.0,), rv), n, seed).values
                            want = oracle.sample_iid(rv, n, seed)
                            assert got.tobytes() == want.tobytes(), (alpha, p, scale, n, seed)

    def test_adjacent_same_sign_pairs(self):
        # phi = (1,1): a large innovation shows up in two adjacent values
        lin = LinearSpec((1.0, 1.0), RegVarSpec(0.8, p=1.0))
        s = sample_linear(lin, 10**6, seed=5)
        u = np.quantile(s.values, 1.0 - 2e-4)
        exceed = s.values > u
        idx = np.flatnonzero(exceed)
        runs = np.split(idx, np.flatnonzero(np.diff(idx) > 1) + 1)
        lengths = np.array([r.size for r in runs])
        assert np.mean(lengths >= 2) > 0.6

    def test_all_zero_coeffs_rejected(self):
        with pytest.raises(ModelError):
            LinearSpec((0.0, 0.0), RegVarSpec(1.0))

    def test_reproducible(self):
        lin = LinearSpec((1.0, 0.5), RegVarSpec(1.0))
        a = sample_linear(lin, 500, seed=9)
        b = sample_linear(lin, 500, seed=9)
        assert np.array_equal(a.values, b.values)

    def test_tail_ratio_values(self):
        assert linear_tail_ratio(LinearSpec((1.0, 0.5), RegVarSpec(1.0))) == 1.5
        assert linear_tail_ratio(LinearSpec((1.0,), RegVarSpec(0.7))) == 1.0
        assert linear_tail_ratio(LinearSpec((1.0, 1.0), RegVarSpec(0.5))) == 2.0

    def test_tail_ratio_monte_carlo(self):
        # empirical P(|X|>x)/P(|Z|>x) at a high-but-moderate threshold
        rv = RegVarSpec(1.0, p=1.0)
        lin = LinearSpec((1.0, 0.5), rv)
        s = sample_linear(lin, 10**6, seed=11)
        z = sample_linear(LinearSpec((1.0,), rv), 10**6, seed=12)
        x0 = np.quantile(np.abs(z.values), 0.995)
        ratio = np.mean(np.abs(s.values) > x0) / np.mean(np.abs(z.values) > x0)
        assert ratio == pytest.approx(1.5, rel=0.15)

    def test_extremal_index_values(self):
        assert linear_extremal_index(LinearSpec((1.0,), RegVarSpec(1.0))) == 1.0
        assert linear_extremal_index(
            LinearSpec((1.0, 0.5), RegVarSpec(1.0))
        ) == pytest.approx(2.0 / 3.0)
        assert linear_extremal_index(
            LinearSpec((1.0, 1.0), RegVarSpec(1.0))
        ) == pytest.approx(0.5)


class TestOrderZero:
    """The i.i.d. model is LinearSpec((1.0,), rv): its analytic quantities
    are the i.i.d. closed forms, exactly (its draws: TestLinear)."""

    @pytest.mark.parametrize("alpha", ORDER0_ALPHAS)
    def test_closed_forms(self, alpha):
        for p in ORDER0_PS:
            for scale in ORDER0_SCALES:
                spec = LinearSpec((1.0,), RegVarSpec(alpha, p=p, scale=scale))
                assert model_alpha(spec) == alpha
                for n in ORDER0_NS:
                    assert an_theoretical(spec, n) == scale * n ** (1.0 / alpha)
                theta = model_extremal_index(spec)
                assert theta == 1.0 and type(theta) is float
                weight = model_positive_weight(spec)
                assert weight == p and type(weight) is float
                cluster = model_cluster_law(spec)
                assert cluster.shape.tolist() == [1.0] and cluster.p == p
                one_mark = ClusterDistribution(np.array([1.0]), p)
                assert cluster.exact_sum_moments(alpha) == one_mark.exact_sum_moments(alpha)


class TestClusterLaw:
    def test_iid_singleton(self):
        # each series jump is +-point, positive w.p. p
        cl = ClusterDistribution(np.array([1.0]), 0.7)
        assert cl.shape.tolist() == [1.0]
        tr = triple_from_cluster(0.8, 1.0, cl)
        _lo, s = next(_series_blocks(tr, cl, 4, 1000, 20240503))
        assert np.array_equal(np.square(s.jump1), s.jump2)
        assert np.mean(s.jump1 > 0) == pytest.approx(0.7, abs=0.03)

    def test_marks_normalized(self):
        cl = linear_cluster_law(LinearSpec((2.0, 1.0), RegVarSpec(1.0, p=1.0)))
        assert np.abs(cl.shape).max() == 1.0

    def test_single_sign_when_p_one(self):
        lin = LinearSpec((1.0, 0.5), RegVarSpec(1.0, p=1.0))
        cl = linear_cluster_law(lin)
        tr = triple_from_cluster(1.0, linear_extremal_index(lin), cl)
        _lo, s = next(_series_blocks(tr, cl, 1, 1000, 20240503))
        assert np.all(s.jump1 >= 0.0)

    def test_marginal_consistency_identity(self):
        # theta * E[sum |eta|^alpha] = 1 and the signed version gives p - q
        for coeffs, alpha, p in [((1.0, 0.5), 1.2, 1.0), ((1.0, 1.0), 0.8, 0.6)]:
            lin = LinearSpec(coeffs, RegVarSpec(alpha, p=p))
            cl = linear_cluster_law(lin)
            theta = linear_extremal_index(lin)
            shape = cl.shape
            assert theta * np.sum(np.abs(shape) ** alpha) / max(
                np.abs(shape) ** alpha
            ) == pytest.approx(1.0)
            _, _, _, _, _, signed = cl.exact_sum_moments(alpha)
            assert theta * signed == pytest.approx(
                model_positive_weight(lin) - (1.0 - model_positive_weight(lin))
            )


class TestGarch:
    def test_degenerate_collapses(self):
        with pytest.warns(UserWarning):
            s = sample_garch(GarchSpec(4.0, 0.0, 0.0), 100, seed=2, burnin=10)
        rng = np.random.default_rng(np.uint64(2))
        z = rng.standard_normal(110)
        assert np.allclose(s.values, 2.0 * z[10:])

    def test_stationary_mean(self):
        # E sigma^2 = omega / (1 - a1 - b1) when a1 + b1 < 1
        s = sample_garch(GarchSpec(1.0, 0.5, 0.3), 10**6, seed=8)
        assert np.mean(s.values**2) == pytest.approx(5.0, rel=0.15)

    def test_reproducible(self):
        a = sample_garch(GarchSpec(1.0, 0.5, 0.3), 500, seed=4)
        b = sample_garch(GarchSpec(1.0, 0.5, 0.3), 500, seed=4)
        assert np.array_equal(a.values, b.values)

    def test_alpha_unit_variance_case(self):
        # a1=1, b1=0: E[(Z^2)^alpha] = 1 exactly at alpha = 1
        assert solve_garch_alpha(GarchSpec(1.0, 1.0, 0.0)) == pytest.approx(1.0, abs=1e-9)

    def test_alpha_root_residual_and_monte_carlo(self, rng):
        spec = GarchSpec(1.0, 0.5, 0.3)
        alpha = solve_garch_alpha(spec, tol=1e-12)
        val, _ = garch_moment(spec, alpha)
        assert abs(val - 1.0) <= 1e-6
        z = rng.standard_normal(10**6)
        y = (spec.a1 * z**2 + spec.b1) ** alpha
        se = y.std(ddof=1) / math.sqrt(y.size)
        assert abs(y.mean() - 1.0) <= 3.0 * se

    def test_no_root_when_b1_geq_one(self):
        with pytest.raises(ModelError, match="never crosses 1"):
            solve_garch_alpha(GarchSpec(1.0, 0.1, 1.0))

    def test_nonstationary_raises_model_error(self):
        # E log(1.5 Z^2 + 0.5) > 0: the moment exceeds 1 at every alpha > 0
        with pytest.raises(ModelError, match="non-stationary"):
            solve_garch_alpha(GarchSpec(1.0, 1.5, 0.5))


class TestSquaredGarch:
    @pytest.mark.parametrize("sampler", ["garch", "squared"])
    @pytest.mark.parametrize("n", [0, -3])
    def test_rejects_n_below_one(self, sampler, n):
        spec = GarchSpec(1.0, 0.5, 0.3)
        with pytest.raises(ModelError, match="n >= 1"):
            if sampler == "garch":
                sample_garch(spec, n, seed=1)
            else:
                sample_squared_garch(SquaredGarchSpec(spec), n, seed=1)

    def test_nonnegative(self):
        s = sample_squared_garch(SquaredGarchSpec(GarchSpec(1.0, 0.5, 0.3)), 1000, seed=6)
        assert np.all(s.values >= 0.0)

    def test_degenerate_components(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            s = sample_squared_garch(
                SquaredGarchSpec(GarchSpec(2.0, 0.0, 0.0)), 50, seed=3, burnin=5
            )
        assert np.allclose(s.values[:, 1], 2.0)
        rng = np.random.default_rng(np.uint64(3))
        z = rng.standard_normal(55)
        assert np.allclose(s.values[:, 0], 2.0 * z[5:] ** 2)

    def test_coordinates_cojump(self):
        # exceedances of X^2 imply a large sigma^2 or a noise spike
        s = sample_squared_garch(SquaredGarchSpec(GarchSpec(1.0, 0.5, 0.3)), 10**5, seed=12)
        x2 = s.values[:, 0]
        sig2 = s.values[:, 1]
        u_x = np.quantile(x2, 0.999)
        u_s = np.quantile(sig2, 0.99)
        z2 = x2 / sig2
        spikes = z2 > np.quantile(z2, 0.99)
        hit = (sig2 > u_s) | spikes
        assert np.mean(hit[x2 > u_x]) > 0.95


class TestInvariants:
    def test_hill_recovery_iid(self):
        n = 10**6
        k = int(np.ceil(n**0.6))
        for alpha in (0.5, 0.8, 1.2, 1.5):
            s = sample_linear(LinearSpec((1.0,), RegVarSpec(alpha, p=1.0)), n, seed=100)
            assert hill_alpha(s.values, k) == pytest.approx(alpha, abs=0.1)

    def test_hill_recovery_linear(self):
        n = 10**6
        k = int(np.ceil(n**0.6))
        for alpha in (0.5, 0.8, 1.2, 1.5):
            lin = LinearSpec((1.0, 0.5), RegVarSpec(alpha, p=1.0))
            s = sample_linear(lin, n, seed=101)
            assert hill_alpha(s.values, k) == pytest.approx(alpha, abs=0.1)

    def test_hill_recovery_garch_squares(self):
        # the squared series carries the moment-equation root as tail index
        spec = GarchSpec(1.0, 0.5, 0.3)
        kappa = solve_garch_alpha(spec)
        s = sample_squared_garch(SquaredGarchSpec(spec), 10**6, seed=102)
        k = int(np.ceil(10**6 ** 0.6))
        assert hill_alpha(s.values[:, 0], k) == pytest.approx(kappa, abs=0.15)

    def test_sign_balance_at_extreme_quantile(self):
        for p in (1.0, 0.7, 0.5):
            s = sample_linear(LinearSpec((1.0,), RegVarSpec(1.0, p=p)), 10**6, seed=103)
            u = np.quantile(np.abs(s.values), 0.999)
            exc = s.values[np.abs(s.values) > u]
            assert np.mean(exc > 0) == pytest.approx(p, abs=0.05)

    def test_no_sign_switch_for_positive_models(self):
        n = 10**5
        scheme = BlockingScheme.from_exponent(n, 0.5)
        for spec, sampler in [
            (LinearSpec((1.0,), RegVarSpec(0.8, p=1.0)), sample_linear),
            (LinearSpec((1.0, 0.5), RegVarSpec(0.8, p=1.0)), sample_linear),
        ]:
            s = sampler(spec, n, seed=104)
            u = np.quantile(np.abs(s.values), 0.99)
            assert sign_switch_diagnostic(s.values, scheme, u) == 0

    def test_seed_derivation_is_xor(self):
        assert derive_seed(0b1010, 0b0110) == 0b1100


class TestRandomness:
    """models holds the seed rules, the one generator constructor and the
    replicate draws of every loop."""

    SEEDS = [0, 13, 2**63 + 5, 2**64 - 1, 20240503]

    @pytest.mark.parametrize("seed", SEEDS + [-20240503])
    def test_generator_is_pcg64_at_seed_mod_2_64(self, seed):
        want = np.random.default_rng(np.uint64(seed % 2**64)).random(64)
        assert np.array_equal(seeded_rng(seed).random(64), want)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_python_int_seed_gives_same_stream(self, seed):
        # the Karamata sums once seeded numpy with the plain int
        want = np.random.default_rng(seed).random(64)
        assert np.array_equal(seeded_rng(seed).random(64), want)

    def test_stream_seed_is_64_bit_and_tagged(self):
        assert stream_seed(7, "a") != stream_seed(7, "b")
        assert stream_seed(-1, "a") == stream_seed(2**64 - 1, "a")
        assert 0 <= stream_seed(-1, "a") < 2**64

    def test_is_lazy(self):
        gen = replicate_samples(LinearSpec((1.0,), RegVarSpec(0.8)), 10, 5, 3)
        assert iter(gen) is gen
        assert len(list(gen)) == 3

    @pytest.mark.parametrize("start", [0, 1, 3])
    def test_start_draws_only_its_replicates(self, start):
        spec = LinearSpec((1.0, 0.5), RegVarSpec(0.8, p=0.5))
        base = stream_seed(13, "contrast-n100")
        whole = list(replicate_samples(spec, 100, base, 7))
        part = list(replicate_samples(spec, 100, base, 7 - start, start))
        assert [x.tobytes() for x in part] == [x.tobytes() for x in whole[start:]]

    @pytest.mark.parametrize("count", [0, 1, 7])
    @pytest.mark.parametrize("alpha", [0.8, 1.5])
    @pytest.mark.parametrize("coeffs", [(1.0,), (1.0, 0.5)])
    def test_replicates_equal_derived_seed_samples(self, coeffs, alpha, count):
        spec = LinearSpec(coeffs, RegVarSpec(alpha, p=0.5))
        base = stream_seed(13, "selfnorm-n100")
        got = list(replicate_samples(spec, 100, base, count))
        assert len(got) == count
        for r, x in enumerate(got):
            want = sample_model(spec, 100, derive_seed(base, r)).values
            assert x.tobytes() == want.tobytes()


class TestNorming:
    def test_closed_form(self):
        assert an_theoretical(LinearSpec((1.0,), RegVarSpec(1.5)), 100) == pytest.approx(
            100 ** (2.0 / 3.0)
        )
        assert an_theoretical(LinearSpec((1.0,), RegVarSpec(1.0)), 10**4) == pytest.approx(1e4)

    def test_linear_uses_tail_ratio(self):
        lin = LinearSpec((1.0, 0.5), RegVarSpec(1.0, p=1.0))
        assert an_theoretical(lin, 1000) == pytest.approx(1.5 * 1000)
