"""The Monte Carlo loops give the same bits as the forms they replaced.

``mc_oracle`` holds the ``np.where`` sign draws and the whole-batch Lévy
series with its ``take_along_axis`` gather.  The new forms skip masks,
sorts and branches, and build the series in blocks of draws, but keep every
RNG draw and every summation order, so the only acceptable difference is
none.
"""

import tracemalloc

import numpy as np
import pytest

import mc_oracle as oracle
from m1lab import lab, stable
from m1lab.clusters import ClusterDistribution
from m1lab.config import parse_config, replace_config
from m1lab.models import LinearSpec, RegVarSpec, _pareto_draws, seeded_rng


class TestSignDraws:
    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
    def test_pareto_draws(self, p):
        rv = RegVarSpec(0.8, p=p, scale=1.5)
        rng_new = np.random.default_rng(11)
        rng_old = np.random.default_rng(11)
        got = _pareto_draws(rv, 10**4, rng_new)
        want = oracle.pareto_draws(rv, 10**4, rng_old)
        assert got.tobytes() == want.tobytes()
        assert rng_new.random() == rng_old.random()


class TestLevyMarginalDraws:
    @pytest.mark.parametrize(
        "spec",
        [
            LinearSpec((1.0,), RegVarSpec(0.8, p=0.5)),
            LinearSpec((1.0, 0.5), RegVarSpec(0.8, p=0.5)),
            LinearSpec((1.0,), RegVarSpec(1.5, p=0.7)),
        ],
    )
    def test_draws_equal_former_gather(self, spec):
        _spec, _alpha, _theta, cluster, triple = lab._analytic_setup(
            replace_config(parse_config("")[0], model=spec)
        )
        t_grid = [0.0, 1e-4, 0.25, 0.5, 1.0]
        got = stable.levy_marginal_draws(triple, cluster, t_grid, 300, n_pts=1000, seed=5)
        series = oracle.levy_series(triple, cluster, (300,), 1000, 5)
        want = oracle.marginal_draws(series, t_grid)
        assert got.keys() == want.keys()
        for key in want:
            assert got[key].tobytes() == want[key].tobytes(), key


# (label, spec): the model's analytic setup gives the cluster and triple
SERIES_CASES = [
    ("iid_0.8", LinearSpec((1.0,), RegVarSpec(0.8, p=0.5))),
    ("linear_1_0.5", LinearSpec((1.0, 0.5), RegVarSpec(0.8, p=0.5))),
    ("iid_1.5", LinearSpec((1.0,), RegVarSpec(1.5, p=0.7))),
    ("iid_1.0", LinearSpec((1.0,), RegVarSpec(1.0, p=0.6))),
    ("linear_1_-0.6_0.3", LinearSpec((1.0, -0.6, 0.3), RegVarSpec(1.2, p=0.7))),
]


def _series_setup(spec):
    _spec, _alpha, _theta, cluster, triple = lab._analytic_setup(
        replace_config(parse_config("")[0], model=spec)
    )
    return cluster, triple


class TestLevySeries:
    """``_series_blocks`` builds its points and squares in place and draws one
    sign per point; the draws and paths of both samplers keep the bits of the
    former series, which built a marks array."""

    @pytest.mark.parametrize("seed", [5, 6, 7])
    @pytest.mark.parametrize("label,case", SERIES_CASES)
    def test_marginal_draws(self, label, case, seed):
        cluster, triple = _series_setup(case)
        t_grid = [0.0, 0.25, 0.5, 1.0]
        got = stable.levy_marginal_draws(triple, cluster, t_grid, 200, n_pts=1000, seed=seed)
        want = oracle.marginal_draws(
            oracle.levy_series(triple, cluster, (200,), 1000, seed), t_grid
        )
        assert got.keys() == want.keys()
        for key in want:
            assert got[key].tobytes() == want[key].tobytes(), key

    @pytest.mark.parametrize("seed", [5, 6, 7])
    @pytest.mark.parametrize("label,case", SERIES_CASES)
    def test_levy_pair(self, label, case, seed):
        # the path at its breakpoints is the whole-batch series of one draw
        # read on the jump times and the drift grid
        cluster, triple = _series_setup(case)
        got, got_meta = stable.simulate_levy_pair(triple, cluster, n_pts=1000, seed=seed)
        series = oracle.levy_series(triple, cluster, (1,), 1000, seed)
        times = np.union1d(series.times[0], np.linspace(0.0, 1.0, stable.DRIFT_GRID + 1))
        want = oracle.marginal_draws(series, times)
        for coord in ("l1", "l2"):
            path = getattr(got, coord)
            assert path.times.tobytes() == times.tobytes()
            assert path.values[:, 0].tobytes() == want[coord][0].tobytes()
        assert got_meta == {
            "l1_total": want["l1"][0, -1],
            "l2_total": want["l2_total"][0],
        }
        assert (got.u, got.b1n, got.b2n) == (
            series.u[0], series.drift1[0], series.drift2[0]
        )

    @pytest.mark.parametrize("batch", [(1,), (50,)])
    @pytest.mark.parametrize("label,case", SERIES_CASES)
    def test_series_fields(self, label, case, batch):
        # the truncation level is read before pts is squared in place
        cluster, triple = _series_setup(case)
        _lo, got = next(stable._series_blocks(triple, cluster, *batch, 1000, 3))
        want = oracle.levy_series(triple, cluster, batch, 1000, 3)
        for name, value in want._asdict().items():
            assert np.array_equal(getattr(got, name), value), name

    @pytest.mark.parametrize("label,case", SERIES_CASES)
    def test_cluster_unchanged(self, label, case):
        cluster, triple = _series_setup(case)
        before = cluster.shape.copy()
        stable.levy_marginal_draws(triple, cluster, [0.5, 1.0], 100, n_pts=1000, seed=4)
        stable.simulate_levy_pair(triple, cluster, n_pts=1000, seed=4)
        assert np.array_equal(cluster.shape, before)


B = stable.SERIES_BLOCK


class TestSeriesBlocks:
    """``levy_marginal_draws`` builds the series ``SERIES_BLOCK`` draws at a
    time; the draws keep the bits of the former whole-batch series."""

    @pytest.mark.parametrize("n_draws", [1, B - 1, B, B + 1, 2 * B + 1, 2000])
    @pytest.mark.parametrize("label,case", SERIES_CASES)
    def test_draws_equal_whole_batch(self, label, case, n_draws):
        cluster, triple = _series_setup(case)
        t_grid = [0.0, 1e-4, 0.25, 0.5, 1.0]
        got = stable.levy_marginal_draws(triple, cluster, t_grid, n_draws, n_pts=1000, seed=8)
        want = oracle.marginal_draws(
            oracle.levy_series(triple, cluster, (n_draws,), 1000, 8), t_grid
        )
        assert got.keys() == want.keys()
        for key in want:
            assert got[key].tobytes() == want[key].tobytes(), key

    def test_guard_sees_later_blocks(self):
        # at alpha 1.57 the 2B + 1 draws of seed 33 keep every remainder sd
        # of the first block below the bound and pass it in a later one
        cluster = ClusterDistribution(np.array([1.0]), 0.5)
        triple = stable.triple_from_cluster(1.57, 1.0, cluster)
        n_draws, n_pts, seed = 2 * B + 1, 1000, 33
        gam = np.cumsum(seeded_rng(seed).exponential(size=(n_draws, n_pts)), axis=-1)
        u = gam[:, -1] ** (-1.0 / triple.alpha)
        sd = np.sqrt(triple.alpha * u ** (2.0 - triple.alpha) / (2.0 - triple.alpha))
        assert sd[:B].max() <= stable.TAIL_SD_TOL < sd.max()
        with pytest.raises(stable.StableError) as want:
            oracle.levy_series(triple, cluster, (n_draws,), n_pts, seed)
        with pytest.raises(stable.StableError) as got:
            stable.levy_marginal_draws(triple, cluster, [1.0], n_draws, n_pts=n_pts, seed=seed)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize(
        "spec",
        [
            LinearSpec((1.0,), RegVarSpec(0.8, p=0.5)),
            LinearSpec((1.0, 0.5), RegVarSpec(1.5, p=0.5)),
        ],
    )
    def test_peak_memory(self, spec):
        # at 2000 draws of 2000 points the whole batch peaked at 153.3 MiB
        # (iid, alpha 0.8) and 190.8 MiB (MA(1, 0.5), alpha 1.5)
        cluster, triple = _series_setup(spec)
        tracemalloc.start()
        try:
            stable.levy_marginal_draws(
                triple, cluster, [0.25, 0.5, 0.75, 1.0], 2000, n_pts=2000, seed=1
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * 2**20
