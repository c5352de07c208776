"""The former Monte Carlo loops of m1lab, kept as the test oracle.

The Pareto and cluster samplers draw signs by arithmetic on the uniform
mask; ``stable.levy_marginal_draws`` counts jump times unsorted and gathers
the sorted jumps with one flat ``np.take``; ``stable._series_blocks``
builds its points and squares in place and draws one sign per point in
place of a marks array; the series is built in blocks of draws, not as one
batch; and the i.i.d. model is the order-0 ``LinearSpec``, which replaced
its own sampler ``sample_iid``.  These are the forms they replaced, copied
unchanged.  ``tests/test_mc_oracle.py`` asserts that both give the same
bits.
"""

import math

import numpy as np

from m1lab.stable import StableError, _mark_drift_rate, _Series


def pareto_draws(rv, n, rng):
    mag = (1.0 - rng.random(n)) ** (-1.0 / rv.alpha)
    sign = np.where(rng.random(n) < rv.p, 1.0, -1.0)
    return rv.scale * mag * sign


def sample_iid(rv, n, seed):
    # The former i.i.d. sampler: n two-sided Pareto draws of the marginal rv
    # (the former ``IidSpec(rv)``), from the seed's own generator.
    if n < 1:
        raise ValueError("need n >= 1")
    rng = np.random.default_rng(np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
    return pareto_draws(rv, n, rng)


def cluster_sample(cluster, rng, size):
    signs = np.where(rng.random(size) < cluster.p, 1.0, -1.0)
    return signs[:, None] * cluster.shape[None, :]


def marginal_draws(s, t_grid):
    # The grid evaluation of levy_marginal_draws on a drawn series ``s``.
    n_draws = s.times.shape[0]
    t_grid = np.asarray(t_grid, dtype=float)
    order = np.argsort(s.times, axis=1)
    t_sorted = np.take_along_axis(s.times, order, axis=1)
    c1 = np.cumsum(np.take_along_axis(s.jump1, order, axis=1), axis=1)
    c2 = np.cumsum(np.take_along_axis(s.jump2, order, axis=1), axis=1)
    l1 = np.empty((n_draws, t_grid.size))
    l2 = np.empty((n_draws, t_grid.size))
    for j, t in enumerate(t_grid):
        counts = (t_sorted <= t).sum(axis=1)
        has = counts > 0
        l1[:, j] = np.where(has, c1[np.arange(n_draws), np.maximum(counts - 1, 0)], 0.0)
        l2[:, j] = np.where(has, c2[np.arange(n_draws), np.maximum(counts - 1, 0)], 0.0)
        l1[:, j] -= t * s.drift1
        l2[:, j] -= t * s.drift2
    l2_total = c2[:, -1] - s.drift2
    return {"t_grid": t_grid, "l1": l1, "l2": l2, "l2_total": l2_total}


def levy_series(
    triple, cluster, batch, n_pts, seed, tail_sd_tol=0.75, small_tail_correction=True
):
    # Every array of the series a fresh allocation, the marks included.
    if n_pts < 10**3:
        raise StableError("n_pts >= 1e3 required")
    a = triple.alpha
    theta = triple.theta
    rng = np.random.default_rng(np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
    shape = batch + (n_pts,)
    gam = np.cumsum(rng.exponential(size=shape), axis=-1)
    pts = (gam / theta) ** (-1.0 / a)
    times = rng.random(shape)
    marks = cluster_sample(cluster, rng, math.prod(shape)).reshape(shape + (-1,))
    u = pts[..., -1][()]
    if small_tail_correction:
        _cp, _cm, _r2, mean_sum, mean_sq, _sgn = cluster.exact_sum_moments(a)

    if a >= 1.0:
        var = theta * a * (triple.c_plus + triple.c_minus) * u ** (2.0 - a) / (2.0 - a)
        sd = np.sqrt(var).max()
        if sd > tail_sd_tol:
            raise StableError(
                f"series tail too heavy (remainder sd {sd:.3f} > {tail_sd_tol}); "
                "increase n_pts"
            )
        keep = pts[..., None] * np.abs(marks) > u[..., None, None]
        jump1 = pts * (marks * keep).sum(axis=-1)
        drift1 = _mark_drift_rate(triple, np.atleast_1d(u)).reshape(np.shape(u))
    else:
        jump1 = pts * marks.sum(axis=-1)
        if small_tail_correction:
            drift1 = -theta * a / (1.0 - a) * u ** (1.0 - a) * mean_sum
        else:
            drift1 = np.zeros(np.shape(u))
    jump2 = pts**2 * (marks**2).sum(axis=-1)
    if small_tail_correction:
        drift2 = -theta * a / (2.0 - a) * u ** (2.0 - a) * mean_sq
    else:
        drift2 = np.zeros(np.shape(u))
    return _Series(times, jump1, jump2, u, drift1, drift2)
