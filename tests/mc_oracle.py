"""The former Monte Carlo loops of m1lab, kept as the test oracle.

``lab._karamata_sums`` builds each chunk of Karamata strata once and masks
only for caps below the chunk's largest magnitude; the Pareto and cluster
samplers draw signs by arithmetic on the uniform mask; and
``stable.levy_marginal_draws`` counts jump times unsorted and gathers the
sorted jumps with one flat ``np.take``.  These are the forms they
replaced, copied unchanged.  ``tests/test_mc_oracle.py`` asserts that both
give the same bits.
"""

import numpy as np


def karamata_sums(rng, alpha, a_n, u_grid, total):
    # A mask, a compress, a sum, a square and a second sum per u and chunk.
    chunk = 10**6
    sums1 = {u: 0.0 for u in u_grid}
    sums2 = {u: 0.0 for u in u_grid}
    done = 0
    while done < total:
        m = min(chunk, total - done)
        u_strat = (done + np.arange(m) + rng.random(m)) / total
        mag = (1.0 - u_strat) ** (-1.0 / alpha)
        for u in u_grid:
            cap = u * a_n
            kept = mag[mag <= cap]
            sums1[u] += float(kept.sum())
            sums2[u] += float((kept**2).sum())
        done += m
    return sums1, sums2


def pareto_draws(rv, n, rng):
    mag = (1.0 - rng.random(n)) ** (-1.0 / rv.alpha)
    sign = np.where(rng.random(n) < rv.p, 1.0, -1.0)
    return rv.scale * mag * sign


def cluster_sample(cluster, rng, size):
    if cluster.is_deterministic:
        signs = np.where(rng.random(size) < cluster.p, 1.0, -1.0)
        return signs[:, None] * cluster.shape[None, :]
    idx = rng.integers(0, cluster.pool.shape[0], size=size)
    return cluster.pool[idx]


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
