"""Monte Carlo verification lab.

Limit-topology convergence cannot be tested path-coupled from independent
replicates, so the checks decompose it into (a) fixed-time marginal
distribution comparisons against simulated limit draws, (b) cluster-collapse
distances under the jump-matching vs graph-matching topologies, and (c) the
analytic truncated-moment limits, against the exact finite-n moments of
the unit Pareto, and the small-jump tail bound.  That decomposition
statement is written into every report header.

Every check consumes an :class:`~m1lab.config.ExperimentConfig`; verdict
thresholds come exclusively from the config's tolerances.  A check's
replicates are ``models.replicate_samples(spec, n, stream_seed(config.seed,
tag), count)``, where the tag names the check (and sample size), so results
do not depend on which process computes them.  fidi and selfnorm read one
pass of replicates (tags selfnorm-n{n}) and limit draws (levy-selfnorm),
see _marginal_pass.

On two CPUs the work is split between two processes by
:func:`_in_two_processes`: the suite runs fidi and selfnorm in a forked
child while the calling process runs the other checks, and contrast runs
the second half of each n's replicates in a forked child.  The bundle's
bytes are those of a one-CPU run.

The checks that need theoretical norming or an analytic cluster law take
the moving-average family ``LinearSpec``; the iid model is its order 0,
``LinearSpec((1.0,), rv)``, and a model counts as clustered when its
extremal index is below 1 (so ``LinearSpec((1.0, 0.0), rv)``, the iid law,
is not).
"""

import functools
import json
import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from . import tailstats
from .models import (
    LinearSpec,
    RegVarSpec,
    an_theoretical,
    model_alpha,
    model_cluster_law,
    model_extremal_index,
    model_positive_weight,
    replicate_samples,
    sample_model,
    stream_seed,
)
from .paths import j1_distance, m1_distance_detailed
from .sumproc import (
    _pareto_truncated_abs_moment,
    build_Ln,
    centering_constants,
    collapse_clusters,
    grid_index,
    partial_sums,
)
from .stable import levy_marginal_draws, simulate_levy_pair, triple_from_cluster
from .tailstats import BlockingScheme

REPORT_HEADER = (
    "limit-topology checks are decomposed into: (a) fixed-time marginal "
    "distribution comparisons, (b) cluster-collapse distances under the "
    "jump-matching vs graph-matching topologies, (c) analytic truncated-"
    "moment limits and tail bounds"
)


class LabError(ValueError):
    pass


def ks_2samp(a, b):
    """Two-sample KS statistic sup |F_a - F_b| of the empirical CDFs.

    It is the value of ``scipy.stats.ks_2samp(a, b).statistic``, bit for
    bit: the CDFs are evaluated at every sample point as scipy does, and
    when both sizes are at most 10000 (scipy's exact mode) the statistic is
    rounded to the nearest multiple of 1/lcm(n_a, n_b), as scipy rounds it.
    """
    a = np.sort(a)
    b = np.sort(b)
    n1 = a.size
    n2 = b.size
    both = np.concatenate([a, b])
    diff = np.searchsorted(a, both, side="right") / n1
    diff -= np.searchsorted(b, both, side="right") / n2
    d = max(float(np.clip(-diff.min(), 0, 1)), float(diff.max()))
    if max(n1, n2) <= 10000:
        lcm = (n1 // int(np.gcd(n1, n2))) * n2
        d = int(np.round(d * lcm)) * 1.0 / lcm
    return d


@dataclass
class CheckResult:
    check: str
    rows: list = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)
    thresholds: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    @property
    def passed(self):
        return all(self.verdicts.values())


@dataclass
class ConvergenceReport:
    header: str
    config_digest: str
    seed: int
    results: list = field(default_factory=list)
    runtime: dict = field(default_factory=dict)
    # {"cpu_s", "peak_rss_mb"} of the forked process that ran fidi and
    # selfnorm, or None; like runtime, outside the determinism contract
    child: dict | None = None

    @property
    def verdicts(self):
        out = {}
        for res in self.results:
            for name, ok in res.verdicts.items():
                out[f"{res.check}.{name}"] = ok
        return out

    @property
    def passed(self):
        return all(self.verdicts.values())


def _in_two_processes(first, second):
    """``(first(), second())``, with ``second`` run in a forked child process
    while this process runs ``first``.

    Both run here, in that order, when this process may use fewer than two
    CPUs or runs another thread (forking a threaded process is unsafe).  The
    child inherits every loaded module, patched attributes included, and
    sends its result back through a pipe.  An exception that ``second``
    raises in the child is raised here, with its type and message, after
    ``first`` returned, as a serial run would raise it; a child that exits
    without a result raises :class:`LabError` naming its exit code.  The
    child is joined on every path and terminated when ``first`` raises or
    this process is interrupted.
    """
    if len(os.sched_getaffinity(0)) < 2 or threading.active_count() > 1:
        return first(), second()
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_send_result, args=(second, send))
    child.start()
    send.close()
    try:
        one = first()
        try:
            ok, two = receive.recv()
        except EOFError:
            child.join()
            raise LabError(
                f"the forked process exited with code {child.exitcode} without a result"
            ) from None
    except BaseException:
        child.terminate()
        raise
    finally:
        child.join()
        receive.close()
    if not ok:
        raise two
    return one, two


def _send_result(fn, conn):
    """The child's side of :func:`_in_two_processes`: send (True, fn()) or
    (False, the exception fn raised)."""
    try:
        out = (True, fn())
    except Exception as exc:  # raised again in the parent
        out = (False, exc)
    conn.send(out)
    conn.close()


def _analytic_setup(config):
    spec = config.model
    if not isinstance(spec, LinearSpec):
        raise LabError("an analytic cluster law is needed: the model must be iid or linear")
    alpha = model_alpha(spec)
    theta = model_extremal_index(spec)
    cluster = model_cluster_law(spec)
    p = model_positive_weight(spec)
    triple = triple_from_cluster(alpha, theta, cluster, p=p)
    return spec, alpha, theta, cluster, triple


def _partial_sum_marginals(spec, n, t_grid, replicates, base_seed):
    """Replicate values at grid times k = floor(n t) of S_k - k b1n,
    Q_k - k b2n (the :func:`~m1lab.sumproc.partial_sums`, centered by
    :func:`~m1lab.sumproc.centering_constants`, which are 0 below alpha 1)
    and (S_k - k b1n) / sqrt(Q_n), with a_n; the replicates are those of
    ``replicate_samples(spec, n, base_seed, replicates)``."""
    a_n = an_theoretical(spec, n)
    idx = grid_index(n, t_grid)
    s1 = np.empty((replicates, idx.size))
    s2 = np.empty((replicates, idx.size))
    v2 = np.empty(replicates)
    for rep, x in enumerate(replicate_samples(spec, n, base_seed, replicates)):
        s, q = partial_sums(x, a_n)
        s1[rep] = s[idx]
        s2[rep] = q[idx]
        v2[rep] = q[-1]
    const = centering_constants(spec, a_n)
    s1 -= idx * const.b1n
    s2 -= idx * const.b2n
    return s1, s2, s1 / np.sqrt(v2)[:, None], a_n


def _marginal_pass(config):
    """(alpha, limit draws, {n: (seed stream, *replicate marginals)}) of
    fidi and selfnorm."""
    if config.replicates < 200:
        raise LabError("need at least 200 replicates for distribution comparisons")
    spec, alpha, _theta, cluster, triple = _analytic_setup(config)
    t_grid = np.asarray(config.t_grid)
    draws = levy_marginal_draws(
        triple,
        cluster,
        t_grid,
        config.limit_draws,
        n_pts=config.n_pts,
        seed=stream_seed(config.seed, "levy-selfnorm"),
    )
    by_n = {}
    for n in config.n_grid:
        base = stream_seed(config.seed, f"selfnorm-n{n}")
        by_n[n] = (base,) + _partial_sum_marginals(
            spec, n, t_grid, config.replicates, base
        )
    return alpha, draws, by_n


def run_fidi_convergence(config, shared=None):
    """Two-sample KS between replicate marginals of the sum pair and
    simulated limit draws, per sample size and grid time.  ``shared``, when
    given, returns the suite's :func:`_marginal_pass`."""
    alpha, draws, by_n = shared() if shared else _marginal_pass(config)
    t_grid = np.asarray(config.t_grid)
    lim1 = draws["l1"]
    lim2 = draws["l2"]
    if alpha >= 1.0:
        # the replicate second coordinate is centered; shift the pure sums
        lim2 = lim2 - t_grid[None, :] * (alpha / (2.0 - alpha))
    res = CheckResult(check="fidi", thresholds={"ks_fidi": config.tolerances["ks_fidi"]})
    ks_by_n = {}
    for n, (seed_base, rep1, rep2, _ratios, a_n) in by_n.items():
        for j, t in enumerate(t_grid):
            ks1 = ks_2samp(rep1[:, j], lim1[:, j])
            ks2 = ks_2samp(rep2[:, j], lim2[:, j])
            ks_by_n.setdefault(n, []).append(max(ks1, ks2))
            res.rows.append(
                {
                    "check": "fidi",
                    "n": n,
                    "t": float(t),
                    "ks_l1": ks1,
                    "ks_l2": ks2,
                    "replicates": config.replicates,
                    "limit_draws": config.limit_draws,
                    "a_n": a_n,
                    "seed_stream": seed_base,
                }
            )
    n_max = max(config.n_grid)
    n_min = min(config.n_grid)
    res.verdicts["ks_at_nmax"] = max(ks_by_n[n_max]) <= config.tolerances["ks_fidi"]
    res.rows.append(
        {
            "check": "fidi_trend",
            "ks_max_at_nmin": max(ks_by_n[n_min]),
            "ks_max_at_nmax": max(ks_by_n[n_max]),
            "decreasing": max(ks_by_n[n_max]) <= max(ks_by_n[n_min]),
        }
    )
    return res


def run_selfnorm_convergence(config, shared=None):
    """KS between replicate self-normalized values S_{nt}/V_n and simulated
    ratio draws L1(t)/sqrt(L2(1)) sharing one Poisson series per draw;
    ``shared`` as in :func:`run_fidi_convergence`."""
    _alpha, draws, by_n = shared() if shared else _marginal_pass(config)
    lim = draws["l1"] / np.sqrt(draws["l2_total"])[:, None]
    clustered = model_extremal_index(config.model) < 1.0
    tol_key = "ks_selfnorm_clustered" if clustered else "ks_selfnorm"
    res = CheckResult(check="selfnorm", thresholds={tol_key: config.tolerances[tol_key]})
    ks_by_n = {}
    for n, (base, _s1, _s2, vals, _a_n) in by_n.items():
        for j, t in enumerate(config.t_grid):
            ks = ks_2samp(vals[:, j], lim[:, j])
            ks_by_n.setdefault(n, []).append(ks)
            res.rows.append(
                {
                    "check": "selfnorm",
                    "n": n,
                    "t": float(t),
                    "ks": ks,
                    "clustered": clustered,
                    "replicates": config.replicates,
                    "limit_draws": config.limit_draws,
                    "seed_stream": base,
                }
            )
    n_max = max(config.n_grid)
    res.verdicts["ks_at_nmax"] = max(ks_by_n[n_max]) <= config.tolerances[tol_key]
    return res


def _contrast_distances(spec, n, a_n, scheme, base, resolution, start, count):
    """(m1, its bracket width, j1) of the path and its block collapse for
    replicates start, ..., start + count - 1 of the seed stream ``base``."""
    out = []
    for x in replicate_samples(spec, n, base, count, start):
        path = build_Ln(x, a_n).l1
        collapsed = collapse_clusters(path, scheme)
        # J1 first: it bounds M1 from above and settles its widest radii
        j1 = j1_distance(path, collapsed, resolution)
        m1d = m1_distance_detailed(path, collapsed, resolution, upper=j1)
        out.append((m1d.value, m1d.tol, j1))
    return out


def run_j1_vs_m1_contrast(config):
    """Distances between the normalized sum path and its block-collapsed
    version under both jump topologies, per replicate and sample size.

    Per n, with at least 2 replicates, the second half of the replicates
    runs in a forked process (:func:`_in_two_processes`) while this one runs
    the first; each half draws only its own replicates, and the rows keep
    replicate order and each replicate's index."""
    spec = config.model
    if not isinstance(spec, LinearSpec):
        raise LabError("the contrast check needs theoretical norming (iid or linear model)")
    res = CheckResult(
        check="contrast", thresholds={"m1_j1_frac": config.tolerances["m1_j1_frac"]}
    )
    clustered = model_extremal_index(spec) < 1.0
    count = config.contrast_replicates
    half = count // 2
    med_m1 = {}
    orderings = []
    for n in config.contrast_n_grid:
        scheme = BlockingScheme.from_exponent(n, config.kappa)
        base = stream_seed(config.seed, f"contrast-n{n}")
        setup = (spec, n, an_theoretical(spec, n), scheme, base,
                 max(config.m1_resolution, 4 * n + 16))
        if half:
            first, second = _in_two_processes(
                lambda: _contrast_distances(*setup, 0, half),
                lambda: _contrast_distances(*setup, half, count - half),
            )
            distances = first + second
        else:
            distances = _contrast_distances(*setup, 0, count)
        for rep, (m1, tol, j1) in enumerate(distances):
            # both metrics are certified upper endpoints; allow their gaps
            orderings.append(m1 <= j1 + 2.0 * tol + 1e-12)
            res.rows.append(
                {
                    "check": "contrast",
                    "n": n,
                    "replicate": rep,
                    "m1": m1,
                    "j1": j1,
                    "r_n": scheme.r_n,
                    "seed_stream": base,
                }
            )
        med_m1[n] = float(np.median([m1 for m1, _, _ in distances]))
        res.rows.append(
            {
                "check": "contrast_summary",
                "n": n,
                "median_m1": med_m1[n],
                "median_j1": float(np.median([j1 for _, _, j1 in distances])),
            }
        )
    # the ordering is the gate; the median-vs-n trend is reported only
    res.verdicts["m1_below_j1"] = float(np.mean(orderings)) >= config.tolerances["m1_j1_frac"]
    ns = sorted(med_m1)
    res.rows.append(
        {
            "check": "contrast_trend",
            "clustered": clustered,
            "median_m1_at_nmin": med_m1[ns[0]],
            "median_m1_at_nmax": med_m1[ns[-1]],
            "decreasing": med_m1[ns[-1]] <= med_m1[ns[0]],
        }
    )
    return res


def run_karamata_check(config):
    """Exact finite-n truncated moments of the unit Pareto against their
    Karamata limits.

    n E[(|X|/a_n) 1{|X| <= u a_n}] and the squared version, with
    a_n = n^{1/alpha}, from the closed form of
    :func:`~m1lab.sumproc._pareto_truncated_abs_moment`, against
    u^{1-alpha} alpha/(1-alpha) and u^{2-alpha} alpha/(2-alpha).  The
    relative errors are the support-boundary terms n^{1-1/alpha} /
    u^{1-alpha} and n^{1-2/alpha} / u^{2-alpha}; the check draws nothing.
    """
    res = CheckResult(
        check="karamata", thresholds={"karamata_rel": config.tolerances["karamata_rel"]}
    )
    n = config.karamata_n
    ok = True
    for alpha in config.karamata_alphas:
        a_n = n ** (1.0 / alpha)
        for u in config.karamata_u_grid:
            est1 = n * _pareto_truncated_abs_moment(alpha, 1.0, u * a_n) / a_n
            est2 = n * _pareto_truncated_abs_moment(alpha, 2.0, u * a_n) / (a_n * a_n)
            lim1 = u ** (1.0 - alpha) * alpha / (1.0 - alpha)
            lim2 = u ** (2.0 - alpha) * alpha / (2.0 - alpha)
            rel1 = abs(est1 - lim1) / lim1
            rel2 = abs(est2 - lim2) / lim2
            ok = ok and rel1 <= config.tolerances["karamata_rel"]
            ok = ok and rel2 <= config.tolerances["karamata_rel"]
            res.rows.append(
                {
                    "check": "karamata",
                    "alpha": alpha,
                    "u": u,
                    "n": n,
                    "estimate_first": est1,
                    "limit_first": lim1,
                    "rel_err_first": rel1,
                    "estimate_second": est2,
                    "limit_second": lim2,
                    "rel_err_second": rel2,
                }
            )
    res.verdicts["within_tolerance"] = ok
    return res


def run_slutsky_bound_check(config):
    """Empirical truncation-gap exceedance probabilities vs the analytic
    bound eps^{-1} alpha u^{1-alpha} (1/(1-alpha) + u/(2-alpha)).

    The gap is sup_t of the max-norm of the below-threshold partial-sum
    pair; violations are exceedances of the bound beyond 3 binomial
    standard errors.  Event nesting makes each replicate's indicator
    monotone in eps by construction.  ``run.slutsky_alpha`` lies in (0,1),
    as the bound needs; the config checks that when it is built.
    """
    alpha = config.slutsky_alpha
    n = config.slutsky_n
    reps = config.slutsky_replicates
    spec = LinearSpec((1.0,), RegVarSpec(alpha, p=1.0))
    a_n = an_theoretical(spec, n)
    base = stream_seed(config.seed, "slutsky")
    sup_gap = {u: np.empty(reps) for u in config.slutsky_u_grid}
    for rep, x in enumerate(replicate_samples(spec, n, base, reps)):
        y = x / a_n
        y2 = y * y
        for u in config.slutsky_u_grid:
            small = np.abs(y) <= u
            g1 = np.abs(np.cumsum(np.where(small, y, 0.0))).max()
            g2 = np.abs(np.cumsum(np.where(small, y2, 0.0))).max()
            sup_gap[u][rep] = max(g1, g2)
    res = CheckResult(check="slutsky", thresholds={"violations": 0})
    violations = 0
    for u in config.slutsky_u_grid:
        bound_base = alpha * u ** (1.0 - alpha) * (1.0 / (1.0 - alpha) + u / (2.0 - alpha))
        for eps in config.slutsky_eps_grid:
            emp = float(np.mean(sup_gap[u] > eps))
            bound = bound_base / eps
            se = float(np.sqrt(max(emp * (1.0 - emp), 0.0) / reps))
            violated = emp > bound + 3.0 * se
            violations += int(violated)
            res.rows.append(
                {
                    "check": "slutsky",
                    "alpha": alpha,
                    "u": u,
                    "eps": eps,
                    "empirical": emp,
                    "bound": bound,
                    "binomial_se": se,
                    "violated": violated,
                    "replicates": reps,
                    "n": n,
                    "seed_stream": base,
                }
            )
    res.verdicts["no_violations"] = violations == 0
    return res


def run_theta_recovery(config):
    """Blocks-estimator recovery of the analytic extremal index."""
    res = CheckResult(
        check="theta", thresholds={"theta_abs": config.tolerances["theta_abs"]}
    )
    specs = [
        ("iid", LinearSpec((1.0,), RegVarSpec(1.0, p=1.0))),
        ("ma_1_05", LinearSpec((1.0, 0.5), RegVarSpec(1.0, p=1.0))),
        ("ma_1_1", LinearSpec((1.0, 1.0), RegVarSpec(1.0, p=1.0))),
    ]
    n = config.theta_n
    scheme = BlockingScheme.from_exponent(n, config.kappa)
    ok = True
    for label, spec in specs:
        theta_true = model_extremal_index(spec)
        base = stream_seed(config.seed, f"theta-{label}")
        ests = []
        for x in replicate_samples(spec, n, base, config.theta_replicates):
            u = float(np.quantile(np.abs(x), 1.0 - config.theta_exceedances / n))
            ests.append(tailstats.extremal_index_blocks(x, scheme, u))
        mean_est = float(np.mean(ests))
        err = abs(mean_est - theta_true)
        ok = ok and err <= config.tolerances["theta_abs"]
        res.rows.append(
            {
                "check": "theta",
                "model": label,
                "n": n,
                "theta_true": theta_true,
                "theta_hat_mean": mean_est,
                "abs_err": err,
                "replicates": config.theta_replicates,
                "seed_stream": base,
            }
        )
    res.verdicts["within_tolerance"] = ok
    return res


def run_tail_diagnostics(config):
    """One-sample tail diagnostics bundle on the largest grid size."""
    spec = config.model
    n = max(config.n_grid)
    sample = sample_model(spec, n, stream_seed(config.seed, "diag"))
    values = sample.values if sample.values.ndim == 1 else sample.values[:, 0]
    scheme = BlockingScheme.from_exponent(n, config.kappa)
    diag = tailstats.diagnose(values, scheme)
    res = CheckResult(check="diagnostics")
    res.rows.extend(diag.jsonl_records())
    res.notes.append(
        "block-mixing condition is assumed, not tested (flagged per record)"
    )
    return res


def _float17(x):
    return format(float(x), ".17g")


def _render_json(obj):
    """JSON with floats printed at 17 significant digits, keys sorted."""
    if isinstance(obj, dict):
        items = (f'"{k}": {_render_json(obj[k])}' for k in sorted(obj))
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_render_json(v) for v in obj) + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _float17(obj)
    return json.dumps(str(obj))


# the suite's two lanes: fidi and selfnorm share one marginal pass, which a
# forked child runs while the calling process runs the rest
MARGINAL_CHECKS = ("fidi", "selfnorm")
OTHER_CHECKS = ("contrast", "karamata", "slutsky", "theta", "diagnostics")


def _failed_check(name, exc):
    res = CheckResult(check=name, verdicts={"completed": False})
    res.notes.append(f"error: {type(exc).__name__}: {exc}")
    return res


def _process_cost():
    """CPU seconds and peak resident memory (MB) of this process so far."""
    import resource

    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {"cpu_s": usage.ru_utime + usage.ru_stime, "peak_rss_mb": usage.ru_maxrss / 1024.0}


def run_full_suite(config, outdir=None):
    """All checks plus diagnostics; optionally writes the bundle directory.

    Bundle layout: report.jsonl (one record per check row), paths/*.csv
    (sampled paths for plotting), summary.txt (verdict table, runtimes),
    manifest.json (config digest, seed, versions).  Errors in one check are
    recorded and the suite continues.

    The checks run in two lanes (:func:`_in_two_processes`).  A forked child
    runs fidi and selfnorm, which share one cached :func:`_marginal_pass`
    computed inside fidi, and sends back their results, runtimes and its own
    CPU time and peak RSS (``report.child``).  Meanwhile the calling process
    runs contrast, karamata, slutsky, theta and diagnostics in that order,
    then writes the bundle, so every entry point but the marginal lane's
    runs here.  On one CPU both lanes run here, the marginal one last, and
    ``report.child`` is None.  Every check draws from its own seed streams,
    so the results do not depend on the lane.  A marginal pass that raises
    is not cached, so selfnorm recomputes it and records the same error
    (repeated work, on failure only); a child that dies marks both checks
    not completed, with a note giving its exit code, and their runtimes NaN.
    Results and runtimes are in report order.
    """
    report = ConvergenceReport(
        header=REPORT_HEADER, config_digest=config.digest(), seed=config.seed
    )
    marginal_pass = functools.cache(functools.partial(_marginal_pass, config))
    checks = {
        "fidi": lambda cfg: run_fidi_convergence(cfg, shared=marginal_pass),
        "selfnorm": lambda cfg: run_selfnorm_convergence(cfg, shared=marginal_pass),
        "contrast": run_j1_vs_m1_contrast,
        "karamata": run_karamata_check,
        "slutsky": run_slutsky_bound_check,
        "theta": run_theta_recovery,
        "diagnostics": run_tail_diagnostics,
    }
    done = {}

    def lane(names):
        for name in names:
            t0 = time.perf_counter()
            try:
                res = checks[name](config)
            except Exception as exc:  # record and continue per the suite contract
                res = _failed_check(name, exc)
            done[name] = (res, time.perf_counter() - t0)
        return {name: done[name] for name in names}

    suite_pid = os.getpid()

    def marginal_lane():
        out = lane(MARGINAL_CHECKS)
        return out, (_process_cost() if os.getpid() != suite_pid else None)

    try:
        _, (marginal, report.child) = _in_two_processes(
            lambda: lane(OTHER_CHECKS), marginal_lane
        )
        done.update(marginal)
    except Exception as exc:  # the marginal lane's process died
        for name in MARGINAL_CHECKS:
            done[name] = (_failed_check(name, exc), float("nan"))
    for name in checks:
        res, sec = done[name]
        report.results.append(res)
        report.runtime[name] = sec
    if outdir is not None:
        write_bundle(report, config, outdir)
    return report


def write_bundle(report, config, outdir):
    os.makedirs(outdir, exist_ok=True)
    paths_dir = os.path.join(outdir, "paths")
    os.makedirs(paths_dir, exist_ok=True)

    with open(os.path.join(outdir, "report.jsonl"), "w") as f:
        for res in report.results:
            for row in res.rows:
                f.write(_render_json(row) + "\n")

    manifest = {
        "config_digest": report.config_digest,
        "seed": report.seed,
        "config": config.canonical_text().splitlines(),
        "versions": _version_record(),
    }
    with open(os.path.join(outdir, "manifest.json"), "w") as f:
        f.write(_render_json(manifest) + "\n")

    paths_note = _write_sample_paths(config, paths_dir)

    with open(os.path.join(outdir, "summary.txt"), "w") as f:
        f.write(f"# {report.header}\n")
        f.write(f"config digest: {report.config_digest}\n")
        f.write(f"seed: {report.seed}\n\n")
        for res in report.results:
            for name, ok in res.verdicts.items():
                f.write(f"{'PASS' if ok else 'FAIL'}  {res.check}.{name}\n")
            for note in res.notes:
                f.write(f"note: {res.check}: {note}\n")
        if paths_note is not None:
            f.write(f"note: paths: {paths_note}\n")
        f.write("\n# runtime (seconds; excluded from reproducibility contract)\n")
        for name, sec in report.runtime.items():
            f.write(f"{name}: {sec:.2f}\n")
        if report.child is not None:
            f.write(
                f"child process (fidi, selfnorm): cpu {report.child['cpu_s']:.2f} s, "
                f"peak RSS {report.child['peak_rss_mb']:.1f} MB\n"
            )


def _version_record():
    """Versions of m1lab, numpy and scipy; scipy's is read from its package
    metadata, so writing a manifest imports no scipy."""
    import importlib.metadata

    import numpy

    from . import __version__

    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        import scipy

        scipy_version = scipy.__version__
    return {"m1lab": __version__, "numpy": numpy.__version__, "scipy": scipy_version}


def _write_sample_paths(config, paths_dir):
    """Write the plotting paths; return why they were not written, or None."""
    from .sumproc import save_joint_csv

    spec = config.model
    try:
        model_alpha(spec)
    except Exception as exc:
        return f"no sample paths: {type(exc).__name__}: {exc}"
    n = min(config.n_grid)
    try:
        x = sample_model(spec, n, stream_seed(config.seed, "paths")).values
        if x.ndim > 1:
            x = x[:, 0]
        a_n = an_theoretical(spec, n) if isinstance(spec, LinearSpec) else float(
            np.quantile(np.abs(x), 1.0 - 1.0 / n)
        )
        pair = build_Ln(x, a_n)
        save_joint_csv(pair, os.path.join(paths_dir, "partial_sums.csv"))
    except Exception as exc:
        return f"partial_sums.csv not written: {type(exc).__name__}: {exc}"
    if isinstance(spec, LinearSpec):
        _spec, _alpha, _theta, cluster, triple = _analytic_setup(config)
        pair, _meta = simulate_levy_pair(
            triple, cluster, n_pts=config.n_pts, seed=stream_seed(config.seed, "limitpath")
        )
        save_joint_csv(pair, os.path.join(paths_dir, "limit_pair.csv"))
    return None
