"""The benchmark's workloads: inputs made from a seed, the timed operations,
and the checks of their outputs.

Every call into m1lab goes through a module attribute (``paths.m1_distance``
and so on), so the span wrappers of a traced round see it.  A workload
hands out one round of operations at a time; round ``r`` draws its inputs
from (seed, r), so the same seed always yields the same sequence of inputs.
"""

import contextlib
import io
import json
import math
import os
import shutil

import numpy as np

from m1lab import cli, config, lab, models, paths

import oracles

RESOLUTION = 4096
SLACK = 1e-12


def derive(seed, *keys):
    """A 62-bit seed for one purpose, from the run seed and integer keys."""
    state = np.random.SeedSequence([seed, *keys]).generate_state(2, np.uint32)
    return (int(state[0]) << 30) ^ int(state[1])


class Op:
    """One timed operation: ``run`` is timed, ``prepare`` and ``check`` are not."""

    kind = ""

    def prepare(self):
        pass

    def run(self):
        raise NotImplementedError


def _check_each(ops, outs):
    """Problems per operation; ``None`` marks an operation that raised."""
    return [["raised"] if out is None else op.check(out) for op, out in zip(ops, outs)]


def _require(problems, ok, message):
    if not ok:
        problems.append(message)


# ---------------------------------------------------------------- contrast


class ContrastOp(Op):
    kind = "contrast"

    def __init__(self, cfg):
        self.cfg = cfg

    def run(self):
        return lab.run_j1_vs_m1_contrast(self.cfg)

    def check(self, res):
        problems = []
        _require(problems, res.passed, f"contrast verdicts {res.verdicts}")
        spec = self.cfg.model
        for row in res.rows:
            if row["check"] != "contrast":
                continue
            n = row["n"]
            # rebuild the compared pair: the normalized sum path and its
            # block-endpoint subsample
            x = models.sample_model(
                spec, n, models.derive_seed(row["seed_stream"], row["replicate"])
            ).values
            s = np.concatenate([[0.0], np.cumsum(x / models.an_theoretical(spec, n))])
            k_n = n // row["r_n"]
            path = (np.arange(n + 1) / n, s, "step")
            collapsed = (np.arange(k_n + 1) / k_n, s[np.arange(k_n + 1) * row["r_n"]], "step")
            unif = oracles.uniform_distance(path, collapsed)
            tol = max(unif, 1e-12) / max(self.cfg.m1_resolution, 4 * n + 16)
            m1, j1 = row["m1"], row["j1"]
            where = f"contrast n={n} seed={self.cfg.seed}"
            _require(problems, m1 >= oracles.endpoint_gap(path, collapsed) - SLACK,
                     f"{where}: m1 below the endpoint gap")
            _require(problems, m1 <= j1 + 2.0 * tol + SLACK, f"{where}: m1 {m1} > j1 {j1}")
            _require(problems, j1 <= unif + tol + SLACK, f"{where}: j1 {j1} > uniform {unif}")
        return problems


class ContrastWorkload:
    """One contrast replicate per operation, clustered MA(1), n in {100, 300, 1000}."""

    name = "contrast-clustered"

    def __init__(self, seed, tiny=False):
        self.seed = seed
        sets = ["model.variant=linear", "model.coeffs=1.0, 0.5", "model.alpha=0.8",
                "run.contrast_replicates=1"]
        if tiny:
            sets.append("run.contrast_n_grid=30, 60")
        self.cfg, _ = config.parse_config("", overrides=sets)

    def round_ops(self, r):
        return [ContrastOp(config.replace_config(self.cfg, seed=derive(self.seed, 1, r)))]

    def check_round(self, ops, outs):
        return _check_each(ops, outs)


# ------------------------------------------------------------ metric pairs


def _walk(times, start, steps):
    """Breakpoints (0, times...) and values start + cumsum(steps)."""
    return np.concatenate([[0.0], times]), start + np.concatenate([[0.0], np.cumsum(steps)])


def _bridge(rng, j):
    """Normal increments shifted to sum to 0, so a walk ends where it starts."""
    steps = rng.normal(size=j)
    return steps - steps.mean()


def _jump_times(rng, j):
    return np.sort(rng.uniform(0.0, 1.0, j))


def _spread_times(rng, j):
    # one jump per cell of width 1/j, away from the cell edges
    return (np.arange(j) + 0.1 + 0.5 * rng.random(j)) / j


class PairOp(Op):
    """Uniform, strong M1 and (step pairs) J1 of one scalar pair."""

    def __init__(self, kind, x, y, near_radius=None):
        self.kind = kind
        self.x, self.y = x, y
        self.near_radius = near_radius
        self.px = paths.CadlagPath(x[0], x[1], x[2])
        self.py = paths.CadlagPath(y[0], y[1], y[2])

    def run(self):
        unif = paths.uniform_distance(self.px, self.py)
        m1 = paths.m1_distance_detailed(self.px, self.py, RESOLUTION)
        j1 = None
        if self.x[2] == "step" and self.y[2] == "step":
            j1 = paths.j1_distance(self.px, self.py, RESOLUTION)
        return unif, m1, j1

    def check(self, out):
        unif, m1, j1 = out
        problems = []
        ref = oracles.uniform_distance(self.x, self.y)
        _require(problems, abs(unif - ref) <= 1e-9 * (1.0 + ref),
                 f"{self.kind}: uniform {unif} != merged-grid {ref}")
        d, tol = m1.value, m1.tol
        _require(problems, d >= oracles.endpoint_gap(self.x, self.y) - SLACK,
                 f"{self.kind}: m1 {d} below the endpoint gap")
        _require(problems, d <= unif + tol + SLACK, f"{self.kind}: m1 {d} > uniform {unif}")
        if j1 is not None:
            _require(problems, d <= j1 + 2.0 * tol + SLACK, f"{self.kind}: m1 {d} > j1 {j1}")
            _require(problems, j1 <= unif + tol + SLACK, f"{self.kind}: j1 {j1} > uniform {unif}")
        if self.near_radius is not None:
            # every jump moved by at most near_radius in time, nothing else changed
            _require(problems, d <= self.near_radius + tol + SLACK,
                     f"{self.kind}: m1 {d} > shift {self.near_radius}")
        if self.kind.startswith("monotone"):
            ref_m1 = oracles.monotone_m1(self.x, self.y)
            _require(problems, abs(d - ref_m1) <= tol + SLACK,
                     f"{self.kind}: m1 {d} vs closed form {ref_m1} (tol {tol})")
        return problems


class WeakPairOp(Op):
    """Uniform and weak M1 of one two-coordinate step pair."""

    kind = "two-coordinate"

    def __init__(self, x, y):
        self.x, self.y = x, y
        self.px = paths.CadlagPath(x[0], x[1], "step")
        self.py = paths.CadlagPath(y[0], y[1], "step")

    def run(self):
        return (
            paths.uniform_distance(self.px, self.py),
            paths.weak_m1_distance(self.px, self.py, RESOLUTION),
        )

    def check(self, out):
        unif, weak = out
        problems = []
        coords = [((self.x[0], self.x[1][:, j], "step"), (self.y[0], self.y[1][:, j], "step"))
                  for j in range(2)]
        ref = max(oracles.uniform_distance(a, b) for a, b in coords)
        _require(problems, abs(unif - ref) <= 1e-9 * (1.0 + ref),
                 f"two-coordinate: uniform {unif} != merged-grid {ref}")
        per_coord = max(
            paths.m1_distance(self.px.coord(j), self.py.coord(j), RESOLUTION) for j in range(2)
        )
        _require(problems, weak == per_coord,
                 f"two-coordinate: weak m1 {weak} != max coordinate m1 {per_coord}")
        _require(problems, weak <= unif + unif / RESOLUTION + SLACK,
                 f"two-coordinate: weak m1 {weak} > uniform {unif}")
        return problems


def _independent_pair(rng, j, label):
    """Two independent paths of j jumps (pl: knots) at random times: bridges
    of normal steps, or for the monotone kinds nondecreasing from 0 to 1."""
    kind = "pl" if label.endswith("-pl") else "step"
    pair = []
    for _ in range(2):
        steps = rng.dirichlet(np.ones(j)) if label.startswith("monotone") else _bridge(rng, j)
        t, v = _walk(_jump_times(rng, j), 0.0, steps)
        pair.append((t, v, kind))
    return PairOp(label, *pair)


def _near_pair(rng, j, label):
    """A step path with j jumps, and the same path with each jump split into
    two same-sign jumps (near-split) or replaced by a ramp (near-ramp), over
    a window of at most 0.25/j after the jump."""
    t, v = _walk(_spread_times(rng, j), rng.normal(),
                 rng.choice([-1.0, 1.0], j) * (0.5 + rng.exponential(size=j)))
    shift = rng.uniform(0.05, 0.25, j) / j
    if label == "near-split":
        mid = v[:-1] + rng.uniform(0.3, 0.7, j) * np.diff(v)
        ts = np.concatenate([[0.0], np.column_stack([t[1:], t[1:] + shift]).ravel()])
        vs = np.concatenate([[v[0]], np.column_stack([mid, v[1:]]).ravel()])
        other = (ts, vs, "step")
    else:
        ts = np.concatenate([[0.0], np.column_stack([t[1:], t[1:] + shift]).ravel(), [1.0]])
        vs = np.concatenate([[v[0]], np.column_stack([v[:-1], v[1:]]).ravel(), [v[-1]]])
        other = (ts, vs, "pl")
    return PairOp(label, (t, v, "step"), other, float(shift.max()))


def _two_coordinate_pair(rng, j, label):
    pair = []
    for _ in range(2):
        times = _jump_times(rng, j)
        t, v0 = _walk(times, 0.0, _bridge(rng, j))
        _, v1 = _walk(times, 0.0, _bridge(rng, j))
        pair.append((t, np.column_stack([v0, v1])))
    return WeakPairOp(*pair)


class MetricPairsWorkload:
    """A fixed mix of generated path pairs per round; see README.md."""

    name = "metric-pairs"
    # (kind, pairs per round, jumps or knots per path, generator).  The sizes
    # give every kind about 6400 free-space cells per decision, and the two
    # paths of a pair share their end values: the bisection starts at the
    # end-value gap, so each pair costs a full bisection.
    MIX = [
        ("random", 4, 40, _independent_pair),
        ("near-split", 4, 28, _near_pair),
        ("near-ramp", 2, 40, _near_pair),
        ("monotone-step", 2, 40, _independent_pair),
        ("monotone-pl", 2, 80, _independent_pair),
        ("two-coordinate", 2, 28, _two_coordinate_pair),
    ]

    def __init__(self, seed, tiny=False):
        self.seed = seed
        self.tiny = tiny

    def round_ops(self, r):
        rng = np.random.default_rng(derive(self.seed, 2, r))
        return [
            make(rng, 6 if self.tiny else size, label)
            for label, count, size, make in self.MIX
            for _ in range(count)
        ]

    def check_round(self, ops, outs):
        return _check_each(ops, outs)


# ------------------------------------------------------------------- suite


class SuiteOp(Op):
    kind = "suite"

    def __init__(self, label, sets, seed, outdir):
        self.label = label
        self.argv = ["suite", "--seed", str(seed), "--out", outdir]
        for s in sets:
            self.argv += ["--set", s]
        self.outdir = outdir
        self.cfg, _ = config.parse_config("", overrides=sets)

    def prepare(self):
        shutil.rmtree(self.outdir, ignore_errors=True)

    def run(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(self.argv)
        return code, buf.getvalue()

    def check(self, out):
        code, text = out
        where = f"suite {self.label}"
        problems = []
        verdicts = [line for line in text.splitlines() if line.startswith(("PASS", "FAIL"))]
        _require(problems, code == 0, f"{where}: exit code {code}")
        _require(problems, bool(verdicts) and all(v.startswith("PASS") for v in verdicts),
                 f"{where}: {[v for v in verdicts if not v.startswith('PASS')]}")
        with open(os.path.join(self.outdir, "report.jsonl")) as f:
            rows = [json.loads(line) for line in f]
        tols = self.cfg.tolerances
        counts = {"karamata": 0, "slutsky": 0, "theta": 0}
        for row in rows:
            kind = row.get("check")
            if kind == "karamata":
                lim1, lim2 = oracles.karamata_limits(row["alpha"], row["u"])
                for est, lim, rel, key in ((row["estimate_first"], lim1, row["rel_err_first"], "first"),
                                           (row["estimate_second"], lim2, row["rel_err_second"], "second")):
                    ref_rel = abs(est - lim) / lim
                    _require(problems, math.isclose(row[f"limit_{key}"], lim, rel_tol=1e-12),
                             f"{where}: karamata {key} limit {row[f'limit_{key}']} != {lim}")
                    _require(problems, math.isclose(rel, ref_rel, rel_tol=1e-9, abs_tol=1e-15),
                             f"{where}: karamata {key} rel_err {rel} != {ref_rel}")
                    _require(problems, ref_rel <= tols["karamata_rel"],
                             f"{where}: karamata alpha={row['alpha']} u={row['u']} {key} {ref_rel}")
            elif kind == "slutsky":
                bound = oracles.slutsky_bound(row["alpha"], row["u"], row["eps"])
                _require(problems, math.isclose(row["bound"], bound, rel_tol=1e-12),
                         f"{where}: slutsky bound {row['bound']} != {bound}")
                _require(problems, row["empirical"] <= bound + 3.0 * row["binomial_se"],
                         f"{where}: slutsky u={row['u']} eps={row['eps']} exceeds the bound")
            elif kind == "theta":
                coeffs = {"iid": (1.0,), "ma_1_05": (1.0, 0.5), "ma_1_1": (1.0, 1.0)}[row["model"]]
                theta = oracles.linear_extremal_index(coeffs, 1.0)
                _require(problems, math.isclose(row["theta_true"], theta, rel_tol=1e-12),
                         f"{where}: theta_true {row['theta_true']} != {theta}")
                _require(problems, abs(row["theta_hat_mean"] - theta) <= tols["theta_abs"],
                         f"{where}: theta {row['model']} estimate {row['theta_hat_mean']}")
            else:
                continue
            counts[kind] += 1
        _require(problems, all(counts.values()), f"{where}: report rows missing {counts}")
        return problems


# the bundle files the determinism contract covers
_DETERMINISTIC = ("report.jsonl", "manifest.json")


def _bundle_bytes(outdir):
    files = list(_DETERMINISTIC)
    csv_dir = os.path.join(outdir, "paths")
    files += sorted(os.path.join("paths", f) for f in os.listdir(csv_dir) if f.endswith(".csv"))
    out = {}
    for name in files:
        with open(os.path.join(outdir, name), "rb") as f:
            out[name] = f.read()
    return out


class SuiteWorkload:
    """Full ``m1lab suite`` runs through ``cli.main``; see README.md."""

    name = "suite-desk"
    # The verdicts are statistical tests with fixed tolerances; at a random
    # seed the fidi KS gate alone fails about one run in a few hundred, which
    # would make the failure count differ between runs.  So every round runs
    # the suite at the seed m1lab ships as run.seed, and --seed does not
    # change this workload.
    SEED = 20240503
    # default config; the contrast grid is cut to its smallest n and its
    # replicates to 2, so the metric kernels stay a minor share of a run
    BASE = ["run.contrast_n_grid=100", "run.contrast_replicates=2"]
    TINY = ["run.replicates=200", "run.limit_draws=200", "run.n_grid=100, 1000",
            "run.n_pts=1000", "run.karamata_mc=1000000", "run.theta_n=20000",
            "run.theta_replicates=4", "run.slutsky_replicates=50",
            "run.contrast_n_grid=30", "run.contrast_replicates=2"]
    MODELS = [
        ("iid", []),
        ("clustered", ["model.variant=linear", "model.coeffs=1.0, 0.5"]),
        ("centered", ["model.alpha=1.5"]),
    ]

    def __init__(self, outroot, tiny=False):
        self.outroot = outroot
        self.tiny = tiny

    def round_ops(self, r):
        base = self.BASE + (self.TINY if self.tiny else [])
        ops = [
            SuiteOp(label, base + sets, self.SEED, os.path.join(self.outroot, label))
            for label, sets in self.MODELS
        ]
        # the determinism check: the first run again, into its own bundle
        ops.append(SuiteOp("iid-repeat", base, self.SEED, os.path.join(self.outroot, "iid-repeat")))
        return ops

    def check_round(self, ops, outs):
        problems = _check_each(ops, outs)
        first, repeat = ops[0], ops[-1]
        if outs[0] is None or outs[-1] is None:
            return problems
        a, b = _bundle_bytes(first.outdir), _bundle_bytes(repeat.outdir)
        if a.keys() != b.keys() or any(a[k] != b[k] for k in a):
            diff = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
            problems[-1].append(f"suite repeat differs from the first run in {diff}")
        return problems


def make(name, seed, outroot, tiny=False):
    if name == ContrastWorkload.name:
        return ContrastWorkload(seed, tiny)
    if name == MetricPairsWorkload.name:
        return MetricPairsWorkload(seed, tiny)
    if name == SuiteWorkload.name:
        return SuiteWorkload(os.path.join(outroot, "bundles"), tiny)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = [ContrastWorkload.name, MetricPairsWorkload.name, SuiteWorkload.name]
