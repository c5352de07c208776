"""SHA-256 digests of the suite bundle's data files, to check that a change
keeps them byte-identical.

Run:  PYTHONPATH=src python3 benchmarks/bundle_digests.py [--full]

Configs: those of ``bench_suite.py``, plus its ``SUITE_CFG`` with
``model.variant=linear``, with ``model.alpha=1.5``, with both, and with
``model.alpha=1.5`` on the order-0 linear model (``model.coeffs=1.0``),
which must print the lines of the ``model.alpha=1.5`` config, with
``model.p=1.0``, with ``model.p=0.7`` at ``model.alpha=1.5``, and with the
order-0 model ``model.coeffs=2.0`` at ``model.alpha=1.5``; ``--full``
adds the default config (about 40 s).  Each config runs
``lab.run_full_suite`` once into a temporary directory, and the script
prints one ``config file sha256`` line for report.jsonl, manifest.json and
each paths/*.csv.  After the report.jsonl line come one
``config report.jsonl:<check> sha256`` line per ``check`` value of its
rows, over that value's lines in file order, in order of first appearance
(rows with no ``check`` key, the diagnostics rows, share
``report.jsonl:-``), so a diff names the checks whose rows moved.  Run it
at two commits and ``diff`` the outputs; summary.txt holds runtimes and is
left out.

The suite's bundles reach the metrics only through ``contrast``, on step
pairs, so the script also prints one ``metrics kind sha256`` line per pair
kind (step/step, pl/pl, step/pl, monotone, two-coordinate) of a fixed,
seeded set of pairs.  Values come partly from ``LEVELS``, so repeats and
signed zeros occur.  A line hashes the 17-digit text of every distance the
kind admits: ``uniform_distance``, each ``m1_distance_detailed`` field,
``j1_distance`` (step pairs), ``monotone_m1_distance`` (monotone pairs) and
``weak_m1_distance`` (two-coordinate pairs), at resolution 512.

``report.jsonl`` keeps only KS statistics, which see only the order of the
pooled samples, so a last-bit change in the replicate pass would not show
there.  The script therefore also prints, per config, one
``config marginals sha256`` line over the 17-digit text of every array of
``lab._marginal_pass`` (the limit draws, then per n the seed stream, the
sums, squared sums, S/V and a_n), and two ``sumproc function sha256``
lines: ``build_Ln`` (times and both coordinates) and
``self_normalized_at`` (every k/n and a fixed grid) on a fixed, seeded set
of heavy-tailed samples of 1 to 500 points.

``stable.levy_marginal_draws`` builds its series in blocks of draws, so
one ``stable levy_marginal_draws sha256`` line hashes the 17-digit text of
``l1``, ``l2`` and ``l2_total``, or the text of the refusal, over a seeded
grid: five models, draw counts on both sides of the block size and two
calls the remainder-sd guard refuses, one of them for a level past the
first block.  One ``stable simulate_levy_pair sha256`` line hashes the
17-digit text of the limit path's times, both coordinates, its totals,
u, b1n and b2n for the same five models at seeds 0 to 3, since the
bundles hold only one ``paths/limit_pair.csv`` per config.
"""

import argparse
import glob
import hashlib
import json
import os
import tempfile

import numpy as np

from bench_suite import CONFIGS, FULL, SUITE_CFG
from m1lab import config, lab, paths, stable, sumproc

VARIANTS = [
    ("determinism-linear", SUITE_CFG, ["model.variant=linear"]),
    ("determinism-alpha15", SUITE_CFG, ["model.alpha=1.5"]),
    # a cluster of width 2 at alpha >= 1: the per-mark truncation of the series
    ("determinism-linear-alpha15", SUITE_CFG, ["model.variant=linear", "model.alpha=1.5"]),
    # the order-0 moving average spelled out: the same model as
    # determinism-alpha15, so its three lines equal that config's
    ("determinism-ma0-alpha15", SUITE_CFG,
     ["model.variant=linear", "model.coeffs=1.0", "model.alpha=1.5"]),
    # lopsided signs: all mass on the positive tail, then b1n != 0 and a
    # mark drift with p != q at alpha >= 1
    ("determinism-p1", SUITE_CFG, ["model.p=1.0"]),
    ("determinism-p07-alpha15", SUITE_CFG, ["model.p=0.7", "model.alpha=1.5"]),
    # a scaled order-0 model, centered by the closed form
    ("determinism-ma0c2-alpha15", SUITE_CFG,
     ["model.variant=linear", "model.coeffs=2.0", "model.alpha=1.5"]),
]


def _check_digests(report):
    """(report.jsonl:<check>, sha256) over each check value's lines of the
    report's bytes, in order of first appearance."""
    by_check = {}
    for line in report.splitlines(keepends=True):
        by_check.setdefault(json.loads(line).get("check", "-"), []).append(line)
    return [(f"report.jsonl:{check}", hashlib.sha256(b"".join(lines)).hexdigest())
            for check, lines in by_check.items()]


def bundle_digests(text, overrides):
    """(file, sha256) of the bundle's data files, in a fixed order, with the
    per-check lines of report.jsonl after its own."""
    cfg, _ = config.parse_config(text, overrides=overrides)
    with tempfile.TemporaryDirectory() as outdir:
        lab.run_full_suite(cfg, outdir=outdir)
        names = ["report.jsonl", "manifest.json"] + sorted(
            os.path.relpath(p, outdir) for p in glob.glob(os.path.join(outdir, "paths", "*.csv"))
        )
        out = []
        for name in names:
            with open(os.path.join(outdir, name), "rb") as f:
                data = f.read()
            out.append((name, hashlib.sha256(data).hexdigest()))
            if name == "report.jsonl":
                out += _check_digests(data)
    return out


def _text17(values):
    return " ".join(format(v, ".17g") for v in np.ravel(values))


def marginal_digest(text, overrides):
    """sha256 over the 17-digit text of every array of the replicate pass."""
    cfg, _ = config.parse_config(text, overrides=overrides)
    alpha, draws, by_n = lab._marginal_pass(cfg)
    parts = [_text17(alpha)] + [_text17(draws[key]) for key in sorted(draws)]
    for n in sorted(by_n):
        base, *arrays = by_n[n]
        parts += [str(n), str(base)] + [_text17(v) for v in arrays]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


SUM_SAMPLES = 30
T_GRID = [0.0, 0.1, 0.25, 0.5, 0.75, 1.0]


def sumproc_digests(seed=20240503):
    """(function, sha256) of build_Ln and self_normalized_at over
    SUM_SAMPLES seeded samples: signed Pareto-like values at alpha 0.8 to
    1.8, 1 to 500 points, a_n drawn in [1, 100)."""
    rng = np.random.default_rng(seed)
    built = []
    normed = []
    for _ in range(SUM_SAMPLES):
        n = int(rng.integers(1, 501))
        alpha = float(rng.uniform(0.8, 1.8))
        x = rng.choice([-1.0, 1.0], n) * (1.0 - rng.random(n)) ** (-1.0 / alpha)
        a_n = float(rng.uniform(1.0, 100.0))
        pair = sumproc.build_Ln(x, a_n)
        built.append(" ".join(_text17(v) for v in (pair.l1.times, pair.l1.values,
                                                     pair.l2.values)))
        normed.append(_text17(sumproc.self_normalized_at(x, None)) + " "
                      + _text17(sumproc.self_normalized_at(x, T_GRID)))
    return [(name, hashlib.sha256("\n".join(text).encode()).hexdigest())
            for name, text in (("build_Ln", built), ("self_normalized_at", normed))]


# (model overrides, draw counts); n_pts 1000 on the default time grid
LEVY_MODELS = [
    ([], [1, 127, 128, 129, 257, 2000]),
    (["model.variant=linear", "model.coeffs=1.0, 0.5"], [1, 129, 300]),
    (["model.alpha=1.5", "model.p=0.7"], [1, 129, 300]),
    (["model.alpha=1.0", "model.p=0.6"], [1, 129, 300]),
    (["model.variant=linear", "model.coeffs=1.0, -0.6, 0.3", "model.alpha=1.2",
      "model.p=0.7"], [1, 129, 300]),
]
# (model overrides, draw count, seed) the guard refuses: at alpha 1.57 the
# 257 draws of seed 33 keep every remainder sd of the first 128 below 0.75
# and pass it at draw 212; at alpha 1.9 every draw passes it
LEVY_REFUSALS = [(["model.alpha=1.57"], 257, 33), (["model.alpha=1.9"], 5, 0)]


def levy_digest(seed=20240503):
    """sha256 over the limit draws (or refusal texts) of the LEVY_ grids."""
    rng = np.random.default_rng(seed)
    calls = [(sets, n, int(rng.integers(2**32))) for sets, counts in LEVY_MODELS
             for n in counts] + LEVY_REFUSALS
    text = []
    for sets, n, call_seed in calls:
        cfg, _ = config.parse_config("", overrides=sets)
        _spec, _alpha, _theta, cluster, triple = lab._analytic_setup(cfg)
        try:
            d = stable.levy_marginal_draws(triple, cluster, cfg.t_grid, n, n_pts=1000,
                                           seed=call_seed)
        except stable.StableError as exc:
            text.append(f"{type(exc).__name__}: {exc}")
            continue
        text.append(" ".join(_text17(d[key]) for key in ("l1", "l2", "l2_total")))
    return hashlib.sha256("\n".join(text).encode()).hexdigest()


def pair_digest(seeds=range(4)):
    """sha256 over the limit paths of the LEVY_MODELS models at ``seeds``."""
    text = []
    for sets, _counts in LEVY_MODELS:
        cfg, _ = config.parse_config("", overrides=sets)
        _spec, _alpha, _theta, cluster, triple = lab._analytic_setup(cfg)
        for seed in seeds:
            pair, meta = stable.simulate_levy_pair(triple, cluster, n_pts=1000, seed=seed)
            text.append(" ".join(
                [_text17(v) for v in (pair.l1.times, pair.l1.values, pair.l2.values)]
                + [_text17([meta["l1_total"], meta["l2_total"], pair.u, pair.b1n,
                            pair.b2n])]
            ))
    return hashlib.sha256("\n".join(text).encode()).hexdigest()


LEVELS = [0.0, -0.0, 1.0, -1.5, 2.0]
METRIC_PAIRS = 40
RESOLUTION = 512


def _draw_path(rng, kind, dim=1, monotone=False):
    """1-40 breakpoints on a coarse grid or at random; values from LEVELS
    or a normal."""
    k = int(rng.integers(0, 40))
    if rng.random() < 0.5:
        grid = int(rng.choice([4, 16, 64]))
        inner = rng.integers(1, grid + 1, k) / grid
    else:
        inner = rng.random(k)
    t = np.unique(np.concatenate([[0.0], inner]))
    shape = (t.size, dim)
    if rng.random() < 0.5:
        v = rng.choice(LEVELS, size=shape)
    else:
        v = rng.normal(size=shape)
    if monotone:
        v = np.sort(v, axis=0)
    return paths.CadlagPath(t, v, kind)


def _pair_distances(kind, x, y):
    """Every distance the pair kind admits, in a fixed order."""
    out = [paths.uniform_distance(x, y)]
    if kind == "two-coordinate":
        return out + [paths.weak_m1_distance(x, y, RESOLUTION)]
    res = paths.m1_distance_detailed(x, y, RESOLUTION)
    out += [res.value, res.lower, res.upper, res.uniform_bound, res.tol]
    if x.kind == y.kind == paths.STEP:
        out.append(paths.j1_distance(x, y, RESOLUTION))
    if kind == "monotone":
        out.append(paths.monotone_m1_distance(x, y))
    return out


def metric_digests(seed=20240503):
    """(pair kind, sha256) over METRIC_PAIRS seeded pairs of each kind."""
    rng = np.random.default_rng(seed)
    kinds = [
        ("step/step", paths.STEP, paths.STEP, {}),
        ("pl/pl", paths.PL, paths.PL, {}),
        ("step/pl", paths.STEP, paths.PL, {}),
        ("monotone", paths.STEP, paths.PL, {"monotone": True}),
        ("two-coordinate", paths.STEP, paths.STEP, {"dim": 2}),
    ]
    out = []
    for label, kind_x, kind_y, opts in kinds:
        text = []
        for _ in range(METRIC_PAIRS):
            x = _draw_path(rng, kind_x, **opts)
            y = _draw_path(rng, kind_y, **opts)
            text.append(" ".join(format(d, ".17g") for d in _pair_distances(label, x, y)))
        out.append((label, hashlib.sha256("\n".join(text).encode()).hexdigest()))
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--full", action="store_true", help="also run the default config")
    args = parser.parse_args()
    for label, text, sets in CONFIGS + VARIANTS + (FULL if args.full else []):
        for name, digest in bundle_digests(text, sets):
            print(f"{label} {name} {digest}", flush=True)
        print(f"{label} marginals {marginal_digest(text, sets)}", flush=True)
    for kind, digest in metric_digests():
        print(f"metrics {kind} {digest}", flush=True)
    for name, digest in sumproc_digests():
        print(f"sumproc {name} {digest}", flush=True)
    print(f"stable levy_marginal_draws {levy_digest()}", flush=True)
    print(f"stable simulate_levy_pair {pair_digest()}", flush=True)


if __name__ == "__main__":
    main()
