"""Timings of the metric decision kernels, the GARCH recursion and the Lévy
marginal draws.

Run:  python3 benchmarks/bench_kernels.py [--sizes 40 100 400] [--record]

The decision kernels are timed on two input shapes:

- ``contrast``: the inputs of the contrast check at n = 100 and n = 1000
  (clustered MA(1), coeffs 1 and 0.5, alpha = 0.8, one replicate): the
  normalized partial-sum path against its block-collapsed version, over
  every radius its bisection visits.  ``size`` is the two inputs' vertex
  (frechet) or jump (j1) counts in argument order, and the time is that of
  the whole set of decisions.  The J1 pair comes long-first (at n = 100,
  the path's jumps before the collapsed path's), so its rows show what the
  kernel's sweep over the shorter list buys.
- ``balanced``: two random step paths with ``size`` jumps each, at d = their
  uniform distance, where the sweep runs to the end and answers True.  The
  pair is drawn from a generator seeded with ``size``, so a row's inputs do
  not depend on which other sizes run.  The default sizes hold 40, the
  path size of m1bench's ``metric-pairs``.

``levy_marginal_draws`` is timed at the suite's size, 2000 draws of 2000
Poisson points on the default time grid, for the default iid model and the
clustered MA(1) (coeffs 1 and 0.5); its row also gives the peak of the
memory numpy allocates during one call, as tracemalloc reports it.

Each time is the best of ``REPEAT`` runs.  With ``--record`` every row is
appended as one point to BENCH_kernels.json at the repository root, with
the git commit of the measured source, the kernel route, the Python and
numpy versions and the CPU count.  Compare points only when machine and
route match.
"""

import argparse
import json
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np

from m1lab import config, kernels, lab, stable
from m1lab.paths import CadlagPath, completed_graph, uniform_distance

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD = os.path.join(ROOT, "BENCH_kernels.json")
CONTRAST = ["model.variant=linear", "model.coeffs=1.0, 0.5", "model.alpha=0.8",
            "run.contrast_replicates=1"]
CONTRAST_N = (100, 1000)
LEVY_MODELS = [("iid", []), ("clustered", ["model.variant=linear", "model.coeffs=1.0, 0.5"])]
REPEAT = 3


def best_of(fn):
    best = float("inf")
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def contrast_calls(n):
    """Arguments of every decision the contrast check makes at n."""
    calls = {"frechet_feasible": [], "j1_feasible": []}
    originals = {name: getattr(kernels, name) for name in calls}

    def recorder(name):
        def record(*args):
            calls[name].append(args)
            return originals[name](*args)
        return record

    cfg, _ = config.parse_config("", overrides=CONTRAST + [f"run.contrast_n_grid={n}"])
    try:
        for name in calls:
            setattr(kernels, name, recorder(name))
        lab.run_j1_vs_m1_contrast(cfg)
    finally:
        for name, fn in originals.items():
            setattr(kernels, name, fn)
    return calls


def bench_contrast(n):
    rows = []
    for name, calls in contrast_calls(n).items():
        fn = getattr(kernels, name)
        size = [len(calls[0][0]), len(calls[0][1 if name == "j1_feasible" else 2])]

        def run():
            for args in calls:
                fn(*args)

        rows.append((name, "contrast", size, len(calls), best_of(run)))
    return rows


def random_step_path(rng, n_jumps):
    times = np.concatenate([[0.0], np.unique(rng.random(n_jumps))])
    return CadlagPath(times, np.cumsum(rng.standard_normal(times.size)), "step")


def bench_balanced(n_jumps):
    rng = np.random.default_rng(n_jumps)
    x = random_step_path(rng, n_jumps)
    y = random_step_path(rng, n_jumps)
    d = uniform_distance(x, y)
    pt, pv = completed_graph(x)
    qt, qv = completed_graph(y)
    tx, sy = x.times[1:], y.times[1:]
    levx, levy = x.values[:, 0], y.values[:, 0]
    return [
        ("frechet_feasible", "balanced", [n_jumps, n_jumps], 1,
         best_of(lambda: kernels.frechet_feasible(pt, pv, qt, qv, d))),
        ("j1_feasible", "balanced", [n_jumps, n_jumps], 1,
         best_of(lambda: kernels.j1_feasible(tx, sy, levx, levy, d))),
    ]


def bench_garch(rng, n):
    args = (rng.standard_normal(n + 1000), 1.0, 0.5, 0.3, 5.0, 1000)
    return [("garch_recursion", "series", [n], 1,
             best_of(lambda: kernels.garch_recursion(*args)))]


def peak_mb(fn):
    """Peak MB traced by tracemalloc during one call of fn."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def bench_levy():
    rows = []
    for label, sets in LEVY_MODELS:
        cfg, _ = config.parse_config("", overrides=sets)
        _spec, _alpha, _theta, cluster, triple = lab._analytic_setup(cfg)

        def run():
            stable.levy_marginal_draws(
                triple, cluster, cfg.t_grid, cfg.limit_draws, n_pts=cfg.n_pts, seed=cfg.seed
            )

        rows.append(("levy_marginal_draws", label, [cfg.limit_draws, cfg.n_pts], 1,
                     best_of(run), peak_mb(run)))
    return rows


def source_commit():
    """Commit of the checkout m1lab was imported from, and whether src/ differs."""
    src = os.path.dirname(os.path.abspath(kernels.__file__))

    def git(*args):
        out = subprocess.run(["git", "-C", src, *args], capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    return sha or "unknown", bool(git("status", "--porcelain", "--", "."))


def environment(route):
    """The fields every recorded point carries besides its timings."""
    sha, dirty = source_commit()
    return {
        "route": route,
        "git_sha": sha,
        "src_dirty": dirty,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def append_points(record, new_points):
    points = []
    if os.path.exists(record):
        with open(record) as f:
            points = json.load(f)
    points += new_points
    with open(record, "w") as f:
        json.dump(points, f, indent=1)
        f.write("\n")
    print(f"appended {len(new_points)} points to {record}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--sizes", type=int, nargs="+", default=[40, 100, 400])
    parser.add_argument("--record", action="store_true",
                        help="append the rows to BENCH_kernels.json")
    args = parser.parse_args()
    rows = [row for n in CONTRAST_N for row in bench_contrast(n)]
    for n in args.sizes:
        rows += bench_balanced(n)
    rows += bench_garch(np.random.default_rng(0), 200_000)
    rows = [row + (None,) for row in rows] + bench_levy()

    route = "python"
    print(f"route {route}")
    print(f"{'kernel':<20} {'inputs':<10} {'size':>12} {'decisions':>9} {'best s':>10} {'peak MB':>8}")
    for name, inputs, size, calls, sec, peak in rows:
        print(f"{name:<20} {inputs:<10} {'x'.join(map(str, size)):>12} {calls:>9} {sec:>10.4f}"
              + ("" if peak is None else f" {peak:>8.1f}"))
    if not args.record:
        return
    env = environment(route)
    append_points(RECORD, [
        {"kernel": name, "inputs": inputs, "size": size, "decisions": calls,
         "best_s": round(sec, 6), "repeat": REPEAT,
         **({} if peak is None else {"peak_mb": round(peak, 1)}), **env}
        for name, inputs, size, calls, sec, peak in rows
    ])


if __name__ == "__main__":
    main()
