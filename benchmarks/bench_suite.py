"""Per-check wall times of the full suite, ``lab.run_full_suite``.

Run:  python3 benchmarks/bench_suite.py [--full] [--record]

Configs:

- ``determinism``: ``SUITE_CFG`` of ``tests/suite_cfg.py``, the config
  whose bundle must stay byte-identical across refactors;
- ``suite-desk-iid``, ``suite-desk-clustered``, ``suite-desk-centered``:
  the three models of the ``suite-desk`` benchmark workload (default
  config, seed 20240503, contrast cut to n = 100 with 2 replicates);
- ``default`` (only with ``--full``, about a minute per run): the default
  config.

A ``startup`` row comes first: a fresh interpreter imports ``m1lab.cli``
and parses the default config, and prints the wall time of that and its
peak resident memory (``VmHWM``; Linux only).  It imports the same m1lab
as this script.

Each config runs ``REPEAT`` times, writing its bundle to a temporary
directory as ``m1lab suite`` does.  A check's time is the best of its
``REPEAT`` runtimes as the suite reports them, and ``total_s`` is the best
wall time of the whole call, bundle writing included; the startup row keeps
the best of ``REPEAT`` fresh interpreters.  ``peak_mb`` is the median of
the peaks of the memory Python and numpy allocate during ``REPEAT`` more,
untimed runs of the config, as tracemalloc reports them, so tracing does
not slow the timed runs; ``peak_mb_range`` holds their least and largest.
The suite runs on one thread, and on a 2-vCPU machine the peaks of
identical runs of the four configs above agree to 0.1 MB; the range shows
whether that still holds.  With ``--record`` one point
per config is appended to BENCH_suite.json at the repository root, with the
same environment fields as BENCH_kernels.json.  Compare points only when
machine and route match.
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time

from bench_kernels import REPEAT, ROOT, append_points, environment, peak_mb
from m1lab import config, lab

sys.path.insert(0, os.path.join(ROOT, "tests"))
from suite_cfg import SUITE_CFG  # noqa: E402

RECORD = os.path.join(ROOT, "BENCH_suite.json")
DESK = ["run.seed=20240503", "run.contrast_n_grid=100", "run.contrast_replicates=2"]
CONFIGS = [
    ("determinism", SUITE_CFG, []),
    ("suite-desk-iid", "", DESK),
    ("suite-desk-clustered", "", DESK + ["model.variant=linear", "model.coeffs=1.0, 0.5"]),
    ("suite-desk-centered", "", DESK + ["model.alpha=1.5"]),
]
FULL = [("default", "", [])]
# ru_maxrss would carry over the launching process's peak across exec, so
# the child reads the peak of its own address space, VmHWM (Linux)
STARTUP = """
import time

t0 = time.perf_counter()
import m1lab.cli
from m1lab import config

config.parse_config("")
wall = time.perf_counter() - t0
with open("/proc/self/status") as f:
    hwm = next(line.split()[1] for line in f if line.startswith("VmHWM:"))
print(wall, int(hwm) / 1024)
"""


def bench_startup():
    """Best-of-REPEAT seconds and peak RSS (MB) of a fresh interpreter that
    imports m1lab.cli and parses the default config."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(lab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    runs = []
    for _ in range(REPEAT):
        out = subprocess.run([sys.executable, "-c", STARTUP], env=env, check=True,
                             capture_output=True, text=True).stdout
        runs.append([float(v) for v in out.split()])
    return min(sec for sec, _ in runs), min(mb for _, mb in runs)


def run_suite(cfg):
    with tempfile.TemporaryDirectory() as outdir:
        return lab.run_full_suite(cfg, outdir=outdir)


def bench(text, overrides):
    """Best-of-REPEAT seconds per check and of the whole suite call, and the
    traced peak MB of REPEAT more runs, least to largest."""
    cfg, _ = config.parse_config(text, overrides=overrides)
    checks = {}
    total = float("inf")
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        report = run_suite(cfg)
        total = min(total, time.perf_counter() - t0)
        for name, sec in report.runtime.items():
            checks[name] = min(checks.get(name, float("inf")), sec)
    return checks, total, sorted(peak_mb(lambda: run_suite(cfg)) for _ in range(REPEAT))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--full", action="store_true", help="also run the default config")
    parser.add_argument("--record", action="store_true",
                        help="append the points to BENCH_suite.json")
    args = parser.parse_args()
    startup_s, startup_mb = bench_startup()
    rows = [(label, *bench(text, sets))
            for label, text, sets in CONFIGS + (FULL if args.full else [])]

    route = "python"
    widths = {n: max(12, len(n) + 2) for n in rows[0][1]}
    print(f"route {route}; best of {REPEAT} runs, seconds")
    print(f"startup: import m1lab.cli + default parse_config {startup_s:.3f} s, "
          f"peak RSS {startup_mb:.1f} MB")
    print(f"{'config':<22}" + "".join(f"{n:>{w}}" for n, w in widths.items())
          + f"{'total':>10}{'peak MB':>9}  range")
    for label, checks, total, peaks in rows:
        print(f"{label:<22}" + "".join(f"{checks[n]:>{w}.3f}" for n, w in widths.items())
              + f"{total:>10.3f}{statistics.median(peaks):>9.1f}"
              + f"  {peaks[0]:.1f}-{peaks[-1]:.1f}")
    if not args.record:
        return
    env = environment(route)
    append_points(RECORD, [
        {"config": "startup", "total_s": round(startup_s, 4),
         "peak_rss_mb": round(startup_mb, 1), "repeat": REPEAT, **env},
    ] + [
        {"config": label, "checks": {n: round(s, 4) for n, s in checks.items()},
         "total_s": round(total, 4), "peak_mb": round(statistics.median(peaks), 1),
         "peak_mb_range": [round(peaks[0], 1), round(peaks[-1], 1)], "repeat": REPEAT, **env}
        for label, checks, total, peaks in rows
    ])


if __name__ == "__main__":
    main()
