"""m1lab benchmark: one workload, one run, one JSON result line.

    python3 m1bench/run.py --workload contrast-clustered --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it benchmarks the m1lab under src/ there.
Workloads and metrics are described in m1bench/README.md.  The last line
of standard output is {"correct", "attempted", "failed", "metrics"}: with
--trace 0 the end-to-end metrics, with --trace 1 the per-layer metrics of a
traced run.  A record of each run (metrics, environment) is written to
m1bench/out/runs/, span traces to m1bench/out/traces/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
from spans import PER_LAYER  # noqa: E402  (stdlib-only module)

WORKLOADS = ["contrast-clustered", "metric-pairs", "suite-desk"]
END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("op_p50_s", "s"),
    ("peak_rss_mb", "MB"),
]
# set-up is measured this many times in extra processes, besides the
# workload's own process; setup_s is the median of all of them
SETUP_PROBES = 2
DEADLINE_S = 170.0


def nproc():
    return len(os.sched_getaffinity(0))


def child_env():
    """The environment of the workload processes.

    Inputs come from --seed alone, so SEED is dropped; M1LAB_NO_NUMBA is
    dropped so the kernel route is whatever this machine has, and it is
    recorded.  BLAS and OpenMP pools are capped at the available cores.
    """
    env = {k: v for k, v in os.environ.items() if k not in ("SEED", "M1LAB_NO_NUMBA")}
    env.pop("PYTHONPATH", None)
    cores = str(nproc())
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[key] = cores
    return env


def git_sha():
    """Commit of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as f:
            return f.read().strip()
    except OSError:
        return "unknown"


def run_worker(args, extra, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT] + extra
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"error: the {args.workload} worker did not finish in time")
    if proc.returncode != 0:
        raise SystemExit(f"error: the {args.workload} worker exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "m1lab", "__init__.py")):
        print(f"error: no m1lab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    setups = [run_worker(args, ["--setup-only"], deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    rec = run_worker(args, [], deadline)
    setups.append(rec["setup_s"])

    if args.trace:
        layers = dict(rec["layers"])
        layers["trace.run_s"] = rec["traced_run_s"]
        layers["trace.overhead_s"] = rec["traced_run_s"] - rec["run_s"]
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        values = dict(rec, setup_s=statistics.median(setups))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    result = {
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": metrics,
    }
    env = dict(rec["env"], nproc=nproc(), git_sha=git_sha(),
               dropped_env=[k for k in ("SEED", "M1LAB_NO_NUMBA") if k in os.environ])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "setup_runs_s": setups,
        "rounds": rec["rounds"], "ops_per_round": rec["ops_per_round"],
        "round_s": rec["round_s"],
        "problems": rec["problems"], **result,
    }
    os.makedirs(os.path.join(OUT, "runs"), exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    with open(os.path.join(OUT, "runs", name), "w") as f:
        json.dump(record, f, indent=1)

    print(f"# {args.workload} seed={args.seed} route={env['kernel_route']} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"nproc={env['nproc']} git={env['git_sha'][:12]}")
    print(f"# rounds={rec['rounds']} ops/round={rec['ops_per_round']} "
          f"attempted={rec['attempted']} failed={rec['failed']}")
    for problem in rec["problems"]:
        print(f"# FAILED: {problem}")
    for key, m in metrics.items():
        print(f"{key:<40} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
