"""The process that runs one workload; started by run.py.

It imports m1lab, makes the first round's inputs, and reports the set-up
time as seconds since ``--t0`` (a ``time.monotonic`` reading the parent
took just before starting it).  Then it runs whole rounds of operations
until the next round would end after ``--seconds``, checks every output,
and prints one JSON line.  With ``--setup-only`` it stops after set-up.
With ``--trace 1`` it alternates untraced and traced rounds on the same
inputs, so the two can be compared.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def import_program():
    """Import m1lab from this checkout's src/, never from anywhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import m1lab.cli  # noqa: F401  (loads every m1lab module)

    where = os.path.realpath(os.path.dirname(sys.modules["m1lab"].__file__))
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"m1lab was imported from {where}, not from {src}")
    return sys.modules["m1lab"]


def run_rounds(workload, seconds, trace, first_ops):
    """Run rounds until the next one would end after ``seconds``.

    Returns the round records (traced flag, op kinds, op seconds), the
    problem lists per operation, and the tracer's spans.
    """
    import spans

    tracer = spans.Tracer() if trace else None
    rounds, problems = [], []
    start = unit_start = time.perf_counter()
    k = 0
    ops = first_ops
    while True:
        traced = trace and k % 2 == 1
        if k > 0 and not traced:
            ops = workload.round_ops(k // 2 if trace else k)
        times, outs = [], []
        if traced:
            tracer.install()
        try:
            for op in ops:
                op.prepare()
                t0 = time.perf_counter()
                try:
                    out = op.run()
                except Exception:
                    out = None
                    traceback.print_exc()
                times.append(time.perf_counter() - t0)
                outs.append(out)
        finally:
            if traced:
                tracer.uninstall()
        try:
            found = workload.check_round(ops, outs)
        except Exception as exc:
            traceback.print_exc()
            found = [[f"check raised {type(exc).__name__}: {exc}"]] * len(ops)
        problems.extend(found)
        rounds.append({"traced": traced, "kinds": [op.kind for op in ops], "op_s": times})
        k += 1
        if trace and not traced:
            continue  # the traced twin of this round comes next
        # stop when one more round (or untraced/traced pair) would overrun
        now = time.perf_counter()
        if (now - start) + (now - unit_start) > seconds:
            break
        unit_start = now
    return rounds, problems, (tracer.spans if trace else [])


def summarize(rounds, problems):
    untraced = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    out = {
        "attempted": sum(len(r["op_s"]) for r in rounds),
        "failed": sum(1 for p in problems if p),
        "problems": [p for p in problems if p][:5],
        "rounds": len(untraced),
        "ops_per_round": len(rounds[0]["op_s"]),
        "round_s": [sum(r["op_s"]) for r in untraced],
        "run_s": statistics.median(sum(r["op_s"]) for r in untraced),
        "op_p50_s": statistics.median(t for r in untraced for t in r["op_s"]),
    }
    if traced:
        out["traced_rounds"] = len(traced)
        out["traced_run_s"] = statistics.median(sum(r["op_s"]) for r in traced)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import numpy
    import scipy

    m1lab = import_program()
    sys.path.insert(0, HERE)
    import workloads

    workload = workloads.make(args.workload, args.seed, args.out)
    first_ops = workload.round_ops(0)
    setup_s = time.monotonic() - args.t0
    record = {"setup_s": setup_s}
    if not args.setup_only:
        rounds, problems, span_list = run_rounds(workload, args.seconds, args.trace, first_ops)
        record.update(summarize(rounds, problems))
        if args.trace:
            import spans

            record["layers"] = spans.layer_metrics(span_list, record["traced_rounds"])
            os.makedirs(os.path.join(args.out, "traces"), exist_ok=True)
            path = os.path.join(args.out, "traces", f"{args.workload}-seed{args.seed}.jsonl")
            with open(path, "w") as f:
                for name, parent, t0, t1, probe in span_list:
                    f.write(json.dumps([name, parent, t0, t1, probe]) + "\n")
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        from m1lab import kernels

        record["env"] = {
            "kernel_route": "numba" if kernels.USE_NUMBA else "python",
            "m1lab": m1lab.__version__,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
