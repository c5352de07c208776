"""Command-line entry point.

Verbs: simulate | estimate | m1dist | limits | converge | suite.
Exit codes: 0 success / all verdicts pass, 1 verdict failure, 2 usage
error, 3 I/O error.  The environment variable SEED is the lowest-
precedence seed source; --set overrides win over the config file.
"""

import argparse
import dataclasses
import sys

import numpy as np

from . import lab, tailstats
from .config import ConfigError, parse_config
from .models import SquaredGarchSpec, sample_model
from .paths import (
    PathError,
    j1_distance,
    load_path_csv,
    m1_distance,
    step_refine,
    uniform_distance,
    weak_m1_distance,
)
from .stable import StableError, stable_params

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _load_config(args):
    text = ""
    if args.config is not None:
        try:
            with open(args.config, "r") as f:
                text = f.read()
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            raise SystemExit(EXIT_IO) from None
    try:
        cfg, echo = parse_config(text, overrides=args.set or [])
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from None
    if args.seed is not None:
        from .config import replace_config

        cfg = replace_config(cfg, seed=args.seed)
    return cfg, echo


def _open_out(path):
    """stdout, or ``path`` opened for writing; an OSError exits with EXIT_IO."""
    if path is None:
        return sys.stdout
    try:
        return open(path, "w")
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO) from None


def _positive_int(raw):
    """argparse type of a sample size or resolution: an integer >= 1."""
    n = int(raw)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {raw}")
    return n


def _cmd_simulate(args):
    cfg, _ = _load_config(args)
    n = max(cfg.n_grid) if args.n is None else args.n
    sample = sample_model(cfg.model, n, cfg.seed)
    out = _open_out(args.out)
    try:
        vals = sample.values
        if isinstance(cfg.model, SquaredGarchSpec):
            out.write("i,x2,sigma2\n")
            for i in range(n):
                out.write(
                    f"{i + 1},{format(vals[i, 0], '.17g')},{format(vals[i, 1], '.17g')}\n"
                )
        else:
            out.write("i,x\n")
            for i in range(n):
                out.write(f"{i + 1},{format(vals[i], '.17g')}\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


def _cmd_estimate(args):
    cfg, _ = _load_config(args)
    if args.data is not None:
        try:
            values = np.loadtxt(args.data, delimiter=",", skiprows=1, usecols=1)
        except OSError as exc:
            print(f"error: cannot read data: {exc}", file=sys.stderr)
            return EXIT_IO
        except ValueError as exc:
            print(f"error: malformed data: {exc}", file=sys.stderr)
            return EXIT_USAGE
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            print(f"error: malformed data: non-finite value in row {bad[0] + 1}",
                  file=sys.stderr)
            return EXIT_USAGE
    else:
        n = max(cfg.n_grid) if args.n is None else args.n
        sample = sample_model(cfg.model, n, cfg.seed)
        values = sample.values if sample.values.ndim == 1 else sample.values[:, 0]
    try:
        scheme = tailstats.BlockingScheme.from_exponent(values.size, cfg.kappa)
        diag = tailstats.diagnose(values, scheme)
    except tailstats.EstimatorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out = _open_out(args.out)
    try:
        tailstats.dump_jsonl(diag.jsonl_records(), out)
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


def _cmd_m1dist(args):
    try:
        x = load_path_csv(args.path_a)
        y = load_path_csv(args.path_b)
    except OSError as exc:
        print(f"error: cannot read path file: {exc}", file=sys.stderr)
        return EXIT_IO
    except PathError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        unif = uniform_distance(x, y)
        if x.kind == "step" and y.kind == "step" and x.dim == 1 and y.dim == 1:
            j1 = j1_distance(x, y, args.resolution)
        elif x.dim == 1 and y.dim == 1:
            j1 = j1_distance(
                step_refine(x, args.resolution // 2),
                step_refine(y, args.resolution // 2),
                args.resolution,
            )
        else:
            j1 = float("nan")
        if x.dim == 1 and y.dim == 1:
            m1 = m1_distance(x, y, args.resolution)
            weak_m1 = m1  # the product metric has a single factor when d = 1
        else:
            m1 = float("nan")
            weak_m1 = weak_m1_distance(x, y, args.resolution)
    except PathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # nothing is printed until all four values stand
    for name, value in (("uniform", unif), ("j1", j1), ("m1", m1), ("weak_m1", weak_m1)):
        print(f"{name}={format(value, '.17g')}")
    return EXIT_OK


def _cmd_limits(args):
    cfg, _ = _load_config(args)
    try:
        *_, triple = lab._analytic_setup(cfg)
        params = stable_params(triple)
    except lab.LabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERDICT
    rec = {**dataclasses.asdict(triple), "regime": triple.regime}
    rec.update({f"stable_{k}": v for k, v in dataclasses.asdict(params).items()})
    print(lab._render_json(rec))
    return EXIT_OK


_CHECKS = {
    "fidi": lab.run_fidi_convergence,
    "selfnorm": lab.run_selfnorm_convergence,
    "contrast": lab.run_j1_vs_m1_contrast,
    "karamata": lab.run_karamata_check,
    "slutsky": lab.run_slutsky_bound_check,
    "theta": lab.run_theta_recovery,
}


def _cmd_converge(args):
    cfg, _ = _load_config(args)
    try:
        res = _CHECKS[args.check](cfg)
    except (lab.LabError, StableError, tailstats.EstimatorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for row in res.rows:
        print(lab._render_json(row))
    failures = [name for name, ok in res.verdicts.items() if not ok]
    for name in failures:
        print(f"FAIL {res.check}.{name}", file=sys.stderr)
    return EXIT_VERDICT if failures else EXIT_OK


def _cmd_suite(args):
    cfg, echo = _load_config(args)
    outdir = args.out or "suite_bundle"
    try:
        report = lab.run_full_suite(cfg, outdir=outdir)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    for line in echo:
        print(f"# {line}")
    for name, ok in report.verdicts.items():
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    failures = [name for name, ok in report.verdicts.items() if not ok]
    if failures:
        print("failed checks: " + ", ".join(failures), file=sys.stderr)
        return EXIT_VERDICT
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="m1lab",
        description="heavy-tailed partial-sum path metrics, stable limits and "
        "Monte Carlo convergence checks",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--config", help="experiment config file")
        p.add_argument(
            "--set",
            action="append",
            metavar="SECTION.KEY=VALUE",
            help="config override (repeatable)",
        )
        p.add_argument("--seed", type=int, help="seed override (highest precedence)")

    p = sub.add_parser("simulate", help="generate a model sample as CSV")
    common(p)
    p.add_argument("--n", type=_positive_int, help="sample size (default: max of n_grid)")
    p.add_argument("--out", help="output CSV (default: stdout)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="tail diagnostics as JSONL")
    common(p)
    p.add_argument("--data", help="input sample CSV (i,x); default: simulate")
    p.add_argument("--n", type=_positive_int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("m1dist", help="distances between two path CSV files")
    p.add_argument("path_a")
    p.add_argument("path_b")
    p.add_argument("--resolution", type=_positive_int, default=4096)
    p.set_defaults(func=_cmd_m1dist)

    p = sub.add_parser("limits", help="characteristic constants of the limit pair")
    common(p)
    p.set_defaults(func=_cmd_limits)

    p = sub.add_parser("converge", help="run one convergence check")
    common(p)
    p.add_argument("--check", choices=sorted(_CHECKS), required=True)
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("suite", help="run all checks and write a bundle")
    common(p)
    p.add_argument("--out", help="bundle directory (default: suite_bundle)")
    p.set_defaults(func=_cmd_suite)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
