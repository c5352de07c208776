"""SHA-256 digests of the suite bundle's data files, to check that a change
keeps them byte-identical.

Run:  PYTHONPATH=src python3 benchmarks/bundle_digests.py [--full]

Configs: those of ``bench_suite.py``, plus its ``SUITE_CFG`` with
``model.variant=linear``, with ``model.alpha=1.5`` and with both; ``--full``
adds the default config (about 40 s).  Each config runs
``lab.run_full_suite`` once into a temporary directory, and the script
prints one ``config file sha256`` line for report.jsonl, manifest.json and
each paths/*.csv.  Run it at two commits and ``diff`` the outputs;
summary.txt holds runtimes and is left out.
"""

import argparse
import glob
import hashlib
import os
import tempfile

from bench_suite import CONFIGS, FULL, SUITE_CFG
from m1lab import config, lab

VARIANTS = [
    ("determinism-linear", SUITE_CFG, ["model.variant=linear"]),
    ("determinism-alpha15", SUITE_CFG, ["model.alpha=1.5"]),
    # a cluster of width 2 at alpha >= 1: the per-mark truncation of the series
    ("determinism-linear-alpha15", SUITE_CFG, ["model.variant=linear", "model.alpha=1.5"]),
]


def bundle_digests(text, overrides):
    """(file, sha256) of the bundle's data files, in a fixed order."""
    cfg, _ = config.parse_config(text, overrides=overrides)
    with tempfile.TemporaryDirectory() as outdir:
        lab.run_full_suite(cfg, outdir=outdir)
        names = ["report.jsonl", "manifest.json"] + sorted(
            os.path.relpath(p, outdir) for p in glob.glob(os.path.join(outdir, "paths", "*.csv"))
        )
        out = []
        for name in names:
            with open(os.path.join(outdir, name), "rb") as f:
                out.append((name, hashlib.sha256(f.read()).hexdigest()))
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--full", action="store_true", help="also run the default config")
    args = parser.parse_args()
    for label, text, sets in CONFIGS + VARIANTS + (FULL if args.full else []):
        for name, digest in bundle_digests(text, sets):
            print(f"{label} {name} {digest}", flush=True)


if __name__ == "__main__":
    main()
