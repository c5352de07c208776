"""The functions of ``src/m1lab`` that no CLI verb enters.

Run:  PYTHONPATH=src python3 benchmarks/reach.py

The script pins itself to one CPU (``os.sched_setaffinity``), so the suite
runs every check in this process and forks nothing, and installs a
``sys.setprofile`` hook that records each Python function entered in a
file under ``src/m1lab``.  Then it runs every verb through ``cli.main``,
its output discarded:

- ``suite`` on iid alpha 0.8, linear alpha 1.3, iid alpha 1.0, ``garch``
  and ``squared_garch``, each at the sizes of ``SUITE_CFG``
  (``tests/suite_cfg.py``);
- ``converge`` for each of the six checks, at the same sizes and with
  ``run.t_grid`` set, so a float list is parsed;
- ``simulate``, ``estimate`` (simulated and from the simulated file) and
  ``limits`` at alpha 0.8, 1.0 and 1.5, one of them with ``--seed``;
- ``m1dist`` on step, pl and two-coordinate path files.

It prints each ``def`` in the package that no run entered, as
``module:line qualname (lines)``, then their count and line total against
the package's.  A function the hook cannot see is listed too: the
fork helpers of ``lab._in_two_processes`` run only in a child, and a name
read only from outside the package (``m1bench``) shows as unreached here.
Takes about ten seconds; it is not part of the test suite.
"""

import ast
import contextlib
import glob
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "m1lab")
sys.path.insert(0, os.path.join(ROOT, "tests"))
from suite_cfg import SUITE_CFG  # noqa: E402

SUITES = [
    ["model.variant=iid", "model.alpha=0.8"],
    ["model.variant=linear", "model.alpha=1.3"],
    ["model.variant=iid", "model.alpha=1.0"],
    ["model.variant=garch"],
    ["model.variant=squared_garch"],
]
CHECKS = ["fidi", "selfnorm", "contrast", "karamata", "slutsky", "theta"]
ALPHAS = ["0.8", "1.0", "1.5"]
PATH_FILES = {
    "step_a.csv": "# kind=step d=1\n0,0\n0.25,1\n0.5,-0.5\n0.75,2\n",
    "step_b.csv": "# kind=step d=1\n0,0\n0.3,1.5\n0.6,2\n",
    "pl_a.csv": "# kind=pl d=1\n0,0\n0.5,1\n1,0.25\n",
    "pl_b.csv": "# kind=pl d=1\n0,0\n0.4,2\n1,1\n",
    "two_a.csv": "# kind=step d=2\n0,0,0\n0.5,1,2\n",
    "two_b.csv": "# kind=step d=2\n0,0,0\n0.4,1.5,1\n0.8,0.5,3\n",
}


def defined_functions():
    """(file, first line) -> (module, qualname, lines) of every def in the
    package; the first line is the first decorator's, as in co_firstlineno."""
    out = {}
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as f:
            tree = ast.parse(f.read())
        module = os.path.basename(path)[:-3]

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    name = prefix + child.name
                    out[(path, first)] = (module, name, child.end_lineno - first + 1)
                    visit(child, name + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")

        visit(tree, "")
    return out


def verb_runs(tmp):
    """Every argv the script passes to ``cli.main``."""
    cfg = os.path.join(tmp, "suite.cfg")
    with open(cfg, "w") as f:
        f.write(SUITE_CFG)
    for name, text in PATH_FILES.items():
        with open(os.path.join(tmp, name), "w") as f:
            f.write(text)

    def sets(pairs):
        return [arg for pair in pairs for arg in ("--set", pair)]

    runs = []
    for i, model in enumerate(SUITES):
        runs.append(["suite", "--config", cfg, *sets(model), "--out", os.path.join(tmp, f"b{i}")])
    for check in CHECKS:
        runs.append(["converge", "--config", cfg, *sets(["run.t_grid=0.5, 1.0"]),
                     "--check", check])
    for alpha in ALPHAS:
        data = os.path.join(tmp, f"x{alpha}.csv")
        model = sets([f"model.alpha={alpha}"])
        runs.append(["simulate", *model, "--n", "2000", "--out", data, "--seed", "7"])
        runs.append(["estimate", *model, "--n", "2000"])
        runs.append(["estimate", *model, "--data", data])
        runs.append(["limits", *model])
    for a, b in (("step_a", "step_b"), ("pl_a", "pl_b"), ("step_a", "pl_b"), ("two_a", "two_b")):
        runs.append(["m1dist", os.path.join(tmp, f"{a}.csv"), os.path.join(tmp, f"{b}.csv")])
    return runs


def main():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    from m1lab import cli

    entered = set()

    def hook(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename.startswith(SRC):
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    with tempfile.TemporaryDirectory() as tmp:
        for argv in verb_runs(tmp):
            sink = io.StringIO()
            sys.setprofile(hook)
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = cli.main(argv)
            finally:
                sys.setprofile(None)
            print(f"exit {code}: {' '.join(a for a in argv if not a.startswith(tmp))}",
                  file=sys.stderr)

    defs = defined_functions()
    missed = sorted((k, v) for k, v in defs.items() if k not in entered)
    for (path, line), (module, name, lines) in missed:
        print(f"{module}:{line} {name} ({lines})")
    total = 0
    for path in glob.glob(os.path.join(SRC, "*.py")):
        with open(path) as f:
            total += sum(1 for _ in f)
    print(f"{len(missed)} of {len(defs)} functions never entered, "
          f"{sum(v[2] for _, v in missed)} of {total} lines")


if __name__ == "__main__":
    main()
