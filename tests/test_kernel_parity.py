"""The jitted kernels and the plain-Python fallback must agree exactly."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from m1lab import kernels
from m1lab._accel import HAS_NUMBA, USE_NUMBA
from m1lab.paths import completed_graph, uniform_distance
from conftest import make_step_path

# the subprocesses import m1lab from this checkout's src/
ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")


@pytest.mark.skipif(not HAS_NUMBA, reason="numba unavailable")
def test_frechet_parity(rng):
    from m1lab._accel import jit_always

    jitted = kernels.frechet_feasible if USE_NUMBA else jit_always(
        kernels.frechet_feasible_py
    )
    for _ in range(40):
        x = make_step_path(rng, max_jumps=12)
        y = make_step_path(rng, max_jumps=12)
        pt, pv = completed_graph(x)
        qt, qv = completed_graph(y)
        unif = uniform_distance(x, y)
        for frac in (0.0, 0.3, 0.7, 1.0):
            d = frac * unif
            assert bool(jitted(pt, pv, qt, qv, d)) == bool(
                kernels.frechet_feasible_py(pt, pv, qt, qv, d)
            )


@pytest.mark.skipif(not HAS_NUMBA, reason="numba unavailable")
def test_j1_parity(rng):
    from m1lab._accel import jit_always

    jitted = kernels.j1_feasible if USE_NUMBA else jit_always(kernels.j1_feasible_py)
    for _ in range(40):
        x = make_step_path(rng, max_jumps=12)
        y = make_step_path(rng, max_jumps=12)
        tx = x.times[1:]
        sy = y.times[1:]
        lx = x.values[:, 0]
        ly = y.values[:, 0]
        unif = uniform_distance(x, y)
        for frac in (0.0, 0.25, 0.6, 1.0):
            d = frac * unif
            assert bool(jitted(tx, sy, lx, ly, d)) == bool(
                kernels.j1_feasible_py(tx, sy, lx, ly, d)
            )


@pytest.mark.skipif(not HAS_NUMBA, reason="numba unavailable")
def test_garch_parity(rng):
    from m1lab._accel import jit_always

    jitted = (
        kernels.garch_recursion if USE_NUMBA else jit_always(kernels.garch_recursion_py)
    )
    z = rng.standard_normal(2000)
    a = jitted(z, 1.0, 0.5, 0.3, 5.0, 500)
    b = kernels.garch_recursion_py(z, 1.0, 0.5, 0.3, 5.0, 500)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_env_flag_selects_fallback():
    code = (
        "import m1lab.kernels as k; "
        "assert k.frechet_feasible is k.frechet_feasible_py; "
        "assert not k.USE_NUMBA"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={"M1LAB_NO_NUMBA": "1", "PATH": "/usr/bin:/bin", "PYTHONPATH": SRC},
        capture_output=True,
        cwd=ROOT,
    )
    assert out.returncode == 0, out.stderr.decode()


def test_distances_match_under_fallback():
    code = """
import numpy as np
from m1lab.paths import CadlagPath, m1_distance, j1_distance
step = CadlagPath([0.0, 0.5], [0.0, 1.0])
step2 = CadlagPath([0.0, 0.55], [0.0, 1.0])
print(repr(m1_distance(step, step2)), repr(j1_distance(step, step2)))
"""
    env = dict(os.environ, PYTHONPATH=SRC)
    env["M1LAB_NO_NUMBA"] = "1"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, cwd=ROOT
    )
    assert out.returncode == 0, out.stderr.decode()
    env.pop("M1LAB_NO_NUMBA")
    out2 = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, cwd=ROOT
    )
    assert out.stdout == out2.stdout
