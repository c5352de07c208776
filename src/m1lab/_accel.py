"""Numba acceleration switch.

Hot kernels (free-space sweeps, jump-alignment DP, GARCH recursion) are
written as plain functions and JIT-compiled when numba is importable and
the environment variable ``M1LAB_NO_NUMBA`` is unset.  Setting
``M1LAB_NO_NUMBA=1`` forces the pure numpy/Python fallback path.
"""

import os

try:
    from numba import njit as _njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - numba is the optional 'accel' extra
    _njit = None
    HAS_NUMBA = False

USE_NUMBA = HAS_NUMBA and os.environ.get("M1LAB_NO_NUMBA", "") not in ("1", "true", "yes")


def maybe_jit(func):
    """Return an njit-compiled version of ``func`` when acceleration is on."""
    if USE_NUMBA:
        return _njit(func, cache=True)
    return func


def jit_always(func):
    """Compile regardless of the env flag (used by the benchmark)."""
    if HAS_NUMBA:
        return _njit(func, cache=True)
    return func
