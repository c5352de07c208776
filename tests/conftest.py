import numpy as np
import pytest


def make_step_path(rng, max_jumps=20, scale=1.0):
    """Random step path with a handful of jumps."""
    k = int(rng.integers(0, max_jumps))
    times = np.concatenate([[0.0], np.sort(rng.random(k))])
    times = np.unique(times)
    vals = np.cumsum(rng.standard_normal(times.size)) * scale
    from m1lab.paths import CadlagPath

    return CadlagPath(times, vals, "step")


def save_path_csv(path, fileobj_or_name):
    """Write a path in the format ``m1lab.paths.load_path_csv`` reads:
    a ``# kind=... d=...`` header plus ``t,v1[,v2]`` rows."""
    own = isinstance(fileobj_or_name, (str, bytes))
    f = open(fileobj_or_name, "w") if own else fileobj_or_name
    try:
        f.write(f"# kind={path.kind} d={path.dim}\n")
        for i in range(path.times.size):
            row = [format(path.times[i], ".17g")]
            row += [format(v, ".17g") for v in path.values[i]]
            f.write(",".join(row) + "\n")
    finally:
        if own:
            f.close()


@pytest.fixture
def rng():
    return np.random.default_rng(20240503)
