"""Span tracing around m1lab's public entry points, from outside the package.

``Tracer.install`` swaps each listed function for a recording wrapper in
every loaded ``m1lab`` module that holds a reference to it (the defining
module and the modules that imported it by name), so calls made inside the
package are recorded too.  ``uninstall`` puts the originals back.  A span is
(name, parent index, start, end, result of the probe); the tracer keeps
them in memory until the run ends.
"""

import functools
import sys
import time


def _frechet_probe(args, out):
    # p * q free-space cells of the polylines (pt, pv, qt, qv, d)
    return ((len(args[0]) - 1) * (len(args[2]) - 1), bool(out))


def _j1_probe(args, out):
    # (J + 1) * (K + 1) alignment states of the jump lists (tx, sy, levx, levy, d)
    return ((len(args[0]) + 1) * (len(args[1]) + 1), bool(out))


# (module, function, span name, probe); a probe maps (args, result) to the
# (cells, decision) pair recorded for a kernel call.
ENTRY_POINTS = [
    ("kernels", "frechet_feasible", "kernels.frechet_feasible", _frechet_probe),
    ("kernels", "j1_feasible", "kernels.j1_feasible", _j1_probe),
    ("paths", "m1_distance_detailed", "paths.m1_distance", None),
    ("paths", "j1_distance", "paths.j1_distance", None),
    ("paths", "completed_graph", "paths.completed_graph", None),
    ("paths", "uniform_distance", "paths.uniform_distance", None),
    ("models", "sample_model", "models.sample_model", None),
    ("sumproc", "build_Ln", "sumproc.build_Ln", None),
    ("sumproc", "collapse_clusters", "sumproc.collapse_clusters", None),
    ("sumproc", "self_normalized_at", "sumproc.self_normalized_at", None),
    ("sumproc", "centering_constants", "sumproc.centering_constants", None),
    ("stable", "levy_marginal_draws", "stable.levy_marginal_draws", None),
    ("stable", "simulate_levy_pair", "stable.simulate_levy_pair", None),
    ("stable", "triple_from_cluster", "stable.triple_from_cluster", None),
    ("lab", "ks_2samp", "lab.ks_2samp", None),
    ("tailstats", "extremal_index_blocks", "tailstats.extremal_index_blocks", None),
    ("tailstats", "diagnose", "tailstats.diagnose", None),
    ("lab", "run_fidi_convergence", "lab.fidi", None),
    ("lab", "run_selfnorm_convergence", "lab.selfnorm", None),
    ("lab", "run_j1_vs_m1_contrast", "lab.contrast", None),
    ("lab", "run_karamata_check", "lab.karamata", None),
    ("lab", "run_slutsky_bound_check", "lab.slutsky", None),
    ("lab", "run_theta_recovery", "lab.theta", None),
    ("lab", "run_tail_diagnostics", "lab.diagnostics", None),
    ("lab", "write_bundle", "lab.write_bundle", None),
    ("config", "parse_config", "config.parse_config", None),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn, probe):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
            if probe is not None:
                rec[4] = probe(args, out)
            return out

        return traced

    def install(self):
        modules = [m for key, m in sys.modules.items() if key.startswith("m1lab.")]
        for mod_name, attr, name, probe in ENTRY_POINTS:
            original = getattr(sys.modules[f"m1lab.{mod_name}"], attr)
            wrapper = self._wrap(name, original, probe)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()


# Spans whose whole duration is reported: a check of the suite or the bundle
# writer.  Every other span reports its self time (its duration minus that of
# its child spans), so the kernels' time is not counted again in the paths
# that call them.
INCLUSIVE = {name for _, _, name, _ in ENTRY_POINTS if name.startswith("lab.")} - {"lab.ks_2samp"}

# (metric, unit, better); the values are per traced round.
PER_LAYER = [
    ("kernels.frechet_feasible.calls", "count", "lower"),
    ("kernels.frechet_feasible.s", "s", "lower"),
    ("kernels.frechet_feasible.cells", "computed_cells", "lower"),
    ("kernels.frechet_feasible.ns_per_cell", "ns/cell", "lower"),
    ("kernels.frechet_feasible.feasible_frac", "ratio", "higher"),
    ("kernels.j1_feasible.calls", "count", "lower"),
    ("kernels.j1_feasible.s", "s", "lower"),
    ("kernels.j1_feasible.cells", "computed_cells", "lower"),
    ("kernels.j1_feasible.feasible_frac", "ratio", "higher"),
    ("paths.m1_distance.calls", "count", "lower"),
    ("paths.m1_distance.s", "s", "lower"),
    ("paths.j1_distance.calls", "count", "lower"),
    ("paths.j1_distance.s", "s", "lower"),
    ("paths.bisect_steps_per_call", "count/call", "lower"),
    ("paths.completed_graph.s", "s", "lower"),
    ("paths.uniform_distance.s", "s", "lower"),
    ("models.sample_model.calls", "count", "lower"),
    ("models.sample_model.s", "s", "lower"),
    ("sumproc.build_Ln.s", "s", "lower"),
    ("sumproc.collapse_clusters.s", "s", "lower"),
    ("sumproc.self_normalized_at.s", "s", "lower"),
    ("sumproc.centering_constants.s", "s", "lower"),
    ("stable.levy_marginal_draws.s", "s", "lower"),
    ("stable.simulate_levy_pair.s", "s", "lower"),
    ("stable.triple_from_cluster.s", "s", "lower"),
    ("lab.ks_2samp.calls", "count", "lower"),
    ("lab.ks_2samp.s", "s", "lower"),
    ("tailstats.extremal_index_blocks.s", "s", "lower"),
    ("tailstats.diagnose.s", "s", "lower"),
    ("lab.fidi.s", "s", "lower"),
    ("lab.selfnorm.s", "s", "lower"),
    ("lab.contrast.s", "s", "lower"),
    ("lab.karamata.s", "s", "lower"),
    ("lab.slutsky.s", "s", "lower"),
    ("lab.theta.s", "s", "lower"),
    ("lab.diagnostics.s", "s", "lower"),
    ("lab.write_bundle.s", "s", "lower"),
    ("config.parse_config.s", "s", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

_DISTANCES = ("paths.m1_distance", "paths.j1_distance")


def layer_metrics(spans, rounds):
    """Per-round values of every PER_LAYER metric except trace.*."""
    child = [0.0] * len(spans)
    for _, parent, t0, t1, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    agg = {}
    steps = 0
    for i, (name, parent, t0, t1, probe) in enumerate(spans):
        a = agg.setdefault(name, {"calls": 0, "s": 0.0, "cells": 0, "feasible": 0})
        a["calls"] += 1
        a["s"] += (t1 - t0) - (0.0 if name in INCLUSIVE else child[i])
        if probe is not None:
            a["cells"] += probe[0]
            a["feasible"] += probe[1]
            steps += parent >= 0 and spans[parent][0] in _DISTANCES
    empty = {"calls": 0, "s": 0.0, "cells": 0, "feasible": 0}
    distance_calls = sum(agg.get(d, empty)["calls"] for d in _DISTANCES)
    out = {}
    for metric, _, _ in PER_LAYER:
        layer, what = metric.rsplit(".", 1)
        a = agg.get(layer, empty)
        if metric == "paths.bisect_steps_per_call":
            out[metric] = steps / distance_calls if distance_calls else 0.0
        elif what == "ns_per_cell":
            out[metric] = 1e9 * a["s"] / a["cells"] if a["cells"] else 0.0
        elif what == "feasible_frac":
            out[metric] = a["feasible"] / a["calls"] if a["calls"] else 0.0
        elif layer != "trace":
            out[metric] = a[what] / rounds
    return out
