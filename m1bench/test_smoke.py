"""Quick tests of the benchmark itself (not of m1lab):

    python3 -m pytest m1bench -q

Each workload runs one untraced and one traced round at a tiny size, and
the metric names and units are compared with BENCHMARK.json.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

worker.import_program()
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)

PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}


def test_metric_tables_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == run.WORKLOADS == workloads.WORKLOADS
    assert END_TO_END == dict(run.END_TO_END)
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCH["per_layer"]} == {
        name: (unit, better) for name, unit, better in spans.PER_LAYER
    }


def test_oracles_on_hand_computed_pairs():
    def jump_at(t):
        return np.array([0.0, t]), np.array([0.0, 1.0]), "step"

    assert oracles.uniform_distance(jump_at(0.5), jump_at(0.6)) == 1.0
    assert abs(oracles.monotone_m1(jump_at(0.5), jump_at(0.6)) - 0.1) < 1e-12
    assert oracles.linear_extremal_index((1.0, 0.5), 1.0) == pytest.approx(2.0 / 3.0)
    assert oracles.karamata_limits(0.5, 1.0) == (1.0, pytest.approx(1.0 / 3.0))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_rounds(name, tmp_path):
    from m1lab import paths

    wl = workloads.make(name, 7, str(tmp_path), tiny=True)
    rounds, problems, span_list = worker.run_rounds(wl, 0.0, 1, wl.round_ops(0))
    assert not hasattr(paths.m1_distance_detailed, "__wrapped__"), "tracer left installed"
    assert [r["traced"] for r in rounds] == [False, True]
    summary = worker.summarize(rounds, problems)
    assert summary["attempted"] == 2 * len(rounds[0]["op_s"])
    layers = spans.layer_metrics(span_list, summary["traced_rounds"])
    assert set(layers) | {"trace.run_s", "trace.overhead_s"} == set(PER_LAYER)
    assert layers["kernels.frechet_feasible.calls"] > 0
    found = [msg for p in problems for msg in p]
    if name == "suite-desk":
        # tiny sizes miss the statistical gates; recomputed values, report
        # rows and the repeat's bytes must still agree
        found = [m for m in found if any(k in m for k in ("!=", "missing", "differs", "raised"))]
        assert layers["lab.write_bundle.s"] > 0
    assert found == []


def test_launcher_prints_end_to_end_metrics():
    proc = subprocess.run(
        [sys.executable, "m1bench/run.py", "--workload", "metric-pairs", "--seed", "5",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == END_TO_END


def test_launcher_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "m1bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "m1bench/run.py", "--workload", "metric-pairs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
