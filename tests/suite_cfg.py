"""The suite config whose bundle must stay byte-identical across refactors.

It is shared by ``test_acceptance.py`` (criterion 11), the import check of
``test_lab.py`` and ``benchmarks/bench_suite.py`` / ``bundle_digests.py``.
This module imports nothing, so the benchmark scripts load no scipy
through it.
"""

SUITE_CFG = """
[model]
variant = iid
alpha = 0.8
p = 0.5

[run]
seed = 13
n_grid = 100, 400
replicates = 200
limit_draws = 300
n_pts = 1000
contrast_n_grid = 100
contrast_replicates = 5
karamata_mc = 1000000
slutsky_replicates = 50
slutsky_n = 1000
theta_replicates = 4
theta_n = 20000
"""
