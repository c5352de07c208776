import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import astuple

import numpy as np
import pytest

from m1lab import lab, models, sumproc
from m1lab.config import ConfigError, default_config, parse_config, replace_config
from m1lab.models import GarchSpec, LinearSpec, RegVarSpec


# whether lab._in_two_processes forks here: two CPUs and no other thread
FORKS = len(os.sched_getaffinity(0)) >= 2 and threading.active_count() == 1


def small_config(**over):
    base = dict(
        model=LinearSpec((1.0,), RegVarSpec(0.8, p=0.5)),
        n_grid=(100, 1000),
        replicates=250,
        limit_draws=400,
        n_pts=1200,
        contrast_n_grid=(100, 200),
        contrast_replicates=10,
        slutsky_replicates=100,
        slutsky_n=2000,
        theta_replicates=6,
        theta_n=2 * 10**4,
    )
    base.update(over)
    return replace_config(default_config(), **base)


class TestSeeds:
    def test_stream_seed_depends_on_tag(self):
        assert lab.stream_seed(7, "a") != lab.stream_seed(7, "b")
        assert lab.stream_seed(7, "a") == lab.stream_seed(7, "a")


class TestFidi:
    def test_requires_replicates(self):
        cfg = small_config(replicates=50)
        with pytest.raises(lab.LabError, match="200"):
            lab.run_fidi_convergence(cfg)

    def test_requires_analytic_model(self):
        cfg = small_config(model=GarchSpec(1.0, 0.5, 0.3))
        with pytest.raises(lab.LabError, match="analytic"):
            lab.run_fidi_convergence(cfg)

    def test_rows_track_grid(self):
        cfg = small_config()
        res = lab.run_fidi_convergence(cfg)
        rows = [r for r in res.rows if r["check"] == "fidi"]
        assert len(rows) == len(cfg.n_grid) * len(cfg.t_grid)
        assert all(0.0 <= r["ks_l1"] <= 1.0 and 0.0 <= r["ks_l2"] <= 1.0 for r in rows)
        assert all(r["replicates"] == cfg.replicates for r in rows)

    def test_t_zero_degenerate(self):
        cfg = small_config(t_grid=(0.0, 0.5, 1.0))
        res = lab.run_fidi_convergence(cfg)
        degenerate = [r for r in res.rows if r.get("t") == 0.0]
        assert all(r["ks_l1"] == 0.0 and r["ks_l2"] == 0.0 for r in degenerate)

    def test_ks_decreases_with_n_in_most_seeds(self):
        # the one-sided model has a visible finite-size bias at small n
        hits = 0
        runs = 10
        for i in range(runs):
            cfg = small_config(
                model=LinearSpec((1.0,), RegVarSpec(0.8, p=1.0)),
                seed=1000 + i,
                replicates=250,
                n_grid=(100, 10000),
            )
            res = lab.run_fidi_convergence(cfg)
            trend = next(r for r in res.rows if r["check"] == "fidi_trend")
            hits += trend["decreasing"]
        assert hits >= 0.8 * runs


class TestSelfnorm:
    def test_scale_free_statistic(self):
        cfg = small_config()
        a = lab.run_selfnorm_convergence(cfg)
        scaled = small_config(model=LinearSpec((1.0,), RegVarSpec(0.8, p=0.5, scale=2.0**8)))
        b = lab.run_selfnorm_convergence(scaled)
        ka = [r["ks"] for r in a.rows if r["check"] == "selfnorm"]
        kb = [r["ks"] for r in b.rows if r["check"] == "selfnorm"]
        assert ka == kb  # S/V never sees the scale; limit draws share seeds

    def test_clustered_tolerance_key(self):
        cfg = small_config(model=LinearSpec((1.0, 0.5), RegVarSpec(0.8, p=1.0)))
        res = lab.run_selfnorm_convergence(cfg)
        assert "ks_selfnorm_clustered" in res.thresholds

    def test_zero_coefficient_is_not_clustered(self):
        # (1, 0) is the iid law written at order 1: theta = 1, no clusters
        cfg = small_config(
            model=LinearSpec((1.0, 0.0), RegVarSpec(0.8, p=0.5)),
            contrast_n_grid=(30,),
            contrast_replicates=2,
        )
        res = lab.run_selfnorm_convergence(cfg)
        assert res.thresholds == {"ks_selfnorm": cfg.tolerances["ks_selfnorm"]}
        assert not any(r["clustered"] for r in res.rows)
        trend = lab.run_j1_vs_m1_contrast(cfg).rows[-1]
        assert trend["check"] == "contrast_trend" and trend["clustered"] is False


class TestContrast:
    def test_rn_one_identity_collapse_gives_zero_distances(self):
        from m1lab.models import an_theoretical, sample_model
        from m1lab.paths import j1_distance, m1_distance
        from m1lab.sumproc import build_Ln, collapse_clusters
        from m1lab.tailstats import BlockingScheme

        spec = LinearSpec((1.0,), RegVarSpec(0.8, p=1.0))
        x = sample_model(spec, 100, 5).values
        path = build_Ln(x, an_theoretical(spec, 100)).l1
        collapsed = collapse_clusters(path, BlockingScheme(1))
        assert m1_distance(path, collapsed) == 0.0
        assert j1_distance(path, collapsed) == 0.0

    def test_small_blocks_all_finite(self):
        cfg = small_config(contrast_n_grid=(100,), contrast_replicates=3, kappa=0.01)
        res = lab.run_j1_vs_m1_contrast(cfg)
        rows = [r for r in res.rows if r["check"] == "contrast"]
        assert all(np.isfinite(r["m1"]) and np.isfinite(r["j1"]) for r in rows)

    def test_clustered_ordering(self):
        cfg = small_config(
            model=LinearSpec((1.0, 1.0), RegVarSpec(0.8, p=1.0)),
            contrast_n_grid=(100, 400),
            contrast_replicates=25,
        )
        res = lab.run_j1_vs_m1_contrast(cfg)
        assert res.verdicts["m1_below_j1"]
        sums = {r["n"]: r for r in res.rows if r["check"] == "contrast_summary"}
        assert sums[400]["median_m1"] < sums[400]["median_j1"]

    def test_iid_both_small(self):
        cfg = small_config(
            model=LinearSpec((1.0,), RegVarSpec(0.8, p=1.0)),
            contrast_n_grid=(400,),
            contrast_replicates=15,
        )
        res = lab.run_j1_vs_m1_contrast(cfg)
        summ = next(r for r in res.rows if r["check"] == "contrast_summary")
        # no clusters: both metrics stay modest relative to the path scale
        # (the collapsed path of a clustered model instead keeps j1 pinned
        # near the merged within-block jump share, ~0.5 of the big jump)
        assert summ["median_m1"] <= 0.15
        assert summ["median_j1"] <= 0.4
        assert res.verdicts["m1_below_j1"]


class TestKaramata:
    def test_u_one_exact_constant(self):
        cfg = small_config(karamata_alphas=(0.5,), karamata_u_grid=(1.0,))
        res = lab.run_karamata_check(cfg)
        row = res.rows[0]
        assert row["limit_first"] == pytest.approx(0.5 / 0.5)
        assert row["rel_err_first"] <= 0.05

    def test_limits_from_formula(self):
        cfg = small_config(karamata_alphas=(0.5,), karamata_u_grid=(0.1,))
        res = lab.run_karamata_check(cfg)
        row = res.rows[0]
        assert row["limit_first"] == pytest.approx(0.31623, abs=1e-4)
        assert row["limit_second"] == pytest.approx(0.010541, abs=1e-5)

    def test_repeated_u_summed_once(self):
        cfg = small_config(karamata_alphas=(0.5,), karamata_n=1000)
        once = lab.run_karamata_check(replace_config(cfg, karamata_u_grid=(0.5,))).rows
        twice = lab.run_karamata_check(replace_config(cfg, karamata_u_grid=(0.5, 0.5))).rows
        assert twice == once + once

    def test_rel_err_is_support_boundary_term(self):
        # the exact finite-n first moment misses its limit by the
        # support-boundary term n^{1-1/alpha} u^{alpha-1} (notes/decisions.md).
        # rel_err_first is |est - lim| / lim with est and lim near 1, so the
        # difference carries a few ulps of lim: the abs bound covers alpha
        # 0.5, where the term is 1.4-4.5e-6
        n = 10**6
        cfg = small_config(karamata_alphas=(0.5, 0.8), karamata_u_grid=(0.05, 0.1, 0.5),
                           karamata_n=n)
        rows = lab.run_karamata_check(cfg).rows
        assert [(r["alpha"], r["u"]) for r in rows] == [
            (a, u) for a in (0.5, 0.8) for u in (0.05, 0.1, 0.5)
        ]
        for row in rows:
            term = n ** (1.0 - 1.0 / row["alpha"]) * row["u"] ** (row["alpha"] - 1.0)
            assert row["rel_err_first"] == pytest.approx(term, rel=1e-12, abs=1e-15)
        for seed in (13, 20240503):
            for mc in (1, 10**8):
                again = lab.run_karamata_check(replace_config(cfg, seed=seed, karamata_mc=mc))
                assert again.rows == rows


class TestSlutsky:
    def test_no_violations_at_scale(self):
        cfg = small_config(slutsky_replicates=200, slutsky_n=5000)
        res = lab.run_slutsky_bound_check(cfg)
        assert res.verdicts["no_violations"]

    def test_bound_value_example(self):
        cfg = small_config(
            slutsky_u_grid=(0.01,), slutsky_eps_grid=(1.0,), slutsky_replicates=100
        )
        res = lab.run_slutsky_bound_check(cfg)
        row = res.rows[0]
        assert row["bound"] == pytest.approx(0.1003, abs=2e-4)

    def test_monotone_in_eps_exactly(self):
        cfg = small_config(slutsky_eps_grid=(0.5, 1.0, 2.0, 10**6))
        res = lab.run_slutsky_bound_check(cfg)
        for u in cfg.slutsky_u_grid:
            emp = [r["empirical"] for r in res.rows if r["u"] == u]
            assert all(b <= a for a, b in zip(emp, emp[1:]))
            assert emp[-1] == 0.0

    def test_alpha_range_guard(self):
        # the bound needs alpha in (0,1); the config refuses other values
        with pytest.raises(ConfigError, match="key 'run.slutsky_alpha'"):
            small_config(slutsky_alpha=1.2)


class TestSuite:
    def test_full_suite_records_all_checks(self, tmp_path):
        cfg = small_config()
        report = lab.run_full_suite(cfg, outdir=str(tmp_path / "bundle"))
        names = {res.check for res in report.results}
        assert names == {
            "fidi",
            "selfnorm",
            "contrast",
            "karamata",
            "slutsky",
            "theta",
            "diagnostics",
        }
        assert (tmp_path / "bundle" / "report.jsonl").exists()
        assert (tmp_path / "bundle" / "summary.txt").exists()
        assert (tmp_path / "bundle" / "manifest.json").exists()
        header = (tmp_path / "bundle" / "summary.txt").read_text().splitlines()[0]
        assert "decomposed" in header

    def test_errors_recorded_not_raised(self):
        cfg = small_config(model=GarchSpec(1.0, 0.5, 0.3))
        report = lab.run_full_suite(cfg)
        fidi = next(r for r in report.results if r.check == "fidi")
        assert fidi.verdicts == {"completed": False}
        assert any("error" in note for note in fidi.notes)

    def _empty_report(self, cfg):
        return lab.ConvergenceReport(
            header=lab.REPORT_HEADER, config_digest=cfg.digest(), seed=cfg.seed
        )

    def test_paths_note_without_tail_index(self, tmp_path):
        # a light-tailed GARCH: the moment equation has no root, so no
        # sample paths can be normalized
        cfg = small_config(model=GarchSpec(1.0, 0.05, 0.9))
        lab.write_bundle(self._empty_report(cfg), cfg, str(tmp_path))
        summary = (tmp_path / "summary.txt").read_text()
        assert "note: paths: no sample paths: ModelError: no sign change" in summary
        assert list((tmp_path / "paths").iterdir()) == []

    def test_paths_note_on_failure(self, tmp_path, monkeypatch):
        def fail(x, a_n):
            raise RuntimeError("forced")

        monkeypatch.setattr(lab, "build_Ln", fail)
        cfg = small_config()
        lab.write_bundle(self._empty_report(cfg), cfg, str(tmp_path))
        summary = (tmp_path / "summary.txt").read_text()
        assert "note: paths: partial_sums.csv not written: RuntimeError: forced\n" in summary
        assert list((tmp_path / "paths").iterdir()) == []

    def test_no_paths_note_when_written(self, tmp_path):
        cfg = small_config()
        lab.write_bundle(self._empty_report(cfg), cfg, str(tmp_path))
        assert "note: paths" not in (tmp_path / "summary.txt").read_text()
        names = sorted(p.name for p in (tmp_path / "paths").iterdir())
        assert names == ["limit_pair.csv", "partial_sums.csv"]

    def test_thresholds_come_from_config(self):
        tight = small_config(tolerances={"ks_fidi": 1e-9})
        loose = small_config(tolerances={"ks_fidi": 1.0})
        assert not lab.run_fidi_convergence(tight).verdicts["ks_at_nmax"]
        assert lab.run_fidi_convergence(loose).verdicts["ks_at_nmax"]

    def test_render_json_17_digits(self):
        out = lab._render_json({"x": 1.0 / 3.0, "n": 3, "s": "ok", "b": True})
        assert "0.33333333333333331" in out
        assert '"n": 3' in out

    def test_symmetric_selfnorm_ecdf_symmetric(self):
        # symmetric marginal: the self-normalized value at t=1 is symmetric
        # about 0 within binomial bands at each grid point
        from m1lab.models import derive_seed, sample_model
        from m1lab.sumproc import self_normalized_at

        spec = LinearSpec((1.0,), RegVarSpec(0.8, p=0.5))
        vals = np.array(
            [
                self_normalized_at(sample_model(spec, 1000, derive_seed(404, r)).values, [1.0])[0]
                for r in range(2000)
            ]
        )
        for x in (0.25, 0.5, 1.0):
            lo = np.mean(vals <= -x)
            hi = np.mean(vals >= x)
            se = np.sqrt(max(lo * (1 - lo), hi * (1 - hi), 1e-4) / vals.size)
            assert abs(lo - hi) <= 3.0 * se + 1.0 / vals.size

    def test_rows_carry_seed_derivation(self):
        cfg = small_config()
        res = lab.run_fidi_convergence(cfg)
        assert all("seed_stream" in r for r in res.rows if r["check"] == "fidi")

    def test_default_config_suite_passes(self, tmp_path):
        # the out-of-the-box desk-scale run ends green within its budget; an
        # alarm stops the run when the budget is spent instead of letting it
        # overrun (pytest's Failed is a BaseException, so the suite's
        # per-check error recording does not swallow it)
        import signal
        import time

        budget = 600.0

        def over_budget(signum, frame):
            pytest.fail(f"default suite still running after its {budget:.0f} s budget")

        previous = signal.signal(signal.SIGALRM, over_budget)
        signal.setitimer(signal.ITIMER_REAL, budget)
        try:
            t0 = time.perf_counter()
            report = lab.run_full_suite(default_config(), outdir=str(tmp_path / "bundle"))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert report.passed, report.verdicts
        assert time.perf_counter() - t0 < budget


def overlap_config(**over):
    """A suite of a second or two, with two Karamata alphas."""
    return small_config(
        n_grid=(100, 400),
        replicates=200,
        limit_draws=200,
        n_pts=1000,
        contrast_n_grid=(30,),
        contrast_replicates=2,
        karamata_alphas=(0.5, 0.8),
        slutsky_replicates=20,
        slutsky_n=1000,
        theta_replicates=2,
        theta_n=5000,
        **over,
    )


# (module, function) of the span tracer's entry points, as the benchmark's
# tracer lists them.  Its span stack is shared by all threads, so each must
# run on the main thread of its process; it sees only the calling process.
TRACED = [
    ("kernels", "frechet_feasible"),
    ("kernels", "j1_feasible"),
    ("paths", "m1_distance_detailed"),
    ("paths", "j1_distance"),
    ("paths", "completed_graph"),
    ("paths", "uniform_distance"),
    ("models", "sample_model"),
    ("sumproc", "build_Ln"),
    ("sumproc", "collapse_clusters"),
    ("sumproc", "self_normalized_at"),
    ("sumproc", "centering_constants"),
    ("stable", "levy_marginal_draws"),
    ("stable", "simulate_levy_pair"),
    ("stable", "triple_from_cluster"),
    ("lab", "ks_2samp"),
    ("tailstats", "extremal_index_blocks"),
    ("tailstats", "diagnose"),
    ("lab", "run_fidi_convergence"),
    ("lab", "run_selfnorm_convergence"),
    ("lab", "run_j1_vs_m1_contrast"),
    ("lab", "run_karamata_check"),
    ("lab", "run_slutsky_bound_check"),
    ("lab", "run_theta_recovery"),
    ("lab", "run_tail_diagnostics"),
    ("lab", "write_bundle"),
    ("config", "parse_config"),
]


class TestKaramataOverlap:
    """The suite runs no thread, and each of its two lanes runs its checks in
    report order."""

    CHECKS = ["fidi", "selfnorm", "contrast", "karamata", "slutsky", "theta", "diagnostics"]

    def test_rows_equal_check_alone(self):
        cfg = overlap_config()
        report = lab.run_full_suite(cfg)
        suite = next(r for r in report.results if r.check == "karamata")
        alone = lab.run_karamata_check(cfg)
        assert suite.rows == alone.rows
        assert suite.verdicts == alone.verdicts

    def test_error_in_thread_recorded(self, monkeypatch):
        def fail(*args):
            raise RuntimeError("forced in the check")

        monkeypatch.setattr(lab, "_pareto_truncated_abs_moment", fail)
        report = lab.run_full_suite(overlap_config())
        assert [r.check for r in report.results] == self.CHECKS
        karamata = report.results[self.CHECKS.index("karamata")]
        assert karamata.verdicts == {"completed": False}
        assert karamata.rows == []
        assert karamata.notes == ["error: RuntimeError: forced in the check"]
        for res in report.results:
            if res.check != "karamata":
                assert "completed" not in res.verdicts, res.check
                assert res.rows, res.check

    def test_karamata_read_after_theta(self, monkeypatch, tmp_path):
        # each lane runs its checks in report order; the calls are logged to
        # a file with the pid of the process that made them, so a forked
        # child's calls are counted too
        log = tmp_path / "calls"

        def logged(name, fn):
            def wrapper(*args, **kwargs):
                with open(log, "a") as f:
                    f.write(f"{os.getpid()} {name}\n")
                return fn(*args, **kwargs)

            return wrapper

        entry_points = ["run_fidi_convergence", "run_selfnorm_convergence",
                        "run_j1_vs_m1_contrast", "run_karamata_check",
                        "run_slutsky_bound_check", "run_theta_recovery",
                        "run_tail_diagnostics"]
        for name in entry_points:
            monkeypatch.setattr(lab, name, logged(name, getattr(lab, name)))
        report = lab.run_full_suite(overlap_config())
        by_pid = {}
        for line in log.read_text().splitlines():
            pid, name = line.split()
            by_pid.setdefault(int(pid), []).append(name)
        own = by_pid.pop(os.getpid())
        # the calling process runs contrast to diagnostics, and fidi and
        # selfnorm run last here or in one forked child
        assert own[:5] == entry_points[2:]
        assert len(by_pid) == FORKS
        assert own[5:] + [name for names in by_pid.values() for name in names] == \
            entry_points[:2]
        assert [r.check for r in report.results] == self.CHECKS
        assert list(report.runtime) == self.CHECKS

    def test_no_thread_left(self, tmp_path):
        before = set(threading.enumerate())
        lab.run_full_suite(overlap_config(), outdir=str(tmp_path / "bundle"))
        assert set(threading.enumerate()) == before

    def test_traced_entry_points_on_main_thread(self, monkeypatch, tmp_path):
        # calls are logged to a file, so those of forked children count too
        log = tmp_path / "calls"

        def wrap(name, fn):
            def wrapper(*args, **kwargs):
                main = threading.current_thread() is threading.main_thread()
                with open(log, "a") as f:
                    f.write(f"{os.getpid()} {name} {int(main)}\n")
                return fn(*args, **kwargs)

            return wrapper

        modules = [m for key, m in sys.modules.items() if key.startswith("m1lab.")]
        for mod_name, attr in TRACED:
            original = getattr(sys.modules[f"m1lab.{mod_name}"], attr)
            wrapper = wrap(f"{mod_name}.{attr}", original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, key, wrapper)
        lab.run_full_suite(overlap_config(), outdir=str(tmp_path / "bundle"))
        calls = [line.split() for line in log.read_text().splitlines()]
        own = {name for pid, name, _ in calls if int(pid) == os.getpid()}
        # the kernels' spans and the bundle writer stay in the calling process
        assert own >= {"lab.run_karamata_check", "lab.write_bundle",
                       "lab.run_j1_vs_m1_contrast", "kernels.frechet_feasible"}
        assert all(main == "1" for _, _, main in calls), [
            name for _, name, main in calls if main != "1"
        ]


class TestMarginalPass:
    """fidi and selfnorm read one replicate pass and one set of limit draws."""

    CHECKS = TestKaramataOverlap.CHECKS

    def test_one_pass_in_suite(self, monkeypatch, tmp_path):
        # the draws are counted where the benchmark's tracer counts them:
        # the replicate loop reads models.sample_model at call time; each
        # draw is logged to a file, since the pass may run in a forked child
        cfg = overlap_config()
        log = tmp_path / "draws"
        inside = []
        owner = {"levy_marginal_draws": lab, "sample_model": models}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                if inside:
                    with open(log, "a") as f:
                        f.write(f"{name}\n")
                return fn(*args, **kwargs)

            return wrapper

        def check(fn):
            def wrapper(*args, **kwargs):
                inside.append(fn)
                try:
                    return fn(*args, **kwargs)
                finally:
                    inside.pop()

            return wrapper

        for name, mod in owner.items():
            monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
        for name in ("run_fidi_convergence", "run_selfnorm_convergence"):
            monkeypatch.setattr(lab, name, check(getattr(lab, name)))
        lab.run_full_suite(cfg)
        counts = dict.fromkeys(owner, 0)
        for name in log.read_text().splitlines():
            counts[name] += 1
        assert counts == {
            "levy_marginal_draws": 1,
            "sample_model": len(cfg.n_grid) * cfg.replicates,
        }

    @pytest.mark.parametrize("alpha", [0.8, 1.5])
    @pytest.mark.parametrize("coeffs", [(1.0,), (1.0, 0.5)])
    def test_scale_free_bit_for_bit(self, coeffs, alpha):
        # X/a_n does not see a power-of-two scale, so neither does any array
        # of the pass (MA(1, 0.5) at 1.5 takes the Monte Carlo centering)
        # nor any KS; only a_n itself scales
        def run(scale):
            cfg = overlap_config(
                model=LinearSpec(coeffs, RegVarSpec(alpha, p=0.5, scale=scale))
            )
            shared = lab._marginal_pass(cfg)
            return (shared, lab.run_fidi_convergence(cfg, lambda: shared),
                    lab.run_selfnorm_convergence(cfg, lambda: shared))

        (alpha1, draws1, by_n1), *checks1 = run(1.0)
        (alpha2, draws2, by_n2), *checks2 = run(2.0**10)
        assert alpha1 == alpha2
        assert draws1.keys() == draws2.keys()
        for key in draws1:
            assert np.array_equal(draws1[key], draws2[key])
        assert by_n1.keys() == by_n2.keys()
        for n in by_n1:
            (base1, *arrays1, a_n1), (base2, *arrays2, a_n2) = by_n1[n], by_n2[n]
            assert base1 == base2 and a_n2 == 2.0**10 * a_n1
            for a, b in zip(arrays1, arrays2, strict=True):
                assert np.array_equal(a, b)
        for one, two in zip(checks1, checks2, strict=True):
            ks = [{k: v for k, v in r.items() if k.startswith("ks")} for r in one.rows]
            assert ks == [{k: v for k, v in r.items() if k.startswith("ks")} for r in two.rows]
            assert one.verdicts == two.verdicts

    @pytest.mark.parametrize("alpha", [0.8, 1.5])
    def test_rows_equal_checks_alone(self, alpha):
        cfg = overlap_config(model=LinearSpec((1.0,), RegVarSpec(alpha, p=0.5)))
        report = lab.run_full_suite(cfg)
        for fn in (lab.run_fidi_convergence, lab.run_selfnorm_convergence):
            alone = fn(cfg)
            suite = next(r for r in report.results if r.check == alone.check)
            assert suite.rows == alone.rows
            assert suite.verdicts == alone.verdicts

    def test_one_centering_sample_per_pass(self, monkeypatch):
        # MA(1, 0.5) at alpha 1.5 takes the Monte Carlo centering at every n
        cfg = replace_config(
            overlap_config(model=LinearSpec((1.0, 0.5), RegVarSpec(1.5, p=0.5))),
            n_grid=(100, 200, 400),
        )
        draws = []
        consts = []

        def sample(spec, n, seed):
            draws.append(n)
            return models.sample_model(spec, n, seed)

        def centering(spec, a_n):
            consts.append((spec, a_n, centering_constants(spec, a_n)))
            return consts[-1][2]

        centering_constants = sumproc.centering_constants
        sumproc._centering_sample.cache_clear()
        monkeypatch.setattr(sumproc, "sample_model", sample)
        monkeypatch.setattr(lab, "centering_constants", centering)
        lab._marginal_pass(cfg)
        assert draws == [sumproc.CENTERING_MC_SIZE]
        assert [a_n for _spec, a_n, _c in consts] == [
            models.an_theoretical(cfg.model, n) for n in cfg.n_grid
        ]
        assert not sumproc._centering_sample(cfg.model).flags.writeable
        for spec, a_n, got in consts:
            sumproc._centering_sample.cache_clear()
            want = centering_constants(spec, a_n)
            assert [v.hex() for v in astuple(got)] == [v.hex() for v in astuple(want)]
        assert draws == [sumproc.CENTERING_MC_SIZE] * (1 + len(cfg.n_grid))

    def test_error_in_pass_recorded(self, monkeypatch):
        def fail(*args):
            raise RuntimeError("forced in the pass")

        monkeypatch.setattr(lab, "_partial_sum_marginals", fail)
        report = lab.run_full_suite(overlap_config())
        assert [r.check for r in report.results] == self.CHECKS
        for res in report.results:
            if res.check in ("fidi", "selfnorm"):
                assert res.verdicts == {"completed": False}
                assert res.rows == []
                assert res.notes == ["error: RuntimeError: forced in the pass"]
            else:
                assert "completed" not in res.verdicts, res.check
                assert res.rows, res.check


needs_fork = pytest.mark.skipif(
    not FORKS, reason="a child is forked only on two CPUs, with no other thread"
)


def one_cpu(monkeypatch):
    """Make the suite see one CPU, so it forks nothing."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


class TestTwoProcesses:
    """A forked child runs fidi and selfnorm, and one per n runs the second
    half of contrast's replicates; the bundle does not depend on it, and no
    process or thread outlives the suite."""

    CHECKS = TestKaramataOverlap.CHECKS

    @staticmethod
    def _bundle(cfg, outdir):
        report = lab.run_full_suite(cfg, outdir=str(outdir))
        csvs = sorted(f"paths/{p.name}" for p in (outdir / "paths").glob("*.csv"))
        names = ["report.jsonl"] + csvs
        return report, {name: (outdir / name).read_bytes() for name in names}

    @pytest.mark.parametrize("sets", [
        [],  # contrast at 5 replicates: halves of 2 and 3
        ["run.contrast_replicates=1"],
        ["run.contrast_n_grid=30, 60", "run.contrast_replicates=3"],
    ])
    def test_one_cpu_bundle_byte_identical(self, sets, monkeypatch, tmp_path):
        from suite_cfg import SUITE_CFG

        cfg, _ = parse_config(SUITE_CFG, overrides=sets)
        log = tmp_path / "halves"
        distances = lab._contrast_distances

        def logged(*args):
            with open(log, "a") as f:
                f.write(f"{os.getpid()}\n")
            return distances(*args)

        monkeypatch.setattr(lab, "_contrast_distances", logged)
        two, two_files = self._bundle(cfg, tmp_path / "two")
        two_pids = set(log.read_text().split())
        log.unlink()
        one_cpu(monkeypatch)
        one, one_files = self._bundle(cfg, tmp_path / "one")
        assert one_files == two_files
        assert set(log.read_text().split()) == {str(os.getpid())}
        assert one.child is None
        if FORKS:
            # one contrast child per n when there are two replicates or more
            forks = len(cfg.contrast_n_grid) if cfg.contrast_replicates >= 2 else 0
            assert len(two_pids) == 1 + forks
            assert two.child["cpu_s"] > 0.0 and two.child["peak_rss_mb"] > 0.0

    @pytest.mark.parametrize("fail", [False, True])
    def test_nothing_left(self, fail, monkeypatch, tmp_path):
        if fail:
            def forced(config):
                raise RuntimeError("forced in the child")

            monkeypatch.setattr(lab, "_marginal_pass", forced)
        before = set(threading.enumerate())
        report = lab.run_full_suite(overlap_config(), outdir=str(tmp_path / "bundle"))
        assert multiprocessing.active_children() == []
        assert set(threading.enumerate()) == before
        for res in report.results:
            if fail and res.check in ("fidi", "selfnorm"):
                assert res.verdicts == {"completed": False}
                assert res.notes == ["error: RuntimeError: forced in the child"]
            else:
                assert "completed" not in res.verdicts, res.check

    @needs_fork
    def test_dead_child_marks_marginal_checks(self, monkeypatch, tmp_path):
        suite_pid = os.getpid()

        def die(config):
            if os.getpid() == suite_pid:
                raise AssertionError("the marginal pass ran in the calling process")
            os._exit(3)

        monkeypatch.setattr(lab, "_marginal_pass", die)
        report = lab.run_full_suite(overlap_config(), outdir=str(tmp_path / "bundle"))
        assert multiprocessing.active_children() == []
        assert [r.check for r in report.results] == self.CHECKS
        assert list(report.runtime) == self.CHECKS
        assert report.child is None
        for res in report.results:
            if res.check in ("fidi", "selfnorm"):
                assert res.verdicts == {"completed": False}
                assert res.rows == []
                assert res.notes == [
                    "error: LabError: the forked process exited with code 3 without a result"
                ]
                assert math.isnan(report.runtime[res.check])
            else:
                assert "completed" not in res.verdicts, res.check
                assert res.rows, res.check
        summary = (tmp_path / "bundle" / "summary.txt").read_text()
        assert "FAIL  fidi.completed" in summary and "FAIL  selfnorm.completed" in summary

    def test_second_half_error_gives_serial_note(self, monkeypatch):
        distances = lab._contrast_distances

        def second_half_fails(*args):
            start = args[-2]
            if start > 0:
                raise RuntimeError("forced in the second half")
            return distances(*args)

        monkeypatch.setattr(lab, "_contrast_distances", second_half_fails)
        cfg = overlap_config()
        notes = []
        for cpus in (2, 1):
            if cpus == 1:
                one_cpu(monkeypatch)
            with pytest.raises(RuntimeError, match="^forced in the second half$"):
                lab.run_j1_vs_m1_contrast(cfg)
            report = lab.run_full_suite(cfg)
            contrast = report.results[self.CHECKS.index("contrast")]
            assert contrast.verdicts == {"completed": False}
            assert contrast.rows == []
            notes.append(contrast.notes)
            assert multiprocessing.active_children() == []
        assert notes == [["error: RuntimeError: forced in the second half"]] * 2

    def test_child_error_keeps_type_and_message(self, monkeypatch):
        def missing():
            return {}["missing"]

        for cpus in (2, 1):
            if cpus == 1:
                one_cpu(monkeypatch)
            with pytest.raises(KeyError) as info:
                lab._in_two_processes(lambda: None, missing)
            assert str(info.value) == "'missing'"
            one, two = lab._in_two_processes(lambda: "first", os.getpid)
            assert one == "first"
            assert (two != os.getpid()) == (cpus == 2 and FORKS)
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_interrupt_terminates_child(self):
        def interrupted():
            raise KeyboardInterrupt

        t0 = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            lab._in_two_processes(interrupted, lambda: time.sleep(60))
        assert multiprocessing.active_children() == []
        assert time.perf_counter() - t0 < 30.0


class TestKsStatistic:
    """lab.ks_2samp is scipy.stats.ks_2samp's statistic, bit for bit: rounded
    to a multiple of 1/lcm(n1, n2) up to 10000 points a side, raw above."""

    SIZES = [(2000, 2000), (200, 300), (1, 5), (7, 7), (10000, 10000),
             (10001, 2000), (12000, 15000)]

    @pytest.mark.parametrize("ties", [False, True])
    @pytest.mark.parametrize("n1,n2", SIZES)
    def test_equals_scipy(self, n1, n2, ties):
        from scipy.stats import ks_2samp

        rng = np.random.default_rng([n1, n2, ties])
        for _ in range(4):
            if ties:
                a = rng.integers(0, 15, n1).astype(float)
                b = rng.integers(0, 15, n2).astype(float)
            else:
                a = rng.standard_cauchy(n1)
                b = 1.1 * rng.standard_cauchy(n2)
            with warnings.catch_warnings():
                # scipy's exact p-value may fall back to its asymptotic one
                warnings.simplefilter("ignore", RuntimeWarning)
                expected = float(ks_2samp(a, b).statistic)
            assert lab.ks_2samp(a, b) == expected
            assert lab.ks_2samp(b, a) == expected


class TestImportHygiene:
    """Importing m1lab, parsing a config and running an iid suite, manifest
    included, load no scipy at all.  It runs in a fresh interpreter, since
    the tests themselves import scipy."""

    SCRIPT = """
import sys

import m1lab.cli
from m1lab import config, lab
from m1lab.models import GarchSpec, model_alpha

config.parse_config("")
cfg, _ = config.parse_config(sys.argv[1])
lab.run_full_suite(cfg, outdir=sys.argv[2])
print([m for m in sys.modules if m == "scipy" or m.startswith("scipy.")])
print(repr(model_alpha(GarchSpec(1.0, 0.5, 0.3))))
"""

    def test_no_scipy_subpackages(self, tmp_path):
        from suite_cfg import SUITE_CFG

        from m1lab.models import model_alpha

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        out = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, SUITE_CFG, str(tmp_path / "bundle")],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        ).stdout.splitlines()
        assert out[0] == "[]"
        # the GARCH tail index still imports its quadrature and root finder
        assert float(out[1]) == model_alpha(GarchSpec(1.0, 0.5, 0.3))

    def test_bench_scripts_load_no_scipy_stats(self):
        # the scripts read SUITE_CFG from a module that imports nothing
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        path = os.pathsep.join(os.path.join(root, d) for d in ("src", "benchmarks"))
        out = subprocess.run(
            [sys.executable, "-c", "import sys, bench_suite, bundle_digests; "
             "print([m for m in ('scipy.stats', 'scipy.integrate', 'scipy.optimize') "
             "if m in sys.modules])"],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
            timeout=300, check=True,
        ).stdout
        assert out.strip() == "[]"
