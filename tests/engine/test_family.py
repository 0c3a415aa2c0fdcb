"""Tests for the family-fused path: one unit-noise draw per mechanism's
whole α×ε sub-grid (``run_plan(fused="family")``, also what
``fused=True`` means).

The family path rides the same content-addressed store and ledger
machinery as the default path, so these tests focus on what sharing the
draw adds: the shared envelope cache, two-way key disjointness (default
/ ``family``), member-precise resume, blockwise members (bits, memory
and ``--profile`` stage against a whole-matrix reference), the
per-worker profile breakdown that
ships back from process pools, and the kernel threads a drain hands its
family units.
"""

import dataclasses
import os
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from repro.engine import evaluate
from repro.engine.evaluate import fused_family_points
from repro.engine.plan import fused_families, grid_plan, work_units
from repro.engine.points import EvaluationBaseline, points_identical
from repro.engine.store import ResultStore
from repro.engine.sweep import run_plan
from repro.experiments.workloads import WORKLOAD_2
from repro.metrics.ranking import SetRanker, block_rows
from repro.runtime import (
    MAX_WORKERS_ENV,
    SerialDriver,
    ThreadDriver,
    kernel_threads,
)

from .test_family_spearman import MEMBERS, _reference_family
from .test_fused import FIGURE_GOLDEN, run_figure_plan, same_float

NAN = float("nan")

# The family path's own values, in plan order, pinned at full precision
# on the ENGINE_CONFIG snapshot: (mechanism, alpha, epsilon, theta,
# feasible, overall, by_stratum) per point of ``fused="family"`` runs.
# Kernel changes under the family reducers must reproduce them exactly.
FAMILY_GOLDEN = {
    "figure-1": (
        ("log-laplace", 0.05, 0.5, None, True, 2.6359764262719514,
         (1.9684675972163233, 4.030429537850033,
          2.100520458626123, 3.375181197881018)),
        ("log-laplace", 0.05, 2.0, None, True, 0.6278683035704976,
         (0.5159783816670481, 0.9823635982269295,
          0.4944484146344407, 0.79507558495232)),
        ("log-laplace", 0.2, 0.5, None, True, 11.039011841301935,
         (3.613743579274015, 11.48523591840873,
          9.469553008621165, 16.51708978818338)),
        ("log-laplace", 0.2, 2.0, None, True, 1.5851642854627446,
         (1.0449225812757226, 2.2008338820148543,
          1.3142065379115557, 2.0572891689119284)),
        ("smooth-laplace", 0.05, 0.5, None, True, 2.3498454380098717,
         (2.0526914349807512, 3.033616250694461,
          2.2190050495677816, 2.3750974710311206)),
        ("smooth-laplace", 0.05, 2.0, None, True, 0.5874613595024679,
         (0.5131728587451878, 0.7584040626736153,
          0.5547512623919454, 0.5937743677577801)),
        ("smooth-laplace", 0.2, 0.5, None, False, NAN, (NAN, NAN, NAN, NAN)),
        ("smooth-laplace", 0.2, 2.0, None, True, 1.7666390629348672,
         (1.49613507253326, 2.0577958870194695,
          1.7587013676201462, 1.692446275973205)),
        ("smooth-gamma", 0.05, 0.5, None, True, 7.030793542754428,
         (3.8484853016299514, 9.583538958967301,
          6.358174677061927, 8.086322465338098)),
        ("smooth-gamma", 0.05, 2.0, None, True, 1.0251585985102263,
         (0.5611468711482785, 1.397373896445565,
          0.9270841763995858, 1.179065059336121)),
        ("smooth-gamma", 0.2, 0.5, None, False, NAN, (NAN, NAN, NAN, NAN)),
        ("smooth-gamma", 0.2, 2.0, None, True, 4.640714178226714,
         (1.4769349125937337, 4.666864880027208,
          4.543240259319308, 5.633662944093537)),
    ),
    "figure-2": (
        ("log-laplace", 0.05, 0.5, None, True, 0.8297843048008937,
         (0.6176688680097732, 0.7389289637293357,
          0.836190040669595, 0.8591006915172501)),
        ("log-laplace", 0.05, 2.0, None, True, 0.966951240926903,
         (0.8403658068160178, 0.9393666634726414,
          0.9716424069196868, 0.9790463253098365)),
        ("log-laplace", 0.2, 0.5, None, True, 0.664078098919034,
         (0.21429328073808457, 0.5706745812216281,
          0.7179324360230727, 0.658171933870368)),
        ("log-laplace", 0.2, 2.0, None, True, 0.9405321607861998,
         (0.7143109357936153, 0.8945674858806888,
          0.9527269658834299, 0.9489938467140232)),
        ("smooth-laplace", 0.05, 0.5, None, True, 0.8608632669299692,
         (0.7605310551684963, 0.7725283469233002,
          0.8600028000911933, 0.9196964555201148)),
        ("smooth-laplace", 0.05, 2.0, None, True, 0.965729362831131,
         (0.8739804390886586, 0.9114315441121422,
          0.9699457929336104, 0.9832370603904086)),
        ("smooth-laplace", 0.2, 0.5, None, False, NAN, (NAN, NAN, NAN, NAN)),
        ("smooth-laplace", 0.2, 2.0, None, True, 0.9594446707839268,
         (0.8739804390886586, 0.8989444170247302,
          0.9664803686216243, 0.9756106776311694)),
        ("smooth-gamma", 0.05, 0.5, None, True, 0.5750876967918461,
         (0.35295363886272757, 0.30625644681395287,
          0.6099748425260643, 0.6812776083686565)),
        ("smooth-gamma", 0.05, 2.0, None, True, 0.9336910388852466,
         (0.6680908164187342, 0.8681771657474981,
          0.9244981970087106, 0.9737229591264074)),
        ("smooth-gamma", 0.2, 0.5, None, False, NAN, (NAN, NAN, NAN, NAN)),
        ("smooth-gamma", 0.2, 2.0, None, True, 0.7309020101953005,
         (0.5798524067030524, 0.5364315316829515,
          0.7402411050314825, 0.7847245824296218)),
    ),
}


def family_plan(session, n_trials=400, metric="l1-ratio", tag="family-equiv"):
    """A multi-α grid: 3 mechanisms × 2 α × 2 ε = 12 points, 3 families.

    α = 0.2 at ε = 1.0 sits below the smooth mechanisms' feasibility
    threshold, so every family carries at least one infeasible member.
    """
    return grid_plan(
        "workload-1",
        metric,
        ("smooth-gamma", "smooth-laplace", "log-laplace"),
        (0.05, 0.2),
        (1.0, 2.0),
        delta=0.05,
        n_trials=n_trials,
        fingerprint=session.snapshot_fingerprint,
        seed=11,
        tag=tag,
    )


class TestFamilyPlanning:
    def test_families_span_alpha_and_epsilon(self, session):
        plan = family_plan(session, n_trials=2)
        families, leftover = fused_families(plan)
        assert not leftover
        assert len(families) == 3  # one per mechanism
        for family in families:
            assert len(family.indices) == 4
            assert set(family.alphas) == {0.05, 0.2}
            assert set(family.epsilons) == {1.0, 2.0}
            assert family.members == tuple(
                zip(family.alphas, family.epsilons)
            )

    def test_family_seed_depends_on_membership(self, session):
        plan = family_plan(session, n_trials=2)
        narrower = grid_plan(
            "workload-1",
            "l1-ratio",
            ("smooth-gamma", "smooth-laplace", "log-laplace"),
            (0.05,),
            (1.0, 2.0),
            delta=0.05,
            n_trials=2,
            fingerprint=session.snapshot_fingerprint,
            seed=11,
            tag="family-equiv",
        )
        wide, _ = fused_families(plan)
        narrow, _ = fused_families(narrower)
        for fw, fn in zip(wide, narrow):
            assert fw.mechanism == fn.mechanism
            assert fw.family_seed != fn.family_seed


class TestFamilyEquivalence:
    """One draw per α×ε family is a different RNG stream from the
    unfused path, but the two must agree statistically at 400 trials."""

    @pytest.fixture(scope="class")
    def paths(self, session):
        plan = family_plan(session)
        unfused = run_plan(plan, session, merge_spend=False)
        bare = run_plan(plan, session, merge_spend=False, fused=True)
        family = run_plan(plan, session, merge_spend=False, fused="family")
        return unfused, bare, family

    def test_overall_within_tolerance(self, paths):
        unfused, _, family = paths
        for pu, pf in zip(unfused.points, family.points):
            assert pf.mechanism == pu.mechanism
            assert pf.alpha == pu.alpha
            assert pf.epsilon == pu.epsilon
            assert pf.feasible == pu.feasible
            if not pu.feasible:
                continue
            rel = abs(pf.overall - pu.overall) / pu.overall
            assert rel < 0.06, (pu.mechanism, pu.alpha, pu.epsilon, rel)

    def test_strata_within_tolerance(self, paths):
        unfused, _, family = paths
        for pu, pf in zip(unfused.points, family.points):
            if not pu.feasible:
                continue
            for su, sf in zip(pu.by_stratum, pf.by_stratum):
                assert abs(sf - su) / su < 0.10, (
                    pu.mechanism, pu.alpha, pu.epsilon,
                )

    def test_bare_fused_runs_families(self, paths):
        _, bare, family = paths
        for a, b in zip(bare.points, family.points):
            assert points_identical(a, b)

    def test_group_mode_is_gone(self, session):
        with pytest.raises(ValueError, match="fused must be"):
            run_plan(family_plan(session, n_trials=2), session, fused="group")

    def test_family_is_deterministic(self, session, paths):
        _, _, family = paths
        plan = family_plan(session)
        again = run_plan(plan, session, merge_spend=False, fused="family")
        for a, b in zip(family.points, again.points):
            assert points_identical(a, b)

    def test_family_differs_from_unfused_stream(self, paths):
        """Sanity: the family stream really is its own draw (silent
        fallback to the per-point path would pass the tolerances)."""
        unfused, _, family = paths
        assert any(
            pu.feasible and pf.overall != pu.overall
            for pu, pf in zip(unfused.points, family.points)
        )

    def test_family_spends_match_unfused(self, paths):
        """Family fusion changes how noise is drawn, never the debits."""
        unfused, _, family = paths
        assert len(family.spends) == len(unfused.spends)
        key = lambda e: (e.label, e.mechanism, e.epsilon, e.delta, e.mode)
        assert sorted(map(key, family.spends)) == sorted(
            map(key, unfused.spends)
        )


class TestFamilyAnalytic:
    """For linear mechanisms the family L1 path reduces analytically
    from unit |Z| column sums; adding spearman forces the generic
    per-member release path over the same stream, so the two L1 answers
    must agree to float-reassociation error."""

    @pytest.mark.parametrize("mechanism", ["smooth-gamma", "smooth-laplace"])
    def test_analytic_matches_generic(self, session, mechanism):
        from repro.experiments.workloads import WORKLOAD_1

        stats = session.statistics(WORKLOAD_1)
        kwargs = dict(
            members=[(0.05, 1.0), (0.05, 2.0), (0.2, 2.0)],
            delta=0.05,
            n_trials=50,
            seed=99,
        )
        analytic = fused_family_points(stats, mechanism, **kwargs)
        generic = fused_family_points(
            stats, mechanism, metrics=("l1-ratio", "spearman"), **kwargs
        )
        for pa, pg in zip(analytic["l1-ratio"], generic["l1-ratio"]):
            assert pa.overall == pytest.approx(pg.overall, rel=1e-9)
            for sa, sg in zip(pa.by_stratum, pg.by_stratum):
                assert sa == pytest.approx(sg, rel=1e-9)


class TestFamilyStore:
    """The two cache key spaces — default and ``family`` — are
    disjoint, and family resume is member-precise."""

    def test_two_way_key_disjointness(self, session):
        plan = family_plan(session, n_trials=2)
        families, leftover = fused_families(plan)
        assert not leftover
        plain = {spec.key(plan.fingerprint) for spec in plan.points}
        family = {
            fam.member_key(plan.points[i], plan.fingerprint)
            for fam in families
            for i in fam.indices
        }
        assert len(plain) == len(family) == len(plan.points)
        assert plain.isdisjoint(family)

    def test_work_unit_keys_match_both_key_spaces(self, session):
        plan = family_plan(session, n_trials=2)
        plain = {
            unit.member_key(plan, unit.indices[0])
            for unit in work_units(plan)
        }
        assert plain == set(plan.keys())
        families, _ = fused_families(plan)
        fused = work_units(plan, fused=True)
        assert [unit.family for unit in fused] == families
        assert {
            unit.member_key(plan, i) for unit in fused for i in unit.indices
        } == {
            fam.member_key(plan.points[i], plan.fingerprint)
            for fam in families
            for i in fam.indices
        }

    def test_family_run_ignores_other_caches(self, session, tmp_path):
        plan = family_plan(session, n_trials=2)
        store = ResultStore(tmp_path)
        run_plan(plan, session, merge_spend=False, store=store, resume=True)
        family = run_plan(
            plan,
            session,
            merge_spend=False,
            store=ResultStore(tmp_path),
            resume=True,
            fused="family",
        )
        assert family.cache_hits == 0
        assert family.computed == len(plan.points)

    def test_family_resume_replays_family_cache(self, session, tmp_path):
        plan = family_plan(session, n_trials=2)
        store = ResultStore(tmp_path)
        first = run_plan(
            plan, session, merge_spend=False, store=store, resume=True,
            fused="family",
        )
        second = run_plan(
            plan,
            session,
            merge_spend=False,
            store=ResultStore(tmp_path),
            resume=True,
            fused="family",
        )
        assert second.computed == 0
        assert second.cache_hits == len(plan.points)
        assert not second.spends  # cache hits debit nothing
        for a, b in zip(first.points, second.points):
            assert points_identical(a, b)

    def test_family_resume_recomputes_only_missing_members(
        self, session, tmp_path
    ):
        """Drop two members of one family from the store: the resumed
        run recomputes exactly those two — the family draw is mask-
        independent, so the values come back bit-for-bit."""
        plan = family_plan(session, n_trials=2)
        store = ResultStore(tmp_path)
        first = run_plan(
            plan, session, merge_spend=False, store=store, resume=True,
            fused="family",
        )
        families, _ = fused_families(plan)
        victim = families[1]
        dropped = list(victim.indices[:2])
        for index in dropped:
            key = victim.member_key(plan.points[index], plan.fingerprint)
            store.path_for(key).unlink()
        second = run_plan(
            plan,
            session,
            merge_spend=False,
            store=ResultStore(tmp_path),
            resume=True,
            fused="family",
        )
        assert second.computed == len(dropped)
        assert second.cache_hits == len(plan.points) - len(dropped)
        for a, b in zip(first.points, second.points):
            assert points_identical(a, b)


def assert_matches_reference(got, want, metrics):
    for metric in metrics:
        pairs = zip(got[metric], want[metric])
        for e, (point, expected) in enumerate(pairs):
            if expected is None:
                assert point is None
            elif expected == "infeasible":
                assert not point.feasible
            else:
                assert points_identical(point, expected), (metric, e)


class TestBlockwiseMembers:
    """Every non-analytic member builds its noisy rows one block at a
    time: its L1 column sums ride as the block buffer's first row, so
    they fold in whole-matrix order, and no member holds a trials×cells
    matrix."""

    @pytest.mark.parametrize(
        "metrics", [("l1-ratio",), ("l1-ratio", "spearman")], ids="+".join
    )
    @pytest.mark.parametrize("threads", [1, 3])
    def test_log_laplace_matches_full_chunk_reference(
        self, session, metrics, threads
    ):
        stats = session.statistics(WORKLOAD_2)
        # 1500 trials: many whole blocks, then one that ends mid-block.
        assert 1500 % block_rows(stats.eval_true.size)
        kwargs = dict(
            members=MEMBERS,
            delta=0.05,
            n_trials=1500,
            seed=37,
            metrics=metrics,
            evaluate=[True, True, False, True, True],
        )
        got = fused_family_points(
            stats, "log-laplace", threads=threads, **kwargs
        )
        want = _reference_family(stats, "log-laplace", **kwargs)
        assert_matches_reference(got, want, metrics)
        assert got["l1-ratio"][2] is None
        assert any(point and point.feasible for point in got["l1-ratio"])

    @pytest.mark.parametrize("mechanism", ["log-laplace", "smooth-laplace"])
    def test_l1_folds_when_no_set_can_be_ranked(self, session, mechanism):
        """A constant SDL baseline leaves the ranker no live set: ρ is
        nan, and the L1 sums still fold every block of every member."""
        stats = session.statistics(WORKLOAD_2)
        constant = np.ones_like(stats.sdl_noisy)
        stats = dataclasses.replace(
            stats,
            sdl_noisy=constant,
            evaluation=EvaluationBaseline.build(
                stats.mask, stats.true, constant, stats.strata
            ),
        )
        assert not SetRanker(stats.evaluation.rank_layout).denominators
        metrics = ("l1-ratio", "spearman")
        kwargs = dict(
            members=MEMBERS,
            delta=0.05,
            n_trials=300,
            seed=37,
            metrics=metrics,
            evaluate=[True] * len(MEMBERS),
        )
        got = fused_family_points(stats, mechanism, threads=2, **kwargs)
        want = _reference_family(stats, mechanism, **kwargs)
        assert_matches_reference(got, want, metrics)
        feasible = [point for point in got["l1-ratio"] if point.feasible]
        assert feasible and all(point.overall > 0 for point in feasible)
        for point in got["spearman"]:
            assert np.isnan([point.overall, *point.by_stratum]).all()

    @pytest.mark.parametrize(
        "metrics",
        [("l1-ratio",), ("spearman",), ("l1-ratio", "spearman")],
        ids="+".join,
    )
    @pytest.mark.parametrize("threads", [1, 3])
    def test_member_builds_count_under_reduce(
        self, session, monkeypatch, metrics, threads
    ):
        """``--profile``'s ``draw`` is the unit draw alone: every member
        build runs while the calling thread is inside ``reduce``."""
        from repro.core.log_laplace import LogLaplace
        from repro.engine import profile

        open_stages, seen = [], set()
        stage = profile.stage

        @contextmanager
        def recording_stage(name):
            open_stages.append(name)
            try:
                with stage(name):
                    yield
            finally:
                open_stages.pop()

        build = LogLaplace.release_counts_from_unit

        def recording_build(self, *args, **kwargs):
            seen.add(tuple(open_stages))
            return build(self, *args, **kwargs)

        monkeypatch.setattr(profile, "stage", recording_stage)
        monkeypatch.setattr(
            LogLaplace, "release_counts_from_unit", recording_build
        )
        with profile.profiled():
            fused_family_points(
                session.statistics(WORKLOAD_2),
                "log-laplace",
                members=MEMBERS,
                delta=0.05,
                n_trials=200,
                seed=37,
                metrics=metrics,
                threads=threads,
            )
        assert seen == {("reduce",)}

    @pytest.mark.parametrize(
        "mechanism,bound",
        # A whole-matrix member holds 4× the unit matrix, an out-of-place
        # |Z| 2×.
        [("log-laplace", 2.5), ("smooth-laplace", 1.5)],
    )
    def test_l1_family_peak_memory(self, session, mechanism, bound):
        stats = session.statistics(WORKLOAD_2)
        kwargs = dict(members=MEMBERS, delta=0.05, n_trials=1500, seed=37)
        fused_family_points(stats, mechanism, **kwargs)
        tracemalloc.start()
        try:
            fused_family_points(stats, mechanism, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        unit_bytes = 1500 * stats.eval_true.size * 8
        assert peak <= bound * unit_bytes, peak / unit_bytes


class TestEnvelopeCache:
    """The per-α smooth-sensitivity envelope is computed once on the
    workload statistics and shared read-only by every mechanism."""

    def test_cached_and_read_only(self, session):
        from repro.core.smooth_sensitivity import smooth_envelope
        from repro.experiments.workloads import WORKLOAD_1

        stats = session.statistics(WORKLOAD_1)
        first = stats.envelope(0.05)
        again = stats.envelope(0.05)
        assert first is again  # cached, not recomputed
        other = stats.envelope(0.2)
        assert other is not first
        np.testing.assert_array_equal(
            first, smooth_envelope(stats.eval_xv, 0.05)
        )
        np.testing.assert_array_equal(
            first, np.maximum(stats.eval_xv * 0.05, 1.0)
        )
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 0.0


class TestFamilyFigures:
    """End-to-end family runs of the published plans."""

    def test_finding6_family_equals_unfused(self, session):
        """Truncated-laplace points are not fusable: the family runner
        routes them through the ordinary path, bit-identically."""
        _, unfused = run_figure_plan(session, "finding-6")
        _, family = run_figure_plan(session, "finding-6", fused="family")
        for a, b in zip(unfused.points, family.points):
            assert points_identical(a, b)

    def test_figure1_family_feasibility_matches(self, session):
        _, family = run_figure_plan(session, "figure-1", fused="family")
        golden = FIGURE_GOLDEN["figure-1"]
        assert len(family.points) == len(golden)
        for point, expected in zip(family.points, golden):
            assert point.mechanism == expected[0]
            assert point.alpha == (expected[1] or point.alpha)
            assert point.epsilon == expected[2]
            assert point.feasible == expected[4]

    @pytest.mark.parametrize("name", sorted(FAMILY_GOLDEN))
    def test_family_values_bit_identical(self, session, name):
        _, family = run_figure_plan(session, name, fused="family")
        golden = FAMILY_GOLDEN[name]
        assert len(family.points) == len(golden)
        for point, (*head, by_stratum) in zip(family.points, golden):
            got = (
                point.mechanism, point.alpha, point.epsilon, point.theta,
                point.feasible, point.overall, *point.by_stratum,
            )
            want = (*head, *by_stratum)
            assert len(got) == len(want)
            assert all(map(same_float, got, want)), (name, got, want)

    def test_figure2_family_feasibility_matches(self, session):
        _, family = run_figure_plan(session, "figure-2", fused="family")
        golden = FIGURE_GOLDEN["figure-2"]
        assert len(family.points) == len(golden)
        for point, expected in zip(family.points, golden):
            assert point.mechanism == expected[0]
            assert point.epsilon == expected[2]
            assert point.feasible == expected[4]


class TestWorkerProfile:
    """``--profile`` reaches into process-pool workers: each task ships
    its stage profile back and the parent merges a per-worker view."""

    def test_process_pool_profile_has_per_worker(self, session):
        from repro.runtime import ProcessDriver

        plan = family_plan(session, n_trials=2)
        outcome = run_plan(
            plan,
            session,
            merge_spend=False,
            fused="family",
            executor=ProcessDriver(workers=2),
            profile=True,
        )
        prof = outcome.profile
        per_worker = prof.get("per_worker")
        assert per_worker, "process-pool profile lost the worker stages"
        assert sum(w["tasks"] for w in per_worker) == 3  # one per family
        for worker in per_worker:
            assert worker["pid"] > 0
            assert worker["total_s"] >= 0.0
        # Worker stage seconds fold into the parent totals.
        assert prof["draw_s"] + prof["reduce_s"] > 0.0

    def test_serial_profile_has_no_per_worker(self, session):
        plan = family_plan(session, n_trials=2)
        outcome = run_plan(
            plan, session, merge_spend=False, fused="family", profile=True
        )
        assert "per_worker" not in outcome.profile
        assert outcome.profile["total_s"] > 0


class TestMemberThreads:
    """A drain hands its family kernels the cores its own concurrent
    units leave idle: ``kernel_threads`` of the round's width."""

    @pytest.fixture
    def eight_cpus(self, monkeypatch):
        monkeypatch.delenv(MAX_WORKERS_ENV, raising=False)
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(range(8)), raising=False
        )
        monkeypatch.setattr(os, "cpu_count", lambda: 8)

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        """The ``threads`` of every family kernel call."""
        calls = []
        kernel = evaluate.fused_family_points

        def spy(*args, threads=1, **kwargs):
            calls.append(threads)
            return kernel(*args, threads=threads, **kwargs)

        monkeypatch.setattr(evaluate, "fused_family_points", spy)
        return calls

    @pytest.mark.parametrize(
        "driver,width", [(SerialDriver(), 1), (ThreadDriver(2), 2)]
    )
    def test_drain_passes_the_threads_its_width_leaves(
        self, session, eight_cpus, kernel_calls, driver, width
    ):
        plan = family_plan(session, n_trials=2, metric="spearman")
        assert len(work_units(plan, True)) == 3
        run_plan(plan, session, merge_spend=False, fused="family", executor=driver)
        assert kernel_threads(width) == 8 // width
        assert kernel_calls == [kernel_threads(width)] * 3

    def test_threaded_profile_stays_within_the_wall_clock(
        self, session, eight_cpus, kernel_calls
    ):
        """Only the calling thread times stages, so the stage seconds
        of a threaded Spearman drain still fit inside its total."""
        plan = family_plan(session, n_trials=300, metric="spearman")
        outcome = run_plan(
            plan, session, merge_spend=False, fused="family", profile=True
        )
        assert kernel_calls and all(threads > 1 for threads in kernel_calls)
        prof = outcome.profile
        assert prof["reduce_s"] > 0.0
        staged = prof["draw_s"] + prof["reduce_s"] + prof["store_s"]
        assert staged <= prof["total_s"]
