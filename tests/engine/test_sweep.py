"""Tests for sweep orchestration: resume, accounting, legacy equivalence."""

import json
import threading

import pytest

from repro.core.params import EREEParams
from repro.engine.plan import figure_plan, fused_families, grid_plan
from repro.engine.points import points_identical
from repro.engine.store import ResultStore, content_key
from repro.engine.sweep import evaluate_point_spec, resolve_workload, run_plan
from repro.experiments.config import MECHANISM_NAMES
from repro.experiments.figures import figure1, finding6
from repro.experiments.tables import (
    TABLE3_ALPHA,
    TABLE3_DELTA,
    TABLE3_EPSILONS,
    table3_rows,
)
from repro.experiments.workloads import WORKLOAD_1, WORKLOAD_3
from repro.runtime import ProcessDriver, ThreadDriver
from repro.util import derive_seed


def assert_series_identical(xs, ys):
    assert len(xs) == len(ys)
    for a, b in zip(xs, ys):
        assert points_identical(a, b), f"{a} != {b}"


class TestResolveWorkload:
    def test_known_names(self):
        assert resolve_workload("workload-1") is WORKLOAD_1
        assert resolve_workload("workload-3") is WORKLOAD_3
        assert resolve_workload("females-college").filters

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown workload"):
            resolve_workload("workload-9")


class TestLegacyEquivalence:
    """The engine reproduces the historical per-point loop bit-for-bit."""

    def test_figure1_matches_direct_evaluate_point_loop(
        self, session, engine_config
    ):
        series = figure1(session)
        expected = []
        for mechanism in MECHANISM_NAMES:
            for alpha in engine_config.alphas:
                for epsilon in engine_config.epsilons_standard:
                    expected.append(
                        session.evaluate_point(
                            WORKLOAD_1,
                            mechanism,
                            EREEParams(alpha, epsilon, engine_config.delta),
                            metric="l1-ratio",
                            n_trials=engine_config.n_trials,
                            seed=derive_seed(
                                engine_config.seed,
                                f"fig1:{mechanism}:{alpha}:{epsilon}",
                            ),
                        )
                    )
        assert_series_identical(expected, list(series.points))

    def test_figure_ledger_labels_match_legacy_convention(self, session):
        before = len(session.ledger.entries)
        figure1(session)
        labels = [e.label for e in session.ledger.entries[before:]]
        assert labels
        assert all(label.startswith("workload-1:") for label in labels)


class TestResume:
    def test_second_run_recomputes_zero_points(self, session, tmp_path):
        plan = figure_plan("figure-1", session.config)
        first = run_plan(
            plan, session, store=ResultStore(tmp_path), resume=True
        )
        assert first.computed == len(plan)
        assert first.cache_hits == 0

        replay_store = ResultStore(tmp_path)
        second = run_plan(plan, session, store=replay_store, resume=True)
        assert second.computed == 0
        assert second.cache_hits == len(plan)
        assert replay_store.hits == len(plan)
        assert replay_store.writes == 0
        assert_series_identical(first.points, second.points)

    def test_cache_hits_spend_nothing(self, session, tmp_path):
        plan = figure_plan("finding-6", session.config)
        before = len(session.ledger.entries)
        first = run_plan(
            plan, session, store=ResultStore(tmp_path), resume=True
        )
        assert len(session.ledger.entries) == before + len(first.spends)
        second = run_plan(
            plan, session, store=ResultStore(tmp_path), resume=True
        )
        assert second.spends == []
        assert len(session.ledger.entries) == before + len(first.spends)

    def test_without_resume_store_is_write_only(self, session, tmp_path):
        plan = figure_plan("finding-6", session.config)
        store = ResultStore(tmp_path)
        run_plan(plan, session, store=store, resume=False)
        assert store.hits == 0 and store.writes == len(plan)
        # Still a full recomputation the second time — but the cache warms.
        store2 = ResultStore(tmp_path)
        outcome = run_plan(plan, session, store=store2, resume=False)
        assert outcome.computed == len(plan)

    def test_partial_resume_recomputes_only_missing(self, session, tmp_path):
        plan = figure_plan("figure-1", session.config)
        store = ResultStore(tmp_path)
        run_plan(plan, session, store=store, resume=True)
        # Drop two stored points; a resumed run recomputes exactly those.
        dropped = plan.keys()[:2]
        for key in dropped:
            store.path_for(key).unlink()
        outcome = run_plan(
            plan, session, store=ResultStore(tmp_path), resume=True
        )
        assert outcome.computed == len(dropped)
        assert outcome.cache_hits == len(plan) - len(dropped)

    def test_overdraft_abort_never_caches_an_unpaid_point(
        self, engine_config, tmp_path
    ):
        """Every stored point is on the ledger, even when a raise-mode
        budget aborts the sweep mid-plan — a later resume must not
        replay noise whose privacy cost was never recorded."""
        from repro.api.session import ReleaseSession
        from repro.dp.composition import PrivacyBudgetExceeded

        plan = figure_plan("finding-6", engine_config)
        full_spend = sum(spec.epsilon for spec in plan)
        budgeted = ReleaseSession(
            engine_config, budget=full_spend / 2, on_overdraft="raise"
        )
        store = ResultStore(tmp_path)
        with pytest.raises(PrivacyBudgetExceeded):
            run_plan(plan, budgeted, store=store, resume=True)
        assert 0 < len(store) < len(plan)
        assert len(store) == len(budgeted.ledger.entries)
        # Resuming with the leftover budget finishes only what's unpaid.
        with pytest.raises(PrivacyBudgetExceeded):
            run_plan(
                plan, budgeted, store=ResultStore(tmp_path), resume=True
            )

    def test_grid_change_invalidates_by_content(self, session, tmp_path):
        """A different trial count hashes to different keys — no stale hits."""
        import dataclasses

        plan = figure_plan("finding-6", session.config)
        run_plan(plan, session, store=ResultStore(tmp_path), resume=True)
        changed = figure_plan(
            "finding-6", dataclasses.replace(session.config, n_trials=3)
        )
        outcome = run_plan(
            changed, session, store=ResultStore(tmp_path), resume=True
        )
        assert outcome.computed == len(changed)
        assert outcome.cache_hits == 0


class TestParallelFigures:
    """The full figure path under workers=2, threads and processes."""

    @pytest.mark.parametrize("executor_factory", [ThreadDriver, ProcessDriver])
    def test_figure1_parallel_matches_serial(self, session, executor_factory):
        serial = figure1(session)
        parallel = figure1(session, executor=executor_factory(workers=2))
        assert_series_identical(serial.points, parallel.points)

    def test_finding6_parallel_matches_serial(self, session):
        serial = finding6(session)
        parallel = finding6(session, executor=ThreadDriver(workers=2))
        assert_series_identical(serial.points, parallel.points)


class TestSpecEvaluation:
    def test_spec_evaluation_equals_session_call(self, session):
        plan = figure_plan("figure-1", session.config)
        spec = next(s for s in plan if s.mechanism == "smooth-laplace")
        point, spend = evaluate_point_spec(session, spec)
        direct = session.evaluate_point(
            WORKLOAD_1,
            spec.mechanism,
            EREEParams(spec.alpha, spec.epsilon, spec.delta),
            metric=spec.metric,
            n_trials=spec.n_trials,
            seed=spec.seed,
        )
        assert points_identical(point, direct)
        assert spend is not None
        assert spend.epsilon > 0

    def test_infeasible_spec_has_no_spend(self, session):
        from repro.engine.plan import PointSpec

        spec = PointSpec(
            workload="workload-1",
            mechanism="smooth-gamma",
            metric="l1-ratio",
            alpha=0.2,
            epsilon=0.5,
            delta=0.05,
            n_trials=2,
            seed=1,
        )
        point, spend = evaluate_point_spec(session, spec)
        assert not point.feasible
        assert spend is None


def assert_rows_equal(xs, ys):
    """Row-dict equality treating NaN as equal to NaN (infeasible rows)."""
    assert len(xs) == len(ys)
    for a, b in zip(xs, ys):
        assert a.keys() == b.keys()
        for key in a:
            va, vb = a[key], b[key]
            if isinstance(va, float) and va != va:
                assert isinstance(vb, float) and vb != vb
            else:
                assert va == vb, f"{key}: {va} != {vb}"


class TestTable3Engine:
    def test_rows_match_serial_and_cache_replays(self, session, tmp_path):
        serial = table3_rows(session, epsilons=(1.0, 2.0), n_trials=2)
        store = ResultStore(tmp_path)
        computed = table3_rows(
            session,
            epsilons=(1.0, 2.0),
            n_trials=2,
            workers=2,
            store=store,
            resume=True,
        )
        assert_rows_equal(computed, serial)
        replayed = table3_rows(
            session,
            epsilons=(1.0, 2.0),
            n_trials=2,
            store=ResultStore(tmp_path),
            resume=True,
        )
        assert_rows_equal(replayed, serial)
        feasible = sum(1 for row in serial if row["feasible"])
        # Two points per row: its L1 ratio and its Spearman rho.
        assert store.writes == 2 * feasible


# Table 3's two paths: request units, and two-metric families.
TABLE3_PATHS = pytest.mark.parametrize(
    "fused", [False, "family"], ids=["requests", "families"]
)


def new_entries(session, run):
    """Run ``run()``; its result and the ledger entries it recorded."""
    before = len(session.ledger.entries)
    result = run()
    return result, session.ledger.entries[before:]


def stored_payloads(store: ResultStore) -> dict[str, dict]:
    """Every point payload in a local store, by key."""
    return {
        path.stem: json.loads(path.read_text(encoding="utf-8"))
        for path in store.root.rglob("*.json")
    }


class TestTable3Drain:
    """Table 3 drains through ``run_plan``: two points per feasible row,
    request units by default and two-metric families fused."""

    @pytest.fixture(scope="class")
    def claimless(self, session):
        return {
            fused: table3_rows(session, n_trials=2, fused=fused)
            for fused in (False, "family")
        }

    @TABLE3_PATHS
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_drivers_match_serial(self, session, claimless, fused, executor):
        rows = table3_rows(
            session, n_trials=2, fused=fused, executor=executor, workers=2
        )
        assert_rows_equal(rows, claimless[fused])

    @TABLE3_PATHS
    def test_two_claimed_drains_write_each_point_once(
        self, session, claimless, tmp_path, fused
    ):
        root = tmp_path / "shared"
        stores = [ResultStore(root), ResultStore(root)]
        rows: dict[int, list] = {}
        errors: list[BaseException] = []
        barrier = threading.Barrier(2, timeout=60)

        def drain(slot: int) -> None:
            barrier.wait()
            try:
                rows[slot] = table3_rows(
                    session,
                    n_trials=2,
                    fused=fused,
                    store=stores[slot],
                    claim=True,
                    claim_poll_s=0.02,
                )
            except BaseException as error:  # surfaced below
                errors.append(error)

        threads = [
            threading.Thread(target=drain, args=(slot,)) for slot in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert not errors
        feasible = sum(row["feasible"] for row in claimless[fused])
        assert stores[0].writes + stores[1].writes == 2 * feasible
        assert_rows_equal(rows[0], claimless[fused])
        assert_rows_equal(rows[1], claimless[fused])

    @TABLE3_PATHS
    def test_half_stored_row_recomputes_free(
        self, session, claimless, tmp_path, fused
    ):
        """A row whose Spearman point is lost reruns its seeded release:
        identical values, and no second debit for the paid release."""
        store = ResultStore(tmp_path)
        table3_rows(session, n_trials=2, fused=fused, store=store)
        spearman = [
            key
            for key, payload in sorted(stored_payloads(store).items())
            if payload["spec"]["metric"] == "spearman"
        ]
        store.path_for(spearman[0]).unlink()
        resumed_store = ResultStore(tmp_path)
        rows, spent = new_entries(
            session,
            lambda: table3_rows(
                session,
                n_trials=2,
                fused=fused,
                store=resumed_store,
                resume=True,
            ),
        )
        assert resumed_store.writes == 1
        assert spent == []
        assert_rows_equal(rows, claimless[fused])

    @TABLE3_PATHS
    def test_one_ledger_entry_per_feasible_row(self, session, claimless, fused):
        rows, spent = new_entries(
            session, lambda: table3_rows(session, n_trials=2, fused=fused)
        )
        feasible = [row for row in rows if row["feasible"]]
        assert [entry.label for entry in spent] == [
            f"workload-1:{row['mechanism']}:alpha={row['alpha']}"
            f":eps={row['epsilon']}"
            for row in feasible
        ]

    def test_row_keys_disjoint_from_sweep_keys(self, session, tmp_path):
        """A row's release and a sweep's point kernel at the same
        coordinates, trials and seed store under different keys."""
        plan = grid_plan(
            "workload-1",
            "l1-ratio",
            MECHANISM_NAMES,
            (TABLE3_ALPHA,),
            TABLE3_EPSILONS,
            fingerprint=session.snapshot_fingerprint,
            delta=TABLE3_DELTA,
            n_trials=2,
            seed=session.config.seed,
            tag="table3",
        )
        families, _ = fused_families(plan)
        family_keys = {
            index: family.member_key(plan.points[index], plan.fingerprint)
            for family in families
            for index in family.indices
        }
        store = ResultStore(tmp_path)
        table3_rows(session, n_trials=2, store=store)
        for index, spec in enumerate(plan.points):
            content = spec.content(plan.fingerprint)
            content["release"] = {
                "attrs": list(WORKLOAD_1.attrs),
                "mode": None,
                "budget_style": "marginal",
            }
            row_key = content_key(content)
            assert store.contains(row_key)
            assert row_key != spec.key(plan.fingerprint)
            assert row_key != family_keys[index]
        # A store holding the sweep's points serves no Table 3 row.
        shared = ResultStore(tmp_path / "shared")
        run_plan(plan, session, store=shared, merge_spend=False)
        run_plan(plan, session, store=shared, fused=True, merge_spend=False)
        resumed = ResultStore(tmp_path / "shared")
        table3_rows(session, n_trials=2, store=resumed, resume=True)
        assert resumed.hits == 0
        assert resumed.writes == 2 * len(plan.points)
