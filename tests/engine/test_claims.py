"""Cooperative plan drains: claims partition the grid, crashes recover.

The acceptance gates of the claim-based scheduler:

- a claimed drain is **bit-identical** to a claimless run of the same
  plan (claims change placement, never values);
- two concurrent drains of one plan against one shared store compute
  each point **exactly once** (zero duplicate computes, proven by the
  stores' write counters);
- a lease whose owner crashed **expires** and is taken over, so a dead
  drain never wedges the fleet;
- all of the above hold for fused family drains too, whose lease is
  the family's first member key and whose takeover computes only the
  members still missing;
- a SIGKILL'd process-pool worker mid-plan does not abort the run: the
  crashed task is retried exactly once and the outcome stays
  bit-identical.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.engine.plan import figure_plan, fused_families
from repro.engine.points import points_identical
from repro.engine.store import ResultStore
from repro.engine.sweep import run_plan
from repro.runtime import KILL_TASK_ENV, ProcessDriver, SerialDriver

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def assert_series_identical(xs, ys):
    assert len(xs) == len(ys)
    for a, b in zip(xs, ys):
        assert points_identical(a, b), f"{a} != {b}"


def lease_files(store: ResultStore) -> list[str]:
    return [
        key for key in store.backend.list_keys() if key.endswith(".lease")
    ]


@pytest.fixture(scope="module")
def figure1_plan(engine_config):
    return figure_plan("figure-1", engine_config)


@pytest.fixture(scope="module")
def serial_outcome(figure1_plan, session):
    return run_plan(
        figure1_plan, session, executor=SerialDriver(), merge_spend=False
    )


@pytest.fixture(scope="module")
def family_outcome(figure1_plan, session):
    return run_plan(figure1_plan, session, fused="family", merge_spend=False)


# A claimed drain must reproduce the claimless run of its own path:
# (fused, fixture holding that claimless outcome).
PATHS = [(False, "serial_outcome"), ("family", "family_outcome")]


class TestClaimValidation:
    def test_claim_requires_a_store(self, figure1_plan, session):
        with pytest.raises(ValueError, match="requires a result store"):
            run_plan(figure1_plan, session, claim=True)

    @pytest.mark.parametrize("ttl", [float("nan"), float("inf"), 0.0, -1.0])
    def test_claim_ttl_must_be_finite_and_positive(
        self, figure1_plan, session, tmp_path, ttl
    ):
        """A TTL that never expires would stall rivals of a crashed
        drain forever; one that always has would duplicate work."""
        with pytest.raises(ValueError, match="ttl_s"):
            run_plan(
                figure1_plan,
                session,
                store=ResultStore(tmp_path),
                claim=True,
                claim_ttl_s=ttl,
            )


class TestClaimedDrainEquivalence:
    @pytest.mark.parametrize("fused, reference", PATHS)
    def test_bit_identical_to_claimless(
        self, figure1_plan, session, tmp_path, request, fused, reference
    ):
        claimless = request.getfixturevalue(reference)
        store = ResultStore(tmp_path / "cache")
        outcome = run_plan(
            figure1_plan,
            session,
            store=store,
            fused=fused,
            claim=True,
            claim_poll_s=0.02,
            merge_spend=False,
        )
        assert outcome.computed == len(figure1_plan)
        assert outcome.cache_hits == 0
        assert_series_identical(claimless.points, outcome.points)
        assert outcome.spends == claimless.spends
        # Every lease released: claims coordinate, they never linger.
        assert lease_files(store) == []
        assert len(store) == len(figure1_plan)

    def test_claim_implies_resume(
        self, figure1_plan, session, serial_outcome, tmp_path
    ):
        store = ResultStore(tmp_path / "cache")
        run_plan(
            figure1_plan,
            session,
            store=store,
            claim=True,
            claim_poll_s=0.02,
            merge_spend=False,
        )
        again = run_plan(
            figure1_plan,
            session,
            store=ResultStore(tmp_path / "cache"),
            claim=True,
            claim_poll_s=0.02,
            merge_spend=False,
        )
        assert again.computed == 0
        assert again.cache_hits == len(figure1_plan)
        assert_series_identical(serial_outcome.points, again.points)


class TestConcurrentDrains:
    @pytest.mark.parametrize("fused, reference", PATHS)
    def test_two_drains_compute_each_point_exactly_once(
        self, figure1_plan, session, tmp_path, request, fused, reference
    ):
        """The zero-duplicate gate: N drains partition the grid, point
        by point or family by family."""
        claimless = request.getfixturevalue(reference)
        root = tmp_path / "shared"
        stores = [ResultStore(root), ResultStore(root)]
        outcomes: dict[int, object] = {}
        errors: list[BaseException] = []
        barrier = threading.Barrier(2)

        def drain(slot: int) -> None:
            barrier.wait()
            try:
                outcomes[slot] = run_plan(
                    figure1_plan,
                    session,
                    store=stores[slot],
                    fused=fused,
                    claim=True,
                    claim_poll_s=0.02,
                    merge_spend=False,
                )
            except BaseException as error:  # surfaced below
                errors.append(error)

        threads = [
            threading.Thread(target=drain, args=(slot,)) for slot in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        n_points = len(figure1_plan)
        a, b = outcomes[0], outcomes[1]
        # Exact partition: every point computed somewhere, none twice.
        assert a.computed + b.computed == n_points
        assert stores[0].writes + stores[1].writes == n_points
        assert a.cache_hits == n_points - a.computed
        assert b.cache_hits == n_points - b.computed
        # Both drains observed the complete, bit-identical series.
        assert_series_identical(claimless.points, a.points)
        assert_series_identical(claimless.points, b.points)
        assert lease_files(stores[0]) == []

    def test_expired_lease_is_taken_over(
        self, figure1_plan, session, serial_outcome, tmp_path
    ):
        """A crashed drain's claims expire; a live drain finishes the plan."""
        store = ResultStore(tmp_path / "cache")
        crashed = store.claim_board(owner="crashed-drain", ttl_s=0.05)
        for spec in figure1_plan.points:
            assert crashed.try_claim(spec.key(figure1_plan.fingerprint))
        # The owner "crashes": never releases, never publishes.
        time.sleep(0.1)
        outcome = run_plan(
            figure1_plan,
            session,
            store=store,
            claim=True,
            claim_poll_s=0.02,
            merge_spend=False,
        )
        assert outcome.computed == len(figure1_plan)
        assert_series_identical(serial_outcome.points, outcome.points)
        assert lease_files(store) == []

    def test_expired_family_lease_taken_over_for_missing_members(
        self, figure1_plan, session, family_outcome, tmp_path
    ):
        """Half a family is stored and a crashed drain's lease sits on
        its first member: the drain takes the lease over and computes
        only the missing members, bit-identical to the full run."""
        reference = ResultStore(tmp_path / "reference")
        run_plan(
            figure1_plan,
            session,
            store=reference,
            fused="family",
            merge_spend=False,
        )
        family = fused_families(figure1_plan)[0][0]
        keys = [
            family.member_key(figure1_plan.points[i], figure1_plan.fingerprint)
            for i in family.indices
        ]
        stored = keys[: len(keys) // 2]
        assert stored
        shared = ResultStore(tmp_path / "shared")
        for key in stored:
            shared.put(key, reference.get(key))
        crashed = shared.claim_board(owner="crashed-drain", ttl_s=0.05)
        assert crashed.try_claim(keys[0])
        time.sleep(0.1)
        drain_store = ResultStore(tmp_path / "shared")
        outcome = run_plan(
            figure1_plan,
            session,
            store=drain_store,
            fused="family",
            claim=True,
            claim_poll_s=0.02,
            merge_spend=False,
        )
        assert outcome.computed == len(figure1_plan) - len(stored)
        assert outcome.cache_hits == len(stored)
        assert drain_store.writes == len(figure1_plan) - len(stored)
        assert_series_identical(family_outcome.points, outcome.points)
        assert lease_files(shared) == []

    def test_foreign_claim_is_deferred_then_adopted(
        self, figure1_plan, session, serial_outcome, tmp_path
    ):
        """A point someone else holds is polled for, not recomputed."""
        reference = ResultStore(tmp_path / "reference")
        run_plan(
            figure1_plan,
            session,
            store=reference,
            merge_spend=False,
        )
        shared = ResultStore(tmp_path / "shared")
        key = figure1_plan.points[0].key(figure1_plan.fingerprint)
        holder = shared.claim_board(owner="other-drain", ttl_s=60.0)
        assert holder.try_claim(key)

        def publish() -> None:
            # The foreign drain finishes its point and publishes it.
            time.sleep(0.3)
            ResultStore(tmp_path / "shared").put(key, reference.get(key))

        feeder = threading.Thread(target=publish)
        feeder.start()
        try:
            outcome = run_plan(
                figure1_plan,
                session,
                store=shared,
                claim=True,
                claim_poll_s=0.02,
                merge_spend=False,
            )
        finally:
            feeder.join()
        # This drain computed everything *except* the held point, which
        # it adopted as a cache hit once the holder published.
        assert outcome.computed == len(figure1_plan) - 1
        assert outcome.cache_hits == 1
        assert_series_identical(serial_outcome.points, outcome.points)


class TestCrashRecoveryMidPlan:
    def test_killed_worker_retries_once_and_stays_bit_identical(
        self, figure1_plan, session, serial_outcome, tmp_path, monkeypatch
    ):
        """SIGKILL one process-pool worker mid-plan: the run still lands."""
        marker = tmp_path / "kill.marker"
        monkeypatch.setenv(KILL_TASK_ENV, f"{marker}@3")
        driver = ProcessDriver(workers=2)
        outcome = run_plan(
            figure1_plan, session, executor=driver, merge_spend=False
        )
        assert marker.exists(), "the injected crash must actually have fired"
        assert_series_identical(serial_outcome.points, outcome.points)
        assert outcome.spends == serial_outcome.spends
        stats = driver.stats
        # The victim was submitted exactly twice: the crash and one retry.
        assert stats.attempts[3] == 2
        assert 3 in stats.retried_tasks
        assert stats.shard_retries == 1
