"""Tests for the privacy ledger: composition debits and overdraft policy."""

import math

import pytest

from repro.api import LedgerEntry, PrivacyLedger, PrivacyOverdraftWarning
from repro.core import EREEParams, marginal_budget
from repro.core.composition import SINGLE_QUERY, WEAK
from repro.dp.composition import PrivacyBudgetExceeded


@pytest.fixture()
def params():
    return EREEParams(alpha=0.1, epsilon=2.0, delta=0.05)


class TestDebits:
    def test_strong_marginal_debits_request_epsilon(
        self, tiny_worker_full, params
    ):
        schema = tiny_worker_full.table.schema
        budget = marginal_budget(
            params, schema, ("naics", "place"), ("sex", "education"), "strong"
        )
        ledger = PrivacyLedger()
        entry = ledger.debit(budget, label="strong")
        assert entry.epsilon == params.epsilon
        assert entry.delta == params.delta
        assert entry.worker_domain == 1
        assert ledger.spent_epsilon == params.epsilon

    def test_weak_marginal_debits_composed_total(
        self, tiny_worker_full, params
    ):
        """The debit is the Sec-4 composed d·ε_cell total, not per-cell."""
        schema = tiny_worker_full.table.schema
        budget = marginal_budget(
            params,
            schema,
            ("place", "sex", "education"),
            ("sex", "education"),
            WEAK,
        )
        d = budget.worker_domain
        assert d == 4  # sex × education = 2 × 2
        assert budget.per_cell.epsilon == pytest.approx(params.epsilon / d)
        ledger = PrivacyLedger()
        entry = ledger.debit(budget, label="weak")
        # total ε is the full request budget; total δ composes to d·δ.
        assert entry.epsilon == pytest.approx(params.epsilon)
        assert entry.delta == pytest.approx(min(params.delta * d, 1.0 - 1e-12))
        assert entry.worker_domain == d

    def test_single_query_debits_d_times_epsilon(
        self, tiny_worker_full, params
    ):
        """Workload-2 style: each cell at full ε, so the total is d·ε."""
        schema = tiny_worker_full.table.schema
        budget = marginal_budget(
            params,
            schema,
            ("place", "sex", "education"),
            ("sex", "education"),
            WEAK,
            SINGLE_QUERY,
        )
        ledger = PrivacyLedger()
        entry = ledger.debit(budget, label="single-query")
        assert entry.epsilon == pytest.approx(params.epsilon * 4)

    def test_sequential_charges_add(self, params):
        ledger = PrivacyLedger()
        ledger.debit_amount(1.0, 0.01, label="a")
        ledger.debit_amount(0.5, 0.02, label="b")
        assert ledger.spent_epsilon == pytest.approx(1.5)
        assert ledger.spent_delta == pytest.approx(0.03)
        assert [entry.label for entry in ledger.entries] == ["a", "b"]

    def test_negative_loss_rejected(self):
        with pytest.raises(ValueError, match="cannot be negative"):
            LedgerEntry(label="x", epsilon=-1.0, delta=0.0)


class TestBudgets:
    def test_unlimited_ledger_tracks_only(self):
        ledger = PrivacyLedger()
        ledger.debit_amount(1e9, label="huge")
        assert ledger.remaining_epsilon == math.inf
        assert ledger.utilization == 0.0

    def test_remaining_and_utilization(self):
        ledger = PrivacyLedger(epsilon_budget=4.0)
        ledger.debit_amount(1.0, label="a")
        assert ledger.remaining_epsilon == pytest.approx(3.0)
        assert ledger.utilization == pytest.approx(0.25)

    def test_overdraft_raises_and_records_nothing(self):
        ledger = PrivacyLedger(epsilon_budget=1.0)
        ledger.debit_amount(0.75, label="ok")
        with pytest.raises(PrivacyBudgetExceeded, match="overdraws"):
            ledger.debit_amount(0.5, label="too-much")
        assert ledger.spent_epsilon == pytest.approx(0.75)
        assert len(ledger.entries) == 1

    def test_delta_overdraft_raises(self):
        ledger = PrivacyLedger(epsilon_budget=10.0, delta_budget=0.05)
        with pytest.raises(PrivacyBudgetExceeded):
            ledger.debit_amount(1.0, 0.06, label="delta-heavy")

    def test_warn_mode_warns_and_records(self):
        ledger = PrivacyLedger(epsilon_budget=1.0, on_overdraft="warn")
        ledger.debit_amount(0.75, label="ok")
        with pytest.warns(PrivacyOverdraftWarning, match="overdraws"):
            ledger.debit_amount(0.5, label="over")
        assert ledger.spent_epsilon == pytest.approx(1.25)
        assert len(ledger.entries) == 2

    def test_exact_budget_is_not_overdraft(self):
        ledger = PrivacyLedger(epsilon_budget=1.0)
        ledger.debit_amount(0.5, label="a")
        ledger.debit_amount(0.5, label="b")
        assert ledger.remaining_epsilon == pytest.approx(0.0)

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError, match="on_overdraft"):
            PrivacyLedger(on_overdraft="ignore")

    def test_summary_mentions_entries(self):
        ledger = PrivacyLedger(epsilon_budget=4.0)
        ledger.debit_amount(1.0, label="figure-1-point")
        text = ledger.summary()
        assert "figure-1-point" in text
        assert "utilization" in text


class TestMerge:
    """The spend-record merge API used by the parallel sweep executors."""

    def test_merge_records_in_order(self):
        ledger = PrivacyLedger()
        records = [
            LedgerEntry(label="a", epsilon=1.0, delta=0.0),
            LedgerEntry(label="b", epsilon=0.5, delta=0.01),
        ]
        merged = ledger.merge(records)
        assert merged == records
        assert [entry.label for entry in ledger.entries] == ["a", "b"]
        assert ledger.spent_epsilon == pytest.approx(1.5)
        assert ledger.spent_delta == pytest.approx(0.01)

    def test_merge_empty_is_noop(self):
        ledger = PrivacyLedger()
        assert ledger.merge([]) == []
        assert ledger.entries == []

    def test_merge_stops_at_first_overdraft(self):
        ledger = PrivacyLedger(epsilon_budget=1.0)
        records = [
            LedgerEntry(label="fits", epsilon=0.75, delta=0.0),
            LedgerEntry(label="overdraws", epsilon=0.5, delta=0.0),
            LedgerEntry(label="never-reached", epsilon=0.1, delta=0.0),
        ]
        with pytest.raises(PrivacyBudgetExceeded):
            ledger.merge(records)
        assert [entry.label for entry in ledger.entries] == ["fits"]

    def test_entry_from_budget_records_nothing(self, tiny_worker_full, params):
        from repro.core import marginal_budget

        schema = tiny_worker_full.table.schema
        budget = marginal_budget(
            params, schema, ("naics", "place"), ("sex", "education"), "strong"
        )
        entry = LedgerEntry.from_budget(
            budget, label="detached", mechanism="smooth-laplace"
        )
        assert entry.epsilon == params.epsilon
        assert entry.mode == budget.mode
        ledger = PrivacyLedger()
        assert ledger.entries == []
        ledger.record(entry)
        assert ledger.entries == [entry]


class TestConcurrency:
    """The ledger composes exactly under concurrent debits (threaded sweeps)."""

    def test_concurrent_debits_lose_nothing(self):
        import threading

        ledger = PrivacyLedger()
        n_threads, debits_each = 8, 50
        barrier = threading.Barrier(n_threads)

        def hammer(worker):
            barrier.wait()
            for index in range(debits_each):
                ledger.debit_amount(0.01, label=f"w{worker}:{index}")

        threads = [
            threading.Thread(target=hammer, args=(worker,))
            for worker in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(ledger.entries) == n_threads * debits_each
        assert ledger.spent_epsilon == pytest.approx(0.01 * n_threads * debits_each)

    def test_running_totals_survive_thread_switches(self):
        import sys
        import threading

        # Record and restore race with thread switches forced every
        # microsecond.  Totals folded outside the lock would lose updates
        # or add entries in another order than they were appended; with
        # unequal amounts either leaves them off the entries' own fold.
        ledger = PrivacyLedger()
        n_threads, debits_each = 8, 500
        barrier = threading.Barrier(n_threads)

        def hammer(worker):
            barrier.wait()
            for index in range(debits_each):
                entry = LedgerEntry(
                    label=f"w{worker}:{index}",
                    epsilon=0.1 * (worker + 1),
                    delta=1e-7 * (index + 1),
                )
                (ledger.record if index % 2 else ledger.restore)(entry)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=hammer, args=(worker,))
                for worker in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(ledger.entries) == n_threads * debits_each
        epsilon = delta = 0.0
        for entry in ledger.entries:
            epsilon += entry.epsilon
            delta += entry.delta
        assert (ledger.spent_epsilon, ledger.spent_delta) == (epsilon, delta)

    def test_concurrent_debits_never_exceed_a_raise_budget(self):
        import threading

        # 8 threads race 25 debits of 0.1 each (total 20) against a
        # budget of 1.0: without the atomic check-and-append two debits
        # could both see the last sliver of budget and overshoot.
        ledger = PrivacyLedger(epsilon_budget=1.0)
        barrier = threading.Barrier(8)

        def hammer():
            barrier.wait()
            for _ in range(25):
                try:
                    ledger.debit_amount(0.1, label="race")
                except PrivacyBudgetExceeded:
                    pass

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert ledger.spent_epsilon <= 1.0 + 1e-9
        assert len(ledger.entries) == 10
