"""Property tests for the spend-journal algebra.

Whatever the debits, a tenant's live ledger totals, the totals replayed
from its journal, and the totals replayed from the compacted journal
all equal the left-to-right ``+=`` fold of the debits, bit for bit.
That fold (not ``sum()``, which compensates its rounding from Python
3.12 on) is what compaction writes, so the three agree on every Python
version.  Compaction also keeps every paid request key.
"""

import struct
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import LedgerEntry, PrivacyLedger
from repro.serve import SpendJournal, TenantAccount, TenantPolicy
from repro.storage import LocalFSBackend

# Repeated 0.1-like values are where compensated and plain summation
# part ways; the wide range mixes magnitudes so low bits round away.
amounts = st.one_of(
    st.sampled_from([0.1, 0.2, 0.3, 0.7, 1 / 3, 1e-6, 1e-9]),
    st.floats(0.0, 1e6, allow_nan=False, allow_subnormal=False),
)
debits = st.lists(st.tuples(amounts, amounts), max_size=30)
TEN_TENTHS = [(0.1, 0.1)] * 10


def fold(values) -> float:
    total = 0.0
    for value in values:
        total += value
    return total


def bits(value) -> bytes:
    return struct.pack("<d", value)


def assert_totals(ledger: PrivacyLedger, spends) -> None:
    assert bits(ledger.spent_epsilon) == bits(fold(e for e, _ in spends))
    assert bits(ledger.spent_delta) == bits(fold(d for _, d in spends))


def entries(spends) -> list[LedgerEntry]:
    return [
        LedgerEntry(label=f"r{i}", epsilon=e, delta=d)
        for i, (e, d) in enumerate(spends)
    ]


def account(root: Path) -> TenantAccount:
    journal = SpendJournal(LocalFSBackend(root), "acme.journal.jsonl")
    return TenantAccount("acme", TenantPolicy(), journal)


class TestLedgerTotals:
    @given(debits)
    @example(TEN_TENTHS)
    @settings(max_examples=100, deadline=None)
    def test_every_mutator_keeps_the_fold(self, spends):
        recorded, restored = PrivacyLedger(), PrivacyLedger()
        for entry in entries(spends):
            recorded.record(entry)
            restored.restore(entry)
        seeded = PrivacyLedger(entries=entries(spends))
        for ledger in (recorded, restored, seeded):
            assert_totals(ledger, spends)
            assert len(ledger.entries) == len(spends)


class TestJournalAlgebra:
    @given(debits, st.integers(0, 30))
    @example(TEN_TENTHS, 0)
    @example(TEN_TENTHS, 4)
    @settings(max_examples=40, deadline=None)
    def test_live_replayed_and_compacted_totals_agree(self, spends, cut):
        """Charge, optionally compacting after the first ``cut`` debits;
        then replay before and after a final compaction."""
        keys = [f"key-{i}" for i in range(len(spends))]
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            live = account(root)
            for index, (entry, key) in enumerate(zip(entries(spends), keys)):
                if index == cut:
                    live.journal.compact()
                live.charge(entry, key)
            assert_totals(live.ledger, spends)

            replayed = account(root)
            assert_totals(replayed.ledger, spends)

            live.journal.compact()
            raw = live.journal.path.read_bytes() if spends else b""
            compacted = account(root)
            assert_totals(compacted.ledger, spends)
            assert live.paid == replayed.paid == compacted.paid == set(keys)
            assert compacted.replayed == replayed.replayed == len(spends)

            # Compaction is idempotent: a second pass rewrites nothing.
            assert not live.journal.compact()
            if spends:
                assert live.journal.path.read_bytes() == raw
