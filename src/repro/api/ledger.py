"""The privacy ledger: explicit ε/δ accounting for a release session.

Every executed :class:`repro.api.ReleaseRequest` debits the ledger with
the *total* (ε, δ) of its marginal's Sec-4/Sec-7 composition budget (the
``MarginalBudget.total`` of :func:`repro.core.composition.marginal_budget`
— d·ε_cell for weak worker-attribute releases, ε_cell otherwise),
following the budget-ledger pattern of federal statistical releases
(Abowd et al. 2017) and the privacy/accuracy production frontier of
Abowd & Schmutte (AER 2018): the agency fixes a loss budget up front and
the ledger makes the draw-down auditable.

Monte Carlo trials are *not* composed: ``n_trials`` repetitions of one
request model hypothetical re-runs of the same release (the evaluation
convention of Sec 10), so a request debits its budget once regardless of
the trial count.  Infeasible grid points release nothing and debit
nothing.

The ledger can ``raise`` on overdraft (the accountant behavior of
:class:`repro.dp.composition.PrivacyAccountant`), ``warn`` and record the
charge anyway (exploratory sessions), or run without a budget and simply
track spending.
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass, field

from repro.core.composition import MarginalBudget
from repro.dp.composition import PrivacyBudgetExceeded

RAISE = "raise"
WARN = "warn"

_POLICIES = (RAISE, WARN)


class PrivacyOverdraftWarning(UserWarning):
    """Emitted by a ``warn``-mode ledger when a debit exceeds the budget."""


@dataclass(frozen=True)
class LedgerEntry:
    """One debit: a single executed release request."""

    label: str
    epsilon: float
    delta: float
    mechanism: str = ""
    attrs: tuple[str, ...] = ()
    mode: str = ""
    worker_domain: int = 1

    def __post_init__(self):
        if self.epsilon < 0 or self.delta < 0:
            raise ValueError(
                f"privacy loss cannot be negative: ε={self.epsilon}, "
                f"δ={self.delta}"
            )

    @classmethod
    def from_budget(
        cls,
        budget: MarginalBudget,
        *,
        label: str,
        mechanism: str = "",
        attrs: tuple[str, ...] = (),
    ) -> "LedgerEntry":
        """The spend record of one marginal release's composed total.

        Building an entry records nothing — sweep tasks return these
        from workers and the parent ledger merges them, so accounting stays
        exact (and deterministic) under parallel sweep execution.
        """
        return cls(
            label=label,
            epsilon=float(budget.total.epsilon),
            delta=float(budget.total.delta),
            mechanism=mechanism,
            attrs=tuple(attrs),
            mode=budget.mode,
            worker_domain=budget.worker_domain,
        )

    def to_dict(self) -> dict:
        """A JSON-serializable spend record (result store, spend journal)."""
        return {
            "label": self.label,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "mechanism": self.mechanism,
            "attrs": list(self.attrs),
            "mode": self.mode,
            "worker_domain": self.worker_domain,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "LedgerEntry":
        """Rebuild an entry from :meth:`to_dict` output (tolerant of
        missing optional fields, so old journals stay replayable)."""
        return cls(
            label=payload["label"],
            epsilon=float(payload["epsilon"]),
            delta=float(payload["delta"]),
            mechanism=payload.get("mechanism", ""),
            attrs=tuple(payload.get("attrs", ())),
            mode=payload.get("mode", ""),
            worker_domain=int(payload.get("worker_domain", 1)),
        )


@dataclass
class PrivacyLedger:
    """Composition-aware (ε, δ) accounting across a session's releases.

    ``epsilon_budget``/``delta_budget`` of ``None`` mean unlimited
    (tracking-only mode).  ``on_overdraft`` selects the enforcement
    policy: ``"raise"`` rejects the charge with
    :class:`~repro.dp.composition.PrivacyBudgetExceeded` (nothing is
    recorded — the caller must not release), ``"warn"`` emits a
    :class:`PrivacyOverdraftWarning` and records the charge.

    Charges compose sequentially (Theorems 2.1 / 7.3: ε and δ add);
    distinct marginals over one snapshot touch the same establishments,
    so parallel composition across requests does not apply.

    The ledger is concurrency-safe: the overdraft check and the append
    are one atomic step under an internal lock, so threaded sweeps (the
    engine on a :class:`~repro.runtime.ThreadDriver`, or any
    user threads sharing a session) can debit concurrently without
    losing entries or slipping past a budget.  Process-parallel sweeps
    instead return :class:`LedgerEntry` spend records from workers and
    :meth:`merge` them here, in deterministic plan order.

    The spent totals are running ``+=`` sums kept by :meth:`restore`:
    O(1) to read, and bit-equal to journal compaction's fold.
    """

    epsilon_budget: float | None = None
    delta_budget: float | None = None
    on_overdraft: str = RAISE
    entries: list[LedgerEntry] = field(default_factory=list)
    _tolerance: float = 1e-9
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )
    _spent_epsilon: float = field(default=0.0, init=False, repr=False, compare=False)
    _spent_delta: float = field(default=0.0, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.on_overdraft not in _POLICIES:
            raise ValueError(
                f"on_overdraft must be one of {_POLICIES}, "
                f"got {self.on_overdraft!r}"
            )
        for name, budget in (
            ("epsilon_budget", self.epsilon_budget),
            ("delta_budget", self.delta_budget),
        ):
            if budget is not None and budget < 0:
                raise ValueError(f"{name} cannot be negative, got {budget}")
        for entry in self.entries:
            self._spent_epsilon += entry.epsilon
            self._spent_delta += entry.delta

    # -- state ----------------------------------------------------------

    @property
    def spent_epsilon(self) -> float:
        return self._spent_epsilon

    @property
    def spent_delta(self) -> float:
        return self._spent_delta

    @property
    def remaining_epsilon(self) -> float:
        if self.epsilon_budget is None:
            return math.inf
        return self.epsilon_budget - self.spent_epsilon

    @property
    def remaining_delta(self) -> float:
        if self.delta_budget is None:
            return math.inf
        return self.delta_budget - self.spent_delta

    @property
    def utilization(self) -> float:
        """Spent ε as a fraction of the budget (0.0 when unlimited)."""
        if not self.epsilon_budget:
            return 0.0
        return self.spent_epsilon / self.epsilon_budget

    # -- debits ---------------------------------------------------------

    def debit(
        self,
        budget: MarginalBudget,
        *,
        label: str,
        mechanism: str = "",
        attrs: tuple[str, ...] = (),
    ) -> LedgerEntry:
        """Debit one marginal release's composed total (ε, δ).

        The charge is ``budget.total`` — the Sec-4 composition cost of
        the whole marginal (d·ε_cell under the weak worker-attribute
        split), not the per-cell parameters.
        """
        return self.record(
            LedgerEntry.from_budget(
                budget, label=label, mechanism=mechanism, attrs=attrs
            )
        )

    def preflight(self, epsilon: float, delta: float = 0.0, *, label: str = "") -> None:
        """Check affordability without recording anything.

        In ``raise`` mode an unaffordable charge raises here, so callers
        can gate expensive (or irreversible) release work *before* it
        runs and only debit after it succeeds — a failed release must
        never leave privacy spend on the books.  ``warn`` mode defers its
        warning to the actual debit.
        """
        entry = LedgerEntry(label=label, epsilon=float(epsilon), delta=float(delta))
        with self._lock:
            over = self._overdraft_message(entry)
        if over is not None and self.on_overdraft == RAISE:
            raise PrivacyBudgetExceeded(over)

    def would_overdraw(self, entry: LedgerEntry) -> str | None:
        """The overdraft message recording ``entry`` would produce, or None.

        Lets a caller that serializes its own debits (the release
        service's tenant accounts) decide the raise/warn outcome itself
        and then append via :meth:`restore`, without the global
        ``warnings`` machinery in the request path.
        """
        with self._lock:
            return self._overdraft_message(entry)

    def debit_amount(
        self,
        epsilon: float,
        delta: float = 0.0,
        *,
        label: str,
        mechanism: str = "",
        attrs: tuple[str, ...] = (),
        mode: str = "",
        worker_domain: int = 1,
    ) -> LedgerEntry:
        """Debit a raw (ε, δ) amount (e.g. a node-DP baseline release)."""
        return self.record(
            LedgerEntry(
                label=label,
                epsilon=float(epsilon),
                delta=float(delta),
                mechanism=mechanism,
                attrs=tuple(attrs),
                mode=mode,
                worker_domain=worker_domain,
            )
        )

    def record(self, entry: LedgerEntry) -> LedgerEntry:
        """Record a pre-built spend entry (the atomic debit primitive).

        The overdraft check and the append happen under the ledger lock,
        so concurrent debits from threaded sweeps compose exactly: no
        entry is lost and no pair of debits can both slip under the last
        sliver of budget.
        """
        with self._lock:
            over = self._overdraft_message(entry)
            if over is not None:
                if self.on_overdraft == RAISE:
                    raise PrivacyBudgetExceeded(over)
                warnings.warn(over, PrivacyOverdraftWarning, stacklevel=3)
            return self.restore(entry)

    def merge(self, records) -> list[LedgerEntry]:
        """Record a sequence of spend records, in order.

        This is how parallel sweeps settle up: workers evaluate
        points against their own (budget-less) rebuilt sessions, return
        :class:`LedgerEntry` records, and the parent merges them in plan
        order — so the ledger trail is identical to a serial run no
        matter how the work was scheduled.  In ``raise`` mode the merge
        stops at the first record that would overdraw (earlier records
        stay on the books, exactly as with sequential debits).
        """
        return [self.record(entry) for entry in records]

    def _overdraft_message(self, entry: LedgerEntry) -> str | None:
        epsilon_after = self.spent_epsilon + entry.epsilon
        delta_after = self.spent_delta + entry.delta
        over_epsilon = (
            self.epsilon_budget is not None
            and epsilon_after > self.epsilon_budget + self._tolerance
        )
        over_delta = (
            self.delta_budget is not None
            and delta_after > self.delta_budget + self._tolerance
        )
        if not (over_epsilon or over_delta):
            return None
        return (
            f"debit {entry.label!r} (ε={entry.epsilon:.6g}, "
            f"δ={entry.delta:.6g}) overdraws the ledger: spent would be "
            f"ε={epsilon_after:.6g} of {self.epsilon_budget}, "
            f"δ={delta_after:.6g} of {self.delta_budget}"
        )

    def restore(self, entry: LedgerEntry) -> LedgerEntry:
        """Append a *historical* entry, bypassing the overdraft check.

        Journal replay is not a new debit: an entry that was acknowledged
        and journaled has already been spent, and the books must reflect
        it even when the budget (or policy) has since been tightened —
        an over-budget history surfaces as a fully-drawn ledger, not a
        rewritten one.
        """
        with self._lock:
            self.entries.append(entry)
            self._spent_epsilon += entry.epsilon
            self._spent_delta += entry.delta
        return entry

    # -- reporting ------------------------------------------------------

    def totals(self) -> dict:
        """The JSON-serializable ledger state without its entries, read
        in one step under the lock (``n_entries`` and the totals agree).

        Infinite remaining budgets serialize as ``None`` (JSON has no
        ``inf``), matching the "unlimited" reading everywhere else.
        """
        with self._lock:
            return {
                "epsilon_budget": self.epsilon_budget,
                "delta_budget": self.delta_budget,
                "on_overdraft": self.on_overdraft,
                "n_entries": len(self.entries),
                "spent_epsilon": self.spent_epsilon,
                "spent_delta": self.spent_delta,
                "remaining_epsilon": (
                    None if self.epsilon_budget is None else self.remaining_epsilon
                ),
                "remaining_delta": (
                    None if self.delta_budget is None else self.remaining_delta
                ),
                "utilization": self.utilization,
            }

    def as_dict(self) -> dict:
        """:meth:`totals` plus every entry (``GET /v1/ledger/<tenant>``)."""
        with self._lock:
            entries = [entry.to_dict() for entry in self.entries]
            return {**self.totals(), "entries": entries}

    def summary(self) -> str:
        """A one-paragraph human-readable ledger state (used by the CLI)."""
        epsilon_budget = (
            "unlimited" if self.epsilon_budget is None else f"{self.epsilon_budget:g}"
        )
        lines = [
            f"privacy ledger: {len(self.entries)} release(s), "
            f"spent ε={self.spent_epsilon:.6g} (budget {epsilon_budget}), "
            f"spent δ={self.spent_delta:.6g}",
        ]
        if self.epsilon_budget:
            lines.append(
                f"  utilization {self.utilization:.1%}; "
                f"remaining ε={self.remaining_epsilon:.6g}"
            )
        for entry in self.entries:
            lines.append(
                f"  - {entry.label}: ε={entry.epsilon:.6g}, "
                f"δ={entry.delta:.6g}"
                + (f" [{entry.mode}, d={entry.worker_domain}]" if entry.mode else "")
            )
        return "\n".join(lines)
