"""Durable multi-tenant privacy accounting for the release service.

Each tenant owns a :class:`~repro.api.ledger.PrivacyLedger` whose every
debit is also written — fsync'd, entry by entry — to an append-only
**spend journal** through the PR-6 storage-backend layer
(:meth:`repro.storage.StorageBackend.append_line`).  The ordering is
journal-then-ledger-then-ack: by the time a release response leaves the
server, its debit is on stable storage, so a crashed (even ``kill -9``'d)
server never forgets a charge.  The conservative failure direction is
the only one possible: a crash *between* journal fsync and response can
leave a journaled debit the client never saw acknowledged — budget is
over-counted in that window, never under-counted.

On startup the journal is **replayed**: entries restore onto the ledger
bypassing the overdraft check (history is already spent, even when the
budget has since been tightened) and the set of paid request keys is
rebuilt, so duplicate requests stay free across restarts.  A torn final
line — the signature of a writer killed mid-append — is tolerated and
truncated; corruption anywhere *before* the final record raises
:class:`JournalCorrupt` loudly rather than silently dropping spend.
"""

from __future__ import annotations

import json
import re
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path

from repro.api.ledger import RAISE, WARN, LedgerEntry, PrivacyLedger
from repro.dp.composition import PrivacyBudgetExceeded
from repro.storage import LocalFSBackend, StorageBackend

__all__ = [
    "DEFAULT_LEDGER_DIR",
    "JOURNAL_SCHEMA_VERSION",
    "JournalCorrupt",
    "SpendJournal",
    "TenantAccount",
    "TenantPolicy",
    "TenantRegistry",
    "TornJournalWarning",
    "UnknownTenant",
]

DEFAULT_LEDGER_DIR = Path("reports") / "ledgers"

JOURNAL_SCHEMA_VERSION = 1

# Tenant names become journal file keys, so they are restricted to a
# path-safe alphabet (no separators, no dotfiles, no traversal).
_TENANT_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class UnknownTenant(ValueError):
    """A request named a tenant the registry has no policy for."""


class JournalCorrupt(RuntimeError):
    """A spend journal failed to parse *before* its final record.

    A torn final line is the expected wreckage of a killed writer and is
    tolerated (see :meth:`SpendJournal.replay`); garbage earlier in the
    file means lost accounting history and must fail loudly — silently
    skipping records would under-count privacy spend.
    """


class TornJournalWarning(UserWarning):
    """A journal's torn final line was discarded during replay."""


def validate_tenant_name(name) -> str:
    if not isinstance(name, str) or not _TENANT_NAME.match(name):
        raise ValueError(
            f"tenant name must match {_TENANT_NAME.pattern} "
            f"(it names the tenant's journal file), got {name!r}"
        )
    return name


class SpendJournal:
    """An append-only JSON-lines debit log over a storage backend.

    Appends are durable (``O_APPEND`` + fsync through
    :meth:`~repro.storage.StorageBackend.append_line`); replay tolerates
    exactly one torn final line and truncates it so the next append
    starts on a clean record boundary.
    """

    def __init__(self, backend: StorageBackend, key: str):
        self.backend = backend
        self.key = key

    @property
    def path(self) -> Path:
        """Where the journal lives locally (may not exist yet)."""
        return self.backend.root / self.key

    def append(self, record: dict, *, fsync: bool = True) -> None:
        """Durably append one record; returns only after the fsync."""
        self.backend.append_line(
            self.key, json.dumps(record, sort_keys=True).encode("utf-8"),
            fsync=fsync,
        )

    def replay(self) -> list[dict]:
        """Parse every record, truncating a torn final line.

        The torn-write contract: an appender that died mid-write leaves
        a partial *final* line (``O_APPEND`` writes land whole or at the
        end).  Such a tail is discarded — its debit was never fsync'd,
        hence never acknowledged — with a :class:`TornJournalWarning`.
        An unparsable record with complete records *after* it cannot be
        a torn write and raises :class:`JournalCorrupt`.
        """
        path = self.backend.open_local(self.key)
        if path is None:
            return []
        raw = path.read_bytes()
        records: list[dict] = []
        consumed = 0
        while consumed < len(raw):
            newline = raw.find(b"\n", consumed)
            end = len(raw) if newline < 0 else newline + 1
            line = raw[consumed:end]
            try:
                record = json.loads(line.decode("utf-8"))
                if not isinstance(record, dict):
                    raise ValueError("journal records must be JSON objects")
            except (ValueError, UnicodeDecodeError):
                if end < len(raw):
                    raise JournalCorrupt(
                        f"journal {self.key!r} is corrupt at byte "
                        f"{consumed}: a non-final record failed to parse"
                    ) from None
                with open(path, "r+b") as handle:
                    handle.truncate(consumed)
                warnings.warn(
                    f"journal {self.key!r}: discarded torn final line "
                    f"({len(line)} byte(s) from a killed writer)",
                    TornJournalWarning,
                    stacklevel=2,
                )
                break
            records.append(record)
            consumed = end
        return records

    def size_bytes(self) -> int:
        """The journal's current size (0 when it does not exist yet)."""
        return self.backend.size_bytes(self.key)

    def compact(self, *, min_bytes: int = 0) -> bool:
        """Collapse the journal to one snapshot record; True if rewritten.

        An append-only journal grows without bound — one record per
        charge, forever.  Compaction replays the journal and atomically
        rewrites it as a single **snapshot record** carrying everything
        replay needs for exact accounting: the aggregate spend (the
        same left-to-right float sum replay would have produced, so
        ledger totals are bit-equal), every paid request key (duplicate
        suppression survives), and the count of records folded in
        (``replayed`` counts stay honest).  What it deliberately drops
        is per-entry audit detail — individual labels, mechanisms and
        (ε, δ) splits — which is the space being reclaimed; operators
        who need the full history should archive the journal before
        compacting.

        ``min_bytes`` gates the rewrite: journals at or below the
        threshold are left alone (compacting a tiny journal trades
        audit detail for nothing).  An already-compact journal (one
        snapshot record) is never rewritten again.  The rewrite goes
        through :meth:`~repro.storage.StorageBackend.put_file`, so it
        is atomic: a crash mid-compaction leaves the old journal, never
        a half-written one.
        """
        if self.size_bytes() <= min_bytes:
            return False
        records = self.replay()
        if not records:
            return False
        if len(records) == 1 and records[0].get("compacted"):
            return False
        epsilon = 0.0
        delta = 0.0
        folded = 0
        tenant = ""
        request_keys: list[str] = []
        seen: set[str] = set()
        for record in records:
            spend = LedgerEntry.from_dict(record["spend"])
            epsilon += spend.epsilon
            delta += spend.delta
            tenant = record.get("tenant", tenant) or tenant
            if record.get("compacted"):
                folded += int(record["compacted"])
                keys = record.get("request_keys", ())
            else:
                folded += 1
                keys = (record.get("request_key"),)
            for key in keys:
                if key and key not in seen:
                    seen.add(key)
                    request_keys.append(key)
        snapshot = {
            "schema": JOURNAL_SCHEMA_VERSION,
            "tenant": tenant,
            "compacted": folded,
            "request_keys": request_keys,
            "spend": LedgerEntry(
                label=f"compacted:{folded}", epsilon=epsilon, delta=delta
            ).to_dict(),
        }
        self.backend.put_file(
            self.key,
            (json.dumps(snapshot, sort_keys=True) + "\n").encode("utf-8"),
        )
        return True


@dataclass(frozen=True)
class TenantPolicy:
    """One tenant's budget contract (``None`` budgets mean unlimited)."""

    epsilon_budget: float | None = None
    delta_budget: float | None = None
    on_overdraft: str = RAISE

    @classmethod
    def from_dict(cls, payload, *, tenant: str = "?") -> "TenantPolicy":
        """Parse a policy from config JSON, naming any offending field."""
        if not isinstance(payload, dict):
            raise ValueError(
                f"tenant {tenant!r}: policy must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        known = {"epsilon_budget", "delta_budget", "on_overdraft"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"tenant {tenant!r}: unknown policy field(s) {unknown}; "
                f"valid fields are {sorted(known)}"
            )
        kwargs = {}
        for name in ("epsilon_budget", "delta_budget"):
            value = payload.get(name)
            if value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(
                    f"tenant {tenant!r}: field {name!r} must be a number, "
                    f"got {value!r}"
                )
            kwargs[name] = float(value)
        policy = payload.get("on_overdraft", RAISE)
        if policy not in (RAISE, WARN):
            raise ValueError(
                f"tenant {tenant!r}: field 'on_overdraft' must be "
                f"{RAISE!r} or {WARN!r}, got {policy!r}"
            )
        kwargs["on_overdraft"] = policy
        return cls(**kwargs)


class TenantAccount:
    """One tenant's ledger + journal + paid-request set, charge-serialized.

    All mutation goes through :meth:`charge` under the account lock, so
    concurrent debits compose exactly — no pair of charges can both slip
    under the last sliver of budget, and the journal order matches the
    ledger order.
    """

    def __init__(self, name: str, policy: TenantPolicy, journal: SpendJournal):
        self.name = validate_tenant_name(name)
        self.policy = policy
        self.journal = journal
        self.ledger = PrivacyLedger(
            epsilon_budget=policy.epsilon_budget,
            delta_budget=policy.delta_budget,
            on_overdraft=policy.on_overdraft,
        )
        self.paid: set[str] = set()
        self._lock = threading.Lock()
        self.replayed = 0
        for record in journal.replay():
            self.ledger.restore(LedgerEntry.from_dict(record["spend"]))
            if record.get("compacted"):
                # A snapshot record (see SpendJournal.compact): one
                # aggregate spend standing in for `compacted` original
                # charges, with every paid key preserved.
                self.paid.update(
                    key for key in record.get("request_keys", ()) if key
                )
                self.replayed += int(record["compacted"])
            else:
                key = record.get("request_key")
                if key:
                    self.paid.add(key)
                self.replayed += 1

    def has_paid(self, request_key: str) -> bool:
        """Whether this exact request was already charged (ever)."""
        return request_key in self.paid

    def preflight(self, epsilon: float, delta: float, *, label: str = "") -> None:
        """Affordability gate before compute (raise-mode tenants raise)."""
        self.ledger.preflight(epsilon, delta, label=label)

    def charge(self, spend: LedgerEntry, request_key: str) -> str | None:
        """Debit ``spend``, journal it durably, and mark the key paid.

        Returns the overdraft warning text for a ``warn``-policy tenant
        that just went over budget (``None`` otherwise); a ``raise``
        policy rejects the charge with
        :class:`~repro.dp.composition.PrivacyBudgetExceeded` before
        anything is written.  The journal append (fsync'd) happens
        *before* the in-memory debit: an acknowledged charge is always
        on stable storage, and the only crash asymmetry is a journaled
        debit the client never saw — spend over-counted, never lost.
        """
        with self._lock:
            over = self.ledger.would_overdraw(spend)
            if over is not None and self.policy.on_overdraft == RAISE:
                raise PrivacyBudgetExceeded(over)
            self.journal.append(
                {
                    "schema": JOURNAL_SCHEMA_VERSION,
                    "tenant": self.name,
                    "request_key": request_key,
                    "spend": spend.to_dict(),
                }
            )
            self.ledger.restore(spend)
            self.paid.add(request_key)
            return over

    def summary(self) -> dict:
        """Compact JSON state (no per-entry detail) for release responses,
        read in one step under the ledger lock."""
        payload = self.ledger.totals()
        del payload["remaining_delta"]
        payload["tenant"] = self.name
        return payload

    def state(self) -> dict:
        """Full JSON ledger state (``GET /v1/ledger/<tenant>``)."""
        payload = self.ledger.as_dict()
        payload["tenant"] = self.name
        payload["paid_requests"] = len(self.paid)
        payload["journal"] = self.journal.key
        return payload


class TenantRegistry:
    """Named tenants over one ledger backend, with lazy journal replay.

    ``policies`` map configured tenant names to budgets; ``default_policy``
    (when given) admits *any* path-safe tenant name with that budget —
    the zero-config mode of ``repro serve``.  Accounts materialize (and
    replay their journals) on first touch.
    """

    def __init__(
        self,
        backend: StorageBackend | None = None,
        *,
        root: Path | str | None = None,
        policies: dict[str, TenantPolicy] | None = None,
        default_policy: TenantPolicy | None = None,
    ):
        if backend is None:
            backend = LocalFSBackend(
                DEFAULT_LEDGER_DIR if root is None else root
            )
        elif root is not None and Path(root) != backend.root:
            raise ValueError(
                f"pass either root or backend, not both "
                f"(root={str(root)!r}, backend root={str(backend.root)!r})"
            )
        self.backend = backend
        self.policies = dict(policies or {})
        for name in self.policies:
            validate_tenant_name(name)
        self.default_policy = default_policy
        self._accounts: dict[str, TenantAccount] = {}
        self._lock = threading.Lock()

    @staticmethod
    def journal_key(name: str) -> str:
        return f"{name}.journal.jsonl"

    def account(self, name: str) -> TenantAccount:
        """The (possibly just-replayed) account for ``name``.

        Raises :class:`UnknownTenant` for unconfigured names when no
        default policy admits them, ``ValueError`` for path-unsafe names.
        """
        validate_tenant_name(name)
        with self._lock:
            account = self._accounts.get(name)
            if account is None:
                policy = self.policies.get(name, self.default_policy)
                if policy is None:
                    raise UnknownTenant(
                        f"unknown tenant {name!r}; configured tenants: "
                        f"{sorted(self.policies)}"
                    )
                account = TenantAccount(
                    name, policy, SpendJournal(self.backend, self.journal_key(name))
                )
                self._accounts[name] = account
            return account

    def names(self) -> list[str]:
        """Configured plus materialized tenant names, sorted."""
        with self._lock:
            return sorted(set(self.policies) | set(self._accounts))

    def compact_journals(self, *, min_bytes: int = 0) -> list[str]:
        """Compact every on-disk tenant journal; returns compacted names.

        Walks the backend for ``*.journal.jsonl`` keys rather than the
        in-memory accounts, so journals left by tenants that have not
        been touched this process lifetime compact too.  Meant for
        startup (``repro serve --compact-on-start``) — before accounts
        materialize — so replay of the freshly compacted journals is
        what builds the ledgers.
        """
        suffix = ".journal.jsonl"
        compacted = []
        for key in self.backend.list_keys():
            if not key.endswith(suffix):
                continue
            if SpendJournal(self.backend, key).compact(min_bytes=min_bytes):
                compacted.append(key[: -len(suffix)])
        return compacted

    def accounts(self) -> list[TenantAccount]:
        with self._lock:
            return list(self._accounts.values())

    @classmethod
    def from_config(
        cls, payload, backend: StorageBackend | None = None, **kwargs
    ) -> "TenantRegistry":
        """Build a registry from config JSON, naming any offending field.

        Shape: ``{"tenants": {name: policy, ...}, "default": policy|null}``
        where a policy is ``{"epsilon_budget": ..., "delta_budget": ...,
        "on_overdraft": "raise"|"warn"}``.  Without ``"default"``, only
        the named tenants are admitted.
        """
        if not isinstance(payload, dict):
            raise ValueError(
                "tenants config must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        unknown = sorted(set(payload) - {"tenants", "default"})
        if unknown:
            raise ValueError(
                f"unknown tenants-config field(s) {unknown}; valid fields "
                "are ['default', 'tenants']"
            )
        tenants = payload.get("tenants", {})
        if not isinstance(tenants, dict):
            raise ValueError(
                f"field 'tenants' must be a JSON object, got {tenants!r}"
            )
        policies = {
            validate_tenant_name(name): TenantPolicy.from_dict(spec, tenant=name)
            for name, spec in tenants.items()
        }
        default = payload.get("default")
        default_policy = (
            None
            if default is None
            else TenantPolicy.from_dict(default, tenant="<default>")
        )
        return cls(
            backend, policies=policies, default_policy=default_policy, **kwargs
        )

    @classmethod
    def from_config_file(
        cls, path: Path | str, backend: StorageBackend | None = None, **kwargs
    ) -> "TenantRegistry":
        text = Path(path).read_text(encoding="utf-8")
        try:
            payload = json.loads(text)
        except ValueError as error:
            raise ValueError(
                f"tenants config {str(path)!r} is not valid JSON: {error}"
            ) from None
        return cls.from_config(payload, backend, **kwargs)
