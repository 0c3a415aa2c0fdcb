"""Declarative release requests.

A :class:`ReleaseRequest` is everything needed to publish one marginal:
which attributes, which mechanism (by registry name), the (α, ε, δ)
parameters, the privacy mode and budget style, and the Monte Carlo trial
settings.  Requests validate themselves up front — unknown mechanisms,
invalid modes, infeasible parameter combinations and guarantee-less
mechanism/mode pairings are rejected before any data is touched — and
execute through :meth:`repro.api.ReleaseSession.run`.

:meth:`ReleaseRequest.grid` expands a (mechanism × α × ε) product into a
request list for :meth:`repro.api.ReleaseSession.run_grid`, deriving a
distinct per-point seed from one base seed the way the figure runner
does (:func:`repro.engine.plan.grid_specs` derives the same seeds, which
is how Table 3's request units keep their historical streams).

:meth:`ReleaseRequest.to_dict` / :meth:`ReleaseRequest.from_dict` give
requests an exact JSON round-trip — the wire format of the release
service (``POST /v1/release``) and the CLI's ``--json`` paths.
``from_dict`` rejects malformed payloads with errors that *name the
offending field*, so a remote caller learns exactly which key to fix.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.api.registry import (
    BASELINE,
    CALIBRATED,
    COMPOSITE,
    MechanismSpec,
    mechanism_spec,
)
from repro.core.composition import (
    MARGINAL,
    SINGLE_QUERY,
    STRONG,
    WEAK,
    marginal_budget,
)
from repro.core.params import EREEParams
from repro.util import derive_seed


@dataclass(frozen=True)
class ReleaseRequest:
    """One declarative marginal-release request.

    ``mode=None`` resolves to the paper's pairing (strong for
    establishment-only marginals, weak when worker attributes are
    present).  ``n_trials=None`` releases a single noisy vector;
    ``n_trials=k`` draws a ``(k, n_cells)`` Monte Carlo matrix in one
    vectorized call.  ``label`` names the request in the ledger
    (defaults to ``"mechanism:attrs"``); it is the one field that does
    not change the released values.
    """

    attrs: tuple[str, ...]
    mechanism: str
    alpha: float
    epsilon: float
    delta: float = 0.0
    mode: str | None = None
    budget_style: str = MARGINAL
    n_trials: int | None = None
    seed: int | None = None
    mechanism_options: Mapping | None = None
    label: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "attrs", tuple(self.attrs))

    # -- derived --------------------------------------------------------

    @property
    def params(self) -> EREEParams:
        """The total (α, ε, δ) of the request (validates positivity)."""
        return EREEParams(self.alpha, self.epsilon, self.delta)

    @property
    def spec(self) -> MechanismSpec:
        """The registry entry (raises for unknown mechanism names)."""
        return mechanism_spec(self.mechanism)

    @property
    def ledger_label(self) -> str:
        if self.label is not None:
            return self.label
        return f"{self.mechanism}:{'x'.join(self.attrs)}"

    # -- JSON round-trip ------------------------------------------------

    def to_dict(self) -> dict:
        """A JSON-serializable payload that round-trips via :meth:`from_dict`.

        ``None``-valued optional fields are dropped, so the payload is
        canonical: two equal requests serialize to identical dicts (the
        property the release service's dedupe hashing relies on).
        """
        payload = {
            "attrs": list(self.attrs),
            "mechanism": self.mechanism,
            "alpha": self.alpha,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "budget_style": self.budget_style,
        }
        for name in ("mode", "n_trials", "seed", "label"):
            value = getattr(self, name)
            if value is not None:
                payload[name] = value
        if self.mechanism_options is not None:
            payload["mechanism_options"] = dict(self.mechanism_options)
        return payload

    @classmethod
    def from_dict(cls, payload) -> "ReleaseRequest":
        """Build a request from a JSON payload, naming any offending field.

        Every failure raises ``ValueError`` whose message states *which*
        field is wrong and why — the service and the CLI surface these
        verbatim, so remote callers can fix their payloads without
        reading this source.
        """
        if not isinstance(payload, Mapping):
            raise ValueError(
                "release request payload must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        known = {
            "attrs", "mechanism", "alpha", "epsilon", "delta", "mode",
            "budget_style", "n_trials", "seed", "mechanism_options",
            "label",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"unknown request field(s) {unknown}; valid fields are "
                f"{sorted(known)}"
            )
        attrs = payload.get("attrs")
        if (
            not isinstance(attrs, Sequence)
            or isinstance(attrs, (str, bytes))
            or not attrs
            or not all(isinstance(name, str) for name in attrs)
        ):
            raise ValueError(
                "field 'attrs' must be a non-empty list of attribute "
                f"names, got {attrs!r}"
            )
        mechanism = payload.get("mechanism")
        if not isinstance(mechanism, str) or not mechanism:
            raise ValueError(
                f"field 'mechanism' must be a mechanism name, got "
                f"{mechanism!r}"
            )
        kwargs = {"attrs": tuple(attrs), "mechanism": mechanism}
        for name, required in (("alpha", True), ("epsilon", True), ("delta", False)):
            if name not in payload:
                if required:
                    raise ValueError(f"field {name!r} is required")
                continue
            value = payload[name]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(
                    f"field {name!r} must be a number, got {value!r}"
                )
            kwargs[name] = float(value)
        for name in ("n_trials", "seed"):
            value = payload.get(name)
            if value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(
                    f"field {name!r} must be an integer, got {value!r}"
                )
            kwargs[name] = value
        for name in ("mode", "budget_style", "label"):
            value = payload.get(name)
            if value is None:
                continue
            if not isinstance(value, str):
                raise ValueError(
                    f"field {name!r} must be a string, got {value!r}"
                )
            kwargs[name] = value
        options = payload.get("mechanism_options")
        if options is not None:
            if not isinstance(options, Mapping):
                raise ValueError(
                    "field 'mechanism_options' must be a JSON object, got "
                    f"{options!r}"
                )
            kwargs["mechanism_options"] = dict(options)
        return cls(**kwargs)

    # -- validation -----------------------------------------------------

    def validate(self, schema=None, worker_attrs: Sequence[str] = ()) -> None:
        """Raise ``ValueError`` for any inconsistency, before touching data.

        With a ``schema`` the attribute names are checked against it; with
        ``worker_attrs`` the mode resolution, the mechanism/mode guarantee
        check (Theorem 8.1), and the exact per-cell feasibility check (the
        weak d·ε split can push the per-cell budget below a strict
        mechanism's constraint) run here instead of at execution.
        """
        if not self.attrs:
            raise ValueError("a release request needs at least one attribute")
        spec = self.spec  # raises with the choices listed for unknown names
        params = self.params  # raises for non-positive α/ε, bad δ
        if (
            spec.kind == CALIBRATED
            and spec.strict_feasibility
            and not spec.is_feasible(params)
        ):
            # Necessary condition even before the budget split: feasibility
            # is monotone in ε and per-cell ε never exceeds the total.
            raise ValueError(
                f"{self.mechanism} is infeasible at alpha={self.alpha}, "
                f"epsilon={self.epsilon}, delta={self.delta} (its hard "
                "parameter constraint fails); see "
                "repro.core.params for the feasibility rules"
            )
        if self.mode not in (None, STRONG, WEAK):
            raise ValueError(
                f"mode must be 'strong', 'weak' or None, got {self.mode!r}"
            )
        if self.budget_style not in (MARGINAL, SINGLE_QUERY):
            raise ValueError(
                f"budget_style must be {MARGINAL!r} or {SINGLE_QUERY!r}, "
                f"got {self.budget_style!r}"
            )
        if self.n_trials is not None and self.n_trials < 1:
            raise ValueError(f"n_trials must be >= 1, got {self.n_trials}")
        if spec.kind == BASELINE:
            options = dict(self.mechanism_options or {})
            if "theta" not in options:
                raise ValueError(
                    f"{self.mechanism} needs mechanism_options={{'theta': ...}} "
                    "(the truncation degree)"
                )
        if schema is not None:
            unknown = [name for name in self.attrs if name not in schema.names]
            if unknown:
                raise ValueError(
                    f"unknown attributes {unknown}; schema has "
                    f"{list(schema.names)}"
                )
        if worker_attrs:
            has_worker = any(name in worker_attrs for name in self.attrs)
            resolved = self.mode or (WEAK if has_worker else STRONG)
            if resolved == STRONG and has_worker and not spec.strong_worker_ok:
                raise ValueError(
                    f"{self.mechanism} has no strong-mode guarantee for "
                    "worker-attribute queries (Theorem 8.1 proves only the "
                    "weak variant); use a smooth mechanism for the strong "
                    "ablation"
                )
            if spec.kind == COMPOSITE and not has_worker:
                raise ValueError(
                    f"{self.mechanism} only applies to marginals with "
                    f"worker attributes; got {self.attrs}"
                )
            if (
                schema is not None
                and spec.kind == CALIBRATED
                and spec.strict_feasibility
            ):
                budget = marginal_budget(
                    self.params,
                    schema,
                    self.attrs,
                    worker_attrs,
                    resolved,
                    self.budget_style,
                )
                if not spec.is_feasible(budget.per_cell):
                    raise ValueError(
                        f"{self.mechanism} is infeasible per cell: the "
                        f"{resolved}-mode composition splits "
                        f"epsilon={self.epsilon} into "
                        f"{budget.per_cell.epsilon:g} per cell over "
                        f"d={budget.worker_domain} worker cells, below the "
                        "mechanism's hard constraint; raise epsilon or use "
                        "another mechanism"
                    )

    # -- grid expansion -------------------------------------------------

    @classmethod
    def grid(
        cls,
        attrs: Sequence[str],
        mechanisms: Sequence[str],
        alphas: Sequence[float],
        epsilons: Sequence[float],
        delta: float = 0.0,
        *,
        mode: str | None = None,
        budget_style: str = MARGINAL,
        n_trials: int | None = None,
        seed: int | None = None,
        tag: str = "grid",
        mechanism_options: Mapping | None = None,
    ) -> list["ReleaseRequest"]:
        """Expand a (mechanism × α × ε) product into a request list.

        Each point gets its own seed derived from ``seed`` and the point
        coordinates (matching the figure runner's convention), so the
        grid is reproducible yet the points' noise streams are
        decorrelated.
        """
        requests = []
        for mechanism in mechanisms:
            for alpha in alphas:
                for epsilon in epsilons:
                    point_seed = (
                        None
                        if seed is None
                        else derive_seed(seed, f"{tag}:{mechanism}:{alpha}:{epsilon}")
                    )
                    requests.append(
                        cls(
                            attrs=tuple(attrs),
                            mechanism=mechanism,
                            alpha=alpha,
                            epsilon=epsilon,
                            delta=delta,
                            mode=mode,
                            budget_style=budget_style,
                            n_trials=n_trials,
                            seed=point_seed,
                            mechanism_options=mechanism_options,
                        )
                    )
        return requests
