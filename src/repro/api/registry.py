"""The mechanism registry: one name → mechanism mapping for the library.

Every consumer (the release facade, figures, attacks, benchmarks, the
CLI) selects mechanisms by name through this registry instead of
hard-coded ``if/elif`` chains.  Mechanisms self-register with the
:func:`register_mechanism` class decorator::

    @register_mechanism("log-laplace", needs_xv=False)
    class LogLaplace:
        ...

Three kinds of entries coexist:

- ``CALIBRATED`` — per-cell (α, ε[, δ])-ER-EE mechanisms whose factory
  signature is ``factory(params: EREEParams, **options)`` and which
  expose ``release_counts``/``release_counts_batch`` (the paper's three
  algorithms);
- ``BASELINE`` — classical-DP baselines with their own parameters (the
  node-DP Truncated Laplace: ``factory(theta=..., epsilon=...)``);
- ``COMPOSITE`` — multi-stage release *procedures* built on top of the
  calibrated mechanisms (the weighted-split extension); these cannot be
  instantiated per cell and are executed through
  :meth:`repro.api.ReleaseSession.run` or their release function.

This module is intentionally a leaf: it imports nothing from the rest of
the library at module scope, so mechanism modules can import the
decorator without cycles.  The built-in mechanisms register lazily on
first lookup (:func:`_ensure_builtins`).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

CALIBRATED = "calibrated"
BASELINE = "baseline"
COMPOSITE = "composite"

_KINDS = (CALIBRATED, BASELINE, COMPOSITE)


@dataclass(frozen=True)
class MechanismSpec:
    """Registry metadata for one named mechanism.

    ``needs_xv`` says whether ``release_counts`` takes the per-cell
    smooth-sensitivity statistic; ``strong_worker_ok`` whether the
    mechanism carries a strong-mode guarantee for worker-attribute
    queries (Log-Laplace does not — Theorem 8.1 proves only the weak
    variant); ``feasible`` is an optional ``EREEParams -> bool``
    predicate for the (α, ε, δ) combinations the mechanism plots;
    ``strict_feasibility`` marks mechanisms whose *construction* rejects
    infeasible parameters (the smooth mechanisms' hard constraints, as
    opposed to Log-Laplace's merely-unplotted unbounded-mean region), so
    request validation can fail fast.

    ``unit_noise`` names the mechanism's unit-noise family (``"gamma4"``
    or ``"laplace"``) when its release factors as a data-independent unit
    draw transformed by (α, ε)-derived scalars — the property the fused
    sweep path exploits to share one ``(n_trials, n_cells)`` draw across
    every (α, ε) point of a (workload, mechanism) family.
    ``linear_unit_scale`` marks
    the subset whose transform is exactly ``counts + scale(ε) · Z``
    (Theorem 8.4 form), where per-cell |error| is ``scale(ε)·|Z|`` and L1
    metrics never need the noisy matrix at all.  ``None`` means not
    fusable (e.g. the node-DP baseline).
    """

    name: str
    factory: Callable
    kind: str = CALIBRATED
    needs_xv: bool = True
    strong_worker_ok: bool = True
    feasible: Callable | None = None
    strict_feasibility: bool = False
    description: str = ""
    unit_noise: str | None = None
    linear_unit_scale: bool = False

    def is_feasible(self, params) -> bool:
        """Whether the mechanism accepts these per-cell parameters."""
        return True if self.feasible is None else bool(self.feasible(params))

    def create(self, params, **options):
        """Instantiate the mechanism with per-cell parameters.

        Calibrated mechanisms get ``factory(params, **options)``; the
        Truncated-Laplace baseline maps ``params.epsilon`` plus a
        ``theta`` option onto its own signature; composite procedures
        have no per-cell instantiation and raise.
        """
        if self.kind == CALIBRATED:
            return self.factory(params, **options)
        if self.kind == BASELINE:
            return self.factory(epsilon=params.epsilon, **options)
        raise ValueError(
            f"mechanism {self.name!r} is a multi-stage release procedure, "
            "not a per-cell mechanism; run it through "
            "repro.api.ReleaseSession.run or call its release function "
            "directly"
        )


_REGISTRY: dict[str, MechanismSpec] = {}
_builtins_loaded = False


def register_mechanism(
    name: str,
    *,
    kind: str = CALIBRATED,
    needs_xv: bool = True,
    strong_worker_ok: bool = True,
    feasible: Callable | None = None,
    strict_feasibility: bool = False,
    description: str = "",
    unit_noise: str | None = None,
    linear_unit_scale: bool = False,
    replace: bool = False,
):
    """Class (or function) decorator registering a mechanism by name.

    Registering an already-taken name raises unless ``replace=True`` —
    silent shadowing of e.g. ``"smooth-laplace"`` would invalidate every
    privacy statement made about releases under that name.
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")

    def decorator(factory):
        if name in _REGISTRY and not replace:
            raise ValueError(
                f"mechanism {name!r} is already registered "
                f"(to {_REGISTRY[name].factory!r}); pass replace=True to "
                "override it deliberately"
            )
        _REGISTRY[name] = MechanismSpec(
            name=name,
            factory=factory,
            kind=kind,
            needs_xv=needs_xv,
            strong_worker_ok=strong_worker_ok,
            feasible=feasible,
            strict_feasibility=strict_feasibility,
            description=description,
            unit_noise=unit_noise,
            linear_unit_scale=linear_unit_scale,
        )
        return factory

    return decorator


def unregister_mechanism(name: str) -> None:
    """Remove a registration (primarily for tests of the registry itself)."""
    _REGISTRY.pop(name, None)


def _ensure_builtins() -> None:
    """Import the modules that register the built-in mechanisms.

    Registration happens as a side effect of importing each module (the
    decorator runs at class-definition time); importing here keeps the
    registry a leaf module while guaranteeing the built-ins are present
    before any lookup.
    """
    global _builtins_loaded
    if _builtins_loaded:
        return
    _builtins_loaded = True
    import repro.core.log_laplace  # noqa: F401
    import repro.core.smooth_gamma  # noqa: F401
    import repro.core.smooth_laplace  # noqa: F401
    import repro.dp.truncation  # noqa: F401
    import repro.extensions.weighted_split  # noqa: F401


def available_mechanisms(kind: str | None = None) -> tuple[str, ...]:
    """Sorted names of all registered mechanisms (optionally one kind)."""
    _ensure_builtins()
    names = (
        name
        for name, spec in _REGISTRY.items()
        if kind is None or spec.kind == kind
    )
    return tuple(sorted(names))


def mechanism_spec(name: str) -> MechanismSpec:
    """Look up a mechanism's registry entry by name."""
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        choices = ", ".join(repr(n) for n in sorted(_REGISTRY))
        raise ValueError(
            f"unknown mechanism {name!r}; choose from {choices}"
        ) from None


def create_mechanism(name: str, params, **options):
    """Instantiate a registered mechanism with per-cell parameters."""
    return mechanism_spec(name).create(params, **options)
