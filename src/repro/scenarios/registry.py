"""The scenario registry: one name → synthetic-economy mapping.

A *scenario* is a named :class:`~repro.data.generator.SyntheticConfig`
factory describing an economy shape worth measuring — the paper-default
three-state sample, a national-scale million-job economy, a metro-heavy
or sparse-rural geography, an extreme establishment-size skew.  Every
consumer (the release session, the CLI, benchmarks, CI) selects
scenarios by name through this registry, exactly as mechanisms are
selected through :mod:`repro.api.registry`::

    @register_scenario("heavy-skew", tags=("skew",))
    def heavy_skew() -> SyntheticConfig:
        \"\"\"One-line description shown by ``repro scenarios list``.\"\"\"
        return SyntheticConfig(...)

The factory's docstring doubles as the scenario's description (override
with ``description=``).  Scenario names feed snapshot fingerprints only
indirectly — the fingerprint hashes the *config* the factory returns, so
renaming a scenario never orphans a stored snapshot.

This module is intentionally a leaf: it imports only the data layer, so
the library (and user code) can register scenarios without cycles.  The
built-in library registers lazily on first lookup.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.data.generator import SyntheticConfig

__all__ = [
    "ScenarioSpec",
    "register_scenario",
    "unregister_scenario",
    "available_scenarios",
    "scenario_spec",
    "scenario_config",
]


@dataclass(frozen=True)
class ScenarioSpec:
    """Registry metadata for one named scenario.

    ``factory`` is a zero-argument callable returning the scenario's
    :class:`SyntheticConfig`; ``description`` is the one-line summary
    shown by ``repro scenarios list``; ``tags`` support coarse filtering
    (``"national"``, ``"skew"``, ``"panel"`` ...).
    """

    name: str
    factory: Callable[[], SyntheticConfig]
    description: str = ""
    tags: tuple[str, ...] = field(default=())

    def config(self) -> SyntheticConfig:
        """Build the scenario's synthetic-economy configuration."""
        config = self.factory()
        if not isinstance(config, SyntheticConfig):
            raise TypeError(
                f"scenario {self.name!r} factory returned "
                f"{type(config).__name__}, expected SyntheticConfig"
            )
        return config

    def build(
        self,
        store,
        *,
        workers: int | None = None,
        overwrite: bool = False,
    ):
        """Persist this scenario's snapshot into ``store``; returns its path.

        Goes through the store's one writer,
        :meth:`~repro.scenarios.store.SnapshotStore.build`: ``workers >
        1`` fans the workforce chunks out to a process pool, and the
        installed directory is byte-identical either way.  An existing
        loadable snapshot is kept unless ``overwrite=True``.
        """
        return store.build(self.config(), workers=workers, overwrite=overwrite)


_REGISTRY: dict[str, ScenarioSpec] = {}
_builtins_loaded = False


def register_scenario(
    name: str,
    *,
    description: str = "",
    tags: tuple[str, ...] = (),
    replace: bool = False,
):
    """Function decorator registering a scenario factory by name.

    Registering an already-taken name raises unless ``replace=True`` —
    silently shadowing e.g. ``"paper-default"`` would change what every
    figure regenerated under that name measures.  Without an explicit
    ``description`` the factory docstring's first line is used.
    """

    def decorator(factory):
        if name in _REGISTRY and not replace:
            raise ValueError(
                f"scenario {name!r} is already registered "
                f"(to {_REGISTRY[name].factory!r}); pass replace=True to "
                "override it deliberately"
            )
        doc = (factory.__doc__ or "").strip().splitlines()
        _REGISTRY[name] = ScenarioSpec(
            name=name,
            factory=factory,
            description=description or (doc[0] if doc else ""),
            tags=tuple(tags),
        )
        return factory

    return decorator


def unregister_scenario(name: str) -> None:
    """Remove a registration (primarily for tests of the registry itself)."""
    _REGISTRY.pop(name, None)


def _ensure_builtins() -> None:
    """Import the module that registers the built-in scenario library."""
    global _builtins_loaded
    if _builtins_loaded:
        return
    _builtins_loaded = True
    import repro.scenarios.library  # noqa: F401


def available_scenarios(tag: str | None = None) -> tuple[str, ...]:
    """Sorted names of all registered scenarios (optionally one tag)."""
    _ensure_builtins()
    names = (
        name
        for name, spec in _REGISTRY.items()
        if tag is None or tag in spec.tags
    )
    return tuple(sorted(names))


def scenario_spec(name: str) -> ScenarioSpec:
    """Look a scenario's registry entry up by name."""
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        choices = ", ".join(repr(n) for n in sorted(_REGISTRY))
        raise ValueError(
            f"unknown scenario {name!r}; choose from {choices}"
        ) from None


def scenario_config(name: str) -> SyntheticConfig:
    """The :class:`SyntheticConfig` a named scenario generates from."""
    return scenario_spec(name).config()
