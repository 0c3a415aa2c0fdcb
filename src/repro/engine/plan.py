"""Sweep planning: flatten figure/table/grid requests into point specs.

A :class:`SweepPlan` is the declarative form of one Monte Carlo sweep —
a list of :class:`PointSpec`\\ s, each naming one (workload, mechanism,
α, ε[, θ], metric, trials) grid point plus the seed that drives its
noise stream.  Two properties make plans the unit of parallel and
resumable execution:

- **Order independence** — every point carries its own seed, derived via
  :func:`repro.util.derive_seed` from the base seed and the point's grid
  coordinates (the exact convention the figure generators have always
  used), so results are bit-identical no matter which driver runs the
  points or in what order.
- **Content addressing** — :meth:`PointSpec.key` hashes the snapshot
  fingerprint together with every field of the spec, so a
  :class:`~repro.engine.store.ResultStore` can recognize an
  already-computed point across processes and invocations.  What is
  not a field cannot change the value: which driver runs the point, on
  how many workers, and in what order.

:func:`work_units` splits a plan into the tasks the sweep engine runs:
one per point by default, or — fused — one per :class:`FusedFamily`
(every (α, ε) point of one mechanism, served by a single unit-noise
draw) plus one per point no family can take.  A caller may build its
own units instead: Table 3 drains one *request* unit per row — a
:class:`~repro.api.request.ReleaseRequest` whose one release yields the
row's L1-ratio and Spearman points.  Each unit kind stores under its
own key space: a point unit under :meth:`PointSpec.key`, a family
member under :meth:`FusedFamily.member_key`, which adds the family
token, and a request member under the plain content plus a ``release``
marker (the request's attrs, mode and budget style), so a release's
values never pass for a point kernel's.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from repro.core.release import DEFAULT_WORKER_ATTRS
from repro.engine.store import content_key
from repro.util import derive_seed

if TYPE_CHECKING:  # the api layer imports this package at load time
    from repro.api.request import ReleaseRequest

TRUNCATED_LAPLACE = "truncated-laplace"

METRICS = ("l1-ratio", "spearman")

# One row per published figure: (workload name, metric, epsilon grid,
# seed-derivation tag, title).  The tags and titles must stay identical
# to the historical repro.experiments.figures values — the tag feeds the
# per-point seed derivation, so changing it would silently change every
# regenerated figure.
FIGURE_DEFS: dict[str, tuple[str, str, str, str, str]] = {
    "figure-1": (
        "workload-1",
        "l1-ratio",
        "standard",
        "fig1",
        "L1 Error Ratio - Place x Industry x Ownership "
        "(No Worker Attributes)",
    ),
    "figure-2": (
        "workload-1",
        "spearman",
        "standard",
        "fig2",
        "Ranking Correlation of Employment Counts - "
        "Place x Industry x Ownership",
    ),
    "figure-3": (
        "workload-2",
        "l1-ratio",
        "standard",
        "fig3",
        "L1 Error Ratio - Average L1 for a Single (Sex x Education) "
        "Query on the Workplace Marginal",
    ),
    "figure-4": (
        "workload-3",
        "l1-ratio",
        "extended",
        "fig4",
        "L1 Error Ratio - Average L1 for All (Sex x Education) "
        "Queries on the Workplace Marginal",
    ),
    "figure-5": (
        "females-college",
        "spearman",
        "standard",
        "fig5",
        "Ranking Correlation of Employment Counts - Females with "
        "College Degrees",
    ),
}

FINDING6_TITLE = "Truncated Laplace (node DP) on Workload 1, by theta"

FIGURE_NAMES: tuple[str, ...] = tuple(FIGURE_DEFS) + ("finding-6",)


def snapshot_fingerprint(
    config,
    worker_attrs: Sequence[str] = DEFAULT_WORKER_ATTRS,
    *,
    dataset_token: str | None = None,
) -> str:
    """A stable hex digest of everything that shapes the session snapshot.

    Two sessions with equal fingerprints hold bit-identical datasets,
    SDL baselines and workload statistics (generation and the SDL fit
    are fully seeded), so their sweep results are interchangeable — this
    is the cache-key prefix that scopes every stored point to its
    snapshot.  ``config`` is an :class:`~repro.experiments.config.ExperimentConfig`
    (duck-typed: only ``data``, ``sdl`` and ``seed`` are read).

    Sessions wrapping an explicitly *provided* dataset (not generated
    from ``config.data``) must pass a ``dataset_token`` content hash —
    :attr:`repro.api.ReleaseSession.snapshot_fingerprint` does — so
    their cached points never collide with config-generated ones.
    """
    payload = {
        "data": asdict(config.data),
        "sdl": asdict(config.sdl),
        "seed": config.seed,
        "worker_attrs": list(worker_attrs),
    }
    if dataset_token is not None:
        payload["dataset_token"] = dataset_token
    return content_key(payload, length=16)


@dataclass(frozen=True)
class PointSpec:
    """One grid point of a sweep, fully determined and content-hashable.

    ``mechanism == "truncated-laplace"`` points carry ``theta`` and no
    ``alpha`` (node DP has no α); calibrated points carry (α, ε, δ).
    Every field sets the point's value, so every field is in
    :meth:`content`.
    """

    workload: str
    mechanism: str
    metric: str
    epsilon: float
    alpha: float | None = None
    delta: float = 0.0
    theta: int | None = None
    n_trials: int = 1
    seed: int | None = None

    def __post_init__(self):
        if self.metric not in METRICS:
            raise ValueError(
                f"metric must be one of {METRICS}, got {self.metric!r}"
            )
        if self.mechanism == TRUNCATED_LAPLACE:
            if self.theta is None:
                raise ValueError("truncated-laplace points need theta")
        elif self.alpha is None:
            raise ValueError(
                f"calibrated point ({self.mechanism}) needs alpha"
            )
        if self.n_trials < 1:
            raise ValueError(f"n_trials must be >= 1, got {self.n_trials}")

    def content(self, fingerprint: str) -> dict:
        """The canonical value-determining payload (feeds :meth:`key`)."""
        return {
            "fingerprint": fingerprint,
            "workload": self.workload,
            "mechanism": self.mechanism,
            "metric": self.metric,
            "alpha": self.alpha,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "theta": self.theta,
            "n_trials": self.n_trials,
            "seed": self.seed,
        }

    def key(self, fingerprint: str) -> str:
        """Content-address of this point under the given snapshot."""
        return content_key(self.content(fingerprint))

    @property
    def label(self) -> str:
        """A short human-readable coordinate string (logs and reports)."""
        knob = (
            f"theta={self.theta}"
            if self.mechanism == TRUNCATED_LAPLACE
            else f"alpha={self.alpha}"
        )
        return f"{self.workload}:{self.mechanism}:{knob}:eps={self.epsilon}"


@dataclass(frozen=True)
class SweepPlan:
    """A named, fingerprinted list of point specs ready for execution."""

    name: str
    metric: str
    fingerprint: str
    points: tuple[PointSpec, ...]
    title: str = ""

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[PointSpec]:
        return iter(self.points)

    def keys(self) -> list[str]:
        """Content-addresses of all points, in plan order."""
        return [spec.key(self.fingerprint) for spec in self.points]


@dataclass(frozen=True)
class FusedFamily:
    """One (workload, mechanism) bucket of a plan's α×ε points.

    The fused evaluation path (``run_plan(fused=True)``) shares noise
    across the grid: Theorem 8.4 releases are ``q(x) + S(x,α)/a(ε) · Z``
    with the unit noise ``Z`` independent of *both* α and ε — α lives
    only in the smooth-sensitivity envelope ``max(xv·α, 1)`` — so
    **one** unit draw serves the whole α×ε sub-grid of a mechanism.  A
    member's value depends on the family draw, hence on the family
    composition: :func:`fused_families` derives ``family_seed`` from the
    first member's seed and the full (α, ε) member list, and
    :meth:`member_key` embeds the seed and the members into the
    member's content address.  Family results therefore never collide
    with the default per-point keys.

    The unit draw depends only on ``(family_seed, n_trials, n_cells)``
    — not on which members are reduced from it — so a resumed family
    can recompute exactly its missing members and reproduce the original
    run's values bit-for-bit.

    ``indices`` are positions into the owning plan's ``points``, in plan
    order; ``alphas``, ``epsilons`` and ``metrics`` align with them.
    :func:`fused_families` buckets by metric, so its families hold one
    metric; Table 3's hold both metrics of each (α, ε) member, reduced
    from the same draw.
    """

    workload: str
    mechanism: str
    metrics: tuple[str, ...]
    delta: float
    n_trials: int
    indices: tuple[int, ...]
    alphas: tuple[float, ...]
    epsilons: tuple[float, ...]
    family_seed: int | None

    @property
    def members(self) -> tuple[tuple[float, float], ...]:
        """The (α, ε) coordinate of every member, aligned with ``indices``."""
        return tuple(zip(self.alphas, self.epsilons))

    @property
    def label(self) -> str:
        return (
            f"{self.workload}:{self.mechanism}:family["
            f"{len(self.indices)} members]"
        )

    def _family_token(self) -> dict:
        return {
            "family_seed": self.family_seed,
            "members": [[a, e] for a, e in self.members],
        }

    def member_key(self, spec: PointSpec, fingerprint: str) -> str:
        """Content-address of one member point under family evaluation."""
        return content_key(self.member_content(spec, fingerprint))

    def member_content(self, spec: PointSpec, fingerprint: str) -> dict:
        payload = spec.content(fingerprint)
        payload["family"] = self._family_token()
        return payload


def _mechanism_unit_noise(name: str) -> str | None:
    """The registry's unit-noise family tag, or None for unknown names.

    Imported lazily: the registry sits in the api layer, which imports
    this engine package at session-module load.
    """
    from repro.api.registry import mechanism_spec

    try:
        spec = mechanism_spec(name)
    except (KeyError, ValueError):
        return None
    return getattr(spec, "unit_noise", None)


def fused_families(plan: SweepPlan) -> tuple[list[FusedFamily], list[int]]:
    """Bucket a plan's fusable points into whole α×ε families.

    The bucket key leaves out α and ε, so every (α, ε) point of one
    (workload, mechanism, metric, trials, δ) combination shares a
    single unit draw.  Returns ``(families, leftover)``: every plan
    index lands in exactly one family's ``indices`` or in ``leftover``
    (truncated-laplace points and mechanisms without a unit-noise
    family evaluate per point even when fused).  Bucketing is
    deterministic — buckets in first-member plan order, members in plan
    order within a bucket — so family seeds and member keys are stable
    across runs.
    """
    buckets: dict[tuple, list[int]] = {}
    leftover: list[int] = []
    for index, spec in enumerate(plan.points):
        if (
            spec.mechanism == TRUNCATED_LAPLACE
            or _mechanism_unit_noise(spec.mechanism) is None
        ):
            leftover.append(index)
            continue
        bucket = (
            spec.workload,
            spec.mechanism,
            spec.metric,
            spec.n_trials,
            spec.delta,
        )
        buckets.setdefault(bucket, []).append(index)

    families = []
    for bucket, indices in buckets.items():
        workload, mechanism, metric, n_trials, delta = bucket
        alphas = tuple(plan.points[i].alpha for i in indices)
        epsilons = tuple(plan.points[i].epsilon for i in indices)
        first_seed = plan.points[indices[0]].seed
        family_seed = (
            None
            if first_seed is None
            else derive_seed(
                first_seed,
                "family:{}:{}".format(
                    mechanism,
                    ",".join(
                        f"{a!r}@{e!r}" for a, e in zip(alphas, epsilons)
                    ),
                ),
            )
        )
        families.append(
            FusedFamily(
                workload=workload,
                mechanism=mechanism,
                metrics=(metric,) * len(indices),
                delta=delta,
                n_trials=n_trials,
                indices=tuple(indices),
                alphas=alphas,
                epsilons=epsilons,
                family_seed=family_seed,
            )
        )
    return families, leftover


@dataclass(frozen=True)
class WorkUnit:
    """One task of a sweep: a lone point, one fused family, or one release.

    A point unit holds its :class:`PointSpec` and stores under the
    plain key; a family unit holds its :class:`FusedFamily` and stores
    under the family member keys.  A request unit holds a
    :class:`~repro.api.request.ReleaseRequest` and covers two plan
    points, the release's L1 ratio and then its Spearman ρ; its members
    store under the plain content plus the ``release`` marker.
    ``indices`` are the plan positions the unit covers, in plan order,
    and ``mask`` marks which of them still need computing — a resumed
    family reduces only its missing members, bit-identical to the full
    run because the family's unit draw never depends on the mask, and a
    resumed request reruns its seeded release.
    """

    indices: tuple[int, ...]
    mask: tuple[bool, ...]
    spec: PointSpec | None = None
    family: FusedFamily | None = None
    request: ReleaseRequest | None = None

    def member_content(self, plan: SweepPlan, index: int) -> dict:
        """The value-determining payload of member ``index`` (a plan position)."""
        spec = plan.points[index]
        if self.family is not None:
            return self.family.member_content(spec, plan.fingerprint)
        payload = spec.content(plan.fingerprint)
        if self.request is not None:
            payload["release"] = {
                "attrs": list(self.request.attrs),
                "mode": self.request.mode,
                "budget_style": self.request.budget_style,
            }
        return payload

    def member_key(self, plan: SweepPlan, index: int) -> str:
        """Content-address of member ``index`` in the result store."""
        return content_key(self.member_content(plan, index))


def work_units(plan: SweepPlan, fused: bool = False) -> list[WorkUnit]:
    """Split a plan into work units, in first-member plan order.

    Unfused, every point is its own unit.  Fused, every
    :func:`fused_families` family is one unit and each leftover point
    stays a unit of its own (its value is identical either way, so it
    keeps its plain key and stays shareable with unfused runs).
    """
    if not fused:
        return [
            WorkUnit((index,), (True,), spec=spec)
            for index, spec in enumerate(plan.points)
        ]
    families, leftover = fused_families(plan)
    units = [
        WorkUnit(family.indices, (True,) * len(family.indices), family=family)
        for family in families
    ]
    units += [
        WorkUnit((index,), (True,), spec=plan.points[index])
        for index in leftover
    ]
    return sorted(units, key=lambda unit: unit.indices[0])


def grid_specs(
    workload: str,
    metric: str,
    mechanisms: Sequence[str],
    alphas: Sequence[float],
    epsilons: Sequence[float],
    *,
    delta: float = 0.0,
    n_trials: int = 1,
    seed: int | None = None,
    tag: str = "grid",
) -> list[PointSpec]:
    """Flatten a (mechanism × α × ε) product into point specs.

    Per-point seeds follow the figure-generator convention
    (``derive_seed(seed, f"{tag}:{mechanism}:{alpha}:{epsilon}")``), so a
    grid plan over the same tag reproduces the historical figures
    bit-for-bit.
    """
    specs = []
    for mechanism in mechanisms:
        for alpha in alphas:
            for epsilon in epsilons:
                point_seed = (
                    None
                    if seed is None
                    else derive_seed(seed, f"{tag}:{mechanism}:{alpha}:{epsilon}")
                )
                specs.append(
                    PointSpec(
                        workload=workload,
                        mechanism=mechanism,
                        metric=metric,
                        alpha=alpha,
                        epsilon=epsilon,
                        delta=delta,
                        n_trials=n_trials,
                        seed=point_seed,
                    )
                )
    return specs


def grid_plan(
    workload: str,
    metric: str,
    mechanisms: Sequence[str],
    alphas: Sequence[float],
    epsilons: Sequence[float],
    *,
    fingerprint: str,
    delta: float = 0.0,
    n_trials: int = 1,
    seed: int | None = None,
    tag: str = "grid",
    name: str | None = None,
    title: str = "",
) -> SweepPlan:
    """A :class:`SweepPlan` for an ad-hoc (mechanism × α × ε) grid."""
    specs = grid_specs(
        workload,
        metric,
        mechanisms,
        alphas,
        epsilons,
        delta=delta,
        n_trials=n_trials,
        seed=seed,
        tag=tag,
    )
    return SweepPlan(
        name=name or tag,
        metric=metric,
        fingerprint=fingerprint,
        points=tuple(specs),
        title=title or f"Sweep {tag}: {workload} ({metric})",
    )


def figure_plan(
    name: str,
    config,
    *,
    fingerprint: str | None = None,
    seed: int | None = None,
    metric: str | None = None,
) -> SweepPlan:
    """The sweep plan behind one published figure (or Finding 6).

    ``config`` supplies the grids and trial count (an
    :class:`~repro.experiments.config.ExperimentConfig`); ``seed``
    overrides the seed base (the figure generators pass the *session's*
    seed, which can differ from a grid-override config); ``metric``
    applies to ``finding-6`` only, which the paper reports under either
    metric.
    """
    seed_base = config.seed if seed is None else seed
    if fingerprint is None:
        fingerprint = snapshot_fingerprint(config)

    if name == "finding-6":
        chosen = metric or "l1-ratio"
        specs = [
            PointSpec(
                workload="workload-1",
                mechanism=TRUNCATED_LAPLACE,
                metric=chosen,
                epsilon=epsilon,
                theta=theta,
                n_trials=config.n_trials,
                seed=derive_seed(seed_base, f"finding6:{theta}:{epsilon}"),
            )
            for theta in config.thetas
            for epsilon in config.epsilons_standard
        ]
        return SweepPlan(
            name=name,
            metric=chosen,
            fingerprint=fingerprint,
            points=tuple(specs),
            title=FINDING6_TITLE,
        )

    try:
        workload, fig_metric, eps_grid, tag, title = FIGURE_DEFS[name]
    except KeyError:
        raise ValueError(
            f"unknown figure {name!r}; choose from {sorted(FIGURE_NAMES)}"
        ) from None
    # Imported here, not at module scope: repro.experiments imports the
    # session layer, which imports this engine package.
    from repro.experiments.config import MECHANISM_NAMES

    epsilons = (
        config.epsilons_extended
        if eps_grid == "extended"
        else config.epsilons_standard
    )
    specs = grid_specs(
        workload,
        fig_metric,
        MECHANISM_NAMES,
        config.alphas,
        epsilons,
        delta=config.delta,
        n_trials=config.n_trials,
        seed=seed_base,
        tag=tag,
    )
    return SweepPlan(
        name=name,
        metric=fig_metric,
        fingerprint=fingerprint,
        points=tuple(specs),
        title=title,
    )
