"""Command-line interface: regenerate the paper's artifacts from a shell.

Subcommands:

- ``figures`` — run the figure experiments and write one text report per
  figure (the data series the published plots encode);
- ``tables``  — write Tables 1 and 2 plus the empirical session summary
  (Table 3), sharing one snapshot across the whole invocation;
- ``sweep``   — run an ad-hoc (mechanism × α × ε) grid on any workload
  through the sweep engine and write the series as text + JSON;
- ``release`` — execute a single declarative release request and print
  the noisy marginal plus the privacy-ledger state (``--json`` emits the
  machine-readable result instead — the same payload the service serves);
- ``serve``   — run the long-lived multi-tenant DP release service
  (:mod:`repro.serve`): warm sessions per scenario, durable per-tenant
  spend journals under ``--ledger-dir``, content-addressed dedupe
  through the result store, graceful SIGINT/SIGTERM drain;
- ``generate`` — generate a synthetic LODES snapshot and save it as CSV;
- ``scenarios`` — list the registered scenario library, build a named
  scenario's snapshot into the persistent store (``--workers N`` shards
  the build over a process pool, byte-identically), inspect one, or
  prune staging directories left by crashed builds.

Every data-touching command builds one :class:`repro.api.ReleaseSession`
per invocation: the snapshot is generated once, the SDL baseline fitted
once, and all requests reuse the cached trial-invariant statistics.

``figures``/``tables``/``sweep`` take ``--scenario NAME`` to run against
a registered economy from :mod:`repro.scenarios` instead of the ad-hoc
``--jobs`` config (outputs then land in ``OUT/NAME/``), and they open
their snapshot through the persistent :class:`~repro.scenarios.SnapshotStore`
under ``--snapshot-dir`` (default ``reports/snapshots``): the first run
generates and persists the economy, every later run — and every process
worker of this run — memory-maps the stored artifact instead of
regenerating it.  ``--no-snapshots`` restores in-process generation.

``figures``, ``tables`` and ``sweep`` submit their grids to the sweep
engine (:mod:`repro.engine`): ``--workers N`` fans the grid over a
worker pool (``--executor thread|process|serial`` picks the pool kind;
results are bit-identical to serial), every computed point is written to
the content-addressed result store under ``--cache-dir`` (default
``reports/cache``), ``--resume`` replays completed points from the store
instead of recomputing them, and ``--no-cache`` disables the store
entirely.
"""

from __future__ import annotations

import argparse
import json
import math
from pathlib import Path

from repro.api.registry import available_mechanisms
from repro.api.request import ReleaseRequest
from repro.api.session import ReleaseSession
from repro.data.generator import SyntheticConfig, generate
from repro.data.io import save_dataset
from repro.dp.composition import PrivacyBudgetExceeded
from repro.engine.plan import METRICS, grid_plan
from repro.engine.store import DEFAULT_CACHE_DIR, ResultStore
from repro.engine.sweep import encode_point, run_plan
from repro.experiments.config import MECHANISM_NAMES, ExperimentConfig
from repro.experiments.figures import (
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    finding6,
)
from repro.experiments.report import render_figure
from repro.experiments.tables import table1_text, table2_text, table3_text
from repro.data.panel import PanelConfig
from repro.runtime.drivers import DRIVER_NAMES, resolve_driver
from repro.scenarios import (
    DEFAULT_SNAPSHOT_DIR,
    SnapshotStore,
    available_scenarios,
    dataset_fingerprint,
    panel_fingerprint,
    scenario_spec,
)
from repro.storage import StoreStats, backend_from_url
from repro.util import format_table

FIGURES = {
    "figure-1": figure1,
    "figure-2": figure2,
    "figure-3": figure3,
    "figure-4": figure4,
    "figure-5": figure5,
    "finding-6": finding6,
}

EPILOG = """\
examples:
  repro figures --out reports --jobs 150000 --trials 10
  repro figures --only figure-1,finding-6 --workers 4 --executor process
  repro figures --resume                  # recompute only missing points
  repro figures --scenario metro-heavy --workers 4 --executor process --resume
  repro tables  --out reports --jobs 20000 --trials 5 --workers 2
  repro sweep   --workload workload-1 --metric l1-ratio \\
                --alphas 0.05,0.1 --epsilons 0.5,1,2 --workers 4 --resume
  repro sweep   --scenario sparse-rural --alphas 0.1 --epsilons 1,2
  repro release --attrs place,naics --mechanism smooth-laplace \\
                --alpha 0.1 --epsilon 2 --delta 0.05 --budget 4
  repro release --attrs place,naics --alpha 0.1 --epsilon 2 --json
  repro serve --scenario paper-default --port 8200   # DP release service
  repro serve --port 0 --tenants-config tenants.json # ephemeral port on stdout
  repro generate --jobs 60000 --out snapshot/
  repro scenarios list                    # the registered economy library
  repro scenarios build national-1m       # persist a snapshot to the store
  repro scenarios build national-1m --workers 4   # sharded, byte-identical
  repro scenarios build panel-5yr --panel --years 5  # resumable panel build
  repro scenarios info metro-heavy
  repro scenarios prune                   # clear stale staging dirs (--all: every one)
  repro storage stats                     # store inventory + unified stats
  repro storage serve --root /srv/bucket  # HTTP object store for a fleet
  repro sweep --scenario metro-heavy --store-url file:///shared/bucket --resume

sweep engine (figures / tables / sweep):
  --workers N      parallel grid evaluation (bit-identical to serial)
  --executor KIND  serial | thread | process (default: process when N>1)
  --resume         replay completed points from the result store
  --no-cache       do not read or write the result store
  --cache-dir DIR  content-addressed store location (default reports/cache)

snapshot store (figures / tables / sweep / scenarios):
  --scenario NAME    run against a registered economy (repro scenarios list)
  --snapshot-dir DIR persistent snapshot store (default reports/snapshots);
                     runs and process workers mmap the stored economy
  --no-snapshots     regenerate in-process, do not touch the store
  --workers N        a snapshot miss builds sharded over N processes
                     (scenarios build; figures/tables/sweep reuse their
                     executor worker count for the build, bit-identically)

storage backends (figures / tables / sweep / scenarios):
  --store-url URL  share snapshots and results across machines through a
                   remote object store: file:///dir (shared filesystem)
                   or http(s)://host:port (see `repro storage serve`).
                   --snapshot-dir / --cache-dir become the local download
                   caches; writes mirror through, reads download-then-mmap
"""


def _version() -> str:
    """The installed package version, falling back to the source tree's."""
    try:
        from importlib.metadata import version

        return version("repro-eree")
    except Exception:
        import repro

        return getattr(repro, "__version__", "unknown")


def _add_session_arguments(
    parser, jobs_default: int, trials_default: int, scenario: bool = False
):
    parser.add_argument("--jobs", type=int, default=jobs_default)
    parser.add_argument("--trials", type=int, default=trials_default)
    parser.add_argument("--seed", type=int, default=2017)
    if scenario:
        parser.add_argument(
            "--scenario",
            default=None,
            metavar="NAME",
            help="run against a registered scenario economy instead of "
            "--jobs (see `repro scenarios list`); outputs go to OUT/NAME/",
        )


def _add_engine_arguments(parser):
    """The sweep-engine knobs shared by figures/tables/sweep."""
    parser.add_argument(
        "--snapshot-dir",
        type=Path,
        default=DEFAULT_SNAPSHOT_DIR,
        metavar="DIR",
        help="persistent snapshot store location; runs and process "
        f"workers mmap the stored economy (default {DEFAULT_SNAPSHOT_DIR})",
    )
    parser.add_argument(
        "--no-snapshots",
        action="store_true",
        help="generate the snapshot in-process, bypassing the store",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="evaluate grid points on N parallel workers "
        "(bit-identical results to serial execution; default: serial, "
        "or an auto-sized pool when --executor names one)",
    )
    parser.add_argument(
        "--executor",
        choices=DRIVER_NAMES,
        default=None,
        help="worker pool kind (default: process when --workers > 1)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="replay already-computed points from the result store; "
        "only missing points are recomputed",
    )
    parser.add_argument(
        "--fused",
        nargs="?",
        const="family",
        default=False,
        choices=("family",),
        help="share unit-noise draws across the grid: one draw per "
        "mechanism's whole alpha x epsilon grid ('family', also what "
        "the bare flag means; statistically equivalent to per-point "
        "evaluation, different RNG streams, cached under distinct keys)",
    )
    parser.add_argument(
        "--claim",
        action="store_true",
        help="coordinate with other drains of the same plan through "
        "lease files on the result store: each missing point is "
        "claimed before it is computed, so N concurrent processes "
        "(or machines, via --store-url) partition the grid instead "
        "of each computing all of it; implies --resume and "
        "requires the result store",
    )
    parser.add_argument(
        "--claim-ttl",
        type=_positive_seconds,
        default=None,
        metavar="SECONDS",
        help="lease time-to-live for --claim; a claim whose owner "
        "crashed is taken over by another drain after this long "
        "(default 300)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="do not read or write the result store",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=DEFAULT_CACHE_DIR,
        metavar="DIR",
        help="content-addressed result store location "
        f"(default {DEFAULT_CACHE_DIR})",
    )
    _add_store_url_argument(parser)


def _add_store_url_argument(parser):
    parser.add_argument(
        "--store-url",
        default=None,
        metavar="URL",
        help="share stores through a remote object backend "
        "(file:///dir or http(s)://host:port); --snapshot-dir and "
        "--cache-dir become the local download caches",
    )


def _parse_values(text: str, cast) -> tuple:
    return tuple(cast(part.strip()) for part in text.split(",") if part.strip())


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_seconds(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number of seconds > 0, got {text}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Haney et al., SIGMOD 2017 "
        "(formal privacy for employer-employee statistics)",
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_version()}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    figures = subparsers.add_parser(
        "figures", help="regenerate the evaluation figures as data series"
    )
    figures.add_argument("--out", type=Path, default=Path("reports"))
    _add_session_arguments(
        figures, jobs_default=150_000, trials_default=10, scenario=True
    )
    figures.add_argument(
        "--only",
        default=None,
        help="comma-separated subset, e.g. figure-1,finding-6",
    )
    _add_engine_arguments(figures)

    tables = subparsers.add_parser(
        "tables",
        help="regenerate Tables 1 and 2 plus the session summary (Table 3)",
    )
    tables.add_argument("--out", type=Path, default=Path("reports"))
    _add_session_arguments(
        tables, jobs_default=20_000, trials_default=3, scenario=True
    )
    _add_engine_arguments(tables)

    sweep = subparsers.add_parser(
        "sweep",
        help="run an ad-hoc (mechanism x alpha x epsilon) grid through "
        "the sweep engine",
    )
    sweep.add_argument("--out", type=Path, default=Path("reports"))
    sweep.add_argument(
        "--workload",
        default="workload-1",
        help="workload name (workload-1/2/3 or females-college)",
    )
    sweep.add_argument("--metric", choices=METRICS, default="l1-ratio")
    sweep.add_argument(
        "--mechanisms",
        default=",".join(MECHANISM_NAMES),
        help="comma-separated mechanism names",
    )
    sweep.add_argument("--alphas", default="0.05,0.1,0.2")
    sweep.add_argument("--epsilons", default="0.5,1,2,4")
    sweep.add_argument("--delta", type=float, default=0.05)
    sweep.add_argument(
        "--tag",
        default="sweep",
        help="names the output files and seeds the per-point streams",
    )
    sweep.add_argument(
        "--profile",
        action="store_true",
        help="record a per-stage wall-clock breakdown (draw/reduce/store) "
        "in the JSON output",
    )
    _add_session_arguments(
        sweep, jobs_default=20_000, trials_default=5, scenario=True
    )
    _add_engine_arguments(sweep)

    release = subparsers.add_parser(
        "release",
        help="execute one declarative release request and print the "
        "noisy marginal plus the ledger state",
    )
    release.add_argument(
        "--attrs",
        default="place,naics,ownership",
        help="comma-separated marginal attributes",
    )
    release.add_argument(
        "--mechanism",
        default="smooth-laplace",
        help=f"one of: {', '.join(available_mechanisms())}",
    )
    release.add_argument("--alpha", type=float, default=0.1)
    release.add_argument("--epsilon", type=float, default=2.0)
    release.add_argument("--delta", type=float, default=0.05)
    release.add_argument(
        "--mode",
        choices=("strong", "weak"),
        default=None,
        help="privacy mode (default: the paper's pairing by attributes)",
    )
    release.add_argument(
        "--theta",
        type=int,
        default=None,
        help="truncation degree (truncated-laplace only)",
    )
    release.add_argument(
        "--budget",
        type=float,
        default=None,
        metavar="EPS",
        help="arm the privacy ledger with a total epsilon budget",
    )
    release.add_argument("--top", type=_non_negative_int, default=10, metavar="K")
    release.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable result + ledger state as JSON "
        "(the same payload the release service serves)",
    )
    _add_session_arguments(release, jobs_default=20_000, trials_default=1)

    serve = subparsers.add_parser(
        "serve",
        help="run the multi-tenant DP release service "
        "(POST /v1/release, durable per-tenant spend journals)",
    )
    serve.add_argument(
        "--scenario",
        action="append",
        default=None,
        metavar="NAME",
        help="host a registered scenario economy (repeatable; the first "
        "is the default; default: one ad-hoc --jobs economy)",
    )
    serve.add_argument("--jobs", type=int, default=20_000)
    serve.add_argument("--trials", type=int, default=1)
    serve.add_argument("--seed", type=int, default=2017)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8200,
        help="0 binds an ephemeral port, reported on stdout (default 8200)",
    )
    serve.add_argument(
        "--tenants-config",
        type=Path,
        default=None,
        metavar="FILE",
        help="JSON tenant budgets: {\"tenants\": {name: {\"epsilon_budget\": "
        "..., \"on_overdraft\": \"raise\"|\"warn\"}}, \"default\": ...}; "
        "without it any tenant name is admitted with an unlimited ledger",
    )
    serve.add_argument(
        "--compute-workers",
        type=int,
        default=None,
        metavar="N",
        help="bounded executor size for release compute and journal I/O "
        "(default: small, CPU-derived)",
    )
    serve.add_argument(
        "--ledger-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="durable per-tenant spend journals (default reports/ledgers)",
    )
    serve.add_argument(
        "--snapshot-dir",
        type=Path,
        default=DEFAULT_SNAPSHOT_DIR,
        metavar="DIR",
        help=f"persistent snapshot store (default {DEFAULT_SNAPSHOT_DIR})",
    )
    serve.add_argument(
        "--no-snapshots",
        action="store_true",
        help="generate snapshots in-process, bypassing the store",
    )
    serve.add_argument(
        "--cache-dir",
        type=Path,
        default=DEFAULT_CACHE_DIR,
        metavar="DIR",
        help="content-addressed release dedupe store "
        f"(default {DEFAULT_CACHE_DIR})",
    )
    serve.add_argument(
        "--no-cache",
        action="store_true",
        help="disable release dedupe (every request computes)",
    )
    serve.add_argument(
        "--warm",
        action="store_true",
        help="build every hosted session before accepting requests",
    )
    serve.add_argument(
        "--compact-on-start",
        action="store_true",
        help="collapse each tenant's spend journal to one snapshot record "
        "before serving (exact totals and paid keys preserved; per-entry "
        "audit detail dropped)",
    )
    _add_store_url_argument(serve)

    gen = subparsers.add_parser(
        "generate", help="generate and save a synthetic LODES snapshot"
    )
    gen.add_argument("--out", type=Path, required=True)
    gen.add_argument("--jobs", type=int, default=60_000)
    gen.add_argument("--seed", type=int, default=20170514)

    scenarios = subparsers.add_parser(
        "scenarios",
        help="list the scenario library, build snapshots into the "
        "persistent store, inspect one, or prune stale staging dirs",
    )
    scenarios.add_argument("action", choices=("list", "build", "info", "prune"))
    scenarios.add_argument(
        "name", nargs="?", default=None, help="scenario name (build/info)"
    )
    scenarios.add_argument(
        "--snapshot-dir",
        type=Path,
        default=DEFAULT_SNAPSHOT_DIR,
        metavar="DIR",
        help=f"snapshot store location (default {DEFAULT_SNAPSHOT_DIR})",
    )
    scenarios.add_argument(
        "--force",
        action="store_true",
        help="rebuild the snapshot even if the store already has it",
    )
    scenarios.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="build the snapshot sharded over N processes, each writing "
        "its workforce chunks straight into the store files "
        "(byte-identical to the sequential build; default: sequential)",
    )
    scenarios.add_argument(
        "--all",
        action="store_true",
        help="prune: remove every staging directory regardless of age "
        "(default: only those older than an hour, so concurrent "
        "builds are safe)",
    )
    scenarios.add_argument(
        "--panel",
        action="store_true",
        help="build: persist a multi-year panel (registry + one "
        "directory per year, each installed atomically, so a killed "
        "build resumes at year granularity)",
    )
    scenarios.add_argument(
        "--years",
        type=int,
        default=5,
        metavar="N",
        help="build --panel: number of panel years (default 5)",
    )
    _add_store_url_argument(scenarios)

    storage = subparsers.add_parser(
        "storage",
        help="inspect the storage layer (stats) or run an HTTP object "
        "store for a fleet (serve)",
    )
    storage.add_argument("action", choices=("stats", "serve"))
    storage.add_argument(
        "--snapshot-dir",
        type=Path,
        default=DEFAULT_SNAPSHOT_DIR,
        metavar="DIR",
        help=f"snapshot store location (default {DEFAULT_SNAPSHOT_DIR})",
    )
    storage.add_argument(
        "--cache-dir",
        type=Path,
        default=DEFAULT_CACHE_DIR,
        metavar="DIR",
        help=f"result store location (default {DEFAULT_CACHE_DIR})",
    )
    _add_store_url_argument(storage)
    storage.add_argument(
        "--root",
        type=Path,
        default=None,
        metavar="DIR",
        help="serve: back objects with this directory so file:// readers "
        "of the same path see them too (default: in-memory)",
    )
    storage.add_argument("--host", default="127.0.0.1")
    storage.add_argument("--port", type=int, default=8123)
    return parser


def _selected_figures(only: str | None) -> dict:
    if only is None:
        return dict(FIGURES)
    names = [name.strip() for name in only.split(",") if name.strip()]
    unknown = [name for name in names if name not in FIGURES]
    if unknown:
        raise SystemExit(
            f"unknown figures {unknown}; choose from {sorted(FIGURES)}"
        )
    return {name: FIGURES[name] for name in names}


def _backend_from_url(url, **options):
    """:func:`backend_from_url`, with a bad ``--store-url`` as a usage error."""
    try:
        return backend_from_url(url, **options)
    except (ValueError, NotImplementedError) as error:
        raise SystemExit(str(error)) from None


def _snapshot_store_from_args(args) -> SnapshotStore | None:
    if getattr(args, "no_snapshots", False):
        return None
    root = getattr(args, "snapshot_dir", DEFAULT_SNAPSHOT_DIR)
    url = getattr(args, "store_url", None)
    if url:
        return SnapshotStore(
            backend=_backend_from_url(url, cache_root=root, prefix="snapshots")
        )
    return SnapshotStore(root)


def _config_from_args(args) -> ExperimentConfig:
    """The experiment config an invocation describes (scenario-aware)."""
    if getattr(args, "scenario", None):
        try:
            return ExperimentConfig.for_scenario(
                args.scenario,
                n_trials=args.trials,
                seed=args.seed,
            )
        except ValueError as error:
            raise SystemExit(str(error)) from None
    return ExperimentConfig(
        data=SyntheticConfig(target_jobs=args.jobs, seed=args.seed),
        n_trials=args.trials,
        seed=args.seed,
    )


def _session_from_args(args) -> ReleaseSession:
    # --workers does double duty: grid points fan out to that many
    # executor workers, and a snapshot-store *miss* builds the economy
    # over the same count of processes (the same bytes either way).
    workers = getattr(args, "workers", None)
    return ReleaseSession(
        _config_from_args(args),
        snapshot_store=_snapshot_store_from_args(args),
        snapshot_workers=workers,
    )


def _out_dir_from_args(args) -> Path:
    """Where artifacts land: ``OUT/`` or ``OUT/<scenario>/`` per scenario."""
    out = args.out
    if getattr(args, "scenario", None):
        out = out / args.scenario
    out.mkdir(parents=True, exist_ok=True)
    return out


def _claim_options_from_args(args) -> dict:
    """The ``run_plan`` claim kwargs of a figures/tables/sweep invocation."""
    if not args.claim:
        return {}
    if args.no_cache:
        raise SystemExit(
            "--claim coordinates through the result store; drop --no-cache"
        )
    return {"claim": True, "claim_ttl_s": args.claim_ttl}


def _engine_from_args(args):
    """Resolve the (driver, store) pair shared by figures/tables/sweep."""
    executor = resolve_driver(args.executor, args.workers)
    if args.no_cache:
        return executor, None
    url = getattr(args, "store_url", None)
    if url:
        return executor, ResultStore(
            backend=_backend_from_url(
                url, cache_root=args.cache_dir, prefix="results"
            )
        )
    return executor, ResultStore(args.cache_dir)


def _store_stats_payload(session, store: ResultStore | None) -> dict:
    """The unified per-store telemetry block for machine-readable output."""
    payload = {}
    snapshot_store = getattr(session, "snapshot_store", None)
    if snapshot_store is not None:
        payload["snapshots"] = snapshot_store.statistics.as_dict()
    if store is not None:
        payload["results"] = store.statistics.as_dict()
    return payload


def _print_cache_summary(store: ResultStore | None) -> None:
    if store is not None:
        print(
            f"cache {store.root}: {store.hits} point(s) replayed, "
            f"{store.writes} computed and stored"
        )


def run_figures(args, session: ReleaseSession | None = None) -> list[Path]:
    # Flags are refused before the session opens its snapshot and fits.
    executor, store = _engine_from_args(args)
    claim_options = _claim_options_from_args(args)
    if session is None:
        session = _session_from_args(args)
    out = _out_dir_from_args(args)
    written = []
    for name, generator in _selected_figures(args.only).items():
        series = generator(
            session,
            executor=executor,
            store=store,
            resume=args.resume,
            fused=args.fused,
            **claim_options,
        )
        path = out / f"{name}.txt"
        path.write_text(render_figure(series) + "\n", encoding="utf-8")
        print(f"wrote {path}")
        written.append(path)
    _print_cache_summary(store)
    return written


def run_tables(args, session: ReleaseSession | None = None) -> list[Path]:
    """Write Tables 1-3; the data-backed table shares one session snapshot."""
    executor, store = _engine_from_args(args)
    claim_options = _claim_options_from_args(args)
    if session is None:
        session = _session_from_args(args)
    out = _out_dir_from_args(args)
    written = []
    artifacts = (
        ("table-1", table1_text()),
        ("table-2", table2_text()),
        (
            "table-3",
            table3_text(
                session,
                n_trials=args.trials,
                executor=executor,
                store=store,
                resume=args.resume,
                fused=args.fused,
                **claim_options,
            ),
        ),
    )
    for name, text in artifacts:
        path = out / f"{name}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        print(f"wrote {path}")
        written.append(path)
    _print_cache_summary(store)
    return written


def run_sweep(args, session: ReleaseSession | None = None) -> list[Path]:
    """Run an ad-hoc grid through the sweep engine; write text + JSON."""
    executor, store = _engine_from_args(args)
    claim_options = _claim_options_from_args(args)
    if session is None:
        session = _session_from_args(args)
    plan = grid_plan(
        args.workload,
        args.metric,
        _parse_values(args.mechanisms, str),
        _parse_values(args.alphas, float),
        _parse_values(args.epsilons, float),
        fingerprint=session.snapshot_fingerprint,
        delta=args.delta,
        n_trials=args.trials,
        seed=args.seed,
        tag=args.tag,
    )
    outcome = run_plan(
        plan,
        session,
        executor=executor,
        store=store,
        resume=args.resume,
        fused=args.fused,
        profile=args.profile,
        **claim_options,
    )
    out = _out_dir_from_args(args)
    text_path = out / f"sweep-{args.tag}.txt"
    text_path.write_text(
        render_figure(outcome.series) + "\n", encoding="utf-8"
    )
    payload = {
        "plan": {
            "name": plan.name,
            "workload": args.workload,
            "metric": plan.metric,
            "fingerprint": plan.fingerprint,
            "n_points": len(plan),
        },
        "computed": outcome.computed,
        "cache_hits": outcome.cache_hits,
        "fused": args.fused,
        "points": [encode_point(point) for point in outcome.points],
        "store_stats": _store_stats_payload(session, store),
    }
    if outcome.profile is not None:
        payload["profile"] = outcome.profile
    json_path = out / f"sweep-{args.tag}.json"
    json_path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    for path in (text_path, json_path):
        print(f"wrote {path}")
    print(
        f"swept {len(plan)} point(s): {outcome.computed} computed, "
        f"{outcome.cache_hits} replayed from cache"
    )
    if outcome.profile is not None:
        print(
            "profile: draw {draw_s:.2f}s, reduce {reduce_s:.2f}s, "
            "store {store_s:.2f}s, other {other_s:.2f}s "
            "(total {total_s:.2f}s)".format(**outcome.profile)
        )
        for worker in outcome.profile.get("per_worker", ()):
            print(
                "  worker {worker} (pid {pid}): {tasks} task(s), "
                "draw {draw_s:.2f}s, reduce {reduce_s:.2f}s, "
                "busy {total_s:.2f}s".format(**worker)
            )
    _print_cache_summary(store)
    print(session.ledger.summary().splitlines()[0])
    return [text_path, json_path]


def run_release(args, session: ReleaseSession | None = None) -> int:
    attrs = tuple(name.strip() for name in args.attrs.split(",") if name.strip())
    mechanism_options = (
        {"theta": args.theta} if args.theta is not None else None
    )
    request = ReleaseRequest(
        attrs=attrs,
        mechanism=args.mechanism,
        alpha=args.alpha,
        epsilon=args.epsilon,
        delta=args.delta,
        mode=args.mode,
        n_trials=None if args.trials <= 1 else args.trials,
        seed=args.seed,
        mechanism_options=mechanism_options,
    )
    if session is None:
        session = ReleaseSession(
            ExperimentConfig(
                data=SyntheticConfig(target_jobs=args.jobs, seed=args.seed),
                n_trials=max(args.trials, 1),
                seed=args.seed,
            ),
            budget=args.budget,
        )
    try:
        request.validate(schema=session.schema, worker_attrs=session.worker_attrs)
    except ValueError as error:
        raise SystemExit(f"invalid release request: {error}")
    try:
        result = session.run(request)
    except PrivacyBudgetExceeded as error:
        raise SystemExit(f"release refused: {error}")

    if getattr(args, "json", False):
        print(
            json.dumps(
                {
                    "result": result.to_dict(top=args.top),
                    "ledger": session.ledger.as_dict(),
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0

    release = result.release
    print(
        f"released {release.n_released} of {release.marginal.n_cells} cells "
        f"({result.mechanism}, mode={release.budget.mode}, "
        f"per-cell eps={release.budget.per_cell.epsilon:g})"
    )
    rows = [
        [" x ".join(str(v) for v in values), true, noisy]
        for values, true, noisy in result.top_cells(args.top)
    ]
    print(
        format_table(
            headers=[" x ".join(attrs), "true", "noisy"],
            rows=rows,
            title=f"top {len(rows)} released cells (trial 1 of {result.n_trials})",
        )
    )
    ratio = result.l1_ratio()
    if ratio == ratio:  # not nan
        print(f"L1 error ratio vs SDL baseline: {ratio:.3f}")
    print()
    print(session.ledger.summary())
    return 0


def _require_scenario_name(args) -> str:
    if not args.name:
        raise SystemExit(
            f"`repro scenarios {args.action}` needs a scenario name; "
            f"choose from {', '.join(available_scenarios())}"
        )
    return args.name


def run_scenarios(args) -> int:
    """``repro scenarios list|build|info|prune`` against the snapshot store."""
    import time as _time

    store = _snapshot_store_from_args(args)
    if args.action == "prune":
        removed = (
            store.prune(max_age_s=0.0) if args.all else store.prune()
        )
        if removed:
            for path in removed:
                print(f"pruned {path}")
        print(
            f"{len(removed)} stale staging dir(s) removed under {store.root}"
            + ("" if args.all else " (age-gated; --all removes every one)")
        )
        return 0

    if args.action == "list":
        rows = []
        for name in available_scenarios():
            spec = scenario_spec(name)
            config = spec.config()
            fingerprint = dataset_fingerprint(config)
            rows.append(
                [
                    name,
                    f"{config.target_jobs:,}",
                    fingerprint,
                    "yes" if store.contains(fingerprint) else "no",
                    spec.description,
                ]
            )
        print(
            format_table(
                headers=["scenario", "target jobs", "fingerprint", "built", "what it stresses"],
                rows=rows,
                title=f"scenario library (store: {store.root})",
            )
        )
        return 0

    name = _require_scenario_name(args)
    try:
        spec = scenario_spec(name)
    except ValueError as error:
        raise SystemExit(str(error))
    config = spec.config()
    fingerprint = dataset_fingerprint(config)

    if args.action == "build" and args.panel:
        panel_config = PanelConfig(base=config, n_years=args.years)
        pfp = panel_fingerprint(panel_config)
        if store.contains_panel(pfp) and not args.force:
            print(
                f"{name} panel already built at {store.path_for(pfp)} "
                "(use --force to rebuild)"
            )
            return 0
        workers = args.workers if args.workers and args.workers > 1 else 1
        start = _time.perf_counter()
        path = store.build_panel(
            panel_config,
            workers=workers,
            fingerprint=pfp,
            overwrite=args.force,
        )
        build_s = _time.perf_counter() - start
        meta = store.panel_info(pfp) or {}
        how = (
            f"sharded over {workers} workers" if workers > 1 else "sequential"
        )
        print(
            f"built {name} panel: {meta.get('n_years', 0)} year(s), "
            f"{meta.get('n_establishments', 0):,} registry establishments "
            f"({how}, {build_s:.2f}s; resumable at year granularity)"
        )
        print(f"stored at {path} ({store.size_bytes(pfp):,} bytes)")
        return 0

    if args.action == "build":
        if store.contains(fingerprint) and not args.force:
            print(
                f"{name} already built at {store.path_for(fingerprint)} "
                "(use --force to rebuild)"
            )
            return 0
        workers = args.workers if args.workers and args.workers > 1 else 1
        start = _time.perf_counter()
        path = store.build(
            config,
            workers=workers,
            fingerprint=fingerprint,
            overwrite=args.force,
        )
        build_s = _time.perf_counter() - start
        meta = store.info(fingerprint) or {}
        how = (
            f"sharded over {workers} workers" if workers > 1 else "sequential"
        )
        print(
            f"built {name}: {meta.get('n_jobs', 0):,} jobs, "
            f"{meta.get('n_establishments', 0):,} establishments, "
            f"{meta.get('n_places', 0):,} places "
            f"({how}, {build_s:.2f}s)"
        )
        print(f"stored at {path} ({store.size_bytes(fingerprint):,} bytes)")
        return 0

    # info
    print(f"{name}: {spec.description}")
    if spec.tags:
        print(f"tags: {', '.join(spec.tags)}")
    print(f"fingerprint: {fingerprint}")
    print(f"config: {config}")
    meta = store.info(fingerprint)
    if meta is None:
        print(
            f"not built under {store.root} "
            f"(run `repro scenarios build {name}`)"
        )
    else:
        print(
            f"built at {store.path_for(fingerprint)}: "
            f"{meta['n_jobs']:,} jobs, {meta['n_establishments']:,} "
            f"establishments, {meta['n_places']:,} places, "
            f"{store.size_bytes(fingerprint):,} bytes on disk"
        )
    return 0


def run_storage(args) -> int:
    """``repro storage stats|serve`` — inspect or share the storage layer."""
    if args.action == "serve":
        import signal
        import threading

        from repro.storage.httpd import ObjectServer

        server = ObjectServer(host=args.host, port=args.port, root=args.root)
        backing = str(args.root) if args.root else "in-memory"
        # Serve on a background thread and park the main thread on an
        # event: a signal handler must never call shutdown() from the
        # serving thread itself (self-join deadlock), and this way
        # SIGINT and SIGTERM both drain in-flight requests before exit.
        # Handlers go in before the announce — the announce is the
        # ready signal, and a supervisor may SIGTERM the moment it sees
        # it.
        stop = threading.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            signal.signal(signum, lambda *_: stop.set())
        server.start()
        print(
            f"object store listening on {server.url} (backing: {backing})",
            flush=True,
        )
        print(f"point workers at:  --store-url {server.url}", flush=True)
        try:
            stop.wait()
        except KeyboardInterrupt:
            pass
        server.stop()
        print("object store drained and stopped", flush=True)
        return 0

    # stats: one shared ledger across both stores, plus their inventory.
    stats = StoreStats()
    url = getattr(args, "store_url", None)
    if url:
        snapshots = SnapshotStore(
            backend=_backend_from_url(
                url, cache_root=args.snapshot_dir, prefix="snapshots", stats=stats
            )
        )
        results = ResultStore(
            backend=_backend_from_url(
                url, cache_root=args.cache_dir, prefix="results", stats=stats
            )
        )
    else:
        from repro.storage import LocalFSBackend

        snapshots = SnapshotStore(
            backend=LocalFSBackend(args.snapshot_dir, stats=stats)
        )
        results = ResultStore(
            backend=LocalFSBackend(args.cache_dir, stats=stats)
        )

    snapshot_entries = snapshots.entries()
    panel_entries = snapshots.panel_entries()
    snapshot_bytes = sum(
        snapshots.size_bytes(meta["fingerprint"])
        for meta in snapshot_entries + panel_entries
    )
    result_keys = [
        key for key in results.backend.list_keys() if key.endswith(".json")
    ]
    result_bytes = sum(results.backend.size_bytes(key) for key in result_keys)
    rows = [
        [
            "snapshots",
            str(snapshots.root),
            f"{len(snapshot_entries)} snapshot(s), {len(panel_entries)} panel(s)",
            f"{snapshot_bytes:,}",
        ],
        [
            "results",
            str(results.root),
            f"{len(result_keys)} point(s)",
            f"{result_bytes:,}",
        ],
    ]
    print(
        format_table(
            headers=["store", "local root", "entries", "bytes"],
            rows=rows,
            title=(
                f"storage backends (remote: {url})" if url else
                "storage backends (local)"
            ),
        )
    )
    ledger = stats.as_dict()
    print(
        "session stats: "
        + ", ".join(f"{name}={value}" for name, value in ledger.items())
    )
    return 0


def run_serve(args) -> int:
    """``repro serve`` — the long-lived multi-tenant DP release service."""
    import asyncio

    from repro.serve import (
        DEFAULT_LEDGER_DIR,
        ReleaseCache,
        ReleaseService,
        SessionPool,
        TenantPolicy,
        TenantRegistry,
    )

    if args.scenario:
        try:
            configs = {
                name: ExperimentConfig.for_scenario(
                    name, n_trials=args.trials, seed=args.seed
                )
                for name in args.scenario
            }
        except ValueError as error:
            raise SystemExit(str(error)) from None
    else:
        configs = {
            "adhoc": ExperimentConfig(
                data=SyntheticConfig(target_jobs=args.jobs, seed=args.seed),
                n_trials=args.trials,
                seed=args.seed,
            )
        }
    pool = SessionPool(
        configs,
        snapshot_store=_snapshot_store_from_args(args),
        compute_workers=args.compute_workers,
    )

    ledger_dir = (
        DEFAULT_LEDGER_DIR if args.ledger_dir is None else args.ledger_dir
    )
    url = getattr(args, "store_url", None)
    ledger_backend = (
        _backend_from_url(url, cache_root=ledger_dir, prefix="ledgers")
        if url
        else None
    )
    if args.no_cache:
        store = None
    elif url:
        store = ResultStore(
            backend=_backend_from_url(
                url, cache_root=args.cache_dir, prefix="results"
            )
        )
    else:
        store = ResultStore(args.cache_dir)
    try:
        if args.tenants_config is not None:
            tenants = TenantRegistry.from_config_file(
                args.tenants_config,
                ledger_backend,
                **({} if ledger_backend else {"root": ledger_dir}),
            )
        else:
            # Zero-config mode: any path-safe tenant name is admitted
            # with an unlimited (tracking-only) durable ledger.
            tenants = TenantRegistry(
                ledger_backend,
                default_policy=TenantPolicy(),
                **({} if ledger_backend else {"root": ledger_dir}),
            )
    except (OSError, ValueError) as error:
        raise SystemExit(f"tenants config error: {error}") from None

    if args.compact_on_start:
        compacted = tenants.compact_journals()
        if compacted:
            print(
                f"compacted {len(compacted)} spend journal(s): "
                + ", ".join(compacted),
                flush=True,
            )
        else:
            print("no spend journals needed compaction", flush=True)

    service = ReleaseService(
        pool, tenants, ReleaseCache(store), host=args.host, port=args.port
    )
    if args.warm:
        for name in pool.warm():
            print(f"warmed session: {name}", flush=True)

    def announce(message: str) -> None:
        print(message, flush=True)

    asyncio.run(service.run_until_signalled(announce=announce))
    return 0


def run_generate(args) -> Path:
    dataset = generate(SyntheticConfig(target_jobs=args.jobs, seed=args.seed))
    directory = save_dataset(dataset, args.out)
    summary = dataset.summary()
    print(
        f"wrote snapshot to {directory}: "
        f"{int(summary['n_jobs'])} jobs, "
        f"{int(summary['n_establishments'])} establishments, "
        f"{int(summary['n_places'])} places"
    )
    return directory


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "figures":
        run_figures(args)
    elif args.command == "tables":
        run_tables(args)
    elif args.command == "sweep":
        run_sweep(args)
    elif args.command == "release":
        run_release(args)
    elif args.command == "serve":
        return run_serve(args)
    elif args.command == "generate":
        run_generate(args)
    elif args.command == "scenarios":
        run_scenarios(args)
    elif args.command == "storage":
        return run_storage(args)
    return 0
