"""Child launcher: run one ``repro`` command the way the benchmark measures it.

Run from the checkout root with ``PYTHONPATH=src``::

    python3 perfbench/child.py [--ledger FILE] [--trace FILE] -- ARGV...

It runs ``repro.cli.main(ARGV)``, the function ``python -m repro`` runs.
``--ledger`` writes the privacy-ledger entries of every session the
command opened to FILE when it returns; the figures checks compare them
with the points computed.  ``--trace`` wraps the program's public entry
points in :class:`tracer.Tracer` spans and writes the spans to FILE.

For ``serve`` the traced entry points include the service's
``SessionPool``, ``TenantRegistry``, ``TenantAccount`` and
``ReleaseCache``, patched at class level, so the real ``repro serve``
builds ``ReleaseService`` from proxied objects.  Each pool hop records
its submit-to-start wait, and each HTTP request gets a request id that
its spans carry across the hop.
"""

import time

STARTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import sys  # noqa: E402

_KERNELS = (
    "error_ratio_point",
    "spearman_point",
    "truncated_laplace_point",
    "fused_grid_points",
    "fused_family_points",
)
_EVALUATE = (
    "evaluate_point_outcome",
    "evaluate_fused_outcome",
    "evaluate_family_outcome",
)


def _nbytes(args, kwargs, result):
    return {"bytes": int(getattr(result, "nbytes", 0))}


def _read_bytes(args, kwargs, result):
    return {"bytes": len(result) if result is not None else 0}


def _written_bytes(args, kwargs, result):
    data = args[2] if len(args) > 2 else kwargs.get("data", b"")
    return {"bytes": len(data)}


def _outcome(args, kwargs, result):
    return {
        "computed": int(getattr(result, "computed", 0)),
        "cache_hits": int(getattr(result, "cache_hits", 0)),
    }


def install(tracer) -> None:
    """Wrap every traced entry point of the already-imported program."""
    from repro.api.ledger import PrivacyLedger
    from repro.api.request import ReleaseRequest
    from repro.api.result import ReleaseResult
    from repro.api.session import ReleaseSession
    from repro.engine.points import WorkloadStatistics
    from repro.engine.store import ResultStore
    from repro.scenarios.store import SnapshotStore
    from repro.storage.local import LocalFSBackend

    tracer.patch_method(SnapshotStore, "build", "data.build")
    tracer.patch_method(SnapshotStore, "load_or_generate", "scenarios.open")
    tracer.patch_method(ReleaseSession, "__init__", "api.session_init")
    for attr in ("statistics", "release_statistics"):
        tracer.patch_method(ReleaseSession, attr, "api.statistics")
    for attr in ("envelope", "sdl_rank_stats", "stratum_cells"):
        tracer.patch_method(WorkloadStatistics, attr, "api.statistics")
    tracer.patch_method(ReleaseSession, "execute", "api.execute")
    for attr in _EVALUATE:
        tracer.patch_method(ReleaseSession, attr, "api.evaluate")
    tracer.patch_method(ReleaseRequest, "validate", "api.validate")
    tracer.patch_method(ReleaseResult, "to_dict", "api.result")
    tracer.patch_method(PrivacyLedger, "record", "api.ledger")

    tracer.patch_function(
        "repro.engine.sweep", "run_plan", "engine.run_plan", _outcome
    )
    for name in _KERNELS:
        tracer.patch_function("repro.engine.evaluate", name, "engine.reduce")
    tracer.patch_function(
        "repro.engine.evaluate", "sample_unit_noise", "engine.draw", _nbytes
    )
    patched = set()
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for value in list(vars(module).values()):
            if not isinstance(value, type) or value in patched:
                continue
            for attr in ("release_counts_batch", "release_counts_from_unit"):
                if attr in value.__dict__:
                    tracer.patch_method(value, attr, "engine.draw", _nbytes)
                    patched.add(value)
            if "release_batch" in value.__dict__:
                tracer.patch_method(value, "release_batch", "engine.draw")
                patched.add(value)
    tracer.patch_method(ResultStore, "put", "engine.store")
    tracer.patch_method(LocalFSBackend, "read_bytes", "storage.get", _read_bytes)
    tracer.patch_method(LocalFSBackend, "put_file", "storage.put", _written_bytes)
    tracer.patch_method(
        LocalFSBackend, "append_line", "storage.append", _written_bytes
    )


def install_serve(tracer) -> None:
    """Wrap the release service's pool, tenants, dedupe cache and routing."""
    import contextvars
    import itertools

    from tracer import now

    from repro.serve import ReleaseCache, ReleaseService, SessionPool, TenantRegistry
    from repro.serve.tenants import TenantAccount

    pool_run = SessionPool.run

    async def traced_run(self, fn, /, *args):
        # Submit-to-start is the pool wait; the work itself runs in a
        # copy of the caller's context so its spans keep their parent
        # and request id across the thread hop.
        submitted = now()
        parent = tracer.current()
        request = tracer.request.get()
        context = contextvars.copy_context()

        def job():
            tracer.record("runtime.pool_wait", submitted, now(), parent, request)
            return context.run(fn, *args)

        return await pool_run(self, job)

    SessionPool.run = traced_run
    tracer.patch_method(TenantRegistry, "account", "serve.tenants.account")
    tracer.patch_method(TenantAccount, "charge", "serve.tenants.charge")
    tracer.patch_method(ReleaseCache, "get", "serve.dedupe.get")
    tracer.patch_method(ReleaseCache, "put", "serve.dedupe.put")

    dispatch = ReleaseService._dispatch
    request_ids = itertools.count(1)

    async def traced_dispatch(self, method, path, body):
        token = tracer.request.set(next(request_ids))
        try:
            with tracer.span("serve.handler") as attrs:
                attrs["path"] = path
                return await dispatch(self, method, path, body)
        finally:
            tracer.request.reset(token)

    ReleaseService._dispatch = traced_dispatch


def _split(argv):
    """``[options..., "--", rest...]`` → (options dict, rest)."""
    if "--" not in argv:
        raise SystemExit("child.py: expected '--' before the command")
    cut = argv.index("--")
    options = {}
    flags = argv[:cut]
    for index in range(0, len(flags), 2):
        options[flags[index].lstrip("-")] = flags[index + 1]
    return options, argv[cut + 1:]


def run_cli(options, argv) -> int:
    serving = argv[:1] == ["serve"]
    tracer = None
    if "trace" in options:
        from tracer import Tracer

        tracer = Tracer()
        with tracer.span("cli.import"):
            import repro.cli

            if serving:
                import repro.serve  # noqa: F401  (repro serve imports it lazily)
    else:
        import repro.cli
    from repro.api.session import ReleaseSession

    sessions = []
    original_init = ReleaseSession.__init__

    def recording_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        sessions.append(self)

    ReleaseSession.__init__ = recording_init
    if tracer is not None:
        install(tracer)
        if serving:
            install_serve(tracer)
    try:
        if tracer is None:
            return repro.cli.main(argv)
        with tracer.span("cli.main"):
            return repro.cli.main(argv)
    finally:
        if "ledger" in options:
            entries = [
                entry.to_dict()
                for session in sessions
                for entry in session.ledger.entries
            ]
            with open(options["ledger"], "w", encoding="utf-8") as handle:
                json.dump({"entries": entries}, handle)
        if tracer is not None:
            tracer.dump(options["trace"], started=STARTED)


def main(argv) -> int:
    options, rest = _split(argv)
    return run_cli(options, rest)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
