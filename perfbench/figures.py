"""The ``figures-family`` and ``figures-pointwise`` workloads.

Each cycle runs ``repro figures --only figure-1,figure-2 --scenario
metro-heavy`` as child processes against a snapshot built during set-up:
one **compute** run into an empty result store, then **replay** runs of
the same command with ``--resume``.  ``figures-family`` adds ``--fused
family`` (one unit draw per mechanism grid, analytic L1 reduction);
``figures-pointwise`` is the default per-point path that the goldens pin.

Output checks, per cycle:

- compute computes every point and replay computes none (the CLI's cache
  summary line);
- the figure text is byte-identical between compute and replay;
- the ledger holds one entry per feasible computed point, and replay
  records none;
- every overall value lies within the Monte Carlo tolerance of
  ``reference.json`` (a new RNG stream passes, a wrong kernel fails).
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

from common import (
    BENCH,
    HostSpeed,
    Tally,
    child_argv,
    derived_seed,
    median,
    remove,
    repro_argv,
    run_child,
    scratch_dir,
)
from tracer import layer_of, load_spans, now, self_times

SCENARIO = "metro-heavy"
FIGURES = ("figure-1", "figure-2")
MODES = {
    "figures-family": {"fused": True, "trials": 1500},
    "figures-pointwise": {"fused": False, "trials": 150},
}
SETUP_REPEATS = 7
MIN_CYCLES = 3
# A replay is short (about 0.5 s, mostly imports): three per cycle give a
# 45-s run, host-speed samples included, some 27 replay samples and still
# about 9 compute samples.
REPLAYS_PER_CYCLE = 3
TRACE_CYCLES = 2
REFERENCE = BENCH / "reference.json"
# L1 ratios share the run's SDL denominator, which moves with the seed:
# Figure 1 cells are checked relative to this cell (see make_reference.py).
ANCHORS = {"figure-1": "smooth-laplace alpha=0.01 eps=1"}
LAYERS = ("cli", "scenarios", "api", "engine", "storage")
PHASES = ("compute", "replay")
_SUMMARY = re.compile(r"(\d+) point\(s\) replayed, (\d+) computed")


# -- figure text ----------------------------------------------------------


def overall_table(text: str) -> dict[str, str]:
    """``"mechanism alpha=a eps=e"`` → cell token of the [overall] table."""
    lines = text.strip().split("\n\n", 1)[0].splitlines()
    if len(lines) < 4 or "[overall]" not in lines[0]:
        raise ValueError("figure text has no leading [overall] table")
    columns = lines[1].split()[2:]
    cells = {}
    for row in lines[3:]:
        mechanism, series, *values = row.split()
        for column, value in zip(columns, values):
            cells[f"{mechanism} {series} {column}"] = value
    return cells


def _number(token: str) -> float | None:
    try:
        value = float(token)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _within(name: str, token: str, expected, scale: float = 1.0) -> list[str]:
    if expected is None:
        return []
    if "token" in expected:
        return [] if token == expected["token"] else [f"{name}: {token} != {expected['token']}"]
    value = _number(token)
    if value is None or abs(value / scale - expected["mean"]) > expected["tol"]:
        return [f"{name}: {token} not within ({expected['mean']:.4g} ± {expected['tol']:.3g}) x {scale:.4g}"]
    return []


def reference_check(reference: dict, cells: dict[str, str]) -> list[str]:
    """Cells that leave the reference tolerance (empty when all pass)."""
    if set(cells) != set(reference["cells"]):
        return [f"cell set differs from the reference ({len(cells)} cells)"]
    anchor = reference.get("anchor")
    scale = 1.0
    bad = []
    if anchor is not None:
        bad += _within(anchor, cells[anchor], reference["anchor_value"])
        scale = _number(cells[anchor]) or math.nan
    for name, expected in reference["cells"].items():
        bad += _within(name, cells[name], expected, scale)
    return bad


def feasible_cells(cells: dict[str, str]) -> int:
    return sum(1 for token in cells.values() if token != "-")


def load_reference(workload: str) -> dict:
    return json.loads(REFERENCE.read_text())[workload]


# -- one cycle ------------------------------------------------------------


def figure_argv(workload: str, seed: int, snapshots: Path, cache: Path, out: Path, resume: bool):
    mode = MODES[workload]
    argv = [
        "figures",
        "--only", ",".join(FIGURES),
        "--scenario", SCENARIO,
        "--trials", mode["trials"],
        "--seed", seed,
        "--snapshot-dir", snapshots,
        "--cache-dir", cache,
        "--out", out,
    ]
    if mode["fused"]:
        argv += ["--fused", "family"]
    if resume:
        argv.append("--resume")
    return argv


def build_snapshot(directory: Path, tally: Tally, trace: Path | None = None):
    """One ``repro scenarios build`` into ``directory``; the finished child."""
    args = ("scenarios", "build", SCENARIO, "--snapshot-dir", directory)
    argv = child_argv({"trace": trace}, *args) if trace else repro_argv(*args)
    finished = run_child(argv)
    tally.op(
        finished.returncode == 0 and f"built {SCENARIO}" in finished.output,
        f"snapshot build failed: {finished.output[-300:]}",
    )
    return finished


def _run(workload, seed, snapshots, work, label, traced):
    """One figures child; its outputs, ledger and cache summary."""
    out = work / f"out-{label}"
    options = {"ledger": work / f"ledger-{label}.json"}
    if traced:
        options["trace"] = work / f"trace-{label}.json"
    resume = label != "compute"
    argv = child_argv(
        options,
        *figure_argv(workload, seed, snapshots, work / "cache", out, resume),
    )
    finished = run_child(argv)
    texts = {}
    ledger = None
    if finished.returncode == 0:
        for name in FIGURES:
            path = out / SCENARIO / f"{name}.txt"
            texts[name] = path.read_bytes() if path.is_file() else None
        ledger = json.loads(Path(options["ledger"]).read_text())["entries"]
    match = _SUMMARY.search(finished.output)
    replayed, computed = (int(match[1]), int(match[2])) if match else (-1, -1)
    return {
        "finished": finished,
        "texts": texts,
        "ledger": ledger,
        "replayed": replayed,
        "computed": computed,
        "trace": options.get("trace"),
    }


def _check_compute(run, points, reference) -> list[str]:
    finished = run["finished"]
    if finished.returncode != 0:
        return [f"compute exited {finished.returncode}: {finished.output[-300:]}"]
    problems = []
    if (run["replayed"], run["computed"]) != (0, points):
        problems.append(f"compute replayed {run['replayed']}, computed {run['computed']} of {points}")
    feasible = 0
    for name in FIGURES:
        text = run["texts"].get(name)
        if text is None:
            problems.append(f"compute wrote no {name}")
            continue
        try:
            cells = overall_table(text.decode("utf-8"))
        except ValueError as error:
            problems.append(f"{name}: {error}")
            continue
        feasible += feasible_cells(cells)
        problems += [f"{name} {bad}" for bad in reference_check(reference[name], cells)]
    if len(run["ledger"]) != feasible:
        problems.append(f"ledger has {len(run['ledger'])} entries for {feasible} feasible points")
    return problems


def _check_replay(run, compute, points) -> list[str]:
    finished = run["finished"]
    if finished.returncode != 0:
        return [f"replay exited {finished.returncode}: {finished.output[-300:]}"]
    problems = []
    if (run["replayed"], run["computed"]) != (points, 0):
        problems.append(f"replay replayed {run['replayed']}, computed {run['computed']} of {points}")
    for name in FIGURES:
        if run["texts"].get(name) is None or run["texts"][name] != compute["texts"].get(name):
            problems.append(f"replay {name} differs from compute")
    if run["ledger"]:
        problems.append(f"replay recorded {len(run['ledger'])} ledger entries")
    return problems


def run_cycle(workload, seed, snapshots, work, tally, reference, *, traced=False, replays=1):
    """One compute run, then ``replays`` replay runs; checks go to ``tally``."""
    work.mkdir(parents=True, exist_ok=True)
    points = sum(len(reference[name]["cells"]) for name in FIGURES)
    compute = _run(workload, seed, snapshots, work, "compute", traced)
    problems = _check_compute(compute, points, reference)
    tally.op(not problems, f"{workload} compute (seed {seed}): {'; '.join(problems[:5])}")
    replay_runs = []
    for k in range(replays):
        replay = _run(workload, seed, snapshots, work, f"replay-{k}", traced)
        problems = _check_replay(replay, compute, points)
        tally.op(not problems, f"{workload} replay (seed {seed}): {'; '.join(problems[:5])}")
        replay_runs.append(replay)
    return {"compute": compute, "replay": replay_runs[0], "replays": replay_runs, "points": points}


# -- timed run --------------------------------------------------------------


def timed(workload: str, seed: int, seconds: float, tally: Tally, host: HostSpeed) -> tuple[dict, dict]:
    """End-to-end metrics, as measured, plus sample counts.

    ``compute_wall_s`` is the median over the run's compute children,
    ``replay_wall_s`` the median over all its replay children (see
    :func:`common.across` for why medians), and ``setup_s`` the median of
    the set-up builds.  ``host`` is sampled between children.
    """
    reference = load_reference(workload)
    work = scratch_dir(workload)
    cycles = []
    try:
        setups = []
        for k in range(SETUP_REPEATS):
            host.maybe_sample()
            setups.append(build_snapshot(work / f"snapshots-{k}", tally).wall_s)
        snapshots = work / "snapshots-0"
        started = now()
        while len(cycles) < MIN_CYCLES or now() - started < seconds:
            host.maybe_sample()
            cycle_dir = work / f"cycle-{len(cycles)}"
            cycle_seed = derived_seed(seed, workload, len(cycles))
            cycles.append(
                run_cycle(
                    workload, cycle_seed, snapshots, cycle_dir, tally, reference,
                    replays=REPLAYS_PER_CYCLE,
                )
            )
            remove(cycle_dir)
    finally:
        remove(work)
    points = cycles[0]["points"]
    compute_s = median(cycle["compute"]["finished"].wall_s for cycle in cycles)
    replay_s = median(
        run["finished"].wall_s for cycle in cycles for run in cycle["replays"]
    )
    metrics = {
        "setup_s": (median(setups), "s"),
        "compute_wall_s": (compute_s, "s"),
        "replay_wall_s": (replay_s, "s"),
    }
    # The latency and rate names are serve's.  A figures phase is one
    # child, so here they restate its wall time (and grid points per
    # second of it): no per-request latency or tail exists to report.
    metrics.update({
        "compute_p50_ms": (1000 * compute_s, "ms"),
        "compute_p90_ms": (1000 * compute_s, "ms"),
        "compute_rps": (points / compute_s, "1/s"),
        "replay_p50_ms": (1000 * replay_s, "ms"),
        "replay_p90_ms": (1000 * replay_s, "ms"),
        "replay_rps": (points / replay_s, "1/s"),
    })
    metrics["peak_rss_mb"] = (
        median(cycle["compute"]["finished"].rss_mb for cycle in cycles),
        "MB",
    )
    samples = {
        "setup_runs": len(setups),
        "cycles": len(cycles),
        "compute_runs": len(cycles),
        "replay_runs": sum(len(cycle["replays"]) for cycle in cycles),
        "points_per_cycle": points,
        "trials": MODES[workload]["trials"],
        "figure_seeds": [derived_seed(seed, workload, k) for k in range(len(cycles))],
    }
    return metrics, samples


# -- traced run -------------------------------------------------------------


def _outer(spans, name):
    """Spans called ``name`` with no ancestor of the same name."""
    by_id = {span["id"]: span for span in spans}
    result = []
    for span in spans:
        if span["name"] != name:
            continue
        parent = by_id.get(span["parent"])
        while parent is not None and parent["name"] != name:
            parent = by_id.get(parent["parent"])
        if parent is None:
            result.append(span)
    return result


def _total(spans, name):
    return sum(span["end"] - span["start"] for span in _outer(spans, name))


def _counter(spans, name, key):
    return sum(span.get("attrs", {}).get(key, 0) for span in _outer(spans, name))


def _phase_layers(run) -> dict:
    """Per-layer numbers of one traced child (one phase of one cycle)."""
    finished = run["finished"]
    meta, spans = load_spans(run["trace"])
    own = self_times(spans)
    layers = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        layer = layer_of(span["name"])
        layers[layer] = layers.get(layer, 0.0) + own[span["id"]]
    interp = meta["started"] - finished.spawned
    layers["cli"] += interp
    roots = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    plans = _outer(spans, "engine.run_plan")
    hits = sum(s.get("attrs", {}).get("cache_hits", 0) for s in plans)
    computed = sum(s.get("attrs", {}).get("computed", 0) for s in plans)
    return {
        "wall": finished.wall_s,
        "interp": interp,
        "import": _total(spans, "cli.import"),
        "open": _total(spans, "scenarios.open"),
        "session_init": sum(own[s["id"]] for s in spans if s["name"] == "api.session_init"),
        "statistics": _total(spans, "api.statistics"),
        "run_plan": _total(spans, "engine.run_plan"),
        "draw": _total(spans, "engine.draw"),
        "reduce": sum(own[s["id"]] for s in spans if s["name"] == "engine.reduce"),
        "draw_bytes": _counter(spans, "engine.draw", "bytes"),
        "points_computed": computed,
        "hit_ratio": hits / (hits + computed) if hits + computed else 0.0,
        "store": _total(spans, "engine.store"),
        "put_s": _total(spans, "storage.put"),
        "put_count": len(_outer(spans, "storage.put")),
        "put_bytes": _counter(spans, "storage.put", "bytes"),
        "get_s": _total(spans, "storage.get"),
        "get_count": len(_outer(spans, "storage.get")),
        "get_bytes": _counter(spans, "storage.get", "bytes"),
        "ledger_entries": len(run["ledger"] or ()),
        "layers": layers,
        "unattributed": finished.wall_s - interp - roots,
        "spans": spans,
    }


def traced(workload: str, seed: int, tally: Tally, trace_log: dict) -> dict:
    """The per-layer metrics of one workload, named ``<workload>.<metric>``."""
    reference = load_reference(workload)
    work = scratch_dir(f"{workload}-trace")
    plain, traced_runs = [], []
    try:
        build_snapshot(work / "snapshots", tally, trace=work / "trace-build.json")
        _, build_spans = load_spans(work / "trace-build.json")
        for k in range(TRACE_CYCLES):
            cycle_seed = derived_seed(seed, workload, "trace", k)
            for is_traced in (False, True):
                cycle_dir = work / f"cycle-{k}-{int(is_traced)}"
                cycle = run_cycle(
                    workload, cycle_seed, work / "snapshots", cycle_dir, tally,
                    reference, traced=is_traced,
                )
                if is_traced:
                    traced_runs.append({phase: _phase_layers(cycle[phase]) for phase in PHASES})
                else:
                    plain.append(cycle)
                remove(cycle_dir)
    finally:
        remove(work)
    trace_log[workload] = {
        "build": build_spans,
        "cycles": [{phase: cycle[phase].pop("spans") for phase in PHASES} for cycle in traced_runs],
    }

    def med(phase, key):
        return median(cycle[phase][key] for cycle in traced_runs)

    def both(key):
        return median(cycle[phase][key] for cycle in traced_runs for phase in PHASES)

    metrics = {
        "cli.interp_s": (both("interp"), "s"),
        "cli.import_s": (both("import"), "s"),
        "data.build_s": (_total(build_spans, "data.build"), "s"),
        "scenarios.open_s": (both("open"), "s"),
        "api.session_init_s": (both("session_init"), "s"),
        "api.statistics_s": (med("compute", "statistics"), "s"),
        "engine.run_plan_s.compute": (med("compute", "run_plan"), "s"),
        "engine.draw_s": (med("compute", "draw"), "s"),
        "engine.reduce_s": (med("compute", "reduce"), "s"),
        "engine.draw_bytes_computed": (med("compute", "draw_bytes"), "bytes"),
        "engine.points_computed": (med("compute", "points_computed"), "count"),
        "engine.store_s": (med("compute", "store"), "s"),
        "storage.put_s": (med("compute", "put_s"), "s"),
        "storage.put_count": (med("compute", "put_count"), "count"),
        "storage.put_bytes": (med("compute", "put_bytes"), "bytes"),
        "api.ledger_entries": (med("compute", "ledger_entries"), "count"),
        "engine.run_plan_s.replay": (med("replay", "run_plan"), "s"),
        "storage.get_s": (med("replay", "get_s"), "s"),
        "storage.get_count": (med("replay", "get_count"), "count"),
        "storage.get_bytes": (med("replay", "get_bytes"), "bytes"),
        "engine.replay_hit_ratio": (med("replay", "hit_ratio"), "ratio"),
    }
    for phase in PHASES:
        for layer in LAYERS:
            metrics[f"layer.{layer}_s.{phase}"] = (
                median(cycle[phase]["layers"][layer] for cycle in traced_runs),
                "s",
            )
        metrics[f"trace.unattributed_s.{phase}"] = (med(phase, "unattributed"), "s")
        metrics[f"trace.overhead_s.{phase}"] = (
            med(phase, "wall") - median(c[phase]["finished"].wall_s for c in plain),
            "s",
        )
    return {f"{workload}.{name}": value for name, value in metrics.items()}
