"""The repository benchmark: paper-figure sweeps and the release service.

Run from the checkout root::

    python3 perfbench/run.py --workload figures-family --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45   # every workload

Workloads (see ``BENCHMARK.json`` for why each was chosen):

- ``figures-family`` — ``repro figures --only figure-1,figure-2 --fused
  family --scenario metro-heavy``: compute into an empty result store,
  then replay with ``--resume``;
- ``figures-pointwise`` — the same without ``--fused`` (the per-point
  default path the goldens pin); traced, and timed on request, but not in
  ``BENCHMARK.json`` (see README.md);
- ``serve`` — ``repro serve --scenario national-1m --warm`` under a closed
  loop of two blocking clients: distinct releases, then duplicates.

Every program run is a child process on fresh temporary stores under
``.perfbench/`` (removed afterwards).  ``--trace 0`` reports the
end-to-end metrics, with times scaled to a nominal host speed
(:class:`common.HostSpeed`; the times as measured and the factor are in
the provenance block); ``--trace 1`` is the separate traced run: it traces
all three workloads from this directory's launcher (nothing under
``src/`` is instrumented), reports the per-layer metrics named
``<workload>.<metric>``, and writes the spans to
``.perfbench/trace-<workload>-seed<seed>.json``.

Output checks count towards ``failed``; any failure makes the command exit
1.  The last line of standard output is the JSON result.  Seed 7919 is
held out: use it only to confirm a claim made on other seeds.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import subprocess
import sys
import traceback
from pathlib import Path

from common import ROOT, SRC, WORK, HostSpeed, Tally, at_nominal_speed

HELD_OUT_SEED = 7919
WORKLOADS = ("figures-family", "figures-pointwise", "serve")


def _module(workload: str):
    if workload == "serve":
        import service

        return service
    import figures

    return figures


def _git(*args) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        completed = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return completed.stdout.strip() if completed.returncode == 0 else None


def source_digest() -> str:
    """A hash of every file under ``src/`` (identifies non-git checkouts)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(args, samples: dict) -> dict:
    import numpy
    import scipy

    from repro.scenarios import dataset_fingerprint, scenario_config

    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "commit": commit,
        "dirty": None if status is None else bool(status),
        "source_digest": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "scenarios": {
            name: dataset_fingerprint(scenario_config(name))
            for name in ("metro-heavy", "national-1m")
        },
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": samples,
    }


def declared(kind: str) -> dict | None:
    """``name → unit`` of the ``kind`` metrics BENCHMARK.json declares."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    return {
        entry["name"]: entry["unit"]
        for entry in json.loads(spec.read_text())[kind]
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "cli.py").is_file():
        print(f"no program sources at {SRC / 'repro'}; nothing to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Byte-compile up front so no measured child pays for it.
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(Path(__file__).parent, quiet=1)

    tally = Tally()
    results: dict[str, tuple[float, str]] = {}
    samples: dict = {}
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        if args.trace:
            spans: dict = {}
            for workload in WORKLOADS:
                results.update(_module(workload).traced(workload, args.seed, tally, spans))
        else:
            expected = declared("end_to_end")
            for workload in workloads:
                host = HostSpeed()
                measured, counts = _module(workload).timed(
                    workload, args.seed, args.seconds, tally, host
                )
                metrics = at_nominal_speed(measured, host.factor())
                counts["host_speed"] = {
                    "task_s": host.samples,
                    "factor": host.factor(),
                    "measured": {name: value for name, (value, _) in measured.items()},
                }
                samples[workload] = counts
                emitted = {name: unit for name, (_, unit) in metrics.items()}
                tally.op(
                    expected is None or emitted == expected,
                    f"{workload}: end-to-end metrics differ from BENCHMARK.json",
                )
                prefix = "" if args.workload != "all" else f"{workload}."
                results.update({prefix + name: value for name, value in metrics.items()})
    except Exception:
        traceback.print_exc()
        return 1

    record = provenance(args, samples)
    if args.trace:
        expected = declared("per_layer")
        emitted = {name: unit for name, (_, unit) in results.items()}
        tally.op(
            expected is None or emitted == expected,
            "per-layer metrics differ from BENCHMARK.json",
        )
        WORK.mkdir(exist_ok=True)
        path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"provenance": record, "spans": spans}))
        print(f"spans written to {path.relative_to(ROOT)}")

    width = max(len(name) for name in results)
    for name, (value, unit) in results.items():
        print(f"{name:<{width}}  {value:>14.6g} {unit}")
    print(
        f"failed_frac = {tally.failed}/{tally.attempted} = "
        f"{tally.failed / max(tally.attempted, 1):.6g}"
    )
    for problem in tally.problems:
        print(f"check failed: {problem}")
    print("provenance: " + json.dumps(record, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in results.items()
                },
            }
        )
    )
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
