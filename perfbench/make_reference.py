"""Regenerate ``reference.json``: the figure values the checks accept.

Runs the compute phase of each figures workload on several seeds that the
benchmark itself never uses, and records per overall-table cell the mean
and a Monte Carlo tolerance:

- cells that are not finite numbers (``-`` for infeasible, ``inf``) must
  match exactly;
- numeric cells accept ``max(5 × seed-to-seed range, floor)``, where the
  floor is 15% of the mean for L1 ratios and 0.02 for Spearman values;
- L1 ratios share one SDL denominator per run, which moves with the seed,
  so Figure 1 cells are checked as multiples of an anchor cell, and the
  anchor itself within ``2 ×`` its (SDL-driven) range;
- cells whose values swing too much between seeds to pin down (the
  heavy-tailed Smooth Gamma corner) are recorded as ``null`` and not
  checked.

Run from the checkout root:  python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from common import BENCH, Tally, child_argv, derived_seed, remove, run_child, scratch_dir
from figures import (
    ANCHORS,
    FIGURES,
    MODES,
    REFERENCE,
    SCENARIO,
    _number,
    build_snapshot,
    figure_argv,
    overall_table,
)

SEEDS = 12
CELL_MULTIPLIER = 5.0
ANCHOR_MULTIPLIER = 2.0
FLOORS = {"figure-1": ("relative", 0.15), "figure-2": ("absolute", 0.02)}
UNSTABLE = {"figure-1": 0.25, "figure-2": 0.05}


def cell_reference(
    figure: str,
    tokens: list[str],
    anchors=None,
    multiplier=CELL_MULTIPLIER,
    unstable: float | None = None,
):
    values = [_number(token) for token in tokens]
    if any(value is None for value in values):
        return {"token": tokens[0]} if len(set(tokens)) == 1 else None
    if anchors is not None:
        values = [value / anchor for value, anchor in zip(values, anchors)]
    mean = statistics.fmean(values)
    spread = max(values) - min(values)
    kind, floor = FLOORS[figure]
    limit = UNSTABLE[figure] if unstable is None else unstable
    if kind == "relative":
        if spread > limit * abs(mean):
            return None
        floor *= abs(mean)
    elif spread > limit:
        return None
    return {"mean": round(mean, 6), "tol": round(max(multiplier * spread, floor), 6)}


def main() -> int:
    tally = Tally()
    work = scratch_dir("reference")
    reference = {}
    try:
        snapshots = work / "snapshots"
        build_snapshot(snapshots, tally)
        for workload in MODES:
            samples = {name: [] for name in FIGURES}
            for k in range(SEEDS):
                run = work / f"{workload}-{k}"
                seed = derived_seed("reference", workload, k)
                argv = figure_argv(workload, seed, snapshots, run / "cache", run / "out", False)
                finished = run_child(child_argv({}, *argv))
                if not tally.op(finished.returncode == 0, finished.output[-300:]):
                    continue
                for name in FIGURES:
                    text = (run / "out" / SCENARIO / f"{name}.txt").read_text()
                    samples[name].append(overall_table(text))
                remove(run)
            reference[workload] = {}
            for name, tables in samples.items():
                anchor = ANCHORS.get(name)
                anchors = None
                entry = {"anchor": anchor}
                if anchor is not None:
                    tokens = [table[anchor] for table in tables]
                    entry["anchor_value"] = cell_reference(
                        name, tokens, multiplier=ANCHOR_MULTIPLIER, unstable=1.0
                    )
                    anchors = [_number(token) for token in tokens]
                entry["cells"] = {
                    cell: cell_reference(
                        name, [table[cell] for table in tables], anchors
                    )
                    for cell in tables[0]
                }
                reference[workload][name] = entry
    finally:
        remove(work)
    if tally.failed:
        print("\n".join(tally.problems), file=sys.stderr)
        return 1
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    checked = sum(
        value is not None for figures in reference.values()
        for entry in figures.values() for value in entry["cells"].values()
    )
    print(f"wrote {Path(REFERENCE).relative_to(BENCH.parent)}: {checked} checked cells")
    return 0


if __name__ == "__main__":
    sys.exit(main())
