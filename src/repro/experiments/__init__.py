"""Experiment harness regenerating every table and figure of Sec 10.

- :mod:`repro.experiments.config` — parameter grids matching the paper;
- :mod:`repro.experiments.workloads` — Workloads 1–3 and Rankings 1–2;
- :mod:`repro.experiments.figures` — one function per figure (1–5), the
  Finding-6 Truncated-Laplace comparison, and the design ablations;
- :mod:`repro.experiments.tables` — Tables 1 and 2, plus the empirical
  session summary (Table 3);
- :mod:`repro.experiments.report` — ASCII rendering of the series.

The snapshot/caching machinery lives behind the
:class:`repro.api.ReleaseSession` facade; the point/result dataclasses
are in :mod:`repro.engine.points` and the trial loop producing
error-ratio and Spearman series in :mod:`repro.engine.evaluate`.
"""

from repro.engine.points import WorkloadStatistics
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import (
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    finding6,
)
from repro.experiments.tables import table1_text, table2_rows, table3_rows
from repro.experiments.workloads import (
    RANKING_1,
    RANKING_2,
    WORKLOAD_1,
    WORKLOAD_2,
    WORKLOAD_3,
    Ranking,
    Workload,
)

__all__ = [
    "ExperimentConfig",
    "WorkloadStatistics",
    "Workload",
    "Ranking",
    "WORKLOAD_1",
    "WORKLOAD_2",
    "WORKLOAD_3",
    "RANKING_1",
    "RANKING_2",
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "finding6",
    "table1_text",
    "table2_rows",
    "table3_rows",
]
