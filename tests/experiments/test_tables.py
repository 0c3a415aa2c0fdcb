"""Tests for the Table 1 / Table 2 generators and Table 3's shared
statistics."""

import sys

import pytest

import repro.core.release
from repro.api import ReleaseSession
from repro.data import SyntheticConfig
from repro.experiments import ExperimentConfig
from repro.experiments.tables import (
    PAPER_TABLE2,
    table1_text,
    table2_rows,
    table2_text,
    table3_rows,
)
from repro.sdl import InputNoiseInfusion


class TestTable1Text:
    def test_contains_all_definitions(self):
        text = table1_text()
        for fragment in ("Input Noise Infusion", "ER-EE-privacy", "Weak ER-EE"):
            assert fragment in text

    def test_contains_weak_adversary_marker(self):
        assert "Yes*" in table1_text()


class TestTable2:
    def test_six_rows(self):
        assert len(table2_rows()) == 6

    def test_rows_carry_paper_values(self):
        rows = table2_rows()
        for row in rows:
            key = (row["delta"], row["alpha"])
            assert row["paper_epsilon"] == PAPER_TABLE2[key]

    def test_consistent_entries_match_paper(self):
        rows = {(r["delta"], r["alpha"]): r for r in table2_rows()}
        # The delta=5e-4 column matches for alpha=.01 and .10.
        assert rows[(5e-4, 0.01)]["min_epsilon"] == pytest.approx(0.15, abs=0.005)
        assert rows[(5e-4, 0.10)]["min_epsilon"] == pytest.approx(1.45, abs=0.005)

    def test_monotone_in_alpha(self):
        rows = table2_rows()
        by_delta = {}
        for row in rows:
            by_delta.setdefault(row["delta"], []).append(row["min_epsilon"])
        for values in by_delta.values():
            assert values == sorted(values)

    def test_text_rendering(self):
        text = table2_text()
        assert "min eps (ours)" in text
        assert "min eps (paper)" in text


def _count_calls(monkeypatch, module, name: str) -> list:
    """Count calls of ``module.name`` wherever a ``repro`` module binds it."""
    real = getattr(module, name)
    calls: list = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for loaded_name, loaded in list(sys.modules.items()):
        if loaded_name.startswith("repro") and loaded is not None:
            if getattr(loaded, name, None) is real:
                monkeypatch.setattr(loaded, name, counting)
    return calls


def test_default_table3_drain_reads_one_prologue_and_one_sdl_answer(
    monkeypatch,
):
    """Table 3's feasibility pass and its release rows share the session's
    one Workload-1 prologue (two establishment tabulations: the marginal
    and its workplace part) and one SDL answer."""
    session = ReleaseSession(
        ExperimentConfig(
            data=SyntheticConfig(target_jobs=4_000, seed=17), n_trials=2, seed=5
        )
    )
    tabulations = _count_calls(
        monkeypatch, repro.core.release, "per_establishment_counts"
    )
    answers = []
    real_answer = InputNoiseInfusion.answer_marginal

    def answer(self, *args, **kwargs):
        answers.append(1)
        return real_answer(self, *args, **kwargs)

    monkeypatch.setattr(InputNoiseInfusion, "answer_marginal", answer)
    rows = table3_rows(session)
    assert any(row["feasible"] for row in rows)
    assert len(tabulations) == 2
    assert len(answers) == 1
