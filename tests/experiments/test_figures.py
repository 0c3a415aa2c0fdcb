"""Tests for the per-figure generators and the report rendering."""

import math

import pytest

from repro.api import ReleaseSession
from repro.experiments import ExperimentConfig, figure1, figure2, figure4, finding6
from repro.experiments.report import render_figure, render_panel, summarize_finding


@pytest.fixture(scope="module")
def context():
    return ReleaseSession(ExperimentConfig().small())


@pytest.fixture(scope="module")
def fig1(context):
    return figure1(context)


class TestFigure1:
    def test_grid_size(self, context, fig1):
        config = context.config
        expected = 3 * len(config.alphas) * len(config.epsilons_standard)
        assert len(fig1.points) == expected

    def test_metric(self, fig1):
        assert fig1.metric == "l1-ratio"

    def test_feasible_points_positive(self, fig1):
        for point in fig1.points:
            if point.feasible:
                assert point.overall > 0

    def test_series_accessor(self, fig1):
        series = fig1.grid("smooth-laplace", alpha=0.05)
        assert len(series) == 2  # two epsilons in the small config


class TestFigure2:
    def test_spearman_range(self, context):
        fig2 = figure2(context)
        for point in fig2.points:
            if point.feasible and not math.isnan(point.overall):
                assert -1.0 <= point.overall <= 1.0


class TestFigure4:
    def test_uses_extended_epsilons(self, context):
        fig4 = figure4(context)
        epsilons = {p.epsilon for p in fig4.points}
        assert epsilons == set(context.config.epsilons_extended)


class TestFinding6:
    def test_theta_series(self, context):
        series = finding6(context)
        thetas = {p.theta for p in series.points}
        assert thetas == set(context.config.thetas)

    def test_truncation_much_worse_than_private_mechanisms(self, context, fig1):
        """Finding 6's headline: node DP is an order of magnitude worse."""
        trunc = finding6(context)
        best_trunc = min(p.overall for p in trunc.points)
        best_private = min(
            p.overall for p in fig1.points if p.feasible and not math.isnan(p.overall)
        )
        assert best_trunc > 3 * best_private


class TestReport:
    def test_render_panel_contains_series(self, fig1):
        text = render_panel(fig1, 0)
        assert "smooth-laplace" in text
        assert "eps=2" in text
        assert "alpha=0.05" in text

    def test_render_all_panels(self, fig1):
        text = render_figure(fig1)
        assert text.count("L1 Error Ratio") == 5  # overall + 4 strata

    def test_infeasible_rendered_as_dash(self, fig1):
        text = render_panel(fig1, 0)
        assert "-" in text

    def test_summarize_finding(self, fig1):
        values = summarize_finding(fig1, epsilon=2.0, alpha=0.05)
        assert set(values) == {"log-laplace", "smooth-laplace", "smooth-gamma"}
