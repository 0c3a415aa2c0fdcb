"""Tests for sweep planning: specs, content hashing, figure plans."""

import dataclasses

import pytest

from repro.data.generator import SyntheticConfig
from repro.engine.plan import (
    FIGURE_NAMES,
    PointSpec,
    figure_plan,
    grid_plan,
    grid_specs,
    snapshot_fingerprint,
)
from repro.experiments import ExperimentConfig
from repro.experiments.config import MECHANISM_NAMES
from repro.util import derive_seed


def spec(**overrides) -> PointSpec:
    base = dict(
        workload="workload-1",
        mechanism="smooth-laplace",
        metric="l1-ratio",
        alpha=0.1,
        epsilon=2.0,
        delta=0.05,
        n_trials=5,
        seed=7,
    )
    base.update(overrides)
    return PointSpec(**base)


class TestPointSpec:
    def test_calibrated_needs_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            spec(alpha=None)

    def test_truncated_laplace_needs_theta(self):
        with pytest.raises(ValueError, match="theta"):
            spec(mechanism="truncated-laplace", alpha=None)
        spec(mechanism="truncated-laplace", alpha=None, theta=50)  # ok

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="metric"):
            spec(metric="rmse")

    def test_key_is_deterministic(self):
        assert spec().key("fp") == spec().key("fp")

    def test_key_covers_every_value_determining_field(self):
        base = spec().key("fp")
        changed = [
            spec(workload="workload-3"),
            spec(mechanism="log-laplace"),
            spec(metric="spearman"),
            spec(alpha=0.2),
            spec(epsilon=4.0),
            spec(delta=0.005),
            spec(n_trials=6),
            spec(seed=8),
        ]
        keys = {base} | {s.key("fp") for s in changed}
        assert len(keys) == len(changed) + 1

    def test_key_scoped_to_snapshot_fingerprint(self):
        assert spec().key("fp-a") != spec().key("fp-b")

    def test_content_covers_every_field(self):
        """Every field of a spec sets its value, so every field is in the
        content its key hashes: a stored point is the value its key names."""
        names = {field.name for field in dataclasses.fields(PointSpec)}
        assert names <= set(spec().content("fp"))

    def test_label_mentions_coordinates(self):
        assert "smooth-laplace" in spec().label
        assert "eps=2.0" in spec().label


class TestFingerprint:
    def test_stable_for_equal_configs(self, engine_config):
        other = dataclasses.replace(engine_config)
        assert snapshot_fingerprint(engine_config) == snapshot_fingerprint(other)

    def test_changes_with_data_seed_and_size(self, engine_config):
        fingerprints = {
            snapshot_fingerprint(engine_config),
            snapshot_fingerprint(
                dataclasses.replace(
                    engine_config,
                    data=SyntheticConfig(target_jobs=4_000, seed=12),
                )
            ),
            snapshot_fingerprint(
                dataclasses.replace(
                    engine_config,
                    data=SyntheticConfig(target_jobs=5_000, seed=11),
                )
            ),
            snapshot_fingerprint(dataclasses.replace(engine_config, seed=99)),
        }
        assert len(fingerprints) == 4

    def test_grid_knobs_do_not_change_the_fingerprint(self, engine_config):
        """Trial counts and ε grids shape sweeps, not the snapshot."""
        assert snapshot_fingerprint(engine_config) == snapshot_fingerprint(
            dataclasses.replace(
                engine_config, n_trials=50, epsilons_standard=(1.0,)
            )
        )


class TestGridSpecs:
    def test_product_order_and_size(self):
        specs = grid_specs(
            "workload-1",
            "l1-ratio",
            ("log-laplace", "smooth-laplace"),
            (0.05, 0.2),
            (0.5, 2.0),
            delta=0.05,
            n_trials=3,
            seed=7,
            tag="t",
        )
        assert len(specs) == 8
        assert [s.mechanism for s in specs[:4]] == ["log-laplace"] * 4

    def test_seed_convention_matches_figure_runner(self):
        (only,) = grid_specs(
            "workload-1",
            "l1-ratio",
            ("smooth-laplace",),
            (0.1,),
            (2.0,),
            seed=7,
            tag="fig1",
        )
        assert only.seed == derive_seed(7, "fig1:smooth-laplace:0.1:2.0")

    def test_grid_plan_wraps_specs(self):
        plan = grid_plan(
            "workload-1",
            "spearman",
            ("log-laplace",),
            (0.1,),
            (2.0,),
            fingerprint="fp",
            seed=1,
            tag="mysweep",
        )
        assert plan.name == "mysweep"
        assert plan.metric == "spearman"
        assert len(plan) == 1
        assert plan.keys() == [plan.points[0].key("fp")]


class TestFigurePlans:
    def test_every_figure_has_a_plan(self, engine_config):
        for name in FIGURE_NAMES:
            plan = figure_plan(name, engine_config)
            assert len(plan) > 0
            assert plan.title

    def test_figure1_grid_size(self, engine_config):
        plan = figure_plan("figure-1", engine_config)
        expected = (
            len(MECHANISM_NAMES)
            * len(engine_config.alphas)
            * len(engine_config.epsilons_standard)
        )
        assert len(plan) == expected
        assert all(p.workload == "workload-1" for p in plan)

    def test_figure4_uses_extended_epsilons(self, engine_config):
        plan = figure_plan("figure-4", engine_config)
        assert {p.epsilon for p in plan} == set(engine_config.epsilons_extended)
        assert all(p.workload == "workload-3" for p in plan)

    def test_finding6_sweeps_thetas(self, engine_config):
        plan = figure_plan("finding-6", engine_config, metric="spearman")
        assert {p.theta for p in plan} == set(engine_config.thetas)
        assert all(p.mechanism == "truncated-laplace" for p in plan)
        assert plan.metric == "spearman"

    def test_unknown_figure_rejected(self, engine_config):
        with pytest.raises(ValueError, match="unknown figure"):
            figure_plan("figure-9", engine_config)

    def test_seed_base_override(self, engine_config):
        default = figure_plan("figure-1", engine_config)
        overridden = figure_plan("figure-1", engine_config, seed=123)
        assert default.points[0].seed != overridden.points[0].seed
        assert overridden.points[0].seed == derive_seed(
            123, "fig1:log-laplace:0.05:0.5"
        )
