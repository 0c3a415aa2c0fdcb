"""Tests for the ReleaseSession facade: requests, caching, grids, and the
figure-grid ledger accounting."""

import pickle

import numpy as np
import pytest

import repro.api.session as session_module
from repro.api import ReleaseRequest, ReleaseSession, available_mechanisms
from repro.api.registry import mechanism_spec
from repro.core import EREEParams, compute_release_statistics, marginal_budget
from repro.data import SyntheticConfig
from repro.dp.composition import PrivacyBudgetExceeded
from repro.experiments import RANKING_2, WORKLOAD_1, figure1
from repro.experiments.config import MECHANISM_NAMES, ExperimentConfig
from repro.engine.evaluate import mechanism_is_feasible
from repro.runtime import ProcessDriver
from repro.scenarios import SnapshotStore


def _request(**overrides):
    base = dict(
        attrs=("place", "naics", "ownership"),
        mechanism="smooth-laplace",
        alpha=0.1,
        epsilon=2.0,
        delta=0.05,
        seed=11,
    )
    base.update(overrides)
    return ReleaseRequest(**base)


class TestValidation:
    def test_unknown_mechanism_lists_choices(self, session):
        with pytest.raises(ValueError, match="unknown mechanism"):
            session.run(_request(mechanism="gaussian"))

    def test_unknown_attribute_names_schema(self, session):
        with pytest.raises(ValueError, match="unknown attributes"):
            session.run(_request(attrs=("place", "starsign")))

    def test_strong_worker_log_laplace_rejected(self, session):
        with pytest.raises(ValueError, match="strong-mode guarantee"):
            session.run(
                _request(
                    attrs=("place", "sex"),
                    mechanism="log-laplace",
                    mode="strong",
                )
            )

    def test_baseline_requires_theta(self, session):
        with pytest.raises(ValueError, match="theta"):
            session.run(_request(mechanism="truncated-laplace"))

    def test_bad_mode_rejected_before_data(self):
        with pytest.raises(ValueError, match="mode must be"):
            _request(mode="mediocre").validate()

    def test_bad_trials_rejected(self):
        with pytest.raises(ValueError, match="n_trials"):
            _request(n_trials=0).validate()

    def test_infeasible_strict_mechanism_rejected_upfront(self, session):
        """Smooth Gamma's hard constraint fails at alpha=1, eps=0.5; the
        request must be rejected at validation with nothing debited."""
        with pytest.raises(ValueError, match="infeasible"):
            session.run(
                _request(mechanism="smooth-gamma", alpha=1.0, epsilon=0.5)
            )

    def test_weak_split_per_cell_infeasibility_rejected(self, session):
        """ε=2 over d=8 worker cells gives per-cell ε=0.25, below the
        Smooth Laplace constraint at α=0.1 — caught before any data work."""
        with pytest.raises(ValueError, match="per cell"):
            session.run(
                _request(
                    attrs=("place", "naics", "ownership", "sex", "education"),
                    epsilon=2.0,
                )
            )

    def test_failed_request_debits_nothing(self, session):
        """A request that fails at any stage leaves no spend on the books."""
        before = session.ledger.spent_epsilon
        with pytest.raises(ValueError):
            session.run(
                _request(mechanism="smooth-gamma", alpha=1.0, epsilon=0.5)
            )
        # A composite that fails mid-procedure (pilot budget below the
        # feasibility floor) must also leave the ledger untouched.
        with pytest.raises(ValueError, match="feasibility floor"):
            session.run(
                _request(
                    attrs=("place", "sex", "education"),
                    mechanism="weighted-split",
                    alpha=0.05,
                    epsilon=1.0,
                    seed=2,
                )
            )
        assert session.ledger.spent_epsilon == before

    def test_calibrated_pipeline_rejects_baseline_names(self, session):
        from repro.core import EREEParams, release_marginal

        with pytest.raises(ValueError, match="not a per-cell calibrated"):
            release_marginal(
                session.worker_full,
                ("place",),
                "truncated-laplace",
                EREEParams(0.1, 2.0, 0.05),
                mechanism_options={"theta": 5},
                seed=1,
            )


class TestRun:
    def test_result_carries_provenance(self, session):
        result = session.run(_request())
        assert result.request.mechanism == "smooth-laplace"
        assert result.seed == 11
        assert result.ledger_entry is not None
        assert result.budget.mode == "strong"
        assert result.noisy.shape == (result.release.marginal.n_cells,)

    def test_batched_trials_shape(self, session):
        result = session.run(_request(n_trials=4, seed=12))
        assert result.noisy.shape[0] == 4
        assert result.n_trials == 4

    def test_metrics_available(self, session):
        result = session.run(_request(seed=13, n_trials=3))
        assert np.isfinite(result.l1_ratio())
        assert -1.0 <= result.spearman() <= 1.0
        by_stratum = result.l1_ratio_by_stratum()
        assert len(by_stratum) == 4

    def test_statistics_cached_across_requests(self, session):
        first = session.release_statistics(("place", "naics", "ownership"))
        second = session.release_statistics(("place", "naics", "ownership"))
        assert first is second

    def test_statistics_cache_skips_recomputation(self, session, monkeypatch):
        """A cache hit must not re-run the true-counts/xv tabulation."""
        import repro.api.session as session_module

        calls = []
        real = session_module.compute_release_statistics

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(
            session_module, "compute_release_statistics", counting
        )
        attrs = ("place", "ownership")
        session.release_statistics(attrs)
        session.release_statistics(attrs)
        session.release_statistics(attrs, mode="strong")  # same resolved key
        assert len(calls) == 1

    def test_workload_statistics_cached(self, session):
        assert session.statistics(WORKLOAD_1) is session.statistics(WORKLOAD_1)

    def test_run_grid_executes_all_points(self, session):
        requests = ReleaseRequest.grid(
            ("place", "naics", "ownership"),
            ("log-laplace", "smooth-laplace"),
            alphas=(0.1,),
            epsilons=(2.0, 4.0),
            delta=0.05,
            n_trials=2,
            seed=5,
        )
        results = session.run_grid(requests)
        assert len(results) == 4
        seeds = {result.seed for result in results}
        assert len(seeds) == 4  # per-point derived seeds are distinct

    def test_truncated_laplace_baseline(self, session):
        result = session.run(
            _request(
                mechanism="truncated-laplace",
                mechanism_options={"theta": 50},
                n_trials=2,
                seed=3,
            )
        )
        assert result.budget.mode == "node-dp"
        assert result.ledger_entry.epsilon == 2.0
        assert result.ledger_entry.delta == 0.0

    def test_weighted_split_composite(self, session):
        result = session.run(
            _request(
                attrs=("place", "sex"),
                mechanism="weighted-split",
                alpha=0.05,
                epsilon=8.0,
                seed=4,
            )
        )
        assert "weighted split" in result.mechanism
        assert result.ledger_entry.epsilon == pytest.approx(8.0)


class TestOnePrologueAndRecord:
    def test_workload_1_points_and_releases_share_prologue_and_record(
        self, session
    ):
        stats = session.statistics(WORKLOAD_1)
        result = session.run(_request(n_trials=2, seed=41))
        assert result.evaluation is stats.evaluation
        prologue = session.release_statistics(WORKLOAD_1.attrs)
        assert stats.true is prologue.true
        assert stats.released is prologue.released
        assert stats.xv is prologue.xv

    def test_ranking_2_counts_its_filtered_population(self, session):
        workload = RANKING_2.workload
        population = session.worker_full
        for attribute, value in workload.filters:
            population = population.filter(
                population.table.equals_value(attribute, value)
            )
        expected = compute_release_statistics(
            session.worker_full,
            workload.attrs,
            session.worker_attrs,
            "weak",
            population=population,
        )
        stats = session.statistics(workload)
        assert stats.mode == expected.mode == "weak"
        np.testing.assert_array_equal(stats.true, expected.true)
        np.testing.assert_array_equal(stats.xv, expected.xv)
        np.testing.assert_array_equal(stats.released, expected.released)

        # The mask is judged on the whole relation: establishment
        # existence is public, so cells with no filtered worker stay
        # published.
        whole = compute_release_statistics(
            session.worker_full, workload.attrs, session.worker_attrs, "weak"
        )
        np.testing.assert_array_equal(stats.released, whole.released)
        assert stats.true.sum() < whole.true.sum()
        assert (stats.released & (stats.true == 0)).any()


PREFLIGHT_CASES = {
    "calibrated-strong": {},
    "calibrated-weak": {"attrs": ("place", "naics", "sex"), "epsilon": 4.0},
    "baseline": {
        "mechanism": "truncated-laplace",
        "mechanism_options": {"theta": 50},
    },
    "composite": {
        "attrs": ("place", "sex"),
        "mechanism": "weighted-split",
        "alpha": 0.05,
        "epsilon": 8.0,
    },
}


@pytest.mark.parametrize("case", sorted(PREFLIGHT_CASES))
def test_preflight_amount_is_the_charged_spend(session, case):
    request = _request(n_trials=2, **PREFLIGHT_CASES[case])
    amount = session.spend_of(request)
    _, spend = session.execute(request)
    assert amount == (spend.epsilon, spend.delta)
    assert request.spec.kind == case.split("-")[0]


def test_preflight_cases_cover_every_registered_kind():
    kinds = {case.split("-")[0] for case in PREFLIGHT_CASES}
    assert kinds == {
        mechanism_spec(name).kind for name in available_mechanisms()
    }


class TestSessionLedger:
    def test_budgeted_session_raises_on_overdraft(self):
        config = ExperimentConfig(seed=7).small()
        session = ReleaseSession(config, budget=3.0)
        session.run(_request(epsilon=2.0))
        with pytest.raises(PrivacyBudgetExceeded):
            session.run(_request(epsilon=2.0, seed=12))
        assert session.ledger.spent_epsilon == pytest.approx(2.0)

    def test_figure_grid_ledger_matches_composition(self):
        """A full figure-1 grid debits exactly the Sec-4 composition cost:
        the sum over feasible (mechanism, α, ε) points of the marginal's
        composed total ε (Workload 1 is strong/no-split, so per-cell ε is
        the total ε and infeasible points cost nothing)."""
        config = ExperimentConfig(seed=7).small()
        session = ReleaseSession(config)
        figure1(session)

        schema = session.schema
        expected_epsilon = 0.0
        expected_points = 0
        for mechanism in MECHANISM_NAMES:
            for alpha in config.alphas:
                for epsilon in config.epsilons_standard:
                    params = EREEParams(alpha, epsilon, config.delta)
                    budget = marginal_budget(
                        params,
                        schema,
                        WORKLOAD_1.attrs,
                        session.worker_attrs,
                        "strong",
                        WORKLOAD_1.budget_style,
                    )
                    if mechanism_is_feasible(mechanism, budget.per_cell):
                        expected_epsilon += budget.total.epsilon
                        expected_points += 1
        assert len(session.ledger.entries) == expected_points
        assert session.ledger.spent_epsilon == pytest.approx(expected_epsilon)

    def test_infeasible_points_debit_nothing(self):
        config = ExperimentConfig(seed=7).small()
        session = ReleaseSession(config)
        # Smooth Gamma at eps=0.5, alpha=0.2 is infeasible.
        point = session.evaluate_point(
            WORKLOAD_1,
            "smooth-gamma",
            EREEParams(0.2, 0.5, 0.05),
            n_trials=2,
            seed=1,
        )
        assert not point.feasible
        assert session.ledger.spent_epsilon == 0.0


def _context_of(context, item):
    """Module-level driver task: the context it ran against."""
    return context


class TestSessionRecipe:
    """A session crosses a process boundary as its own rebuild recipe."""

    @pytest.fixture(autouse=True)
    def _fresh_worker_cache(self, monkeypatch):
        monkeypatch.setattr(session_module, "_WORKER_SESSION", None)

    def test_store_backed_session_reopens_the_stored_snapshot(
        self, tmp_path, monkeypatch
    ):
        config = ExperimentConfig(
            data=SyntheticConfig(target_jobs=4_000, seed=31),
            n_trials=2,
            seed=31,
        )
        parent = ReleaseSession(
            config,
            snapshot_store=SnapshotStore(tmp_path / "snapshots"),
            worker_attrs=("age", "sex"),
            budget=5.0,
        )
        parent.run(_request(epsilon=2.0))
        # The rebuilt session must open the stored snapshot: generating
        # the economy again is an error from here on.
        monkeypatch.setenv("REPRO_FORBID_GENERATE", "1")
        clone = pickle.loads(pickle.dumps(parent))
        assert clone is not parent
        assert clone.snapshot_fingerprint == parent.snapshot_fingerprint
        assert clone.worker_attrs == parent.worker_attrs
        assert clone.ledger.entries == []
        assert clone.ledger.epsilon_budget is None
        # One rebuild per process: a second load reuses it.
        assert pickle.loads(pickle.dumps(parent)) is clone

    def test_provided_dataset_session_refuses_to_pickle(self, session):
        wrapped = ReleaseSession(session.config, dataset=session.dataset)
        with pytest.raises(ValueError, match="provided dataset"):
            pickle.dumps(wrapped)

    def test_inline_process_map_hands_over_the_session_itself(self, session):
        [context] = ProcessDriver(workers=2).map(_context_of, session, [0])
        assert context is session
