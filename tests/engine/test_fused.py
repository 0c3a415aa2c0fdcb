"""Tests for the fused path (``run_plan(fused=True)``, one unit-noise draw
per mechanism family), plus the guarantee that turning the feature OFF
changes nothing.

The golden tables below were captured at the commit that introduced
fusion, running the *default* (unfused) path on the ENGINE_CONFIG
snapshot — they pin the historical bit-exact output.  Any refactor of
the evaluate/sweep stack must keep the default path's figures and
Table 3 byte-identical to these values.
"""

import math

import pytest

from repro.engine.plan import figure_plan, grid_plan
from repro.engine.points import points_identical
from repro.engine.store import ResultStore
from repro.engine.sweep import run_plan
from repro.experiments.tables import table3_rows

NAN = float("nan")

# (mechanism, alpha, epsilon, theta, feasible, overall, by_stratum) per
# plan point, in plan order, for the default unfused path.
FIGURE_GOLDEN = {
    "figure-1": (
        ("log-laplace", 0.05, 0.5, None, True, 3.2948889911885217,
         (2.6348621647322963, 5.345337787469996, 2.956614398712302,
          3.179415328225468)),
        ("log-laplace", 0.05, 2.0, None, True, 0.7915586827448104,
         (0.4327559469442157, 1.0582625619461898, 0.703615837146373,
          0.9524464089514192)),
        ("log-laplace", 0.2, 0.5, None, True, 12.813048729439613,
         (2.4079379008030206, 23.26010206766221, 9.255189821241212,
          18.518092194457818)),
        ("log-laplace", 0.2, 2.0, None, True, 1.6551657497488395,
         (0.7645153603207474, 2.513045707678587, 1.1237513535153907,
          2.7316808734850357)),
        ("smooth-laplace", 0.05, 0.5, None, True, 2.88431905197016,
         (2.133352744331371, 2.852661865195066, 3.2437632090446096,
          2.182413690779015)),
        ("smooth-laplace", 0.05, 2.0, None, True, 0.5639849646746907,
         (0.6250003511254002, 0.6521977416304992, 0.49663587884258115,
          0.6696987290998206)),
        ("smooth-laplace", 0.2, 0.5, None, False, NAN, (NAN, NAN, NAN, NAN)),
        ("smooth-laplace", 0.2, 2.0, None, True, 2.0933020437379493,
         (1.6203474791482095, 1.6262193205550268, 2.5444926217970205,
          1.3327925707196366)),
        ("smooth-gamma", 0.05, 0.5, None, True, 8.145472845209618,
         (4.489748304751021, 13.332577088615599, 7.599176892746769,
          7.5572472373304524)),
        ("smooth-gamma", 0.05, 2.0, None, True, 1.0869875746541064,
         (0.8962030335942939, 1.5251738861753095, 0.9531400939838445,
          1.228499511364151)),
        ("smooth-gamma", 0.2, 0.5, None, False, NAN, (NAN, NAN, NAN, NAN)),
        ("smooth-gamma", 0.2, 2.0, None, True, 4.9555096029280445,
         (1.7651706608760893, 4.875835824829607, 5.362792739184675,
          4.748421815510714)),
    ),
    "figure-2": (
        ("log-laplace", 0.05, 0.5, None, True, 0.8188676394727152,
         (0.4453938776124895, 0.6614315358260151, 0.8430246275071229,
          0.8973836227938263)),
        ("log-laplace", 0.05, 2.0, None, True, 0.9624073545036538,
         (0.7857420293729768, 0.9227600717790729, 0.9560720629623609,
          0.9839921477923133)),
        ("log-laplace", 0.2, 0.5, None, True, 0.6565235606852174,
         (0.5882560647712125, 0.551364590880269, 0.6811243354315268,
          0.6474874471334142)),
        ("log-laplace", 0.2, 2.0, None, True, 0.9298099842627018,
         (0.9202005584635395, 0.8975283510663637, 0.9289503046317482,
          0.933099256903926)),
        ("smooth-laplace", 0.05, 0.5, None, True, 0.8526458968954483,
         (0.7815402003388967, 0.6884655223039176, 0.8385364217141689,
          0.922679050757639)),
        ("smooth-laplace", 0.05, 2.0, None, True, 0.9740862764026421,
         (0.8613749519864184, 0.9446447274992795, 0.9701623819531096,
          0.9862574099980279)),
        ("smooth-laplace", 0.2, 0.5, None, False, NAN, (NAN, NAN, NAN, NAN)),
        ("smooth-laplace", 0.2, 2.0, None, True, 0.9476331825247977,
         (0.8025493455092971, 0.8946962191496312, 0.9475408621387564,
          0.969154680344883)),
        ("smooth-gamma", 0.05, 0.5, None, True, 0.622325800504407,
         (0.39917375823760853, 0.3901905381643931, 0.612008372764695,
          0.7086872810578027)),
        ("smooth-gamma", 0.05, 2.0, None, True, 0.9405260557564565,
         (0.7773383713048165, 0.8918640872328985, 0.9384561560430987,
          0.9705893464085023)),
        ("smooth-gamma", 0.2, 0.5, None, False, NAN, (NAN, NAN, NAN, NAN)),
        ("smooth-gamma", 0.2, 2.0, None, True, 0.7490609850932795,
         (0.42858656147616914, 0.725283237221442, 0.74279204237225,
          0.7528221396991416)),
    ),
    "finding-6": (
        ("truncated-laplace", None, 0.5, 20, True, 18.072128002300985,
         (25.730597132985178, 25.301056093554283, 14.768976086915604,
          20.54321026906674)),
        ("truncated-laplace", None, 2.0, 20, True, 10.003769126627423,
         (6.271899742592391, 10.168518403654911, 10.756652121198496,
          8.927867531501791)),
    ),
}

# (mechanism, epsilon) -> (l1_ratio, spearman); alpha=0.1, n_trials=2.
TABLE3_GOLDEN = {
    ("log-laplace", 1.0): (2.1717565065397153, 0.861473769904302),
    ("log-laplace", 2.0): (1.0652346714437761, 0.9533204538042617),
    ("log-laplace", 4.0): (0.6197295070570797, 0.9787941264818549),
    ("smooth-laplace", 1.0): (2.428029126389487, 0.9346852865863031),
    ("smooth-laplace", 2.0): (1.5427569573479891, 0.9707285100438112),
    ("smooth-laplace", 4.0): (0.3727678112701571, 0.9832656246952904),
    ("smooth-gamma", 1.0): (4.6678977564594, 0.6806584875548092),
    ("smooth-gamma", 2.0): (2.1400787505957712, 0.9096276280783625),
    ("smooth-gamma", 4.0): (1.2804476865810697, 0.9617724314103475),
}


def same_float(a, b):
    """Exact equality with NaN == NaN (golden comparisons are bit-level)."""
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) and math.isnan(b):
            return True
    return a == b


def run_figure_plan(session, name, **options):
    plan = figure_plan(
        name,
        session.config,
        fingerprint=session.snapshot_fingerprint,
        seed=session.config.seed,
    )
    return plan, run_plan(plan, session, merge_spend=False, **options)


def equivalence_plan(session, n_trials=400):
    """A 400-trial grid on the engine snapshot for statistical checks."""
    return grid_plan(
        "workload-1",
        "l1-ratio",
        ("smooth-gamma", "smooth-laplace", "log-laplace"),
        (0.05,),
        (1.0, 2.0),
        delta=0.05,
        n_trials=n_trials,
        fingerprint=session.snapshot_fingerprint,
        seed=11,
        tag="fused-equiv",
    )


class TestDefaultPathGolden:
    """The unfused path must stay byte-identical to the pre-fusion
    engine: every figure value pinned at full float precision."""

    @pytest.mark.parametrize("name", sorted(FIGURE_GOLDEN))
    def test_figure_values_bit_identical(self, session, name):
        _, outcome = run_figure_plan(session, name)
        golden = FIGURE_GOLDEN[name]
        assert len(outcome.points) == len(golden)
        for point, expected in zip(outcome.points, golden):
            mech, alpha, eps, theta, feasible, overall, by_stratum = expected
            assert point.mechanism == mech
            assert same_float(point.alpha, alpha)
            assert point.epsilon == eps
            assert point.theta == theta
            assert point.feasible == feasible
            assert same_float(point.overall, overall), (
                f"{name} {mech} α={alpha} ε={eps}: "
                f"{point.overall!r} != {overall!r}"
            )
            assert len(point.by_stratum) == len(by_stratum)
            for got, want in zip(point.by_stratum, by_stratum):
                assert same_float(got, want)

    def test_table3_values_bit_identical(self, session):
        rows = table3_rows(session, n_trials=2)
        assert len(rows) == len(TABLE3_GOLDEN)
        for row in rows:
            l1, rho = TABLE3_GOLDEN[(row["mechanism"], row["epsilon"])]
            assert row["feasible"] is True
            assert same_float(row["l1_ratio"], l1)
            assert same_float(row["spearman"], rho)


class TestFusedEquivalence:
    """Fused draws a different (shared) noise stream, so values differ
    from the unfused path but must agree statistically."""

    @pytest.fixture(scope="class")
    def paths(self, session):
        plan = equivalence_plan(session)
        unfused = run_plan(plan, session, merge_spend=False)
        fused = run_plan(plan, session, merge_spend=False, fused=True)
        return unfused, fused

    def test_overall_within_tolerance(self, paths):
        unfused, fused = paths
        for pu, pf in zip(unfused.points, fused.points):
            assert pf.feasible == pu.feasible
            if not pu.feasible:
                continue
            rel = abs(pf.overall - pu.overall) / pu.overall
            assert rel < 0.06, (pu.mechanism, pu.epsilon, rel)

    def test_strata_within_tolerance(self, paths):
        unfused, fused = paths
        for pu, pf in zip(unfused.points, fused.points):
            if not pu.feasible:
                continue
            for su, sf in zip(pu.by_stratum, pf.by_stratum):
                assert abs(sf - su) / su < 0.10, (pu.mechanism, pu.epsilon)

    def test_fused_is_deterministic(self, session, paths):
        _, fused = paths
        plan = equivalence_plan(session)
        again = run_plan(plan, session, merge_spend=False, fused=True)
        for a, b in zip(fused.points, again.points):
            assert points_identical(a, b)

    def test_fused_differs_from_unfused_stream(self, paths):
        """Sanity: fusion really does change the noise stream (a fused
        run silently falling back to per-point draws would pass the
        tolerance checks above)."""
        unfused, fused = paths
        assert any(
            pu.feasible and pf.overall != pu.overall
            for pu, pf in zip(unfused.points, fused.points)
        )

    def test_fused_spends_match_unfused(self, paths):
        """Fusion changes how noise is drawn, never what is debited."""
        unfused, fused = paths
        assert len(fused.spends) == len(unfused.spends)
        key = lambda e: (e.label, e.mechanism, e.epsilon, e.delta, e.mode)
        assert sorted(map(key, fused.spends)) == sorted(
            map(key, unfused.spends)
        )


class TestFusedStore:
    """Fused (family member) keys are disjoint from plain point keys:
    the two paths never serve each other's cached values."""

    def test_fused_run_ignores_unfused_cache(self, session, tmp_path):
        plan = equivalence_plan(session, n_trials=2)
        store = ResultStore(tmp_path)
        run_plan(plan, session, merge_spend=False, store=store, resume=True)
        fused = run_plan(
            plan,
            session,
            merge_spend=False,
            store=ResultStore(tmp_path),
            resume=True,
            fused=True,
        )
        assert fused.cache_hits == 0
        assert fused.computed == len(plan.points)

    def test_fused_resume_replays_fused_cache(self, session, tmp_path):
        plan = equivalence_plan(session, n_trials=2)
        store = ResultStore(tmp_path)
        first = run_plan(
            plan, session, merge_spend=False, store=store, resume=True,
            fused=True,
        )
        second = run_plan(
            plan,
            session,
            merge_spend=False,
            store=ResultStore(tmp_path),
            resume=True,
            fused=True,
        )
        assert second.computed == 0
        assert second.cache_hits == len(plan.points)
        assert not second.spends  # cache hits debit nothing
        for a, b in zip(first.points, second.points):
            assert points_identical(a, b)


def spend_key(entry):
    return (entry.label, entry.mechanism, entry.epsilon, entry.delta, entry.mode)


def new_entries(session, run):
    """Run ``run()``; its result and the ledger entries it recorded."""
    before = len(session.ledger.entries)
    result = run()
    return result, session.ledger.entries[before:]


def same_row(a, b):
    return a.keys() == b.keys() and all(
        same_float(a[name], b[name]) for name in a
    )


class TestFusedTable3:
    """Fused Table 3: one family draw per mechanism serves both metrics
    of every (α, ε) row, debiting exactly what the default path debits."""

    @pytest.fixture(scope="class")
    def runs(self, session):
        default = new_entries(session, lambda: table3_rows(session, n_trials=2))
        fused = new_entries(
            session, lambda: table3_rows(session, n_trials=2, fused=True)
        )
        return default, fused

    def test_rows_in_default_order_and_feasibility(self, runs):
        (default, _), (fused, _) = runs
        assert len(fused) == len(default)
        for d, f in zip(default, fused):
            assert (f["mechanism"], f["alpha"], f["epsilon"]) == (
                d["mechanism"], d["alpha"], d["epsilon"],
            )
            assert f["feasible"] == d["feasible"]
            if f["feasible"]:
                assert math.isfinite(f["l1_ratio"])
                assert math.isfinite(f["spearman"])

    def test_spends_match_default(self, runs):
        (_, default_spent), (_, fused_spent) = runs
        assert default_spent
        assert sorted(map(spend_key, fused_spent)) == sorted(
            map(spend_key, default_spent)
        )

    def test_resume_replays_every_row_for_free(self, session, runs, tmp_path):
        first = table3_rows(
            session, n_trials=2, fused=True, store=ResultStore(tmp_path)
        )
        again, spent = new_entries(
            session,
            lambda: table3_rows(
                session,
                n_trials=2,
                fused=True,
                store=ResultStore(tmp_path),
                resume=True,
            ),
        )
        assert spent == []
        assert all(map(same_row, first, again))

    def test_fresh_runs_identical(self, session, runs):
        _, (fused, _) = runs
        again = table3_rows(session, n_trials=2, fused=True)
        assert all(map(same_row, fused, again))


class TestFusedFigures:
    """End-to-end fused runs of the published plans."""

    def test_finding6_fused_equals_unfused(self, session):
        """Truncated-laplace points are not fusable: the fused runner
        routes them through the ordinary path, bit-identically."""
        _, unfused = run_figure_plan(session, "finding-6")
        _, fused = run_figure_plan(session, "finding-6", fused=True)
        for a, b in zip(unfused.points, fused.points):
            assert points_identical(a, b)

    def test_figure1_fused_feasibility_matches(self, session):
        _, fused = run_figure_plan(session, "figure-1", fused=True)
        golden = FIGURE_GOLDEN["figure-1"]
        assert len(fused.points) == len(golden)
        for point, expected in zip(fused.points, golden):
            assert point.mechanism == expected[0]
            assert point.epsilon == expected[2]
            assert point.feasible == expected[4]

    def test_profile_breakdown_populated(self, session):
        plan = equivalence_plan(session, n_trials=2)
        outcome = run_plan(plan, session, merge_spend=False, profile=True)
        prof = outcome.profile
        assert set(prof) == {
            "draw_s", "reduce_s", "store_s", "other_s", "total_s"
        }
        assert prof["total_s"] > 0
        assert prof["draw_s"] >= 0 and prof["reduce_s"] >= 0
        assert prof["total_s"] >= prof["draw_s"] + prof["reduce_s"]
