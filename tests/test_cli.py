"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main, run_figures, run_tables


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figures_defaults(self):
        args = build_parser().parse_args(["figures"])
        assert args.trials == 10
        assert args.jobs == 150_000

    def test_tables_gains_session_knobs(self):
        args = build_parser().parse_args(
            ["tables", "--jobs", "4000", "--seed", "9", "--trials", "2"]
        )
        assert args.jobs == 4000
        assert args.seed == 9
        assert args.trials == 2

    def test_generate_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate"])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        assert out.split()[1][0].isdigit()

    def test_release_defaults(self):
        args = build_parser().parse_args(["release"])
        assert args.mechanism == "smooth-laplace"
        assert args.attrs == "place,naics,ownership"
        assert args.alpha == 0.1

    def test_release_top_must_be_non_negative(self, capsys):
        assert build_parser().parse_args(["release", "--top", "0"]).top == 0
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["release", "--top", "-2"])
        assert excinfo.value.code == 2
        assert "--top: must be >= 0, got -2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "figures", "tables"])
    def test_fused_modes(self, command):
        base = [command]
        assert build_parser().parse_args(base).fused is False
        assert build_parser().parse_args(base + ["--fused"]).fused == "family"
        assert (
            build_parser().parse_args(base + ["--fused", "family"]).fused
            == "family"
        )
        for gone in ("group", "bogus"):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(base + ["--fused", gone])
            assert excinfo.value.code == 2

    @pytest.mark.parametrize("command", ["sweep", "figures", "tables"])
    def test_claim_ttl_accepts_positive_seconds(self, command):
        args = build_parser().parse_args(
            [command, "--claim", "--claim-ttl", "30"]
        )
        assert args.claim is True
        assert args.claim_ttl == 30.0

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-5"])
    def test_claim_ttl_must_be_finite_and_positive(self, capsys, value):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["sweep", "--claim", "--claim-ttl", value]
            )
        assert excinfo.value.code == 2
        assert "--claim-ttl: must be a finite number" in capsys.readouterr().err


class TestCommands:
    def test_tables_command(self, tmp_path):
        code = main(
            [
                "tables",
                "--out", str(tmp_path),
                "--jobs", "4000",
                "--trials", "2",
            ]
        )
        assert code == 0
        assert (tmp_path / "table-1.txt").exists()
        assert "Yes*" in (tmp_path / "table-1.txt").read_text(encoding="utf-8")
        assert (tmp_path / "table-2.txt").exists()
        table3 = (tmp_path / "table-3.txt").read_text(encoding="utf-8")
        assert "smooth-laplace" in table3
        assert "L1 ratio" in table3

    def test_tables_claim_needs_the_result_store(self, tmp_path):
        with pytest.raises(SystemExit, match="drop --no-cache"):
            main(
                [
                    "tables",
                    "--out", str(tmp_path),
                    "--jobs", "4000",
                    "--trials", "2",
                    "--no-snapshots",
                    "--claim",
                    "--no-cache",
                ]
            )

    def test_claim_without_cache_is_refused_before_the_session(
        self, tmp_path, monkeypatch
    ):
        # The usage error must not wait for a snapshot open and SDL fit.
        def no_session(*args, **kwargs):
            raise AssertionError("the session was built before the flags")

        monkeypatch.setattr("repro.cli._session_from_args", no_session)
        with pytest.raises(SystemExit, match="drop --no-cache"):
            main(["tables", "--out", str(tmp_path), "--claim", "--no-cache"])

    def test_figures_subset(self, tmp_path):
        code = main(
            [
                "figures",
                "--out", str(tmp_path),
                "--jobs", "5000",
                "--trials", "2",
                "--only", "figure-1",
            ]
        )
        assert code == 0
        report = (tmp_path / "figure-1.txt").read_text(encoding="utf-8")
        assert "smooth-laplace" in report
        assert not (tmp_path / "figure-2.txt").exists()

    def test_figures_refuses_trials_batch(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "figures",
                    "--out", str(tmp_path),
                    "--jobs", "2000",
                    "--trials", "1",
                    "--only", "figure-1",
                    "--no-cache",
                    "--trials-batch", "5",
                ]
            )
        assert excinfo.value.code == 2
        assert "--trials-batch" in capsys.readouterr().err

    def test_figures_unknown_name(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown figures"):
            main(["figures", "--out", str(tmp_path), "--only", "figure-9"])

    def test_release_command_prints_marginal_and_ledger(self, capsys):
        code = main(
            [
                "release",
                "--jobs", "4000",
                "--attrs", "place,naics",
                "--mechanism", "smooth-laplace",
                "--alpha", "0.1",
                "--epsilon", "2",
                "--delta", "0.05",
                "--budget", "4",
                "--top", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "released" in out
        assert "privacy ledger" in out
        assert "utilization 50.0%" in out

    def test_release_command_top_zero_prints_no_rows(self, capsys):
        code = main(["release", "--jobs", "4000", "--top", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "top 0 released cells" in out
        assert "top 1 released cells" not in out

    def test_release_command_truncated_laplace(self, capsys):
        code = main(
            [
                "release",
                "--jobs", "4000",
                "--attrs", "place",
                "--mechanism", "truncated-laplace",
                "--epsilon", "2",
                "--theta", "50",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "node-dp" in out or "truncated-laplace" in out

    def test_release_command_rejects_bad_request(self):
        with pytest.raises(SystemExit, match="invalid release request"):
            main(
                [
                    "release",
                    "--jobs", "4000",
                    "--mechanism", "gaussian",
                ]
            )

    def test_generate_command(self, tmp_path):
        code = main(
            [
                "generate",
                "--out", str(tmp_path / "snap"),
                "--jobs", "2000",
                "--seed", "3",
            ]
        )
        assert code == 0
        assert (tmp_path / "snap" / "worker.csv").exists()

    def test_generated_snapshot_loads(self, tmp_path):
        from repro.data.io import load_dataset

        main(["generate", "--out", str(tmp_path / "s"), "--jobs", "2000"])
        dataset = load_dataset(tmp_path / "s")
        assert dataset.n_jobs > 0


class TestSharedSession:
    def test_run_figures_and_tables_share_a_session(self, tmp_path):
        """One snapshot can serve both artifact families in one invocation."""
        from repro.api import ReleaseSession
        from repro.data import SyntheticConfig
        from repro.experiments import ExperimentConfig

        session = ReleaseSession(
            ExperimentConfig(
                data=SyntheticConfig(target_jobs=4000, seed=5),
                n_trials=2,
                seed=5,
            )
        )
        figures_args = build_parser().parse_args(
            ["figures", "--out", str(tmp_path), "--only", "figure-1"]
        )
        tables_args = build_parser().parse_args(
            ["tables", "--out", str(tmp_path), "--trials", "2"]
        )
        run_figures(figures_args, session=session)
        run_tables(tables_args, session=session)
        assert (tmp_path / "figure-1.txt").exists()
        assert (tmp_path / "table-3.txt").exists()
        # The figure grid and the table rows all debited one ledger.
        assert len(session.ledger.entries) > 12


class TestScenariosCommand:
    def test_build_sharded_then_cached(self, tmp_path, capsys):
        store_dir = str(tmp_path / "snaps")
        code = main(
            [
                "scenarios", "build", "panel-5yr",
                "--snapshot-dir", store_dir,
                "--workers", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "built panel-5yr" in out
        assert "sharded over 2 workers" in out
        # Second invocation is a cache hit, not a rebuild.
        main(["scenarios", "build", "panel-5yr", "--snapshot-dir", store_dir])
        assert "already built" in capsys.readouterr().out

    def test_sharded_cli_build_matches_sequential(self, tmp_path):
        from repro.scenarios import dataset_fingerprint, scenario_config
        from tests.scenarios.test_sharded import assert_snapshot_dirs_identical

        sequential = tmp_path / "seq"
        sharded = tmp_path / "sharded"
        main(["scenarios", "build", "panel-5yr", "--snapshot-dir", str(sequential)])
        main(
            [
                "scenarios", "build", "panel-5yr",
                "--snapshot-dir", str(sharded),
                "--workers", "2",
            ]
        )
        fingerprint = dataset_fingerprint(scenario_config("panel-5yr"))
        assert_snapshot_dirs_identical(
            sequential / fingerprint, sharded / fingerprint
        )

    def test_prune_all(self, tmp_path, capsys):
        root = tmp_path / "snaps"
        root.mkdir()
        staging = root / ".abcd.tmp-live"
        staging.mkdir()
        (staging / "worker__age.npy").write_bytes(b"partial")
        # Age-gated prune leaves the fresh dir; --all removes it.
        code = main(["scenarios", "prune", "--snapshot-dir", str(root)])
        assert code == 0
        assert staging.exists()
        assert "0 stale staging dir(s)" in capsys.readouterr().out
        code = main(["scenarios", "prune", "--all", "--snapshot-dir", str(root)])
        assert code == 0
        assert not staging.exists()
        assert "1 stale staging dir(s)" in capsys.readouterr().out

    def test_prune_default_reports_stale_dirs(self, tmp_path, capsys):
        import os
        import time

        root = tmp_path / "snaps"
        root.mkdir()
        stale = root / ".abcd.tmp-crashed"
        stale.mkdir()
        old = time.time() - 7 * 24 * 3600
        os.utime(stale, (old, old))
        code = main(["scenarios", "prune", "--snapshot-dir", str(root)])
        assert code == 0
        assert not stale.exists()
        out = capsys.readouterr().out
        assert f"pruned {stale}" in out
        assert "1 stale staging dir(s)" in out

    def test_build_requires_a_name(self, tmp_path):
        with pytest.raises(SystemExit, match="needs a scenario name"):
            main(["scenarios", "build", "--snapshot-dir", str(tmp_path)])


class TestPanelBuildCommand:
    def test_build_panel_then_cached(self, tmp_path, capsys):
        store_dir = str(tmp_path / "snaps")
        code = main(
            [
                "scenarios", "build", "panel-5yr", "--panel",
                "--years", "2",
                "--snapshot-dir", store_dir,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "built panel-5yr panel: 2 year(s)" in out
        assert "resumable at year granularity" in out
        # Second invocation is a hit on the complete panel, not a rebuild.
        main(
            [
                "scenarios", "build", "panel-5yr", "--panel",
                "--years", "2",
                "--snapshot-dir", store_dir,
            ]
        )
        assert "panel already built" in capsys.readouterr().out
        # a different year count is a different panel (fresh fingerprint):
        main(
            [
                "scenarios", "build", "panel-5yr", "--panel",
                "--years", "3",
                "--snapshot-dir", store_dir,
            ]
        )
        assert "built panel-5yr panel: 3 year(s)" in capsys.readouterr().out


class TestStoreUrl:
    def test_scenarios_build_into_remote(self, tmp_path, capsys):
        bucket = tmp_path / "bucket"
        code = main(
            [
                "scenarios", "build", "panel-5yr",
                "--snapshot-dir", str(tmp_path / "cache-a"),
                "--store-url", f"file://{bucket}",
            ]
        )
        assert code == 0
        assert "built panel-5yr" in capsys.readouterr().out
        # A second "machine" (fresh cache root, same bucket) sees the
        # snapshot without rebuilding it.
        main(
            [
                "scenarios", "build", "panel-5yr",
                "--snapshot-dir", str(tmp_path / "cache-b"),
                "--store-url", f"file://{bucket}",
            ]
        )
        assert "already built" in capsys.readouterr().out

    def test_bad_store_url_is_a_clean_exit(self, tmp_path):
        with pytest.raises(SystemExit, match="cloud SDK"):
            main(
                [
                    "scenarios", "build", "panel-5yr",
                    "--snapshot-dir", str(tmp_path),
                    "--store-url", "s3://bucket",
                ]
            )


class TestStorageCommand:
    def test_stats_on_empty_roots(self, tmp_path, capsys):
        code = main(
            [
                "storage", "stats",
                "--snapshot-dir", str(tmp_path / "snaps"),
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "storage backends (local)" in out
        assert "0 snapshot(s), 0 panel(s)" in out
        assert "0 point(s)" in out
        assert "session stats:" in out

    def test_stats_counts_built_artifacts(self, tmp_path, capsys):
        from repro.engine.store import ResultStore

        snaps = tmp_path / "snaps"
        main(["scenarios", "build", "panel-5yr", "--snapshot-dir", str(snaps)])
        ResultStore(tmp_path / "cache").put("ab" + "0" * 62, {"value": 1})
        capsys.readouterr()
        main(
            [
                "storage", "stats",
                "--snapshot-dir", str(snaps),
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        out = capsys.readouterr().out
        assert "1 snapshot(s), 0 panel(s)" in out
        assert "1 point(s)" in out

    def test_serve_and_stats_over_http(self, tmp_path, capsys):
        from repro.storage.httpd import ObjectServer

        with ObjectServer() as server:
            code = main(
                [
                    "storage", "stats",
                    "--snapshot-dir", str(tmp_path / "snap-cache"),
                    "--cache-dir", str(tmp_path / "result-cache"),
                    "--store-url", server.url,
                ]
            )
            assert code == 0
        out = capsys.readouterr().out
        assert f"remote: {server.url}" in out


class TestImportCost:
    """``import repro.cli`` loads only what every command needs; the
    rest loads inside the functions that use it."""

    @pytest.fixture(scope="class")
    def loaded(self):
        """The modules ``import repro.cli`` leaves in ``sys.modules``."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        probe = (
            "import sys, repro.cli; names = sorted(sys.modules); "
            "import json; print(json.dumps(names))"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        return set(json.loads(result.stdout))

    def test_cli_import_loads_no_scipy(self, loaded):
        scipy = [m for m in loaded if m == "scipy" or m.startswith("scipy.")]
        assert scipy == []

    def test_cli_import_loads_no_network_or_async_stack(self, loaded):
        """The HTTP store, the service's event loop and process pools
        import what they need when they first run."""
        lazy = {
            "asyncio",
            "urllib.request",
            "http.client",
            "concurrent.futures.process",
        }
        assert sorted(lazy & loaded) == []
