"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_algorithm_and_n(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--n", "5"])

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--algorithm", "nope", "--n", "5"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "orchestra" in out and "k-cycle" in out and "spray" in out

    def test_run_stable_configuration_returns_zero(self, capsys):
        code = main(
            [
                "run",
                "--algorithm", "count-hop",
                "--n", "5",
                "--rho", "0.4",
                "--rounds", "2000",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "STABLE" in out

    def test_run_unstable_configuration_returns_two(self):
        code = main(
            [
                "run",
                "--algorithm", "k-clique",
                "--n", "6",
                "--k", "2",
                "--adversary", "single-target",
                "--rho", "0.9",
                "--rounds", "4000",
            ]
        )
        assert code == 2

    def test_run_negotiation_reports_decline_reasons(self, capsys):
        """--negotiation surfaces *why* blocks were declined, one line
        per driver reason, not just the fallback count."""
        code = main(
            [
                "run",
                "--algorithm", "count-hop",
                "--n", "6",
                "--rho", "0.4",
                "--rounds", "1500",
                "--negotiation",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "block_decline_reasons:" in out
        assert "Report substage is adaptive" in out
        # Reasons are prefixed with their occurrence count.
        assert any(
            line.strip()[0].isdigit() and "x " in line
            for line in out.splitlines()
            if "Report substage" in line
        )

    def test_run_negotiation_reports_adjust_window_lowering(self, capsys):
        """Adjust-Window compiles blocks and lowers its Main and Auxiliary
        stages; --negotiation shows both.  Four windows, as Table 1 runs
        it (the backlog of the first window drains from the second on)."""
        code = main(
            [
                "run",
                "--algorithm", "adjust-window",
                "--n", "3",
                "--rho", "0.4",
                "--rounds", "32768",
                "--negotiation",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "block_compilation: True" in out
        lowered = [
            int(line.split(":")[1])
            for line in out.splitlines()
            if line.strip().startswith("lowered_rounds:")
        ]
        assert lowered and lowered[0] > 0

    def test_run_oblivious_algorithm_requires_k(self):
        with pytest.raises(SystemExit):
            main(["run", "--algorithm", "k-cycle", "--n", "9", "--rounds", "100"])

    def test_sweep(self, capsys):
        code = main(
            [
                "sweep",
                "--algorithm", "count-hop",
                "--n", "5",
                "--rates", "0.2,0.5",
                "--rounds", "1500",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "series: count-hop" in out
        assert out.count("stable") + out.count("UNSTABLE") >= 2

    @pytest.mark.parallel
    def test_sweep_parallel_matches_serial(self, capsys):
        argv = [
            "sweep",
            "--algorithm", "count-hop",
            "--n", "4",
            "--rates", "0.2,0.4,0.6",
            "--rounds", "600",
        ]
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + ["--workers", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert parallel_out == serial_out

    def test_sweep_with_cache_dir_reuses_runs(self, capsys, tmp_path):
        argv = [
            "sweep",
            "--algorithm", "count-hop",
            "--n", "4",
            "--rates", "0.3",
            "--rounds", "500",
            "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert len(list(tmp_path.glob("*.pkl"))) == 1
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_sweep_fault_tolerant_flags_match_plain_run(self, capsys, tmp_path):
        base = [
            "sweep",
            "--algorithm", "count-hop",
            "--n", "4",
            "--rates", "0.2,0.5",
            "--rounds", "500",
        ]
        assert main(base) == 0
        plain = capsys.readouterr().out
        manifest_path = tmp_path / "manifest.json"
        assert main(
            base
            + [
                "--max-retries", "2",
                "--spec-timeout", "120",
                "--manifest", str(manifest_path),
            ]
        ) == 0
        assert capsys.readouterr().out == plain  # supervision changes nothing
        manifest = json.loads(manifest_path.read_text())
        assert len(manifest["entries"]) == 2
        assert all(e["status"] == "done" for e in manifest["entries"].values())

    def test_sweep_resume_requires_manifest(self):
        with pytest.raises(SystemExit, match="--resume requires --manifest"):
            main(
                [
                    "sweep",
                    "--algorithm", "count-hop",
                    "--n", "4",
                    "--rates", "0.2",
                    "--resume",
                ]
            )

    def test_sweep_resume_skips_quarantined_points(self, capsys, tmp_path):
        manifest_path = tmp_path / "manifest.json"
        argv = [
            "sweep",
            "--algorithm", "count-hop",
            "--n", "4",
            "--rates", "0.3",
            "--rounds", "400",
            "--adversary", "single-target",
            "--max-retries", "0",
            "--manifest", str(manifest_path),
        ]
        # Pre-record the sweep's only point as failed, as an interrupted
        # fault-tolerant run would have; --resume must surface it as a
        # FAILED row (exit 3) without re-executing.
        from repro.cli import _adversary_fragment, _algorithm_fragment
        from repro.sim import FailedResult, SweepManifest
        from repro.sim.specs import RunSpec

        spec = RunSpec.from_fragments(
            _algorithm_fragment("count-hop", 4, None),
            _adversary_fragment("single-target", 0.3, 2.0, None),
            400,
            label="count-hop[rho=0.3]",
        )
        manifest = SweepManifest(manifest_path)
        manifest.record_failed(
            spec,
            FailedResult(
                spec=spec, error="boom", error_type="TransientFault", attempts=1
            ),
        )
        assert main(argv + ["--resume"]) == 3
        captured = capsys.readouterr()
        assert "FAILED after 1 attempt(s): TransientFault: boom" in captured.out
        assert "1 point(s) quarantined" in captured.err

    def test_sweep_help_documents_fault_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--help"])
        out = capsys.readouterr().out
        for flag in ("--max-retries", "--spec-timeout", "--manifest", "--resume"):
            assert flag in out

    def test_run_seed_changes_stochastic_traffic(self, capsys):
        def run_with_seed(seed):
            code = main(
                [
                    "run",
                    "--algorithm", "count-hop",
                    "--n", "5",
                    "--adversary", "random",
                    "--rho", "0.5",
                    "--rounds", "800",
                    "--seed", seed,
                ]
            )
            assert code == 0
            return capsys.readouterr().out

        assert "seed=3" in run_with_seed("3")
        assert run_with_seed("3") == run_with_seed("3")
        assert run_with_seed("3") != run_with_seed("4")

    def test_list_includes_registry_adversaries(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("hotspot", "random-walk", "group-local", "saturating"):
            assert name in out


class TestShardFlag:
    def test_parse_shard_accepts_i_slash_k(self):
        args = build_parser().parse_args(
            ["sweep", "--algorithm", "k-cycle", "--n", "4", "--k", "2",
             "--shard", "1/3"]
        )
        assert args.shard == (1, 3)

    @pytest.mark.parametrize("bad", ["3/3", "-1/3", "0/0", "abc", "1"])
    def test_parse_shard_rejects_invalid(self, bad):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "--algorithm", "k-cycle", "--n", "4", "--k", "2",
                 "--shard", bad]
            )

    def test_sweep_shards_union_to_the_full_sweep(self, capsys, tmp_path):
        """CLI shards against a shared cache cover exactly the full sweep."""
        base = [
            "sweep", "--algorithm", "k-cycle", "--n", "4", "--k", "2",
            "--rates", "0.1,0.2,0.3,0.4,0.5", "--rounds", "400",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        rows = []
        for i in range(2):
            assert main(base + ["--shard", f"{i}/2"]) == 0
            out = capsys.readouterr().out
            rows.extend(
                line for line in out.splitlines() if line.strip().startswith("0.")
            )
        assert main(base) == 0  # full sweep: every point is a cache hit
        full_out = capsys.readouterr().out
        full_rows = [
            line for line in full_out.splitlines() if line.strip().startswith("0.")
        ]
        assert sorted(rows) == sorted(full_rows)
        assert len(full_rows) == 5


class TestDistributedCommands:
    def test_worker_requires_server(self):
        # --server is the only worker transport: without it, and with the
        # removed shared-filesystem flags, the command is a usage error.
        for argv in (
            ["worker"],
            ["worker", "--queue-dir", "q"],
            ["worker", "--server", "http://x:1", "--queue-dir", "q"],
            ["worker", "--server", "http://x:1", "--cache-dir", "c"],
            ["worker", "--server", "http://x:1", "--cache-url", "http://x:1"],
        ):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv)
            assert exc.value.code == 2

    def test_serve_requires_queue_dir(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_submit_requires_server(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["submit", "--algorithm", "k-cycle", "--n", "4", "--k", "2"]
            )

    def test_worker_drains_an_enqueued_sweep(self, capsys, tmp_path, monkeypatch):
        import threading

        from repro.sim import RunSpec, SweepService, make_server, spec_fragment

        # The real CLI marks its whole process a disposable worker (so
        # kill coins os._exit it); running in-process here, that flag
        # would leak into every later test in this pytest process.
        monkeypatch.setattr("repro.cli.mark_worker_process", lambda: None)
        service = SweepService(
            tmp_path / "q", tmp_path / "cache",
            lease_ttl=5.0, fallback_after=60.0, poll=0.05,
        )
        server = make_server(service, "127.0.0.1", 0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        specs = [
            RunSpec.from_fragments(
                spec_fragment("k-cycle", n=4, k=2),
                spec_fragment("spray", rho=0.2, beta=1.5),
                300,
            )
        ]
        try:
            job = service.submit(specs, shard_size=1)
            code = main(
                ["worker", "--server", f"http://127.0.0.1:{server.server_address[1]}",
                 "--spill-dir", str(tmp_path / "spill"),
                 "--poll", "0.05", "--exit-when-drained"]
            )
            assert code == 0
            assert "1/1 shards" in capsys.readouterr().err
            assert service.queue.drained()
            assert service.cache.get(specs[0]) is not None
            assert service.wait(job, timeout=30)
            assert job.served_locally == 0
        finally:
            service.close()
            server.shutdown()
            server.server_close()

    def test_submit_round_trips_through_a_live_server(self, capsys, tmp_path):
        import threading

        from repro.sim import SweepService, make_server

        service = SweepService(
            tmp_path / "q", tmp_path / "cache",
            shard_size=2, fallback_after=0.2, poll=0.05,
        )
        server = make_server(service, "127.0.0.1", 0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            code = main(
                ["submit",
                 "--server", f"http://127.0.0.1:{server.server_address[1]}",
                 "--algorithm", "k-cycle", "--n", "4", "--k", "2",
                 "--rates", "0.1,0.3", "--rounds", "300"]
            )
        finally:
            service.close()
            server.shutdown()
            server.server_close()
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("STABLE") + out.count("UNSTABLE") == 2
