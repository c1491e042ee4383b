"""End-to-end tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_slice_defaults(self):
        args = build_parser().parse_args(["slice", "out.gcode"])
        assert args.printer == "UM3"
        assert args.attack is None

    def test_campaign_options(self):
        args = build_parser().parse_args(
            ["campaign", "--printer", "RM3", "--transform", "Spectro."]
        )
        assert args.printer == "RM3"
        assert args.transform == "Spectro."

    def test_bad_printer_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["slice", "--printer", "Prusa", "x"])


class TestSliceCommand:
    def test_writes_gcode(self, tmp_path):
        out = tmp_path / "gear.gcode"
        assert main(["slice", str(out), "--height", "0.4"]) == 0
        text = out.read_text()
        assert "G28" in text
        assert "G1" in text

    def test_attack_changes_gcode(self, tmp_path):
        benign = tmp_path / "benign.gcode"
        attacked = tmp_path / "void.gcode"
        main(["slice", str(benign), "--height", "0.4"])
        main(["slice", str(attacked), "--height", "0.4", "--attack", "Void"])
        assert benign.read_text() != attacked.read_text()

    def test_unknown_attack_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown attack"):
            main(["slice", str(tmp_path / "x.gcode"), "--attack", "Nuke"])


class TestSimulateCommand:
    def test_produces_npz(self, tmp_path):
        gcode = tmp_path / "gear.gcode"
        main(["slice", str(gcode), "--height", "0.4"])
        run_dir = tmp_path / "run"
        code = main(
            ["simulate", str(gcode), str(run_dir), "--height", "0.4",
             "--channels", "ACC,MAG", "--seed", "5"]
        )
        assert code == 0
        assert (run_dir / "ACC.npz").exists()
        assert (run_dir / "MAG.npz").exists()


class TestTrainDetectRoundtrip:
    @pytest.fixture(scope="class")
    def workspace(self, tmp_path_factory):
        """Train once per class; CLI training simulates several prints."""
        root = tmp_path_factory.mktemp("cli")
        gcode = root / "gear.gcode"
        main(["slice", str(gcode), "--height", "0.4"])
        main(["simulate", str(gcode), str(root / "benign"),
              "--height", "0.4", "--seed", "91"])
        attacked = root / "speed.gcode"
        main(["slice", str(attacked), "--height", "0.4",
              "--attack", "Speed0.95"])
        main(["simulate", str(attacked), str(root / "malicious"),
              "--height", "0.4", "--seed", "92"])
        main(["train", str(root / "model"), "--height", "0.4",
              "--runs", "6", "--r", "0.5"])
        return root

    def test_model_files_written(self, workspace):
        model = workspace / "model"
        assert (model / "reference.npz").exists()
        assert (model / "thresholds.json").exists()
        assert (model / "dwm_params.json").exists()

    def test_model_is_a_serve_model(self, workspace):
        """train writes the one model directory layout serve loads."""
        from repro.eval import default_setup
        from repro.serve.model import ServeModel

        model = workspace / "model"
        assert (model / "serve.json").exists()
        loaded = ServeModel.from_dir(model)
        assert loaded.metric == "correlation"
        assert loaded.filter_window == 3
        assert loaded.params == default_setup("UM3", 0.4).dwm_params

    def test_stream_rejects_sample_rate_mismatch(self, workspace, tmp_path):
        """--stream checks the rate like the one-push path does."""
        from repro.io import load_signal, save_signal
        from repro.signals import Signal

        signal = load_signal(workspace / "benign" / "ACC.npz")
        wrong = tmp_path / "wrong_rate.npz"
        save_signal(Signal(signal.data, 2 * signal.sample_rate), wrong)
        for extra in ([], ["--stream", "--chunk-s", "0.2"]):
            with pytest.raises(SystemExit, match="repro detect: sample rates"):
                main(["detect", *extra, str(workspace / "model"), str(wrong)])

    def test_benign_passes(self, workspace, capsys):
        code = main(
            ["detect", str(workspace / "model"),
             str(workspace / "benign" / "ACC.npz")]
        )
        assert code == 0
        assert "ok" in capsys.readouterr().out

    def test_attack_detected_with_nonzero_exit(self, workspace, capsys):
        code = main(
            ["detect", str(workspace / "model"),
             str(workspace / "malicious" / "ACC.npz")]
        )
        assert code == 1
        assert "INTRUSION" in capsys.readouterr().out


class TestReportParser:
    def test_report_options(self):
        args = build_parser().parse_args(
            ["report", "out.md", "--train", "3", "--test", "2"]
        )
        assert args.output == "out.md"
        assert args.train == 3
        assert args.func.__name__ == "cmd_report"

    def test_obs_flags_parsed(self):
        args = build_parser().parse_args(
            ["report", "out.md", "--trace", "--metrics-out", "m.json"]
        )
        assert args.trace is True
        assert args.metrics_out == "m.json"


class TestMetricsExport:
    @pytest.fixture
    def clean_obs(self):
        """main() enables tracing globally; restore and wipe afterwards."""
        from repro import obs

        was_enabled = obs.enabled()
        obs.reset()
        yield obs
        obs.reset()
        if was_enabled:
            obs.enable()
        else:
            obs.disable()

    def test_report_metrics_out_schema(self, tmp_path, clean_obs):
        """``repro report --metrics-out`` must emit per-stage span JSON."""
        import json

        out = tmp_path / "report.md"
        metrics = tmp_path / "metrics.json"
        code = main(
            ["report", str(out), "--height", "0.4", "--train", "1",
             "--test", "1", "--attack-runs", "1", "--workers", "0",
             "--metrics-out", str(metrics)]
        )
        assert code == 0
        doc = json.loads(metrics.read_text())

        # Top-level schema of the exported registry.
        assert set(doc) == {
            "version", "counters", "gauges", "histograms", "spans"
        }
        assert doc["version"] == clean_obs.SNAPSHOT_VERSION
        assert all(
            isinstance(v, (int, float)) for v in doc["counters"].values()
        )
        for summary in doc["histograms"].values():
            assert {"count", "mean", "min", "max", "p50", "p90", "p99"} \
                <= set(summary)
        for stats in doc["spans"].values():
            assert {"count", "errors", "wall_total_s", "wall_min_s",
                    "wall_max_s", "cpu_total_s"} <= set(stats)
            assert stats["count"] >= 1

        # Per-stage spans for every hot layer of the pipeline.
        spans = doc["spans"]
        for needle in (
            "repro.eval.engine.execute",
            "repro.printer.firmware.run",
            "repro.sync.dwm.window",
            "repro.core.pipeline.analyze",
        ):
            assert any(needle in name for name in spans), needle

        # The engine counters made it out too, and the report gained the
        # Table-10-style overhead section.
        assert "repro.eval.engine.simulated" in doc["counters"]
        report_text = out.read_text()
        assert "## Processing-time overhead" in report_text
        assert "## Alarm localization (forensics)" in report_text
        assert "Localization accuracy:" in report_text


class TestForensicsWorkflow:
    """detect --json/--events-out -> validate -> explain round trip."""

    @pytest.fixture(scope="class")
    def workspace(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("forensics")
        attacked = root / "speed.gcode"
        main(["slice", str(attacked), "--height", "0.4",
              "--attack", "Speed0.95"])
        main(["simulate", str(attacked), str(root / "malicious"),
              "--height", "0.4", "--seed", "92"])
        main(["train", str(root / "model"), "--height", "0.4",
              "--runs", "6", "--r", "0.5"])
        return root

    def test_detect_json_is_machine_readable(self, workspace, capsys):
        import json

        code = main(
            ["detect", "--json", str(workspace / "model"),
             str(workspace / "malicious" / "ACC.npz")]
        )
        assert code == 1  # exit code contract unchanged by --json
        doc = json.loads(capsys.readouterr().out)
        assert doc["is_intrusion"] is True
        assert doc["fired_submodules"]
        assert isinstance(doc["first_alarm_index"], int)
        assert doc["first_alarm_time"] > 0
        features = doc["features"]
        assert len(features["v_dist_filtered"]) == doc["n_windows"]
        assert set(doc["thresholds"]) == {"c_c", "h_c", "v_c", "d_c"}

    def test_detect_stream_matches_batch_verdict(self, workspace, capsys):
        """--stream drives the same engine chunk by chunk: identical JSON
        verdict and exit code."""
        import json

        code_batch = main(
            ["detect", "--json", str(workspace / "model"),
             str(workspace / "malicious" / "ACC.npz")]
        )
        batch = json.loads(capsys.readouterr().out)
        code_stream = main(
            ["detect", "--json", "--stream", "--chunk-s", "0.2",
             str(workspace / "model"),
             str(workspace / "malicious" / "ACC.npz")]
        )
        stream = json.loads(capsys.readouterr().out)
        assert code_stream == code_batch == 1
        assert stream == batch

    def test_detect_stream_with_telemetry_snapshot(
        self, workspace, tmp_path, capsys
    ):
        """Telemetry-enabled streaming detect writes a snapshot that
        ``repro top`` can render after the run finished."""
        import json

        from repro import obs
        from repro.obs import telemetry

        snap = tmp_path / "telemetry.json"
        was_enabled = obs.enabled()
        try:
            code = main(
                ["detect", "--stream", "--chunk-s", "0.2",
                 "--telemetry-snapshot", str(snap),
                 "--stream-id", "printer-A",
                 str(workspace / "model"),
                 str(workspace / "malicious" / "ACC.npz")]
            )
        finally:
            telemetry.reset_streams()
            obs.reset()
            if was_enabled:
                obs.enable()
            else:
                obs.disable()
        assert code == 1
        capsys.readouterr()
        doc = json.loads(snap.read_text())
        row = doc["streams"]["printer-A"]
        assert row["state"] == "finished"
        assert row["intrusion"] is True
        assert row["chunks"] > 0
        assert row["chunk_latency"]["count"] == row["chunks"]

        assert main(["top", "--snapshot", str(snap), "--once"]) == 0
        out = capsys.readouterr().out
        assert "printer-A" in out
        assert "finished" in out

    def test_events_out_writes_valid_schema_v1(self, workspace, tmp_path):
        from repro.obs import events as events_module

        path = tmp_path / "events.jsonl"
        main(["detect", "--events-out", str(path), str(workspace / "model"),
              str(workspace / "malicious" / "ACC.npz")])
        assert not events_module.enabled()  # CLI tears the log down
        records = events_module.read_jsonl(path)  # validates every record
        types = {r["type"] for r in records}
        assert {"window_evidence", "alarm", "run_summary"} <= types
        summary = records[-1]
        assert summary["type"] == "run_summary"
        assert summary["is_intrusion"] is True
        assert {"n_win", "n_hop", "sample_rate", "mode"} <= set(summary)

    def test_chrome_trace_flag_writes_perfetto_json(
        self, workspace, tmp_path
    ):
        import json

        from repro import obs

        path = tmp_path / "trace.json"
        main(["detect", "--chrome-trace", str(path), str(workspace / "model"),
              str(workspace / "malicious" / "ACC.npz")])
        obs.disable()  # --chrome-trace implies --trace; undo for other tests
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]
        names = {e["name"] for e in doc["traceEvents"]}
        assert any("repro.core.engine" in n for n in names)
        assert all(e["ph"] == "X" for e in doc["traceEvents"])

    def test_explain_renders_localizing_report(self, workspace, tmp_path):
        events_path = tmp_path / "events.jsonl"
        main(["detect", "--events-out", str(events_path),
              str(workspace / "model"),
              str(workspace / "malicious" / "ACC.npz")])
        report = tmp_path / "incident.md"
        code = main(
            ["explain", str(events_path), "--height", "0.4",
             "--attack", "Speed0.95", "--seed", "92",
             "--output", str(report)]
        )
        assert code == 0
        text = report.read_text()
        assert "INTRUSION" in text
        assert "Implicated instructions" in text
        # Speed0.95 tampers nearly the whole program, so a correct join
        # must land inside the ground-truth span.
        assert "localization correct" in text

    def test_explain_requires_attack_or_gcode(self, workspace, tmp_path):
        events_path = tmp_path / "events.jsonl"
        main(["detect", "--events-out", str(events_path),
              str(workspace / "model"),
              str(workspace / "malicious" / "ACC.npz")])
        with pytest.raises(SystemExit, match="--attack NAME or --gcode"):
            main(["explain", str(events_path), "--height", "0.4"])


class TestFaultsCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["faults"])
        assert args.channel == "ACC"
        assert args.detector == "both"
        assert args.max_dark_s == 1.0
        assert not args.json

    def test_bad_detector_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["faults", "--detector", "quantum"])

    def test_full_matrix_passes(self, capsys):
        rc = main(
            ["faults", "--height", "0.4", "--train", "2", "--workers", "0"]
        )
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "PASS" in out or "passed" in out

    def test_json_output(self, capsys):
        import json

        rc = main(
            [
                "faults", "--height", "0.4", "--train", "2", "--workers", "0",
                "--detector", "batch", "--json",
            ]
        )
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["all_passed"] is True
        assert doc["detectors"] == ["batch"]

    def test_summary_with_json_keeps_stdout_clean(self, capsys):
        import json
        import re

        rc = main(
            [
                "faults", "--height", "0.4", "--train", "2", "--workers", "0",
                "--detector", "batch", "--json", "--summary",
            ]
        )
        captured = capsys.readouterr()
        doc = json.loads(captured.out)  # stdout must stay parseable JSON
        assert rc == 0
        assert re.search(r"^\d+ cases, \d+ failed$", captured.err, re.M)
        assert doc["n_failed"] == 0

    def test_summary_without_json_prints_to_stdout(self, capsys):
        import re

        rc = main(
            [
                "faults", "--height", "0.4", "--train", "2", "--workers", "0",
                "--detector", "batch", "--summary",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert re.search(r"^\d+ cases, 0 failed$", captured.out, re.M)
        assert captured.err == ""


class TestDiffCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["diff"])
        assert args.pair == "all"
        assert args.seed == 0
        assert args.examples == 25
        assert args.bundle_dir == "diff-bundles"
        assert args.replay is None
        assert not args.json

    def test_bad_pair_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["diff", "--pair", "quantum"])

    def test_clean_pair_exits_zero(self, capsys):
        rc = main(["diff", "--pair", "comparator", "--examples", "3"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "comparator" in out and "OK" in out

    def test_json_report(self, capsys):
        import json

        rc = main(
            ["diff", "--pair", "dwm", "--examples", "3", "--seed", "5",
             "--json"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["ok"] is True
        assert doc["seed"] == 5
        assert [p["pair"] for p in doc["pairs"]] == ["dwm"]

    def test_divergence_exits_one_and_writes_bundle(
        self, tmp_path, monkeypatch, capsys
    ):
        import numpy as np

        from repro.sync.dwm import StreamingDwm

        orig = StreamingDwm._step

        def mutated(self, a_window):
            ok = orig(self, a_window)
            if ok and self._state.scores:
                self._state.scores[-1] = float(
                    np.nextafter(self._state.scores[-1], np.inf)
                )
            return ok

        monkeypatch.setattr(StreamingDwm, "_step", mutated)
        bundle_dir = tmp_path / "bundles"
        rc = main(
            ["diff", "--pair", "dwm", "--examples", "25",
             "--bundle-dir", str(bundle_dir)]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "DIVERGENCE in pair 'dwm'" in out
        bundle = bundle_dir / "bundle_dwm.json"
        assert bundle.exists()

        # The bundle replays to the same divergence while the fault is in,
        # and comes back clean once it is fixed.
        assert main(["diff", "--replay", str(bundle)]) == 1
        monkeypatch.undo()
        capsys.readouterr()
        assert main(["diff", "--replay", str(bundle)]) == 0
        assert "no divergence" in capsys.readouterr().out


class TestBenchCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["bench", "throughput"])
        assert args.target == "throughput"
        assert args.samples == 40_000
        assert args.chunk == 10
        assert args.repeats == 3

    def test_unknown_target_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "latency"])

    def test_throughput_prints_table(self, capsys, tmp_path):
        assert main([
            "bench", "throughput", "--samples", "1200", "--repeats", "1",
            "--baseline", str(tmp_path / "missing.json"),
        ]) == 0
        out = capsys.readouterr().out
        assert "streaming_warm_samples_per_s" in out
        assert "no stored baseline" in out

    def test_throughput_json_record(self, capsys, tmp_path):
        import json as json_mod

        assert main([
            "bench", "throughput", "--samples", "1200", "--repeats", "1",
            "--json",
        ]) == 0
        record = json_mod.loads(capsys.readouterr().out)
        assert record["name"] == "engine_throughput"
        assert record["streaming_warm_samples_per_s"] > 0
        assert record["hot_path_obs_calls"] == 0

    def test_throughput_compares_against_baseline(self, capsys, tmp_path):
        import json as json_mod
        import os

        baseline = tmp_path / "hist.json"
        baseline.write_text(json_mod.dumps([{
            "name": "engine_throughput", "time": 0.0,
            "streaming_warm_samples_per_s": 1.0,
            "streaming_cold_samples_per_s": 1.0,
            "batch_warm_samples_per_s": 1.0,
            "batch_cold_samples_per_s": 1.0,
            "disabled_obs_overhead": 0.0,
            "hot_path_obs_calls": 0,
            "cpu_count": os.cpu_count(),
        }]))
        assert main([
            "bench", "throughput", "--samples", "1200", "--repeats", "1",
            "--baseline", str(baseline),
        ]) == 0
        assert "vs baseline" in capsys.readouterr().out


class TestTopCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["top"])
        assert args.url == "http://127.0.0.1:9107"
        assert args.snapshot is None
        assert args.interval == 2.0
        assert args.once is False
        assert args.func.__name__ == "cmd_top"

    def test_detect_telemetry_flags_parsed(self):
        args = build_parser().parse_args(
            ["detect", "model", "sig.npz", "--stream",
             "--telemetry-port", "0", "--telemetry-snapshot", "t.json",
             "--telemetry-interval", "0.5", "--stream-id", "p1",
             "--pace", "1"]
        )
        assert args.telemetry_port == 0
        assert args.telemetry_snapshot == "t.json"
        assert args.telemetry_interval == 0.5
        assert args.stream_id == "p1"
        assert args.pace == 1.0

    def _doc(self):
        return {
            "v": 1,
            "ts": 1_700_000_000.0,
            "metrics": {},
            "streams": {
                "printer-A": {
                    "state": "live",
                    "samples": 12_000,
                    "samples_per_s": 199.8,
                    "ingest_lag_s": 0.25,
                    "windows": 40,
                    "quarantined_windows": 2,
                    "alerts": 3,
                    "sensor_fault": True,
                    "last_alert": {
                        "submodule": "c_disp", "time_s": 12.5, "ts": 0.0
                    },
                    "chunk_latency": {
                        "count": 24, "mean_s": 0.002,
                        "p50_s": 0.0015, "p95_s": 0.004, "p99_s": 0.005,
                    },
                },
            },
        }

    def test_render_top_populated(self):
        from repro.cli import _render_top

        frame = _render_top(self._doc(), source="snap.json")
        assert "repro top — 1 stream(s)" in frame
        assert "snap.json" in frame
        assert "printer-A" in frame
        assert "c_disp@12.5s" in frame
        assert "YES" in frame  # sensor fault column
        assert "1.50" in frame and "5.00" in frame  # p50/p99 in ms

    def test_render_top_empty(self):
        from repro.cli import _render_top

        frame = _render_top({"v": 1, "streams": {}})
        assert "0 stream(s)" in frame
        assert "no streams registered yet" in frame

    def test_missing_snapshot_exits_nonzero(self, tmp_path, capsys):
        code = main(
            ["top", "--snapshot", str(tmp_path / "nope.json"), "--once"]
        )
        assert code == 1
        assert "waiting for telemetry" in capsys.readouterr().out

    def test_iterations_bound_reads_file_repeatedly(self, tmp_path, capsys):
        import json

        snap = tmp_path / "snap.json"
        snap.write_text(json.dumps(self._doc()))
        code = main(
            ["top", "--snapshot", str(snap),
             "--iterations", "2", "--interval", "0.01"]
        )
        assert code == 0
        assert capsys.readouterr().out.count("repro top —") == 2


class TestServeParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "model-dir"])
        assert args.model == "model-dir"
        assert args.demo is False
        assert args.host == "127.0.0.1"
        assert args.port == 9870
        assert args.unix is None
        assert args.shards == 0
        assert args.checkpoint_dir is None
        assert args.checkpoint_interval == 5.0
        assert args.metrics_port is None
        assert args.max_seconds is None

    def test_serve_full_flags(self):
        args = build_parser().parse_args(
            ["serve", "m", "--demo", "--shards", "4", "--port", "0",
             "--checkpoint-dir", "ckpt", "--checkpoint-interval", "0.5",
             "--metrics-port", "9101", "--max-seconds", "30"]
        )
        assert args.demo is True
        assert args.shards == 4
        assert args.port == 0
        assert args.checkpoint_dir == "ckpt"
        assert args.checkpoint_interval == 0.5
        assert args.metrics_port == 9101
        assert args.max_seconds == 30.0

    def test_serve_missing_model_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="no reference.npz"):
            main(["serve", str(tmp_path / "nope")])

    def test_loadgen_defaults(self):
        args = build_parser().parse_args(["loadgen"])
        assert args.connect == "127.0.0.1:9870"
        assert args.unix is None
        assert args.streams == 8
        assert args.n_samples == 8000
        assert args.sample_rate == 200.0
        assert args.chunk_samples == 200
        assert args.pace == 0.0
        assert args.verify is None
        assert args.server_shards == 0
        assert args.json is False
        assert args.bench_out is None

    def test_loadgen_bad_connect_exits(self):
        with pytest.raises(SystemExit, match="host:port"):
            main(["loadgen", "--connect", "not-an-address"])

    def test_explain_tolerate_torn_tail_flag(self):
        args = build_parser().parse_args(
            ["explain", "ev.jsonl", "--attack", "Void",
             "--tolerate-torn-tail"]
        )
        assert args.tolerate_torn_tail is True
        args = build_parser().parse_args(
            ["explain", "ev.jsonl", "--attack", "Void"]
        )
        assert args.tolerate_torn_tail is False

    def test_detect_pace_help_mentions_deadline(self):
        parser = build_parser()
        # The --pace fix is user-visible: the flag documents deadline
        # scheduling rather than naive per-chunk sleeps.
        text = parser.format_help()
        assert "serve" in text
        assert "loadgen" in text


class TestServeRoundTripCLI:
    """`repro serve --demo` + `repro loadgen` over a real socket."""

    def test_demo_serve_and_loadgen(self, tmp_path, capsys):
        import asyncio
        import json as _json
        import threading

        from repro.obs import telemetry
        from repro.serve.model import demo_model
        from repro.serve.server import FleetServer

        telemetry.reset_streams()
        model_dir = tmp_path / "model"
        demo_model(n_samples=2000).save(model_dir)
        server = FleetServer(str(model_dir), shards=0, port=0)
        started = threading.Event()
        stop = None
        loop_box = {}

        async def _serve():
            nonlocal stop
            await server.start()
            stop = asyncio.Event()
            loop_box["loop"] = asyncio.get_running_loop()
            started.set()
            await stop.wait()
            await server.stop()

        thread = threading.Thread(target=lambda: asyncio.run(_serve()))
        thread.start()
        try:
            assert started.wait(timeout=30)
            bench = tmp_path / "bench.json"
            code = main(
                ["loadgen", "--connect", f"127.0.0.1:{server.port}",
                 "--streams", "2", "--n-samples", "1000",
                 "--verify", str(model_dir), "--json",
                 "--bench-out", str(bench)]
            )
            assert code == 0
            record = _json.loads(capsys.readouterr().out)
            assert record["name"] == "serve_loadgen"
            assert record["n_streams"] == 2
            assert record["total_samples"] == 2000
            assert record["mismatches"] == 0
            assert record["verified"] is True
            assert record["streams_per_core"] > 0
            history = _json.loads(bench.read_text())
            assert isinstance(history, list) and len(history) == 1
        finally:
            loop_box["loop"].call_soon_threadsafe(stop.set)
            thread.join(timeout=30)
            telemetry.reset_streams()


class TestExplainTornLogs:
    def test_corrupt_log_exits_cleanly_not_traceback(self, tmp_path):
        # A mid-file-corrupt log must fail as a one-line CLI error even
        # with --tolerate-torn-tail (only the newest file's tail is
        # forgivable), before any simulation work starts.
        log = tmp_path / "e.jsonl"
        log.write_text('{"torn": \n{"v": 1, "seq": 0, "ts": 0.0, '
                       '"type": "run_summary"}\n')
        with pytest.raises(SystemExit, match="repro explain:"):
            main(["explain", str(log), "--attack", "Void",
                  "--height", "0.4", "--tolerate-torn-tail"])


class TestCampaignScalePresets:
    def _sizes(self, argv):
        from repro.cli import _campaign_sizes

        return _campaign_sizes(build_parser().parse_args(argv))

    def test_quick_defaults(self):
        assert self._sizes(["campaign"]) == {
            "train": 8, "test": 8, "attack_runs": 2,
        }

    def test_paper_scale_is_table_viii(self):
        # 50 training / 100 benign test / 20 runs per attack class.
        assert self._sizes(["campaign", "--paper-scale"]) == {
            "train": 50, "test": 100, "attack_runs": 20,
        }

    def test_explicit_flags_override_paper_scale(self):
        assert self._sizes(
            ["campaign", "--paper-scale", "--train", "3"]
        ) == {"train": 3, "test": 100, "attack_runs": 20}

    def test_synchronizer_choices(self):
        args = build_parser().parse_args(
            ["campaign", "--synchronizer", "fastdtw"]
        )
        assert args.synchronizer == "fastdtw"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "--synchronizer", "dtw"])

    def test_bench_and_tables_out_default_off(self):
        args = build_parser().parse_args(["campaign"])
        assert args.bench_out is None and args.tables_out is None
