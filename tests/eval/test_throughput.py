"""Tests for the engine throughput measurement (repro.eval.throughput)."""

import json

import numpy as np
import pytest

from repro import obs
from repro.eval.throughput import (
    RECORD_NAME,
    ThroughputWorkload,
    _ObsProbe,
    append_bench_record,
    count_hot_path_obs_calls,
    load_baseline_record,
    measure_engine_throughput,
    render_comparison,
)

TINY = ThroughputWorkload(n_samples=1_200)


class TestWorkload:
    def test_signals_are_deterministic(self):
        ref_a, obs_a = TINY.signals()
        ref_b, obs_b = TINY.signals()
        assert np.array_equal(ref_a.data, ref_b.data)
        assert np.array_equal(obs_a, obs_b)

    def test_observed_differs_from_reference(self):
        ref, observed = TINY.signals()
        assert not np.array_equal(ref.data, observed)
        assert observed.shape == (TINY.n_samples, 1)

    def test_engine_detects_nothing_on_benign_workload(self):
        """The workload must exercise the steady state, not the alarm
        path: a benign run keeps every window below threshold."""
        ref, observed = TINY.signals()
        engine = TINY.engine(ref)
        assert engine.push(observed) == []
        result = engine.finalize()
        assert result.alerts == ()
        assert result.sync.n_indexes > 0


class TestMeasurement:
    def test_record_schema(self):
        record = measure_engine_throughput(TINY, repeats=1)
        assert record["name"] == RECORD_NAME
        for field in (
            "streaming_cold_samples_per_s",
            "streaming_warm_samples_per_s",
            "batch_cold_samples_per_s",
            "batch_warm_samples_per_s",
        ):
            assert float(record[field]) > 0.0
        for field in ("streaming_chunk_p50_ms", "streaming_chunk_p99_ms"):
            assert float(record[field]) > 0.0
        assert record["streaming_chunk_p50_ms"] <= record[
            "streaming_chunk_p99_ms"
        ]
        assert float(record["disabled_obs_overhead"]) >= 0.0
        assert record["hot_path_obs_calls"] == 0
        assert record["chunk_samples"] == TINY.chunk_samples
        assert record["n_samples"] == TINY.n_samples
        assert record["sample_rate"] == TINY.sample_rate
        json.dumps(record)  # must be JSON-safe as-is

    def test_invalid_repeats_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            measure_engine_throughput(TINY, repeats=0)

    def test_obs_state_restored(self):
        assert not obs.enabled()
        measure_engine_throughput(TINY, repeats=1)
        assert not obs.enabled()
        obs.enable()
        try:
            measure_engine_throughput(TINY, repeats=1)
            assert obs.enabled()
        finally:
            obs.disable()

    def test_disabled_hot_path_makes_zero_obs_calls(self):
        assert count_hot_path_obs_calls(TINY) == 0

    def test_probe_counts_touches(self):
        """Guards the structural check: the probe must actually count."""
        probe = _ObsProbe()
        assert probe.enabled() is False
        with probe.trace("span"):
            probe.counter("c").inc()
        probe.gauge("g").set(1.0)
        probe.histogram("h").observe(2.0)
        assert probe.touches == 4

    def test_health_probe_counts_stream_touches(self):
        """The telemetry stub must catch hot-path StreamHealth brushes."""
        from repro.eval.throughput import _TelemetryStub

        probe = _ObsProbe()
        stub = _TelemetryStub(probe)
        row = stub.register_stream("p1", 200.0)
        row.observe_chunk(10, 0.001, 1, 0, False)
        row.note_alert("c_disp", 1.0)
        row.snapshot()
        assert probe.touches == 4  # register + 3 row touches


class TestBaseline:
    def test_missing_file_is_none(self, tmp_path):
        assert load_baseline_record(tmp_path / "nope.json") is None

    def test_corrupt_file_is_none(self, tmp_path):
        path = tmp_path / "h.json"
        path.write_text("{broken")
        assert load_baseline_record(path) is None

    def test_first_matching_record_wins(self, tmp_path):
        path = tmp_path / "h.json"
        path.write_text(json.dumps([
            {"name": "other", "x": 1},
            {"name": RECORD_NAME, "streaming_warm_samples_per_s": 111.0},
            {"name": RECORD_NAME, "streaming_warm_samples_per_s": 222.0},
        ]))
        record = load_baseline_record(path)
        assert record["streaming_warm_samples_per_s"] == 111.0

    def test_render_with_and_without_baseline(self):
        record = measure_engine_throughput(TINY, repeats=1)
        alone = render_comparison(record, None)
        assert "no stored baseline" in alone
        against_self = render_comparison(record, record)
        assert "1.00x vs baseline" in against_self
        assert "streaming_chunk_p99_ms" in against_self
        other_machine = dict(record, cpu_count=-1)
        cross = render_comparison(record, other_machine)
        assert "different machine" in cross


class TestAppendBenchRecord:
    def test_missing_file_starts_history(self, tmp_path):
        path = tmp_path / "results" / "BENCH_x.json"
        assert append_bench_record(path, {"name": "a"}) == path
        append_bench_record(path, {"name": "b"})
        assert json.loads(path.read_text()) == [{"name": "a"}, {"name": "b"}]

    @pytest.mark.parametrize(
        "content", [b"{broken", b"", b'{"name": "a"}', b"\xff\xfe"]
    )
    def test_non_list_history_raises_and_is_untouched(self, tmp_path, content):
        path = tmp_path / "BENCH_x.json"
        path.write_bytes(content)
        with pytest.raises(ValueError, match="not a JSON list history"):
            append_bench_record(path, {"name": "new"})
        assert path.read_bytes() == content

    def test_cli_bench_out_refuses_damaged_history(self, tmp_path):
        from repro.cli import _append_bench_record

        path = tmp_path / "BENCH_x.json"
        path.write_text("[{]")
        with pytest.raises(SystemExit, match="^repro: .*not a JSON list"):
            _append_bench_record(str(path), {"name": "new"})
        assert path.read_text() == "[{]"
