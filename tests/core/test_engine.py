"""Tests for the unified incremental detection core (`repro.core.engine`).

Two pillars:

* **Chunking invariance** (hypothesis property): feeding a signal in *any*
  chunk decomposition — 1-sample dribbles, uneven splits, one big chunk —
  produces bit-identical evidence, alerts, health verdicts, detection
  output, and emitted event stream as the single-chunk batch call.
* **Checkpoint/resume**: `DetectorState` serialized mid-stream (through
  strict JSON) and restored into a fresh engine finishes the run with
  output identical to the uninterrupted one, including a dark-channel run
  spanning the checkpoint.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DetectionEngine,
    DetectorState,
    NsyncIds,
    Thresholds,
)
from repro.core.engine import STATE_SCHEMA, STATE_VERSION
from repro.obs import events
from repro.signals import Signal
from repro.sync import DwmParams, DwmSynchronizer, FastDtwSynchronizer

PARAMS = DwmParams(t_win=1.0, t_hop=0.5, t_ext=0.5, t_sigma=0.25, eta=0.2)
FS = 100.0
N = 1500

STRICT = Thresholds(c_c=50.0, h_c=20.0, v_c=0.5)


def textured(n=N, seed=0):
    rng = np.random.default_rng(seed)
    base = np.cumsum(rng.standard_normal(n))
    return base - np.linspace(0, base[-1], n)


@pytest.fixture(scope="module")
def reference():
    return Signal(textured(seed=1), FS)


def make_observed(scenario: str) -> np.ndarray:
    """Observed streams covering the interesting engine regimes."""
    data = textured(seed=2).reshape(-1, 1)
    if scenario == "clean":
        return data
    if scenario == "nan_burst":
        out = data.copy()
        out[400:430] = np.nan  # short burst: repaired + quarantined
        return out
    if scenario == "dark_run":
        out = data.copy()
        out[600:780] = out[599]  # 1.8 s frozen: SENSOR_FAULT fires
        return out
    if scenario == "leading_nan":
        out = data.copy()
        out[:15] = np.nan  # no finite seed yet: zero-fill path
        return out
    if scenario == "corrupted":
        rng = np.random.default_rng(9)
        return np.cumsum(rng.standard_normal((N, 1)), axis=0)  # alarms fire
    raise AssertionError(scenario)


SCENARIOS = ("clean", "nan_burst", "dark_run", "leading_nan", "corrupted")


def run_engine(reference, chunks, thresholds=STRICT):
    """One full engine run over the given chunk decomposition."""
    engine = DetectionEngine(
        reference, DwmSynchronizer(PARAMS), thresholds=thresholds
    )
    for chunk in chunks:
        engine.push(chunk)
    return engine, engine.finalize()


def record_events(reference, chunks, thresholds=STRICT):
    """Run + capture the emitted event stream (volatile fields stripped)."""
    events.enable()
    try:
        engine, result = run_engine(reference, chunks, thresholds)
        stream = [
            {k: v for k, v in record.items() if k not in ("ts", "seq")}
            for record in events.tail()
        ]
    finally:
        events.disable()
    return engine, result, stream


def split(data: np.ndarray, cuts) -> list:
    """Chunk decomposition of ``data`` at the given sorted cut points."""
    bounds = [0, *cuts, data.shape[0]]
    return [data[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


class TestChunkingInvariance:
    """Any chunking == the single-chunk batch call, bit for bit."""

    @settings(max_examples=20, deadline=None)
    @given(
        scenario=st.sampled_from(SCENARIOS),
        cuts=st.lists(
            st.integers(1, N - 1), unique=True, min_size=1, max_size=8
        ).map(sorted),
        dribble=st.booleans(),
    )
    def test_any_chunking_is_bit_identical(
        self, reference, scenario, cuts, dribble
    ):
        observed = make_observed(scenario)
        chunks = split(observed, cuts)
        if dribble:
            # Stress the ring buffer's worst case: explode the largest
            # chunk into 1-sample pushes.
            j = max(range(len(chunks)), key=lambda k: chunks[k].shape[0])
            ones = [chunks[j][i : i + 1] for i in range(chunks[j].shape[0])]
            chunks = chunks[:j] + ones + chunks[j + 1 :]
        eng_a, res_a, ev_a = record_events(reference, [observed])
        eng_b, res_b, ev_b = record_events(reference, chunks)

        # Window evidence, bit-exact.
        for key in ("c_disp_curve", "h_dist_filtered", "v_dist_filtered"):
            assert np.array_equal(
                eng_a.evidence()[key], eng_b.evidence()[key]
            ), key
        assert np.array_equal(res_a.v_dist, res_b.v_dist)
        assert np.array_equal(res_a.sync.h_disp, res_b.sync.h_disp)
        # Alerts (dataclass equality covers index/value/threshold/time).
        assert res_a.alerts == res_b.alerts
        # Health verdict (includes dark spans and fault reasons).
        assert res_a.health == res_b.health
        assert eng_a.health_dict() == eng_b.health_dict()
        assert res_a.quarantined_windows == res_b.quarantined_windows
        # Full detection verdict.
        assert res_a.detection.to_dict() == res_b.detection.to_dict()
        # The emitted event stream, record for record.
        assert ev_a == ev_b

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_one_sample_dribble(self, reference, scenario):
        """The degenerate chunking: one sample at a time, every scenario."""
        observed = make_observed(scenario)[:600]
        _, res_a, ev_a = record_events(reference, [observed])
        chunks = [observed[i : i + 1] for i in range(observed.shape[0])]
        _, res_b, ev_b = record_events(reference, chunks)
        assert np.array_equal(res_a.v_dist, res_b.v_dist)
        assert np.array_equal(res_a.sync.h_disp, res_b.sync.h_disp)
        assert res_a.alerts == res_b.alerts
        assert res_a.health == res_b.health
        assert res_a.detection.to_dict() == res_b.detection.to_dict()
        assert ev_a == ev_b

    def test_facades_share_the_engine(self, reference):
        """NsyncIds.detect == its engine's chunked push+finalize, exactly."""
        observed = make_observed("corrupted")
        ids = NsyncIds(reference, DwmSynchronizer(PARAMS))
        ids.thresholds = STRICT
        verdict = ids.detect(Signal(observed, FS))

        stream = ids.engine()
        for start in range(0, observed.shape[0], 97):
            stream.push(observed[start : start + 97])
        result = stream.finalize()
        assert result.detection.to_dict() == verdict.to_dict()
        assert [a.to_dict() for a in result.alerts] == [
            a.to_dict() for a in stream.alerts
        ]

    def test_batch_synchronizer_rides_the_same_engine(self, reference):
        """A point-mode (DTW) synchronizer adapted behind BatchSyncCursor
        produces the same result chunked as in one shot."""
        short_ref = Signal(textured(n=400, seed=1), FS)
        observed = textured(n=400, seed=2).reshape(-1, 1)

        def run(chunks):
            engine = DetectionEngine(
                short_ref, FastDtwSynchronizer(), thresholds=STRICT
            )
            for chunk in chunks:
                engine.push(chunk)
            return engine.finalize()

        res_a = run([observed])
        res_b = run([observed[:113], observed[113:287], observed[287:]])
        assert res_a.sync.mode == "point"
        assert np.array_equal(res_a.v_dist, res_b.v_dist)
        assert res_a.detection.to_dict() == res_b.detection.to_dict()


class TestDetectorState:
    """Mid-stream checkpoint/resume through strict JSON."""

    def _resume_run(self, reference, observed, checkpoint_at):
        """Uninterrupted vs checkpointed-and-restored; returns both."""
        plain = DetectionEngine(
            reference, DwmSynchronizer(PARAMS), thresholds=STRICT
        )
        plain.push(observed)
        res_plain = plain.finalize()

        first = DetectionEngine(
            reference, DwmSynchronizer(PARAMS), thresholds=STRICT
        )
        first.push(observed[:checkpoint_at])
        payload = json.dumps(first.state().to_dict())

        resumed = DetectionEngine(
            reference, DwmSynchronizer(PARAMS), thresholds=STRICT
        )
        resumed.restore(DetectorState.from_dict(json.loads(payload)))
        resumed.push(observed[checkpoint_at:])
        return res_plain, resumed.finalize()

    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("checkpoint_at", (1, 640, 701, N - 1))
    def test_resume_matches_uninterrupted(
        self, reference, scenario, checkpoint_at
    ):
        observed = make_observed(scenario)
        res_a, res_b = self._resume_run(reference, observed, checkpoint_at)
        assert np.array_equal(res_a.sync.h_disp, res_b.sync.h_disp)
        assert np.array_equal(res_a.v_dist, res_b.v_dist)
        assert res_a.alerts == res_b.alerts
        assert res_a.health == res_b.health
        assert res_a.detection.to_dict() == res_b.detection.to_dict()

    def test_dark_run_spans_checkpoint(self, reference):
        """The dark run starts before the checkpoint and crosses the
        policy limit after it: the carry must survive serialization."""
        observed = make_observed("clean").copy()
        observed[600:780] = observed[599]  # dark 600..780
        # Checkpoint mid-run at 650: run is 50 samples old, fires ~700.
        res_a, res_b = self._resume_run(reference, observed, 650)
        assert res_a.health.sensor_fault and res_b.health.sensor_fault
        assert res_a.health == res_b.health
        assert res_a.alerts == res_b.alerts
        fault = [a for a in res_b.alerts if a.submodule == "sensor_fault"]
        assert len(fault) == 1

    def test_streaming_facade_state_round_trip(self, reference):
        observed = make_observed("nan_burst")
        ids = NsyncIds(reference, DwmSynchronizer(PARAMS))
        ids.thresholds = STRICT
        a = ids.engine()
        a.push(observed[:800])
        payload = json.dumps(a.state().to_dict())
        b = ids.engine()
        b.restore(DetectorState.from_dict(json.loads(payload)))
        a.push(observed[800:])
        b.push(observed[800:])
        assert a.health_dict() == b.health_dict()
        assert a.alerts == b.alerts
        for key in ("c_disp_curve", "h_dist_filtered", "v_dist_filtered"):
            assert np.array_equal(a.evidence()[key], b.evidence()[key])

    def test_batch_cursor_state_round_trip(self, reference):
        """Checkpointing also works for a BatchSyncCursor-adapted run."""
        short_ref = Signal(textured(n=400, seed=1), FS)
        observed = textured(n=400, seed=2).reshape(-1, 1)

        def fresh():
            return DetectionEngine(
                short_ref, FastDtwSynchronizer(), thresholds=STRICT
            )

        a = fresh()
        a.push(observed)
        res_a = a.finalize()

        b = fresh()
        b.push(observed[:250])
        payload = json.dumps(b.state().to_dict())
        c = fresh()
        c.restore(DetectorState.from_dict(json.loads(payload)))
        c.push(observed[250:])
        res_c = c.finalize()
        assert np.array_equal(res_a.v_dist, res_c.v_dist)
        assert res_a.detection.to_dict() == res_c.detection.to_dict()

    def test_to_dict_round_trips_exactly(self, reference):
        observed = make_observed("leading_nan")
        engine = DetectionEngine(
            reference, DwmSynchronizer(PARAMS), thresholds=STRICT
        )
        engine.push(observed[:777])
        doc = engine.state().to_dict()
        clone = DetectorState.from_dict(json.loads(json.dumps(doc)))
        assert clone.to_dict() == doc

    def test_schema_and_version_are_validated(self):
        with pytest.raises(ValueError, match="schema"):
            DetectorState.from_dict({"schema": "something/else"})
        with pytest.raises(ValueError, match="version"):
            DetectorState.from_dict(
                {"schema": STATE_SCHEMA, "version": STATE_VERSION + 1}
            )

    def test_config_mismatch_is_rejected(self, reference):
        engine = DetectionEngine(reference, DwmSynchronizer(PARAMS))
        engine.push(make_observed("clean")[:200])
        state = engine.state()
        other = DetectionEngine(
            reference, DwmSynchronizer(PARAMS), filter_window=5
        )
        with pytest.raises(ValueError, match="filter_window"):
            other.restore(state)

    def test_snapshot_after_finalize_is_rejected(self, reference):
        engine = DetectionEngine(reference, DwmSynchronizer(PARAMS))
        engine.push(make_observed("clean")[:200])
        engine.finalize()
        with pytest.raises(RuntimeError):
            engine.state()


class TestEngineLifecycle:
    def test_push_after_finalize_raises(self, reference):
        engine = DetectionEngine(reference, DwmSynchronizer(PARAMS))
        engine.push(make_observed("clean")[:200])
        engine.finalize()
        with pytest.raises(RuntimeError):
            engine.push(make_observed("clean")[:10])

    def test_finalize_twice_raises(self, reference):
        engine = DetectionEngine(reference, DwmSynchronizer(PARAMS))
        engine.finalize()
        with pytest.raises(RuntimeError):
            engine.finalize()

    def test_alert_time_s_is_required(self):
        from repro.core import Alert

        with pytest.raises(TypeError):
            Alert(0, "c_disp", 1.0, 0.5)  # no silent time_s default

    def test_unarmed_engine_raises_no_alerts(self, reference):
        observed = make_observed("corrupted")
        engine = DetectionEngine(reference, DwmSynchronizer(PARAMS))
        engine.push(observed)
        result = engine.finalize()
        assert result.detection is None
        assert result.alerts == ()
        assert result.features.v_dist_filtered.size > 0

    def test_buffer_is_trimmed(self, reference):
        """O(window) memory: the engine keeps only the unconsumed tail."""
        engine = DetectionEngine(reference, DwmSynchronizer(PARAMS))
        data = make_observed("clean")
        for start in range(0, N, 100):
            engine.push(data[start : start + 100])
        n_hop = round(PARAMS.t_hop * FS)
        kept = len(engine._ring)
        assert kept < N
        assert kept == N - engine.n_indexes * n_hop
        assert len(engine._bad_ring) == kept
        assert engine._ring.start == engine.n_indexes * n_hop


class TestStageSpans:
    """With tracing on, every push records its four stage spans."""

    STAGES = ("sanitize", "synchronize", "compare", "discriminate")

    def test_push_spans_nest_and_count(self, reference):
        from repro import obs

        chunks = split(make_observed("clean"), range(100, N, 100))
        engine = DetectionEngine(
            reference, DwmSynchronizer(PARAMS), thresholds=STRICT
        )
        was_enabled = obs.enabled()
        obs.reset()
        obs.enable()
        try:
            for chunk in chunks:
                engine.push(chunk)
            spans = obs.snapshot()["spans"]
        finally:
            obs.reset()
            if not was_enabled:
                obs.disable()
        push = spans["repro.core.engine.push"]
        assert push["count"] == len(chunks)
        stages = [spans[f"repro.core.engine.push/{s}"] for s in self.STAGES]
        for stage in stages:
            assert stage["count"] == len(chunks)
        assert sum(s["wall_total_s"] for s in stages) <= push["wall_total_s"]
        window = spans[
            "repro.core.engine.push/synchronize/repro.sync.dwm.window"
        ]
        assert window["count"] == engine.n_indexes > 0


class _FixedSync:
    """Batch synchronizer that returns one prepared ``SyncResult``.

    It has no ``cursor()``, so the engine runs it behind
    ``BatchSyncCursor`` and scores every window at finalization.
    """

    def __init__(self, sync):
        self.sync = sync

    def synchronize(self, observed, reference):
        return self.sync


def expected_truncations(observed, reference, sync):
    """The ``window_truncated`` payloads, written out from their definition.

    A window is truncated when its displacement is not finite or fewer
    than 2 samples overlap.  A non-finite displacement is replaced by the
    last finite one (0.0 before any), and ``n`` is the overlap under that
    held displacement.
    """
    out = []
    held = 0.0
    for i, h in enumerate(sync.h_disp):
        finite = np.isfinite(h)
        if finite:
            held = float(h)
        start = i * sync.n_hop
        wa = observed.slice(start, start + sync.n_win).data
        b0 = start + int(round(held))
        wb = reference.slice(b0, b0 + sync.n_win).data
        n = min(wa.shape[0], wb.shape[0])
        if not finite or n < 2:
            out.append({"window": i, "n": n})
    return out


class TestComparatorParity:
    """The engine's compare stage scores exactly what ``Comparator`` does."""

    DISPLACEMENTS = st.one_of(
        st.integers(-45, 45).map(float),
        st.floats(-30.0, 30.0, allow_nan=False),
        st.sampled_from([np.nan, np.inf, -np.inf, 1e300, -1e300]),
    )

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n_obs=st.integers(2, 120),
        n_ref=st.integers(2, 120),
        n_ch=st.integers(1, 2),
        n_win=st.integers(1, 12),
        n_hop=st.integers(1, 10),
        h_disp=st.lists(DISPLACEMENTS, max_size=14),
        flat=st.booleans(),
        cut=st.floats(0.0, 1.0),
    )
    def test_v_dist_and_truncations_match(
        self, seed, n_obs, n_ref, n_ch, n_win, n_hop, h_disp, flat, cut
    ):
        from repro.core.comparator import Comparator
        from repro.sync.base import SyncResult

        rng = np.random.default_rng(seed)
        data = rng.standard_normal((n_obs, n_ch))
        if flat:
            data[: n_obs // 2] = 0.75  # zero-variance windows
        observed = Signal(data, FS)
        reference = Signal(rng.standard_normal((n_ref, n_ch)), FS)
        sync = SyncResult(
            h_disp=np.asarray(h_disp, dtype=np.float64),
            mode="window",
            n_win=n_win,
            n_hop=n_hop,
        )
        engine = DetectionEngine(reference, _FixedSync(sync))
        split_at = int(cut * n_obs)
        events.enable()
        try:
            for chunk in (data[:split_at], data[split_at:]):
                engine.push(chunk)
            result = engine.finalize()
            truncated = [
                {"window": r["window"], "n": r["n"]}
                for r in events.tail(etype="window_truncated")
            ]
        finally:
            events.disable()
        expected = Comparator().vertical_distances(observed, reference, sync)
        assert result.v_dist.dtype == expected.dtype
        assert result.v_dist.tobytes() == expected.tobytes()
        assert truncated == expected_truncations(observed, reference, sync)


class TestStatePayloadValidation:
    """A malformed checkpoint fails with a ValueError naming the field.

    The fleet service treats that ValueError as "checkpoint unusable,
    restart the stream from scratch"; a raw KeyError from deep inside
    restore (the original bug) would crash the shard worker instead.
    """

    @pytest.fixture(scope="class")
    def doc(self, reference):
        engine = DetectionEngine(
            reference, DwmSynchronizer(PARAMS), thresholds=STRICT
        )
        engine.push(make_observed("nan_burst")[:800])
        return engine.state().to_dict()

    def clone(self, doc):
        return json.loads(json.dumps(doc))

    @pytest.mark.parametrize(
        "section",
        ("config", "progress", "sanitize", "sync", "evidence",
         "alerts", "fired"),
    )
    def test_missing_section_is_named(self, doc, section):
        broken = {k: v for k, v in doc.items() if k != section}
        with pytest.raises(ValueError, match=section):
            DetectorState.from_dict(broken)

    def test_ill_typed_section_is_named(self, doc):
        broken = self.clone(doc)
        broken["progress"] = [1, 2, 3]
        with pytest.raises(ValueError, match="progress"):
            DetectorState.from_dict(broken)
        broken = self.clone(doc)
        broken["alerts"] = "none"
        with pytest.raises(ValueError, match="alerts"):
            DetectorState.from_dict(broken)

    @pytest.mark.parametrize(
        "section, key",
        [
            ("config", "n_channels"),
            ("config", "sample_rate"),
            ("progress", "samples_seen"),
            ("progress", "buffer"),
            ("sanitize", "last_good"),
            ("evidence", "v_hist"),
        ],
    )
    def test_missing_nested_field_is_named(self, doc, section, key):
        broken = self.clone(doc)
        assert key in broken[section], f"fixture lacks {section}.{key}"
        del broken[section][key]
        with pytest.raises(ValueError) as exc:
            DetectorState.from_dict(broken)
        assert section in str(exc.value) and key in str(exc.value)

    def test_malformed_alert_entries_are_named(self, doc):
        broken = self.clone(doc)
        broken["alerts"] = [{"window_index": 3}]  # everything else missing
        with pytest.raises(ValueError, match="alert #0"):
            DetectorState.from_dict(broken)
        broken["alerts"] = [7]
        with pytest.raises(ValueError, match="alert #0"):
            DetectorState.from_dict(broken)

    def test_any_single_deletion_never_escapes_as_keyerror(self, doc):
        """Exhaustive: deleting *any* nested key either still loads or
        raises ValueError — never KeyError/TypeError."""
        for section, body in doc.items():
            if not isinstance(body, dict):
                continue
            for key in body:
                broken = self.clone(doc)
                del broken[section][key]
                try:
                    state = DetectorState.from_dict(broken)
                except ValueError:
                    continue
                assert isinstance(state, DetectorState)
