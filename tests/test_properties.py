"""Cross-cutting property-based tests (hypothesis) for core invariants."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.printer.gcode import GcodeCommand, GcodeProgram, parse_line
from repro.signals import Signal, trailing_min_filter
from repro.slicer import clip_segments, square_outline
from repro.sync import DwmParams, DwmSynchronizer


# ---------------------------------------------------------------------------
# DWM invariants
# ---------------------------------------------------------------------------
def textured(n, seed):
    rng = np.random.default_rng(seed)
    base = np.cumsum(rng.standard_normal(n))
    kernel = np.exp(-np.arange(10) / 3.0)
    return np.convolve(base, kernel, mode="same")


class TestDwmInvariants:
    @given(
        t_win=st.floats(0.5, 2.0),
        ext_frac=st.floats(0.2, 1.0),
        eta=st.floats(0.0, 0.5),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=15, deadline=None)
    def test_self_synchronization_is_identity(self, t_win, ext_frac, eta, seed):
        """For ANY parameters, synchronizing a signal against itself yields
        zero displacement and perfect scores."""
        params = DwmParams(
            t_win=t_win,
            t_hop=t_win / 2,
            t_ext=t_win * ext_frac,
            t_sigma=t_win * ext_frac / 2,
            eta=eta,
        )
        sig = Signal(textured(3000, seed), 100.0)
        sync = DwmSynchronizer(params).synchronize(sig, sig)
        assume(sync.n_indexes > 0)
        assert np.allclose(sync.h_disp, 0.0)
        assert np.all(sync.scores > 0.999)

    @given(shift=st.integers(5, 40), seed=st.integers(0, 50))
    @settings(max_examples=15, deadline=None)
    def test_constant_shift_recovered(self, shift, seed):
        params = DwmParams(t_win=1.0, t_hop=0.5, t_ext=0.6, t_sigma=0.3, eta=0.2)
        data = textured(3100, seed)
        ref = Signal(data[:3000], 100.0)
        obs = Signal(data[shift : 3000 + shift], 100.0)
        sync = DwmSynchronizer(params).synchronize(obs, ref)
        assume(sync.n_indexes > 4)
        assert np.median(sync.h_disp[2:]) == pytest.approx(shift, abs=2)

    @given(gain=st.floats(0.1, 10.0), offset=st.floats(-5.0, 5.0))
    @settings(max_examples=15, deadline=None)
    def test_gain_and_offset_invariance(self, gain, offset):
        """Correlation-based DWM must ignore affine amplitude changes."""
        params = DwmParams(t_win=1.0, t_hop=0.5, t_ext=0.5, t_sigma=0.25)
        base = textured(2500, 7)
        ref = Signal(base, 100.0)
        obs = Signal(gain * base + offset, 100.0)
        sync = DwmSynchronizer(params).synchronize(obs, ref)
        assert np.allclose(sync.h_disp, 0.0)


# ---------------------------------------------------------------------------
# G-code roundtrip
# ---------------------------------------------------------------------------
gcode_values = st.floats(-500.0, 500.0).map(lambda v: round(v, 4))


@st.composite
def gcode_commands(draw):
    code = draw(st.sampled_from(["G0", "G1", "G4", "G28", "G92", "M104", "M106"]))
    keys = draw(
        st.lists(
            st.sampled_from(list("XYZEFS")), unique=True, min_size=0, max_size=4
        )
    )
    params = {k: draw(gcode_values) for k in keys}
    return GcodeCommand(code, params)


class TestGcodeRoundtrip:
    @given(command=gcode_commands())
    @settings(max_examples=80, deadline=None)
    def test_serialize_parse_roundtrip(self, command):
        parsed = parse_line(command.to_line())
        assert parsed.code == command.code
        for key, value in command.params.items():
            assert parsed.params[key] == pytest.approx(value, abs=1e-9)

    @given(commands=st.lists(gcode_commands(), min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_program_text_roundtrip(self, commands):
        program = GcodeProgram(commands)
        reparsed = GcodeProgram.from_text(program.to_text())
        assert len(reparsed) == len(program)
        assert all(a.code == b.code for a, b in zip(reparsed, program))


# ---------------------------------------------------------------------------
# Geometry
# ---------------------------------------------------------------------------
class TestClipProperties:
    @given(
        y=st.floats(-10.0, 10.0),
        x0=st.floats(-20.0, -11.0),
        x1=st.floats(11.0, 20.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_horizontal_clip_against_square(self, y, x0, x1):
        """Clipping a long horizontal line against a square leaves exactly
        the chord inside (or nothing when the line misses)."""
        square = square_outline(10.0)  # spans [-5, 5]^2
        segs = clip_segments(square, np.array([x0, y]), np.array([x1, y]))
        total = sum(np.linalg.norm(b - a) for a, b in segs)
        if abs(y) < 5.0:
            assert total == pytest.approx(10.0, abs=1e-6)
        elif abs(y) > 5.0:
            assert total == pytest.approx(0.0, abs=1e-6)

    @given(
        angle=st.floats(0.0, 2 * np.pi),
        y=st.floats(-4.0, 4.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_clipped_parts_lie_inside(self, angle, y):
        from repro.slicer import point_in_polygon

        square = square_outline(10.0)
        direction = np.array([np.cos(angle), np.sin(angle)])
        p0 = np.array([0.0, y]) - 20.0 * direction
        p1 = np.array([0.0, y]) + 20.0 * direction
        for a, b in clip_segments(square, p0, p1):
            mid = (a + b) / 2
            assert point_in_polygon(square, mid)


# ---------------------------------------------------------------------------
# Filters
# ---------------------------------------------------------------------------
class TestFilterProperties:
    @given(
        x=st.lists(st.floats(0, 1e3, allow_nan=False), min_size=1, max_size=30),
        w=st.integers(1, 6),
    )
    @settings(max_examples=40, deadline=None)
    def test_min_filter_monotone_under_repetition(self, x, w):
        """Re-filtering can only lower values (min is contracting)."""
        x = np.asarray(x)
        once = trailing_min_filter(x, w)
        twice = trailing_min_filter(once, w)
        assert np.all(twice <= once + 1e-12)

    @given(
        x=st.lists(st.floats(0, 1e3, allow_nan=False), min_size=1, max_size=30),
        y=st.lists(st.floats(0, 1e3, allow_nan=False), min_size=1, max_size=30),
    )
    @settings(max_examples=40, deadline=None)
    def test_min_filter_monotone_in_input(self, x, y):
        """x <= y pointwise implies filter(x) <= filter(y) pointwise."""
        n = min(len(x), len(y))
        a = np.minimum(np.asarray(x[:n]), np.asarray(y[:n]))
        b = np.asarray(y[:n])
        fa = trailing_min_filter(a, 3)
        fb = trailing_min_filter(b, 3)
        assert np.all(fa <= fb + 1e-12)


# ---------------------------------------------------------------------------
# Sensor quantization
# ---------------------------------------------------------------------------
class TestQuantizationProperties:
    @given(bits=st.integers(3, 12), seed=st.integers(0, 20))
    @settings(max_examples=20, deadline=None)
    def test_quantization_error_bounded_by_step(self, bits, seed, tiny_trace):
        from repro.sensors import Accelerometer, SensorConfig

        clean_cfg = SensorConfig(
            sample_rate=200.0, bits=32, noise_level=0.0, gain_sigma=0.0
        )
        coarse_cfg = SensorConfig(
            sample_rate=200.0, bits=bits, noise_level=0.0, gain_sigma=0.0
        )
        rng1 = np.random.default_rng(seed)
        rng2 = np.random.default_rng(seed)
        fine = Accelerometer(clean_cfg).sense(tiny_trace, rng1)
        coarse = Accelerometer(coarse_cfg).sense(tiny_trace, rng2)
        err = np.abs(fine.data - coarse.data)
        # Sensor rule: per-channel step = 4 * floored_std / 2^(bits-1) where
        # the floor ties quiet channels to the sensor's full range (a real
        # shared-range ADC behaves the same way); error <= step/2.
        std = fine.data.std(axis=0)
        floor = 1e-3 * max(float(np.abs(fine.data).max()), 1.0)
        step = 4.0 * np.maximum(std, floor) / 2 ** (bits - 1)
        assert np.all(err <= step * 0.51 + 1e-9)


# ---------------------------------------------------------------------------
# Graceful-degradation invariants (repro.core.health + repro.faults)
# ---------------------------------------------------------------------------
_ROBUSTNESS_IDS = None


def _robustness_ids():
    """A fitted IDS shared across examples (fitting dominates runtime)."""
    global _ROBUSTNESS_IDS
    if _ROBUSTNESS_IDS is None:
        from repro.core import NsyncIds

        params = DwmParams(t_win=1.0, t_hop=0.5, t_ext=0.5, t_sigma=0.25, eta=0.2)
        ids = NsyncIds(
            Signal(textured(3000, 900), 100.0), DwmSynchronizer(params)
        )
        ids.fit(
            [Signal(textured(3000, 900 + s), 100.0) for s in range(1, 5)],
            r=0.3,
        )
        _ROBUSTNESS_IDS = ids
    return _ROBUSTNESS_IDS


def _fault_strategy():
    from repro.faults import (
        ChannelDropout,
        ChunkDuplication,
        ChunkTruncation,
        DaqDisconnect,
        NanBurst,
        SampleRateSkew,
        Saturation,
    )

    start = st.floats(0.0, 20.0)
    duration = st.floats(0.1, 8.0)
    return st.one_of(
        st.builds(ChannelDropout, start_s=start, duration_s=duration),
        st.builds(
            NanBurst,
            start_s=start,
            duration_s=duration,
            fraction=st.floats(0.05, 1.0),
        ),
        st.builds(Saturation, limit=st.floats(0.1, 50.0)),
        st.builds(SampleRateSkew, factor=st.floats(0.9, 1.1)),
        st.builds(ChunkDuplication, start_s=start, duration_s=duration),
        st.builds(ChunkTruncation, start_s=start, duration_s=duration),
        st.builds(
            DaqDisconnect,
            start_s=start,
            duration_s=duration,
            mode=st.sampled_from(["nan", "zeros", "drop"]),
        ),
    )


class TestGracefulDegradation:
    @given(fault=_fault_strategy(), seed=st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_detect_survives_any_fault(self, fault, seed):
        """For ANY fault model, detect() neither raises nor leaks
        non-finite evidence into the threshold comparisons."""
        ids = _robustness_ids()
        probe = Signal(textured(3000, 950), 100.0)
        faulted = fault.apply(probe, np.random.default_rng(seed))
        assume(faulted.n_samples >= 200)  # enough samples for one window
        verdict = ids.detect(faulted)
        f = verdict.features
        assert np.isfinite(f.c_disp).all()
        assert np.isfinite(f.h_dist_filtered).all()
        assert np.isfinite(f.v_dist_filtered).all()
        assert np.isfinite(f.duration_mismatch)

    @given(fault=_fault_strategy(), seed=st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_streaming_survives_any_fault(self, fault, seed):
        """The streaming detector holds the same contract chunk-by-chunk."""
        stream = _robustness_ids().engine()
        data = textured(3000, 950)
        chunks = [data[i : i + 250] for i in range(0, data.size, 250)]
        rng = np.random.default_rng(seed)
        for chunk in fault.apply_chunks(chunks, 100.0, rng):
            stream.push(chunk)
        ev = stream.evidence()
        assert np.isfinite(ev["h_disp"]).all()
        assert np.isfinite(ev["h_dist_filtered"]).all()
        assert np.isfinite(ev["v_dist_filtered"]).all()
        assert np.isfinite(ev["c_disp"])
