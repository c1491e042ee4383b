"""Unit tests for the input-sanitization stage (repro.core.health)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    DetectionEngine,
    SanitizePolicy,
    constant_runs,
    sanitize_signal,
)
from repro.core.health import ChannelHealth
from repro.signals import Signal
from repro.sync import DwmParams, DwmSynchronizer


def textured(n=500, seed=0):
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.standard_normal(n))


class TestConstantRuns:
    def test_healthy_data_yields_unit_runs(self):
        runs = constant_runs(np.array([1.0, 2.0, 3.0]))
        assert runs == [(0, 1), (1, 2), (2, 3)]

    def test_constant_stretch_is_one_run(self):
        runs = constant_runs(np.array([1.0, 5.0, 5.0, 5.0, 2.0]))
        assert (1, 4) in runs

    def test_nan_extends_runs(self):
        """A NaN is as dead as a repeated constant: it must join runs."""
        runs = constant_runs(np.array([1.0, np.nan, np.nan, 1.0, 2.0]))
        assert (0, 4) in runs

    def test_eps_tolerance(self):
        x = np.array([1.0, 1.0 + 1e-9, 1.0 - 1e-9, 5.0])
        assert (0, 3) in constant_runs(x, eps=1e-6)

    def test_empty_input(self):
        assert constant_runs(np.array([])) == []

    def test_every_sample_covered_once(self):
        rng = np.random.default_rng(3)
        x = rng.integers(0, 3, size=50).astype(float)
        runs = constant_runs(x)
        covered = sorted(i for a, b in runs for i in range(a, b))
        assert covered == list(range(50))


class TestSanitizePolicy:
    def test_defaults_valid(self):
        policy = SanitizePolicy()
        assert policy.enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_dark_s": 0.0},
            {"max_dark_s": -1.0},
            {"max_bad_fraction": 0.0},
            {"max_bad_fraction": 1.5},
            {"dark_eps": -1e-9},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SanitizePolicy(**kwargs)

    def test_min_dark_samples_scales_with_rate(self):
        policy = SanitizePolicy(max_dark_s=0.5)
        assert policy.min_dark_samples(100.0) == 50
        assert policy.min_dark_samples(1.0) == 2  # floor of 2 samples


class TestSanitizeSignal:
    def test_clean_signal_untouched(self):
        sig = Signal(textured(), 100.0)
        out = sanitize_signal(sig)
        assert out.signal is sig  # no copy for the common case
        assert not out.bad_samples.any()
        assert out.health.is_clean
        assert not out.health.sensor_fault

    def test_nan_forward_filled(self):
        data = textured(400)
        data[100:110] = np.nan
        out = sanitize_signal(Signal(data, 100.0))
        repaired = out.signal.data[:, 0]
        assert np.isfinite(repaired).all()
        assert np.all(repaired[100:110] == data[99])
        assert out.bad_samples[100:110].all()
        assert not out.bad_samples[:100].any()
        assert out.health.n_nonfinite == 10

    def test_leading_nan_becomes_zero(self):
        data = textured(300)
        data[:5] = np.inf
        out = sanitize_signal(Signal(data, 100.0))
        assert np.all(out.signal.data[:5, 0] == 0.0)

    def test_short_burst_no_sensor_fault(self):
        data = textured(1000)
        data[200:220] = np.nan  # 0.2 s << max_dark_s
        out = sanitize_signal(Signal(data, 100.0))
        assert not out.health.sensor_fault

    def test_dark_channel_trips_sensor_fault(self):
        data = textured(1000)
        data[300:500] = 4.2  # 2 s constant at fs=100
        out = sanitize_signal(Signal(data, 100.0), SanitizePolicy(max_dark_s=1.0))
        assert out.health.sensor_fault
        assert "dark_channel" in out.health.reasons
        assert any(a <= 300 and b >= 500 for a, b in out.health.dark_spans)
        assert out.health.longest_dark_s >= 2.0

    def test_nan_flood_counts_as_dark(self):
        data = textured(1000)
        data[300:500] = np.nan
        out = sanitize_signal(Signal(data, 100.0))
        assert out.health.sensor_fault
        assert "dark_channel" in out.health.reasons

    def test_bad_fraction_rule(self):
        rng = np.random.default_rng(0)
        data = textured(1000)
        # Scatter NaNs so no single run is long, but the fraction is high.
        bad = rng.random(1000) < 0.5
        bad[::2] = False  # never two adjacent -> short runs
        data[bad] = np.nan
        out = sanitize_signal(Signal(data, 100.0))
        assert out.health.bad_fraction > 0.2
        assert "nonfinite_fraction" in out.health.reasons

    def test_disabled_policy_repairs_but_never_faults(self):
        data = textured(1000)
        data[300:600] = 0.0
        out = sanitize_signal(
            Signal(data, 100.0), SanitizePolicy(enabled=False)
        )
        assert not out.health.sensor_fault
        assert out.health.reasons == ()
        assert np.isfinite(out.signal.data).all()

    def test_multichannel_dark_on_one_channel(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((1000, 3)).cumsum(axis=0)
        data[100:400, 1] = -1.0
        out = sanitize_signal(Signal(data, 100.0))
        assert out.health.sensor_fault
        # The healthy channels must be untouched.
        assert np.array_equal(out.signal.data[:, 0], data[:, 0])

    def test_health_to_dict_json_safe(self):
        import json

        data = textured(500)
        data[50:60] = np.nan
        out = sanitize_signal(Signal(data, 100.0))
        doc = out.health.to_dict()
        json.dumps(doc)
        assert doc["n_nonfinite"] == 10
        assert isinstance(out.health, ChannelHealth)


#: DWM geometry whose first window (100 s) outlasts every generated signal:
#: the engine then never trims its buffered tail, so the whole sanitized
#: stream and its repair mask stay inspectable after the last push.
_NEVER_WINDOWS = DwmParams(t_win=100.0, t_hop=50.0, t_ext=1.0, t_sigma=0.5)


@st.composite
def degraded_signals(draw):
    """A textured multi-channel signal with NaN, inf and constant bursts."""
    n = draw(st.integers(2, 300))
    n_ch = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    data = rng.standard_normal((n, n_ch)).cumsum(axis=0)
    # Constant bursts are drawn most often: on all-finite chunks they are
    # the only way a dark run can cross a chunk boundary.
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(("nan", "inf", "-inf", "const", "const")))
        start = draw(st.integers(0, n - 1))
        stop = min(n, start + draw(st.integers(1, 120)))
        cols = draw(
            st.sampled_from([slice(None)] + [slice(c, c + 1) for c in range(n_ch)])
        )
        if kind == "const":
            data[start:stop, cols] = data[start, cols]
        else:
            data[start:stop, cols] = float(kind)
    return data


def _frozen_across_cut():
    """A clean ramp frozen for samples [70, 130): a dark run across 100."""
    data = np.arange(200, dtype=np.float64).reshape(-1, 1)
    data[70:130] = data[70]
    return data


class TestSanitizerMatchesEngine:
    """``sanitize_signal`` agrees with the engine's streaming sanitize stage.

    The batch call and an unarmed engine fed the same samples in random
    chunks must report the same :class:`ChannelHealth`, the same repair
    mask and the same repaired samples, for any chunking.
    """

    @settings(max_examples=100, deadline=None)
    @given(
        data=degraded_signals(),
        rate=st.sampled_from((20.0, 100.0)),
        max_dark_s=st.sampled_from((0.1, 0.3, 1.0)),
        max_bad_fraction=st.sampled_from((0.05, 0.25, 1.0)),
        dark_eps=st.sampled_from((0.0, 1e-3)),
        enabled=st.booleans(),
        cuts=st.lists(st.integers(1, 299), max_size=24),
    )
    @example(
        data=_frozen_across_cut(),
        rate=100.0,
        max_dark_s=0.3,
        max_bad_fraction=0.25,
        dark_eps=0.0,
        enabled=True,
        cuts=[100],
    )
    def test_batch_equals_chunked_engine(
        self, data, rate, max_dark_s, max_bad_fraction, dark_eps, enabled, cuts
    ):
        policy = SanitizePolicy(
            max_dark_s=max_dark_s,
            max_bad_fraction=max_bad_fraction,
            dark_eps=dark_eps,
            enabled=enabled,
        )
        signal = Signal(data, rate)
        batch = sanitize_signal(signal, policy)

        engine = DetectionEngine(
            Signal(np.zeros((4, data.shape[1])), rate),
            DwmSynchronizer(_NEVER_WINDOWS),
            policy=policy,
        )
        bounds = [0] + sorted({c for c in cuts if c < data.shape[0]})
        bounds.append(data.shape[0])
        for start, stop in zip(bounds[:-1], bounds[1:]):
            engine.push(data[start:stop])
        clean = engine._ring.tail().copy()
        bad_rows = engine._bad_ring.tail().copy()
        result = engine.finalize()

        assert result.health == batch.health
        assert np.array_equal(bad_rows, batch.bad_samples)
        assert np.array_equal(clean, batch.signal.data)
