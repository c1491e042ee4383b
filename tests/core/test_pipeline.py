"""Unit tests for the batch NSYNC pipeline (synthetic signals only)."""

import numpy as np
import pytest

from repro.core import NsyncIds, Thresholds
from repro.signals import Signal
from repro.sync import DwmParams, DwmSynchronizer, FastDtwSynchronizer


PARAMS = DwmParams(t_win=1.0, t_hop=0.5, t_ext=0.5, t_sigma=0.25, eta=0.2)


def textured(n=3000, fs=100.0, seed=0):
    rng = np.random.default_rng(seed)
    base = np.cumsum(rng.standard_normal(n))
    return base - np.linspace(0, base[-1], n)


def benign_run(seed, fs=100.0):
    """Same underlying process with mild random time-warp + noise."""
    rng = np.random.default_rng(seed)
    base = textured(3000, fs, seed=999)
    rate = 1.0 + 0.01 * rng.standard_normal()
    t = np.arange(int(3000 / max(rate, 0.5))) * rate
    t = t[t < 2999]
    warped = np.interp(t, np.arange(3000), base)
    return Signal(warped + 0.05 * rng.standard_normal(warped.size), fs)


def malicious_run(seed, fs=100.0):
    rng = np.random.default_rng(seed)
    return Signal(np.cumsum(rng.standard_normal(3000)), fs)


class TestNsyncIds:
    def test_detect_requires_fit(self):
        ids = NsyncIds(benign_run(0), DwmSynchronizer(PARAMS))
        with pytest.raises(RuntimeError, match="fit"):
            ids.detect(benign_run(1))

    def test_fit_returns_thresholds(self):
        ids = NsyncIds(benign_run(0), DwmSynchronizer(PARAMS))
        t = ids.fit([benign_run(s) for s in range(1, 5)], r=0.3)
        assert isinstance(t, Thresholds)
        assert ids.thresholds is t

    def test_benign_accepted_malicious_flagged(self):
        ids = NsyncIds(benign_run(0), DwmSynchronizer(PARAMS))
        ids.fit([benign_run(s) for s in range(1, 8)], r=0.3)

        benign_verdicts = [ids.detect(benign_run(s)) for s in range(20, 24)]
        assert sum(d.is_intrusion for d in benign_verdicts) <= 1

        malicious_verdicts = [ids.detect(malicious_run(s)) for s in range(30, 34)]
        assert all(d.is_intrusion for d in malicious_verdicts)

    def test_analyze_exposes_arrays(self):
        ids = NsyncIds(benign_run(0), DwmSynchronizer(PARAMS))
        analysis = ids.analyze(benign_run(1))
        n = analysis.sync.n_indexes
        assert analysis.v_dist.shape == (n,)
        assert analysis.features.c_disp.shape == (n,)
        assert analysis.features.h_dist_filtered.shape == (n,)
        assert analysis.features.duration_mismatch >= 0.0
        assert analysis.detection is None and analysis.alerts == ()

    def test_duration_mismatch_counts_windows(self):
        ref = benign_run(0)
        ids = NsyncIds(ref, DwmSynchronizer(PARAMS))
        short = Signal(ref.data[: ref.n_samples // 2], ref.sample_rate)
        analysis = ids.analyze(short)
        n_win = PARAMS.n_win(ref.sample_rate)
        n_hop = PARAMS.n_hop(ref.sample_rate)
        expected = ref.n_windows(n_win, n_hop) - short.n_windows(n_win, n_hop)
        assert analysis.features.duration_mismatch == pytest.approx(expected)

    def test_manual_thresholds_accepted(self):
        ids = NsyncIds(benign_run(0), DwmSynchronizer(PARAMS))
        ids.thresholds = Thresholds(c_c=1e9, h_c=1e9, v_c=1e9)
        assert not ids.detect(benign_run(1)).is_intrusion

    def test_works_with_fastdtw_synchronizer(self):
        ref = Signal(textured(400), 100.0)
        ids = NsyncIds(ref, FastDtwSynchronizer(radius=1))
        ids.fit([ref], r=0.3)
        d = ids.detect(ref)
        assert not d.is_intrusion

    def test_truncated_observation_fires_duration(self):
        ids = NsyncIds(benign_run(0), DwmSynchronizer(PARAMS))
        ids.fit([benign_run(s) for s in range(1, 6)], r=0.3)
        half = benign_run(50)
        half = Signal(half.data[: half.n_samples // 2], half.sample_rate)
        d = ids.detect(half)
        assert d.is_intrusion
        assert d.duration_fired


class TestAlarmTime:
    def test_alarm_time_in_seconds(self):
        ids = NsyncIds(benign_run(0), DwmSynchronizer(PARAMS))
        ids.fit([benign_run(s) for s in range(1, 8)], r=0.3)
        verdict = ids.detect(malicious_run(90))
        assert verdict.is_intrusion
        assert verdict.first_alarm_time is not None
        observed_duration = malicious_run(90).duration
        assert 0.0 <= verdict.first_alarm_time <= observed_duration

    def test_benign_has_no_alarm_time(self):
        ids = NsyncIds(benign_run(0), DwmSynchronizer(PARAMS))
        ids.fit([benign_run(s) for s in range(1, 8)], r=0.5)
        verdict = ids.detect(benign_run(91))
        if not verdict.is_intrusion:
            assert verdict.first_alarm_time is None


class TestSanitization:
    """Graceful degradation: degenerate input degrades the verdict, never
    the process (see repro.core.health)."""

    def _fitted(self, r=0.3):
        ids = NsyncIds(benign_run(0), DwmSynchronizer(PARAMS))
        ids.fit([benign_run(s) for s in range(1, 6)], r=r)
        return ids

    def test_nan_burst_detects_without_crash(self):
        ids = self._fitted()
        probe = benign_run(40)
        data = probe.data.copy()
        data[500:530] = np.nan  # 0.3 s burst, under the 1 s dark limit
        verdict = ids.detect(Signal(data, probe.sample_rate))
        f = verdict.features
        assert np.isfinite(f.c_disp).all()
        assert np.isfinite(f.h_dist_filtered).all()
        assert np.isfinite(f.v_dist_filtered).all()
        assert not verdict.sensor_fault_fired
        assert verdict.health is not None
        assert verdict.health["n_nonfinite"] == 30
        assert verdict.health["quarantined_windows"]

    def test_quarantined_windows_cover_the_burst(self):
        ids = NsyncIds(benign_run(0), DwmSynchronizer(PARAMS))
        probe = benign_run(41)
        data = probe.data.copy()
        data[1000:1030] = np.inf
        analysis = ids.analyze(Signal(data, probe.sample_rate))
        n_hop = PARAMS.n_hop(probe.sample_rate)
        n_win = PARAMS.n_win(probe.sample_rate)
        expected = [
            i
            for i in range(analysis.sync.n_indexes)
            if i * n_hop < 1030 and i * n_hop + n_win > 1000
        ]
        assert list(analysis.quarantined_windows) == expected

    def test_dark_channel_fails_closed(self):
        """A dead sensor must alarm, not stay silent (fail-closed)."""
        ids = self._fitted()
        probe = benign_run(42)
        data = probe.data.copy()
        data[800:1100] = data[799]  # 3 s frozen at fs=100
        verdict = ids.detect(Signal(data, probe.sample_rate))
        assert verdict.sensor_fault_fired
        assert verdict.is_intrusion
        assert "sensor_fault" in verdict.fired_submodules()
        assert verdict.first_alarm_index is not None
        assert verdict.first_alarm_time is not None
        assert verdict.health["sensor_fault"]
        assert "dark_channel" in verdict.health["reasons"]

    def test_to_dict_carries_health(self):
        import json

        ids = self._fitted()
        probe = benign_run(43)
        data = probe.data.copy()
        data[200:500] = 0.0
        doc = ids.detect(Signal(data, probe.sample_rate)).to_dict()
        json.dumps(doc)
        assert doc["sensor_fault_fired"]
        assert doc["health"]["sensor_fault"]

    def test_fit_rejects_dark_training_run(self):
        ids = NsyncIds(benign_run(0), DwmSynchronizer(PARAMS))
        poisoned = benign_run(2)
        data = poisoned.data.copy()
        data[100:400] = 7.0
        with pytest.raises(ValueError, match="sanitization"):
            ids.fit([benign_run(1), Signal(data, poisoned.sample_rate)])

    def test_disabled_policy_reports_health_without_alarm(self):
        from repro.core import SanitizePolicy

        ids = NsyncIds(
            benign_run(0),
            DwmSynchronizer(PARAMS),
            policy=SanitizePolicy(enabled=False),
        )
        ids.thresholds = Thresholds(c_c=1e9, h_c=1e9, v_c=1e9)
        probe = benign_run(44)
        data = probe.data.copy()
        data[800:1100] = 0.0
        verdict = ids.detect(Signal(data, probe.sample_rate))
        assert not verdict.sensor_fault_fired
        assert not verdict.is_intrusion
        assert verdict.health is not None
        assert not verdict.health["sensor_fault"]

    def test_clean_run_health_is_clean(self):
        ids = self._fitted()
        verdict = ids.detect(benign_run(45))
        assert verdict.health is not None
        assert verdict.health["n_nonfinite"] == 0
        assert verdict.health["quarantined_windows"] == []
