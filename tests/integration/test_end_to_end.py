"""End-to-end integration tests: slicer -> firmware -> sensors -> NSYNC."""

import numpy as np
import pytest

from repro import (
    Comparator,
    DwmSynchronizer,
    NsyncIds,
    PrintJob,
    TimeNoiseModel,
    ULTIMAKER3,
    UM3_DWM_PARAMS,
    default_daq,
    simulate_print,
)
from repro.attacks import SpeedAttack, VoidAttack
from repro.slicer import SlicerConfig, gear_outline


@pytest.fixture(scope="module")
def pipeline():
    """Reference IDS trained on a few benign runs of a tiny gear."""
    outline = gear_outline(n_teeth=12, outer_diameter=30.0, tooth_depth=2.0)
    config = SlicerConfig(object_height=0.4, layer_height=0.2, infill_spacing=6.0)
    job = PrintJob.slice(outline, config)
    daq = default_daq()
    noise = TimeNoiseModel()

    def acc_signal(program, seed):
        trace = simulate_print(program, ULTIMAKER3, noise, seed=seed)
        return daq.acquire(
            trace, np.random.default_rng(seed + 500), channels=["ACC"]
        )["ACC"]

    reference = acc_signal(job.program, 0)
    ids = NsyncIds(reference, DwmSynchronizer(UM3_DWM_PARAMS))
    ids.fit([acc_signal(job.program, s) for s in range(1, 9)], r=0.5)
    return job, ids, acc_signal


class TestFullPipeline:
    def test_benign_runs_pass(self, pipeline):
        job, ids, acc_signal = pipeline
        verdicts = [ids.detect(acc_signal(job.program, s)) for s in range(50, 53)]
        assert sum(v.is_intrusion for v in verdicts) == 0

    def test_speed_attack_detected(self, pipeline):
        job, ids, acc_signal = pipeline
        attacked = SpeedAttack(factor=0.95).apply(job)
        verdict = ids.detect(acc_signal(attacked.program, 60))
        assert verdict.is_intrusion

    def test_void_attack_detected(self, pipeline):
        job, ids, acc_signal = pipeline
        attacked = VoidAttack(radius=8.0).apply(job)
        verdict = ids.detect(acc_signal(attacked.program, 61))
        assert verdict.is_intrusion

    def test_alarm_index_within_run(self, pipeline):
        job, ids, acc_signal = pipeline
        attacked = SpeedAttack(factor=0.9).apply(job)
        verdict = ids.detect(acc_signal(attacked.program, 62))
        assert verdict.first_alarm_index is not None
        assert verdict.first_alarm_index >= 0

    def test_streaming_agrees_with_batch(self, pipeline):
        """Deploying the learned thresholds in the streaming IDS catches the
        same speed attack while the print is still 'running'."""
        job, ids, acc_signal = pipeline
        attacked = SpeedAttack(factor=0.9).apply(job)
        signal = acc_signal(attacked.program, 63)

        stream = ids.engine()
        for start in range(0, signal.n_samples, 1024):
            stream.push(signal.data[start : start + 1024])
        assert stream.intrusion_detected

        batch_verdict = ids.detect(signal)
        assert batch_verdict.is_intrusion

    def test_gain_drift_does_not_false_alarm(self, pipeline):
        """A 2x microphone-gain change must not trip the correlation-based
        comparator (the reason NSYNC avoids gain-sensitive metrics)."""
        job, ids, acc_signal = pipeline
        signal = acc_signal(job.program, 70)
        doubled = signal.with_data(signal.data * 2.0)
        verdict = ids.detect(doubled)
        assert not verdict.is_intrusion


class TestHdispIsProcessProperty:
    def test_hdisp_similar_across_channels(self):
        """Fig. 10: h_disp from ACC and AUD of the same run agree."""
        outline = gear_outline(n_teeth=12, outer_diameter=30.0, tooth_depth=2.0)
        config = SlicerConfig(object_height=0.4, layer_height=0.2, infill_spacing=6.0)
        job = PrintJob.slice(outline, config)
        daq = default_daq()
        noise = TimeNoiseModel()
        ref_trace = simulate_print(job.program, ULTIMAKER3, noise, seed=80)
        obs_trace = simulate_print(job.program, ULTIMAKER3, noise, seed=81)
        ref = daq.acquire(ref_trace, np.random.default_rng(0), channels=["ACC", "AUD"])
        obs = daq.acquire(obs_trace, np.random.default_rng(1), channels=["ACC", "AUD"])

        h = {}
        for cid in ("ACC", "AUD"):
            sync = DwmSynchronizer(UM3_DWM_PARAMS).synchronize(obs[cid], ref[cid])
            # displacement in seconds to compare across rates
            h[cid] = sync.h_disp / obs[cid].sample_rate

        n = min(h["ACC"].size, h["AUD"].size)
        # Agreement within a fraction of the analysis window.
        gap = np.median(np.abs(h["ACC"][:n] - h["AUD"][:n]))
        assert gap < UM3_DWM_PARAMS.t_win / 4
