"""Extra real-time engine coverage: exhaustion, chunk sizes, parity."""

import numpy as np
import pytest

from repro.core import NsyncIds, Thresholds
from repro.signals import Signal
from repro.sync import DwmParams, DwmSynchronizer

PARAMS = DwmParams(t_win=1.0, t_hop=0.5, t_ext=0.5, t_sigma=0.25, eta=0.2)
FS = 100.0


def textured(n=2500, seed=0):
    rng = np.random.default_rng(seed)
    base = np.cumsum(rng.standard_normal(n))
    return base - np.linspace(0, base[-1], n)


def live_engine(reference, thresholds):
    """The armed real-time engine of a DWM IDS with known thresholds."""
    ids = NsyncIds(reference, DwmSynchronizer(PARAMS))
    ids.thresholds = thresholds
    return ids.engine()


def lenient():
    return Thresholds(c_c=1e9, h_c=1e9, v_c=1e9)


class TestChunkSizeInvariance:
    @pytest.mark.parametrize("chunk", [1, 7, 64, 500, 10_000])
    def test_evidence_independent_of_chunking(self, chunk):
        ref = Signal(textured(seed=1), FS)
        obs = textured(seed=2)

        baseline = live_engine(ref, lenient())
        baseline.push(obs)
        expected = baseline.evidence()

        stream = live_engine(ref, lenient())
        for start in range(0, obs.size, chunk):
            stream.push(obs[start : start + chunk])
        got = stream.evidence()

        assert np.allclose(got["h_disp"], expected["h_disp"])
        assert np.allclose(
            got["v_dist_filtered"], expected["v_dist_filtered"]
        )


class TestExhaustion:
    def test_observation_longer_than_reference(self):
        """When the print outruns its reference, the stream stops emitting
        windows instead of crashing — the duration check (batch mode) or an
        operator timeout handles the verdict."""
        ref = Signal(textured(1200, seed=3), FS)
        stream = live_engine(ref, lenient())
        long_obs = np.concatenate([textured(1200, seed=3), textured(2000, seed=4)])
        stream.push(long_obs)
        n = stream.evidence()["h_disp"].size
        assert n < Signal(long_obs, FS).n_windows(
            PARAMS.n_win(FS), PARAMS.n_hop(FS)
        )
        # Pushing more data after exhaustion is a no-op, not an error.
        assert stream.push(textured(500, seed=5)) == []

    def test_empty_push(self):
        ref = Signal(textured(seed=6), FS)
        stream = live_engine(ref, lenient())
        assert stream.push(np.zeros((0, 1))) == []
        assert stream.evidence()["h_disp"].size == 0


class TestAlertOrdering:
    def test_alert_values_exceed_thresholds(self):
        ref = Signal(textured(seed=7), FS)
        tight = Thresholds(c_c=1.0, h_c=1e9, v_c=1e9)
        stream = live_engine(ref, tight)
        rng = np.random.default_rng(8)
        stream.push(np.cumsum(rng.standard_normal(2500)))
        assert stream.intrusion_detected
        for alert in stream.alerts:
            assert alert.value > alert.threshold
            assert alert.submodule == "c_disp"
