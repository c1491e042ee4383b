"""Campaign engine benchmarks: parallel fan-out + content-addressed cache.

Measures the three execution regimes of the same small UM3 campaign:

* ``cold serial``    — workers=0, no cache (the pre-engine baseline);
* ``cold parallel``  — workers=4, no cache (pure fan-out speedup);
* ``warm cache``     — workers=0, cache populated (zero simulations),
  timed through one full read of every run's samples.

Each regime times :meth:`CampaignEngine.execute` alone.  The campaign's
run requests (slicing the part and re-slicing it for every attack) are
built once with :func:`campaign_requests`, outside every timed region:
slicing is not engine work, and inside the warm timing it dominated.

All three produce bit-identical runs (asserted).  Timings and cache
stats are appended to ``benchmarks/results/BENCH_campaign.json`` so the
perf trajectory is tracked across PRs.  The parallel-scaling assertion is
gated on the host actually having >= 4 cores; the cache assertion holds on
any machine because a warm campaign does no simulation at all.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro import obs
from repro.attacks import TABLE_I_ATTACKS
from repro.eval import CampaignEngine, campaign_requests, default_setup

from conftest import record_campaign_stats

CHANNELS = ("ACC", "AUD")


def _assert_identical(a, b):
    assert len(a) == len(b)
    for run_a, run_b in zip(a, b):
        assert run_a.label == run_b.label
        assert run_a.layer_times == run_b.layer_times
        for channel in run_a.signals:
            assert np.array_equal(
                run_a.signals[channel].data, run_b.signals[channel].data
            )


def test_engine_cache_and_parallel_speedup(tmp_path):
    setup = default_setup("UM3", object_height=0.6)
    requests, _ = campaign_requests(
        setup,
        attacks=TABLE_I_ATTACKS(),
        n_train=2,
        n_benign_test=2,
        n_attack_runs=1,
        seed=11,
    )

    def timed(engine):
        t0 = time.perf_counter()
        runs = engine.execute(requests, channels=CHANNELS)
        return runs, time.perf_counter() - t0

    serial, cold_serial = timed(CampaignEngine(workers=0))
    with CampaignEngine(workers=4) as engine:
        parallel, cold_parallel = timed(engine)
    cold_engine = CampaignEngine(workers=0, cache=tmp_path / "cache")
    populated, cold_cached = timed(cold_engine)

    # The warm pass is additionally traced so the record carries the
    # engine's span/counter snapshot next to its timing.
    warm_engine = CampaignEngine(workers=0, cache=tmp_path / "cache")
    was_enabled = obs.enabled()
    obs.reset()
    obs.enable()
    t0 = time.perf_counter()
    try:
        warm = warm_engine.execute(requests, channels=CHANNELS)
        # Warm hits are memmaps: read every sample once, so the timing
        # covers payload IO rather than metadata opens alone.
        for run in warm:
            for signal in run.signals.values():
                np.asarray(signal.data).sum()
    finally:
        warm_time = time.perf_counter() - t0
        warm_metrics = obs.snapshot()
        obs.reset()
        if not was_enabled:
            obs.disable()

    _assert_identical(serial, parallel)
    _assert_identical(serial, populated)
    _assert_identical(serial, warm)
    assert warm_engine.stats.simulated == 0
    assert warm_engine.stats.cache_hits == cold_engine.stats.cache_misses

    warm_speedup = cold_serial / max(warm_time, 1e-9)
    parallel_speedup = cold_serial / max(cold_parallel, 1e-9)
    record = {
        "cold_serial": cold_serial,
        "cold_parallel_w4": cold_parallel,
        "cold_cached": cold_cached,
        "warm_cache": warm_time,
        "warm_speedup": warm_speedup,
        "parallel_speedup_w4": parallel_speedup,
        "cpu_count": os.cpu_count(),
    }
    record_campaign_stats(
        "engine_speedup", {**record, "metrics": warm_metrics}
    )

    # A warm cache skips every simulation; anything under 4x would mean the
    # payload IO regressed to the same order as the simulator itself.
    assert warm_speedup >= 4.0
    # Fan-out scaling only holds when the cores exist to fan out onto.
    if (os.cpu_count() or 1) >= 4:
        assert parallel_speedup >= 2.0
