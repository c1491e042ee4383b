"""Shared fixtures: tiny print jobs and a session-scoped mini campaign.

Simulation is the expensive part of this test suite, so everything derived
from the simulator is session-scoped and deliberately small (a 2-3 layer
slice of the paper's gear, one or two side channels).
"""

from __future__ import annotations

import os
from dataclasses import replace

import numpy as np
import pytest

try:
    from hypothesis import HealthCheck, settings

    # CI profile: no wall-clock deadline (shared runners stall), a bounded
    # example budget, and printed reproduction blobs so a red property run
    # in the log is replayable locally.  Select with HYPOTHESIS_PROFILE=ci;
    # the default profile stays untouched for local runs.
    settings.register_profile(
        "ci",
        deadline=None,
        max_examples=30,
        print_blob=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
except ImportError:  # pragma: no cover - hypothesis ships with [dev]
    pass

from repro.attacks import PrintJob
from repro.eval import Campaign, default_setup, generate_campaign
from repro.printer import (
    NO_TIME_NOISE,
    TimeNoiseModel,
    ULTIMAKER3,
    simulate_print,
)
from repro.sensors import default_daq
from repro.signals import Signal
from repro.slicer import SlicerConfig, gear_outline


@pytest.fixture(scope="session")
def gear_outline_small() -> np.ndarray:
    return gear_outline(n_teeth=12, outer_diameter=30.0, tooth_depth=2.0)


@pytest.fixture(scope="session")
def tiny_config() -> SlicerConfig:
    return SlicerConfig(
        object_height=0.4, layer_height=0.2, infill_spacing=6.0
    )


@pytest.fixture(scope="session")
def tiny_job(gear_outline_small, tiny_config) -> PrintJob:
    return PrintJob.slice(gear_outline_small, tiny_config)


@pytest.fixture(scope="session")
def tiny_trace(tiny_job):
    """Deterministic (noise-free) trace of the tiny job."""
    return simulate_print(tiny_job.program, ULTIMAKER3, NO_TIME_NOISE, seed=0)


@pytest.fixture(scope="session")
def noisy_trace(tiny_job):
    return simulate_print(
        tiny_job.program, ULTIMAKER3, TimeNoiseModel(), seed=1
    )


@pytest.fixture(scope="session")
def acc_pair(tiny_job):
    """(observed, reference) ACC signals of two noisy runs of the same job."""
    daq = default_daq()
    ref_trace = simulate_print(
        tiny_job.program, ULTIMAKER3, TimeNoiseModel(), seed=10
    )
    obs_trace = simulate_print(
        tiny_job.program, ULTIMAKER3, TimeNoiseModel(), seed=11
    )
    ref = daq.acquire(ref_trace, np.random.default_rng(0), channels=["ACC"])["ACC"]
    obs = daq.acquire(obs_trace, np.random.default_rng(1), channels=["ACC"])["ACC"]
    return obs, ref


@pytest.fixture(scope="session")
def mini_campaign() -> Campaign:
    """Smallest meaningful campaign: ACC only, 3+3 benign, 1 run/attack."""
    setup = default_setup("UM3", object_height=0.4)
    return generate_campaign(
        setup,
        channels=("ACC",),
        n_train=3,
        n_benign_test=3,
        n_attack_runs=1,
        seed=42,
    )


@pytest.fixture(scope="session")
def dark_training_campaign(mini_campaign) -> Campaign:
    """The mini campaign with a 2 s dark stretch in its first training run.

    A channel repeating one value for longer than
    ``SanitizePolicy.max_dark_s`` (1 s) trips SENSOR_FAULT.
    """
    runs = list(mini_campaign.runs)
    run = runs[1]
    signal = run.signals["ACC"]
    data = np.array(signal.data)
    n_dark = int(2.0 * signal.sample_rate)
    data[100 : 100 + n_dark] = data[100]
    runs[1] = replace(run, signals={"ACC": Signal(data, signal.sample_rate)})
    return replace(mini_campaign, runs=tuple(runs))


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture()
def sine_signal() -> Signal:
    t = np.arange(0, 2.0, 1 / 100.0)
    return Signal(np.sin(2 * np.pi * 5 * t), sample_rate=100.0)
