"""Fault-injection campaign: run the fault matrix against both detectors.

The graceful-degradation contract of the IDS is behavioural, so it gets an
executable check: simulate one printer, train the IDS on clean runs, then
replay one benign probe through every :class:`~repro.faults.models.FaultModel`
in the matrix — once through the batch :class:`~repro.core.pipeline.NsyncIds`
and once chunk-by-chunk through the armed
:class:`~repro.core.engine.DetectionEngine` it opens — and assert, per case:

1. **No unhandled exception.**  Degenerate input must degrade the verdict,
   never crash the detector.
2. **Finite evidence.**  No NaN/inf ever reaches the threshold comparisons
   (a non-finite comparison silently fails *open*).
3. **Fail-closed on dark channels.**  Faults that starve the IDS of signal
   past the :class:`~repro.core.health.SanitizePolicy` limits must raise
   the :data:`~repro.core.health.SENSOR_FAULT` alarm.

The campaign is seeded end to end (simulation seeds through the engine's
deterministic seed stream, fault randomness through per-case
``np.random.default_rng`` seeds), so a CI chaos job replays bit-identical
faults.  ``repro faults`` is the CLI front-end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.engine import DetectionEngine
from ..core.health import SENSOR_FAULT, SanitizePolicy
from ..core.pipeline import NsyncIds
from ..eval.dataset import PrinterSetup, campaign_requests, default_setup
from ..eval.engine import CampaignEngine
from ..eval.reporting import format_table
from ..signals.signal import Signal
from ..sync.dwm import DwmSynchronizer
from .models import (
    ChannelDropout,
    ChunkDuplication,
    ChunkTruncation,
    DaqDisconnect,
    FaultChain,
    FaultModel,
    NanBurst,
    SampleRateSkew,
    Saturation,
)

__all__ = [
    "FaultCase",
    "FaultCaseResult",
    "FaultCampaignResult",
    "default_fault_matrix",
    "run_fault_campaign",
    "render_fault_table",
]


@dataclass(frozen=True)
class FaultCase:
    """One entry of the fault matrix: a named fault plus its expectation."""

    name: str
    fault: FaultModel
    #: True when the fault starves the IDS of signal badly enough that the
    #: fail-closed SENSOR_FAULT alarm *must* fire.
    expect_sensor_fault: bool = False


@dataclass(frozen=True)
class FaultCaseResult:
    """Outcome of one (fault case, detector) cell of the campaign."""

    case: FaultCase
    detector: str  # "batch" or "streaming"
    ok_no_exception: bool
    ok_finite: bool
    ok_sensor_fault: bool
    sensor_fault: bool = False
    is_intrusion: bool = False
    error: Optional[str] = None

    @property
    def passed(self) -> bool:
        """All three contract checks held for this cell."""
        return self.ok_no_exception and self.ok_finite and self.ok_sensor_fault


@dataclass(frozen=True)
class FaultCampaignResult:
    """Every cell of the matrix, plus the trained thresholds used."""

    results: Tuple[FaultCaseResult, ...]
    detectors: Tuple[str, ...] = ("batch", "streaming")
    seed: int = 0
    channel: str = "ACC"
    extras: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def n_failed(self) -> int:
        return sum(not r.passed for r in self.results)

    def to_dict(self) -> dict:
        """JSON-safe rendition for ``repro faults --json``."""
        return {
            "all_passed": self.all_passed,
            "n_cases": len(self.results),
            "n_failed": self.n_failed,
            "seed": self.seed,
            "channel": self.channel,
            "detectors": list(self.detectors),
            "results": [
                {
                    "case": r.case.name,
                    "detector": r.detector,
                    "passed": r.passed,
                    "ok_no_exception": r.ok_no_exception,
                    "ok_finite": r.ok_finite,
                    "ok_sensor_fault": r.ok_sensor_fault,
                    "expect_sensor_fault": r.case.expect_sensor_fault,
                    "sensor_fault": r.sensor_fault,
                    "is_intrusion": r.is_intrusion,
                    "error": r.error,
                }
                for r in self.results
            ],
        }


def default_fault_matrix(
    duration_s: float,
    amplitude: float = 1.0,
    policy: Optional[SanitizePolicy] = None,
) -> List[FaultCase]:
    """The standard chaos matrix for a probe of ``duration_s`` seconds.

    Fault positions scale with the probe duration; dark faults last twice
    the policy's ``max_dark_s`` so they *must* trip the fail-closed rule,
    while short bursts stay under it so they must not.  ``amplitude``
    should be a high percentile of the probe's ``|x|`` so the saturation
    case clips peaks only.
    """
    policy = policy if policy is not None else SanitizePolicy()
    dark_s = 2.0 * policy.max_dark_s
    burst_s = min(0.5 * policy.max_dark_s, 0.2 * duration_s)
    return [
        FaultCase("clean", FaultChain(())),
        FaultCase(
            "nan_burst",
            NanBurst(start_s=0.3 * duration_s, duration_s=burst_s),
        ),
        FaultCase(
            "scattered_nans",
            NanBurst(
                start_s=0.1 * duration_s,
                duration_s=0.5 * duration_s,
                fraction=0.05,
            ),
        ),
        FaultCase(
            "dropout_dark",
            ChannelDropout(start_s=0.25 * duration_s, duration_s=dark_s),
            expect_sensor_fault=True,
        ),
        FaultCase("saturation", Saturation(limit=amplitude)),
        FaultCase("skew_slow", SampleRateSkew(1.02)),
        FaultCase("skew_fast", SampleRateSkew(0.98)),
        FaultCase(
            "chunk_duplicated",
            ChunkDuplication(start_s=0.4 * duration_s, duration_s=burst_s),
        ),
        FaultCase(
            "chunk_truncated",
            ChunkTruncation(start_s=0.4 * duration_s, duration_s=burst_s),
        ),
        FaultCase(
            "disconnect_nan",
            DaqDisconnect(
                start_s=0.5 * duration_s, duration_s=dark_s, mode="nan"
            ),
            expect_sensor_fault=True,
        ),
        FaultCase(
            "disconnect_drop",
            DaqDisconnect(
                start_s=0.5 * duration_s, duration_s=burst_s, mode="drop"
            ),
        ),
        FaultCase(
            "burst_then_skew",
            FaultChain(
                (
                    NanBurst(start_s=0.2 * duration_s, duration_s=burst_s),
                    SampleRateSkew(1.01),
                )
            ),
        ),
    ]


def _finite_arrays(arrays: Sequence[np.ndarray]) -> bool:
    return all(np.isfinite(np.asarray(a, dtype=float)).all() for a in arrays)


def _run_batch_case(
    case: FaultCase,
    ids: NsyncIds,
    probe: Signal,
    rng: np.random.Generator,
) -> FaultCaseResult:
    try:
        faulted = case.fault.apply(probe, rng)
        verdict = ids.detect(faulted)
    except Exception as exc:  # noqa: BLE001 - the whole point of the harness
        return FaultCaseResult(
            case=case,
            detector="batch",
            ok_no_exception=False,
            ok_finite=False,
            ok_sensor_fault=False,
            error=f"{type(exc).__name__}: {exc}",
        )
    f = verdict.features
    finite = _finite_arrays(
        [
            f.c_disp,
            f.h_dist_filtered,
            f.v_dist_filtered,
            np.asarray([f.duration_mismatch]),
        ]
    )
    fault_ok = verdict.sensor_fault_fired or not case.expect_sensor_fault
    return FaultCaseResult(
        case=case,
        detector="batch",
        ok_no_exception=True,
        ok_finite=finite,
        ok_sensor_fault=fault_ok,
        sensor_fault=verdict.sensor_fault_fired,
        is_intrusion=verdict.is_intrusion,
    )


def _run_streaming_case(
    case: FaultCase,
    detector: DetectionEngine,
    probe: Signal,
    chunk_s: float,
    rng: np.random.Generator,
) -> FaultCaseResult:
    try:
        hop = max(1, int(round(chunk_s * probe.sample_rate)))
        chunks = [
            probe.data[i : i + hop] for i in range(0, probe.n_samples, hop)
        ]
        for chunk in case.fault.apply_chunks(chunks, probe.sample_rate, rng):
            detector.push(chunk)
        # End of stream: run the engine's end-of-run checks (duration,
        # non-finite fraction) so the streaming contract covers the same
        # verdict surface as the batch one — both are the same core.
        result = detector.finalize()
    except Exception as exc:  # noqa: BLE001 - the whole point of the harness
        return FaultCaseResult(
            case=case,
            detector="streaming",
            ok_no_exception=False,
            ok_finite=False,
            ok_sensor_fault=False,
            error=f"{type(exc).__name__}: {exc}",
        )
    verdict = result.detection
    assert verdict is not None  # streaming detectors are always armed
    f = verdict.features
    finite = _finite_arrays(
        [
            f.c_disp,
            f.h_dist_filtered,
            f.v_dist_filtered,
            np.asarray([f.duration_mismatch]),
        ]
    )
    sensor_fault = verdict.sensor_fault_fired or any(
        a.submodule == SENSOR_FAULT for a in detector.alerts
    )
    fault_ok = sensor_fault or not case.expect_sensor_fault
    return FaultCaseResult(
        case=case,
        detector="streaming",
        ok_no_exception=True,
        ok_finite=finite,
        ok_sensor_fault=fault_ok,
        sensor_fault=sensor_fault,
        is_intrusion=verdict.is_intrusion,
    )


def run_fault_campaign(
    setup: Optional[PrinterSetup] = None,
    channel: str = "ACC",
    n_train: int = 4,
    seed: int = 0,
    engine: Optional[CampaignEngine] = None,
    detectors: Sequence[str] = ("batch", "streaming"),
    chunk_s: float = 0.25,
    policy: Optional[SanitizePolicy] = None,
    r: float = 0.3,
    cases: Optional[Sequence[FaultCase]] = None,
) -> FaultCampaignResult:
    """Simulate, train, and replay the fault matrix against the detectors.

    The reference, ``n_train`` training runs and one probe run are the
    :func:`~repro.eval.dataset.campaign_requests` of a campaign without
    attacks, produced through the
    :class:`~repro.eval.engine.CampaignEngine` (so a cache-backed engine
    amortizes the simulations across invocations).
    """
    for name in detectors:
        if name not in ("batch", "streaming"):
            raise ValueError(f"unknown detector {name!r}")
    setup = setup if setup is not None else default_setup()
    engine = engine if engine is not None else CampaignEngine()
    policy = policy if policy is not None else SanitizePolicy()
    requests, _ = campaign_requests(
        setup, n_train=n_train, n_benign_test=1, attacks=(), seed=seed
    )
    runs = engine.execute(requests, channels=(channel,))
    reference = runs[0].signals[channel]
    training = [run.signals[channel] for run in runs[1 : 1 + n_train]]
    probe = runs[-1].signals[channel]

    ids = NsyncIds(
        reference, DwmSynchronizer(setup.dwm_params), policy=policy
    )
    thresholds = ids.fit(training, r=r)

    if cases is None:
        amplitude = float(np.percentile(np.abs(probe.data), 99.5))
        cases = default_fault_matrix(probe.duration, amplitude, policy)

    results: List[FaultCaseResult] = []
    for index, case in enumerate(cases):
        if "batch" in detectors:
            rng = np.random.default_rng([seed, index, 0])
            results.append(_run_batch_case(case, ids, probe, rng))
        if "streaming" in detectors:
            rng = np.random.default_rng([seed, index, 1])
            results.append(
                _run_streaming_case(case, ids.engine(), probe, chunk_s, rng)
            )
    return FaultCampaignResult(
        results=tuple(results),
        detectors=tuple(detectors),
        seed=seed,
        channel=channel,
        extras={"thresholds": thresholds, "n_cases": len(cases)},
    )


def render_fault_table(result: FaultCampaignResult) -> str:
    """Monospace summary of the campaign, one row per (case, detector)."""
    headers = [
        "case",
        "detector",
        "passed",
        "finite",
        "sensor_fault",
        "expected",
        "intrusion",
        "error",
    ]
    rows = [
        [
            r.case.name,
            r.detector,
            "yes" if r.passed else "NO",
            "yes" if r.ok_finite else "NO",
            "yes" if r.sensor_fault else "no",
            "yes" if r.case.expect_sensor_fault else "no",
            "yes" if r.is_intrusion else "no",
            r.error or "",
        ]
        for r in result.results
    ]
    return format_table(headers, rows)
