"""The research path: ``campaign_cold`` and ``offline_native``.

Both workloads evaluate a seeded UM3 campaign with
:func:`repro.eval.nsync_results`, one cell (channel x transform) at a
time.  One operation is one run evaluated in one cell.  Expected cell
outputs come from the reference path -- an eager, uncached campaign
evaluated in this process -- and every measured pass must reproduce them
run for run: the same verdict flags for each test run and the same OCC
thresholds for the cell.
"""

from __future__ import annotations

import os
import shutil
import statistics
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from common import (
    Result,
    children,
    cpu_seconds,
    nproc,
    percentile,
    peak_rss_mb,
    release_freed_memory,
    reset_peak_rss,
    rss_mb,
)

from repro.attacks.gcode_attacks import SpeedAttack
from repro.cache import RunCache
from repro.core.occ import OneClassTrainer
from repro.eval.dataset import Campaign, default_setup, generate_campaign
from repro.eval.engine import CampaignEngine
from repro.eval.experiments import RAW, SPECTRO, nsync_results
from repro.eval.metrics import IdsAccumulator
from repro.sensors.daq import default_daq

Cell = Tuple[str, str]

CAMPAIGN_CELLS: Tuple[Cell, ...] = (("ACC", RAW), ("AUD", SPECTRO))
OFFLINE_CELLS: Tuple[Cell, ...] = (("ACC", RAW), ("AUD", SPECTRO))


@dataclass
class CellOutput:
    """What one cell produced: OCC thresholds and per-test-run flags."""

    thresholds: object = None
    flags: List[tuple] = field(default_factory=list)


class Probe:
    """Per-run timestamps and verdicts of ``nsync_results`` passes.

    Installed in every run, traced or not: it wraps
    ``IdsAccumulator.record`` and ``OneClassTrainer.thresholds`` to keep
    each cell's outputs, and a campaign's ``iter_runs`` to time each run
    from the moment the evaluation asks for it until it asks for the
    next one.
    """

    def __init__(self) -> None:
        self.cell = CellOutput()
        #: Set in traced runs: spans then carry "<cell>:<run index>".
        self.tracer = None
        probe = self
        record = IdsAccumulator.record
        thresholds = OneClassTrainer.thresholds

        def recording(acc, label, is_malicious, flags, fired=None):
            probe.cell.flags.append(
                (label, bool(is_malicious), tuple(sorted(flags.items())))
            )
            return record(acc, label, is_malicious, flags, fired)

        def learning(trainer, r=None):
            probe.cell.thresholds = thresholds(trainer, r)
            return probe.cell.thresholds

        IdsAccumulator.record = recording
        OneClassTrainer.thresholds = learning

    def evaluate(self, campaign: Campaign, cell: Cell):
        """One ``nsync_results`` call; returns (output, ops).

        ``ops`` holds ``(latency_s, signal_s)`` for every evaluated
        (non-reference) run.
        """
        self.cell = CellOutput()
        marks: List[float] = []
        runs: List[Tuple[str, float]] = []
        stream = Campaign.iter_runs.__get__(campaign)

        def ask() -> None:
            # The moment the evaluation asks for run number len(marks).
            if self.tracer is not None:
                self.tracer.op = f"{' '.join(cell)}:{len(marks)}"
            marks.append(perf_counter())

        def timed_runs():
            ask()
            for role, run in stream():
                runs.append((role, run.duration))
                yield role, run
                ask()

        campaign.iter_runs = timed_runs
        try:
            nsync_results(campaign, *cell)
        finally:
            del campaign.iter_runs
        ops = [
            (marks[k + 1] - marks[k], duration)
            for k, (role, duration) in enumerate(runs)
            if role != "reference"
        ]
        return self.cell, ops


@dataclass
class Measured:
    """The measured phase of one research workload."""

    walls: List[float] = field(default_factory=list)
    peaks_mb: List[float] = field(default_factory=list)
    factors: List[float] = field(default_factory=list)
    per_core: List[float] = field(default_factory=list)
    p50s: List[float] = field(default_factory=list)
    p99s: List[float] = field(default_factory=list)
    on_time: int = 0
    attempted: int = 0
    failed: int = 0
    t_start: float = 0.0
    t_end: float = 0.0

    def end_to_end(self, setup_s: float) -> Dict[str, float]:
        return {
            "setup_s": setup_s,
            "peak_rss_mb": statistics.median(self.peaks_mb),
            "wall_s": statistics.median(self.walls),
            "realtime_factor": statistics.median(self.factors),
            "ack_p50_ms": statistics.median(self.p50s),
            "ack_p99_ms": statistics.median(self.p99s),
            "slo_ratio": self.on_time / self.attempted,
            "printers_per_core": statistics.median(self.per_core),
        }


def _failures(
    got: Sequence[CellOutput], expected: Sequence[CellOutput], n_train: int
) -> int:
    failed = 0
    for out, ref in zip(got, expected):
        if out.thresholds != ref.thresholds:
            failed += n_train
        failed += sum(a != b for a, b in zip(out.flags, ref.flags))
        failed += abs(len(out.flags) - len(ref.flags))
    return failed


class ResearchWorkload:
    """Shared skeleton: expected outputs, set-up, measured passes."""

    cells: Tuple[Cell, ...] = ()
    n_train = 0

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.workers = nproc()
        self.probe = Probe()
        self.expected: List[CellOutput] = []
        self.engine: Optional[CampaignEngine] = None
        self.campaign: Optional[Campaign] = None

    # -- hooks ----------------------------------------------------------
    def prepare(self) -> None:
        """Build the seeded inputs and the expected outputs (not timed)."""
        raise NotImplementedError

    def set_up(self) -> None:
        """Program set-up before the timed phase (``setup_s``)."""
        raise NotImplementedError

    def before_pass(self, index: int) -> None:
        pass

    def after_pass(self, index: int) -> None:
        pass

    # -- measurement ----------------------------------------------------
    def evaluate_expected(self, campaign: Campaign) -> None:
        self.expected = [self.probe.evaluate(campaign, c)[0] for c in self.cells]

    def timed_set_up(self, repeats: int) -> float:
        times = []
        for _ in range(repeats):
            if self.engine is not None:
                self.engine.close()
            t0 = perf_counter()
            self.set_up()
            times.append(perf_counter() - t0)
        return statistics.median(times)

    def measure(self, seconds: float) -> Measured:
        me = os.getpid()
        pool = children(me)
        # Forked workers share the benchmark's pages; count only what each
        # grows beyond its resident set at the start of the measurement.
        shared = sum(rss_mb(p) for p in pool)
        m = Measured(t_start=perf_counter())
        index = 0
        while True:
            self.before_pass(index)
            # Each pass starts from the same heap: no garbage of the last.
            release_freed_memory()
            for pid in [me, *pool]:
                reset_peak_rss(pid)
            cpu0 = cpu_seconds(me) + sum(cpu_seconds(p) for p in pool)
            t0 = perf_counter()
            outputs, latencies, signal_s = [], [], 0.0
            for cell in self.cells:
                out, ops = self.probe.evaluate(self.campaign, cell)
                outputs.append(out)
                for latency, duration in ops:
                    latencies.append(latency * 1e3)
                    m.on_time += latency <= duration
                    signal_s += duration
                m.attempted += len(ops)
            # Every cell evaluates the same runs: count each print once.
            printer_s = signal_s / len(self.cells)
            wall = perf_counter() - t0
            cpu = cpu_seconds(me) + sum(cpu_seconds(p) for p in pool) - cpu0
            m.walls.append(wall)
            m.peaks_mb.append(
                peak_rss_mb(me) + sum(peak_rss_mb(p) for p in pool) - shared
            )
            m.p50s.append(percentile(latencies, 50))
            m.p99s.append(percentile(latencies, 99))
            m.factors.append(signal_s / wall)
            m.per_core.append(printer_s / cpu)
            m.failed += _failures(outputs, self.expected, self.n_train)
            self.after_pass(index)
            index += 1
            if perf_counter() - m.t_start >= seconds:
                break
        m.t_end = perf_counter()
        return m

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()
            self.engine = None


class CampaignCold(ResearchWorkload):
    """14 scaled-rate runs simulated into an empty cache, then 2 cells."""

    cells = CAMPAIGN_CELLS
    n_train = 4
    channels = ("ACC", "AUD")

    def shape(self) -> Dict[str, object]:
        return dict(
            channels=self.channels,
            n_train=self.n_train,
            n_benign_test=4,
            n_attack_runs=1,
            seed=self.seed,
        )

    def prepare(self) -> None:
        self.printer_setup = default_setup()
        self.daq = default_daq()
        with CampaignEngine(workers=self.workers) as eng:
            reference = generate_campaign(
                self.printer_setup, daq=self.daq, engine=eng, **self.shape()
            )
        self.evaluate_expected(reference)

    def set_up(self) -> None:
        self.engine = CampaignEngine(workers=self.workers)
        self.campaign = generate_campaign(
            self.printer_setup,
            daq=self.daq,
            engine=self.engine,
            materialize=False,
            **self.shape(),
        )
        # Fork every pool worker now rather than at the first request;
        # CampaignEngine has no public call that only starts its pool.
        pool = self.engine._ensure_pool()
        for future in [pool.submit(os.getpid) for _ in range(self.workers)]:
            future.result()

    def before_pass(self, index: int) -> None:
        self.engine.cache = RunCache(self.work / f"cold-{index}")

    def after_pass(self, index: int) -> None:
        shutil.rmtree(self.work / f"cold-{index}", ignore_errors=True)


class OfflineNative(ResearchWorkload):
    """5 runs at Table II native rates read from a prebuilt cache, 2 cells."""

    cells = OFFLINE_CELLS
    n_train = 2
    channels = ("ACC", "AUD")

    def shape(self) -> Dict[str, object]:
        return dict(
            channels=self.channels,
            n_train=self.n_train,
            n_benign_test=1,
            attacks=[SpeedAttack()],
            n_attack_runs=1,
            seed=self.seed,
        )

    def prepare(self) -> None:
        # One layer of the gear at 0.4 scale: a 17 s print, so that a run
        # of the benchmark holds several passes over the cells.
        gear = default_setup(object_height=0.2)
        self.printer_setup = replace(
            gear, slicer_config=gear.slicer_config.with_updates(scale=0.4)
        )
        self.daq = default_daq(rate_scale=1.0)
        self.cache_dir = self.work / "native-cache"
        with CampaignEngine(workers=self.workers, cache=self.cache_dir) as eng:
            built = generate_campaign(
                self.printer_setup, daq=self.daq, engine=eng, **self.shape()
            )
        self.evaluate_expected(built)

    def set_up(self) -> None:
        self.engine = CampaignEngine(workers=self.workers, cache=self.cache_dir)
        self.campaign = generate_campaign(
            self.printer_setup,
            daq=self.daq,
            engine=self.engine,
            materialize=False,
            **self.shape(),
        )


WORKLOADS = {"campaign_cold": CampaignCold, "offline_native": OfflineNative}


def run(
    name: str, seed: int, seconds: float, work: Path, trace_dir: Optional[Path]
):
    """Run one research workload; traced when ``trace_dir`` is given."""
    workload = WORKLOADS[name](seed, work)
    try:
        workload.prepare()
        release_freed_memory()
        setup_s = workload.timed_set_up(repeats=5)
        measured = workload.measure(seconds)
        attempted, failed = measured.attempted, measured.failed
        layers = None
        notes = []
        if trace_dir is not None:
            import spans

            tracer = spans.Tracer(spill_dir=trace_dir)
            spans.install_research(tracer)
            workload.probe.tracer = tracer
            workload.timed_set_up(repeats=1)
            traced = workload.measure(seconds)
            attempted += traced.attempted
            failed += traced.failed
            spans.save_spans(trace_dir, os.getpid(), tracer.spans)
            layers, accounting = spans.research_layers(
                trace_dir,
                os.getpid(),
                traced.t_start,
                traced.t_end,
                workers=workload.workers,
                overhead_s=statistics.median(traced.walls)
                - statistics.median(measured.walls),
            )
            notes.append(f"{name}: {accounting}")
        return Result(
            measured.end_to_end(setup_s), layers, attempted, failed, notes=notes
        )
    finally:
        workload.close()
