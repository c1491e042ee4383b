"""Campaign generation: the simulated equivalent of the paper's testbed.

The paper performed 151 benign and 100 malicious prints per printer
(Table I).  :func:`generate_campaign` reproduces that structure at a
configurable (much smaller by default) scale: one reference run, a training
set for OCC, a benign test set, and ``n_attack_runs`` runs of each Table I
attack — every run with fresh time noise and fresh sensor noise.

A :class:`Campaign` is that ordered request plan plus the engine that
executes it: its role views and :meth:`Campaign.iter_runs` resolve runs
through :class:`~repro.eval.engine.CampaignEngine` on demand, or index the
runs of one ``execute`` pass when the campaign was materialized.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..attacks.base import Attack, PrintJob
from ..attacks.gcode_attacks import TABLE_I_ATTACKS
from ..printer.firmware import simulate_print
from ..printer.machine import MachineConfig, ROSTOCK_MAX_V3, ULTIMAKER3
from ..printer.noise import TimeNoiseModel
from ..sensors.daq import DataAcquisition, default_daq
from ..signals.signal import Signal
from ..slicer.models import gear_outline
from ..slicer.slicer import SlicerConfig
from ..sync.dwm import DwmParams, RM3_DWM_PARAMS, UM3_DWM_PARAMS

if TYPE_CHECKING:  # the engine imports this module
    from .engine import CampaignEngine, RunRequest

__all__ = [
    "PrinterSetup",
    "ProcessRun",
    "Campaign",
    "campaign_requests",
    "default_setup",
    "generate_campaign",
    "reference_from_gcode",
    "run_process",
]


@dataclass(frozen=True)
class PrinterSetup:
    """A printer plus everything needed to run the evaluation on it."""

    key: str
    machine: MachineConfig
    dwm_params: DwmParams
    slicer_config: SlicerConfig
    noise: TimeNoiseModel
    center: Tuple[float, float]

    def job(self, outline: Optional[np.ndarray] = None) -> PrintJob:
        """Slice the (default: scaled-down paper gear) for this printer."""
        if outline is None:
            outline = gear_outline()
        return PrintJob.slice(outline, self.slicer_config, center=self.center)


@dataclass(frozen=True)
class ProcessRun:
    """One simulated printing process, observed through every side channel."""

    label: str
    is_malicious: bool
    signals: Dict[str, Signal]
    layer_times: Tuple[float, ...]
    duration: float


class _RunView(Sequence):
    """A read-only run sequence over one role's slice of a campaign.

    Indexing resolves exactly the requested run through
    :meth:`Campaign.run_at`; a campaign that does not hold its runs retains
    nothing between accesses, so iterating a view never accumulates run
    payloads.
    """

    __slots__ = ("_campaign", "_start", "_count")

    def __init__(self, campaign: "Campaign", start: int, count: int) -> None:
        self._campaign = campaign
        self._start = start
        self._count = count

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._count))]
        if index < 0:
            index += self._count
        if not 0 <= index < self._count:
            raise IndexError(index)
        return self._campaign.run_at(self._start + index)

    def __repr__(self) -> str:
        return f"_RunView({self._count} runs @ {self._start})"


@dataclass(eq=False)
class Campaign:
    """The full dataset for one printer: Table I at configurable scale.

    A campaign is its ordered run requests — the reference, ``n_train``
    training runs, ``n_benign_test`` benign test runs, then
    ``n_attack_runs`` runs of each attack in ``attack_names`` — plus the
    engine, DAQ and channels that execute them.  ``training`` /
    ``benign_test`` / ``malicious_test`` are views over that layout, and
    :meth:`iter_runs` streams the whole campaign in order.

    A run is resolved through the engine when it is asked for (a cache hit
    on any warmed campaign), unless ``runs`` holds the campaign's runs from
    one :meth:`~repro.eval.engine.CampaignEngine.execute` pass
    (``generate_campaign(..., materialize=True)``); then the views index
    those instead.
    """

    setup: PrinterSetup
    requests: Tuple[RunRequest, ...] = field(repr=False)
    attack_names: Tuple[str, ...]
    n_train: int
    n_benign_test: int
    n_attack_runs: int
    channels: Tuple[str, ...]
    engine: CampaignEngine = field(repr=False)
    daq: DataAcquisition = field(repr=False)
    runs: Optional[Tuple[ProcessRun, ...]] = field(default=None, repr=False)
    _reference: Optional[ProcessRun] = field(
        default=None, init=False, repr=False
    )

    def run_at(self, index: int) -> ProcessRun:
        """The run at stream position ``index`` (held, or executed)."""
        if self.runs is not None:
            return self.runs[index]
        [(_request, run)] = self.engine.iter_execute(
            [self.requests[index]], daq=self.daq, channels=self.channels
        )
        return run

    def role_of(self, index: int) -> str:
        """The campaign role of stream position ``index``."""
        if index == 0:
            return "reference"
        if index <= self.n_train:
            return "training"
        if index <= self.n_train + self.n_benign_test:
            return "benign"
        return "malicious"

    @property
    def reference(self) -> ProcessRun:
        if self._reference is None:
            # Memoized: the reference anchors every evaluation pass, so it
            # is resolved once (a cache hit when warmed).
            self._reference = self.run_at(0)
        return self._reference

    @property
    def training(self) -> Sequence[ProcessRun]:
        return _RunView(self, 1, self.n_train)

    @property
    def benign_test(self) -> Sequence[ProcessRun]:
        return _RunView(self, 1 + self.n_train, self.n_benign_test)

    @property
    def malicious_test(self) -> Dict[str, Sequence[ProcessRun]]:
        cursor = 1 + self.n_train + self.n_benign_test
        views: Dict[str, Sequence[ProcessRun]] = {}
        for name in self.attack_names:
            views[name] = _RunView(self, cursor, self.n_attack_runs)
            cursor += self.n_attack_runs
        return views

    @property
    def n_malicious_test(self) -> int:
        return len(self.attack_names) * self.n_attack_runs

    def all_malicious(self) -> List[ProcessRun]:
        out: List[ProcessRun] = []
        for runs in self.malicious_test.values():
            out.extend(runs)
        return out

    def iter_runs(self) -> Iterator[Tuple[str, ProcessRun]]:
        """Stream ``(role, run)`` over the whole campaign, in order.

        Roles are ``"reference"``, ``"training"``, ``"benign"``, and
        ``"malicious"`` — emitted in exactly that order, so a streaming
        consumer can finish training before the first test run arrives.
        Unless the campaign holds its runs, they stream through
        :meth:`~repro.eval.engine.CampaignEngine.iter_execute`, each held
        only for its own iteration.
        """
        if self.runs is not None:
            runs: Iterable[ProcessRun] = self.runs
        else:
            runs = (
                run
                for _request, run in self.engine.iter_execute(
                    self.requests, daq=self.daq, channels=self.channels
                )
            )
        for index, run in enumerate(runs):
            yield self.role_of(index), run


def default_setup(
    printer: str = "UM3",
    object_height: float = 0.6,
    infill_spacing: float = 6.0,
    noise: Optional[TimeNoiseModel] = None,
) -> PrinterSetup:
    """The evaluation configuration for one of the paper's two printers.

    ``object_height`` defaults to a thin 3-layer slice of the paper's
    7.5 mm gear so campaigns stay laptop-sized; pass 7.5 for the full part.
    """
    noise = noise if noise is not None else TimeNoiseModel()
    slicer_config = SlicerConfig(
        object_height=object_height, infill_spacing=infill_spacing
    )
    if printer.upper() == "UM3":
        return PrinterSetup(
            key="UM3",
            machine=ULTIMAKER3,
            dwm_params=UM3_DWM_PARAMS,
            slicer_config=slicer_config,
            noise=noise,
            center=(110.0, 110.0),
        )
    if printer.upper() == "RM3":
        # Table IV's RM3 search window (t_ext = 0.1 s) is tight relative to
        # our simulator's drift rate; following the paper's own procedure
        # ("if DWM is unable to converge, crank up [eta] until DWM
        # converges", Section VI-C) the evaluation uses eta = 0.3.
        return PrinterSetup(
            key="RM3",
            machine=ROSTOCK_MAX_V3,
            dwm_params=replace(RM3_DWM_PARAMS, eta=0.3),
            slicer_config=slicer_config,
            noise=noise,
            center=(0.0, 0.0),
        )
    raise ValueError(f"unknown printer {printer!r}; expected 'UM3' or 'RM3'")


def run_process(
    setup: PrinterSetup,
    job: PrintJob,
    label: str,
    is_malicious: bool,
    seed: int,
    daq: Optional[DataAcquisition] = None,
    channels: Optional[Sequence[str]] = None,
) -> ProcessRun:
    """Simulate one printing process and record its side channels."""
    daq = daq or default_daq()
    trace = simulate_print(job.program, setup.machine, setup.noise, seed=seed)
    signals = daq.acquire(
        trace, np.random.default_rng(seed + 7_919), channels=channels
    )
    return ProcessRun(
        label=label,
        is_malicious=is_malicious,
        signals=signals,
        layer_times=tuple(trace.layer_change_times),
        duration=trace.duration,
    )


def reference_from_gcode(
    setup: PrinterSetup,
    program,
    channel: str = "ACC",
    daq: Optional[DataAcquisition] = None,
) -> Signal:
    """Simulate a G-code file to obtain a reference signal (paper §IV).

    The paper lists two ways to acquire a trusted reference: certify a
    physical benign print, or *simulate the process from its G-code file*
    ([9], [12]).  This helper is the second way: a noiseless, nominal-speed
    execution of the program through the same sensor models.
    """
    from ..printer.noise import NO_TIME_NOISE

    daq = daq or default_daq()
    trace = simulate_print(program, setup.machine, NO_TIME_NOISE, seed=0)
    return daq.acquire(
        trace, np.random.default_rng(0), channels=[channel]
    )[channel]


def campaign_requests(
    setup: PrinterSetup,
    job: Optional[PrintJob] = None,
    n_train: int = 10,
    n_benign_test: int = 10,
    attacks: Optional[Iterable[Attack]] = None,
    n_attack_runs: int = 2,
    seed: int = 0,
) -> Tuple[Tuple[RunRequest, ...], Tuple[str, ...]]:
    """Build the ordered campaign request list with seeds pre-assigned.

    Returns ``(requests, attack_names)``.  Seeds come from an *unbounded*
    sequential stream (``itertools.count(seed * 1_000_003)``) consumed in
    the exact order the serial implementation always has — reference,
    training, benign test, then attack runs — so existing campaigns keep
    their exact seed assignment while paper-scale (and larger) campaigns
    no longer hit the historical 10,000-seed ceiling.
    """
    from .engine import RunRequest

    job = job if job is not None else setup.job()
    attacks = list(attacks) if attacks is not None else TABLE_I_ATTACKS()
    seq = itertools.count(seed * 1_000_003)

    requests = [RunRequest(setup, job, "Reference", False, next(seq))]
    requests += [
        RunRequest(setup, job, "Benign", False, next(seq))
        for _ in range(n_train)
    ]
    requests += [
        RunRequest(setup, job, "Benign", False, next(seq))
        for _ in range(n_benign_test)
    ]
    attack_names: List[str] = []
    for attack in attacks:
        attacked = attack.apply(job)
        attack_names.append(attack.name)
        requests += [
            RunRequest(setup, attacked, attack.name, True, next(seq))
            for _ in range(n_attack_runs)
        ]
    return tuple(requests), tuple(attack_names)


def generate_campaign(
    setup: Optional[PrinterSetup] = None,
    channels: Sequence[str] = ("ACC", "MAG", "AUD", "EPT"),
    n_train: int = 10,
    n_benign_test: int = 10,
    attacks: Optional[Iterable[Attack]] = None,
    n_attack_runs: int = 2,
    seed: int = 0,
    daq: Optional[DataAcquisition] = None,
    workers: int = 0,
    cache=None,
    engine=None,
    materialize: bool = True,
) -> Campaign:
    """Generate a full campaign (reference + training + test sets).

    The paper's full scale is ``n_train=50, n_benign_test=100,
    n_attack_runs=20`` per printer; the defaults here are a faithful but
    laptop-sized rendition of the same structure.

    Execution goes through a :class:`~repro.eval.engine.CampaignEngine`:
    ``workers`` fans the independent simulations out over processes (``0``
    keeps the serial in-process path), and ``cache`` (a directory path or
    :class:`~repro.cache.RunCache`) memoizes runs on disk.  Seeds are
    assigned from the sequential stream *before* dispatch
    (:func:`campaign_requests`), so every ``workers`` setting produces
    bit-identical signals.  Pass a pre-configured ``engine`` to share a
    cache/pool and read back its ``stats``; it overrides
    ``workers``/``cache``.

    With ``materialize=True`` (the default) the campaign keeps the runs of
    one :meth:`~repro.eval.engine.CampaignEngine.execute` pass; warm cache
    hits among them are memmap-backed.  ``materialize=False`` executes
    nothing up front: evaluation passes stream runs through the engine one
    at a time (:meth:`Campaign.iter_runs`).  Attach a cache when such a
    campaign will be swept more than once — each pass re-resolves runs
    through the engine, which is only cheap when it hits.
    """
    from .engine import CampaignEngine

    setup = setup or default_setup()
    daq = daq or default_daq()
    job = setup.job()
    requests, attack_names = campaign_requests(
        setup,
        job=job,
        n_train=n_train,
        n_benign_test=n_benign_test,
        attacks=attacks,
        n_attack_runs=n_attack_runs,
        seed=seed,
    )
    engine = engine or CampaignEngine(workers=workers, cache=cache)
    wanted = tuple(channels) if channels is not None else daq.channel_ids
    runs = (
        tuple(engine.execute(requests, daq=daq, channels=wanted))
        if materialize
        else None
    )
    return Campaign(
        setup=setup,
        requests=requests,
        attack_names=attack_names,
        n_train=n_train,
        n_benign_test=n_benign_test,
        n_attack_runs=n_attack_runs,
        channels=wanted,
        engine=engine,
        daq=daq,
        runs=runs,
    )
