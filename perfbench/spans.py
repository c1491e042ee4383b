"""Span recording around the public calls of each ``repro`` layer.

The benchmark measures end-to-end numbers with no wrappers installed.  A
traced run installs the wrappers below, which time calls into each
layer's public functions and record one span per call: name, start, end,
parent span, operation id and a work count (samples, bytes, windows).
Spans stay in memory; a pool worker appends its spans to a per-process
file whenever its outermost span closes, and :func:`research_layers` and
:func:`serve_layers` turn the spans of a measured window into the
per-layer metrics.

All times are ``time.perf_counter()`` values, which on Linux read
``CLOCK_MONOTONIC`` and are therefore comparable across the benchmark,
its pool workers and the server process.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np


class Tracer:
    """In-memory span recorder shared by every wrapper of one process."""

    def __init__(self, spill_dir: Optional[Path] = None) -> None:
        #: [name, start, end, parent index or -1, operation id, work count]
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.op = ""
        self.spill_dir = spill_dir
        self.main_pid = os.getpid()
        self._spilled = 0
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # A forked pool worker starts with an empty record of its own.
        self.spans = []
        self.stack = []
        self._spilled = 0

    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op, 0.0])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def end(self, index: int, count: float = 0.0) -> None:
        span = self.spans[index]
        span[2] = perf_counter()
        span[5] = float(count)
        while self.stack and self.stack.pop() != index:
            pass
        if not self.stack and os.getpid() != self.main_pid:
            self.spill()

    def spill(self) -> None:
        """Append this process's spans to its own file and forget them."""
        if self.spill_dir is None or not self.spans:
            return
        path = self.spill_dir / f"spans-{os.getpid()}.jsonl"
        with path.open("a") as f:
            for name, start, end, parent, op, count in self.spans:
                # Parent indices count from the start of the file.
                if parent >= 0:
                    parent += self._spilled
                f.write(json.dumps([name, start, end, parent, op, count]) + "\n")
        self._spilled += len(self.spans)
        self.spans = []

    def wrap(
        self,
        name: str,
        fn: Callable,
        count: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` timed as a span; ``count(result, args)`` gives its work."""
        tracer = self
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                index = tracer.begin(name)
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    n = count(result, args) if count and result is not None else 0.0
                    tracer.end(index, n)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                n = count(result, args) if count and result is not None else 0.0
                tracer.end(index, n)

        return wrapper

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """A generator function whose every ``next()`` is one span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                index = tracer.begin(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.end(index)
                yield item

        return wrapper


def patch(owner, attr: str, replacement: Callable) -> None:
    """Replace ``owner.attr`` and every module-level binding of it.

    ``from x import f`` copies the function into the importing module, so
    a module function is re-bound in each loaded ``repro`` module that
    holds the same object.
    """
    original = getattr(owner, attr)
    setattr(owner, attr, replacement)
    if inspect.isclass(owner):
        return
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name.startswith("repro") and getattr(module, attr, None) is original:
            setattr(module, attr, replacement)


def _samples(signal) -> float:
    return float(signal.n_samples * signal.n_channels)


def _length(result, args) -> float:
    return float(len(result))


def _one(result, args) -> float:
    return 1.0


def _file_bytes(result, args) -> float:
    return float(result.stat().st_size)


def _pushed(result, args) -> float:
    samples = np.asarray(args[1])
    return float(samples.size)


def _install(tracer: Tracer, table) -> None:
    """Wrap ``owner.attr`` as span ``name`` for each row of ``table``."""
    for owner, attr, name, count in table:
        patch(owner, attr, tracer.wrap(name, getattr(owner, attr), count))


def _detection_table():
    from repro.core.comparator import Comparator
    from repro.core.engine import DetectionEngine
    from repro.sync.dwm import StreamingDwm

    return [
        (DetectionEngine, "push", "engine.push", _pushed),
        (DetectionEngine, "finalize", "engine.finalize", None),
        (StreamingDwm, "push", "dwm", _length),
        (StreamingDwm, "finalize", "dwm", _length),
        (Comparator, "pair_distances", "compare", _length),
        (Comparator, "pair_distance", "compare", _one),
        (Comparator, "vertical_distances", "compare", _length),
    ]


def install_research(tracer: Tracer) -> None:
    """Wrap the simulator, DAQ, run cache, pool, STFT, OCC and detection."""
    # import_module: ``repro.signals`` re-exports a function named
    # ``spectrogram`` that shadows the submodule of the same name.
    dataset = importlib.import_module("repro.eval.dataset")
    firmware = importlib.import_module("repro.printer.firmware")
    stft = importlib.import_module("repro.signals.spectrogram")
    from repro.cache import RunCache
    from repro.core.occ import OneClassTrainer
    from repro.eval.engine import CampaignEngine
    from repro.io import LazyRunPayload
    from repro.sensors.daq import DataAcquisition

    def acquired(result, args) -> float:
        return sum(_samples(s) for s in result.values())

    _install(
        tracer,
        _detection_table()
        + [
            (firmware, "simulate_print", "printer", _one),
            (DataAcquisition, "acquire", "sensors", acquired),
            # A pool worker's busy time: run_process around the two above.
            (dataset, "run_process", "pool.task", None),
            (RunCache, "put", "cache.write", _file_bytes),
            (RunCache, "get_lazy", "cache.lookup", _one),
            (
                LazyRunPayload,
                "signal",
                "cache.read",
                lambda result, args: float(result.data.nbytes),
            ),
            (stft, "spectrogram", "stft", lambda result, args: _samples(args[0])),
            (OneClassTrainer, "add_run", "occ", None),
            (OneClassTrainer, "thresholds", "occ", None),
        ],
    )
    patch(
        CampaignEngine,
        "iter_execute",
        tracer.wrap_generator("pool.wait", CampaignEngine.iter_execute),
    )


def install_serve(tracer: Tracer) -> None:
    """Wrap the serve hops of an inline ``repro serve`` process."""
    import repro.serve.protocol as protocol
    from repro.serve.shard import ShardPool

    def decoded(result, args) -> float:
        # Later spans of this request carry its stream and chunk number.
        tracer.op = f"{result.get('stream_id', '')}:{result.get('seq', '')}"
        return float(len(args[0]))

    _install(
        tracer,
        _detection_table()
        + [
            (protocol, "decode_request", "protocol.decode", decoded),
            (protocol, "samples_to_array", "protocol.decode", None),
            (protocol, "encode", "protocol.encode", _length),
            (ShardPool, "chunk", "shard.chunk", None),
        ],
    )


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------
def save_spans(directory: Path, pid: int, spans: Sequence[list]) -> None:
    with (directory / f"spans-{pid}.jsonl").open("a") as f:
        for span in spans:
            f.write(json.dumps(span) + "\n")


def load_spans(directory: Path) -> Dict[int, List[list]]:
    """Spans per process id, as written by :meth:`Tracer.spill`."""
    out: Dict[int, List[list]] = {}
    for path in sorted(directory.glob("spans-*.jsonl")):
        pid = int(path.stem.split("-")[1])
        with path.open() as f:
            out[pid] = [json.loads(line) for line in f]
    return out


def _union(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    end = -np.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class Window:
    """The spans of one process that started inside ``[t0, t1]``."""

    def __init__(self, spans: Sequence[list], t0: float, t1: float) -> None:
        self.spans = list(spans)
        self.inside = [i for i, s in enumerate(self.spans) if t0 <= s[1] <= t1]

    def _outermost(self, name: str) -> List[list]:
        """Spans of ``name`` not nested in another span of the same name."""
        out = []
        for i in self.inside:
            span = self.spans[i]
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                out.append(span)
        return out

    def busy(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self._outermost(name))

    def count(self, name: str) -> float:
        return sum(s[5] for s in self._outermost(name))

    def calls(self, name: str) -> int:
        return len(self._outermost(name))

    def durations(self, name: str) -> List[float]:
        return [s[2] - s[1] for s in self._outermost(name)]

    def self_times(self) -> Dict[str, float]:
        """Per-name self time: duration minus what child spans cover."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for i in self.inside:
            span = self.spans[i]
            if span[3] >= 0:
                children.setdefault(span[3], []).append((span[1], span[2]))
        out: Dict[str, float] = {}
        for i in self.inside:
            name, a, b = self.spans[i][:3]
            out[name] = out.get(name, 0.0) + (b - a) - _union(children.get(i, []))
        return out

    def accounting(self, measured_s: float) -> Tuple[float, str]:
        """Share of ``measured_s`` that no layer span covers, and a summary.

        ``measured_s`` is timed independently of the spans: the window's
        wall time for the benchmark process, the server's CPU seconds for
        a fleet.  The layer self times are subtracted from it; what is
        left is glue code, event-loop work and any layer that goes
        unwrapped.
        """
        self_s = sum(self.self_times().values())
        rest = measured_s - self_s
        share = rest / measured_s
        return share, (
            f"span accounting: {measured_s:.3f} s measured = {self_s:.3f} s "
            f"layer self time + {rest:.3f} s unspanned (share {share:.4f})"
        )


def _detection_layers(w: Window, out: Dict[str, float]) -> None:
    pushes = w.durations("engine.push")
    samples = w.count("engine.push")
    push_s = sum(pushes)
    self_s = w.self_times()
    out.update(
        {
            "engine.push_s": push_s,
            "engine.pushes": float(len(pushes)),
            "engine.ns_per_sample": push_s * 1e9 / samples if samples else 0.0,
            "engine.push_p99_ms": float(np.percentile(pushes, 99)) * 1e3
            if pushes
            else 0.0,
            "engine.self_s": self_s.get("engine.push", 0.0)
            + self_s.get("engine.finalize", 0.0),
            "dwm.busy_s": w.busy("dwm"),
            "dwm.windows": w.count("dwm"),
            "compare.busy_s": w.busy("compare"),
            "compare.windows": w.count("compare"),
        }
    )


def research_layers(
    directory: Path,
    main_pid: int,
    t0: float,
    t1: float,
    workers: int,
    overhead_s: float,
) -> Tuple[Dict[str, float], str]:
    """Per-layer metrics of a traced research run, and its span accounting.

    The accounting is over the benchmark process, against the wall time
    of the measured passes.
    """
    by_pid = load_spans(directory)
    main = Window(by_pid.get(main_pid, []), t0, t1)
    pool = [Window(s, t0, t1) for pid, s in by_pid.items() if pid != main_pid]
    out: Dict[str, float] = {}

    def everywhere(fn, name):
        return fn(main, name) + sum(fn(w, name) for w in pool)

    lookups = main.calls("cache.lookup")
    stft_samples = main.count("stft")
    stft_s = main.busy("stft")
    out.update(
        {
            "printer.busy_s": everywhere(Window.busy, "printer"),
            "printer.calls": float(everywhere(Window.calls, "printer")),
            "sensors.busy_s": everywhere(Window.busy, "sensors"),
            "sensors.samples": everywhere(Window.count, "sensors"),
            "cache.write_s": main.busy("cache.write"),
            "cache.write_mb": main.count("cache.write") / 1e6,
            "cache.read_s": main.busy("cache.lookup") + main.busy("cache.read"),
            "cache.read_mb": main.count("cache.read") / 1e6,
            "cache.hit_ratio": main.count("cache.lookup") / lookups
            if lookups
            else 0.0,
            "pool.wait_s": main.self_times().get("pool.wait", 0.0),
            "pool.busy_ratio": sum(w.busy("pool.task") for w in pool)
            / (workers * (t1 - t0)),
            "stft.busy_s": stft_s,
            "stft.ns_per_sample": stft_s * 1e9 / stft_samples
            if stft_samples
            else 0.0,
            "occ.busy_s": main.busy("occ"),
            "trace.overhead_s": overhead_s,
        }
    )
    share, accounting = main.accounting(t1 - t0)
    out["trace.unspanned_share"] = share
    _detection_layers(main, out)
    return out, accounting


def serve_layers(
    spans: Sequence[list], t0: float, t1: float, cpu_s: float
) -> Tuple[Dict[str, float], str]:
    """Per-layer metrics of the server over one fleet window, and its
    span accounting against the server's CPU seconds ``cpu_s``."""
    w = Window(spans, t0, t1)
    out: Dict[str, float] = {}
    out.update(
        {
            "protocol.decode_s": w.busy("protocol.decode"),
            "protocol.encode_s": w.busy("protocol.encode"),
            "protocol.mb_in": w.count("protocol.decode") / 1e6,
            "shard.chunk_s": w.busy("shard.chunk"),
        }
    )
    share, accounting = w.accounting(cpu_s)
    out["trace.unspanned_share"] = share
    _detection_layers(w, out)
    return out, accounting
