"""The deployment: ``fleet_native``.

``repro serve`` runs inline in a subprocess.  One open-loop generator (this
process, one asyncio loop) feeds it over at most ``nproc`` pipelined
connections: ``PRINTERS`` printers stream Table II native-rate ACC
(4 kHz x 6 axes) in 200-sample chunks in real time, with start phases
spread over one DWM hop and one chunk period.  Half the printers
run the benign job, half the ``Speed0.95`` attack.  A chunk is due at a
fixed time whether or not earlier chunks were answered, and its latency
runs from that due time to reading its reply.  After its last chunk each
printer closes its stream; the served verdict must be bit-equal to
:func:`repro.serve.loadgen.offline_verdict` on the same samples.

The window is cut into slices of one DWM hop by due time, and
``ack_p99_ms`` is the median over slices of each slice's p99, so that
one window burst does not set a run's tail.
"""

from __future__ import annotations

import asyncio
import json
import math
import selectors
import signal
import statistics
import subprocess
import sys
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from common import Result, cpu_seconds, nproc, peak_rss_mb, percentile

from repro.attacks.gcode_attacks import SpeedAttack
from repro.core.pipeline import NsyncIds
from repro.eval.dataset import campaign_requests, default_setup
from repro.eval.engine import CampaignEngine
from repro.sensors.daq import default_daq
from repro.serve.loadgen import offline_verdict
from repro.serve.model import ServeModel
from repro.serve.protocol import MAX_LINE_BYTES, encode
from repro.sync.dwm import DwmSynchronizer

HERE = Path(__file__).resolve().parent
PRINTERS = 8
CHUNK = 200
N_TRAIN = 2
#: A chunk meets the SLO when its ok reply arrives within two real-time
#: chunk periods (100 ms at 4 kHz) of its due time.
SLO_S = 0.1
#: Signal seconds the warm-up stream sends: past the first DWM windows,
#: whose one-time lazy set-up would otherwise land in the measured tail.
WARMUP_S = 8.0
WARMUP_ID = "warmup"
#: How long the generator waits on a silent server before giving up.
SERVER_TIMEOUT_S = 30.0


@dataclass
class Printer:
    stream_id: str
    #: (offset from window start, encoded chunk line) per chunk.
    chunks: List[Tuple[float, bytes]]
    close_offset: float
    expected: Dict[str, object]
    signal_s: float


@dataclass
class Inputs:
    model_dir: Path
    warmup: List[bytes]
    printers: List[Printer]
    #: The DWM hop, in seconds.
    hop_s: float


def prepare(seed: int, seconds: float, work: Path) -> Inputs:
    """Simulate, train, pre-encode and compute expected verdicts (not timed)."""
    # One layer of the gear: a 33 s print, long enough for a 15 s window
    # plus the spread of start phases.
    setup = default_setup(object_height=0.2)
    daq = default_daq(rate_scale=1.0)
    half = PRINTERS // 2
    requests, _ = campaign_requests(
        setup,
        n_train=N_TRAIN,
        n_benign_test=1 + half,
        attacks=[SpeedAttack()],
        n_attack_runs=PRINTERS - half,
        seed=seed,
    )
    with CampaignEngine(workers=nproc()) as engine:
        runs = engine.execute(requests, daq=daq, channels=("ACC",))
    acc = [run.signals["ACC"] for run in runs]
    reference, training = acc[0], acc[1 : 1 + N_TRAIN]
    warmup, streams = acc[1 + N_TRAIN], acc[2 + N_TRAIN :]

    ids = NsyncIds(reference, DwmSynchronizer(setup.dwm_params))
    ids.fit(training)
    model = ServeModel(reference, setup.dwm_params, ids.thresholds)
    model_dir = model.save(work / "model")

    rate = reference.sample_rate
    period = CHUNK / rate
    hop = setup.dwm_params.t_hop
    printers = []
    for p, sig in enumerate(streams):
        stream_id = f"printer-{p:02d}-{runs[2 + N_TRAIN + p].label}"
        # Spread starts over one DWM hop, so window bursts do not line up,
        # and over one chunk period, so chunks do not arrive together.
        phase = (hop + period) * p / len(streams)
        n_chunks = math.ceil((seconds - phase) / period)
        if n_chunks * CHUNK > sig.n_samples:
            raise ValueError(
                f"--seconds {seconds} outruns a {sig.duration:.0f} s print"
            )
        data = sig.data[: n_chunks * CHUNK]
        chunks = [
            (
                phase + k * period,
                encode(
                    {
                        "op": "chunk",
                        "stream_id": stream_id,
                        "seq": k,
                        "samples": data[k * CHUNK : (k + 1) * CHUNK].tolist(),
                    }
                ),
            )
            for k in range(n_chunks)
        ]
        printers.append(
            Printer(
                stream_id=stream_id,
                chunks=chunks,
                close_offset=phase + n_chunks * period,
                expected=offline_verdict(model, data),
                signal_s=n_chunks * CHUNK / rate,
            )
        )
    n_warm = int(WARMUP_S * rate / CHUNK)
    warm_lines = [
        encode(
            {
                "op": "chunk",
                "stream_id": WARMUP_ID,
                "seq": k,
                "samples": warmup.data[k * CHUNK : (k + 1) * CHUNK].tolist(),
            }
        )
        for k in range(n_warm)
    ]
    return Inputs(model_dir, warm_lines, printers, hop)


# ---------------------------------------------------------------------------
# The server process
# ---------------------------------------------------------------------------
class Server:
    """One ``repro serve`` subprocess, started through the launcher."""

    def __init__(
        self,
        model_dir: Path,
        work: Path,
        trace_dir: Optional[Path],
    ) -> None:
        cmd = [sys.executable, str(HERE / "serve_launcher.py")]
        if trace_dir is not None:
            cmd += ["--trace-dir", str(trace_dir)]
        cmd += ["--", "serve", str(model_dir), "--port", "0"]
        self.log = (work / "server.log").open("ab")
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self.log, cwd=work
        )
        self.pid = self.proc.pid
        self.port = self._read_port()

    def _read_port(self) -> int:
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout=SERVER_TIMEOUT_S):
                self.stop()
                raise RuntimeError("repro serve did not start")
        line = self.proc.stdout.readline().decode()
        if not line.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"unexpected repro serve output: {line!r}")
        return int(line.split()[2].rsplit(":", 1)[1])

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=SERVER_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()
        if self.proc.returncode != 0:
            raise RuntimeError(
                f"repro serve exited with {self.proc.returncode}"
            )


async def _connect(port: int):
    return await asyncio.open_connection(
        "127.0.0.1", port, limit=MAX_LINE_BYTES
    )


async def _ask(reader, writer, line: bytes) -> Dict[str, object]:
    writer.write(line)
    await writer.drain()
    try:
        reply = await asyncio.wait_for(reader.readline(), SERVER_TIMEOUT_S)
    except asyncio.TimeoutError:
        raise RuntimeError("repro serve did not reply") from None
    return json.loads(reply) if reply else {}


async def _warm_up(port: int, inputs: Inputs) -> None:
    """One closed-loop stream through the first DWM windows, then close."""
    reader, writer = await _connect(port)
    try:
        open_, close = (
            encode({"op": op, "stream_id": WARMUP_ID}) for op in ("open", "close")
        )
        replies = [
            await _ask(reader, writer, line)
            for line in [open_, *inputs.warmup, close]
        ]
        bad = [r for r in replies if not r.get("ok")]
        if bad:
            raise RuntimeError(f"warm-up stream failed: {bad[0]}")
    finally:
        writer.close()
        await writer.wait_closed()


def start_server(
    inputs: Inputs, work: Path, trace_dir: Optional[Path] = None
) -> Tuple[Server, float]:
    """Server start, model load and warm-up stream; returns (server, s)."""
    t0 = perf_counter()
    server = Server(inputs.model_dir, work, trace_dir)
    try:
        asyncio.run(_warm_up(server.port, inputs))
    except BaseException:
        server.stop()
        raise
    return server, perf_counter() - t0


# ---------------------------------------------------------------------------
# The measured window
# ---------------------------------------------------------------------------
@dataclass
class Measured:
    """One fleet window, as the generator and ``/proc`` saw it."""

    t0: float = 0.0
    t_end: float = 0.0
    #: Length of one slice of the window, in seconds.
    slice_s: float = 1.0
    #: [due time, latency or None until an ok reply] per chunk sent.
    chunks: List[list] = field(default_factory=list)
    lags: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    timed_out: bool = False
    server_cpu_s: float = 0.0
    signal_s: float = 0.0
    peak_rss_mb: float = 0.0
    server_pid: int = 0

    def lag_p99_ms(self) -> float:
        return percentile(self.lags, 99) * 1e3

    def slice_p99s_ms(self) -> List[float]:
        """p99 of the ok chunk latencies in each slice of the window.

        Slices are ``slice_s`` long, by due time; a window shorter than
        one slice is one slice.
        """
        last = max(due for due, _ in self.chunks) - self.t0
        n = max(1, round(last / self.slice_s))
        slices: List[List[float]] = [[] for _ in range(n)]
        for due, latency in self.chunks:
            if latency is not None:
                k = min(int((due - self.t0) / self.slice_s), n - 1)
                slices[k].append(latency * 1e3)
        return [percentile(x, 99) for x in slices if x]

    def end_to_end(self, setup_s: float) -> Dict[str, float]:
        wall = self.t_end - self.t0
        ok = [x for _, x in self.chunks if x is not None]
        return {
            "setup_s": setup_s,
            "peak_rss_mb": self.peak_rss_mb,
            "wall_s": wall,
            "realtime_factor": self.signal_s / wall,
            "ack_p50_ms": percentile(ok, 50) * 1e3,
            "ack_p99_ms": statistics.median(self.slice_p99s_ms()),
            "slo_ratio": sum(x <= SLO_S for x in ok) / len(self.chunks),
            "printers_per_core": self.signal_s / self.server_cpu_s,
        }


async def _receive(reader, fifo: deque, n: int, w: Measured, expected) -> None:
    for _ in range(n):
        line = await reader.readline()
        now = perf_counter()
        kind, p, record = fifo.popleft()
        reply = json.loads(line) if line else {}
        w.t_end = max(w.t_end, now)
        w.attempted += 1
        ok = bool(reply.get("ok"))
        if kind == "chunk":
            if ok:
                record[1] = now - record[0]
        elif ok:
            ok = reply.get("result") == expected[p]
        w.failed += not ok


async def _send(writer, schedule, fifo: deque, w: Measured) -> None:
    for due, kind, p, line in schedule:
        delay = due - perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        record = [due, None]
        fifo.append((kind, p, record))
        writer.write(line)
        w.lags.append(perf_counter() - due)
        if kind == "chunk":
            w.chunks.append(record)


async def _drive(server: Server, inputs: Inputs) -> Measured:
    printers = inputs.printers
    n_conn = min(nproc(), len(printers))
    conns = [await _connect(server.port) for _ in range(n_conn)]
    try:
        for p, printer in enumerate(printers):
            reader, writer = conns[p % n_conn]
            reply = await _ask(
                reader, writer, encode({"op": "open", "stream_id": printer.stream_id})
            )
            if not reply.get("ok"):
                raise RuntimeError(f"open {printer.stream_id}: {reply}")
        t0 = perf_counter() + 0.2
        w = Measured(
            t0=t0,
            slice_s=inputs.hop_s,
            signal_s=sum(p.signal_s for p in printers),
            server_pid=server.pid,
        )
        expected = [p.expected for p in printers]
        tasks = []
        n_ops = 0
        last_due = t0
        for c, (reader, writer) in enumerate(conns):
            schedule = []
            for p in range(c, len(printers), n_conn):
                printer = printers[p]
                schedule += [
                    (t0 + off, "chunk", p, line) for off, line in printer.chunks
                ]
                close = encode({"op": "close", "stream_id": printer.stream_id})
                schedule.append((t0 + printer.close_offset, "close", p, close))
            schedule.sort(key=lambda entry: entry[0])
            n_ops += len(schedule)
            last_due = max(last_due, schedule[-1][0])
            fifo: deque = deque()
            tasks.append(asyncio.create_task(_send(writer, schedule, fifo, w)))
            tasks.append(
                asyncio.create_task(_receive(reader, fifo, len(schedule), w, expected))
            )
        await asyncio.sleep(max(0.0, t0 - perf_counter() - 0.05))
        cpu0 = cpu_seconds(server.pid)
        try:
            await asyncio.wait_for(
                asyncio.gather(*tasks),
                last_due - perf_counter() + SERVER_TIMEOUT_S,
            )
        except asyncio.TimeoutError:
            # A stalled server: every operation still unanswered failed.
            w.timed_out = True
            w.failed += n_ops - w.attempted
            w.attempted = n_ops
            w.t_end = perf_counter()
        w.server_cpu_s = cpu_seconds(server.pid) - cpu0
        w.peak_rss_mb = peak_rss_mb(server.pid)
        return w
    finally:
        for _, writer in conns:
            writer.close()
            try:
                await asyncio.wait_for(writer.wait_closed(), SERVER_TIMEOUT_S)
            except asyncio.TimeoutError:
                writer.transport.abort()


def measure(
    inputs: Inputs,
    work: Path,
    trace_dir: Optional[Path] = None,
    repeats: int = 3,
) -> Tuple[Measured, float]:
    """``repeats`` server set-ups (median = ``setup_s``), then one window."""
    setups = []
    for k in range(repeats):
        server, setup_s = start_server(inputs, work, trace_dir)
        setups.append(setup_s)
        if k < repeats - 1:
            server.stop()
    try:
        w = asyncio.run(_drive(server, inputs))
    finally:
        server.stop()
    return w, statistics.median(setups)


def run(name: str, seed: int, seconds: float, work: Path, trace_dir: Optional[Path]):
    """Run the fleet workload; traced when ``trace_dir`` is given."""
    inputs = prepare(seed, seconds, work)
    w, setup_s = measure(inputs, work)
    attempted, failed = w.attempted, w.failed
    windows = [w]
    layers = None
    notes = []
    if trace_dir is not None:
        import spans

        traced, _ = measure(inputs, work, trace_dir, repeats=1)
        windows.append(traced)
        attempted += traced.attempted
        failed += traced.failed
        server_spans = spans.load_spans(trace_dir).get(traced.server_pid, [])
        layers, accounting = spans.serve_layers(
            server_spans, traced.t0, traced.t_end, traced.server_cpu_s
        )
        notes.append(f"{name}: {accounting}")
        layers.update(
            {
                "server.cpu_s": traced.server_cpu_s,
                "server.busy_ratio": traced.server_cpu_s
                / (traced.t_end - traced.t0),
                "loadgen.lag_p99_ms": traced.lag_p99_ms(),
                "loadgen.chunks_sent": float(len(traced.chunks)),
                "trace.overhead_s": traced.server_cpu_s - w.server_cpu_s,
            }
        )
    notes += [f"loadgen lag p99 {x.lag_p99_ms():.3f} ms" for x in windows]
    # A generator that ran late measured itself, not the server.
    valid = all(x.lag_p99_ms() <= SLO_S * 1e3 for x in windows)
    if not valid:
        notes.append("INVALID: the generator ran later than the SLO limit")
    if any(x.timed_out for x in windows):
        valid = False
        notes.append(f"INVALID: repro serve went silent for {SERVER_TIMEOUT_S} s")
    return Result(w.end_to_end(setup_s), layers, attempted, failed, valid, notes)
