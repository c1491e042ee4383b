"""Structured decision-provenance event log (schema v1, zero deps).

Where :mod:`repro.obs.metrics` answers "how fast / how many", this module
answers "**why did this alarm fire, and where in the print?**".  The
detection engine (:class:`~repro.core.engine.DetectionEngine`, also behind
:class:`~repro.core.pipeline.NsyncIds`) emits one
``window_evidence`` event per analysis window — the paper's discriminator
evidence: horizontal displacement, CADHD, and the filtered horizontal /
vertical distances against their OCC thresholds — plus ``alarm`` and
``run_summary`` events, and the campaign engine emits run-lifecycle events
with cache keys.  ``repro explain`` joins the resulting log with the
simulator's sample→instruction mapping to render an incident report.

Design constraints mirror :mod:`repro.obs` (PR 2):

1. **Disabled must cost ~nothing.**  Events are off by default; call sites
   guard hot loops with :func:`enabled` (one module-level boolean) and
   :func:`log` hands back the shared :data:`NULL_EVENT_LOG` whose ``emit``
   is empty — no clock, no dict, no I/O.
2. **Bounded memory when on.**  The in-memory view is a ring buffer
   (``collections.deque(maxlen=...)``); the complete stream goes to an
   append-only JSONL sink when a path is given.
3. **Zero dependencies.**  ``threading`` + ``time`` + ``json`` only.
4. **Safe to leave on for days.**  The sink has an explicit flush policy
   (``flush_every`` records; default every record, so a crash loses at
   most the in-flight one) and size-based rotation
   (``max_bytes`` / ``REPRO_EVENTS_MAX_MB``): when the live file would
   exceed the cap it is closed and shifted to ``<path>.1`` (existing
   ``.N`` shift to ``.N+1``) *before* the record is written, so a
   rotation boundary never splits a JSON record.  :func:`read_jsonl`
   reassembles the rotated chain oldest-first and still enforces the
   strictly-increasing ``seq``.

Event record schema (version :data:`EVENT_SCHEMA_VERSION`)::

    {"v": 1, "seq": <monotonic int>, "ts": <unix seconds>,
     "type": "<event type>", ...payload fields...}

``seq`` is strictly increasing per log; payload fields are JSON-safe
scalars/lists.  :data:`EVENT_TYPES` names the required payload fields per
type; :func:`validate_event` enforces the schema (used by tests and
``scripts/validate_events.py``).

Usage::

    from repro.obs import events

    events.enable(jsonl_path="run.jsonl")   # or REPRO_EVENTS=run.jsonl
    verdict = ids.detect(observed)           # pipeline emits as it decides
    events.tail(3, etype="alarm")            # in-memory ring
    events.disable()                         # flush + close the sink

Note on multiprocessing: like the metrics registry, the event log lives in
the emitting process.  ``CampaignEngine(workers>=2)`` runs simulations in
workers whose events are not merged back; detection always runs in the
parent, so decision provenance is complete regardless of worker count.
"""

from __future__ import annotations

import json
import os
import threading
import time
import warnings
from collections import deque
from pathlib import Path
from typing import Deque, Dict, List, Optional, Tuple, Union

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "EVENT_TYPES",
    "ENV_VAR",
    "MAX_MB_ENV_VAR",
    "rotated_paths",
    "EventLog",
    "NullEventLog",
    "NULL_EVENT_LOG",
    "enabled",
    "enable",
    "disable",
    "log",
    "emit",
    "tail",
    "validate_event",
    "TornTailWarning",
    "read_jsonl",
    "configure_from_env",
]

#: Schema version stamped into every record's ``v`` field.
EVENT_SCHEMA_VERSION = 1

#: Environment variable: a JSONL sink path, or ``mem`` for ring-only.
ENV_VAR = "REPRO_EVENTS"

#: Environment variable: rotate the JSONL sink when it would exceed this
#: many MiB (float; unset/empty = never rotate).
MAX_MB_ENV_VAR = "REPRO_EVENTS_MAX_MB"

#: Required payload fields per event type (schema v1).  Emitters may add
#: extra fields; validators only require these.
EVENT_TYPES: Dict[str, Tuple[str, ...]] = {
    # One per analysis window: the discriminator's evidence at that window.
    "window_evidence": ("window", "h_disp", "c_disp", "h_dist_f", "v_dist_f"),
    # A sub-module crossed its threshold at a window.
    "alarm": ("window", "submodule", "value", "threshold"),
    # End-of-run verdict plus the window geometry `repro explain` needs.
    "run_summary": ("is_intrusion", "fired", "n_windows"),
    # The streaming v_dist fallback kicked in (window too short to compare).
    "window_truncated": ("window", "n"),
    # The sanitization stage repaired non-finite samples inside a window;
    # the window's evidence is computed from the repaired data and flagged.
    "window_quarantined": ("window", "n_bad"),
    # Fail-closed sensor verdict: the channel went dark / flooded with
    # non-finite samples beyond the SanitizePolicy limits.
    "sensor_fault": ("reason",),
    # Campaign-engine run lifecycle.
    "engine_batch_start": ("n_requests",),
    "engine_run": ("index", "label", "source"),
    "engine_batch_end": ("simulated", "cache_hits", "cache_misses"),
}

_REQUIRED_KEYS = ("v", "seq", "ts", "type")


class EventLog:
    """Thread-safe append-only event log: JSONL sink + in-memory ring.

    Parameters
    ----------
    ring_size:
        Capacity of the in-memory ring buffer (oldest events are dropped
        first; the JSONL sink, when given, always keeps the full stream).
    jsonl_path:
        Optional path of an append-only JSON-Lines sink; parent
        directories are created.  ``None`` keeps events in memory only.
    max_bytes:
        Rotate the sink when the live file would exceed this size
        (``None`` = never).  Rotation happens *before* the offending
        record is written, at a record boundary: the live file moves to
        ``<path>.1`` (older generations shift up) and a fresh file takes
        its place — no record is ever split across generations.
    flush_every:
        Flush the sink every N records (default 1: every record is
        durable as soon as :meth:`emit` returns).  ``0`` leaves flushing
        to the OS buffer / :meth:`flush` / :meth:`close` — cheaper for
        very chatty logs, at the cost of losing the buffered tail on a
        crash.
    """

    def __init__(
        self,
        ring_size: int = 4096,
        jsonl_path: Union[str, "os.PathLike", None] = None,
        max_bytes: Optional[int] = None,
        flush_every: int = 1,
    ) -> None:
        if ring_size < 1:
            raise ValueError(f"ring_size must be >= 1, got {ring_size}")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        if flush_every < 0:
            raise ValueError(f"flush_every must be >= 0, got {flush_every}")
        self._lock = threading.Lock()
        self._seq = 0
        self._ring: Deque[dict] = deque(maxlen=ring_size)
        self._path: Optional[Path] = None
        self._sink = None
        self.max_bytes = max_bytes
        self.flush_every = flush_every
        self.rotations = 0
        self._bytes = 0
        self._unflushed = 0
        if jsonl_path is not None:
            self._path = Path(jsonl_path)
            if self._path.parent != Path(""):
                self._path.parent.mkdir(parents=True, exist_ok=True)
            self._sink = open(self._path, "a", encoding="utf-8")
            # Appending to an existing file: count what is already there
            # so the rotation threshold covers the whole live file.
            self._bytes = self._path.stat().st_size

    # ------------------------------------------------------------------
    @property
    def path(self) -> Optional[Path]:
        """The JSONL sink path, or ``None`` for a memory-only log."""
        return self._path

    @property
    def seq(self) -> int:
        """Number of events emitted so far (next record's ``seq``)."""
        return self._seq

    def emit(self, etype: str, **fields: object) -> dict:
        """Record one event; returns the full record (with ``seq``/``ts``)."""
        with self._lock:
            record = {
                "v": EVENT_SCHEMA_VERSION,
                "seq": self._seq,
                "ts": time.time(),
                "type": etype,
            }
            record.update(fields)
            self._seq += 1
            self._ring.append(record)
            if self._sink is not None:
                line = json.dumps(record) + "\n"
                n_bytes = len(line.encode("utf-8"))
                if (
                    self.max_bytes is not None
                    and self._bytes > 0
                    and self._bytes + n_bytes > self.max_bytes
                ):
                    self._rotate_locked()
                self._sink.write(line)
                self._bytes += n_bytes
                self._unflushed += 1
                if self.flush_every and self._unflushed >= self.flush_every:
                    self._sink.flush()
                    self._unflushed = 0
        return record

    def _rotate_locked(self) -> None:
        """Close the live file and shift the generation chain up by one.

        Caller holds the lock and writes the next record to the fresh
        file, so every generation holds only whole records.
        """
        assert self._sink is not None and self._path is not None
        self._sink.flush()
        self._sink.close()
        n = 1
        while Path(f"{self._path}.{n}").exists():
            n += 1
        for i in range(n - 1, 0, -1):
            os.replace(f"{self._path}.{i}", f"{self._path}.{i + 1}")
        os.replace(self._path, f"{self._path}.1")
        self._sink = open(self._path, "a", encoding="utf-8")
        self._bytes = 0
        self._unflushed = 0
        self.rotations += 1

    def tail(self, n: Optional[int] = None, etype: Optional[str] = None) -> List[dict]:
        """The last ``n`` ring-buffered events (all when ``n`` is None),
        optionally filtered by type."""
        with self._lock:
            records = list(self._ring)
        if etype is not None:
            records = [r for r in records if r.get("type") == etype]
        if n is not None:
            records = records[-n:]
        return records

    def flush(self) -> None:
        """Flush the JSONL sink (no-op for memory-only logs)."""
        with self._lock:
            if self._sink is not None:
                self._sink.flush()

    def close(self) -> None:
        """Flush and close the sink; further emits stay in memory only."""
        with self._lock:
            if self._sink is not None:
                self._sink.flush()
                self._sink.close()
                self._sink = None


class NullEventLog:
    """Disabled-path log: accepts every call and drops it."""

    __slots__ = ()
    path = None
    seq = 0

    def emit(self, etype: str, **fields: object) -> None:
        pass

    def tail(self, n: Optional[int] = None, etype: Optional[str] = None) -> List[dict]:
        return []

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


#: Shared singleton handed out whenever event logging is disabled.
NULL_EVENT_LOG = NullEventLog()

_log: Optional[EventLog] = None


def enabled() -> bool:
    """Is decision-provenance event logging currently recording?"""
    return _log is not None


def enable(
    jsonl_path: Union[str, "os.PathLike", None] = None,
    ring_size: int = 4096,
    max_bytes: Optional[int] = None,
    flush_every: int = 1,
) -> EventLog:
    """Install a fresh process-wide :class:`EventLog` and return it.

    Replaces (and closes) any previously active log.  ``max_bytes`` /
    ``flush_every`` configure sink rotation and durability (see
    :class:`EventLog`).
    """
    global _log
    if _log is not None:
        _log.close()
    _log = EventLog(
        ring_size=ring_size,
        jsonl_path=jsonl_path,
        max_bytes=max_bytes,
        flush_every=flush_every,
    )
    return _log


def disable() -> None:
    """Close and drop the active log (idempotent)."""
    global _log
    if _log is not None:
        _log.close()
        _log = None


def log() -> Union[EventLog, NullEventLog]:
    """The active log, or the shared null log while disabled.

    Hot per-window call sites should additionally guard with
    :func:`enabled` so the disabled path never builds a kwargs dict.
    """
    return _log if _log is not None else NULL_EVENT_LOG


def emit(etype: str, **fields: object) -> Optional[dict]:
    """Module-level shortcut for ``log().emit(...)``; None while disabled."""
    if _log is None:
        return None
    return _log.emit(etype, **fields)


def tail(n: Optional[int] = None, etype: Optional[str] = None) -> List[dict]:
    """Module-level shortcut for ``log().tail(...)``."""
    return log().tail(n, etype)


def validate_event(record: object) -> dict:
    """Validate one record against schema v1; returns it or raises.

    Checks the envelope (``v``/``seq``/``ts``/``type``), the schema
    version, and — for the known :data:`EVENT_TYPES` — the per-type
    required payload fields.  Unknown types pass with a valid envelope so
    consumers stay forward-compatible.
    """
    if not isinstance(record, dict):
        raise ValueError(f"event must be a JSON object, got {type(record).__name__}")
    for key in _REQUIRED_KEYS:
        if key not in record:
            raise ValueError(f"event missing required key {key!r}: {record}")
    if record["v"] != EVENT_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported event schema version {record['v']!r} "
            f"(expected {EVENT_SCHEMA_VERSION})"
        )
    if not isinstance(record["seq"], int) or record["seq"] < 0:
        raise ValueError(f"event seq must be a non-negative int: {record}")
    if not isinstance(record["ts"], (int, float)):
        raise ValueError(f"event ts must be a number: {record}")
    etype = record["type"]
    if not isinstance(etype, str) or not etype:
        raise ValueError(f"event type must be a non-empty string: {record}")
    required = EVENT_TYPES.get(etype)
    if required is not None:
        missing = [f for f in required if f not in record]
        if missing:
            raise ValueError(
                f"event of type {etype!r} missing fields {missing}: {record}"
            )
    return record


def rotated_paths(path: Union[str, "os.PathLike"]) -> List[Path]:
    """The full generation chain of a (possibly rotated) sink, oldest first.

    ``[<path>.N, ..., <path>.2, <path>.1, <path>]`` for every generation
    that exists on disk — the order in which :func:`read_jsonl`
    concatenates them so ``seq`` stays strictly increasing.
    """
    base = Path(path)
    n = 1
    generations: List[Path] = []
    while Path(f"{base}.{n}").exists():
        generations.append(Path(f"{base}.{n}"))
        n += 1
    generations.reverse()
    generations.append(base)
    return generations


class TornTailWarning(UserWarning):
    """A torn (incomplete) trailing record was dropped by :func:`read_jsonl`."""


def _read_one(
    path: Path,
    records: List[dict],
    validate: bool,
    last_seq: int,
    tolerate_tail: bool = False,
) -> int:
    """Append one file's records; returns the updated last ``seq``.

    With ``tolerate_tail`` a JSON decode failure on the file's *final*
    non-empty line is treated as a torn write (interrupted process): that
    one record is dropped and reported via :class:`TornTailWarning`.  A
    decode failure anywhere earlier is mid-file corruption and still
    raises ``ValueError``, as do schema and ``seq`` violations — a torn
    tail can only ever be the last thing written.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            is_tail = all(not rest.strip() for rest in lines[lineno:])
            if tolerate_tail and is_tail:
                warnings.warn(
                    f"{path}:{lineno}: dropped torn trailing record "
                    f"({exc}): {line[:80]!r}",
                    TornTailWarning,
                    stacklevel=3,
                )
                break
            raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from None
        if validate:
            try:
                validate_event(record)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if record["seq"] <= last_seq:
                raise ValueError(
                    f"{path}:{lineno}: seq {record['seq']} not increasing "
                    f"(previous {last_seq})"
                )
            last_seq = record["seq"]
        records.append(record)
    return last_seq


def read_jsonl(
    path: Union[str, "os.PathLike"],
    validate: bool = True,
    include_rotated: bool = True,
    tolerate_torn_tail: bool = False,
) -> List[dict]:
    """Load an events JSONL file; optionally validate every record.

    Rotation-aware: with ``include_rotated`` (the default) any
    ``<path>.N`` generations left by sink rotation are read first,
    oldest to newest, then the live file — one seamless stream.  Also
    checks that ``seq`` is strictly increasing when validating (across
    the whole chain) — a truncated or interleaved log fails loudly
    instead of producing a silently wrong incident report.

    ``tolerate_torn_tail`` is for crash-recovery forensics: a SIGKILLed
    writer can leave a partial final line in the *newest* file of the
    chain.  When set, exactly that one incomplete trailing record is
    dropped and reported via :class:`TornTailWarning`; corruption
    anywhere else (mid-file garbage, rotated generations, ``seq``
    regressions) still raises ``ValueError``.
    """
    base = Path(path)
    paths = rotated_paths(base) if include_rotated else [base]
    records: List[dict] = []
    last_seq = -1
    for p in paths:
        if p != base and not p.exists():
            continue
        last_seq = _read_one(
            p,
            records,
            validate,
            last_seq,
            tolerate_tail=tolerate_torn_tail and p == paths[-1],
        )
    return records


def configure_from_env(environ: Dict[str, str] = os.environ) -> bool:
    """Enable from ``REPRO_EVENTS`` (a JSONL path, or ``mem``/``1``).

    ``REPRO_EVENTS_MAX_MB`` (float, MiB) additionally caps the live sink
    file, rotating at record boundaries once it would be exceeded.
    """
    raw = environ.get(ENV_VAR, "").strip()
    if not raw:
        return enabled()
    max_bytes: Optional[int] = None
    raw_mb = environ.get(MAX_MB_ENV_VAR, "").strip()
    if raw_mb:
        try:
            max_mb = float(raw_mb)
        except ValueError:
            raise ValueError(
                f"{MAX_MB_ENV_VAR} must be a number of MiB, got {raw_mb!r}"
            ) from None
        if max_mb <= 0:
            raise ValueError(
                f"{MAX_MB_ENV_VAR} must be > 0, got {raw_mb!r}"
            )
        max_bytes = int(max_mb * 1024 * 1024)
    if raw.lower() in ("mem", "1", "true", "yes", "on"):
        enable(max_bytes=max_bytes)
    else:
        enable(jsonl_path=raw, max_bytes=max_bytes)
    return True


# Honour REPRO_EVENTS at import time so any entry point can log events
# without code changes (mirrors REPRO_TRACE in repro.obs).
if os.environ.get(ENV_VAR):
    configure_from_env()
