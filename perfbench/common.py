"""Process accounting and small statistics shared by the workloads."""

from __future__ import annotations

import ctypes
import gc
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

_TICK = os.sysconf("SC_CLK_TCK")


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of one live process (``/proc/<pid>/stat``)."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def _status_mb(pid: int, key: str) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith(key + ":"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no {key} for pid {pid}")


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of one live process, in MB."""
    return _status_mb(pid, "VmHWM")


def rss_mb(pid: int) -> float:
    """``VmRSS`` of one live process, in MB."""
    return _status_mb(pid, "VmRSS")


def release_freed_memory() -> None:
    """Collect garbage and hand freed heap pages back to the OS.

    Keeps what input generation allocated and dropped from lingering in
    the benchmark's resident set, and so in the pool workers it forks.
    """
    gc.collect()
    ctypes.CDLL("libc.so.6").malloc_trim(0)


def reset_peak_rss(pid: int) -> None:
    """Restart a process's ``VmHWM`` from its current RSS.

    Input generation runs in the benchmark process before the measured
    phase; resetting the high-water mark keeps it out of ``peak_rss_mb``.
    """
    Path(f"/proc/{pid}/clear_refs").write_text("5")


def children(pid: int) -> List[int]:
    """Live child processes of ``pid``."""
    out = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            out.append(int(entry.name))
    return out


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


@dataclass
class Result:
    """What one workload run reports."""

    #: name -> value for every end-to-end metric.
    end_to_end: Dict[str, float]
    #: name -> value of the per-layer metrics measured (traced runs only).
    layers: Optional[Dict[str, float]]
    attempted: int
    failed: int
    #: False when the run cannot be trusted as a measurement.
    valid: bool = True
    notes: List[str] = field(default_factory=list)
