"""Input sanitization and channel-health tracking (graceful degradation).

The paper pitches NSYNC as *practical*: an IDS screening a live DAQ for the
whole print.  Real acquisition paths misbehave in ways a simulator never
does — frames drop, ADCs saturate, cables disconnect — and the resulting
degenerate samples are poison for the detection math: a single NaN turns
``correlation_distance`` into NaN, ``NaN > threshold`` is ``False``, and
the IDS silently fails *open*.  This module is the input-sanitization stage
(:class:`Sanitizer`) that :class:`~repro.core.engine.DetectionEngine` runs
on every chunk before any detection math sees a sample:

* **Non-finite samples** (NaN/inf) are replaced by holding the last finite
  value per channel (0.0 when the signal *starts* broken) so downstream
  arithmetic stays finite, and the affected sample positions are recorded
  so the analysis windows that cover them can be flagged and quarantined
  (``window_quarantined`` event + counter).
* **Dark channels** — a stretch where a channel repeats the exact same
  value (a dead sensor, an unplugged DAQ input, a gap of zeros) or emits
  nothing but non-finite garbage — are detected by run length.  A channel
  that stays dark longer than :attr:`SanitizePolicy.max_dark_s` trips a
  **fail-closed** :data:`SENSOR_FAULT` alarm: an intrusion detector whose
  sensor went away must scream, not stay silent.

The thresholds live in :class:`SanitizePolicy`; the per-run findings in
:class:`ChannelHealth`, which the engine surfaces through
``Detection.to_dict()`` / ``repro detect --json``.  :func:`sanitize_signal`
is the same stage applied to one whole signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..signals.signal import Signal

__all__ = [
    "SENSOR_FAULT",
    "SanitizePolicy",
    "ChannelHealth",
    "Sanitized",
    "Sanitizer",
    "sanitize_signal",
    "constant_runs",
]

#: Sub-module name under which fail-closed sensor alarms are reported; sits
#: alongside the paper's ``c_disp`` / ``h_dist`` / ``v_dist`` / ``duration``.
SENSOR_FAULT = "sensor_fault"


@dataclass(frozen=True)
class SanitizePolicy:
    """Thresholds for the input-sanitization stage.

    Parameters
    ----------
    max_dark_s:
        A channel repeating the exact same value (or emitting only
        non-finite samples) for at least this long counts as *dark* and
        trips a fail-closed :data:`SENSOR_FAULT`.  Any physical sensor
        carries noise, so a perfectly constant second of samples means the
        acquisition path died, not that the printer went quiet.
    max_bad_fraction:
        Fraction of non-finite samples above which the whole run is
        declared faulty even if no single dark stretch is long enough.
    dark_eps:
        Two consecutive samples closer than this count as "the same value"
        for dark-run purposes.  The default ``0.0`` requires exact
        repetition, which is what dead ADCs produce and what quantized but
        healthy channels do not sustain.
    enabled:
        ``False`` disables the fail-closed verdict: non-finite samples are
        still repaired and health is still reported, but ``sensor_fault``
        never trips.
    """

    max_dark_s: float = 1.0
    max_bad_fraction: float = 0.25
    dark_eps: float = 0.0
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.max_dark_s <= 0:
            raise ValueError(f"max_dark_s must be positive, got {self.max_dark_s}")
        if not 0 < self.max_bad_fraction <= 1:
            raise ValueError(
                f"max_bad_fraction must be in (0, 1], got {self.max_bad_fraction}"
            )
        if self.dark_eps < 0:
            raise ValueError(f"dark_eps must be non-negative, got {self.dark_eps}")

    def min_dark_samples(self, sample_rate: float) -> int:
        """Run length (in samples) at which a constant stretch counts dark."""
        return max(2, int(math.ceil(self.max_dark_s * sample_rate)))


@dataclass(frozen=True)
class ChannelHealth:
    """What the sanitization stage found in one observed signal.

    ``dark_spans`` are ``[start, stop)`` sample spans where some channel
    stayed constant/non-finite past the policy's run-length threshold.
    ``sensor_fault`` is the fail-closed verdict; ``reasons`` names which
    rule(s) tripped it (``"dark_channel"``, ``"nonfinite_fraction"``).
    """

    n_samples: int
    n_nonfinite: int
    dark_spans: Tuple[Tuple[int, int], ...]
    longest_dark_s: float
    sensor_fault: bool
    reasons: Tuple[str, ...]

    @property
    def bad_fraction(self) -> float:
        """Fraction of samples with at least one non-finite channel."""
        return self.n_nonfinite / self.n_samples if self.n_samples else 0.0

    @property
    def is_clean(self) -> bool:
        """True when nothing at all was flagged."""
        return not self.n_nonfinite and not self.dark_spans

    def to_dict(self) -> dict:
        """JSON-safe rendition for ``Detection.to_dict`` / ``--json``."""
        return {
            "n_samples": int(self.n_samples),
            "n_nonfinite": int(self.n_nonfinite),
            "bad_fraction": float(self.bad_fraction),
            "dark_spans": [[int(a), int(b)] for a, b in self.dark_spans],
            "longest_dark_s": float(self.longest_dark_s),
            "sensor_fault": bool(self.sensor_fault),
            "reasons": list(self.reasons),
        }


@dataclass(frozen=True)
class Sanitized:
    """Result of :func:`sanitize_signal`.

    ``signal`` is safe for detection math (every sample finite);
    ``bad_samples`` marks, per time index, whether any channel had to be
    repaired — the engine maps these onto analysis windows to quarantine
    them.  When the input was already clean, ``signal`` *is* the input
    (no copy).
    """

    signal: Signal
    bad_samples: np.ndarray
    health: ChannelHealth


def constant_runs(x: np.ndarray, eps: float = 0.0) -> List[Tuple[int, int]]:
    """Maximal ``[start, stop)`` runs of a 1-D array holding one value.

    Non-finite samples extend any run (a sensor emitting NaN is just as
    dead as one repeating a constant).  Every sample belongs to exactly
    one run; healthy data yields runs of length 1.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if n == 0:
        return []
    bad = ~np.isfinite(x)
    same = np.zeros(n, dtype=bool)
    if n > 1:
        with np.errstate(invalid="ignore"):
            same[1:] = np.abs(np.diff(x)) <= eps
        same[1:] |= bad[1:] | bad[:-1]
    starts = np.flatnonzero(~same)
    stops = np.append(starts[1:], n)
    return list(zip(starts.tolist(), stops.tolist()))


def _encode_optional_floats(row: np.ndarray) -> List[Optional[float]]:
    """Per-entry float list with ``None`` standing in for NaN/inf.

    Strict JSON has no NaN literal; the only non-finite carry of the stage
    is the raw previous sample (used for dark-run continuation, where any
    non-finite value behaves identically), so the encoding is lossless
    for detection behaviour.
    """
    return [float(v) if math.isfinite(float(v)) else None for v in row]


def _decode_optional_floats(values: Sequence[Optional[float]]) -> np.ndarray:
    """Inverse of :func:`_encode_optional_floats` (``None`` becomes NaN)."""
    return np.asarray(
        [float("nan") if v is None else float(v) for v in values],
        dtype=np.float64,
    )


class Sanitizer:
    """The incremental input-sanitization stage.

    :meth:`push` repairs one chunk of raw ``(n, channels)`` samples and
    tracks dark runs on the raw data, with all state carried across chunk
    boundaries: the last finite value per channel seeds the forward fill,
    and a constant run continues through chunk edges, so a disconnect
    spanning many small chunks is still one long run.  Every result
    depends only on the absolute sample prefix, never on where the chunks
    were cut.  :func:`sanitize_signal` is one push of a whole signal; the
    :class:`~repro.core.engine.DetectionEngine` pushes every chunk it
    ingests and raises the fail-closed alert itself.
    """

    def __init__(
        self, n_channels: int, sample_rate: float, policy: SanitizePolicy
    ) -> None:
        self.policy = policy
        self.sample_rate = float(sample_rate)
        self.min_dark = policy.min_dark_samples(self.sample_rate)
        #: Samples pushed so far (the absolute index of the next sample).
        self.n_samples = 0
        #: Samples with at least one non-finite channel.
        self.n_nonfinite = 0
        #: Longest constant/non-finite run seen on any channel, in samples.
        self.longest_dark = 0
        self._last_good = np.zeros(n_channels)
        self._have_good = np.zeros(n_channels, dtype=bool)
        self._prev_raw: Optional[np.ndarray] = None
        # True when the carried previous raw row has a non-finite entry;
        # lets the dark-run tracker skip the errstate-guarded path on the
        # (overwhelmingly common) all-finite chunks.
        self._prev_raw_bad = False
        self._run_start = np.zeros(n_channels, dtype=np.int64)
        # Scalar lower bound of _run_start (= the oldest open run): lets
        # the healthy-chunk path decide "no channel can close a dark span
        # here" with one int compare instead of a numpy reduction.
        self._run_start_min = 0
        self._dark_spans: List[Tuple[int, int]] = []

    def push(
        self, raw: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, Optional[Tuple[int, int]]]:
        """Repair one chunk; returns ``(clean, bad_rows, crossing)``.

        ``clean`` is ``raw`` itself when nothing needed repair.
        ``crossing`` is ``(sample, longest)`` when a run first reached the
        dark limit inside this chunk under an enabled policy: the absolute
        sample count at which the fail-closed verdict becomes due and the
        longest run at that sample.  It is reported at most once per run.
        """
        n = raw.shape[0]
        bad = ~np.isfinite(raw)
        bad_rows: np.ndarray = bad.any(axis=1)
        if n == 0:
            return raw, bad_rows, None
        has_bad = bool(bad_rows.any())
        if has_bad:
            self.n_nonfinite += int(np.count_nonzero(bad_rows))
        crossing = self._track_dark_runs(raw, bad, has_bad)
        self.n_samples += n

        if not has_bad:
            self._last_good = raw[-1].copy()
            self._have_good[:] = True
            return raw, bad_rows, crossing
        # Forward fill, seeded by the last finite value seen in earlier
        # chunks (0.0 when a channel has been broken since the start).
        seed = np.where(self._have_good, self._last_good, 0.0)
        ext = np.concatenate([seed[np.newaxis, :], raw], axis=0)
        ext_bad = np.concatenate(
            [np.zeros((1, raw.shape[1]), dtype=bool), bad], axis=0
        )
        idx = np.where(~ext_bad, np.arange(n + 1)[:, np.newaxis], 0)
        np.maximum.accumulate(idx, axis=0, out=idx)
        clean = np.take_along_axis(ext, idx, axis=0)[1:]
        self._last_good = clean[-1].copy()
        self._have_good |= (~bad).any(axis=0)
        return clean, bad_rows, crossing

    def _track_dark_runs(
        self, raw: np.ndarray, bad: np.ndarray, has_bad: bool
    ) -> Optional[Tuple[int, int]]:
        """Continue per-channel constant/non-finite runs through this chunk.

        Works on the *raw* data (forward-filling first would turn every
        NaN burst into a constant run and double-count it), records the
        closed maximal runs that qualify as dark spans, and pins the exact
        absolute sample at which a run first reaches the dark limit, so
        the fail-closed verdict fires at the same sample no matter how the
        stream was chunked.
        """
        n = raw.shape[0]
        offset = self.n_samples
        eps = self.policy.dark_eps
        if has_bad or self._prev_raw_bad:
            extend = np.zeros_like(bad)
            if self._prev_raw is not None:
                prev_bad = ~np.isfinite(self._prev_raw)
                with np.errstate(invalid="ignore"):
                    extend[0] = np.abs(raw[0] - self._prev_raw) <= eps
                extend[0] |= bad[0] | prev_bad
            if n > 1:
                with np.errstate(invalid="ignore"):
                    extend[1:] = np.abs(np.diff(raw, axis=0)) <= eps
                extend[1:] |= bad[1:] | bad[:-1]
        else:
            # All-finite chunk with an all-finite carry: the non-finite
            # terms above are identically False and the subtractions
            # cannot trip the invalid-FP guard, so skip the errstate
            # context managers and mask work entirely.
            extend = np.empty_like(bad)
            if self._prev_raw is not None:
                extend[0] = np.abs(raw[0] - self._prev_raw) <= eps
            else:
                extend[0] = False
            if n > 1:
                extend[1:] = np.abs(np.diff(raw, axis=0)) <= eps
        self._prev_raw_bad = has_bad and bool(bad[-1].any())
        if not extend.any():
            # Every run resets at every sample of this chunk: all run
            # lengths are 1, so at most one span per channel can close
            # (the carried run ending at this chunk's first sample), no
            # dark-limit crossing is possible (the limit is >= 2), and
            # the per-channel boundary scan below collapses to O(C).
            # This is the steady-state path for healthy, textured input.
            if offset - self._run_start_min >= self.min_dark:
                carry0 = offset - self._run_start
                for c in np.flatnonzero(carry0 >= self.min_dark):
                    self._dark_spans.append(
                        (int(self._run_start[c]), int(offset))
                    )
            self._run_start[:] = offset + n - 1
            self._run_start_min = offset + n - 1
            self.longest_dark = max(self.longest_dark, 1)
            self._prev_raw = raw[-1].copy()
            return None
        idx = np.arange(n)[:, np.newaxis]
        carry = (offset - self._run_start).astype(np.int64)
        reset = np.where(~extend, idx, -1)
        np.maximum.accumulate(reset, axis=0, out=reset)
        run = np.where(reset >= 0, idx - reset + 1, idx + 1 + carry)
        # Close the maximal runs ending inside this chunk (span bookkeeping
        # identical to constant_runs over the whole signal).
        for c in range(raw.shape[1]):
            bnd = np.flatnonzero(~extend[:, c])
            if not bnd.size:
                continue
            starts = np.concatenate(
                [[int(self._run_start[c])], offset + bnd[:-1]]
            )
            ends = offset + bnd
            for k in np.flatnonzero(ends - starts >= self.min_dark):
                self._dark_spans.append((int(starts[k]), int(ends[k])))
            self._run_start[c] = int(offset + bnd[-1])
        self._run_start_min = int(self._run_start.min())
        crossing: Optional[Tuple[int, int]] = None
        # No run has reached the limit before this chunk exactly when the
        # longest run so far is still below it: the crossing is reported
        # once, at the first sample any channel goes dark.
        if self.policy.enabled and self.longest_dark < self.min_dark:
            hit = np.flatnonzero((run >= self.min_dark).any(axis=1))
            if hit.size:
                r = int(hit[0])
                longest_at_t = max(self.longest_dark, int(run[: r + 1].max()))
                crossing = (offset + r + 1, longest_at_t)
        self.longest_dark = max(self.longest_dark, int(run.max()))
        self._prev_raw = raw[-1].copy()
        return crossing

    def dark_spans(self) -> Tuple[Tuple[int, int], ...]:
        """Dark spans so far: closed runs plus qualifying open runs."""
        spans = list(self._dark_spans)
        for start in self._run_start.tolist():
            if self.n_samples - start >= self.min_dark:
                spans.append((start, self.n_samples))
        return tuple(sorted(set(spans)))

    def health(self, reasons: Sequence[str]) -> ChannelHealth:
        """The findings so far, with ``reasons`` as the fault verdict."""
        n = self.n_samples
        return ChannelHealth(
            n_samples=n,
            n_nonfinite=self.n_nonfinite,
            dark_spans=self.dark_spans(),
            longest_dark_s=self.longest_dark / self.sample_rate if n else 0.0,
            sensor_fault=bool(reasons),
            reasons=tuple(reasons),
        )

    def state_dict(self) -> Dict[str, object]:
        """JSON-safe carry (strict JSON: non-finite carry becomes ``None``).

        The sample count is not included: it belongs to the caller's
        progress record and comes back through :meth:`load_state_dict`.
        """
        return {
            "last_good": [float(v) for v in self._last_good],
            "have_good": [bool(b) for b in self._have_good],
            "prev_raw": (
                None
                if self._prev_raw is None
                else _encode_optional_floats(self._prev_raw)
            ),
            "n_nonfinite": int(self.n_nonfinite),
            "run_start": [int(v) for v in self._run_start],
            "longest_dark": int(self.longest_dark),
            "dark_spans": [[int(a), int(b)] for a, b in self._dark_spans],
        }

    def load_state_dict(self, doc: Dict[str, object], n_samples: int) -> None:
        """Restore a :meth:`state_dict` snapshot taken after ``n_samples``."""
        self.n_samples = int(n_samples)
        self._last_good = np.asarray(doc["last_good"], dtype=np.float64)
        self._have_good = np.asarray(doc["have_good"], dtype=bool)
        raw = doc["prev_raw"]
        self._prev_raw = (
            None if raw is None else _decode_optional_floats(raw)  # type: ignore[arg-type]
        )
        self._prev_raw_bad = self._prev_raw is not None and not bool(
            np.isfinite(self._prev_raw).all()
        )
        self.n_nonfinite = int(doc["n_nonfinite"])  # type: ignore[call-overload]
        self._run_start = np.asarray(doc["run_start"], dtype=np.int64)
        self._run_start_min = int(self._run_start.min())
        self.longest_dark = int(doc["longest_dark"])  # type: ignore[call-overload]
        self._dark_spans = [
            (int(a), int(b)) for a, b in doc["dark_spans"]  # type: ignore[union-attr]
        ]


def sanitize_signal(
    signal: Signal, policy: SanitizePolicy = SanitizePolicy()
) -> Sanitized:
    """Run the input-sanitization stage over one observed signal.

    One :meth:`Sanitizer.push` of the whole signal.  Returns the repaired
    signal (identical object when already clean), the per-sample bad mask,
    and the :class:`ChannelHealth` verdict including the fail-closed
    ``sensor_fault`` flag.
    """
    stage = Sanitizer(signal.n_channels, signal.sample_rate, policy)
    clean, bad_samples, _ = stage.push(signal.data)
    reasons: List[str] = []
    if policy.enabled:
        if stage.longest_dark >= stage.min_dark:
            reasons.append("dark_channel")
        n = stage.n_samples
        if n and stage.n_nonfinite / n > policy.max_bad_fraction:
            reasons.append("nonfinite_fraction")
    out = signal if clean is signal.data else signal.with_data(clean)
    return Sanitized(
        signal=out, bad_samples=bad_samples, health=stage.health(reasons)
    )
