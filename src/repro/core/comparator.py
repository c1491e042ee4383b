"""Comparator: vertical-distance calculation (paper Section VII-A).

Given two signals and the horizontal displacements produced by a dynamic
synchronizer, the comparator computes the *vertical distance* array
``v_dist``: one distance per synchronized window (Eq. 16, DWM) or per
synchronized point (Eq. 15, DTW).  NSYNC defaults to the correlation
distance because it is insensitive to per-run gain changes.
"""

from __future__ import annotations

import math
from typing import Callable, List, Sequence, Tuple, Union

import numpy as np

from .. import obs
from ..signals.metrics import _EPS as _METRIC_EPS
from ..signals.metrics import DISTANCE_METRICS, correlation_distance
from ..signals.signal import Signal
from ..sync.base import SyncResult

__all__ = ["Comparator", "vertical_distances", "MAX_CORRELATION_DISTANCE"]

DistanceFn = Callable[[np.ndarray, np.ndarray], float]

#: Worst-case correlation distance (Eq. 14): ``1 - r`` with ``r in [-1, 1]``
#: tops out at 2.0 (perfect anti-correlation).  Used as the pessimistic
#: fallback whenever a window pair is too short to correlate (< 2 samples)
#: or the synchronizer hands over a non-finite displacement — both mean it
#: has walked off the reference — and the discriminator must see the worst
#: value, not a silent skip (and never a NaN, which would compare as benign
#: against every threshold).
MAX_CORRELATION_DISTANCE = 2.0

#: Amplitude spread below which a window counts as constant (zero-variance);
#: matches the ``_EPS`` guard inside :mod:`repro.signals.metrics`.
_CONSTANT_EPS = 1e-12


def _finite_or_max(value: float) -> float:
    """``value``, or :data:`MAX_CORRELATION_DISTANCE` when it is not finite."""
    value = float(value)
    return value if math.isfinite(value) else MAX_CORRELATION_DISTANCE


def _is_constant(window: np.ndarray) -> bool:
    """True when every channel of the window has zero amplitude spread."""
    return bool(np.all(np.ptp(window, axis=0) <= _CONSTANT_EPS))


def _resolve_metric(metric: Union[str, DistanceFn]) -> DistanceFn:
    if callable(metric):
        return metric
    try:
        return DISTANCE_METRICS[metric]
    except KeyError:
        raise ValueError(
            f"unknown distance metric {metric!r}; "
            f"expected one of {sorted(DISTANCE_METRICS)}"
        ) from None


class Comparator:
    """Computes vertical distances between synchronized signals.

    Parameters
    ----------
    metric:
        A distance-metric name from
        :data:`repro.signals.metrics.DISTANCE_METRICS` or a callable
        ``d(u, v) -> float``.  Default: ``"correlation"`` (Eq. 14).
    """

    def __init__(self, metric: Union[str, DistanceFn] = "correlation") -> None:
        self.metric = _resolve_metric(metric)
        # The zero-variance special cases below only make sense for the
        # correlation distance (Pearson's r is undefined on a constant
        # window); other metrics remain well-defined there and are left
        # alone.
        self._correlation_like = self.metric is correlation_distance

    def vertical_distances(
        self, a: Signal, b: Signal, sync: SyncResult
    ) -> np.ndarray:
        """Vertical distance array ``v_dist`` for a synchronized pair.

        Window mode pairs ``a{i}`` with ``b{i; h_disp[i]}`` (Eq. 16); the
        pair is truncated to the shorter of the two when a window is clipped
        by a signal boundary.  Point mode evaluates ``d(a[i], b[j])`` over
        the warping path and averages duplicates (Eq. 15).  Either way a
        non-finite distance is clamped to :data:`MAX_CORRELATION_DISTANCE`.
        """
        if sync.mode != "window":
            return self._point_distances(a, b, sync)
        starts = [i * sync.n_hop for i in range(sync.n_indexes)]
        out, overlap = self.window_distances(
            a.data, 0, b.data, starts, sync.h_disp, sync.n_win
        )
        walked = int(np.count_nonzero(overlap < 2))
        if walked and obs.enabled():
            # Counter only: the engine owns the ``window_truncated`` event.
            obs.counter("repro.core.comparator.truncated_windows").inc(walked)
        return out

    # ------------------------------------------------------------------
    def pair_distance(self, wa: np.ndarray, wb: np.ndarray) -> float:
        """Distance between one already-truncated window pair, never NaN.

        Adds two guard layers on top of the raw metric:

        * **Zero-variance windows** (correlation metric only): Pearson's r
          is undefined on a constant window.  A constant window matched
          against a varying one means the observed content bears no
          resemblance to the reference (e.g. a frozen printhead), so it
          maps to :data:`MAX_CORRELATION_DISTANCE`; two constant windows
          with identical values are indistinguishable and map to ``0.0``
          (two *different* constants still map to the maximum).
        * **Finiteness**: whatever the metric returns, a non-finite value
          is clamped to :data:`MAX_CORRELATION_DISTANCE`
          (:func:`_finite_or_max`).
        """
        if self._correlation_like:
            ca, cb = _is_constant(wa), _is_constant(wb)
            if ca or cb:
                if ca and cb and np.array_equal(wa[:1], wb[:1]):
                    return 0.0
                return MAX_CORRELATION_DISTANCE
        return _finite_or_max(self.metric(wa, wb))

    def pair_distances(self, wa: np.ndarray, wb: np.ndarray) -> np.ndarray:
        """Batched :meth:`pair_distance` over stacked ``(k, n, c)`` pairs.

        Bit-identical to calling :meth:`pair_distance` on each pair in
        turn: the batched reductions run over the same axis, in the same
        operation order, on the same float64 values, so numpy produces the
        same bits per window (differential-tested against the scalar
        reference).  Only the correlation metric vectorizes — any other
        metric is an opaque ``d(u, v) -> float`` callable and falls back
        to the per-pair loop.
        """
        wa = np.asarray(wa, dtype=np.float64)
        wb = np.asarray(wb, dtype=np.float64)
        if wa.ndim != 3 or wa.shape != wb.shape:
            raise ValueError(
                f"expected matching (k, n, c) window stacks, "
                f"got {wa.shape} vs {wb.shape}"
            )
        k = wa.shape[0]
        out = np.empty(k)
        if k == 0:
            return out
        if not self._correlation_like:
            for j in range(k):
                out[j] = self.pair_distance(wa[j], wb[j])
            return out
        ca = np.all(np.ptp(wa, axis=1) <= _CONSTANT_EPS, axis=1)
        cb = np.all(np.ptp(wb, axis=1) <= _CONSTANT_EPS, axis=1)
        special = ca | cb
        if special.any():
            out[special] = MAX_CORRELATION_DISTANCE
            both = ca & cb
            if both.any():
                same = both & np.all(wa[:, 0, :] == wb[:, 0, :], axis=1)
                out[same] = 0.0
        rest = ~special
        if rest.any():
            u, v = wa[rest], wb[rest]
            du = u - u.mean(axis=1, keepdims=True)
            dv = v - v.mean(axis=1, keepdims=True)
            num = np.sum(du * dv, axis=1)
            den = np.linalg.norm(du, axis=1) * np.linalg.norm(dv, axis=1)
            scores = np.where(
                den > _METRIC_EPS, num / np.maximum(den, _METRIC_EPS), 0.0
            )
            vals = 1.0 - scores.mean(axis=1)
            out[rest] = np.where(
                np.isfinite(vals), vals, MAX_CORRELATION_DISTANCE
            )
        return out

    def window_distances(
        self,
        observed: np.ndarray,
        start: int,
        reference: np.ndarray,
        starts: Sequence[int],
        h_disp: Sequence[float],
        n_win: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Score window pairs ``a{i}`` / ``b{i; h_disp[i]}`` (Eq. 16).

        ``observed`` holds the observed samples from absolute index
        ``start`` on; ``starts`` are absolute window starts.  Each window
        is clipped to the samples that exist and the pair truncated to the
        shorter of the two.  Returns the distances and the overlap that
        counted per window.  An overlap under 2 samples, or a non-finite
        displacement (overlap 0), is a walk-off: it scores
        :data:`MAX_CORRELATION_DISTANCE` and the caller accounts it.  Two
        or more unclipped windows are stacked into one
        :meth:`pair_distances` call, the rest take :meth:`pair_distance`
        on views — the same bits either way.
        """
        end, n_ref = start + observed.shape[0], reference.shape[0]
        out = np.full(len(h_disp), MAX_CORRELATION_DISTANCE)
        overlap: List[int] = []
        full: List[Tuple[int, int, int]] = []
        for j, (s, h) in enumerate(zip(starts, h_disp)):
            s, h = int(s), float(h)
            if s < start:
                raise ValueError(f"window start {s} precedes sample {start}")
            if not math.isfinite(h):
                overlap.append(0)
                continue
            # Exact int arithmetic, even for a displacement of 1e300.  The
            # reference side never exceeds n_win, so neither does n.
            b0 = s + round(h)
            n = max(0, min(end - s, min(b0 + n_win, n_ref) - max(b0, 0)))
            overlap.append(n)
            if n < 2:
                continue
            a, r = s - start, max(b0, 0)
            if n == n_win:
                full.append((j, a, r))
            else:
                out[j] = self.pair_distance(
                    observed[a : a + n], reference[r : r + n]
                )
        if len(full) > 1:
            # Stacking views copies each window with one memcpy; a fancy
            # row gather is several times slower on narrow signals.
            out[[j for j, _, _ in full]] = self.pair_distances(
                np.stack([observed[a : a + n_win] for _, a, _ in full]),
                np.stack([reference[r : r + n_win] for _, _, r in full]),
            )
        elif full:
            j, a, r = full[0]
            out[j] = self.pair_distance(
                observed[a : a + n_win], reference[r : r + n_win]
            )
        return out, np.array(overlap, dtype=np.int64)

    def _point_distances(self, a: Signal, b: Signal, sync: SyncResult) -> np.ndarray:
        if sync.pairs is None:
            raise ValueError("point-mode SyncResult is missing its warping path")
        sums = np.zeros(a.n_samples)
        counts = np.zeros(a.n_samples)
        for i, j in sync.pairs:
            if i >= a.n_samples or j >= b.n_samples:
                continue
            # A point's channel vector plays the role of the 1-D input.
            sums[i] += _finite_or_max(self.metric(a.data[i, :], b.data[j, :]))
            counts[i] += 1
        out = np.zeros(a.n_samples)
        mask = counts > 0
        out[mask] = sums[mask] / counts[mask]
        return out


def vertical_distances(
    a: Signal,
    b: Signal,
    sync: SyncResult,
    metric: Union[str, DistanceFn] = "correlation",
) -> np.ndarray:
    """Functional shortcut for :meth:`Comparator.vertical_distances`."""
    return Comparator(metric).vertical_distances(a, b, sync)
