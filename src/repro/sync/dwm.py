"""Dynamic Window Matching (paper Section VI-B) — the core contribution.

DWM slides a pair of analysis windows across the observed signal ``a`` and
the reference signal ``b``.  For each window of ``a`` it searches an
*extended* window of ``b`` (centred on the current displacement estimate)
with biased Time Delay Estimation, producing the horizontal displacement
``h_disp[i]``.  Two stabilisers make this robust:

* **TDEB** (Gaussian bias) keeps the estimate near the previous
  displacement when the window content is periodic or noisy (Fig. 5).
* **A low-frequency displacement track** ``h_disp_low`` updated with gain
  ``eta`` (Eq. 12) provides inertia so a single bad estimate cannot make the
  whole process run away.

The module provides a batch API (:class:`DwmSynchronizer`), a sample-by-
sample streaming API (:class:`StreamingDwm`) for real-time intrusion
detection, and the default parameter sets of Table IV.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Tuple

import numpy as np

from .. import obs
from ..signals.metrics import correlation_similarity
from ..signals.ringbuffer import SampleRing
from ..signals.signal import Signal
from .base import SyncResult
from .tde import similarity_profile

__all__ = [
    "DwmParams",
    "DwmSynchronizer",
    "StreamingDwm",
    "UM3_DWM_PARAMS",
    "RM3_DWM_PARAMS",
]

SimilarityFn = Callable[[np.ndarray, np.ndarray], float]


@dataclass(frozen=True)
class DwmParams:
    """DWM parameters in seconds (paper Section VI-C and Table IV).

    ``t_win`` is the analysis-window width, ``t_hop`` the hop between
    windows, ``t_ext`` the one-sided extension of the search window,
    ``t_sigma`` the standard deviation of the TDEB bias, and ``eta`` the
    gain of the low-frequency displacement track.
    """

    t_win: float
    t_hop: float
    t_ext: float
    t_sigma: float
    eta: float = 0.1

    def __post_init__(self) -> None:
        if self.t_win <= 0:
            raise ValueError(f"t_win must be positive, got {self.t_win}")
        if not 0 < self.t_hop <= self.t_win:
            raise ValueError(
                f"t_hop must be in (0, t_win={self.t_win}], got {self.t_hop}"
            )
        if self.t_ext <= 0:
            raise ValueError(f"t_ext must be positive, got {self.t_ext}")
        if self.t_sigma <= 0:
            raise ValueError(f"t_sigma must be positive, got {self.t_sigma}")
        if not 0 <= self.eta <= 1:
            raise ValueError(f"eta must be in [0, 1], got {self.eta}")

    def n_win(self, sample_rate: float) -> int:
        return max(2, int(round(self.t_win * sample_rate)))

    def n_hop(self, sample_rate: float) -> int:
        return max(1, int(round(self.t_hop * sample_rate)))

    def n_ext(self, sample_rate: float) -> int:
        return max(1, int(round(self.t_ext * sample_rate)))

    def n_sigma(self, sample_rate: float) -> float:
        return max(0.5, self.t_sigma * sample_rate)

    def scaled(self, factor: float) -> "DwmParams":
        """Scale all time parameters by ``factor`` (eta unchanged)."""
        return replace(
            self,
            t_win=self.t_win * factor,
            t_hop=self.t_hop * factor,
            t_ext=self.t_ext * factor,
            t_sigma=self.t_sigma * factor,
        )


#: Table IV defaults for the two printers of the evaluation.
UM3_DWM_PARAMS = DwmParams(t_win=4.0, t_hop=2.0, t_ext=2.0, t_sigma=1.0, eta=0.1)
RM3_DWM_PARAMS = DwmParams(t_win=1.0, t_hop=0.5, t_ext=0.1, t_sigma=0.05, eta=0.1)


class _DwmState:
    """Mutable per-run DWM state of one synchronization."""

    __slots__ = ("h_disp", "h_disp_low", "scores", "i")

    def __init__(self) -> None:
        self.h_disp: List[int] = []
        self.scores: List[float] = []
        self.h_disp_low = 0  # h_disp_low[i - 1]; starts at the defined 0
        self.i = 0


class DwmSynchronizer:
    """Batch DWM over two complete signals.

    Parameters follow :class:`DwmParams`; the similarity function defaults
    to the channel-averaged correlation coefficient, as in the paper.
    """

    def __init__(
        self,
        params: DwmParams,
        similarity: SimilarityFn = correlation_similarity,
    ) -> None:
        self.params = params
        self.similarity = similarity

    def cursor(self, reference: Signal) -> "StreamingDwm":
        """Open an incremental DWM session against ``reference``.

        This is the single DWM implementation: :meth:`synchronize` is
        "push the whole signal through a cursor", so the batch and
        streaming entry points cannot drift apart.
        """
        return StreamingDwm(reference, self.params, self.similarity)

    def synchronize(self, a: Signal, b: Signal) -> SyncResult:
        """Find ``h_disp[i]`` for every complete window of ``a``.

        Synchronization stops early if the reference ``b`` runs out of
        samples for the search window; the result then simply has fewer
        indexes, which the discriminator's CADHD check will notice if the
        shortfall was caused by a timing attack.
        """
        if a.sample_rate != b.sample_rate:
            raise ValueError(
                f"sample rates differ: a={a.sample_rate}, b={b.sample_rate}"
            )
        cursor = self.cursor(b)
        cursor.push(a.data)
        cursor.finalize()
        return cursor.result()


class StreamingDwm:
    """Real-time DWM: the reference is known, the observation streams in.

    Feed observed samples with :meth:`push`; every time enough samples for
    the next analysis window have accumulated, a DWM step runs and the new
    ``h_disp[i]`` is returned.  This is the algorithm of Section VI-B
    verbatim — line 7's "wait for the window to be available" becomes the
    buffering inside :meth:`push`.

    Example
    -------
    >>> dwm = StreamingDwm(reference, UM3_DWM_PARAMS)
    >>> for chunk in acquisition_system:
    ...     for i, disp in dwm.push(chunk):
    ...         handle(i, disp)
    """

    def __init__(
        self,
        reference: Signal,
        params: DwmParams,
        similarity: SimilarityFn = correlation_similarity,
    ) -> None:
        self.reference = reference
        self.params = params
        self.similarity = similarity
        rate = reference.sample_rate
        self.mode = "window"
        self.n_win = params.n_win(rate)
        self.n_hop = params.n_hop(rate)
        self._n_ext = params.n_ext(rate)
        self._n_sigma = params.n_sigma(rate)
        # Preallocated tail buffer with absolute-index addressing: the
        # prefix every synchronized window already consumed is trimmed
        # (logically — no copy), so a cursor held open for a whole print
        # stays O(window) in memory, not O(print), and a push costs
        # amortized O(chunk) instead of O(buffer).
        self._ring = SampleRing(reference.n_channels)
        self._state = _DwmState()
        self._exhausted = False
        # TDEB's Gaussian bias depends only on (profile length, centre),
        # both of which settle into a handful of values once the stream is
        # away from the reference edges; caching them removes an exp() of
        # search-window length per window.
        self._bias_cache: Dict[Tuple[int, int], np.ndarray] = {}
        # Windows whose bias centre had to be clamped into the clipped
        # search segment (reported as a counter when tracing is on).
        self._n_clamped = 0

    @property
    def n_windows_done(self) -> int:
        """How many windows have been synchronized so far."""
        return self._state.i

    def push(self, samples: np.ndarray) -> List[Tuple[int, float]]:
        """Feed new observed samples; return newly computed ``(i, h_disp)``.

        ``samples`` is ``(n, channels)`` or 1-D for single-channel signals.
        """
        samples = np.asarray(samples, dtype=np.float64)
        if samples.ndim == 1:
            samples = samples[:, np.newaxis]
        if samples.shape[0] and samples.shape[1] != self.reference.n_channels:
            raise ValueError(
                f"expected {self.reference.n_channels} channels, "
                f"got {samples.shape[1]}"
            )
        if self._exhausted:
            return []
        self._ring.append(samples)

        # The h_disp_low recurrence makes window i+1's search centre depend
        # on window i's result, so the windows themselves are inherently
        # sequential; every newly-complete window in this push is stepped
        # on a zero-copy ring view.  Tracing is decided once per push, so
        # with observability off the loop never touches the obs layer.
        traced = obs.enabled()
        clamped_before = self._n_clamped
        emitted: List[Tuple[int, float]] = []
        while True:
            i = self._state.i
            start = i * self.n_hop
            if start + self.n_win > self._ring.end:
                break
            a_window = self._ring.view(start, start + self.n_win)
            if traced:
                with obs.trace("repro.sync.dwm.window"):
                    ok = self._step(a_window)
            else:
                ok = self._step(a_window)
            if not ok:
                self._exhausted = True
                break
            emitted.append((i, float(self._state.h_disp[-1])))
        if traced and emitted:
            obs.counter("repro.sync.dwm.windows").inc(len(emitted))
            if self._n_clamped != clamped_before:
                # The displacement estimate drifted far enough that the
                # bias centre was clamped into the clipped search segment:
                # the precursor of walking off the reference.
                obs.counter("repro.sync.dwm.centre_clamped").inc(
                    self._n_clamped - clamped_before
                )
        if self._exhausted:
            # Walked off the reference: no further window will ever be
            # evaluated, so the buffered tail is dead state.  Resetting the
            # ring to empty at the last window start keeps the serialized
            # cursor state chunking-invariant — the tail (and its end
            # index) would otherwise record where in the stream exhaustion
            # happened to land.
            self._ring.load(
                np.empty((0, self.reference.n_channels)),
                self._state.i * self.n_hop,
            )
        else:
            self._ring.trim_to(self._state.i * self.n_hop)
        return emitted

    def _step(self, a_window: np.ndarray) -> bool:
        """Run one DWM iteration (algorithm lines 8-11).

        Biased TDE (:func:`~repro.sync.tde.tdeb`) of ``a_window`` inside
        the extended reference window, with the Gaussian bias taken from
        the cache; ``repro.eval.diff`` locks it bit-exactly to a
        reference step that calls ``tdeb`` itself.  Returns ``False`` when
        the reference cannot supply a full search window anymore (the run
        has outlived the reference): no displacement is recorded and the
        stream stops.
        """
        state = self._state
        i = state.i
        low = state.h_disp_low
        n_win = a_window.shape[0]
        b = self.reference
        # Extended reference window b{i; low}_E (Eq. 9 with the
        # low-frequency recentre of Eq. 13).  The requested range may poke
        # past either end of b; clip it and keep the actual start so
        # delays map back correctly.
        want_start = i * self.n_hop - self._n_ext + low
        want_stop = i * self.n_hop + self._n_ext + low + n_win
        start = max(0, want_start)
        stop = min(b.n_samples, want_stop)
        segment = b.data[start:stop, :]
        if segment.shape[0] < n_win:
            return False
        # The bias is centred where "no displacement change" lands in the
        # clipped segment: absolute sample i*n_hop + low.
        raw_centre = i * self.n_hop + low - start
        centre = min(max(raw_centre, 0), segment.shape[0] - n_win)
        self._n_clamped += centre != raw_centre
        raw = similarity_profile(segment, a_window, self.similarity)
        bias = self._bias(raw.size, centre)
        # Shift scores non-negative before the multiplicative bias (a
        # negative score times a small Gaussian tail would *rise*).
        shifted = raw - raw.min()
        delay = int(np.argmax(shifted * bias))
        # delta is (j - n_ext) of the paper, generalised for clipping: how
        # far the match moved from the expected position.
        delta = (start + delay) - (i * self.n_hop + low)
        state.h_disp.append(low + delta)
        state.scores.append(float(raw[delay]))
        state.h_disp_low = int(round(self.params.eta * delta + low))
        state.i += 1
        return True

    def _bias(self, size: int, centre: int) -> np.ndarray:
        """The TDEB Gaussian bias vector, cached by (size, centre)."""
        key = (size, centre)
        bias = self._bias_cache.get(key)
        if bias is None:
            n = np.arange(size, dtype=np.float64)
            bias = np.exp(-0.5 * ((n - float(centre)) / self._n_sigma) ** 2)
            self._bias_cache[key] = bias
        return bias

    def finalize(self) -> List[Tuple[int, float]]:
        """Flush the stream: DWM emits eagerly, so nothing is pending."""
        return []

    def result(self) -> SyncResult:
        """Snapshot of everything synchronized so far."""
        return SyncResult(
            h_disp=np.asarray(self._state.h_disp, dtype=np.float64),
            mode="window",
            n_win=self.n_win,
            n_hop=self.n_hop,
            scores=np.asarray(self._state.scores, dtype=np.float64),
        )

    def state_dict(self) -> Dict[str, object]:
        """JSON-safe serialization of the per-run DWM state.

        Everything a fresh :class:`StreamingDwm` built with the same
        reference/params needs to continue this run bit-identically:
        the displacement/score history, the low-frequency track, and the
        untrimmed tail of the observed buffer.
        """
        # One C-level tolist() per array instead of per-element Python
        # round-trips: periodic DetectorState checkpointing at high sample
        # rates sits on this path.
        return {
            "kind": "dwm",
            "i": self._state.i,
            "h_disp": np.asarray(self._state.h_disp, dtype=np.int64).tolist(),
            "scores": np.asarray(
                self._state.scores, dtype=np.float64
            ).tolist(),
            "h_disp_low": int(self._state.h_disp_low),
            "buffer": self._ring.tail().tolist(),
            "buf_start": int(self._ring.start),
            "exhausted": bool(self._exhausted),
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore a :meth:`state_dict` snapshot into this cursor."""
        if state.get("kind") != "dwm":
            raise ValueError(f"not a StreamingDwm state: {state.get('kind')!r}")
        fresh = _DwmState()
        fresh.i = int(state["i"])  # type: ignore[arg-type]
        fresh.h_disp = np.asarray(state["h_disp"], dtype=np.int64).tolist()
        fresh.scores = np.asarray(state["scores"], dtype=np.float64).tolist()
        fresh.h_disp_low = int(state["h_disp_low"])  # type: ignore[arg-type]
        self._state = fresh
        self._ring.load(
            np.asarray(state["buffer"], dtype=np.float64),
            int(state["buf_start"]),  # type: ignore[arg-type]
        )
        self._exhausted = bool(state["exhausted"])
