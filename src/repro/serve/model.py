"""The fleet service's on-disk model: what every detection worker loads.

A deployed NSYNC fleet learns its reference signal, DWM parameters, and
discriminator thresholds once (``repro train``) and then serves many
prints against them (``repro serve``, ``repro detect``).
:class:`ServeModel` is that bundle as a directory —

* ``reference.npz`` — the reference side-channel signal (``repro.io``
  signal format),
* ``dwm_params.json`` — :class:`~repro.sync.dwm.DwmParams`,
* ``thresholds.json`` — :class:`~repro.core.discriminator.Thresholds`,
* ``serve.json`` — metric + filter window (the remaining engine knobs),

small enough to ship to every shard worker and human-auditable per the
``repro.io`` convention.  Worker processes load it once in their
initializer; every stream on the shard then gets a fresh
:class:`~repro.core.engine.DetectionEngine` from :meth:`build_engine`.

:func:`demo_model` / :func:`demo_observed` build the deterministic demo
fleet (the :class:`~repro.eval.throughput.ThroughputWorkload` texture,
one noise seed per stream) that tests, CI, and ``benchmarks/bench_serve``
replay — the served results are bit-comparable against an offline
``DetectionEngine`` run of the same arrays.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from ..core.discriminator import Thresholds
from ..core.engine import DetectionEngine
from ..eval.throughput import ThroughputWorkload
from ..io import (
    load_dwm_params,
    load_signal,
    load_thresholds,
    save_dwm_params,
    save_signal,
    save_thresholds,
)
from ..signals.signal import Signal
from ..sync.dwm import DwmParams, DwmSynchronizer

__all__ = ["ServeModel", "demo_model", "demo_observed"]

PathLike = Union[str, Path]


@dataclass
class ServeModel:
    """Everything needed to open a detection engine for one printer type."""

    reference: Signal
    params: DwmParams
    thresholds: Thresholds
    metric: str = "correlation"
    filter_window: int = 3

    # ------------------------------------------------------------------
    def save(self, directory: PathLike) -> Path:
        """Write the model directory (created if missing)."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        save_signal(self.reference, directory / "reference.npz")
        save_dwm_params(self.params, directory / "dwm_params.json")
        save_thresholds(self.thresholds, directory / "thresholds.json")
        (directory / "serve.json").write_text(
            json.dumps(
                {
                    "metric": self.metric,
                    "filter_window": self.filter_window,
                },
                indent=2,
            )
            + "\n"
        )
        return directory

    @classmethod
    def from_dir(cls, directory: PathLike) -> "ServeModel":
        """Load a model directory written by :meth:`save`."""
        directory = Path(directory)
        if not (directory / "reference.npz").exists():
            raise FileNotFoundError(
                f"{directory} is not a serve model directory "
                "(no reference.npz)"
            )
        metric = "correlation"
        filter_window = 3
        serve_json = directory / "serve.json"
        if serve_json.exists():
            extra = json.loads(serve_json.read_text())
            metric = str(extra.get("metric", metric))
            filter_window = int(extra.get("filter_window", filter_window))
        return cls(
            reference=load_signal(directory / "reference.npz"),
            params=load_dwm_params(directory / "dwm_params.json"),
            thresholds=load_thresholds(directory / "thresholds.json"),
            metric=metric,
            filter_window=filter_window,
        )

    # ------------------------------------------------------------------
    def build_engine(
        self, stream_id: Optional[str] = None
    ) -> DetectionEngine:
        """A fresh armed engine for one stream.

        ``stream_id`` registers the engine in the live telemetry registry
        — pass it in in-process (inline-shard) mode only; process-mode
        workers run un-registered and the parent mirrors their health
        rows from chunk acknowledgements instead.
        """
        return DetectionEngine(
            self.reference,
            DwmSynchronizer(self.params),
            thresholds=self.thresholds,
            metric=self.metric,
            filter_window=self.filter_window,
            stream_id=stream_id,
        )


# ---------------------------------------------------------------------------
# The deterministic demo fleet (tests, CI, benchmarks)
# ---------------------------------------------------------------------------
#: Per-stream observed-noise seed base; stream ``k`` uses ``_SEED0 + k``.
_SEED0 = 1000


def _demo_workload(
    n_samples: int, sample_rate: float
) -> ThroughputWorkload:
    return ThroughputWorkload(
        sample_rate=sample_rate, n_samples=int(n_samples)
    )


def demo_model(
    n_samples: int = 8_000, sample_rate: float = 200.0
) -> ServeModel:
    """The demo fleet's model (same texture/params as the throughput
    workload, so streams/core here is comparable with the engine
    throughput history)."""
    w = _demo_workload(n_samples, sample_rate)
    reference, _ = w.signals()
    return ServeModel(
        reference=reference,
        params=DwmParams(
            t_win=w.t_win,
            t_hop=w.t_hop,
            t_ext=w.t_ext,
            t_sigma=w.t_sigma,
            eta=w.eta,
        ),
        thresholds=Thresholds(c_c=50.0, h_c=20.0, v_c=0.5),
    )


def demo_observed(
    k: int, n_samples: int = 8_000, sample_rate: float = 200.0
) -> np.ndarray:
    """Observed samples of demo stream ``k``: the reference texture plus
    stream-specific measurement noise (deterministic in ``k``)."""
    w = _demo_workload(n_samples, sample_rate)
    reference, _ = w.signals()
    rng = np.random.default_rng(_SEED0 + int(k))
    base = reference.data[:, 0]
    observed = base + 0.05 * rng.standard_normal(base.shape[0])
    return observed[:, np.newaxis].copy()
