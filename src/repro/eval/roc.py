"""ROC analysis: the OCC margin ``r`` as an operating-point dial.

Section VII-C explains that ``r`` trades FPR against FNR but the paper only
reports two operating points (r = 0 for the weak baselines, r = 0.3 for
NSYNC).  This module sweeps ``r`` over a campaign cell and returns the full
ROC curve — useful both for picking an operating point on a new printer and
for comparing IDSs by area under the curve rather than a single accuracy.

The sweep is cheap: the expensive part (synchronize + compare every run) is
done once, and each ``r`` only re-applies thresholds to cached features.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..core.discriminator import Discriminator
from ..core.pipeline import NsyncIds
from ..signals.signal import Signal
from ..sync.base import Synchronizer
from ..sync.dwm import DwmSynchronizer
from .dataset import Campaign, ProcessRun
from .experiments import RAW, _split_runs, transform_signal
from .metrics import RocAccumulator

__all__ = ["RocPoint", "RocCurve", "roc_sweep", "auc"]


@dataclass(frozen=True)
class RocPoint:
    """One operating point of the sweep."""

    r: float
    fpr: float
    tpr: float
    accuracy: float


@dataclass(frozen=True)
class RocCurve:
    """The full sweep, ordered by increasing ``r``."""

    points: Tuple[RocPoint, ...]

    @property
    def best(self) -> RocPoint:
        """The operating point with the highest balanced accuracy."""
        return max(self.points, key=lambda p: p.accuracy)

    def fprs(self) -> np.ndarray:
        return np.asarray([p.fpr for p in self.points])

    def tprs(self) -> np.ndarray:
        return np.asarray([p.tpr for p in self.points])


def auc(curve: RocCurve) -> float:
    """Area under the (FPR, TPR) curve via the trapezoid rule.

    The sweep endpoints are extended to (0, 0) and (1, 1) so curves from
    different sweeps are comparable.
    """
    fpr = np.concatenate([[0.0], curve.fprs()[::-1], [1.0]])
    tpr = np.concatenate([[0.0], curve.tprs()[::-1], [1.0]])
    order = np.argsort(fpr, kind="stable")
    return float(np.trapezoid(tpr[order], fpr[order]))


def roc_sweep(
    campaign: Campaign,
    channel: str,
    transform: str = RAW,
    synchronizer: Optional[Synchronizer] = None,
    r_values: Sequence[float] = (0.0, 0.1, 0.2, 0.3, 0.5, 1.0, 2.0, 4.0),
) -> RocCurve:
    """Sweep the OCC margin over one campaign cell.

    The campaign is consumed as a single run stream.  One
    :meth:`NsyncIds.fit` pass learns the training maxima (rejecting a
    training run that trips SENSOR_FAULT); every ``r`` value re-derives
    its thresholds from the fitted ``ids.trainer``, and each test run's
    features are computed once and judged by one
    :class:`~repro.core.discriminator.Discriminator` per ``r``.  Per-``r``
    verdicts fold into a :class:`~repro.eval.metrics.RocAccumulator`, so
    no run or feature list is retained.
    """
    if synchronizer is None:
        synchronizer = DwmSynchronizer(campaign.setup.dwm_params)

    def signal_of(run: ProcessRun) -> Signal:
        return transform_signal(run.signals[channel], channel, transform)

    reference, training, tests = _split_runs(campaign, signal_of)
    ids = NsyncIds(reference, synchronizer)
    ids.fit(training, r=0.0)
    assert ids.trainer is not None
    acc = RocAccumulator(r_values)
    discriminators = {
        r: Discriminator(ids.trainer.thresholds(r=r), ids.filter_window)
        for r in acc.r_values
    }
    for run in tests:
        features = ids.analyze(signal_of(run)).features
        acc.record(
            run.is_malicious,
            {
                r: d.detect_features(features).is_intrusion
                for r, d in discriminators.items()
            },
        )

    points = tuple(
        RocPoint(r=r, fpr=s.fpr, tpr=s.tpr, accuracy=s.accuracy)
        for r, s in acc.points()
    )
    return RocCurve(points=points)
