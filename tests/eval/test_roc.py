"""Tests for the ROC sweep over the OCC margin."""

import numpy as np
import pytest

from repro.eval import RocCurve, RocPoint, auc, roc_sweep


@pytest.fixture(scope="module")
def curve(mini_campaign):
    return roc_sweep(
        mini_campaign, "ACC", "Raw", r_values=(0.0, 0.3, 1.0, 3.0)
    )


class TestRocSweep:
    def test_points_ordered_by_r(self, curve):
        rs = [p.r for p in curve.points]
        assert rs == sorted(rs)

    def test_fpr_monotone_nonincreasing(self, curve):
        fprs = [p.fpr for p in curve.points]
        assert fprs == sorted(fprs, reverse=True)

    def test_tpr_monotone_nonincreasing(self, curve):
        tprs = [p.tpr for p in curve.points]
        assert tprs == sorted(tprs, reverse=True)

    def test_best_point_accuracy(self, curve):
        assert curve.best.accuracy == max(p.accuracy for p in curve.points)
        assert curve.best.accuracy >= 0.8  # ACC raw is the flagship cell

    def test_rates_in_unit_interval(self, curve):
        for p in curve.points:
            assert 0.0 <= p.fpr <= 1.0
            assert 0.0 <= p.tpr <= 1.0

    def test_sensor_fault_training_run_rejected(self, dark_training_campaign):
        """Training goes through NsyncIds.fit, which refuses a dark run."""
        with pytest.raises(ValueError, match="training run 0 failed"):
            roc_sweep(dark_training_campaign, "ACC", "Raw")


class TestAuc:
    def test_perfect_detector(self):
        curve = RocCurve(points=(RocPoint(0.3, 0.0, 1.0, 1.0),))
        assert auc(curve) == pytest.approx(1.0)

    def test_coin_flip(self):
        curve = RocCurve(points=(RocPoint(0.3, 0.5, 0.5, 0.5),))
        assert auc(curve) == pytest.approx(0.5)

    def test_campaign_auc_high(self, curve):
        assert auc(curve) >= 0.8
