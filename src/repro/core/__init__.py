"""NSYNC core: comparator, discriminator, OCC training, detection engine."""

from .comparator import Comparator, vertical_distances
from .discriminator import (
    Detection,
    DetectionFeatures,
    Discriminator,
    Thresholds,
    detection_features,
)
from .engine import (
    Alert,
    DetectionEngine,
    DetectorState,
    EngineResult,
    TRUNCATED_WINDOW_DISTANCE,
)
from .health import (
    SENSOR_FAULT,
    ChannelHealth,
    Sanitized,
    SanitizePolicy,
    Sanitizer,
    constant_runs,
    sanitize_signal,
)
from .occ import OneClassTrainer, occ_threshold
from .pipeline import NsyncIds
from .fusion import FusionDetection, MultiChannelNsyncIds

__all__ = [
    "Comparator",
    "vertical_distances",
    "DetectionEngine",
    "DetectorState",
    "EngineResult",
    "TRUNCATED_WINDOW_DISTANCE",
    "Detection",
    "DetectionFeatures",
    "Discriminator",
    "Thresholds",
    "detection_features",
    "SENSOR_FAULT",
    "ChannelHealth",
    "Sanitized",
    "SanitizePolicy",
    "Sanitizer",
    "constant_runs",
    "sanitize_signal",
    "OneClassTrainer",
    "occ_threshold",
    "NsyncIds",
    "Alert",
    "FusionDetection",
    "MultiChannelNsyncIds",
]
