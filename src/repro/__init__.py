"""NSYNC: practical side-channel intrusion detection for additive manufacturing.

A full reproduction of Liang et al., "A Practical Side-Channel Based
Intrusion Detection System for Additive Manufacturing Systems" (ICDCS 2021):
the DWM dynamic synchronizer, the NSYNC IDS framework, DTW/FastDTW
baselines, a simulated FDM printing stack (slicer, G-code firmware with time
noise, six side-channel sensors), the five attacks of Table I, five prior
IDSs, and the full evaluation harness.

Quickstart::

    from repro import (
        PrintJob, PAPER_GEAR, ULTIMAKER3, simulate_print, default_daq,
        TimeNoiseModel, NsyncIds, DwmSynchronizer, UM3_DWM_PARAMS,
    )

    job = PrintJob.slice(PAPER_GEAR)
    trace = simulate_print(job.program, ULTIMAKER3, TimeNoiseModel(), seed=0)
    signals = default_daq().acquire(trace)
    # ... build an NsyncIds around a reference signal and detect().
"""

from .signals import (
    PAPER_SPECTROGRAMS,
    Signal,
    SpectrogramConfig,
    correlation_distance,
    correlation_similarity,
    spectrogram,
    trailing_min_filter,
)
from .sync import (
    DtwSynchronizer,
    DwmParams,
    DwmSynchronizer,
    FastDtwSynchronizer,
    RM3_DWM_PARAMS,
    StreamingDwm,
    SyncResult,
    UM3_DWM_PARAMS,
    tde,
    tdeb,
)
from .core import (
    Alert,
    Comparator,
    Detection,
    Discriminator,
    NsyncIds,
    OneClassTrainer,
    SENSOR_FAULT,
    SanitizePolicy,
    Thresholds,
)
from .printer import (
    Firmware,
    GcodeProgram,
    MachineTrace,
    NO_TIME_NOISE,
    ROSTOCK_MAX_V3,
    TimeNoiseModel,
    ULTIMAKER3,
    parse_gcode,
    simulate_print,
)
from .slicer import PAPER_GEAR, Slicer, SlicerConfig, gear_outline, slice_model
from .attacks import (
    Attack,
    InfillGridAttack,
    LayerHeightAttack,
    PrintJob,
    ScaleAttack,
    SpeedAttack,
    TABLE_I_ATTACKS,
    VoidAttack,
)
from .sensors import DataAcquisition, default_daq
from .cache import RunCache, run_cache_key
from . import obs

__version__ = "1.0.0"

__all__ = [
    "PAPER_SPECTROGRAMS",
    "Signal",
    "SpectrogramConfig",
    "correlation_distance",
    "correlation_similarity",
    "spectrogram",
    "trailing_min_filter",
    "DtwSynchronizer",
    "DwmParams",
    "DwmSynchronizer",
    "FastDtwSynchronizer",
    "RM3_DWM_PARAMS",
    "StreamingDwm",
    "SyncResult",
    "UM3_DWM_PARAMS",
    "tde",
    "tdeb",
    "Alert",
    "Comparator",
    "Detection",
    "Discriminator",
    "NsyncIds",
    "OneClassTrainer",
    "SENSOR_FAULT",
    "SanitizePolicy",
    "Thresholds",
    "Firmware",
    "GcodeProgram",
    "MachineTrace",
    "NO_TIME_NOISE",
    "ROSTOCK_MAX_V3",
    "TimeNoiseModel",
    "ULTIMAKER3",
    "parse_gcode",
    "simulate_print",
    "PAPER_GEAR",
    "Slicer",
    "SlicerConfig",
    "gear_outline",
    "slice_model",
    "Attack",
    "InfillGridAttack",
    "LayerHeightAttack",
    "PrintJob",
    "ScaleAttack",
    "SpeedAttack",
    "TABLE_I_ATTACKS",
    "VoidAttack",
    "DataAcquisition",
    "default_daq",
    "RunCache",
    "run_cache_key",
    "obs",
    "__version__",
]
