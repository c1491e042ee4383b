"""Real-time intrusion detection: stop the printer mid-print.

NSYNC is designed for *real-time* operation (the reason DWM exists — DTW
needs the whole signal).  This example trains thresholds offline, then
replays a firmware-compromised print chunk by chunk through the detection
engine ``NsyncIds.engine()`` opens, exactly as a DAQ would deliver samples,
and reports the moment the IDS would have halted the machine.

Run:  python examples/streaming_ids.py
"""

import numpy as np

from repro import (
    DwmSynchronizer,
    Firmware,
    NsyncIds,
    PrintJob,
    TimeNoiseModel,
    ULTIMAKER3,
    UM3_DWM_PARAMS,
    default_daq,
    gear_outline,
    simulate_print,
)
from repro.attacks import FirmwareSpeedAttack
from repro.slicer import SlicerConfig

CHUNK = 512  # samples per DAQ delivery (~1.3 s at the scaled ACC rate)


def main() -> None:
    outline = gear_outline(n_teeth=20, outer_diameter=60.0)
    config = SlicerConfig(object_height=0.6, layer_height=0.2, infill_spacing=6.0)
    job = PrintJob.slice(outline, config)
    daq = default_daq()
    noise = TimeNoiseModel()

    def acc_of(trace, seed):
        return daq.acquire(
            trace, np.random.default_rng(seed), channels=["ACC"]
        )["ACC"]

    # Offline: reference + threshold training on benign prints.
    reference = acc_of(simulate_print(job.program, ULTIMAKER3, noise, seed=0), 0)
    ids = NsyncIds(reference, DwmSynchronizer(UM3_DWM_PARAMS))
    ids.fit(
        [
            acc_of(simulate_print(job.program, ULTIMAKER3, noise, seed=s), s)
            for s in range(1, 9)
        ],
        r=0.3,
    )
    print(f"trained thresholds: {ids.thresholds}")

    # The attack: compromised FIRMWARE silently slows every move by 10%.
    # The G-code sent to the printer is 100% benign.
    firmware = Firmware(
        ULTIMAKER3, noise, transformer=FirmwareSpeedAttack(factor=0.90)
    )
    malicious_trace = firmware.run(job.program, np.random.default_rng(77))
    malicious_acc = acc_of(malicious_trace, 77)
    print(f"\nmalicious print started ({malicious_acc.duration:.0f} s of "
          "signal, arriving in chunks)...")

    # Online: one armed engine per print; stop at the first alert.
    stream = ids.engine()
    for start in range(0, malicious_acc.n_samples, CHUNK):
        alerts = stream.push(malicious_acc.data[start : start + CHUNK])
        if alerts:
            alert = alerts[0]
            t_alert = start / malicious_acc.sample_rate
            print(
                f"!! intrusion at window {alert.window_index} "
                f"(~{t_alert:.0f} s into the print): sub-module "
                f"{alert.submodule}, value {alert.value:.1f} > "
                f"threshold {alert.threshold:.1f}"
            )
            print("   -> printer stopped; "
                  f"{malicious_acc.duration - t_alert:.0f} s of sabotaged "
                  "printing avoided")
            break
    else:
        print("print finished without alerts (attack missed)")

    # Contrast: a benign stream passes untouched.
    benign_acc = acc_of(simulate_print(job.program, ULTIMAKER3, noise, seed=300), 300)
    stream = ids.engine()
    for start in range(0, benign_acc.n_samples, CHUNK):
        if stream.push(benign_acc.data[start : start + CHUNK]):
            print("\nbenign print raised a false alarm!")
            break
    else:
        print("\nbenign print completed with zero alerts")


if __name__ == "__main__":
    main()
