"""Host-speed calibration for the benchmark's timings.

The host this benchmark was built on is a shared 2-vCPU VM whose speed
drifts by tens of percent within a minute.  :func:`calibrate` times a fixed
slice of interpreter work that never touches qnetcap; samples taken next to
the measured work say how fast the host was running it, and times are
reported at the speed where one sample takes REFERENCE_S.
"""

from __future__ import annotations

import statistics
import time

#: Nominal duration of one calibration sample.
REFERENCE_S = 0.002
#: One calibration sample is due per this many seconds of measured work.
EVERY_S = 0.2
#: Most samples taken in one go, after a long op.
MAX_BURST = 25


def calibrate() -> float:
    """Wall time to build, sort and sum a 4,000-entry dict."""
    t0 = time.perf_counter()
    table = {f"k{i}": i * 0.5 for i in range(4000)}
    ranked = sorted(table.items(), key=lambda kv: -kv[1])
    sum(v for _, v in ranked[:100])
    return time.perf_counter() - t0


def samples_due(elapsed: float) -> int:
    """Samples to take after ``elapsed`` seconds without one: one per
    EVERY_S, so a long op is followed by as many samples as the time it
    took, at about 1% of the run."""
    return min(MAX_BURST, int(elapsed / EVERY_S))


def to_reference(seconds: float, samples) -> float:
    """``seconds`` measured while ``samples`` were taken, at reference speed."""
    return seconds * REFERENCE_S / statistics.median(samples)
