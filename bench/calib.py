"""Host calibration loop, shared by run.py and setup_probe.py.

Shared hosts switch between speed regimes about 1.5x apart that last from
seconds to minutes; unscaled, one program reads up to 40% apart from run to
run.  So CAL_LOOP iterations of a fixed pure-Python integer loop are timed
beside the measured work, and each end-to-end timing is scaled by
CAL_NOMINAL_S / (calibration time): it reads as on a host where the loop
takes CAL_NOMINAL_S.  The loop runs no program code, so a change to the
program moves the scaled timings by its full amount.
"""

import time

CAL_LOOP = 20_000
CAL_NOMINAL_S = 0.002


def spin(n: int = CAL_LOOP) -> float:
    """Seconds of a fixed pure-Python integer loop of n iterations."""
    t0 = time.perf_counter()
    x = 0
    for i in range(n):
        x = (x + i * i) % 1000003
    return time.perf_counter() - t0
