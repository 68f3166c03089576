"""Machine-speed probe that end-to-end times are scaled by.

The shared 2-core machine this benchmark was built on changes speed by up
to 2x in phases of seconds to a minute (a fixed loop timed back to back
swings between about 110 and 210 ms), and CPU time tracks wall time, so
the cause is a slower core, not descheduling. Raw wall times of the same
work then spread by 10-25 % between runs. A short fixed probe of the kind
of work epkit does (interpreted Python plus small complex LAPACK calls),
run between operations, measures the current speed; each operation's time
is multiplied by REF_PROBE_S / probe, which reports it at a fixed reference
speed.

The probe runs on whatever CPU the scheduler gives the calling thread, as
the work does. Measured over ten seeds of 12-20 s runs per workload, as
the run-to-run standard deviation of log(op_p50_ms), scaling each
operation by the probes just before and after it read 0.045 on
bz-lattice, 0.031 on classify-taxonomy and 0.038 on cli-configs (raw:
0.164, 0.145 and 0.175). Two other ways were tried and dropped: one
factor per run from the median probe (0.086, 0.064 and 0.074), and
running the probe once on each CPU in turn with the thread bound to it,
which spread bz-lattice wider than raw times did.

The probe is benchmark code, not epkit code, so a change to the program
moves the scaled times exactly as it moves the raw ones.
"""

import time

import numpy as np

#: Probe time at the reference speed. Scaled times are seconds at this
#: speed. The probe read 1.4-2 ms while the machine was busy and
#: 0.73-0.76 ms in its quietest phase.
REF_PROBE_S = 1.0e-3
#: Probe at most this often; each probe costs about 3 ms.
PROBE_EVERY_S = 0.1
_MATRIX = (np.arange(16.0).reshape(4, 4) % 5 - 2.0) * (1.0 + 0.5j) + np.eye(4)
# Bound at import, so that the tracer's wrapper never sees the probe.
_svd = np.linalg.svd


def probe():
    """Mean of three runs of a fixed Python-plus-LAPACK snippet, seconds.

    The mean tracks the speed the next operations will see better than the
    best of the three did (window-to-window spread 0.042 against 0.053).
    """
    t0 = time.perf_counter()
    for _ in range(3):
        x = 0
        for i in range(6000):
            x += i * i
        for _ in range(60):
            _svd(_MATRIX)
    return (time.perf_counter() - t0) / 3


def factor(probe_s):
    """Multiplier taking a time at probe speed ``probe_s`` to reference speed."""
    return REF_PROBE_S / probe_s
