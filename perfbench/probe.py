"""Set-up probe: import genphase, validate a workload's config and build its
prior, then print the monotonic clock, then three timings of the ``python``
calibration kernel.  ``run.py`` starts this as a fresh process and
reads the time from its own start to the clock reading.

    python3 perfbench/probe.py <workload> <seed>
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import calibrate  # noqa: E402
import workloads  # noqa: E402  (imports genphase)

workloads.setup(sys.argv[1], int(sys.argv[2]))
print(repr(time.perf_counter()))
print(*map(repr, calibrate.samples("python", 3)))
