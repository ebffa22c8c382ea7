"""Time one workload set-up in a fresh interpreter, importing hearthgate plus
building the workload's World and organizations, and print it in seconds at
reference machine speed and as measured:

    python3 perfbench/setup_probe.py <workload> <seed>

The reference workload runs after the set-up, three times; the median
scales it.
"""

import statistics
import sys
from pathlib import Path
from time import perf_counter

start = perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

workloads.build_world(sys.argv[1], int(sys.argv[2]))
measured = perf_counter() - start

import calibrate  # noqa: E402

reference = statistics.median(calibrate.reference_s() for _ in range(3))
print(measured * calibrate.REFERENCE_S / reference, measured)
