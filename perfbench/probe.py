"""Time a fresh interpreter's set-up: import minkruled, parse configs.

    python3 -I perfbench/probe.py SRC_DIR CONFIG.json ...

Prints the seconds from before the import to after the last parse, then
the median of three runs of the reference loop right after it (see
refloop.py).
"""

import os
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import minkruled  # noqa: E402

for path in sys.argv[2:]:
    minkruled.RunConfig.from_file(path)
t = time.perf_counter() - t0

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from refloop import loop_s  # noqa: E402

print(t, sorted(loop_s() for _ in range(3))[1])
