"""One set-up sample: a fresh interpreter up to the state before the first episode.

    python3 perfbench/setup_probe.py WORKLOAD SEED OUT_DIR

Imports the package, parses the workload's configs and builds the runner
exactly as a round does. It then prints ``time.monotonic()`` less the time
it spent importing the benchmark's own workload and check modules. The
caller subtracts the monotonic time at which it launched this process.
"""

import sys
from time import monotonic

from common import import_tsclab

if __name__ == "__main__":
    workload, seed, out = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    tsclab = import_tsclab()
    t0 = monotonic()
    from workloads import WORKLOADS

    own = monotonic() - t0
    WORKLOADS[workload].build(tsclab, out, seed)
    print(repr(monotonic() - own))
