"""One set-up of a workload, timed from outside by ``run.py``.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

Imports numpy and orbitact, builds the workload's spec and starts, evaluates
the action once, then prints ``ready``. The parent measures from starting this
process to reading that line. Afterwards the probe prints the median time of
the reference kernel on its own CPU, so that the parent can correct the
set-up time for the machine's speed at that moment.
"""

import sys

from workloads import WORKLOADS

if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    WORKLOADS[name].warm_up(seed)
    print("ready", flush=True)

    from calibration import kernel_seconds

    print(repr(kernel_seconds()), flush=True)
