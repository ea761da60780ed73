"""Time one workload's set-up in this fresh process and print the seconds.

Usage: python3 bench/setup_probe.py WORKLOAD

Covers importing tabsynth, reading the bundled data and the workload's
own set-up (loading theories, or the replay that extracts the program);
input generation is not included.  Interpreter start-up is not counted.
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]].setup()
print(time.perf_counter() - START)
