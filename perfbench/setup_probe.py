"""Set-up probe: time a cold import of oqmarkov plus construction of one
workload's models or specs, in the fresh process this script runs in.

usage: python3 setup_probe.py <workload> <src dir>

Prints the elapsed seconds as the last line of standard output.
"""

import os
import sys
import time

from workloads import construct

workload, src = sys.argv[1], os.path.abspath(sys.argv[2])
start = time.perf_counter()
sys.path.insert(0, src)
import oqmarkov  # noqa: E402
import oqmarkov.cli  # noqa: E402,F401

if os.path.commonpath([os.path.abspath(oqmarkov.__file__), src]) != src:
    sys.exit(f"error: imported oqmarkov from {oqmarkov.__file__}, not from {src}")
construct(workload)
print(repr(time.perf_counter() - start))
