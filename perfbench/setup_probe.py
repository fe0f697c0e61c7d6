"""Set-up probe: python3 perfbench/setup_probe.py WORKLOAD INPUT_PATH

Imports the package, parses and validates the workload's input, makes its
warm-up call, then prints "ready". run.py times this from process spawn.
"""

import bootstrap  # noqa: F401  (pins BLAS threads and the import path first)

import sys
from pathlib import Path

import workloads

if __name__ == "__main__":
    workloads.WORKLOADS[sys.argv[1]](Path(sys.argv[2]))
    print("ready", flush=True)
