"""Set-up probe, run in a fresh interpreter by ``run.py``.

Usage: python3 bench/probe.py WORKLOAD SEED  (with src/ on PYTHONPATH)

Imports the CLI and builds the workload's inputs, the start-up work of
every invocation of the command, then prints one line; ``run.py`` times
the process from its spawn to that line.
"""

import sys

import ussd_lab.cli  # noqa: F401
from workloads import make_round

make_round(sys.argv[1], int(sys.argv[2]))
print("ready", flush=True)
