"""Recorder cold start: import the interposer and open record-mode oracles.

    python3 perfbench/coldstart.py TRACE_PATH...

Prints the seconds from interpreter start-up (this file's first line) until
a record-mode :class:`~repro.core.oracle.Pythia` exists for every path, in
``auto`` mode as a first (reference) run opens it: the trace file is absent,
so the oracle records.  This is the set-up a traced application pays before
its first interposer call.
"""

import time

STARTED = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.core.oracle import Pythia  # noqa: E402
from repro.runtime.mpi_interpose import MPIRuntimeSystem  # noqa: E402,F401
from repro.runtime.omp_interpose import OMPRuntimeSystem  # noqa: E402,F401

for path in sys.argv[1:]:
    if Pythia(path, mode="auto", record_timestamps=True).mode != "record":
        sys.exit(f"{path} exists: a cold start must record")
print(time.perf_counter() - STARTED)
