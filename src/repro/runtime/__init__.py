"""Runtime systems that consult PYTHIA.

This package re-exports nothing: import each shim from its module.
Two runtime-system shims mirror §III-B of the paper:

- :class:`repro.runtime.mpi_interpose.MPIRuntimeSystem` — intercepts
  every simulated MPI call, records one event per call (with the
  distinguishing payload), and requests predictions when entering
  ``MPI_Wait*`` or blocking collectives;
- :class:`repro.runtime.omp_interpose.OMPRuntimeSystem` — intercepts
  parallel-region begin/end in the simulated GOMP, and at region entry
  asks PYTHIA for the probable region duration (feeding the adaptive
  thread policy of §III-D).

:mod:`repro.runtime.faults` injects random unexpected events (§III-E)
and, via :class:`~repro.runtime.faults.FaultyTransport`, deterministic
transport faults between a client and the oracle daemon.
"""
