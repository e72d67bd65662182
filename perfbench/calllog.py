"""Seeded interposer call logs: the benchmark's only input to the oracle.

The app skeletons run once under *capturing* interceptors that stand in
for the PYTHIA runtime shims.  Each capture appends the exact call the
real shim would receive:

- OpenMP (``GompRuntime`` -> ``OMPRuntimeSystem``):
  ``("b", thread, region, clock)`` for ``region_begin`` and
  ``("e", thread, region, clock)`` for ``region_end``;
- MPI (``SimComm`` -> ``MPIRuntimeSystem``):
  ``("c", thread, fn, payload, now)`` for ``mpi_call`` and
  ``("s", thread, fn)`` for ``mpi_sync``.

The replayer (``replay.py``) feeds these tuples to the real shims, so the
program under test never sees the simulator, only the calls.

Two families, one trace file each; every (app, seed, rank) is its own
oracle thread:

``loop``
    thread 0: OpenMP Lulesh region begin/end calls; threads 1-8: the 8
    ranks of MPI+OpenMP Lulesh (a prefix window of the run).  Recorded
    and replayed from the same log, so the tracker stays in sync.
``irregular``
    Quicksilver (large) then AMG (medium), several app seeds each.  The
    predict log comes from app seeds disjoint from the recorded ones
    (a prefix window of each run), with a fixed share of
    never-recorded events injected the way
    :class:`~repro.runtime.faults.ErrorInjector` does (§III-E).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.base import get_app
from repro.apps.lulesh_omp import lulesh_omp_run
from repro.experiments.harness import default_network
from repro.machines import PUDDING
from repro.mpi.launcher import mpirun
from repro.openmp.costmodel import RegionCostModel
from repro.openmp.policies import MaxThreadsPolicy
from repro.openmp.runtime import GompRuntime
from repro.runtime.faults import ErrorInjector
from repro.runtime.omp_interpose import BEGIN, END

#: OpenMP Lulesh problem size and timesteps (30 regions per step)
OMP_SIZE = 10
OMP_TIMESTEPS = 150
#: MPI Lulesh: ranks, working set, and the prefix window kept (calls)
LULESH_RANKS = 8
LULESH_WINDOW = 9000
#: irregular apps: (app, working set), ranks, app seeds per app
IRREGULAR_APPS = (("quicksilver", "large"), ("amg", "medium"))
IRREGULAR_RANKS = 8
IRREGULAR_SEEDS = 2
#: prefix window of each irregular (app, seed) predict log (calls)
IRREGULAR_WINDOW = 3000
#: share of never-recorded events injected into the irregular predict logs
INJECT_RATE = 0.02

FAMILIES = ("loop", "irregular")


@dataclass(slots=True)
class FamilyLog:
    """The calls recorded into one trace and the calls replayed against it."""

    name: str
    record: list[tuple]
    predict: list[tuple]


class _CaptureOMP:
    """``GompRuntime`` interceptor that logs instead of calling an oracle."""

    def __init__(self, log: list) -> None:
        self.log = log

    def region_begin(self, region_id, clock: float) -> None:
        self.log.append(("b", 0, region_id, clock))
        return None

    def region_end(self, region_id, clock: float) -> None:
        self.log.append(("e", 0, region_id, clock))

    def overhead(self) -> float:
        return 0.0


class _CaptureMPI:
    """``SimComm`` interceptor that logs instead of calling an oracle."""

    def __init__(self, log: list, thread: int, comm, injector: ErrorInjector | None) -> None:
        self.log = log
        self.thread = thread
        self.comm = comm
        self.injector = injector

    def mpi_call(self, fn: str, payload) -> None:
        if self.injector is not None:
            self.injector.maybe_inject(self._submit)
        self._submit(fn, payload)

    def _submit(self, fn: str, payload) -> None:
        self.log.append(("c", self.thread, fn, payload, self.comm.now))

    def mpi_sync(self, fn: str) -> None:
        self.log.append(("s", self.thread, fn))

    def take_overhead(self) -> float:
        return 0.0


def _omp_log() -> list[tuple]:
    log: list[tuple] = []
    runtime = GompRuntime(
        PUDDING,
        max_threads=PUDDING.cores,
        policy=MaxThreadsPolicy(),
        pool_mode="park",
        cost_model=RegionCostModel(PUDDING),
        interceptor=_CaptureOMP(log),
    )
    lulesh_omp_run(runtime, OMP_SIZE, timesteps=OMP_TIMESTEPS)
    return log


def _mpi_log(app_name: str, ws: str, seed: int, ranks: int, *,
             thread_base: int = 0, inject_seed: int | None = None) -> list[tuple]:
    app = get_app(app_name)
    log: list[tuple] = []

    def factory(rank, comm):
        injector = None
        if inject_seed is not None:
            injector = ErrorInjector(INJECT_RATE, seed=inject_seed * 1000 + thread_base + rank)
        return _CaptureMPI(log, thread_base + rank, comm, injector)

    mpirun(ranks, app.main, ws, seed, network=default_network(app, ranks),
           interceptor_factory=factory, name=app.name)
    return log


def app_seeds(seed: int) -> tuple[list[int], list[int]]:
    """Recorded and replayed app seeds of the irregular family (disjoint)."""
    base = seed * 1000
    return ([base + i for i in range(IRREGULAR_SEEDS)],
            [base + 500 + i for i in range(IRREGULAR_SEEDS)])


def make_logs(seed: int) -> dict[str, FamilyLog]:
    """Both families' record and predict call logs for one benchmark seed."""
    loop = _omp_log()
    loop += _mpi_log("lulesh", "small", seed, LULESH_RANKS, thread_base=1)[:LULESH_WINDOW]
    recorded, replayed = app_seeds(seed)
    record: list[tuple] = []
    predict: list[tuple] = []
    base = 0
    for app, ws in IRREGULAR_APPS:
        for rseed, pseed in zip(recorded, replayed):
            record += _mpi_log(app, ws, rseed, IRREGULAR_RANKS, thread_base=base)
            predict += _mpi_log(app, ws, pseed, IRREGULAR_RANKS, thread_base=base,
                                inject_seed=pseed)[:IRREGULAR_WINDOW]
            base += IRREGULAR_RANKS
    return {"loop": FamilyLog("loop", loop, loop),
            "irregular": FamilyLog("irregular", record, predict)}


def submitted_events(log: list[tuple]) -> dict[int, list[tuple]]:
    """Per-thread ``(name, payload)`` stream a shim submits for ``log``."""
    out: dict[int, list[tuple]] = {}
    for entry in log:
        kind = entry[0]
        if kind == "s":
            continue
        if kind == "c":
            event = (entry[2], entry[3])
        else:
            event = (BEGIN if kind == "b" else END, entry[2])
        out.setdefault(entry[1], []).append(event)
    return out
