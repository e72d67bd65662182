"""Shared runners for the evaluation experiments.

Three execution modes per substrate, mirroring §III:

- **vanilla** — the application alone;
- **record** — with the PYTHIA-RECORD interposer (events + overhead);
- **predict** — with a previously recorded trace loaded, the oracle
  following the run and predictions requested at the paper's points.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from typing import Sequence

from repro.apps.base import AppSpec, get_app
from repro.apps.lulesh_omp import lulesh_omp_run
from repro.core.oracle import Pythia
from repro.core.trace_file import Trace
from repro.obs.log import get_logger
from repro.obs.spans import span
from repro.machines import MachineSpec, PARAVANCE
from repro.mpi.launcher import MPIRun, mpirun
from repro.mpi.network import NetworkModel
from repro.openmp.costmodel import RegionCostModel
from repro.openmp.policies import AdaptivePythiaPolicy, MaxThreadsPolicy
from repro.openmp.runtime import GompRuntime
from repro.runtime.faults import ErrorInjector
from repro.runtime.mpi_interpose import MPIRuntimeSystem, PredictionScore
from repro.runtime.omp_interpose import OMPRuntimeSystem

__all__ = [
    "MPIExperimentResult",
    "OMPExperimentResult",
    "default_network",
    "mpi_predict_run",
    "mpi_record_run",
    "mpi_vanilla_run",
    "omp_predict_run",
    "omp_record_run",
    "omp_vanilla_run",
]

_log = get_logger("experiments")


def default_network(app: AppSpec, ranks: int) -> NetworkModel:
    """Paravance-like network with the paper's rank placement.

    NPB apps ran 16 ranks/node, hybrid apps 2 ranks/node (§III-C1);
    scaled proportionally for smaller worlds.
    """
    per_node = max(1, ranks // 4) if app.hybrid else max(1, ranks // 4 * 4)
    return NetworkModel.from_cluster(PARAVANCE, ranks_per_node=min(per_node, ranks))


@dataclass(slots=True)
class MPIExperimentResult:
    """Outcome of one simulated MPI execution."""

    app: str
    ws: str
    mode: str
    time: float
    events: int = 0
    rules_per_rank: float = 0.0
    scores: dict[int, PredictionScore] = field(default_factory=dict)
    run: MPIRun | None = None
    trace: Trace | None = None
    accuracy_report: dict = field(default_factory=dict)
    drift_report: dict = field(default_factory=dict)

    def accuracy(self, distance: int) -> float:
        """Aggregate prediction accuracy at one distance."""
        score = self.scores.get(distance)
        return score.accuracy if score else 0.0


def _run(app: AppSpec, ws: str, ranks: int, seed: int, factory) -> MPIRun:
    return mpirun(
        ranks,
        app.main,
        ws,
        seed,
        network=default_network(app, ranks),
        interceptor_factory=factory,
        name=app.name,
    )


def mpi_vanilla_run(
    app_name: str, ws: str, *, ranks: int | None = None, seed: int = 0
) -> MPIExperimentResult:
    """Run an application without any interposition."""
    app = get_app(app_name)
    ranks = ranks or app.default_ranks
    run = _run(app, ws, ranks, seed, None)
    return MPIExperimentResult(app.name, ws, "vanilla", run.time, run=run)


def mpi_record_run(
    app_name: str,
    ws: str,
    trace_path: str,
    *,
    ranks: int | None = None,
    seed: int = 0,
    timestamps: bool = False,
) -> MPIExperimentResult:
    """Run with PYTHIA-RECORD; writes the trace file."""
    app = get_app(app_name)
    ranks = ranks or app.default_ranks
    oracle = Pythia(
        trace_path,
        mode="record",
        record_timestamps=timestamps,
        meta={"app": app.name, "ws": ws, "ranks": ranks},
    )
    with span("experiment.mpi_record", app=app.name, ws=ws, ranks=ranks):
        run = _run(
            app, ws, ranks, seed,
            lambda rank, comm: MPIRuntimeSystem(oracle, rank, comm),
        )
        trace = oracle.finish()
    rules = sum(t.grammar.rule_count for t in trace.threads.values()) / len(trace.threads)
    _log.info(
        "mpi_record_done", app=app.name, ws=ws, ranks=ranks,
        events=trace.event_count, simulated_s=run.time,
    )
    return MPIExperimentResult(
        app.name, ws, "record", run.time,
        events=trace.event_count, rules_per_rank=rules, run=run, trace=trace,
    )


def mpi_predict_run(
    app_name: str,
    ws: str,
    trace_path: str,
    *,
    ranks: int | None = None,
    seed: int = 1,
    distances: Sequence[int] = (1,),
    sample_stride: int = 1,
    error_rate: float = 0.0,
) -> MPIExperimentResult:
    """Run against a reference trace with predictions at sync points."""
    app = get_app(app_name)
    ranks = ranks or app.default_ranks
    oracle = Pythia(trace_path, mode="predict")
    oracle.enable_drift()
    with span("experiment.mpi_predict", app=app.name, ws=ws, ranks=ranks):
        run = _run(
            app, ws, ranks, seed,
            lambda rank, comm: MPIRuntimeSystem(
                oracle, rank, comm,
                distances=distances,
                sample_stride=sample_stride,
                error_injector=ErrorInjector(error_rate, seed=seed + rank) if error_rate else None,
            ),
        )
    scores: dict[int, PredictionScore] = {d: PredictionScore(d) for d in distances}
    for shim in run.interceptors:
        for d, s in shim.summary().items():
            scores[d].correct += s.correct
            scores[d].incorrect += s.incorrect
            scores[d].missing += s.missing
    report = oracle.stats()
    drift = oracle.drift_report()
    _log.info(
        "mpi_predict_done", app=app.name, ws=ws, ranks=ranks,
        hit_rate=report.get("hit_rate"),
        drift_state=drift.get("state"),
        simulated_s=run.time,
    )
    return MPIExperimentResult(
        app.name, ws, "predict", run.time,
        scores=scores, run=run, accuracy_report=report, drift_report=drift,
    )


# ----------------------------------------------------------------------
# OpenMP (single node, §III-D)
# ----------------------------------------------------------------------


@dataclass(slots=True)
class OMPExperimentResult:
    """Outcome of one OpenMP Lulesh execution."""

    machine: str
    size: int
    mode: str
    max_threads: int
    time: float
    average_team: float = 0.0
    stats: dict = field(default_factory=dict)
    accuracy_report: dict = field(default_factory=dict)
    drift_report: dict = field(default_factory=dict)


def _gomp(machine: MachineSpec, max_threads: int, policy, interceptor) -> GompRuntime:
    return GompRuntime(
        machine,
        max_threads=max_threads,
        policy=policy,
        pool_mode="park",
        cost_model=RegionCostModel(machine),
        interceptor=interceptor,
    )


def omp_vanilla_run(
    machine: MachineSpec, size: int, *, max_threads: int | None = None
) -> OMPExperimentResult:
    """Vanilla GNU OpenMP: maximum threads for every region."""
    max_threads = max_threads or machine.cores
    rt = _gomp(machine, max_threads, MaxThreadsPolicy(), None)
    time = lulesh_omp_run(rt, size)
    return OMPExperimentResult(machine.name, size, "vanilla", max_threads, time,
                               average_team=rt.average_team)


def omp_record_run(
    machine: MachineSpec,
    size: int,
    trace_path: str,
    *,
    max_threads: int | None = None,
) -> OMPExperimentResult:
    """Max threads + PYTHIA-RECORD (the reference execution)."""
    max_threads = max_threads or machine.cores
    oracle = Pythia(
        trace_path, mode="record", record_timestamps=True,
        meta={"app": "lulesh-omp", "size": size, "machine": machine.name},
    )
    shim = OMPRuntimeSystem(oracle)
    rt = _gomp(machine, max_threads, MaxThreadsPolicy(), shim)
    time = lulesh_omp_run(rt, size)
    oracle.finish()
    return OMPExperimentResult(machine.name, size, "record", max_threads, time,
                               average_team=rt.average_team, stats=dict(shim.stats))


def omp_predict_run(
    machine: MachineSpec,
    size: int,
    trace_path: str,
    *,
    max_threads: int | None = None,
    error_rate: float = 0.0,
    seed: int = 0,
) -> OMPExperimentResult:
    """PYTHIA-PREDICT driving the adaptive thread-count policy."""
    max_threads = max_threads or machine.cores
    oracle = Pythia(trace_path, mode="predict")
    monitor = oracle.enable_drift()
    injector = ErrorInjector(error_rate, seed=seed) if error_rate else None
    shim = OMPRuntimeSystem(oracle, error_injector=injector)
    policy = AdaptivePythiaPolicy(
        cost_model=RegionCostModel(machine), max_threads=max_threads,
        drift_monitor=monitor,
    )
    rt = _gomp(machine, max_threads, policy, shim)
    with span("experiment.omp_predict", machine=machine.name, size=size):
        time = lulesh_omp_run(rt, size)
    stats = dict(shim.stats)
    stats.update(policy.decisions)
    report = oracle.stats()
    drift = oracle.drift_report()
    _log.info(
        "omp_predict_done", machine=machine.name, size=size,
        hit_rate=report.get("hit_rate"), drift_state=drift.get("state"),
        simulated_s=time,
    )
    return OMPExperimentResult(machine.name, size, "predict", max_threads, time,
                               average_team=rt.average_team, stats=stats,
                               accuracy_report=report, drift_report=drift)


def temp_trace_path(tag: str) -> str:
    """A unique trace-file path in the system temp directory."""
    fd, path = tempfile.mkstemp(prefix=f"pythia-{tag}-", suffix=".pythia")
    os.close(fd)
    os.unlink(path)
    return path
