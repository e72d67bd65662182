"""The PYTHIA-enabled MPI runtime system (§III-B).

The paper intercepts MPI primitives with ``LD_PRELOAD``; here the
simulated :class:`~repro.mpi.comm.SimComm` calls this shim directly.
For each MPI function one event is recorded, whose payload carries the
same distinguishing information as the paper's implementation: the
source/destination rank for point-to-point primitives, the reduction
operation for reductions, the root for rooted collectives.

At every ``MPI_Wait``/``MPI_Waitall``/blocking-collective entry the shim
asks the oracle to predict the event ``distance`` events ahead — "this
mimics the behavior of an MPI runtime system that would use the
synchronization time to perform an optimization" — and scores the
prediction once the target event actually happens (that scoring
machinery regenerates Fig 8).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

from repro.core.events import Event
from repro.core.oracle import Pythia
from repro.runtime.faults import ErrorInjector

if TYPE_CHECKING:  # annotation only: the shim never loads the MPI substrate
    from repro.mpi.comm import SimComm

__all__ = ["MPIRuntimeSystem", "PredictionScore"]

#: simulated cost charged per recorded event (s): a grammar append plus
#: the interception trampoline — sub-microsecond in the paper's C library
RECORD_EVENT_COST = 0.25e-6

#: simulated base + per-distance cost of one prediction (Fig 9 shows a
#: linear growth from ~sub-us to tens of us)
PREDICT_BASE_COST = 0.5e-6
PREDICT_DISTANCE_COST = 0.25e-6


@dataclass(slots=True)
class PredictionScore:
    """Aggregated prediction outcomes for one distance."""

    distance: int
    correct: int = 0
    incorrect: int = 0
    missing: int = 0  # the oracle was lost / had no prediction

    @property
    def total(self) -> int:
        """All scoring opportunities."""
        return self.correct + self.incorrect + self.missing

    @property
    def accuracy(self) -> float:
        """Correct fraction among *made* predictions (paper's metric)."""
        made = self.correct + self.incorrect
        return self.correct / made if made else 0.0


@dataclass(slots=True)
class _Pending:
    target_index: int
    distance: int
    predicted: int | None


class MPIRuntimeSystem:
    """Per-rank interception shim feeding PYTHIA.

    Parameters
    ----------
    oracle:
        The shared :class:`~repro.core.oracle.Pythia` (rank = thread id).
    rank / comm:
        The simulated rank this shim serves.
    distances:
        Prediction distances requested at synchronisation points.
    error_injector:
        Optional §III-E fault injection.
    """

    def __init__(
        self,
        oracle: Pythia,
        rank: int,
        comm: SimComm,
        *,
        distances: Sequence[int] = (1,),
        sample_stride: int = 1,
        error_injector: ErrorInjector | None = None,
    ) -> None:
        if sample_stride < 1:
            raise ValueError("sample_stride must be >= 1")
        self.oracle = oracle
        self.rank = rank
        self.comm = comm
        self.distances = tuple(distances)
        self.sample_stride = sample_stride
        self.error_injector = error_injector
        self.events_seen = 0
        self.sync_points = 0
        self.scores = {d: PredictionScore(d) for d in self.distances}
        # one queue per distance: each is monotone in target_index
        self._pending: dict[int, deque[_Pending]] = {d: deque() for d in self.distances}
        self._debt = 0.0

    # -- Interceptor protocol ------------------------------------------------

    def mpi_call(self, fn: str, payload: Any) -> None:
        """Record one event for an MPI call entry."""
        if self.error_injector is not None:
            self.error_injector.maybe_inject(self._submit)
        self._submit(fn, payload)

    def _submit(self, name: str, payload: Any) -> None:
        self._score_arrival(name, payload)
        self.oracle.event(name, payload, timestamp=self.comm.now, thread=self.rank)
        self.events_seen += 1
        self._debt += RECORD_EVENT_COST

    def mpi_sync(self, fn: str) -> None:
        """Ask for predictions at a synchronisation point (predict mode).

        ``sample_stride`` thins the prediction points: the paper's C
        implementation predicts at every synchronisation; this Python
        reproduction samples every N-th one to keep experiment wall time
        reasonable without changing the measured accuracy.
        """
        if not self.oracle.predicting or not self.distances:
            return
        self.sync_points += 1
        if (self.sync_points - 1) % self.sample_stride:
            return
        for d in self.distances:
            pred = self.oracle.predict(d, thread=self.rank)
            terminal = pred.terminal if pred is not None else None
            self._pending[d].append(
                _Pending(target_index=self.events_seen + d, distance=d, predicted=terminal)
            )
            self._debt += PREDICT_BASE_COST + PREDICT_DISTANCE_COST * d

    def take_overhead(self) -> float:
        """Oracle time to charge to the simulated clock."""
        debt, self._debt = self._debt, 0.0
        return debt

    # -- scoring ---------------------------------------------------------------

    def _score_arrival(self, name: str, payload: Any) -> None:
        index = self.events_seen + 1  # index this event will occupy
        actual: int | None = None
        looked_up = False
        for d, queue in self._pending.items():
            while queue and queue[0].target_index <= index:
                pending = queue.popleft()
                if pending.target_index < index:
                    continue  # stale (should not happen)
                if not looked_up:
                    actual = self.oracle.registry.lookup(Event(name, payload))
                    looked_up = True
                score = self.scores[d]
                if pending.predicted is None:
                    score.missing += 1
                elif actual is not None and pending.predicted == actual:
                    score.correct += 1
                else:
                    score.incorrect += 1

    # -- reporting ---------------------------------------------------------------

    def accuracy(self, distance: int) -> float:
        """Prediction accuracy measured at one distance."""
        return self.scores[distance].accuracy

    def summary(self) -> dict[int, PredictionScore]:
        """All per-distance scores."""
        return dict(self.scores)
