"""PYTHIA-RECORD: event intake during the reference execution (§II-A).

The recorder owns one grammar per thread of the traced application (the
paper: "a grammar that represents the program execution is maintained for
each thread").  Each submitted event appends one terminal; optionally its
timestamp is logged sequentially, and :meth:`PythiaRecord.finish` replays
the trace to build the duration table (§II-C).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from repro.core.events import Event, EventRegistry
from repro.core.frozen import FrozenGrammar
from repro.core.grammar import Grammar
from repro.core.timing import TimingTable
from repro.obs import metrics as obs_metrics
from repro.obs.spans import span

#: registry flushes happen every this many recorded events (the hot path
#: only bumps a local int; see the README's overhead benchmark)
METRICS_FLUSH_EVERY = 4096

#: the counter families a recorder publishes, as ``(name, help)``: events,
#: rules created, exponent merges
METRIC_FAMILIES: tuple[tuple[str, str], ...] = (
    ("pythia_record_events_total", "Events ingested by PYTHIA-RECORD"),
    ("pythia_record_rules_created_total",
     "Grammar rule ids allocated while recording, including those of the rules "
     "a repeated loop iteration skips building"),
    ("pythia_record_exponent_merges_total",
     "Consecutive-repetition exponent merges while recording"),
)


@dataclass(slots=True)
class ThreadTrace:
    """The frozen outcome of recording one thread."""

    grammar: FrozenGrammar
    timing: TimingTable | None
    event_count: int


class PythiaRecord:
    """Single-thread recorder: feeds events into an on-line grammar.

    Parameters
    ----------
    registry:
        Shared event registry (one per process); created if omitted.
    record_timestamps:
        When True, every event must come with a timestamp and the
        finished trace includes a duration table.
    """

    def __init__(
        self,
        registry: EventRegistry | None = None,
        *,
        record_timestamps: bool = False,
    ) -> None:
        self.registry = registry if registry is not None else EventRegistry()
        self.record_timestamps = record_timestamps
        self.grammar = Grammar()
        self._timestamps: list[float] = []
        #: one Event per distinct (name, payload) seen by record_event: the
        #: registry then matches it by identity, and no Event is built per call
        self._events: dict[tuple[str, Hashable], Event] = {}
        self._finished = False
        self._unflushed_events = 0
        self._published = [0] * len(METRIC_FAMILIES)

    @property
    def event_count(self) -> int:
        """Number of events recorded so far."""
        return len(self.grammar)

    @property
    def rule_count(self) -> int:
        """Current number of grammar rules (Table I's "# rules")."""
        return self.grammar.rule_count

    def record(self, terminal: int, timestamp: float | None = None) -> None:
        """Submit one pre-interned event id."""
        if self._finished:
            raise RuntimeError("recorder already finished")
        self.grammar.append(terminal)
        self._unflushed_events += 1
        if self._unflushed_events >= METRICS_FLUSH_EVERY:
            self.flush_metrics()
        if self.record_timestamps:
            if timestamp is None:
                raise ValueError("record_timestamps=True requires a timestamp per event")
            if self._timestamps and timestamp < self._timestamps[-1]:
                raise ValueError("timestamps must be non-decreasing")
            self._timestamps.append(float(timestamp))

    def record_event(
        self, name: str, payload: Hashable = None, timestamp: float | None = None
    ) -> int:
        """Intern ``(name, payload)`` and record it; returns the terminal id."""
        event = self._events.get((name, payload))
        if event is None:
            event = self._events[(name, payload)] = Event(name, payload)
        terminal = self.registry.intern(event)
        self.record(terminal, timestamp)
        return terminal

    def flush_metrics(self) -> None:
        """Publish batched deltas to the process metrics registry."""
        self._unflushed_events = 0
        grammar = self.grammar
        obs_metrics.publish_deltas(
            obs_metrics.get_registry(), METRIC_FAMILIES,
            (len(grammar), grammar.rules_created, grammar.exponent_merges),
            self._published,
        )

    def finish(self) -> ThreadTrace:
        """Freeze the grammar (and build the timing table if recording times)."""
        self._finished = True
        self.flush_metrics()
        with span("record.freeze"):
            frozen = FrozenGrammar.from_grammar(self.grammar)
        timing: TimingTable | None = None
        if self.record_timestamps and self._timestamps:
            with span("record.timing_table", events=len(self._timestamps)):
                timing = TimingTable.from_replay(frozen, self._timestamps)
        return ThreadTrace(grammar=frozen, timing=timing, event_count=len(self.grammar))
