"""Provenance for oracle predictions: *why* did PYTHIA say that?

A prediction is an aggregate over candidate progress sequences (§II-B):
each candidate is a weighted position in the reference grammar, the
simulated future of each candidate contributes its weight to the
terminals it reaches, and :meth:`~repro.core.predict.PythiaPredict.predict`
reports the heaviest terminal.  That aggregation is exactly what a
consumer cannot see — a 0.55 probability backed by one ambiguous restart
looks identical to one backed by two well-confirmed loop positions.

:meth:`PythiaPredict.explain` re-runs the same simulation (same floats,
no counters touched) and keeps the final candidate set, which this
module renders as an :class:`Explanation`: per predicted terminal, the
candidate progress sequences that back it — their grammar rule paths
(bottom-first, as in Fig. 4), their normalized occurrence weights, and
how the probability mass was assembled — plus which traversal produced
it (the compiled successor machine or the ``compiled=False`` reference
path).  Everything serializes to JSON (:meth:`Explanation.to_obj`), so
the same payload flows through the daemon's ``explain`` op and the
``pythia-trace explain`` CLI verb.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SourceChain", "EventExplanation", "Explanation"]


@dataclass(frozen=True, slots=True)
class SourceChain:
    """One candidate progress sequence backing a predicted event.

    ``chain`` is the progress sequence itself — ``(rule, body index,
    iteration)`` steps, bottom-first (§II-B, Fig. 4); the empty tuple is
    the END-of-execution candidate.  ``weight`` is its normalized share
    of the candidate mass after the simulated ``distance`` steps: the
    occurrence weighting applied at (re)start time and every pruning
    since are already folded in.
    """

    chain: tuple
    terminal: int | None
    weight: float

    @property
    def rule_path(self) -> tuple[int, ...]:
        """Grammar rules traversed, bottom-first (innermost rule first)."""
        return tuple(step[0] for step in self.chain)

    def to_obj(self) -> dict:
        return {
            "chain": [list(step) for step in self.chain],
            "rule_path": list(self.rule_path),
            "terminal": self.terminal,
            "weight": self.weight,
        }

    @staticmethod
    def from_obj(obj: dict) -> "SourceChain":
        return SourceChain(
            chain=tuple(tuple(step) for step in obj["chain"]),
            terminal=obj["terminal"],
            weight=obj["weight"],
        )


@dataclass(frozen=True, slots=True)
class EventExplanation:
    """One predicted terminal with the sources of its probability mass.

    ``probability`` is exactly the mass :meth:`PythiaPredict.predict`
    reports for this terminal; ``sources`` lists the backing candidate
    chains heaviest-first (possibly truncated — ``source_count`` is the
    untruncated number, and ``probability`` always covers all of them).
    """

    terminal: int | None
    probability: float
    sources: tuple[SourceChain, ...]
    source_count: int

    def to_obj(self) -> dict:
        return {
            "terminal": self.terminal,
            "probability": self.probability,
            "source_count": self.source_count,
            "sources": [s.to_obj() for s in self.sources],
        }

    @staticmethod
    def from_obj(obj: dict) -> "EventExplanation":
        return EventExplanation(
            terminal=obj["terminal"],
            probability=obj["probability"],
            sources=tuple(SourceChain.from_obj(s) for s in obj["sources"]),
            source_count=obj["source_count"],
        )


@dataclass(frozen=True, slots=True)
class Explanation:
    """Provenance of one oracle query, JSON-serializable.

    ``events`` holds the top-k predicted terminals, heaviest first with
    ties in candidate-insertion order — so ``events[0]`` is *exactly*
    the terminal and probability :meth:`PythiaPredict.predict` would
    return for the same state and distance.  ``path`` records which
    traversal produced it (``"compiled"`` or ``"reference"``; both are
    byte-identical, the field exists so a surprising prediction can be
    pinned to the machine that served it), and ``deterministic`` whether
    every simulated step stayed on the single-successor fast path: the
    compiled machine expands a chain it has not seen on the way, so this
    reads True for a walk that is deterministic at every step, warm or
    cold.  The reference traversal has no fast path and reads False.
    """

    distance: int
    path: str
    deterministic: bool
    candidates: int
    eta: float | None
    events: tuple[EventExplanation, ...]

    @property
    def terminal(self) -> int | None:
        """The predicted terminal (``events[0]``), as ``predict()`` reports."""
        return self.events[0].terminal

    @property
    def probability(self) -> float:
        """The predicted probability (``events[0]``)."""
        return self.events[0].probability

    def to_obj(self, name_of=None) -> dict:
        """Plain-dict form; ``name_of(terminal)`` adds human names."""
        events = []
        for ev in self.events:
            obj = ev.to_obj()
            if name_of is not None:
                obj["name"] = None if ev.terminal is None else name_of(ev.terminal)
            events.append(obj)
        return {
            "distance": self.distance,
            "path": self.path,
            "deterministic": self.deterministic,
            "candidates": self.candidates,
            "eta": self.eta,
            "terminal": self.terminal,
            "probability": self.probability,
            "events": events,
        }

    @staticmethod
    def from_obj(obj: dict) -> "Explanation":
        return Explanation(
            distance=obj["distance"],
            path=obj["path"],
            deterministic=obj["deterministic"],
            candidates=obj["candidates"],
            eta=obj.get("eta"),
            events=tuple(EventExplanation.from_obj(e) for e in obj["events"]),
        )

    def describe(self, name_of=None) -> str:
        """Multi-line human rendering (the CLI's output)."""
        label = (
            (lambda t: "<end>" if t is None else (name_of(t) if name_of else f"#{t}"))
        )
        lines = [
            f"explain distance={self.distance} path={self.path}"
            f" deterministic={self.deterministic} candidates={self.candidates}"
        ]
        for rank, ev in enumerate(self.events, start=1):
            lines.append(
                f"  {rank}. {label(ev.terminal)}  p={ev.probability:.4f}"
                f"  ({ev.source_count} source chain{'s' if ev.source_count != 1 else ''})"
            )
            for src in ev.sources:
                path = "·".join(f"R{r}" for r in src.rule_path) or "<end>"
                lines.append(f"       w={src.weight:.4f}  rules {path}")
        return "\n".join(lines)
