"""Event model for the PYTHIA oracle.

The paper (§II-A) defines an *event* as "an integer that identifies the key
point and optionally additional informations such as a timestamp, or the
destination of an MPI message".  Runtime systems intern the (key point,
payload) pair once and then submit plain integers on the hot path, which is
what keeps PYTHIA-RECORD cheap.

:class:`EventRegistry` provides that interning service.  Two events with the
same name and payload map to the same terminal id; the registry is saved
inside the trace file so that a later execution resolves the same
(name, payload) pairs to the same terminals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator


@dataclass(frozen=True, slots=True)
class Event:
    """A key point reached by the application.

    Parameters
    ----------
    name:
        Identifier of the key point, e.g. ``"MPI_Send"`` or
        ``"omp_region_begin"``.
    payload:
        Optional extra information that distinguishes otherwise identical
        key points: the destination rank of a point-to-point message, the
        root of a collective, the reduction operation, the function pointer
        of an OpenMP parallel region...  Must be hashable.
    """

    name: str
    payload: Hashable = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.payload is None:
            return self.name
        return f"{self.name}({self.payload})"


class EventRegistry:
    """Bidirectional mapping between :class:`Event` values and terminal ids.

    Terminal ids are dense non-negative integers allocated in first-seen
    order, so a grammar recorded with one registry can be replayed with a
    registry restored from the same trace file.
    """

    __slots__ = ("_by_event", "_by_id")

    def __init__(self) -> None:
        self._by_event: dict[Event, int] = {}
        self._by_id: list[Event] = []

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._by_id)

    def __contains__(self, event: Event) -> bool:
        return event in self._by_event

    def intern(self, event: Event) -> int:
        """Return the terminal id for ``event``, allocating one if needed."""
        eid = self._by_event.get(event)
        if eid is None:
            eid = len(self._by_id)
            self._by_event[event] = eid
            self._by_id.append(event)
        return eid

    def intern_name(self, name: str, payload: Hashable = None) -> int:
        """Shorthand for ``intern(Event(name, payload))``."""
        return self.intern(Event(name, payload))

    def lookup(self, event: Event) -> int | None:
        """Return the id for ``event`` without allocating, or ``None``."""
        return self._by_event.get(event)

    def event(self, eid: int) -> Event:
        """Return the :class:`Event` registered under terminal id ``eid``."""
        return self._by_id[eid]

    def name(self, eid: int) -> str:
        """Human-readable form of terminal id ``eid`` (for reports)."""
        try:
            return str(self._by_id[eid])
        except IndexError:
            return f"?{eid}"

    # -- serialization helpers -------------------------------------------

    def to_obj(self) -> list[list]:
        """Serialize to a JSON-compatible list (payloads must be JSON-able)."""
        out: list[list] = []
        for ev in self._by_id:
            payload = ev.payload
            if isinstance(payload, tuple):
                payload = ["__tuple__", *payload]
            out.append([ev.name, payload])
        return out

    @classmethod
    def from_obj(cls, obj: Iterable[Iterable]) -> "EventRegistry":
        """Inverse of :meth:`to_obj`."""
        reg = cls()
        for name, payload in obj:
            if isinstance(payload, list):
                if payload and payload[0] == "__tuple__":
                    payload = tuple(payload[1:])
                else:
                    payload = tuple(payload)
            reg.intern(Event(name, payload))
        return reg
