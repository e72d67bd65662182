"""Unit tests for the event model and registry."""

from __future__ import annotations

import pytest

from repro.core.events import Event, EventRegistry


class TestEvent:
    def test_equality_by_value(self):
        assert Event("MPI_Send", 3) == Event("MPI_Send", 3)
        assert Event("MPI_Send", 3) != Event("MPI_Send", 4)
        assert Event("MPI_Send") != Event("MPI_Recv")

    def test_hashable(self):
        s = {Event("MPI_Send", 1), Event("MPI_Send", 1), Event("MPI_Recv", 1)}
        assert len(s) == 2

    def test_str(self):
        assert str(Event("MPI_Barrier")) == "MPI_Barrier"
        assert str(Event("MPI_Send", 3)) == "MPI_Send(3)"


class TestEventRegistry:
    def test_intern_is_idempotent(self):
        reg = EventRegistry()
        e1 = reg.intern(Event("MPI_Send", 1))
        e2 = reg.intern(Event("MPI_Send", 1))
        assert e1 == e2
        assert len(reg) == 1

    def test_ids_are_dense_and_ordered(self):
        reg = EventRegistry()
        ids = [reg.intern(Event(f"ev{i}")) for i in range(10)]
        assert ids == list(range(10))

    def test_lookup_does_not_allocate(self):
        reg = EventRegistry()
        assert reg.lookup(Event("missing")) is None
        assert len(reg) == 0

    def test_event_roundtrip(self):
        reg = EventRegistry()
        ev = Event("GOMP_parallel", ("region", 7))
        eid = reg.intern(ev)
        assert reg.event(eid) == ev

    def test_intern_name_shorthand(self):
        reg = EventRegistry()
        assert reg.intern_name("MPI_Bcast", 0) == reg.intern(Event("MPI_Bcast", 0))

    def test_name_of_unknown_id(self):
        reg = EventRegistry()
        assert reg.name(42) == "?42"

    def test_contains(self):
        reg = EventRegistry()
        reg.intern(Event("x"))
        assert Event("x") in reg
        assert Event("y") not in reg

    @pytest.mark.parametrize(
        "payload", [None, 3, "dest", ("a", 1), -7]
    )
    def test_serialization_roundtrip(self, payload):
        reg = EventRegistry()
        reg.intern(Event("MPI_Send", payload))
        reg.intern(Event("MPI_Recv", 0))
        restored = EventRegistry.from_obj(reg.to_obj())
        assert len(restored) == len(reg)
        assert restored.lookup(Event("MPI_Send", payload)) == 0
        assert restored.lookup(Event("MPI_Recv", 0)) == 1

    def test_serialization_preserves_order(self):
        reg = EventRegistry()
        for i in range(20):
            reg.intern(Event("ev", i))
        restored = EventRegistry.from_obj(reg.to_obj())
        for i in range(20):
            assert restored.lookup(Event("ev", i)) == i
