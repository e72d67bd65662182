"""The compiled successor machine: memoization, determinism, bounds."""

from __future__ import annotations

import pytest

from repro.core.progress import (
    END,
    descend,
    initial_chain,
    start_chains,
    successors,
    terminal_of,
)
from repro.core.successor import DEFAULT_MAX_ENTRIES, SuccessorMachine
from tests.conftest import freeze, random_structured_stream


def _scaled(machine, chain, weight=1.0):
    """The expansion scaled to ``weight`` as the tracker scales it."""
    return [(c, rw if weight == 1.0 else rw * weight) for c, rw, _t in machine.expand(chain)]


def _walk_chains(fg, limit=200):
    """Every chain reachable from the initial chain (BFS, bounded)."""
    seen = []
    frontier = [initial_chain(fg)]
    visited = set()
    while frontier and len(seen) < limit:
        chain = frontier.pop(0)
        if chain in visited or chain is END or not chain:
            continue
        visited.add(chain)
        seen.append(chain)
        for succ, _w in successors(fg, chain):
            if succ not in visited:
                frontier.append(succ)
    return seen


class TestMemoization:
    def test_expand_matches_reference(self, fig1_frozen):
        machine = SuccessorMachine(fig1_frozen)
        for chain in _walk_chains(fig1_frozen):
            ref = successors(fig1_frozen, chain)
            got = _scaled(machine, chain)
            assert got == ref  # exact floats, not approx

    def test_repeat_lookup_hits_and_is_interned(self, fig1_frozen):
        machine = SuccessorMachine(fig1_frozen)
        chain = initial_chain(fig1_frozen)
        first = machine.expand(chain)
        hits0 = machine.hits
        second = machine.expand(chain)
        assert second is first  # same cached tuple, not a recomputation
        assert machine.hits == hits0 + 1
        # an equal-but-distinct key also hits (and returns interned chains)
        clone = tuple(tuple(step) for step in chain)
        assert clone is not chain and clone == chain
        assert machine.expand(clone) is first

    def test_successor_chains_interned_across_entries(self, fig1_frozen):
        machine = SuccessorMachine(fig1_frozen)
        chain = initial_chain(fig1_frozen)
        (succ, _w, _t) = machine.expand(chain)[0]
        # expanding the successor interns it as a key: same tuple object
        machine.expand(succ)
        (again, _w2, _t2) = machine.expand(chain)[0]
        assert again is succ

    def test_terminals_precomputed(self, fig1_frozen):
        machine = SuccessorMachine(fig1_frozen)
        for chain in _walk_chains(fig1_frozen):
            for succ, _w, term in machine.expand(chain):
                if succ is END or not succ:
                    assert term is None
                else:
                    assert term == terminal_of(fig1_frozen, succ)

    def test_weight_scaling_identical_to_reference(self, fig1_frozen):
        machine = SuccessorMachine(fig1_frozen)
        chain = initial_chain(fig1_frozen)
        for weight in (1.0, 0.5, 1.0 / 3.0, 0.7071067811865476):
            assert _scaled(machine, chain, weight) == successors(fig1_frozen, chain, weight)


class TestDeterministicTable:
    def test_unique_successor_becomes_det_entry(self, fig1_frozen):
        machine = SuccessorMachine(fig1_frozen)
        chain = initial_chain(fig1_frozen)
        assert machine.deterministic_next(chain) is None  # not expanded yet
        rel = machine.expand(chain)
        det = machine.deterministic_next(chain)
        if len(rel) == 1 and rel[0][2] is not None:
            assert det == (rel[0][0], rel[0][2])
            assert machine.det_hits == 1
        else:
            assert det is None

    def test_branching_chain_has_no_det_entry(self):
        fg = freeze([0, 1, 0, 1, 0, 1])  # ababab -> loop with exponent
        machine = SuccessorMachine(fg)
        # a start chain with unknown iteration branches (stay vs leave)
        for terminal in fg.terminals():
            for chain, _w in machine.start_chains(terminal):
                rel = machine.expand(chain)
                if len(rel) > 1:
                    assert machine.deterministic_next(chain) is None
                    return
        raise AssertionError("ababab must produce a branching chain")


class TestBoundedMemory:
    def test_eviction_keeps_cache_under_cap(self):
        fg = freeze(random_structured_stream(7, max_len=300))
        machine = SuccessorMachine(fg, max_entries=8)
        for chain in _walk_chains(fg, limit=100):
            machine.expand(chain)
            assert len(machine._memo) <= 8
        assert machine.evictions > 0
        # evicted chains still answer correctly (recomputed on miss)
        for chain in _walk_chains(fg, limit=100):
            assert _scaled(machine, chain) == successors(fg, chain)

    def test_det_table_follows_memo_eviction(self):
        fg = freeze(random_structured_stream(11, max_len=300))
        machine = SuccessorMachine(fg, max_entries=4)
        for chain in _walk_chains(fg, limit=60):
            machine.expand(chain)
        assert set(machine._det) <= set(machine._memo)

    def test_env_var_and_validation(self, monkeypatch):
        fg = freeze([0, 1, 2])
        monkeypatch.setenv("PYTHIA_SUCCESSOR_CACHE", "123")
        assert SuccessorMachine(fg).max_entries == 123
        monkeypatch.setenv("PYTHIA_SUCCESSOR_CACHE", "garbage")
        assert SuccessorMachine(fg).max_entries == DEFAULT_MAX_ENTRIES
        with pytest.raises(ValueError):
            SuccessorMachine(fg, max_entries=0)


class TestAuxiliaryCaches:
    def test_start_chains_cached_and_equal(self, fig1_frozen):
        machine = SuccessorMachine(fig1_frozen)
        for terminal in fig1_frozen.terminals():
            got = machine.start_chains(terminal)
            assert list(got) == start_chains(fig1_frozen, terminal)
            assert machine.start_chains(terminal) is got

    def test_descend_matches_reference(self, fig1_frozen):
        machine = SuccessorMachine(fig1_frozen)
        for rid, body in fig1_frozen.bodies.items():
            for idx in range(len(body)):
                assert machine.descend(rid, idx) == descend(fig1_frozen, rid, idx)
                assert machine.descend(rid, idx, 2) == descend(fig1_frozen, rid, idx, 2)

    def test_shared_machine_per_grammar(self, fig1_frozen):
        assert fig1_frozen.machine() is fig1_frozen.machine()


class TestStats:
    def test_stats_counters(self, fig1_frozen):
        machine = SuccessorMachine(fig1_frozen)
        chain = initial_chain(fig1_frozen)
        machine.expand(chain)
        machine.expand(chain)
        s = machine.stats()
        assert s["misses"] == 1
        assert s["hits"] == 1
        assert s["entries"] == 1
        assert s["hit_rate"] == 0.5

    def test_flush_metrics_publishes_deltas(self, fig1_frozen):
        from repro.obs import metrics as obs_metrics

        reg = obs_metrics.MetricsRegistry()
        old = obs_metrics.get_registry()
        obs_metrics.set_registry(reg)
        try:
            machine = SuccessorMachine(fig1_frozen)
            chain = initial_chain(fig1_frozen)
            machine.expand(chain)
            machine.expand(chain)
            machine.flush_metrics()
            machine.flush_metrics()  # second flush: no double counting
            text = obs_metrics.render_prometheus(reg)
            assert "pythia_successor_cache_hits_total 1" in text
            assert "pythia_successor_cache_misses_total 1" in text
            assert "pythia_successor_cache_entries 1" in text
        finally:
            obs_metrics.set_registry(old)
