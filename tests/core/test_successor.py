"""The compiled successor machine: memoization, determinism, bounds."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core.predict import PythiaPredict
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

#: grammars with exponents: terminal runs, a loop body, nested loops, a
#: unique prologue and structured random streams
LOOP_STREAMS = [
    [0] * 10 + [1],
    [9] + [0, 1, 2, 3] * 50,
    ([0, 1] * 3 + [2]) * 4,
    [4] + ([0] * 3 + [1, 2] * 5) * 6 + [3],
    *(random_structured_stream(seed) for seed in (3, 8, 21, 42)),
]


def _scaled(machine, chain, weight=1.0):
    """The expansion scaled to ``weight`` as the tracker scales it."""
    return [(c, rw if weight == 1.0 else rw * weight) for c, rw, _t in machine.expand(chain)]


def _walk_chains(fg, limit=200, starts=None):
    """Every chain reachable from ``starts`` (default: the initial chain),
    breadth first, at most ``limit`` of them."""
    seen = []
    frontier = [initial_chain(fg)] if starts is None else list(starts)
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


def _reachable(fg, limit=200):
    """Chains from the initial chain and from every mid-stream start
    chain: complete and partial chains, known and unknown iterations."""
    chains = _walk_chains(fg, limit)
    for terminal in sorted(fg.terminals()):
        starts = [c for c, _w in start_chains(fg, terminal)]
        chains += _walk_chains(fg, limit, starts)
    return chains


class TestMemoization:
    def test_expand_matches_reference(self, fig1_frozen):
        machine = SuccessorMachine(fig1_frozen)
        for chain in _walk_chains(fig1_frozen):
            ref = successors(fig1_frozen, chain)
            got = _scaled(machine, chain)
            assert got == ref  # exact floats, not approx

    @pytest.mark.parametrize("stream", LOOP_STREAMS, ids=range(len(LOOP_STREAMS)))
    def test_expand_matches_reference_with_exponents(self, stream):
        """Exponent bumps, in-body advances, body ends and partial
        chains: cold (every chain a miss) and warm (every chain a hit)."""
        fg = freeze(stream)
        chains = _reachable(fg)
        machine = SuccessorMachine(fg)
        for chain in chains:
            assert _scaled(machine, chain) == successors(fg, chain)
        assert machine.misses == len(set(chains))
        hits = machine.hits
        for chain in chains:
            assert _scaled(machine, chain) == successors(fg, chain)
        assert machine.hits == hits + len(chains)
        assert machine.misses == len(set(chains))

    @pytest.mark.parametrize("stream", LOOP_STREAMS, ids=range(len(LOOP_STREAMS)))
    def test_deterministic_next_matches_reference(self, stream):
        """A cold machine answers every chain's step, deterministic or
        not, as the reference traversal does."""
        fg = freeze(stream)
        machine = SuccessorMachine(fg)
        for chain in _reachable(fg):
            ref = successors(fg, chain)
            if len(ref) == 1 and ref[0][1] == 1.0 and ref[0][0]:
                expected = (ref[0][0], terminal_of(fg, ref[0][0]))
            else:
                expected = None
            assert machine.deterministic_next(chain) == expected

    def test_repeat_lookup_hits_and_is_shared(self, fig1_frozen):
        machine = SuccessorMachine(fig1_frozen)
        chain = initial_chain(fig1_frozen)
        first = machine.expand(chain)
        hits0 = machine.hits
        second = machine.expand(chain)
        assert second is first  # same cached tuple, not a recomputation
        assert machine.hits == hits0 + 1
        # an equal-but-distinct key also hits (and returns the cached tuple)
        clone = tuple(tuple(step) for step in chain)
        assert clone is not chain and clone == chain
        assert machine.expand(clone) is first

    def test_successor_chains_shared_across_entries(self, fig1_frozen):
        machine = SuccessorMachine(fig1_frozen)
        chain = initial_chain(fig1_frozen)
        (succ, _w, _t) = machine.expand(chain)[0]
        # expanding the successor keys it as given: same tuple object
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
    def test_unique_successor_becomes_det_entry(self):
        """A step that leaves the bottom rule's body is stored once; an
        in-body step is computed on every call and stored nowhere."""
        fg = freeze([9] + [0, 1, 2, 3] * 50)
        in_body = climb = None
        for chain in _walk_chains(fg):
            if chain[0][1] + 1 < fg.body_len(chain[0][0]):
                in_body = in_body or chain
            elif len(chain) > 1 and len(successors(fg, chain)) == 1:
                climb = climb or chain
        assert in_body is not None and climb is not None
        machine = SuccessorMachine(fg)
        for chain in (in_body, climb):
            ((succ, rw, term),) = SuccessorMachine(fg).expand(chain)
            assert rw == 1.0
            # the first call computes, the second one does not miss again
            assert machine.deterministic_next(chain) == (succ, term)
            assert machine.deterministic_next(chain) == (succ, term)
        # in-body: two table steps; the climb: one miss, then one table hit
        assert machine.misses == 1
        assert machine.det_hits == 3
        assert list(machine._memo) == [climb]
        assert list(machine._det) == [climb]
        # expand() still stores the in-body chain, outside the det table
        machine.expand(in_body)
        assert set(machine._memo) == {in_body, climb}
        assert list(machine._det) == [climb]

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


class TestColdWalk:
    def test_cold_loop_walk_never_simulates(self, monkeypatch):
        """An in-sync tracker over new loop iterations answers on the
        deterministic walk alone, as compiled=False answers."""
        stream = [9] + [0, 1, 2, 3] * 50
        fg = freeze(stream)
        compiled = PythiaPredict(fg)
        reference = PythiaPredict(fg, compiled=False)

        def no_simulation(*_args, **_kwargs):
            raise AssertionError("the deterministic walk fell back to _simulate")

        monkeypatch.setattr(compiled, "_simulate", no_simulation)
        for terminal in stream[:40]:
            assert compiled.observe(terminal) == reference.observe(terminal)
            # the first event is unique: one complete chain, known iterations
            assert len(compiled.candidates) == 1
            assert compiled.predict(16) == reference.predict(16)
            assert compiled.predict(1) == reference.predict(1)
        assert compiled.stats() == reference.stats()
        assert fg.machine().misses > 0


class TestSharedMachine:
    def test_threads_missing_on_one_machine_agree_with_reference(self):
        """Threads (more than cores) expand the same cold chains on one
        small machine, so misses race each other and eviction: every
        expansion stays exact, a deterministic step is never wrong, and
        the table keeps its bound and ``set(_det) <= set(_memo)``."""
        fg = freeze([9] + [0, 1, 2, 3] * 50 + [4] + ([0] * 3 + [1, 2] * 5) * 6)
        chains = _reachable(fg)
        expected = {c: successors(fg, c) for c in chains}
        det_expected = {
            c: (ref[0][0], terminal_of(fg, ref[0][0]))
            if len(ref) == 1 and ref[0][1] == 1.0 and ref[0][0] else None
            for c, ref in expected.items()
        }
        machine = SuccessorMachine(fg, max_entries=32)
        errors: list[str] = []

        def worker(offset: int) -> None:
            order = chains[offset:] + chains[:offset]
            try:
                for _ in range(3):
                    for chain in order:
                        det = machine.deterministic_next(chain)
                        if det is not None and det != det_expected[chain]:
                            errors.append(f"wrong step for {chain!r}")
                        if _scaled(machine, chain) != expected[chain]:
                            errors.append(f"wrong expansion for {chain!r}")
            except Exception as exc:  # a crashed worker must fail the test
                errors.append(repr(exc))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(7 * i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert machine.evictions > 0
        assert len(machine._memo) <= machine.max_entries
        assert set(machine._det) <= set(machine._memo)
        for chain in chains:
            assert machine.deterministic_next(chain) == det_expected[chain]


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
