"""The successor machine against the reference traversal, on generated grammars.

For every chain reachable from the initial chain and from each start
chain (complete and partial chains, known and unknown iterations),
:meth:`SuccessorMachine.deterministic_next` and
:meth:`SuccessorMachine.expand` must give exactly what
:func:`~repro.core.progress.successors_rel` derives — same chains, same
weight bits, same terminals — on a cold machine, again once it is warm,
and on a machine whose memo holds 4 entries, so eviction interleaves
with the steps computed from the per-position table.  After every call
the memo keeps its bound and the deterministic table only holds memo
keys; a step that stays in the bottom rule's body is stored nowhere.
One strategy runs on a grammar mapped from a compiled artifact, whose
bodies are lazily decoded views.
"""

from __future__ import annotations

import os
import tempfile

from hypothesis import given, settings, strategies as st

from repro.core.mmap_grammar import MmapGrammar, ensure_artifact, load_artifact
from repro.core.progress import END, successors_rel, terminal_of
from repro.core.successor import DEFAULT_MAX_ENTRIES, SuccessorMachine
from repro.core.trace_file import load_trace
from tests.conftest import freeze, random_structured_stream
from tests.core.test_mmap_grammar import write_trace_file
from tests.core.test_successor import _reachable
from tests.core.test_tracking_properties import events

streams = st.one_of(
    st.lists(events, min_size=2, max_size=80),
    st.integers(min_value=0, max_value=5_000).map(
        lambda seed: random_structured_stream(seed, max_len=250)
    ),
)


def _bits(expansion):
    """An expansion with every weight as its exact bits."""
    return tuple((succ, float(w).hex(), term) for succ, w, term in expansion)


def _expected(fg, chain):
    """``(expand, deterministic_next)`` as the reference traversal has them."""
    rel = tuple(
        (succ, w, None if succ is END or not succ else terminal_of(fg, succ))
        for succ, w in successors_rel(fg, chain)
    )
    det = None
    if len(rel) == 1 and rel[0][1] == 1.0 and rel[0][2] is not None:
        det = (rel[0][0], rel[0][2])
    return _bits(rel), det


def _stays_in_body(fg, chain):
    """True when the chain's step is an exponent bump or an in-body advance."""
    rid, idx, it = chain[0]
    exp = fg.bodies[rid][idx][1]
    if it is None:
        return exp == 1 and idx + 1 < len(fg.bodies[rid])
    return it + 1 < exp or idx + 1 < len(fg.bodies[rid])


def _check_bounds(machine):
    assert len(machine._memo) <= machine.max_entries
    assert machine._det.keys() <= machine._memo.keys()


def _step(machine, fg, chain, expected, det_first):
    """Ask both lookups in the given order; check answers and bookkeeping."""
    want_rel, want_det = expected
    in_body = _stays_in_body(fg, chain)
    for ask_det in (det_first, not det_first):
        stored, misses = chain in machine._memo, machine.misses
        if ask_det:
            assert machine.deterministic_next(chain) == want_det
        else:
            assert _bits(machine.expand(chain)) == want_rel
        if ask_det and in_body:
            # computed from the position table, stored nowhere
            assert (chain in machine._memo) == stored
            assert machine.misses == misses
        else:
            assert chain in machine._memo
            assert machine.misses == misses + (not stored)
        # the deterministic table holds the stored steps that leave the body
        assert machine._det.get(chain) == (None if in_body else want_det)
        _check_bounds(machine)


def _agree(machine_grammar, fg):
    """``machine_grammar``'s machines answer every reachable chain of
    ``fg`` (the same tables) as the reference traversal over ``fg``."""
    chains = _reachable(fg)
    expected = [_expected(fg, chain) for chain in chains]
    # a capacity set here, not by PYTHIA_SUCCESSOR_CACHE: the warm pass
    # must find every chain the cold pass stored
    machine = SuccessorMachine(machine_grammar, max_entries=DEFAULT_MAX_ENTRIES)
    for k, (chain, want) in enumerate(zip(chains, expected)):
        _step(machine, fg, chain, want, det_first=k % 2 == 0)
    assert machine.misses <= len(set(chains))
    misses = machine.misses
    for chain, want in zip(chains, expected):  # warm: nothing is computed again
        _step(machine, fg, chain, want, det_first=True)
    assert machine.misses == misses
    small = SuccessorMachine(machine_grammar, max_entries=4)
    for _ in range(2):
        for k, (chain, want) in enumerate(zip(chains, expected)):
            _step(small, fg, chain, want, det_first=k % 2 == 1)


@given(streams)
@settings(max_examples=60, deadline=None)
def test_machine_matches_reference_traversal(stream):
    fg = freeze(stream)
    _agree(fg, fg)


@given(st.integers(min_value=0, max_value=5_000))
@settings(max_examples=20, deadline=None)
def test_mapped_grammar_machine_matches_reference_traversal(seed):
    stream = random_structured_stream(seed, max_len=250)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.json")
        write_trace_file(path, stream)
        fg = load_trace(path).threads[0].grammar
        artifact, _compiled_now = ensure_artifact(path)
        mapped = load_artifact(artifact).threads[0].grammar
        assert isinstance(mapped, MmapGrammar)
        _agree(mapped, fg)
