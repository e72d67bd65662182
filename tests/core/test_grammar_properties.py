"""Property-based tests (hypothesis) for the grammar engine.

The load-bearing properties of §II-A:

1. the grammar is lossless — unfolding recovers exactly the appended
   sequence, for *any* sequence;
2. the three paper invariants hold after every append;
3. recording a repeated loop iteration as an exponent bump changes
   nothing: the grammar, its rule ids and its counters are those the
   repair loop alone builds (``tests/core/reference_grammar.py``, the
   recorder before that shortcut), after the whole stream and after a
   read in the middle of it.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.frozen import FrozenGrammar
from repro.core.grammar import Grammar
from repro.core.symbols import Rule
from tests.conftest import random_structured_stream
from tests.core.reference_grammar import Grammar as RepairLoopGrammar

events = st.integers(min_value=0, max_value=6)
sequences = st.lists(events, min_size=0, max_size=200)
#: ``(body * reps) * outer``: the loop-structured HPC case
looped_streams = st.builds(
    lambda body, reps, outer: (body * reps) * outer,
    st.lists(events, min_size=1, max_size=8),
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=1, max_value=4),
)
#: loops of loops (nested rules), runs of one event (exponents), capped
nested_streams = st.recursive(
    st.lists(events, min_size=1, max_size=4),
    lambda inner: st.builds(
        lambda parts, reps: [e for part in parts for e in part] * reps,
        st.lists(inner, min_size=1, max_size=3),
        st.integers(min_value=1, max_value=5),
    ),
    max_leaves=8,
).map(lambda seq: seq[:400])
#: prologue, looped body and epilogue, repeated (conftest's generator)
structured_streams = st.integers(min_value=0, max_value=10_000).map(random_structured_stream)


@st.composite
def word_streams(draw) -> list[int]:
    """A few words over a 2-4 symbol alphabet, each use repeated, some
    truncated, some with one symbol substituted: loops that break off."""
    symbol = st.integers(min_value=0, max_value=draw(st.integers(min_value=1, max_value=3)))
    words = draw(st.lists(st.lists(symbol, min_size=1, max_size=6), min_size=1, max_size=3))
    out: list[int] = []
    for _ in range(draw(st.integers(min_value=1, max_value=30))):
        word = list(draw(st.sampled_from(words)))
        edit = draw(st.sampled_from(("whole", "whole", "truncate", "substitute")))
        if edit == "truncate":
            word = word[: draw(st.integers(min_value=0, max_value=len(word) - 1))]
        elif edit == "substitute":
            word[draw(st.integers(min_value=0, max_value=len(word) - 1))] = draw(symbol)
        out += word * draw(st.integers(min_value=1, max_value=4))
    return out


def grammar_state(g) -> tuple:
    """Every rule by id with its usage and body, the counters and the length."""
    rules = {
        rid: (rule.usage, [(sym.rid if isinstance(sym, Rule) else -1 - sym, exp)
                           for sym, exp in rule.body()])
        for rid, rule in g.rules.items()
    }
    return rules, g.rules_created, g.exponent_merges, len(g)


@given(sequences)
@settings(max_examples=200, deadline=None)
def test_unfold_roundtrip(seq):
    g = Grammar()
    g.extend(seq)
    assert g.unfold() == seq


@given(st.lists(events, min_size=0, max_size=60))
@settings(max_examples=100, deadline=None)
def test_invariants_after_every_append(seq):
    g = Grammar()
    for t in seq:
        g.append(t)
        g.check_invariants()


@given(looped_streams)
@settings(max_examples=100, deadline=None)
def test_looped_streams(seq):
    """Loop-structured streams (the HPC case) stay lossless and legal."""
    g = Grammar()
    g.extend(seq)
    g.check_invariants()
    assert g.unfold() == seq


@given(nested_streams)
@settings(max_examples=100, deadline=None)
def test_nested_loop_streams(seq):
    """Loops of loops (rules inside rules, with exponents) stay lossless and legal."""
    g = Grammar()
    g.extend(seq)
    g.check_invariants()
    assert g.unfold() == seq


@given(st.lists(events, min_size=1, max_size=8), st.integers(min_value=2, max_value=50))
@settings(max_examples=60, deadline=None)
def test_loop_compresses(body, reps):
    """A repeated body must compress: rules stay tiny vs. the trace."""
    seq = body * reps
    g = Grammar()
    g.extend(seq)
    # the grammar never stores more symbol uses than a small multiple of
    # the distinct structure; certainly far fewer than the trace length
    total_uses = sum(len(rule) for rule in g.rules.values())
    assert total_uses <= len(set(body)) * 8 + len(body) * 4


@given(structured_streams)
@settings(max_examples=60, deadline=None)
def test_structured_random_streams(seq):
    g = Grammar()
    g.extend(seq)
    g.check_invariants()
    assert g.unfold() == seq


@given(sequences)
@settings(max_examples=100, deadline=None)
def test_freeze_preserves_sequence(seq):
    g = Grammar()
    g.extend(seq)
    fg = FrozenGrammar.from_grammar(g)
    assert fg.unfold() == seq
    assert fg.trace_len == len(seq)


@given(sequences)
@settings(max_examples=100, deadline=None)
def test_frozen_occurrence_counts_match_bruteforce(seq):
    g = Grammar()
    g.extend(seq)
    fg = FrozenGrammar.from_grammar(g)
    unfolded = fg.unfold()
    # every terminal position's occurrence count must match a brute count
    for terminal, positions in fg.terminal_positions.items():
        total = sum(fg.position_occurrences(rid, idx) for rid, idx in positions)
        assert total == unfolded.count(terminal)


STREAMS = {
    "sequences": sequences,
    "looped": looped_streams,
    "nested": nested_streams,
    "structured": structured_streams,
    "words": word_streams(),
}


@pytest.mark.parametrize("kind", sorted(STREAMS))
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_matches_the_repair_loop_alone(kind, data):
    """Repeated iterations recorded as exponent bumps leave the grammar,
    rule ids, ``rules_created``, ``exponent_merges`` and ``len`` exactly
    as the repair loop alone leaves them, also when the grammar is read
    mid-stream (a read replays a deferred partial iteration)."""
    seq = data.draw(STREAMS[kind])
    cut = data.draw(st.integers(min_value=0, max_value=len(seq)))
    g, ref = Grammar(), RepairLoopGrammar()
    for t in seq[:cut]:
        g.append(t)
        ref.append(t)
    assert grammar_state(g) == grammar_state(ref)
    for t in seq[cut:]:
        g.append(t)
        ref.append(t)
    assert grammar_state(g) == grammar_state(ref)
    g.check_invariants()
