"""Generated streams through every in-process prediction path.

Three trackers follow the same generated call sequence:

- ``compiled`` — the default tracker over the JSON-loaded grammar
  (shared successor machine, prediction memo);
- ``reference`` — ``compiled=False`` over the same grammar (uncached
  traversal, no memo);
- ``mapped`` — the default tracker over the grammar mapped from the
  trace's compiled ``.pygx`` artifact (:class:`MmapGrammar`), as every
  oracle daemon runs it.

The streams come from the strategies of ``test_tracking_properties.py``
(random event lists and loop-structured streams), with out-of-order and
never-recorded events injected.  ``observe``, ``predict`` at distances
1..20 with and without time, and the fused ``observe_and_predict`` with
and without ``require_match`` are interleaved.  Every answer must be
identical on the three paths — matched flags, predicted terminal,
distribution and the bits of probability and eta — and so must
``stats()`` at the end.
"""

from __future__ import annotations

import os
import tempfile

from hypothesis import given, settings, strategies as st

from repro.core.mmap_grammar import MmapGrammar, ensure_artifact, load_artifact
from repro.core.predict import PythiaPredict
from repro.core.trace_file import load_trace
from tests.conftest import random_structured_stream
from tests.core.test_mmap_grammar import write_trace_file
from tests.core.test_tracking_properties import events

#: 1 and 16 are the distances the MPI shim asks at every synchronisation
distances = st.one_of(st.sampled_from([1, 16]), st.integers(min_value=1, max_value=20))

streams = st.one_of(
    st.lists(events, min_size=2, max_size=80),
    st.integers(min_value=0, max_value=5_000).map(
        lambda seed: random_structured_stream(seed, max_len=150)
    ),
)

#: calls made between two events of the stream
interjections = st.one_of(
    st.tuples(st.just("predict"), distances, st.booleans()),
    st.tuples(st.just("out_of_order"), events),
    st.tuples(st.just("never_recorded")),
)


@st.composite
def scripts(draw):
    """A stream and the call sequence that replays it."""
    stream = draw(streams)
    script = []
    for terminal in stream:
        for op in draw(st.lists(interjections, max_size=2)):
            # a question asked again before the next event is what the
            # compiled tracker answers from its memo
            script.extend([op] * (draw(st.integers(1, 3)) if op[0] == "predict" else 1))
        if draw(st.booleans()):
            script.append(("observe", terminal))
        else:
            script.append(
                ("fused", terminal, draw(distances), draw(st.booleans()), draw(st.booleans()))
            )
    return stream, script


def _answer(result):
    """A call's result with every float as its exact bits."""
    if isinstance(result, tuple):  # observe_and_predict
        return (result[0], _answer(result[1]))
    if result is None or isinstance(result, bool):
        return result
    return (
        result.terminal,
        float(result.probability).hex(),
        None if result.eta is None else float(result.eta).hex(),
        [(t, float(w).hex()) for t, w in result.distribution.items()],
    )


def _call(tracker, op, now):
    kind = op[0]
    if kind in ("observe", "out_of_order"):
        return tracker.observe(op[1], now=now)
    if kind == "never_recorded":
        return tracker.observe_unknown(now=now)
    if kind == "predict":
        return tracker.predict(op[1], with_time=op[2])
    _kind, terminal, distance, with_time, require_match = op
    return tracker.observe_and_predict(
        terminal, distance, with_time=with_time, now=now, require_match=require_match
    )


@given(scripts())
@settings(max_examples=40, deadline=None)
def test_compiled_reference_and_mapped_paths_answer_alike(case):
    stream, script = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.json")
        write_trace_file(path, stream, timestamps=True)
        loaded = load_trace(path).threads[0]
        artifact, _compiled_now = ensure_artifact(path)
        mapped_tt = load_artifact(artifact).threads[0]
        assert isinstance(mapped_tt.grammar, MmapGrammar)
        assert loaded.timing is not None and mapped_tt.timing is not None
        trackers = {
            "compiled": PythiaPredict(loaded.grammar, loaded.timing),
            "reference": PythiaPredict(loaded.grammar, loaded.timing, compiled=False),
            "mapped": PythiaPredict(mapped_tt.grammar, mapped_tt.timing),
        }
        answers = {name: [] for name in trackers}
        for i, op in enumerate(script):
            for name, tracker in trackers.items():
                answers[name].append(_answer(_call(tracker, op, float(i))))
        assert answers["compiled"] == answers["reference"]
        assert answers["mapped"] == answers["reference"]
        stats = {name: tracker.stats() for name, tracker in trackers.items()}
        assert stats["compiled"] == stats["reference"]
        assert stats["mapped"] == stats["reference"]
