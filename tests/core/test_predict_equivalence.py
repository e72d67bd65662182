"""Compiled vs reference tracker: byte-identical, not approximately equal.

The property the whole successor machine rests on: a tracker running on
the memoized machine (``compiled=True``, the default) and one running
the uncached traversal (``compiled=False``) perform the *same* float
operations, so every observation result, every candidate weight, every
prediction (probability, distribution, eta) and the final ``stats()``
report compare equal with ``==`` — across randomized seeded traces,
mid-stream attach, unexpected events, unknown events and resyncs.
"""

from __future__ import annotations

import random

import pytest

import repro.core.predict as predict_module
from repro.core.predict import PythiaPredict
from repro.core.timing import TimingTable
from repro.obs.flight import FlightRecorder
from tests.conftest import freeze, random_structured_stream

SEEDS = [1, 2, 3, 5, 8, 13, 21, 42]


def _pair(fg, timing=None, **kw):
    return (
        PythiaPredict(fg, timing, compiled=True, **kw),
        PythiaPredict(fg, timing, compiled=False, **kw),
    )


def _assert_locked(compiled, reference):
    assert compiled.candidates == reference.candidates
    # chain weights exactly equal, not merely close
    for chain, w in compiled.candidates.items():
        assert reference.candidates[chain] == w


def _drive(compiled, reference, stream, *, predict_every=7, distances=(1, 3, 16)):
    for i, terminal in enumerate(stream):
        got = compiled.observe(terminal, now=float(i))
        want = reference.observe(terminal, now=float(i))
        assert got == want
        _assert_locked(compiled, reference)
        if i % predict_every == 0:
            for distance in distances:
                assert compiled.predict(distance) == reference.predict(distance)


class TestObservePredictEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_in_sync_from_start(self, seed):
        stream = random_structured_stream(seed)
        fg = freeze(stream)
        compiled, reference = _pair(fg)
        _drive(compiled, reference, stream)
        assert compiled.stats() == reference.stats()

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("offset_frac", [0.25, 0.5, 0.9])
    def test_mid_stream_attach(self, seed, offset_frac):
        stream = random_structured_stream(seed)
        fg = freeze(stream)
        compiled, reference = _pair(fg)
        offset = int(len(stream) * offset_frac)
        _drive(compiled, reference, stream[offset:])
        assert compiled.stats() == reference.stats()

    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_unexpected_and_unknown_events(self, seed):
        stream = list(random_structured_stream(seed, alphabet=4))
        fg = freeze(stream)
        # splice in out-of-order and never-recorded terminals
        stream[len(stream) // 3] = stream[-1]
        stream.insert(len(stream) // 2, 4)  # alphabet=4 -> terminal 4 unknown
        compiled, reference = _pair(fg)
        for i, terminal in enumerate(stream):
            if terminal >= 4:
                assert compiled.observe_unknown(now=float(i)) == reference.observe_unknown(
                    now=float(i)
                )
            else:
                assert compiled.observe(terminal, now=float(i)) == reference.observe(
                    terminal, now=float(i)
                )
            _assert_locked(compiled, reference)
            assert compiled.predict(1) == reference.predict(1)
        assert compiled.stats() == reference.stats()

    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_predict_sequence_and_fused(self, seed):
        stream = random_structured_stream(seed)
        fg = freeze(stream)
        compiled, reference = _pair(fg)
        for i, terminal in enumerate(stream):
            got = compiled.observe_and_predict(terminal, 4, now=float(i))
            want_m = reference.observe(terminal, now=float(i))
            want_p = reference.predict(4)
            assert got == (want_m, want_p)
            if i % 11 == 0:
                assert compiled.predict_sequence(8) == reference.predict_sequence(8)
        assert compiled.stats() == reference.stats()

    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_with_timing_table(self, seed):
        stream = random_structured_stream(seed)
        fg = freeze(stream)
        timing = TimingTable.from_replay(fg, [float(i) * 0.5 for i in range(len(stream))])
        compiled, reference = _pair(fg, timing)
        for i, terminal in enumerate(stream):
            assert compiled.observe(terminal) == reference.observe(terminal)
            pred_c = compiled.predict(2, with_time=True)
            pred_r = reference.predict(2, with_time=True)
            assert pred_c == pred_r
            if pred_c is not None:
                assert pred_c.eta == pred_r.eta  # byte-identical floats
        assert compiled.stats() == reference.stats()

    def test_small_candidate_cap_prunes_identically(self):
        stream = random_structured_stream(3)
        fg = freeze(stream)
        compiled, reference = _pair(fg, max_candidates=3)
        offset = len(stream) // 2
        _drive(compiled, reference, stream[offset:], distances=(1, 2))
        assert compiled.pruned == reference.pruned
        assert compiled.stats() == reference.stats()

    def test_shared_machine_across_trackers_stays_equivalent(self):
        """Two compiled trackers share one warm cache; both stay exact."""
        stream = random_structured_stream(9)
        fg = freeze(stream)
        first, _ = _pair(fg)
        for t in stream:
            first.observe(t)
        # second tracker starts on the already-warm machine
        compiled, reference = _pair(fg)
        assert compiled.machine is first.machine
        _drive(compiled, reference, stream)
        assert compiled.stats() == reference.stats()


class TestExplainEquivalence:
    """explain() must agree with predict() — and with itself — on both
    traversal paths: same events, same probabilities, same floats."""

    @staticmethod
    def _assert_explains_prediction(tracker, distance):
        pred = tracker.predict(distance)
        expl = tracker.explain(distance, top_k=64)
        if pred is None:
            assert expl is None
            return None
        assert expl.terminal == pred.terminal
        assert expl.probability == pred.probability
        assert {e.terminal: e.probability for e in expl.events} == pred.distribution
        return expl

    @pytest.mark.parametrize("seed", SEEDS)
    def test_compiled_and_reference_explanations_identical(self, seed):
        stream = random_structured_stream(seed)
        fg = freeze(stream)
        compiled, reference = _pair(fg)
        for i, terminal in enumerate(stream):
            compiled.observe(terminal)
            reference.observe(terminal)
            if i % 5 == 0:
                for distance in (1, 4):
                    ec = self._assert_explains_prediction(compiled, distance)
                    er = self._assert_explains_prediction(reference, distance)
                    if ec is None:
                        assert er is None
                        continue
                    assert ec.path == "compiled" and er.path == "reference"
                    # identical except the traversal-provenance fields
                    # (path, and deterministic — the single-successor
                    # fast path only exists on the compiled machine)
                    oc, orf = ec.to_obj(), er.to_obj()
                    assert oc.pop("path") == "compiled"
                    assert orf.pop("path") == "reference"
                    oc.pop("deterministic")
                    orf.pop("deterministic")
                    assert oc == orf
        assert compiled.stats() == reference.stats()

    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_explain_never_perturbs_equivalence(self, seed):
        """Interleaving explain() calls on one side only must not change
        a single float of the other comparisons."""
        stream = random_structured_stream(seed)
        fg = freeze(stream)
        compiled, reference = _pair(fg)
        for i, terminal in enumerate(stream):
            assert compiled.observe(terminal) == reference.observe(terminal)
            if i % 3 == 0:
                compiled.explain(2, top_k=2)  # compiled side only
            _assert_locked(compiled, reference)
            assert compiled.predict(1) == reference.predict(1)
        assert compiled.stats() == reference.stats()

    def test_explanations_identical_through_resync(self):
        stream = list(random_structured_stream(5, alphabet=4))
        fg = freeze(stream)
        stream.insert(len(stream) // 2, 4)  # unknown terminal mid-stream
        compiled, reference = _pair(fg)
        for terminal in stream:
            if terminal >= 4:
                compiled.observe_unknown()
                reference.observe_unknown()
            else:
                compiled.observe(terminal)
                reference.observe(terminal)
            ec = self._assert_explains_prediction(compiled, 1)
            er = self._assert_explains_prediction(reference, 1)
            assert (ec is None) == (er is None)
            if ec is not None:
                assert ec.events == er.events


class TestMmapEquivalence:
    """The mmap-artifact load path against the JSON load path.

    The multi-worker daemon serves every prediction from an
    :class:`~repro.core.mmap_grammar.MmapGrammar` mapped out of a
    compiled artifact, so the two load paths must agree to the last
    float: same observations, same candidate weights, same predictions
    and explanations, same ``stats()``.
    """

    @staticmethod
    def _grammars(tmp_path, seed, *, timestamps=False):
        from repro.core.mmap_grammar import ensure_artifact, load_artifact
        from repro.core.trace_file import load_trace
        from tests.core.test_mmap_grammar import write_trace_file

        stream = random_structured_stream(seed)
        path = str(tmp_path / f"trace-{seed}.json")
        write_trace_file(path, stream, timestamps=timestamps)
        artifact, _ = ensure_artifact(path)
        json_tt = load_trace(path).threads[0]
        mmap_tt = load_artifact(artifact).threads[0]
        return stream, json_tt, mmap_tt

    @pytest.mark.parametrize("seed", SEEDS)
    def test_predictions_byte_identical(self, tmp_path, seed):
        stream, json_tt, mmap_tt = self._grammars(tmp_path, seed)
        from_json = PythiaPredict(json_tt.grammar, compiled=True)
        from_mmap = PythiaPredict(mmap_tt.grammar, compiled=True)
        for i, terminal in enumerate(stream):
            assert from_mmap.observe(terminal, now=float(i)) == from_json.observe(
                terminal, now=float(i)
            )
            assert from_mmap.candidates == from_json.candidates
            for distance in (1, 3, 16):
                assert from_mmap.predict(distance) == from_json.predict(distance)
        assert from_mmap.stats() == from_json.stats()

    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_explanations_byte_identical(self, tmp_path, seed):
        stream, json_tt, mmap_tt = self._grammars(tmp_path, seed)
        from_json = PythiaPredict(json_tt.grammar, compiled=True)
        from_mmap = PythiaPredict(mmap_tt.grammar, compiled=True)
        for i, terminal in enumerate(stream):
            from_json.observe(terminal)
            from_mmap.observe(terminal)
            if i % 5 == 0:
                for distance in (1, 4):
                    ej = from_json.explain(distance, top_k=64)
                    em = from_mmap.explain(distance, top_k=64)
                    assert (ej is None) == (em is None)
                    if ej is not None:
                        assert em.to_obj() == ej.to_obj()

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_eta_byte_identical_with_timing(self, tmp_path, seed):
        stream, json_tt, mmap_tt = self._grammars(tmp_path, seed, timestamps=True)
        assert mmap_tt.timing is not None
        from_json = PythiaPredict(json_tt.grammar, json_tt.timing, compiled=True)
        from_mmap = PythiaPredict(mmap_tt.grammar, mmap_tt.timing, compiled=True)
        for terminal in stream:
            assert from_mmap.observe(terminal) == from_json.observe(terminal)
            pj = from_json.predict(2, with_time=True)
            pm = from_mmap.predict(2, with_time=True)
            assert pm == pj
            if pj is not None:
                assert pm.eta == pj.eta
        assert from_mmap.stats() == from_json.stats()

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_mmap_also_matches_reference_traversal(self, tmp_path, seed):
        """Transitivity check run directly: mapped grammar + uncached
        traversal still equals the JSON compiled path."""
        stream, json_tt, mmap_tt = self._grammars(tmp_path, seed)
        from_json = PythiaPredict(json_tt.grammar, compiled=True)
        from_mmap = PythiaPredict(mmap_tt.grammar, compiled=False)
        _drive(from_mmap, from_json, stream)
        assert from_mmap.stats() == from_json.stats()


def _bits(x):
    return None if x is None else float(x).hex()


def _assert_same_prediction(got, want):
    """``==`` (distribution included) plus the probability and eta bits."""
    assert got == want
    if got is not None:
        assert _bits(got.probability) == _bits(want.probability)
        assert _bits(got.eta) == _bits(want.eta)


def _memo_items(tracker):
    return sum(len(items) for items, _distance, _timed in tracker._sim_memo)


class TestPredictionMemo:
    """The compiled tracker answers a repeated non-deterministic state
    from its per-tracker memo; the reference tracker simulates every
    query.  Repeated queries must stay byte-identical, counted and
    scored, and the memo must stay inside its item budget."""

    @staticmethod
    def _scenario(name, seed):
        """(compiled, reference, events, with_time); ``None`` events are unknown."""
        stream = random_structured_stream(seed, alphabet=4 if name == "noise" else 5)
        fg = freeze(stream)
        kw = {}
        timing = None
        events = list(stream)
        if name == "attach":
            events = events[len(events) // 2 :]
        elif name == "noise":
            # out-of-order terminals, a terminal the grammar never saw
            # and events absent from the registry (observe_unknown),
            # spliced into the reference stream
            rng = random.Random(seed)
            for _ in range(max(2, len(events) // 25)):
                events.insert(rng.randrange(len(events)), rng.randrange(4))
            events.insert(len(events) // 3, 4)
            for _ in range(3):
                events.insert(rng.randrange(len(events)), None)
        elif name == "cap2":
            kw["max_candidates"] = 2
            events = events[len(events) // 3 :]
        elif name == "timed":
            timing = TimingTable.from_replay(fg, [float(i) * 0.5 for i in range(len(stream))])
            events = events[len(events) // 4 :]
        compiled, reference = _pair(fg, timing, **kw)
        return compiled, reference, events, name == "timed"

    @pytest.mark.parametrize("seed", SEEDS[:4])
    @pytest.mark.parametrize("name", ["attach", "noise", "cap2", "timed"])
    def test_repeated_queries_are_byte_identical(self, name, seed):
        compiled, reference, events, with_time = self._scenario(name, seed)
        compiled.attach_flight(FlightRecorder())
        nondet = 0
        for i, terminal in enumerate(events):
            now = float(i)
            if terminal is None:
                got = compiled.observe_unknown(now=now)
                assert got == reference.observe_unknown(now=now)
            else:
                got = compiled.observe(terminal, now=now)
                assert got == reference.observe(terminal, now=now)
            if i % 3:
                continue
            for distance in (1, 16):
                for _ in range(3):  # the same question three times in a row
                    pred = compiled.predict(distance, with_time=with_time)
                    _assert_same_prediction(
                        pred, reference.predict(distance, with_time=with_time)
                    )
                    if pred is None:
                        assert compiled.explain(distance, with_time=with_time) is None
                        continue
                    assert compiled.flight.last_pred is pred
                    assert compiled.flight.last_distance == distance
                    if pred is not compiled._det_pred.get(pred.terminal):
                        nondet += 1  # answered by the memo or a simulation
                    expl = compiled.explain(distance, with_time=with_time)
                    assert expl.events[0].terminal == pred.terminal
                    assert _bits(expl.events[0].probability) == _bits(pred.probability)
                    assert _bits(expl.eta) == _bits(pred.eta)
        assert compiled.predictions == reference.predictions
        assert compiled.stats() == reference.stats()
        # the memo was hit: far fewer stored states than queries reaching it
        assert 0 < len(compiled._sim_memo) < nondet
        assert compiled._sim_memo_items == _memo_items(compiled)
        assert reference._sim_memo is None

    def test_memo_key_keeps_candidate_order(self):
        """The same candidates in another order are another state: the
        order fixes the float sums and max()'s tie-break."""
        fg = freeze([0, 1, 2, 0, 3])
        compiled, reference = _pair(fg)
        for tracker in (compiled, reference):
            tracker.observe(0)  # attach: two equally weighted occurrences
        assert len(compiled.candidates) == 2
        first = compiled.predict(1)
        assert first.probability == 0.5
        for tracker in (compiled, reference):
            tracker.candidates = dict(reversed(tracker.candidates.items()))
        flipped = compiled.predict(1)
        _assert_same_prediction(flipped, reference.predict(1))
        assert flipped.terminal != first.terminal
        assert len(compiled._sim_memo) == 2

    def test_memo_stays_inside_its_budget(self, monkeypatch):
        budget = 6
        monkeypatch.setattr(predict_module, "_SIM_MEMO_ITEMS", budget)
        stream = [t for k in range(4) for t in random_structured_stream(60 + k, alphabet=6)]
        fg = freeze(stream)
        compiled, reference = _pair(fg)
        rng = random.Random(6)
        alphabet = sorted(set(stream))
        # restart-heavy: every third event is out of order
        events = [rng.choice(alphabet) if i % 3 == 0 else t for i, t in enumerate(stream)]
        states = set()
        for terminal in events:
            assert compiled.observe(terminal) == reference.observe(terminal)
            for distance in (1, 2, 5):
                key = (tuple(compiled.candidates.items()), distance)
                for _ in range(2):
                    pred = compiled.predict(distance)
                    _assert_same_prediction(pred, reference.predict(distance))
                    assert _memo_items(compiled) == compiled._sim_memo_items <= budget
                if pred is not None and pred is not compiled._det_pred.get(pred.terminal):
                    states.add(key)
        assert compiled.stats() == reference.stats()
        # many times more distinct states went through than the budget
        # holds, and some were larger than the whole budget
        assert sum(len(items) for items, _d in states) > 10 * budget
        assert max(len(items) for items, _d in states) > budget
        assert len(compiled._sim_memo) < len(states)
