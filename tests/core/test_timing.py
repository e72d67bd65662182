"""Unit tests for duration estimation (§II-C, Fig 6)."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.predict import PythiaPredict
from repro.core.progress import advance_exact, initial_chain, suffix_key
from repro.core.record import PythiaRecord
from repro.core.timing import TimingTable
from tests.conftest import A, B, C, D, freeze
from tests.core.test_grammar_properties import (
    looped_streams,
    nested_streams,
    sequences,
    structured_streams,
)


def record_with_times(seq, dts):
    """Record ``seq`` where event i arrives dts[i] after event i-1."""
    rec = PythiaRecord(record_timestamps=True)
    t = 0.0
    for ev, dt in zip(seq, dts):
        t += dt
        rec.record(ev, t)
    return rec.finish()


class TestReplayConstruction:
    def test_replay_builds_table(self):
        seq = [A, B] * 20
        tt = record_with_times(seq, [1.0] * len(seq))
        assert tt.timing is not None
        assert len(tt.timing) > 0

    def test_constant_delays_recovered(self):
        seq = [A, B] * 20
        tt = record_with_times(seq, [1.0] * len(seq))
        p = PythiaPredict(tt.grammar, tt.timing)
        p.observe(A)
        p.observe(B)
        pred = p.predict(1, with_time=True)
        assert pred.eta == pytest.approx(1.0, rel=0.05)

    def test_per_event_delays_recovered(self):
        # a arrives 1s after previous, b 2s, c 3s
        base = [A, B, C]
        seq = base * 20
        dts = [float(ev + 1) for ev in seq]
        tt = record_with_times(seq, dts)
        p = PythiaPredict(tt.grammar, tt.timing)
        for ev in seq[:7]:  # a b c a b c a -> next is b (dt 2) then c (dt 3)
            p.observe(ev)
        pred1 = p.predict(1, with_time=True)
        assert pred1.terminal == B
        assert pred1.eta == pytest.approx(2.0, rel=0.05)
        pred2 = p.predict(2, with_time=True)
        assert pred2.terminal == C
        assert pred2.eta == pytest.approx(5.0, rel=0.05)

    def test_timestamp_count_mismatch_rejected(self):
        fg = freeze([A, B, C])
        with pytest.raises(ValueError):
            TimingTable.from_replay(fg, [0.0, 1.0])  # 3 events, 2 stamps

    def test_empty_trace(self):
        fg = freeze([])
        table = TimingTable.from_replay(fg, [])
        assert len(table) == 0


def chain_walk_table(fg, timestamps):
    """Reference replay: walk the trace chain by chain with the public
    progress API and add every delay to every suffix key, in event order.

    Returns ``(sums, counts)`` in first-use key order.  The sums are
    plain left-to-right float additions, the order the recorder's table
    must reproduce bit for bit.
    """
    sums: dict = {}
    counts: dict = {}
    chain = initial_chain(fg)
    for i in range(1, len(timestamps)):
        chain = advance_exact(fg, chain)
        dt = timestamps[i] - timestamps[i - 1]
        for depth in range(1, len(chain) + 1):
            key = suffix_key(chain, depth)
            sums[key] = sums.get(key, 0.0) + dt
            counts[key] = counts.get(key, 0) + 1
    return sums, counts


@st.composite
def timed_streams(draw):
    """A stream with loops, exponents or nesting, and sorted timestamps
    of mixed magnitudes (equal stamps included)."""
    seq = draw(st.one_of(sequences, looped_streams, nested_streams, structured_streams))
    stamps = draw(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=len(seq),
            max_size=len(seq),
        )
    )
    return seq, sorted(stamps)


class TestReplayMatchesChainWalk:
    @given(timed_streams())
    @example(([], []))
    @example(([A], [0.5]))
    @example(([A, B] * 10, [0.1 * i for i in range(20)]))
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_chain_walk(self, timed):
        seq, stamps = timed
        fg = freeze(seq)
        sums, counts = chain_walk_table(fg, stamps)
        obj = TimingTable.from_replay(fg, stamps).to_obj()
        assert [flat for flat, _total, _count in obj] == [
            [v for step in key for v in step] for key in sums
        ]
        assert [float(total).hex() for _flat, total, _count in obj] == [
            total.hex() for total in sums.values()
        ]
        assert [count for _flat, _total, count in obj] == list(counts.values())
        assert TimingTable.from_obj(obj).to_obj() == obj


class TestContextSensitivity:
    """Fig 6: deeper progress-sequence suffixes give tighter estimates."""

    def test_context_distinguishes_durations(self):
        # Fig 6's own setting: in the trace "abcabdababc" the occurrences
        # of b split into two progress-sequence contexts — "B A b" (a c
        # follows) and "A b" (anything else follows).  Make the
        # c-context b's slow (5s) and the others fast (1s): with full
        # tracking the oracle must produce *both* estimates, i.e. it uses
        # the grammar path as context rather than one global average.
        seq = [A, B, C, A, B, D, A, B, A, B, C]
        dts = []
        for i, ev in enumerate(seq):
            slow = ev == B and i + 1 < len(seq) and seq[i + 1] == C
            dts.append(5.0 if slow else 1.0)
        # repeat the whole pattern so rules form and averages stabilise
        reps = 6
        tt = record_with_times(seq * reps, dts * reps)
        etas = []
        p = PythiaPredict(tt.grammar, tt.timing)
        full = seq * reps
        for i, ev in enumerate(full[:-1]):
            p.observe(ev)
            if full[i + 1] == B:
                pred = p.predict(1, with_time=True)
                if pred is not None and pred.eta is not None:
                    etas.append(pred.eta)
        assert etas, "no b-predictions made"
        # both fast and slow estimates must appear: context is being used
        assert min(etas) < 2.5
        assert max(etas) > 2.5

    def test_iteration_occurrences_share_context(self):
        # Occurrences folded into one exponent (a b)^3 share a single
        # grammar position, hence one average — the documented trade-off
        # of the exponent extension (contrast with the path-context test
        # above).
        seq = []
        dts = []
        for _rep in range(10):
            for i in range(3):
                seq += [A, B]
                dts += [1.0, 5.0 if i == 2 else 1.0]
            seq += [C]
            dts += [1.0]
        tt = record_with_times(seq, dts)
        p = PythiaPredict(tt.grammar, tt.timing)
        etas = set()
        for i, ev in enumerate(seq[:-1]):
            p.observe(ev)
            if seq[i + 1] == B:
                pred = p.predict(1, with_time=True)
                if pred is not None and pred.eta is not None:
                    etas.add(round(pred.eta, 6))
        # all b-steps report the blended mean (1+1+5)/3
        assert len(etas) == 1
        assert next(iter(etas)) == pytest.approx((1.0 + 1.0 + 5.0) / 3)

    def test_estimate_falls_back_to_shallow_suffix(self):
        seq = [A, B] * 10
        tt = record_with_times(seq, [1.0] * len(seq))
        table = tt.timing
        # a bogus deep chain still resolves through its shallow suffix
        positions = tt.grammar.terminal_positions[B]
        rid, idx = positions[0]
        deep_chain = ((rid, idx, 0), (99, 99, 0))
        assert table.estimate(deep_chain) == pytest.approx(1.0)

    def test_unknown_chain_has_no_estimate(self):
        seq = [A, B] * 10
        tt = record_with_times(seq, [1.0] * len(seq))
        assert tt.timing.estimate(((123, 0, 0),)) is None


class TestSerialization:
    def test_roundtrip(self):
        seq = ([A, B] * 5 + [C]) * 4
        tt = record_with_times(seq, [float(e + 1) for e in seq])
        table = tt.timing
        restored = TimingTable.from_obj(table.to_obj())
        assert len(restored) == len(table)
        # spot-check every key
        for key in table._sums:
            assert restored.mean(key) == pytest.approx(table.mean(key))
            assert restored.count(key) == table.count(key)


class TestRecorderTimestampValidation:
    def test_requires_timestamps_when_enabled(self):
        rec = PythiaRecord(record_timestamps=True)
        with pytest.raises(ValueError):
            rec.record(A)

    def test_rejects_decreasing_timestamps(self):
        rec = PythiaRecord(record_timestamps=True)
        rec.record(A, 1.0)
        with pytest.raises(ValueError):
            rec.record(B, 0.5)

    def test_timestamps_optional_when_disabled(self):
        rec = PythiaRecord()
        rec.record(A)
        tt = rec.finish()
        assert tt.timing is None
