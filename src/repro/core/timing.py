"""Duration estimation (§II-C of the paper).

PYTHIA-RECORD optionally logs the timestamp of every event.  At the end of
the reference execution, the event sequence is *replayed* through the
prediction algorithm: for every event, the replay knows the full progress
sequence, and the elapsed time since the previous event is accumulated for
**every suffix** of that progress sequence.

This yields the context-sensitive estimates of Fig. 6: the duration
attached to the deep suffix ``B A b`` averages only the occurrences of
``b`` that happen in that context, while the shallow suffix ``A b``
averages all four occurrences of ``b`` after an ``a``.  At prediction
time, the longest recorded suffix of the candidate chain is used, so more
context means a tighter estimate.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.frozen import ROOT, FrozenGrammar, decode_rule
from repro.core.progress import Chain, suffix_key

SuffixKey = tuple[tuple[int, int], ...]


class TimingTable:
    """Mean inter-event durations keyed by progress-sequence suffixes."""

    __slots__ = ("_sums", "_counts", "_flat")

    def __init__(self) -> None:
        self._sums: dict[SuffixKey, float] = {}
        self._counts: dict[SuffixKey, int] = {}
        #: flattened keys in ``_sums`` order, when the replay built them
        self._flat: list[list[int]] | None = None

    def __len__(self) -> int:
        return len(self._sums)

    def mean(self, key: SuffixKey) -> float | None:
        """Mean delay recorded for an exact suffix key, or ``None``."""
        count = self._counts.get(key)
        if not count:
            return None
        return self._sums[key] / count

    def count(self, key: SuffixKey) -> int:
        """Number of samples recorded for an exact suffix key."""
        return self._counts.get(key, 0)

    def estimate(self, chain: Chain) -> float | None:
        """Best duration estimate for stepping onto ``chain``.

        Looks up the longest recorded suffix (most context), falling back
        to shallower ones; ``None`` if even the single-step suffix is
        unknown.
        """
        for depth in range(len(chain), 0, -1):
            value = self.mean(suffix_key(chain, depth))
            if value is not None:
                return value
        return None

    # ------------------------------------------------------------------

    @classmethod
    def from_replay(
        cls,
        fg: FrozenGrammar,
        timestamps: Sequence[float],
    ) -> "TimingTable":
        """Build the table by replaying the reference trace (§II-C).

        ``timestamps[i]`` is the time of the ``i``-th event of the trace
        the grammar represents; the grammar itself supplies the event
        sequence, so only timestamps must be kept by the recorder.

        Event ``i > 0`` adds ``timestamps[i] - timestamps[i - 1]`` to every
        suffix of its complete progress sequence, exactly as walking the
        trace with :func:`~repro.core.progress.advance_exact` and keying
        with :func:`~repro.core.progress.suffix_key` would: same keys, same
        key order (first use), same float additions in event order.  The
        walk itself is one pass over the grammar with an explicit stack, as
        :meth:`FrozenGrammar.unfold` does.  Each distinct path from the
        root to a terminal position is interned once, with the slots of its
        suffix keys, so an event costs one add per suffix.
        """
        table = cls()
        n = fg.trace_len
        if len(timestamps) != n:
            raise ValueError(
                f"{len(timestamps)} timestamps for a trace of {n} events"
            )
        if n < 2:
            return table
        bodies = fg.bodies
        keys: list[SuffixKey] = []
        flats: list[list[int]] = []
        sums: list[float] = []
        slot_of: dict[SuffixKey, int] = {}
        path_slots: list[list[int]] = []
        path_events: list[int] = []

        def suffix_slots(steps: SuffixKey, flat: list[int]) -> list[int]:
            """Slots of every suffix key of one complete path (``flat``:
            flattened ``steps``), allocating new keys in depth order.

            Only the shorter suffixes can be known already: the complete
            path is interned once, and it is the only key that ends in the
            root's body.
            """
            slots = []
            for depth in range(1, len(steps)):
                key = steps[:depth]
                slot = slot_of.get(key)
                if slot is None:
                    slot = slot_of[key] = len(keys)
                    keys.append(key)
                    flats.append(flat[: 2 * depth])
                    sums.append(0.0)
                slots.append(slot)
            slots.append(len(keys))
            keys.append(steps)
            flats.append(flat)
            sums.append(0.0)
            return slots

        # A frame ``[rid, body, memo, above, flat, idx, reps]`` expands
        # position ``idx`` of one rule body ``reps`` more times.  ``above``
        # holds the bottom-first steps of the uses above that body (``flat``
        # the same, flattened), and ``memo[idx]`` caches what position
        # ``idx`` interned in this expansion context: the frame of the child
        # body (rule positions) or the path id (terminal positions).  Every
        # context owns one frame, re-armed each time it is entered, so the
        # walk allocates only for contexts and paths it has not met yet.
        root = bodies[ROOT]
        stack = [[ROOT, root, [None] * len(root), (), [], 0, root[0][1]]]
        i = 0  # index of the next event
        while stack:
            frame = stack[-1]
            rid, body, memo, above, flat, idx, reps = frame
            if reps:
                sym = body[idx][0]
                if sym < 0:
                    frame[6] = reps - 1
                    child = memo[idx]
                    if child is None:
                        crid = decode_rule(sym)
                        cbody = bodies[crid]
                        if not cbody:
                            raise ValueError(f"rule {crid} has an empty body")
                        child = memo[idx] = [
                            crid,
                            cbody,
                            [None] * len(cbody),
                            ((rid, idx),) + above,
                            [rid, idx, *flat],
                            0,
                            0,
                        ]
                    child[5] = 0
                    child[6] = child[1][0][1]
                    stack.append(child)
                    continue
                first = i or 1  # event 0 has no delay before it
                i += reps
                if first < i:
                    pid = memo[idx]
                    if pid is None:
                        pid = memo[idx] = len(path_slots)
                        path_slots.append(
                            suffix_slots(((rid, idx),) + above, [rid, idx, *flat])
                        )
                        path_events.append(0)
                    slots = path_slots[pid]
                    path_events[pid] += i - first
                    if first + 1 == i:  # the common single event
                        dt = timestamps[first] - timestamps[first - 1]
                        for slot in slots:
                            sums[slot] += dt
                    else:
                        for j in range(first, i):
                            dt = timestamps[j] - timestamps[j - 1]
                            for slot in slots:
                                sums[slot] += dt
            idx += 1
            if idx < len(body):
                frame[5] = idx
                frame[6] = body[idx][1]
            else:
                stack.pop()
        if i != n:
            raise RuntimeError(f"replay walked {i} events of a {n}-event trace")
        counts = [0] * len(keys)
        for slots, events in zip(path_slots, path_events):
            for slot in slots:
                counts[slot] += events
        table._sums = dict(zip(keys, sums))
        table._counts = dict(zip(keys, counts))
        table._flat = flats
        return table

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_obj(self) -> list[list]:
        """JSON-compatible representation (shares the replay's key lists)."""
        flats = self._flat
        if flats is None:
            flats = [[v for pair in key for v in pair] for key in self._sums]
        # both dicts are always filled together, so their orders agree
        return [
            [flat, total, count]
            for flat, total, count in zip(flats, self._sums.values(), self._counts.values())
        ]

    @classmethod
    def from_obj(cls, obj: list) -> "TimingTable":
        """Inverse of :meth:`to_obj`."""
        table = cls()
        for flat, total, count in obj:
            key = tuple((flat[i], flat[i + 1]) for i in range(0, len(flat), 2))
            table._sums[key] = float(total)
            table._counts[key] = int(count)
        return table
