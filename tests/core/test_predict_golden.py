"""Byte-identity gate for PYTHIA-PREDICT.

The equivalence suites compare the compiled tracker with the
``compiled=False`` reference, but both run the same §II-C simulation
step, so a change to that step would move both alike.  This gate pins
the answers themselves: for a few seeded grammars, a tracker attaches
mid-stream, follows a stream with out-of-order and unknown events
spliced in, and is asked ``predict`` at distances 1 and 16 (each asked
twice, as the prediction memo answers a repeat) and at distance 2 with
time after every event.  The sha256 of every answer (matched flags,
terminal, the bits of probability, eta and the whole distribution) and
of the final ``stats()`` is compared with a digest committed below, on
both paths.

The digests depend neither on ``PYTHONHASHSEED`` nor on the Python
version: the tracker normalises its weights with plain left-to-right
float additions, not ``sum()``, which compensates since 3.12.  Update
them only together with a deliberate change of what the oracle answers,
and say so in the change.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.core.predict import PythiaPredict
from repro.core.timing import TimingTable
from tests.conftest import freeze, random_structured_stream

#: per seed, on every supported Python version
GOLDEN_SHA256 = {
    1: "556ed5165911f836744b282e147baab8ff6c5a4a5003394e25b8ee1a4dcdf96d",
    2: "616ffba14e8a53a8df3ce31958a093f46770eab93bb012a54a6ef89e268a91f2",
    3: "c506c12e06cd63f5c420b874174df0edd892748a4fe82322ed1a8c0a4469c35a",
    5: "5c5850797cde91f23bdb22345c84941d1e25af0756e53f1220f54f026fc67020",
    8: "057b6173cf839e098a95f9a902a615fd8d9c36d3920880b5870ce9474d751f50",
    13: "6fd00f87c1a9431bb40a273d163d237abab7f4608fcda296445582c4d848b039",
}


def _answer(pred):
    if pred is None:
        return None
    return (
        pred.terminal,
        pred.probability.hex(),
        None if pred.eta is None else pred.eta.hex(),
        [(t, w.hex()) for t, w in pred.distribution.items()],
    )


def answer_digest(seed: int, *, compiled: bool) -> str:
    stream = [t for k in range(3) for t in random_structured_stream(10 * seed + k, alphabet=6)]
    fg = freeze(stream)
    timing = TimingTable.from_replay(fg, [0.25 * i + 0.125 * (i % 3) for i in range(len(stream))])
    tracker = PythiaPredict(fg, timing, compiled=compiled)
    rng = random.Random(seed)
    events = stream[len(stream) // 3 :]
    for _ in range(len(events) // 10):
        events.insert(rng.randrange(len(events)), rng.randrange(6))
    for _ in range(3):
        events.insert(rng.randrange(len(events)), None)
    out = []
    for i, terminal in enumerate(events):
        if terminal is None:
            out.append(tracker.observe_unknown(now=float(i)))
        else:
            out.append(tracker.observe(terminal, now=float(i)))
        for distance in (1, 1, 16, 16):
            out.append(_answer(tracker.predict(distance)))
        out.append(_answer(tracker.predict(2, with_time=True)))
    out.append(sorted(tracker.stats().items()))
    return hashlib.sha256(repr(out).encode()).hexdigest()


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "reference"])
@pytest.mark.parametrize("seed", sorted(GOLDEN_SHA256))
def test_answers_are_byte_identical(seed, compiled):
    assert answer_digest(seed, compiled=compiled) == GOLDEN_SHA256[seed]
