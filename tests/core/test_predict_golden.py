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

The digests do not depend on ``PYTHONHASHSEED``.  They do depend on the
Python version: since 3.12 ``sum()`` adds floats with compensated
(Neumaier) summation, which moves the last bits of the weights the
tracker normalises, so 3.10-3.11 and 3.12+ each have their own table.
Update them only together with a deliberate change of what the oracle
answers, and say so in the change.
"""

from __future__ import annotations

import hashlib
import random
import sys

import pytest

from repro.core.predict import PythiaPredict
from repro.core.timing import TimingTable
from tests.conftest import freeze, random_structured_stream

#: per seed, on Python 3.10-3.11 (plain float sum())
_PLAIN_SUM = {
    1: "556ed5165911f836744b282e147baab8ff6c5a4a5003394e25b8ee1a4dcdf96d",
    2: "616ffba14e8a53a8df3ce31958a093f46770eab93bb012a54a6ef89e268a91f2",
    3: "c506c12e06cd63f5c420b874174df0edd892748a4fe82322ed1a8c0a4469c35a",
    5: "5c5850797cde91f23bdb22345c84941d1e25af0756e53f1220f54f026fc67020",
    8: "057b6173cf839e098a95f9a902a615fd8d9c36d3920880b5870ce9474d751f50",
    13: "6fd00f87c1a9431bb40a273d163d237abab7f4608fcda296445582c4d848b039",
}
#: per seed, on Python 3.12+ (compensated float sum())
_COMPENSATED_SUM = {
    1: "4925f8f596a997b3afd1baac3788529c757082a547c8c184e1ea9d39b6e5d09e",
    2: "7a537a9dcc3abd0380f830efd8224955df46afd061cd664632bfe7fb9872c256",
    3: "4b279616e96f939e56167ce37f2e0f94c614b444cacdc740907ce9ddf09dbd5c",
    5: "d39ccb6a595291b9917363ba156794488fc1ed13e0b2719b7e49139f26f2b0ff",
    8: "828e95197b886196992737d796aa9c2fe2fd99394b084dd47d728c6408998320",
    13: "2d8420b6202807a9253f96c050da037020f3003487a9292258a776281fc69b50",
}
GOLDEN_SHA256 = _COMPENSATED_SUM if sys.version_info >= (3, 12) else _PLAIN_SUM


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
