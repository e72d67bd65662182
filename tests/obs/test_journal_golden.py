"""Byte-identity gate for the journal exports and dumps.

The flight recorder, the span recorder and the metrics history each
export their ring as JSONL and/or a Chrome trace, dump it to a file and
read dumps back (``MetricsHistory.load``, ``TraceTable.load``,
``pythia-trace analyze --merge``).  This gate builds one fixed state of
each ring — a pinned clock, pid and thread ids, so nothing depends on
the machine — and compares the sha256 of every export, every dump file
and every read-back with a digest committed below.  A refactor of the
export code must leave them unchanged; update them only together with a
deliberate change of a journal format, and say so in the change.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os

import pytest

from repro.cli import main
from repro.obs import flight as flight_mod
from repro.obs.analysis import TraceTable
from repro.obs.flight import FlightRecorder, dump_active
from repro.obs.history import MetricsHistory
from repro.obs.spans import Span, SpanRecorder

GOLDEN_SHA256 = {
    "flight.to_jsonl": "d4170761fef6efd59def2924b4a4d78ef6bc42264f4422565865e20b18003f35",
    "flight.to_chrome_trace": "5099551996fb7f10276662973f65f13e8597da06bf3231f1a9d6a202902cb3c5",
    "flight.dump": "d4170761fef6efd59def2924b4a4d78ef6bc42264f4422565865e20b18003f35",
    "flight.dump_active": "d4170761fef6efd59def2924b4a4d78ef6bc42264f4422565865e20b18003f35",
    "spans.to_chrome_trace": "ef6d9fac02805741d51cd2f17282f08395f703cc46773d6fe8a0eabe6305de9a",
    "spans.dump": "1b718f08ec6d1b31f3395e8eae486c9a5d109e79b6561332510dc5d101df0b92",
    "history.to_jsonl": "0c50cb3b7d658b1dc17ffd7f6555b99ff629aa723e73d2e2fa5795ddd0ca47e0",
    "history.dump": "0c50cb3b7d658b1dc17ffd7f6555b99ff629aa723e73d2e2fa5795ddd0ca47e0",
    "history.load": "d79f0c97350f8e05ad83e29095738a549d47c54218d47ac764d09d8cf6091fd8",
    "analysis.load": "8744035d7bb84b96da097435d028df837e9345cc4d794dbf7f7d775f1a1aa22b",
    "cli.analyze_merge": "6be3c40e42ff1e4205a0c9d55c22e8038dd1805e619519501fcbded80cc4853e",
}


def _sha(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class _Tracker:
    """The tracker attributes a flight recorder reads."""

    def __init__(self) -> None:
        self.candidates: dict = {}
        self.drift = None


class _Monitor:
    """The drift-monitor attribute a flight recorder reads."""

    def __init__(self, state: str) -> None:
        self.state = state


class _Pred:
    def __init__(self, terminal: int, probability: float) -> None:
        self.terminal = terminal
        self.probability = probability


@pytest.fixture
def pinned(monkeypatch):
    """A fixed pid and a flight clock that ticks 0.125 s per read."""
    monkeypatch.setattr(os, "getpid", lambda: 4242)
    clock = itertools.count()
    monkeypatch.setattr(flight_mod, "perf_counter", lambda: 1e3 + 0.125 * next(clock))


def _flight(tmp_path) -> FlightRecorder:
    """A wrapped 8-slot ring holding every entry kind."""
    rec = FlightRecorder(8, session="bt.pythia/t0", dump_dir=str(tmp_path / "auto"))
    rec._tid = 3
    tracker = _Tracker()
    rec.note("session_open", trace="bt.pythia", thread=0)
    for block in range(1, 6):
        tracker.candidates = dict.fromkeys(range(block))
        rec.last_pred = _Pred(block + 4, 1.0 / (block + 1))
        rec.last_distance = block % 3 + 1
        # observed, matched, unexpected, unknown, hits, misses, resyncs
        rec.tick(tracker, (32, 30, 1, block // 2 - (block - 1) // 2, 0, 0, 0))
        if block == 2:
            rec.anomaly("restart", 4, tracker)
            rec.anomaly("restart", 4, tracker)  # collapses into a count
            rec.anomaly("unknown", None, tracker)
        if block == 3:
            rec.mark_transition("ok", "drifting", {"hit_rate": 0.5, "window": 64})
            tracker.drift = _Monitor("drifting")
    rec.note("session_close", reason="done")
    return rec


def _spans() -> SpanRecorder:
    """Spans on two threads of two processes, nested, with attrs."""
    rec = SpanRecorder()
    rec._spans = [
        Span("record.compress", 0.5, 0.25, 11, "MainThread", 0, {"app": "bt"}, 4242),
        Span("client.observe_predict", 0.001, 100e-6, 12, "rank-1", 1,
             {"op": "observe_predict", "sid": "cAAA", "rid": 1, "total_us": 100.0},
             4242),
        Span("server.observe_predict", 0.00105, 30e-6, 7, "pythia-loop", 0,
             {"op": "observe_predict", "sid": "cAAA", "rid": 1, "handler_us": 30},
             5151),
        Span("predict.replay", 0.125, 1.0 / 3, 11, "MainThread", 1, {}, 4242),
    ]
    return rec


def _history() -> MetricsHistory:
    """A 4-slot ring that has wrapped, with a counter reset inside."""
    hist = MetricsHistory(registry=None, capacity=4, interval=0.5)
    for k in range(6):
        hist.record_values(
            {
                "pythia_server_requests_total": float(10 * k if k != 4 else 3),
                'pythia_session_last_rid{session="cAAA"}': k / 3,
                "pythia_sessions_active": 2.0,
            },
            now=1_700_000_000.0 + 0.5 * k,
        )
    return hist


def test_flight_exports(tmp_path, pinned):
    rec = _flight(tmp_path)
    got = {
        "flight.to_jsonl": _sha(rec.to_jsonl()),
        "flight.to_chrome_trace": _sha(json.dumps(rec.to_chrome_trace())),
    }
    path = rec.dump()
    assert os.path.basename(path) == "flight-bt.pythia_t0.jsonl"
    got["flight.dump"] = _sha(_read(path))
    paths = dump_active(tmp_path / "post")
    (mine,) = [p for p in paths if os.path.basename(p) == "flight-bt.pythia_t0-3.jsonl"]
    got["flight.dump_active"] = _sha(_read(mine))
    assert rec.dumps == 2
    assert sorted(os.listdir(tmp_path / "auto")) == ["flight-bt.pythia_t0.jsonl"]
    assert got == {k: GOLDEN_SHA256[k] for k in got}


def test_span_exports(tmp_path):
    rec = _spans()
    rec.dump(tmp_path / "spans.json")
    got = {
        "spans.to_chrome_trace": _sha(json.dumps(rec.to_chrome_trace())),
        "spans.dump": _sha(_read(tmp_path / "spans.json")),
    }
    assert got == {k: GOLDEN_SHA256[k] for k in got}


def test_history_exports_and_load(tmp_path):
    hist = _history()
    path = str(tmp_path / "history.jsonl")
    assert hist.dump(path) == 4
    back = MetricsHistory.load(path, capacity=8)
    got = {
        "history.to_jsonl": _sha(hist.to_jsonl()),
        "history.dump": _sha(_read(path)),
        "history.load": _sha(back.to_jsonl() + json.dumps(back.view(), sort_keys=True)),
    }
    assert sorted(os.listdir(tmp_path)) == ["history.jsonl"]
    assert got == {k: GOLDEN_SHA256[k] for k in got}


def test_read_back_and_merge(tmp_path, pinned, capsys):
    flight = _flight(tmp_path)
    files = [str(flight.dump(tmp_path / "flight.jsonl"))]
    with open(tmp_path / "flight.json", "w", encoding="utf-8") as fh:
        json.dump(flight.to_chrome_trace(), fh, indent=1)
    files.append(str(tmp_path / "flight.json"))
    _spans().dump(tmp_path / "spans.json")
    files.append(str(tmp_path / "spans.json"))
    table = TraceTable.load(*files)
    merged = tmp_path / "merged.json"
    assert main(["analyze", *files, "--merge", str(merged)]) == 0
    capsys.readouterr()
    got = {
        "analysis.load": _sha(json.dumps(table.rows, sort_keys=True)),
        "cli.analyze_merge": _sha(_read(merged)),
    }
    assert got == {k: GOLDEN_SHA256[k] for k in got}
