"""Unit tests for the per-session flight recorder."""

from __future__ import annotations

import json
import os

import pytest

from repro.core.predict import WATCH_EVERY, PythiaPredict
from repro.obs.flight import FLIGHT_DIR_ENV, FlightRecorder, dump_active
from tests.conftest import A, B, C, freeze


def _tracked(stream, *, capacity=64, **kw):
    tracker = PythiaPredict(freeze(stream))
    flight = FlightRecorder(capacity, **kw)
    tracker.attach_flight(flight)
    return tracker, flight


class TestJournal:
    def test_run_entries_compress_steady_state(self):
        """An in-sync stream yields one ``run`` entry per block of the
        tracker's cadence, not one entry per event."""
        stream = [A, B, C] * (8 * WATCH_EVERY)
        tracker, flight = _tracked(stream)
        for t in stream:
            tracker.observe(t)
        entries = flight.entries()
        runs = [e for e in entries if e["kind"] == "run"]
        # the only anomaly is the initial mid-stream attach (a restart)
        assert [e for e in entries if e["kind"] != "run"] == entries[:1]
        assert entries[0]["outcome"] == "restart"
        assert len(runs) == len(stream) // WATCH_EVERY
        assert all(e["events"] == WATCH_EVERY for e in runs)
        # each entry carries the outcome of every event it counts; the
        # first holds the initial attach, which is none of the three
        assert all(
            e["matched"] + e["unexpected"] + e["unknown"] == e["events"] for e in runs[1:]
        )
        assert runs[0]["matched"] == WATCH_EVERY - 1
        assert sum(e["matched"] for e in runs) == tracker.matched == len(stream) - 1
        assert all(e["drift_state"] == 0 for e in runs)

    def test_feed_absorbs_the_partial_block(self):
        """``feed_watchers`` journals the events since the last boundary
        once; a second call without new events writes nothing."""
        stream = [A, B, C] * WATCH_EVERY
        tracker, flight = _tracked(stream)
        tail = WATCH_EVERY // 2
        for t in stream[: 2 * WATCH_EVERY + tail]:
            tracker.observe(t)
        tracker.feed_watchers()
        tracker.feed_watchers()
        runs = [e for e in flight.entries() if e["kind"] == "run"]
        assert [e["events"] for e in runs] == [WATCH_EVERY, WATCH_EVERY, tail]
        assert sum(e["events"] for e in runs) == tracker.observed

    def test_anomalies_journaled_eagerly_with_collapse(self):
        stream = [A, B, C] * 8
        tracker, flight = _tracked(stream)
        tracker.observe(A)
        for _ in range(5):
            tracker.observe_unknown()
        unknowns = [
            e for e in flight.entries()
            if e["kind"] == "observe" and e["outcome"] == "unknown"
        ]
        assert len(unknowns) == 1  # five repeats collapse into one entry
        assert unknowns[0]["count"] == 5

    def test_distinct_anomalies_do_not_collapse(self):
        stream = [A, B, C] * 8
        tracker, flight = _tracked(stream)
        tracker.observe(A)
        tracker.observe(99)  # unknown terminal
        tracker.observe(A)  # resync = unexpected restart
        kinds = [
            (e["kind"], e.get("outcome")) for e in flight.entries() if e["kind"] == "observe"
        ]
        assert ("observe", "unknown") in kinds
        assert ("observe", "restart") in kinds

    def test_ring_is_bounded(self):
        flight = FlightRecorder(4)
        for i in range(20):
            flight.note(f"n{i}")
        entries = flight.entries()
        assert len(entries) == 4
        assert [e["message"] for e in entries] == ["n16", "n17", "n18", "n19"]
        assert entries[0]["seq"] == 17  # sequence numbers keep counting

    def test_last_prediction_recorded_in_runs(self):
        stream = [A, B, C] * WATCH_EVERY
        tracker, flight = _tracked(stream)
        for t in stream[:-1]:
            tracker.observe(t)
            tracker.predict(1)
        runs = [e for e in flight.entries() if e["kind"] == "run"]
        assert runs, "expected at least one run entry"
        pred = runs[-1]["prediction"]
        assert pred is not None
        assert pred["distance"] == 1
        assert 0.0 < pred["probability"] <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            FlightRecorder(0)


class TestExport:
    def test_jsonl_round_trips(self):
        flight = FlightRecorder(8, session="s1")
        flight.note("hello", run=3)
        lines = flight.to_jsonl().splitlines()
        assert len(lines) == 1
        obj = json.loads(lines[0])
        assert obj["kind"] == "note"
        assert obj["session"] == "s1"
        assert obj["run"] == 3

    def test_chrome_trace_shape(self):
        stream = [A, B, C] * WATCH_EVERY
        tracker, flight = _tracked(stream)
        for t in stream:
            tracker.observe(t)
        trace = flight.to_chrome_trace()
        events = trace["traceEvents"]
        assert events[0]["ph"] == "M"  # thread_name metadata first
        instants = [e for e in events if e["ph"] == "i"]
        assert len(instants) == len(flight.entries())
        pid = os.getpid()
        assert all(e["pid"] == pid for e in events)
        tids = {e["tid"] for e in events}
        assert len(tids) == 1  # one recorder = one lane


class TestDumping:
    def test_dump_to_explicit_path(self, tmp_path):
        flight = FlightRecorder(8, session="exp")
        flight.note("x")
        path = flight.dump(tmp_path / "out.jsonl")
        assert path == str(tmp_path / "out.jsonl")
        assert json.loads(open(path).read())["message"] == "x"
        assert flight.dumps == 1

    def test_auto_dump_without_destination_is_noop(self, monkeypatch):
        monkeypatch.delenv(FLIGHT_DIR_ENV, raising=False)
        flight = FlightRecorder(8)
        flight.note("x")
        assert flight.dump() is None
        assert flight.dumps == 0

    def test_env_var_names_the_dump_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FLIGHT_DIR_ENV, str(tmp_path))
        flight = FlightRecorder(8, session="bt.pythia/t0")
        flight.note("x")
        path = flight.dump()
        assert path is not None and path.startswith(str(tmp_path))
        assert os.path.basename(path) == "flight-bt.pythia_t0.jsonl"  # sanitized

    def test_dump_active_collects_live_recorders(self, tmp_path):
        a = FlightRecorder(8, session="same")
        b = FlightRecorder(8, session="same")
        empty = FlightRecorder(8, session="empty")
        a.note("a")
        b.note("b")
        paths = dump_active(tmp_path)
        # both non-empty recorders dumped, same session name disambiguated
        assert len([p for p in paths if "flight-same" in p]) == 2
        assert len(set(paths)) == len(paths)
        assert not any("empty" in p for p in paths)
        del a, b, empty


class TestAtexitFlush:
    """Satellite: configured flight recorders flush at interpreter exit."""

    def test_journal_dumped_on_exit(self, tmp_path):
        import subprocess
        import sys

        code = (
            "from repro.obs.flight import FlightRecorder\n"
            "flight = FlightRecorder(8, session='exit.test/t0')\n"
            "flight.note('bye')\n"  # never dumped explicitly
        )
        env = dict(os.environ, PYTHIA_FLIGHT_DIR=str(tmp_path))
        env.setdefault("PYTHONPATH", "src")
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        (path,) = tmp_path.glob("flight-*.jsonl")
        entries = [json.loads(line) for line in path.read_text().splitlines()]
        assert any(e.get("message") == "bye" for e in entries)

    def test_unconfigured_recorders_stay_silent(self, tmp_path):
        import subprocess
        import sys

        code = (
            "from repro.obs.flight import FlightRecorder\n"
            "flight = FlightRecorder(8, session='quiet/t0')\n"
            "flight.note('nothing to see')\n"
        )
        env = {k: v for k, v in os.environ.items() if k != FLIGHT_DIR_ENV}
        env["TMPDIR"] = str(tmp_path)
        env.setdefault("PYTHONPATH", "src")
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert list(tmp_path.glob("flight-*.jsonl")) == []
