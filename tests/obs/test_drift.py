"""Drift monitor: detection, hysteresis, baseline capture, wiring."""

from __future__ import annotations

import json

import pytest

from repro.core.oracle import Pythia
from repro.core.predict import WATCH_EVERY, PythiaPredict
from repro.obs import metrics as m
from repro.obs.drift import (
    DIVERGED,
    DRIFTING,
    OK,
    STATE_CODES,
    DriftBaseline,
    DriftMonitor,
    baseline_from_replay,
)
from repro.obs.flight import FlightRecorder
from tests.conftest import A, B, C, freeze


def _monitored(stream, *, flight=None, **monitor_kwargs):
    tracker = PythiaPredict(freeze(stream))
    monitor = DriftMonitor(**monitor_kwargs)
    tracker.attach_drift(monitor)
    if flight is not None:
        tracker.attach_flight(flight)
    return tracker, monitor


class TestReadsDoNotStarveTheWatchers:
    def test_stats_every_16_events_still_feeds_flight_and_drift(self):
        """``stats()`` flushes metrics; it must not restart the count the
        watcher cadence waits on, or a tracker read often is never fed."""
        stream = [A, B, C] * 400
        flight = FlightRecorder(128)
        tracker, monitor = _monitored(stream, flight=flight)
        steps = [lambda t=t: tracker.observe(t) for t in stream]
        steps += [tracker.observe_unknown] * 200
        for i, step in enumerate(steps, 1):
            step()
            if i % 16 == 0:
                tracker.stats()
        assert monitor.state == DIVERGED
        assert any(e["kind"] == "run" for e in flight.entries())


class TestDetection:
    def test_in_sync_stream_stays_ok(self):
        stream = [A, B, C] * 64
        tracker, monitor = _monitored(stream)
        for t in stream[:-1]:
            tracker.observe(t)
            tracker.predict(1)
        assert monitor.state == OK
        assert monitor.transitions == []
        assert monitor.hit_ewma > 0.8

    def test_workload_switch_diverges_within_64_events(self, tmp_path):
        """Acceptance: an injected workload switch (events the reference
        never saw) must reach DIVERGED within 64 events, fire the
        callback, and auto-dump a journal containing the transition."""
        stream = [A, B, C] * 40
        flight = FlightRecorder(128, session="switch", dump_dir=str(tmp_path))
        tracker, monitor = _monitored(stream, flight=flight)
        fired = []
        monitor.on_transition(lambda old, new, snap: fired.append((old, new, snap)))

        for t in stream:  # phase 1: the recorded workload, all in sync
            tracker.observe(t)
            tracker.predict(1)
        assert monitor.state == OK
        switch_at = tracker.observed

        for i in range(64):  # phase 2: a different workload entirely
            tracker.observe_unknown()
            if monitor.state == DIVERGED:
                break
        assert monitor.state == DIVERGED
        assert tracker.observed - switch_at <= 64

        # the callback saw the escalation (possibly via DRIFTING)
        assert fired
        assert fired[-1][1] == DIVERGED
        assert fired[-1][2]["unseen_ewma"] > 0.3

        # the transition was auto-dumped with the journal around it
        dumped = list(tmp_path.glob("flight-switch.jsonl"))
        assert len(dumped) == 1
        entries = [json.loads(line) for line in dumped[0].read_text().splitlines()]
        transitions = [e for e in entries if e["kind"] == "transition"]
        assert any(e["to"] == DIVERGED for e in transitions)
        # context retained despite the unknown-event storm
        assert any(e["kind"] == "run" for e in entries)

    def test_callback_exception_does_not_kill_tracking(self):
        stream = [A, B, C] * 40
        tracker, monitor = _monitored(stream)

        @monitor.on_transition
        def _boom(old, new, snap):
            raise RuntimeError("observer bug")

        for t in stream:
            tracker.observe(t)
        for _ in range(64):
            tracker.observe_unknown()
        assert monitor.state == DIVERGED  # transition happened anyway

    def test_recovery_has_hysteresis(self):
        """After the storm ends, the monitor must see several calm ticks
        before stepping back down — no flapping on one good block."""
        stream = [A, B, C] * 200
        tracker, monitor = _monitored(stream)
        seen = []
        monitor.on_transition(lambda old, new, snap: seen.append((old, new)))
        for t in stream[:120]:
            tracker.observe(t)
            tracker.predict(1)
        for _ in range(64):
            tracker.observe_unknown()
        assert monitor.state == DIVERGED
        # one calm block is not enough to recover
        for t in (stream * 2)[:WATCH_EVERY]:
            tracker.observe(t)
            tracker.predict(1)
        assert monitor.state == DIVERGED
        # sustained calm eventually recovers to OK
        for t in (stream * 4)[: 12 * WATCH_EVERY]:
            tracker.observe(t)
            tracker.predict(1)
        assert monitor.state == OK
        assert seen[0][1] in (DRIFTING, DIVERGED)
        assert seen[-1][1] == OK

    def test_resync_storm_detected_without_unknown_events(self):
        """A workload switch within the known alphabet (every event seen
        before, but in the wrong order) must also trip the monitor."""
        stream = ([A] * 8 + [B] * 8 + [C] * 8) * 20
        tracker, monitor = _monitored(stream)
        for t in stream:
            tracker.observe(t)
            tracker.predict(1)
        assert monitor.state == OK
        # now a hostile order: the tracker restarts over and over
        import random

        rng = random.Random(7)
        for _ in range(128):
            tracker.observe(rng.choice([A, B, C]))
            tracker.predict(1)
        assert monitor.state != OK


class TestMonitorMechanics:
    def test_validation(self):
        with pytest.raises(ValueError):
            DriftMonitor(alpha=0.0)
        with pytest.raises(ValueError):
            DriftMonitor(alpha=1.5)

    def test_update_without_new_events_is_noop(self):
        stream = [A, B, C] * 8
        tracker, monitor = _monitored(stream)
        tracker.observe(A)
        tracker.feed_watchers()
        updates = monitor.updates
        assert monitor.events == 1
        tracker.feed_watchers()
        assert monitor.updates == updates  # no delta, no update
        assert monitor.events == 1

    def test_shared_monitor_keeps_per_tracker_deltas(self):
        stream = [A, B, C] * (4 * WATCH_EVERY)
        fg = freeze(stream)
        monitor = DriftMonitor()
        t1 = PythiaPredict(fg)
        t2 = PythiaPredict(fg)
        t1.attach_drift(monitor)
        t2.attach_drift(monitor)
        # interleaved streams of different lengths (t2 attaches mid-stream):
        # each tracker feeds its own deltas
        for i, t in enumerate(stream):
            t1.observe(t)
            if i >= 100:
                t2.observe(t)
        assert monitor.updates > 4
        # absorb the tail blocks (calm sessions feed on a stretched
        # cadence), then every event is accounted exactly once
        t1.feed_watchers()
        t2.feed_watchers()
        assert monitor.events == t1.observed + t2.observed
        assert monitor.state == OK
        t1.feed_watchers()
        t2.feed_watchers()
        assert monitor.events == t1.observed + t2.observed

    def test_gauges_published(self):
        prev = m.get_registry()
        try:
            reg = m.MetricsRegistry()
            m.set_registry(reg)
            stream = [A, B, C] * 32
            tracker, monitor = _monitored(stream, gauge_every=1)
            for t in stream:
                tracker.observe(t)
            snap = reg.snapshot()
            assert snap["pythia_drift_state"] == 0
            assert "pythia_drift_hit_rate" in snap
            assert "pythia_drift_entropy" in snap
        finally:
            m.set_registry(prev)

    def test_report_shape(self):
        stream = [A, B, C] * 40
        tracker, monitor = _monitored(stream)
        for t in stream:
            tracker.observe(t)
        for _ in range(64):
            tracker.observe_unknown()
        report = monitor.report()
        assert report["state"] == DIVERGED
        assert report["baseline"] == DriftBaseline().to_obj()
        assert report["transitions"]
        assert report["transitions"][-1]["to"] == DIVERGED
        json.dumps(report)  # JSON-safe end to end


class TestSharedMonitor:
    def test_every_thread_journals_the_shared_state(self, tmp_path):
        """One monitor shared by two threads: while thread 1's unknown-event
        storm holds it DIVERGED, every ``run`` entry thread 0 writes carries
        ``drift_state`` 2 — each entry reads the monitor's state."""
        path = str(tmp_path / "two.pythia")
        recorder = Pythia(path, mode="record", record_timestamps=False)
        for _ in range(40):
            for name in ("a", "b", "c"):
                for thread in (0, 1):
                    recorder.event(name, thread=thread)
        recorder.finish()
        oracle = Pythia(path, mode="predict")
        monitor = oracle.enable_drift()
        for _ in range(40):
            for name in ("a", "b", "c"):
                for thread in (0, 1):
                    oracle.event(name, thread=thread)
        assert monitor.state == OK
        for i in range(400):
            oracle.event(f"hostile_{i}", thread=1)
        assert monitor.state == DIVERGED
        flight = oracle._predictor(0).flight
        journaled = []  # (monitor state before the event, drift_state written)
        for _ in range(80):
            for name in ("a", "b", "c"):
                state = monitor.state
                seq = flight._seq
                oracle.event(name, thread=0)
                if flight._seq != seq:
                    new = flight.entries()[seq - flight._seq :]
                    journaled += [
                        (state, e["drift_state"]) for e in new if e["kind"] == "run"
                    ]
        assert monitor.state == OK  # thread 0's calm feeds recovered it
        diverged = [code for state, code in journaled if state == DIVERGED]
        assert len(diverged) >= 3
        assert diverged == [STATE_CODES[DIVERGED]] * len(diverged)
        assert all(code == STATE_CODES[state] for state, code in journaled)


class TestBaseline:
    def test_baseline_from_replay_of_regular_stream(self):
        stream = [A, B, C] * 64
        base = baseline_from_replay(freeze(stream), stream)
        assert base.hit_rate > 0.9
        assert base.unseen_ratio == 0.0
        assert base.resync_rate < 0.05
        assert base.entropy >= 0.0

    def test_noisy_baseline_prevents_false_alarms(self):
        """A monitor given the replay baseline of an *irregular* stream
        must not alarm when the live run behaves like that reference."""
        import random

        rng = random.Random(11)
        stream = [rng.randrange(3) for _ in range(600)]
        fg = freeze(stream)
        base = baseline_from_replay(fg, stream)
        tracker = PythiaPredict(fg)
        calibrated = DriftMonitor(base)
        tracker.attach_drift(calibrated)
        for t in stream:
            tracker.observe(t)
            tracker.predict(1)
        assert calibrated.state == OK

    def test_round_trip(self):
        base = DriftBaseline(hit_rate=0.7, unseen_ratio=0.1, resync_rate=0.2, entropy=1.5)
        assert DriftBaseline.from_obj(base.to_obj()) == base
