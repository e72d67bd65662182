"""Unit tests for the Pythia facade (record-or-predict across runs)."""

from __future__ import annotations

import gc
import os
import weakref

import pytest

from repro.core.oracle import Pythia


APP_EVENTS = (
    [("MPI_Isend", 1), ("MPI_Irecv", 1), ("MPI_Wait", None), ("MPI_Wait", None)] * 10
    + [("MPI_Allreduce", 0)]
) * 3


def run_app(oracle: Pythia, events=APP_EVENTS, clock_step=0.001):
    t = 0.0
    for name, payload in events:
        t += clock_step
        oracle.event(name, payload, timestamp=t)


class TestModes:
    def test_auto_records_first_run(self, tmp_trace_path):
        oracle = Pythia(tmp_trace_path)
        assert oracle.recording and not oracle.predicting

    def test_auto_predicts_second_run(self, tmp_trace_path):
        first = Pythia(tmp_trace_path)
        run_app(first)
        first.finish()
        assert os.path.exists(tmp_trace_path)
        second = Pythia(tmp_trace_path)
        assert second.predicting

    def test_forced_modes(self, tmp_trace_path):
        oracle = Pythia(tmp_trace_path, mode="record")
        assert oracle.recording
        run_app(oracle)
        oracle.finish()
        with pytest.raises(ValueError):
            Pythia(tmp_trace_path, mode="bogus")

    def test_predict_mode_without_file_fails(self, tmp_trace_path):
        with pytest.raises(FileNotFoundError):
            Pythia(tmp_trace_path, mode="predict")

    def test_auto_resolves_by_opening_not_by_exists_check(self, tmp_trace_path):
        # the mode decision and the load are one operation, so a file
        # appearing *after* the decision cannot produce a half-predict
        # oracle: whoever loaded records/predicts coherently
        first = Pythia(tmp_trace_path)
        run_app(first)
        first.finish()
        oracle = Pythia(tmp_trace_path)
        assert oracle.predicting
        assert oracle.reference is not None  # loaded by the same open

    def test_auto_on_corrupt_file_raises_not_records(self, tmp_trace_path):
        from repro.core.trace_file import TraceFormatError

        with open(tmp_trace_path, "w") as fh:
            fh.write("{ definitely not a trace")
        # a corrupt file must surface loudly, not be silently clobbered
        # by a fresh recording
        with pytest.raises(TraceFormatError):
            Pythia(tmp_trace_path)

    def test_concurrent_recorders_last_writer_wins(self, tmp_trace_path):
        # two processes losing the auto race both record; finish() is an
        # atomic rename, so the survivor is one complete valid trace
        first = Pythia(tmp_trace_path)
        second = Pythia(tmp_trace_path)
        assert first.recording and second.recording
        run_app(first)
        run_app(second, events=APP_EVENTS[:20])
        first.finish()
        second.finish()  # last writer
        reader = Pythia(tmp_trace_path)
        assert reader.predicting
        assert reader.reference.event_count == 20


class TestRecordRun:
    def test_finish_writes_trace(self, tmp_trace_path):
        oracle = Pythia(tmp_trace_path, meta={"app": "test"})
        run_app(oracle)
        trace = oracle.finish()
        assert trace is not None
        assert trace.meta["app"] == "test"
        assert trace.event_count == len(APP_EVENTS)

    def test_predict_in_record_mode_returns_none(self, tmp_trace_path):
        oracle = Pythia(tmp_trace_path)
        run_app(oracle)
        assert oracle.predict(1) is None

    def test_double_finish_rejected(self, tmp_trace_path):
        oracle = Pythia(tmp_trace_path)
        run_app(oracle)
        oracle.finish()
        with pytest.raises(RuntimeError):
            oracle.finish()

    def test_event_after_finish_rejected(self, tmp_trace_path):
        oracle = Pythia(tmp_trace_path)
        run_app(oracle)
        oracle.finish()
        with pytest.raises(RuntimeError):
            oracle.event("MPI_Wait")

    def test_multi_thread_recording(self, tmp_trace_path):
        oracle = Pythia(tmp_trace_path, record_timestamps=False)
        for tid in range(3):
            for name, payload in APP_EVENTS[:20]:
                oracle.event(name, payload, thread=tid)
        trace = oracle.finish()
        assert set(trace.threads) == {0, 1, 2}


class TestPredictRun:
    @pytest.fixture
    def recorded(self, tmp_trace_path):
        oracle = Pythia(tmp_trace_path)
        run_app(oracle)
        oracle.finish()
        return tmp_trace_path

    def test_predictions_match_replay(self, recorded):
        oracle = Pythia(recorded)
        correct = total = 0
        for i, (name, payload) in enumerate(APP_EVENTS):
            oracle.event(name, payload)
            if i + 1 < len(APP_EVENTS):
                pred = oracle.predict(1)
                if pred is not None and pred.terminal is not None:
                    total += 1
                    expected = oracle.registry.lookup(
                        __import__("repro").Event(*APP_EVENTS[i + 1])
                    )
                    correct += pred.terminal == expected
        assert total > 0
        assert correct / total > 0.9

    def test_duration_prediction(self, recorded):
        oracle = Pythia(recorded)
        for name, payload in APP_EVENTS[:8]:
            oracle.event(name, payload)
        eta = oracle.predict_duration(1)
        assert eta == pytest.approx(0.001, rel=0.2)

    def test_unknown_event_makes_oracle_lost(self, recorded):
        oracle = Pythia(recorded)
        oracle.event("MPI_Isend", 1)
        oracle.event("never_seen_before")
        assert oracle.predict(1) is None
        assert oracle.stats()["unknown"] == 1

    def test_describe(self, recorded):
        oracle = Pythia(recorded)
        assert "lost" in oracle.describe(None)
        oracle.event("MPI_Isend", 1)
        text = oracle.describe(oracle.predict(1))
        assert text.startswith("<")

    def test_finish_in_predict_mode_returns_none(self, recorded):
        oracle = Pythia(recorded)
        run_app(oracle)
        assert oracle.finish() is None

    def test_unknown_thread_rejected(self, recorded):
        oracle = Pythia(recorded)
        with pytest.raises(KeyError):
            oracle.event("MPI_Isend", 1, thread=7)


class TestObservabilityFacade:
    @pytest.fixture
    def recorded(self, tmp_trace_path):
        oracle = Pythia(tmp_trace_path)
        run_app(oracle)
        oracle.finish()
        return tmp_trace_path

    def test_explain_agrees_with_predict(self, recorded):
        oracle = Pythia(recorded)
        for name, payload in APP_EVENTS[:50]:
            oracle.event(name, payload)
        pred = oracle.predict(3)
        expl = oracle.explain(3)
        assert expl.terminal == pred.terminal
        assert expl.probability == pred.probability
        # names resolve through the facade's registry
        obj = expl.to_obj(oracle.registry.name)
        assert obj["events"][0]["name"]

    def test_explain_in_record_mode_is_none(self, tmp_trace_path):
        oracle = Pythia(tmp_trace_path)
        assert oracle.explain(1) is None

    def test_enable_drift_attaches_to_every_thread(self, recorded):
        oracle = Pythia(recorded)
        monitor = oracle.enable_drift(flight=32)
        assert monitor is not None
        assert oracle.enable_drift() is monitor  # idempotent
        for name, payload in APP_EVENTS[:40]:
            oracle.event(name, payload)
        pred = oracle._predictor(0)
        assert pred.drift is monitor
        assert pred.flight is not None
        assert pred.flight.capacity == 32
        assert oracle.drift_report()["state"] == "ok"
        assert any(e["kind"] == "run" for e in oracle.flight_journal())

    def test_enable_drift_in_record_mode_is_none(self, tmp_trace_path):
        oracle = Pythia(tmp_trace_path)
        assert oracle.enable_drift() is None
        assert oracle.drift_report() == {}
        assert oracle.flight_journal() == []

    def test_drift_divergence_visible_through_facade(self, recorded, tmp_path):
        oracle = Pythia(recorded)
        oracle.enable_drift(dump_dir=str(tmp_path))
        for name, payload in APP_EVENTS:
            oracle.event(name, payload)
        for i in range(64):
            oracle.event(f"hostile_{i}")
        report = oracle.drift_report()
        assert report["state"] == "diverged"
        assert list(tmp_path.glob("flight-*.jsonl"))  # auto-dumped

    def test_finished_oracle_freed_by_reference_counting(self, tmp_trace_path):
        """With the cyclic collector off, a finished two-thread oracle
        with drift monitoring takes every tracker, flight recorder,
        grammar, successor machine and the monitor with it."""
        recorder = Pythia(tmp_trace_path, mode="record")
        for name, payload in APP_EVENTS:
            for thread in (0, 1):
                recorder.event(name, payload, thread=thread)
        recorder.finish()
        gc.collect()
        gc.disable()
        try:
            oracle = Pythia(tmp_trace_path, mode="predict")
            monitor = oracle.enable_drift()
            for name, payload in APP_EVENTS:
                for thread in (0, 1):
                    oracle.event_and_predict(name, payload, distance=2, thread=thread)
            for i in range(64):  # a transition journaled by thread 1
                oracle.event(f"hostile_{i}", thread=1)
            assert monitor.state == "diverged"
            oracle.finish()
            watched = [monitor]
            for thread in (0, 1):
                tracker = oracle._predictor(thread)
                watched += [tracker, tracker.flight, tracker.grammar, tracker.machine]
            refs = [weakref.ref(obj) for obj in watched]
            del oracle, monitor, watched, tracker
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            gc.enable()

    def test_watchers_do_not_change_predictions(self, recorded):
        bare = Pythia(recorded)
        watched = Pythia(recorded)
        watched.enable_drift()
        for name, payload in APP_EVENTS[:80]:
            assert bare.event(name, payload) == watched.event(name, payload)
            assert bare.predict(2) == watched.predict(2)
        assert bare.stats() == watched.stats()
