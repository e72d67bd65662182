"""The user-facing PYTHIA facade.

:class:`Pythia` is what a runtime system links against.  It hides the
record/predict split behind one object:

- if no trace file exists (first run), it transparently records;
- if a trace file exists (subsequent runs), it loads it and answers
  predictions while following the submitted events.

One :class:`Pythia` serves a whole process; per-thread sessions are
addressed with the ``thread`` argument (the paper maintains one grammar
per thread).
"""

from __future__ import annotations

import os
import time
from typing import Hashable

from repro.core.events import Event, EventRegistry
from repro.core.explain import Explanation
from repro.core.predict import Prediction, PythiaPredict
from repro.core.record import PythiaRecord
from repro.core.trace_file import Trace, load_trace
from repro.obs.accuracy import aggregate_stats
from repro.obs.drift import DriftBaseline, DriftMonitor
from repro.obs.flight import FlightRecorder
from repro.obs.log import get_logger
from repro.obs.profiler import tag_op
from repro.obs.spans import span

__all__ = ["Pythia"]

_log = get_logger("oracle")


class Pythia:
    """Record-or-predict oracle bound to a trace file.

    Parameters
    ----------
    trace_path:
        Where the reference trace lives (or will be written).
    mode:
        ``"auto"`` (default) records when the file is absent and predicts
        when present; ``"record"`` / ``"predict"`` force a mode.
    record_timestamps:
        Enables duration prediction on the next run.  Timestamps default
        to :func:`time.perf_counter` when not supplied by the caller.
    meta:
        Free-form metadata stored in the trace file when recording.
    """

    def __init__(
        self,
        trace_path: str | os.PathLike,
        *,
        mode: str = "auto",
        record_timestamps: bool = True,
        meta: dict | None = None,
        max_candidates: int = 64,
    ) -> None:
        if mode not in ("auto", "record", "predict"):
            raise ValueError(f"unknown mode {mode!r}")
        self.trace_path = os.fspath(trace_path)
        self.record_timestamps = record_timestamps
        self.meta = dict(meta or {})
        self._max_candidates = max_candidates
        self._finished = False
        # Resolve the mode exactly once, by *opening* the file rather than
        # testing existence first: two processes starting simultaneously
        # would otherwise race between os.path.exists and the later open.
        # Whoever loses the race simply records; concurrent recorders are
        # last-writer-wins on finish() (save_trace writes atomically via
        # rename), which is safe — both wrote a valid reference trace of
        # the same application.  A long-lived oracle daemon
        # (:mod:`repro.server`) sidesteps the race entirely.
        self.reference: Trace | None = None
        with span("oracle.open", mode=mode):
            if mode == "predict":
                self.reference = load_trace(self.trace_path)
            elif mode == "auto":
                try:
                    self.reference = load_trace(self.trace_path)
                    mode = "predict"
                except FileNotFoundError:
                    mode = "record"
        self.mode = mode
        _log.debug("oracle_opened", trace=self.trace_path, mode=mode)
        self._recorders: dict[int, PythiaRecord] = {}
        self._predictors: dict[int, PythiaPredict] = {}
        #: set by enable_drift(): one monitor shared by every thread's
        #: tracker, plus a flight recorder per tracker
        self._drift: DriftMonitor | None = None
        self._flight_capacity = 0
        self._flight_dump_dir: str | None = None
        if self.reference is not None:
            self.registry = self.reference.registry
        else:
            self.registry = EventRegistry()

    # ------------------------------------------------------------------

    @property
    def recording(self) -> bool:
        """True in record mode (first execution)."""
        return self.mode == "record"

    @property
    def predicting(self) -> bool:
        """True in predict mode (subsequent executions)."""
        return self.mode == "predict"

    def _recorder(self, thread: int) -> PythiaRecord:
        rec = self._recorders.get(thread)
        if rec is None:
            rec = PythiaRecord(self.registry, record_timestamps=self.record_timestamps)
            self._recorders[thread] = rec
        return rec

    def _predictor(self, thread: int) -> PythiaPredict:
        pred = self._predictors.get(thread)
        if pred is None:
            assert self.reference is not None
            tt = self.reference.threads.get(thread)
            if tt is None:
                raise KeyError(f"reference trace has no thread {thread}")
            pred = PythiaPredict(
                tt.grammar, tt.timing, max_candidates=self._max_candidates
            )
            self._watch(thread, pred)
            self._predictors[thread] = pred
        return pred

    def _watch(self, thread: int, pred: PythiaPredict) -> None:
        """Attach the facade's drift monitor / flight recorder (if
        enabled) to one tracker — existing and future alike."""
        if self._drift is not None and pred.drift is None:
            pred.attach_drift(self._drift)
        if self._flight_capacity and pred.flight is None:
            stem = os.path.splitext(os.path.basename(self.trace_path))[0]
            pred.attach_flight(
                FlightRecorder(
                    self._flight_capacity,
                    session=f"{stem}.t{thread}",
                    dump_dir=self._flight_dump_dir,
                )
            )

    # ------------------------------------------------------------------
    # the runtime-system API
    # ------------------------------------------------------------------

    def event(
        self,
        name: str,
        payload: Hashable = None,
        *,
        timestamp: float | None = None,
        thread: int = 0,
    ) -> bool:
        """Notify the oracle that the application reached a key point.

        Returns True when the event matched the oracle's expectation
        (always True while recording).  A False return tells the runtime
        the tracker just lost or re-acquired its position — predictions
        made right now are not trustworthy (§III-E).
        """
        if self._finished:
            raise RuntimeError("oracle already finished")
        if self.recording:
            if timestamp is None and self.record_timestamps:
                timestamp = time.perf_counter()
            self._recorder(thread).record_event(name, payload, timestamp)
            return True
        terminal = self.registry.lookup(Event(name, payload))
        pred = self._predictor(thread)
        if terminal is None:
            # never seen in the reference run: the oracle has no
            # information; the runtime must rely on its heuristics
            return pred.observe_unknown(now=timestamp)
        return pred.observe(terminal, now=timestamp)

    def event_and_predict(
        self,
        name: str,
        payload: Hashable = None,
        *,
        distance: int = 1,
        thread: int = 0,
        with_time: bool = False,
        timestamp: float | None = None,
        require_match: bool = False,
    ) -> tuple[bool, Prediction | None]:
        """Submit one event and predict ``distance`` steps ahead — fused.

        Equivalent to :meth:`event` followed by :meth:`predict` (same
        counters, same accuracy scoring), but routed through the
        tracker's fused fast path so the successor expansion computed by
        the predict half is reused by the next observation.  In record
        mode the event is recorded and ``(True, None)`` is returned.
        With ``require_match`` the predict half is skipped when the event
        did not match the oracle's expectation (§III-E: fresh-resync
        predictions are not trustworthy).
        """
        if self._finished:
            raise RuntimeError("oracle already finished")
        if self.recording:
            if timestamp is None and self.record_timestamps:
                timestamp = time.perf_counter()
            self._recorder(thread).record_event(name, payload, timestamp)
            return True, None
        terminal = self.registry.lookup(Event(name, payload))
        pred = self._predictor(thread)
        if terminal is None:
            return pred.observe_unknown(now=timestamp), None
        return pred.observe_and_predict(
            terminal,
            distance,
            with_time=with_time,
            now=timestamp,
            require_match=require_match,
        )

    def predict(
        self, distance: int = 1, *, thread: int = 0, with_time: bool = False
    ) -> Prediction | None:
        """Predict the event ``distance`` steps ahead (predict mode only)."""
        if not self.predicting:
            return None
        return self._predictor(thread).predict(distance, with_time=with_time)

    def predict_duration(self, distance: int = 1, *, thread: int = 0) -> float | None:
        """Predict the delay until the event ``distance`` steps ahead."""
        if not self.predicting:
            return None
        return self._predictor(thread).predict_duration(distance)

    def explain(
        self,
        distance: int = 1,
        *,
        thread: int = 0,
        top_k: int = 3,
        with_time: bool = False,
    ) -> Explanation | None:
        """Provenance of :meth:`predict`: which candidate progress
        sequences back the top-k predicted events, with what weights.

        Read-only and side-effect free — ``events[0]`` is exactly what
        ``predict(distance)`` would return right now; ``None`` when the
        oracle is lost or recording.  Serialize with
        :meth:`~repro.core.explain.Explanation.to_obj`, passing
        ``self.registry.name`` for human-readable event names.
        """
        if not self.predicting:
            return None
        return self._predictor(thread).explain(
            distance, top_k=top_k, with_time=with_time
        )

    # ------------------------------------------------------------------
    # drift monitoring + flight recording
    # ------------------------------------------------------------------

    def enable_drift(
        self,
        baseline: DriftBaseline | None = None,
        *,
        flight: int = 256,
        dump_dir: str | None = None,
        **monitor_kwargs,
    ) -> DriftMonitor | None:
        """Turn on drift monitoring (and flight recording) for this oracle.

        One :class:`~repro.obs.drift.DriftMonitor` is shared by every
        thread's tracker (per-tracker deltas, one alarm state that every
        thread's journal reads); each tracker additionally gets a
        :class:`~repro.obs.flight.FlightRecorder` of ``flight`` entries
        (0 disables).  Extra keyword arguments go to the monitor
        (``alpha``, thresholds…; the cadence is the tracker's).  Returns
        the monitor — register fallback hooks with
        :meth:`~repro.obs.drift.DriftMonitor.on_transition` — or ``None``
        in record mode.  Idempotent: a second call returns the monitor
        already installed.
        """
        if not self.predicting:
            return None
        if self._drift is None:
            self._drift = DriftMonitor(baseline, **monitor_kwargs)
            self._flight_capacity = flight
            self._flight_dump_dir = dump_dir
            for thread, pred in self._predictors.items():
                self._watch(thread, pred)
        return self._drift

    def drift_report(self) -> dict:
        """The drift monitor's report (empty dict before enable_drift)."""
        if self._drift is None:
            return {}
        return self._drift.report()

    def flight_journal(self, thread: int = 0) -> list[dict]:
        """This thread's flight-recorder journal (empty when disabled)."""
        pred = self._predictors.get(thread)
        if pred is None or pred.flight is None:
            return []
        return pred.flight.entries()

    def describe(self, prediction: Prediction | None) -> str:
        """Human-readable form of a prediction (for logs and examples)."""
        if prediction is None:
            return "<no prediction: oracle is lost>"
        if prediction.terminal is None:
            return f"<end of execution, p={prediction.probability:.2f}>"
        name = self.registry.name(prediction.terminal)
        eta = f", eta={prediction.eta:.6f}" if prediction.eta is not None else ""
        return f"<{name}, p={prediction.probability:.2f}{eta}>"

    def finish(self) -> Trace | None:
        """End the execution.

        In record mode, freezes all per-thread grammars, writes the trace
        file and returns the trace; in predict mode returns ``None``.
        """
        if self._finished:
            raise RuntimeError("oracle already finished")
        self._finished = True
        if not self.recording:
            for pred in self._predictors.values():
                pred.flush_metrics()
            return None
        trace = Trace(registry=self.registry, meta=self.meta)
        for tid, rec in sorted(self._recorders.items()):
            trace.threads[tid] = rec.finish()
        with span("oracle.save_trace", path=self.trace_path), tag_op("save_trace"):
            trace.save(self.trace_path)
        _log.info(
            "trace_recorded",
            trace=self.trace_path,
            events=trace.event_count,
            threads=len(trace.threads),
        )
        return trace

    # ------------------------------------------------------------------

    def stats(self, thread: int | None = None) -> dict:
        """Tracking counters and accuracy report (predict mode).

        With ``thread=None`` (the default) the counters of **every**
        thread followed so far are aggregated; pass a thread id for one
        thread's view (the pre-observability behaviour).  Both shapes
        match the daemon's per-session ``stats`` op.
        """
        if not self.predicting:
            return {}
        if thread is not None:
            return self._predictor(thread).stats()
        reports = [pred.stats() for _tid, pred in sorted(self._predictors.items())]
        if not reports:
            return self._predictor(0).stats() if 0 in self.reference.threads else {}
        return aggregate_stats(reports)
