"""Runtime spans: wall-time per named stage, exportable as Chrome traces.

Usage::

    from repro.obs.spans import span, span_recording
    with span_recording() as rec:          # or enable_spans() globally
        with span("record.compress", app="bt"):
            ...work...
    rec.to_chrome_trace()                  # load in chrome://tracing / Perfetto

Spans nest naturally (the context manager tracks per-thread depth) and
cost nothing when recording is disabled — :func:`span` returns a shared
no-op context manager, so leaving ``with span(...)`` on a hot stage is
free until someone turns recording on (``PYTHIA_SPANS=1``, the CLI's
``pythia-trace spans``, or :func:`enable_spans`).

The export is the Chrome trace-event format (built by
:mod:`repro.obs.journal`): complete events (``ph: "X"``) with
microsecond timestamps, one row per thread.
"""

from __future__ import annotations

import atexit
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.obs import journal

__all__ = [
    "Span",
    "SpanRecorder",
    "SPANS_DUMP_ENV",
    "enable_spans",
    "disable_spans",
    "get_recorder",
    "span",
    "span_recording",
    "spans_enabled",
]

#: environment variable naming a Chrome-trace path the process recorder
#: is dumped to at interpreter exit (the atexit flush)
SPANS_DUMP_ENV = "PYTHIA_SPANS_DUMP"


@dataclass(slots=True)
class Span:
    """One finished span (times from :func:`time.perf_counter`)."""

    name: str
    start: float
    duration: float
    thread_id: int
    thread_name: str
    depth: int
    attrs: dict = field(default_factory=dict)
    #: recorded at span creation, not export time, so spans collected in
    #: a forked worker keep their true process id
    pid: int = 0


class SpanRecorder:
    """Thread-safe collector of finished spans."""

    def __init__(self, *, max_spans: int = 100_000) -> None:
        self.max_spans = max_spans
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._dropped = 0
        self._local = threading.local()
        self._epoch = time.perf_counter()

    # -- recording ------------------------------------------------------

    def _depth(self) -> int:
        return getattr(self._local, "depth", 0)

    @contextmanager
    def record(self, name: str, **attrs):
        """Time one stage; records a :class:`Span` on exit (even on error)."""
        depth = self._depth()
        self._local.depth = depth + 1
        t0 = time.perf_counter()
        try:
            yield self
        finally:
            duration = time.perf_counter() - t0
            self._local.depth = depth
            self.emit(name, t0, duration, depth=depth, **attrs)

    def emit(
        self,
        name: str,
        t0: float,
        duration: float,
        *,
        depth: int = 0,
        **attrs,
    ) -> None:
        """Record an already-finished span.

        ``t0`` is the :func:`time.perf_counter` value at which the span
        began.  Request tracing uses this instead of :meth:`record`:
        a request span's attributes (the server-side queue/handler
        split) are only known once the reply has been decoded, after
        the interval being described has already ended.
        """
        thread = threading.current_thread()
        sp = Span(
            name=name,
            start=t0 - self._epoch,
            duration=duration,
            thread_id=thread.ident or 0,
            thread_name=thread.name,
            depth=depth,
            attrs=attrs,
            pid=os.getpid(),
        )
        with self._lock:
            if len(self._spans) < self.max_spans:
                self._spans.append(sp)
            else:
                self._dropped += 1

    # -- reading --------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    @property
    def dropped(self) -> int:
        """Spans discarded after hitting ``max_spans``."""
        with self._lock:
            return self._dropped

    def spans(self) -> list[Span]:
        """Copy of the recorded spans, in completion order."""
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        """Forget every recorded span."""
        with self._lock:
            self._spans.clear()
            self._dropped = 0

    def totals(self) -> dict[str, dict]:
        """Per-name aggregate: count, total and max seconds."""
        out: dict[str, dict] = {}
        for sp in self.spans():
            agg = out.setdefault(sp.name, {"count": 0, "total_s": 0.0, "max_s": 0.0})
            agg["count"] += 1
            agg["total_s"] += sp.duration
            if sp.duration > agg["max_s"]:
                agg["max_s"] = sp.duration
        return out

    # -- export ---------------------------------------------------------

    def to_chrome_trace(self) -> dict:
        """Chrome trace-event JSON object (``chrome://tracing`` / Perfetto).

        Every span carries its recording ``pid`` and its thread's real
        ``tid`` (plus a ``thread_name`` metadata event per thread), so a
        multi-threaded dump renders one row per thread instead of
        overlapping on a single track.
        """
        fallback_pid = os.getpid()
        events = []
        threads: dict[tuple[int, int], str] = {}
        for sp in self.spans():
            pid = sp.pid or fallback_pid
            threads.setdefault((pid, sp.thread_id), sp.thread_name)
            events.append(
                {
                    "name": sp.name,
                    "ph": "X",
                    "ts": round(sp.start * 1e6, 3),
                    "dur": round(sp.duration * 1e6, 3),
                    "pid": pid,
                    "tid": sp.thread_id,
                    "args": dict(sp.attrs, depth=sp.depth),
                }
            )
        events.sort(key=lambda e: e["ts"])
        return journal.chrome_trace(events, threads)

    def dump(self, path: str | os.PathLike) -> None:
        """Write :meth:`to_chrome_trace` to ``path`` as JSON (staged and
        renamed into place)."""
        journal.dump(path, self.to_chrome_trace())


# ----------------------------------------------------------------------
# the process-wide recorder
# ----------------------------------------------------------------------

_lock = threading.Lock()
_recorder: SpanRecorder | None = None
if os.environ.get("PYTHIA_SPANS", "").lower() in ("1", "on", "true", "yes"):
    _recorder = SpanRecorder()


class _NullSpan:
    """Shared no-op context manager handed out while recording is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


def spans_enabled() -> bool:
    """True while a process-wide recorder is installed."""
    return _recorder is not None


def get_recorder() -> SpanRecorder | None:
    """The process-wide recorder, or ``None`` when disabled."""
    return _recorder


def enable_spans(recorder: SpanRecorder | None = None) -> SpanRecorder:
    """Install (and return) a process-wide span recorder."""
    global _recorder
    with _lock:
        if recorder is not None:
            _recorder = recorder
        elif _recorder is None:
            _recorder = SpanRecorder()
        return _recorder


def disable_spans() -> None:
    """Remove the process-wide recorder; :func:`span` becomes free again."""
    global _recorder
    with _lock:
        _recorder = None


def span(name: str, **attrs):
    """Context manager timing one stage into the process recorder.

    A no-op (one attribute load, one identity check) while recording is
    disabled — safe to leave on hot paths.
    """
    rec = _recorder
    if rec is None:
        return _NULL_SPAN
    return rec.record(name, **attrs)


def _atexit_dump() -> None:
    """Flush the process recorder at interpreter exit.

    Short CLI runs and crashing examples otherwise lose their tail of
    telemetry — the recorder dies with the process.  A destination must
    be configured (``PYTHIA_SPANS_DUMP=path``); without one this is a
    no-op, so merely enabling spans never writes files as a side effect.
    """
    rec = _recorder
    target = os.environ.get(SPANS_DUMP_ENV)
    if rec is None or not target or not len(rec):
        return
    try:
        rec.dump(target)
    except OSError:
        pass  # exit paths must never raise


atexit.register(_atexit_dump)


@contextmanager
def span_recording(recorder: SpanRecorder | None = None):
    """Enable span recording for one block; restores the prior state."""
    global _recorder
    with _lock:
        prev = _recorder
        rec = recorder if recorder is not None else SpanRecorder()
        _recorder = rec
    try:
        yield rec
    finally:
        with _lock:
            _recorder = prev
