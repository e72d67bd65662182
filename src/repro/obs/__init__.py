"""repro.obs — the observability layer (metrics, logs, spans, accuracy).

Four independent, dependency-free pieces:

- :mod:`repro.obs.metrics` — a thread-safe registry of counters, gauges
  and fixed-bucket histograms, with Prometheus text exposition and a
  no-op null registry (``PYTHIA_METRICS=0``);
- :mod:`repro.obs.log` — structured key=value / JSON logging with
  per-subsystem loggers (``PYTHIA_LOG=debug``, ``PYTHIA_LOG=json:info``,
  or the CLI's ``--log-level``);
- :mod:`repro.obs.spans` — a ``with span("stage")`` API recording wall
  time per stage, exportable as Chrome trace JSON (``PYTHIA_SPANS=1``,
  ``pythia-trace spans``);
- :mod:`repro.obs.accuracy` — online scoring of every prediction the
  oracle makes against what the execution then actually does;
- :mod:`repro.obs.drift` — an online OK → DRIFTING → DIVERGED monitor
  comparing the tracker's drift signals against a reference baseline;
- :mod:`repro.obs.flight` — a bounded per-session flight recorder
  journaling recent events/predictions/outcomes (``PYTHIA_FLIGHT_DIR``);
- :mod:`repro.obs.sessions` — the daemon's bounded per-client-session
  telemetry table (LRU, evictions prune the labeled metric series);
- :mod:`repro.obs.journal` — the journal formats (JSON Lines, Chrome
  trace), the staged atomic write every dump goes through, and the
  format-sniffing read-back;
- :mod:`repro.obs.analysis` — offline trace analysis: span dumps and
  flight journals merged into a columnar :class:`TraceTable` with
  filter/groupby/percentile and wire/queue/handler decomposition
  (``pythia-trace analyze``);
- :mod:`repro.obs.top` — the live ANSI ops console behind
  ``pythia-trace top``;
- :mod:`repro.obs.profiler` — a continuous sampling profiler over
  ``sys._current_frames()`` (``PYTHIA_PROFILE_HZ``), exporting
  collapsed stacks and self-contained flamegraph SVGs with per-op
  attribution (``pythia-trace profile``);
- :mod:`repro.obs.history` — a bounded ring of periodic registry
  snapshots with delta/rate/percentile queries and JSONL persistence
  (``PYTHIA_HISTORY*``), powering the ``history`` op;
- :mod:`repro.obs.process` — ``pythia_process_*`` CPU/RSS/fd/thread
  gauges from ``/proc`` with graceful off-Linux fallback;
- :mod:`repro.obs.httpd` — the zero-dependency HTTP observability
  endpoint (``/metrics``, ``/healthz``, ``/ready``, ``/profile``,
  ``/history.json``) behind ``pythia-trace serve --http``.

The metric name catalogue lives in the README's "Observability" section.
"""

from repro.obs import log
from repro.obs.accuracy import AccuracyTracker, merge_reports
from repro.obs.analysis import TraceTable
from repro.obs.drift import (
    DIVERGED,
    DRIFTING,
    OK,
    DriftBaseline,
    DriftMonitor,
    baseline_from_replay,
)
from repro.obs.flight import FlightRecorder, active_recorders, dump_active
from repro.obs.history import MetricsHistory, history_from_env
from repro.obs.httpd import ObservabilityHTTPServer
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    LATENCY_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    ParsedMetrics,
    get_registry,
    metrics_enabled,
    parse_prometheus_text,
    render_prometheus,
    set_registry,
)
from repro.obs.process import register_process_metrics
from repro.obs.profiler import (
    SamplingProfiler,
    disable_profiler,
    enable_profiler,
    get_profiler,
    profile_window,
    render_flamegraph,
    tag_op,
)
from repro.obs.sessions import SessionEntry, SessionStats
from repro.obs.spans import (
    Span,
    SpanRecorder,
    disable_spans,
    enable_spans,
    get_recorder,
    span,
    span_recording,
    spans_enabled,
)

__all__ = [
    "AccuracyTracker",
    "Counter",
    "DEFAULT_BUCKETS",
    "DIVERGED",
    "DRIFTING",
    "DriftBaseline",
    "DriftMonitor",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS_S",
    "MetricsHistory",
    "MetricsRegistry",
    "NullRegistry",
    "OK",
    "ObservabilityHTTPServer",
    "ParsedMetrics",
    "SamplingProfiler",
    "SessionEntry",
    "SessionStats",
    "Span",
    "SpanRecorder",
    "TraceTable",
    "active_recorders",
    "baseline_from_replay",
    "disable_profiler",
    "disable_spans",
    "dump_active",
    "enable_profiler",
    "enable_spans",
    "get_profiler",
    "get_recorder",
    "get_registry",
    "history_from_env",
    "log",
    "merge_reports",
    "metrics_enabled",
    "parse_prometheus_text",
    "profile_window",
    "register_process_metrics",
    "render_flamegraph",
    "render_prometheus",
    "set_registry",
    "span",
    "span_recording",
    "spans_enabled",
    "tag_op",
]
