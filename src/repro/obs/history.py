"""Metrics history: a bounded ring of registry snapshots, with rates.

One Prometheus scrape is a point; trends need a window.  A
:class:`MetricsHistory` keeps the last ``capacity`` periodic snapshots
of a registry (1 Hz × 600 entries ≈ 10 minutes by default) and computes
what single snapshots cannot:

- :meth:`rate` — per-second increase of a counter over a window
  (req/s, events/s), clamped at zero across process restarts;
- :meth:`delta` — absolute increase over a window;
- :meth:`percentiles` — distribution of a *gauge's* sampled values
  (e.g. where has ``pythia_sessions_active`` been for 5 minutes);
- :meth:`series` — the raw ``(t, value)`` points, powering the
  sparklines and req/s columns in ``pythia-trace top`` and the
  ``/history.json`` endpoint.

Snapshots flatten each instrument to scalar samples keyed exactly like
the exposition (``name{k="v"}``); histograms contribute their ``_sum``
and ``_count`` series so rates over them work too.  The ring also
ingests *scraped* pages (:meth:`record_page`) so a client-side console
can keep history for a remote daemon, and persists as JSONL through
:mod:`repro.obs.journal` (:meth:`dump` / :meth:`load`) for post-mortem
joins with flight-recorder dumps.

Environment: ``PYTHIA_HISTORY=0`` disables the daemon's ring,
``PYTHIA_HISTORY_INTERVAL`` / ``PYTHIA_HISTORY_CAP`` tune it, and
``PYTHIA_HISTORY_DIR`` names a directory the daemon dumps the ring
into on shutdown.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from collections.abc import Iterable, Mapping

from repro.obs import journal
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    get_registry,
    parse_prometheus_text,
)

__all__ = [
    "HISTORY_CAP_ENV",
    "HISTORY_DIR_ENV",
    "HISTORY_ENV",
    "HISTORY_INTERVAL_ENV",
    "MetricsHistory",
    "history_from_env",
    "sample_key",
]

HISTORY_ENV = "PYTHIA_HISTORY"
HISTORY_INTERVAL_ENV = "PYTHIA_HISTORY_INTERVAL"
HISTORY_CAP_ENV = "PYTHIA_HISTORY_CAP"
HISTORY_DIR_ENV = "PYTHIA_HISTORY_DIR"

DEFAULT_INTERVAL = 1.0
DEFAULT_CAPACITY = 600

#: counters the ``history`` op reports rates for by default — the ones
#: an operator actually watches (request, event and prediction flow).
DEFAULT_RATE_KEYS = (
    "pythia_server_requests_total",
    "pythia_server_events_observed",
    "pythia_server_predictions_served",
    "pythia_process_cpu_seconds_total",
)


def sample_key(name: str, labels: Mapping[str, str] | None = None) -> str:
    """Flatten ``(name, labels)`` to the ring's sample key.

    Matches the exposition spelling (sorted labels, quoted values) so
    keys line up whether a snapshot came from a live registry or a
    scraped page: ``pythia_session_requests_total{sid="a"}``.
    """
    if not labels:
        return name
    body = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return name + "{" + body + "}"


def _flatten_registry(registry: MetricsRegistry) -> dict[str, float]:
    values: dict[str, float] = {}
    for inst in registry.collect():
        labels = dict(inst.labels)
        if isinstance(inst, Histogram):
            values[sample_key(inst.name + "_sum", labels)] = float(inst.sum)
            values[sample_key(inst.name + "_count", labels)] = float(inst.count)
        else:
            values[sample_key(inst.name, labels)] = float(inst.value)
    return values


def _flatten_page(text: str) -> dict[str, float]:
    values: dict[str, float] = {}
    for sname, labels, value in parse_prometheus_text(text).samples:
        if "le" in labels and sname.endswith("_bucket"):
            continue  # buckets are cumulative noise at ring granularity
        values[sample_key(sname, labels)] = float(value)
    return values


class MetricsHistory:
    """Bounded ring of ``(t, {sample_key: value})`` snapshots.

    Internally every entry carries *two* clocks: ``time.monotonic()``
    drives all windowing, rates and spans (an NTP step or a backwards
    wall-clock jump must not corrupt ``rate()``/``delta()`` windows or
    ``top`` sparklines), while ``time.time()`` is kept purely for
    display and JSONL persistence — :meth:`entries` and :meth:`series`
    expose the wall timestamp, exactly as before.  Tests that pass an
    explicit ``now`` pin both clocks to that value.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        *,
        capacity: int = DEFAULT_CAPACITY,
        interval: float = DEFAULT_INTERVAL,
    ) -> None:
        if capacity < 2:
            raise ValueError("capacity must be >= 2 (rates need two points)")
        self.registry = registry
        self.capacity = capacity
        self.interval = float(interval)
        self._lock = threading.Lock()
        # (t_monotonic, t_wall, values) — mono windows, wall displays
        self._ring: deque[tuple[float, float, dict[str, float]]] = deque(
            maxlen=capacity
        )
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- recording ------------------------------------------------------

    def record(self, now: float | None = None) -> None:
        """Snapshot the registry into the ring (``now`` defaults to
        ``time.time()``; tests pass explicit timestamps)."""
        registry = self.registry if self.registry is not None else get_registry()
        self.record_values(_flatten_registry(registry), now=now)

    def record_page(self, text: str, now: float | None = None) -> None:
        """Snapshot a scraped Prometheus page into the ring."""
        self.record_values(_flatten_page(text), now=now)

    def record_values(self, values: dict[str, float], now: float | None = None) -> None:
        if now is None:
            t_mono, t_wall = time.monotonic(), time.time()
        else:
            t_mono = t_wall = now
        with self._lock:
            self._ring.append((t_mono, t_wall, values))

    # -- background collection ------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "MetricsHistory":
        """Start periodic :meth:`record` on a daemon thread."""
        if self.running:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="pythia-history", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=2.0)
        self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.record()
            except Exception:  # a bad collector must not kill the ring
                pass

    # -- queries --------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def _window(
        self, window_s: float | None
    ) -> list[tuple[float, float, dict[str, float]]]:
        """Ring triples, oldest first, clipped on the *monotonic* clock."""
        with self._lock:
            items = list(self._ring)
        if window_s is not None and items:
            cutoff = items[-1][0] - window_s
            items = [e for e in items if e[0] >= cutoff]
        return items

    def entries(self, window_s: float | None = None) -> list[tuple[float, dict]]:
        """Ring contents as ``(t_wall, values)``, oldest first, optionally
        clipped to a window (windowing runs on the monotonic clock)."""
        return [(t_wall, v) for _, t_wall, v in self._window(window_s)]

    def keys(self) -> list[str]:
        """Every sample key present in the newest snapshot."""
        with self._lock:
            if not self._ring:
                return []
            return sorted(self._ring[-1][2])

    def series(
        self, key: str, window_s: float | None = None
    ) -> list[tuple[float, float]]:
        """``(t_wall, value)`` points for one sample key (absent points
        skipped) — wall timestamps, for display only."""
        return [
            (t_wall, values[key])
            for _, t_wall, values in self._window(window_s)
            if key in values
        ]

    def _points(
        self, key: str, window_s: float | None = None
    ) -> list[tuple[float, float]]:
        """``(t_monotonic, value)`` points — the time base for math."""
        return [
            (t_mono, values[key])
            for t_mono, _, values in self._window(window_s)
            if key in values
        ]

    def delta(self, key: str, window_s: float | None = None) -> float | None:
        """Increase of ``key`` over the window (last - first), or None."""
        pts = self._points(key, window_s)
        if len(pts) < 2:
            return None
        return pts[-1][1] - pts[0][1]

    def rate(self, key: str, window_s: float | None = None) -> float | None:
        """Per-second rate of a counter over the window, or None.

        A counter reset (process restart) shows as a negative delta;
        like PromQL's ``rate()``, the drop is clamped by summing only
        the positive per-step increases.  Spans come from the monotonic
        clock, so a wall-clock step cannot produce a negative or
        inflated span.
        """
        pts = self._points(key, window_s)
        if len(pts) < 2:
            return None
        span = pts[-1][0] - pts[0][0]
        if span <= 0:
            return None
        increase = 0.0
        for (_, prev), (_, cur) in zip(pts, pts[1:]):
            if cur > prev:
                increase += cur - prev
        return increase / span

    def percentiles(
        self,
        key: str,
        qs: Iterable[float] = (0.5, 0.95, 0.99),
        window_s: float | None = None,
    ) -> dict[float, float] | None:
        """Percentiles of a sampled value (gauges) over the window."""
        values = sorted(v for _, v in self._points(key, window_s))
        if not values:
            return None
        out: dict[float, float] = {}
        for q in qs:
            if not 0.0 <= q <= 1.0:
                raise ValueError("quantile must be in [0, 1]")
            idx = min(len(values) - 1, int(q * (len(values) - 1) + 0.5))
            out[q] = values[idx]
        return out

    # -- views / persistence --------------------------------------------

    def view(
        self,
        keys: Iterable[str] | None = None,
        window_s: float | None = None,
        *,
        max_points: int = 120,
    ) -> dict:
        """The ``history`` op / ``/history.json`` payload.

        Series are decimated to ``max_points`` (newest kept) so a
        10-minute ring doesn't ship 600 points per key over the wire.
        """
        wanted = list(keys) if keys is not None else [
            k for k in DEFAULT_RATE_KEYS if self.series(k, window_s)
        ]
        series: dict[str, list[list[float]]] = {}
        rates: dict[str, float | None] = {}
        for key in wanted:
            pts = self.series(key, window_s)
            if len(pts) > max_points:
                pts = pts[-max_points:]
            series[key] = [[round(t, 3), v] for t, v in pts]
            rates[key] = self.rate(key, window_s)
        entries = self._window(window_s)
        return {
            "interval": self.interval,
            "capacity": self.capacity,
            "entries": len(entries),
            "span_seconds": (  # monotonic span: NTP-step proof
                round(entries[-1][0] - entries[0][0], 3) if len(entries) > 1 else 0.0
            ),
            "series": series,
            "rates": rates,
        }

    def _rows(self) -> list[dict]:
        return [{"t": t, "v": values} for t, values in self.entries()]

    def to_jsonl(self) -> str:
        """One ``{"t": ..., "v": {...}}`` JSON line per ring entry."""
        return journal.to_jsonl(self._rows())

    def dump(self, path: str) -> int:
        """Write the ring as JSONL; returns the entry count."""
        rows = self._rows()
        journal.dump(path, rows)
        return len(rows)

    @classmethod
    def load(cls, path: str, **kwargs) -> "MetricsHistory":
        """Rebuild a ring from a :meth:`dump` file (post-mortem analysis)."""
        hist = cls(registry=None, **kwargs)
        for row in journal.load(path):
            hist.record_values(dict(row["v"]), now=float(row["t"]))
        return hist


def history_from_env(
    registry: MetricsRegistry | None = None,
) -> MetricsHistory | None:
    """Build (not start) a ring per the ``PYTHIA_HISTORY*`` environment.

    Returns None when ``PYTHIA_HISTORY=0`` turns history off.
    """
    if os.environ.get(HISTORY_ENV, "1").lower() in ("0", "off", "false", "no"):
        return None
    try:
        interval = float(os.environ.get(HISTORY_INTERVAL_ENV, DEFAULT_INTERVAL))
    except ValueError:
        interval = DEFAULT_INTERVAL
    try:
        capacity = int(os.environ.get(HISTORY_CAP_ENV, DEFAULT_CAPACITY))
    except ValueError:
        capacity = DEFAULT_CAPACITY
    return MetricsHistory(
        registry, capacity=max(2, capacity), interval=max(0.05, interval)
    )
