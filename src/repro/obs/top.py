"""``pythia-trace top`` — a live ANSI ops console for the oracle daemon.

Stdlib-only (ANSI escape codes, no curses dependency): the console
polls the daemon's ``metrics`` and ``sessions`` ops, diffs successive
scrapes for throughput, reads latency quantiles back out of the
Prometheus histogram buckets (:func:`~repro.obs.metrics.parse_prometheus_text`),
and renders one frame per interval:

- throughput (requests/s, predictions/s, events/s) from counter deltas;
- request latency split by component — dispatch **queue**
  (``pythia_server_queue_seconds``) and per-op **handler** time
  (``pythia_server_request_seconds{op=...}``) — as p50/p99;
- when the daemon keeps a metrics history ring
  (:mod:`repro.obs.history`), one sparkline row per tracked counter —
  per-interval increase over the window, with the ring's own rate();
- one row per tracked client session: requests, errors, req/s (diffed
  between successive frames), last rid, rid regressions, hit rate,
  drift flag, handler p50/p99 and age.

The renderer is a pure function of two successive snapshots, so tests
drive it with a fake ``poll`` and a ``StringIO`` — no TTY, daemon or
sleep involved (``run(iterations=N, ...)``).
"""

from __future__ import annotations

import sys
import time
from typing import Callable

from repro.obs.metrics import ParsedMetrics, parse_prometheus_text

__all__ = ["OpsConsole"]

#: ANSI clear-screen + cursor-home, prepended to frames on a TTY
_CLEAR = "\x1b[2J\x1b[H"

#: eight-level block characters for sparklines
_SPARK = "▁▂▃▄▅▆▇█"


def _sparkline(values: list[float], width: int = 30) -> str:
    """Render a list of samples as a fixed-width unicode sparkline."""
    if not values:
        return ""
    values = values[-width:]
    lo, hi = min(values), max(values)
    span = hi - lo
    if span <= 0:
        return _SPARK[0] * len(values)
    return "".join(
        _SPARK[min(len(_SPARK) - 1, int((v - lo) / span * len(_SPARK)))] for v in values
    )


def _fmt_us(value: float | None) -> str:
    if value is None:
        return "-"
    if value >= 1e6:
        return f"{value / 1e6:.2f}s"
    if value >= 1e3:
        return f"{value / 1e3:.1f}ms"
    return f"{value:.0f}µs"


def _fmt_rate(value: float | None) -> str:
    return "-" if value is None else f"{value:,.0f}/s"


class OpsConsole:
    """Polls a daemon and renders live telemetry frames.

    Parameters
    ----------
    poll:
        Zero-argument callable returning ``{"metrics": <prometheus
        text>, "sessions": <sessions-op payload>}`` (either key may be
        absent); raising marks the daemon unreachable for that frame.
    interval:
        Seconds between frames in :meth:`run`.
    out:
        Stream frames are written to (default ``sys.stdout``).
    clear:
        Prefix each frame with an ANSI clear; default: only when
        ``out`` is a TTY, so piped/captured output stays appendable.
    """

    def __init__(
        self,
        poll: Callable[[], dict],
        *,
        interval: float = 1.0,
        out=None,
        clear: bool | None = None,
        title: str = "pythia ops",
    ) -> None:
        self.poll = poll
        self.interval = interval
        self.out = out if out is not None else sys.stdout
        if clear is None:
            clear = bool(getattr(self.out, "isatty", lambda: False)())
        self.clear = clear
        self.title = title
        self._prev: ParsedMetrics | None = None
        self._prev_t: float | None = None
        #: sid -> request count at the previous frame (per-session req/s)
        self._prev_requests: dict[str, int] = {}
        #: why the last poll failed (None after a good poll)
        self.last_error: Exception | None = None

    # -- rendering ------------------------------------------------------

    def _rate(self, cur: ParsedMetrics, name: str, dt: float | None) -> float | None:
        if self._prev is None or dt is None or dt <= 0:
            return None
        now = cur.value(name)
        before = self._prev.value(name)
        if now is None or before is None:
            return None
        return max(0.0, now - before) / dt

    def frame(self, snapshot: dict, dt: float | None = None) -> str:
        """Render one frame from a ``poll()`` snapshot (pure, testable)."""
        lines: list[str] = []
        metrics_text = snapshot.get("metrics") or ""
        cur = parse_prometheus_text(metrics_text)
        table = snapshot.get("sessions") or {}
        active = cur.value("pythia_server_sessions_active")
        draining = cur.value("pythia_server_draining")
        header = f"{self.title} — {time.strftime('%H:%M:%S')}"
        if active is not None:
            header += f"  sessions: {int(active)} live"
        if table:
            header += (
                f" / {table.get('tracked', 0)} tracked"
                f" (cap {table.get('capacity', '?')},"
                f" evicted {table.get('evicted', 0)})"
            )
        if draining:
            header += "  [DRAINING]"
        lines.append(header)

        req = self._rate(cur, "pythia_server_requests_total", dt)
        pred = self._rate(cur, "pythia_server_predictions_served", dt)
        obs = self._rate(cur, "pythia_server_events_observed", dt)
        lines.append(
            f"throughput  requests {_fmt_rate(req)}   "
            f"predictions {_fmt_rate(pred)}   events {_fmt_rate(obs)}"
        )

        history = snapshot.get("history") or {}
        series = history.get("series") or {}
        rates = history.get("rates") or {}
        if series or rates:
            lines.append("")
            for key in sorted(set(series) | set(rates)):
                points = series.get(key) or []
                values = [v for _t, v in points]
                # counters: sparkline the per-interval increase, so the
                # row shows load over time rather than a ramp to the max
                steps = [
                    b - a for a, b in zip(values, values[1:]) if b >= a
                ] or values
                rate = rates.get(key)
                short = key.removeprefix("pythia_").removesuffix("_total")
                lines.append(
                    f"{short[:24]:24s} {_sparkline(steps):30s} {_fmt_rate(rate):>10s}"
                )

        lines.append("")
        lines.append(f"{'latency':24s} {'p50':>10s} {'p99':>10s}")
        q50 = cur.quantile("pythia_server_queue_seconds", 0.50)
        q99 = cur.quantile("pythia_server_queue_seconds", 0.99)
        if q50 is not None:
            lines.append(
                f"{'queue (dispatch)':24s} "
                f"{_fmt_us(q50 * 1e6):>10s} {_fmt_us(q99 * 1e6):>10s}"
            )
        pairs = sorted(
            {
                (labels.get("op"), labels.get("proto", ""))
                for labels, _count in cur.series("pythia_server_request_seconds_count")
                if labels.get("op")
            }
        )
        for op, proto in pairs:
            labels = {"op": op, "proto": proto} if proto else {"op": op}
            p50 = cur.quantile("pythia_server_request_seconds", 0.50, labels)
            p99 = cur.quantile("pythia_server_request_seconds", 0.99, labels)
            if p50 is None:
                continue
            # JSON is the default framing; only non-JSON protos suffix
            row = "handler:" + op
            if proto and proto != "json":
                row += "/" + proto
            lines.append(
                f"{row:24s} "
                f"{_fmt_us(p50 * 1e6):>10s} {_fmt_us(p99 * 1e6):>10s}"
            )

        rows = table.get("sessions") or []
        next_requests: dict[str, int] = {}
        if rows:
            lines.append("")
            lines.append(
                f"{'session':16s} {'reqs':>7s} {'req/s':>8s} {'err':>5s} {'rid':>8s} "
                f"{'dup':>4s} {'hit%':>6s} {'drift':>8s} "
                f"{'p50':>9s} {'p99':>9s} {'age':>7s}"
            )
            for row in rows[-20:]:  # most recently active last
                hit = row.get("hit_rate")
                drift = row.get("drift_state") or "-"
                handler = row.get("handler_us") or {}
                flag = "!" if drift in ("drifting", "diverged") else ""
                hit_text = f"{100 * hit:5.1f}%" if hit is not None else f"{'-':>6s}"
                sid = str(row.get("sid", "?"))
                requests = row.get("requests", 0)
                next_requests[sid] = requests
                before = self._prev_requests.get(sid)
                srate = None
                if before is not None and dt and dt > 0:
                    srate = max(0, requests - before) / dt
                lines.append(
                    f"{sid[:16]:16s} "
                    f"{requests:>7d} "
                    f"{_fmt_rate(srate):>8s} "
                    f"{row.get('errors', 0):>5d} "
                    f"{row.get('last_rid', 0):>8d} "
                    f"{row.get('rid_regressions', 0):>4d} "
                    f"{hit_text} "
                    f"{flag + drift:>8s} "
                    f"{_fmt_us(handler.get('p50')):>9s} "
                    f"{_fmt_us(handler.get('p99')):>9s} "
                    f"{row.get('age_s', 0):>6.1f}s"
                )
        self._prev = cur
        self._prev_requests = next_requests
        return "\n".join(lines) + "\n"

    # -- driving --------------------------------------------------------

    def tick(self) -> bool:
        """Poll once and write one frame; False when the poll failed."""
        now = time.monotonic()
        dt = None if self._prev_t is None else now - self._prev_t
        try:
            snapshot = self.poll()
        except Exception as exc:  # daemon down: report, keep polling
            self.last_error = exc
            self.out.write(
                (_CLEAR if self.clear else "")
                + f"{self.title} — daemon unreachable: {exc}\n"
            )
            self.out.flush()
            self._prev = None
            self._prev_t = None
            self._prev_requests = {}
            return False
        self.last_error = None
        frame = self.frame(snapshot, dt)
        self._prev_t = now
        self.out.write((_CLEAR if self.clear else "") + frame)
        self.out.flush()
        return True

    def run(self, iterations: int | None = None) -> int:
        """Render frames every ``interval`` seconds.

        ``iterations`` bounds the frame count (None = until Ctrl-C).
        Returns 0 when the last poll succeeded, 1 otherwise.
        """
        ok = False
        count = 0
        try:
            while iterations is None or count < iterations:
                ok = self.tick()
                count += 1
                if iterations is not None and count >= iterations:
                    break
                time.sleep(self.interval)
        except KeyboardInterrupt:
            pass
        return 0 if ok else 1
