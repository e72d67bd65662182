"""OpsConsole: the live console rendered from fake poll snapshots."""

from __future__ import annotations

import io

from repro.obs.metrics import MetricsRegistry, render_prometheus
from repro.obs.top import OpsConsole


def metrics_text(requests=100, active=2, queue_s=(1e-5,), handler=None):
    reg = MetricsRegistry()
    reg.counter("pythia_server_requests_total").inc(requests)
    reg.counter("pythia_server_predictions_served").inc(requests // 2)
    reg.counter("pythia_server_events_observed").inc(requests * 3)
    reg.gauge("pythia_server_sessions_active").set(active)
    queue = reg.histogram("pythia_server_queue_seconds")
    for value in queue_s:
        queue.observe(value)
    for op, values in (handler or {}).items():
        hist = reg.histogram("pythia_server_request_seconds", {"op": op})
        for value in values:
            hist.observe(value)
    return render_prometheus(reg)


def sessions_table(rows=()):
    return {
        "capacity": 256,
        "tracked": len(rows),
        "evicted": 3,
        "sessions": list(rows),
    }


def session_row(sid="cAAA", **over):
    row = {
        "sid": sid,
        "requests": 42,
        "errors": 1,
        "last_rid": 42,
        "rid_regressions": 0,
        "hit_rate": 0.875,
        "drift_state": "ok",
        "handler_us": {"p50": 12.5, "p99": 80.0, "max": 95.0},
        "age_s": 1.25,
    }
    row.update(over)
    return row


class TestFrame:
    def test_header_and_throughput(self):
        console = OpsConsole(lambda: {}, out=io.StringIO(), clear=False)
        frame = console.frame(
            {"metrics": metrics_text(), "sessions": sessions_table()}
        )
        assert "sessions: 2 live" in frame
        assert "0 tracked (cap 256, evicted 3)" in frame
        assert "throughput" in frame
        # first frame has no previous scrape -> no rates yet
        assert "requests -" in frame

    def test_rates_from_successive_scrapes(self):
        console = OpsConsole(lambda: {}, out=io.StringIO(), clear=False)
        console.frame({"metrics": metrics_text(requests=100)})
        frame = console.frame({"metrics": metrics_text(requests=350)}, dt=1.0)
        assert "requests 250/s" in frame

    def test_latency_rows(self):
        frame = OpsConsole(lambda: {}, out=io.StringIO(), clear=False).frame(
            {
                "metrics": metrics_text(
                    queue_s=[2e-6] * 10,
                    handler={"observe_predict": [50e-6] * 10},
                )
            }
        )
        assert "queue (dispatch)" in frame
        assert "handler:observe_predict" in frame

    def test_session_rows(self):
        frame = OpsConsole(lambda: {}, out=io.StringIO(), clear=False).frame(
            {
                "metrics": metrics_text(),
                "sessions": sessions_table(
                    [
                        session_row(),
                        session_row(
                            sid="cBBB", drift_state="diverged", hit_rate=None
                        ),
                    ]
                ),
            }
        )
        assert "cAAA" in frame
        assert "87.5%" in frame
        assert "!diverged" in frame  # drift flag on the degraded session

    def test_draining_flag(self):
        reg = MetricsRegistry()
        reg.gauge("pythia_server_draining").set(1)
        frame = OpsConsole(lambda: {}, out=io.StringIO(), clear=False).frame(
            {"metrics": render_prometheus(reg)}
        )
        assert "[DRAINING]" in frame


class TestHistoryRows:
    def test_sparkline_and_rate_from_history(self):
        history = {
            "series": {
                "pythia_server_requests_total": [
                    [float(t), float(t * 60)] for t in range(10)
                ]
            },
            "rates": {"pythia_server_requests_total": 60.0},
        }
        frame = OpsConsole(lambda: {}, out=io.StringIO(), clear=False).frame(
            {"metrics": metrics_text(), "history": history}
        )
        line = next(
            ln for ln in frame.splitlines() if "server_requests" in ln
        )
        assert "60/s" in line
        assert any(ch in line for ch in "▁▂▃▄▅▆▇█")

    def test_no_history_no_sparkline_rows(self):
        frame = OpsConsole(lambda: {}, out=io.StringIO(), clear=False).frame(
            {"metrics": metrics_text()}
        )
        assert not any(ch in frame for ch in "▁▂▃▄▅▆▇█")

    def test_supervisor_history_rates_without_series(self):
        # the supervisor's merged history has rates but no series
        frame = OpsConsole(lambda: {}, out=io.StringIO(), clear=False).frame(
            {
                "metrics": metrics_text(),
                "history": {"rates": {"pythia_server_requests_total": 12.0}},
            }
        )
        assert "12/s" in frame

    def test_per_session_rate_diffs_successive_frames(self):
        console = OpsConsole(lambda: {}, out=io.StringIO(), clear=False)
        console.frame(
            {
                "metrics": metrics_text(),
                "sessions": sessions_table([session_row(requests=100)]),
            }
        )
        frame = console.frame(
            {
                "metrics": metrics_text(),
                "sessions": sessions_table([session_row(requests=150)]),
            },
            dt=2.0,
        )
        line = next(ln for ln in frame.splitlines() if "cAAA" in ln)
        assert "25/s" in line  # 50 requests over 2 s

    def test_first_frame_session_rate_is_dash(self):
        frame = OpsConsole(lambda: {}, out=io.StringIO(), clear=False).frame(
            {
                "metrics": metrics_text(),
                "sessions": sessions_table([session_row()]),
            }
        )
        assert "req/s" in frame  # column present, value still unknown


class TestRun:
    def test_run_bounded_iterations(self):
        out = io.StringIO()
        calls = []

        def poll():
            calls.append(1)
            return {"metrics": metrics_text(requests=100 * len(calls))}

        console = OpsConsole(poll, interval=0.0, out=out, clear=False)
        assert console.run(iterations=3) == 0
        assert len(calls) == 3
        assert out.getvalue().count("throughput") == 3

    def test_unreachable_daemon_reported_not_raised(self):
        out = io.StringIO()

        def poll():
            raise OSError("connection refused")

        console = OpsConsole(poll, interval=0.0, out=out, clear=False)
        assert console.run(iterations=2) == 1
        assert "daemon unreachable" in out.getvalue()
        assert str(console.last_error) == "connection refused"

    def test_recovery_resets_rate_baseline(self):
        out = io.StringIO()
        state = {"n": 0}

        def poll():
            state["n"] += 1
            if state["n"] == 2:
                raise OSError("blip")
            return {"metrics": metrics_text(requests=100 * state["n"])}

        console = OpsConsole(poll, interval=0.0, out=out, clear=False)
        console.run(iterations=3)
        assert console.last_error is None  # cleared by the good third poll
        # frame 3 is the first after recovery: no baseline -> no rate
        throughput_lines = [
            line for line in out.getvalue().splitlines() if "throughput" in line
        ]
        assert len(throughput_lines) == 2  # frames 1 and 3 (2 errored)
        assert "requests -" in throughput_lines[-1]

    def test_clear_defaults_to_isatty(self):
        out = io.StringIO()  # not a TTY
        console = OpsConsole(lambda: {}, out=out)
        assert console.clear is False
