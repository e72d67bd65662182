"""The daemon's ``metrics`` op: Prometheus exposition over the wire."""

from __future__ import annotations

import time

import pytest

from repro.core.oracle import Pythia
from repro.core.predict import METRIC_FAMILIES as PREDICT_FAMILIES
from repro.core.record import METRIC_FAMILIES as RECORD_FAMILIES
from repro.core.successor import METRIC_FAMILIES as SUCCESSOR_FAMILIES
from repro.experiments.harness import mpi_record_run
from repro.obs import metrics as obs_metrics
from repro.server import OracleServer, PythiaClient, TraceStore, admin_request


@pytest.fixture(scope="module")
def npb_trace(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("npb-metrics") / "bt.pythia")
    mpi_record_run("bt", "small", path, ranks=2, seed=0, timestamps=True)
    return path


@pytest.fixture
def fresh_registry():
    """A private process registry so counters start from zero."""
    prev = obs_metrics.get_registry()
    reg = obs_metrics.set_registry(obs_metrics.MetricsRegistry())
    yield reg
    obs_metrics.set_registry(prev)


@pytest.fixture
def server(tmp_path, fresh_registry):
    sock = str(tmp_path / "oracle.sock")
    with OracleServer(sock, store=TraceStore(capacity=4)) as srv:
        yield srv


def scrape(server) -> str:
    response = admin_request(server.socket_path, {"op": "metrics"})
    assert response["ok"]
    return response["text"]


def parse_exposition(text: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        out[key] = float(value.replace("+Inf", "inf"))
    return out


class TestMetricsOp:
    def test_families_present_on_idle_server(self, server):
        """Acceptance: record-, predict- and server-family metrics appear
        even before any traffic (the daemon pre-touches its catalogue)."""
        parsed = parse_exposition(scrape(server))
        for family in (
            "pythia_record_events_total",
            "pythia_predict_observe_total",
            "pythia_predict_hits_total",
            "pythia_server_requests_total",
            "pythia_server_sessions_active",
        ):
            assert family in parsed, family

    def test_every_declared_family_preregistered(self, server):
        """Each counter family the recorder, tracker and successor machine
        declare is exposed at zero, with its declared help, before any
        traffic."""
        text = scrape(server)
        parsed = parse_exposition(text)
        for name, help_text in (*RECORD_FAMILIES, *PREDICT_FAMILIES, *SUCCESSOR_FAMILIES):
            assert parsed[name] == 0, name
            assert f"# HELP {name} {help_text}" in text, name

    def test_counters_track_traffic(self, npb_trace, server):
        with PythiaClient(npb_trace, socket=server.socket_path) as client:
            registry = client.registry
            names = [str(ev) for ev in registry]
            for terminal in range(min(8, len(names))):
                ev = registry.event(terminal)
                client.event(ev.name, ev.payload)
                client.predict(1)
            parsed = parse_exposition(scrape(server))
            assert parsed["pythia_predict_observe_total"] >= 8
            assert parsed["pythia_server_sessions_active"] == 1
            assert parsed["pythia_server_events_observed"] >= 8
        parsed = parse_exposition(scrape(server))
        assert parsed["pythia_server_sessions_active"] == 0

    def test_request_latency_histogram_per_op(self, npb_trace, server):
        with PythiaClient(npb_trace, socket=server.socket_path) as client:
            client.event("never_recorded")  # forces a session + observe
        parsed = parse_exposition(scrape(server))
        # v2: latency histograms carry the framing as a proto label
        count = 'pythia_server_request_seconds_count{op="%s",proto="%s"}'
        assert parsed[count % ("observe", "binary")] == 1
        assert parsed[count % ("open_session", "json")] == 1
        assert (
            parsed['pythia_server_request_seconds_sum{op="observe",proto="binary"}']
            > 0.0
        )
        # cumulative le buckets end at +Inf == count
        assert parsed[
            'pythia_server_request_seconds_bucket'
            '{op="observe",proto="binary",le="+Inf"}'
        ] == 1

    def test_successor_cache_counters_exposed(self, npb_trace, server):
        """The compiled machine's cache counters reach the exposition."""
        parsed = parse_exposition(scrape(server))
        # pre-registered at zero before any traffic (catalogue entry)
        for family in (
            "pythia_successor_cache_hits_total",
            "pythia_successor_cache_misses_total",
            "pythia_successor_cache_evictions_total",
            "pythia_successor_det_hits_total",
        ):
            assert parsed[family] == 0, family
        with PythiaClient(npb_trace, socket=server.socket_path) as client:
            registry = client.registry
            stream = [registry.event(t) for t in range(min(6, len(list(registry))))]
            for _round in range(3):
                for ev in stream:
                    client.event_and_predict(ev.name, ev.payload)
            parsed = parse_exposition(scrape(server))
        assert parsed["pythia_successor_cache_misses_total"] > 0
        assert parsed["pythia_successor_cache_hits_total"] > 0
        assert parsed["pythia_successor_cache_entries"] > 0

    def test_latency_keys_in_stats_op(self, npb_trace, server):
        """The stats op reports each op's sample count and percentiles."""
        with PythiaClient(npb_trace, socket=server.socket_path) as client:
            client.event("never_recorded")
            stats = client.server_stats()
        latency = stats["latency"]["observe"]
        assert set(latency) == {"count", "p50_us", "p95_us", "p99_us"}
        assert latency["count"] == 1


class TestScrapesDoNotStarveTheWatchers:
    def test_metrics_every_16_events_still_feeds_flight_and_drift(
        self, npb_trace, server
    ):
        """A scrape flushes every live tracker's metrics; it must not
        restart the count the tracker's watcher cadence waits on."""
        reference = Pythia(npb_trace, mode="predict").reference
        stream = [
            reference.registry.event(t)
            for t in reference.threads[0].grammar.unfold()[:300]
        ]
        steps = [(event.name, event.payload) for event in stream]
        steps += [("never_recorded_event", None)] * 200
        with PythiaClient(npb_trace, socket=server.socket_path) as client:
            for i, (name, payload) in enumerate(steps, 1):
                client.event(name, payload)
                if i % 16 == 0:
                    scrape(server)
            dump = client.flight_dump()
        assert dump["drift"]["state"] == "diverged"
        assert any(e["kind"] == "run" for e in dump["entries"])


class TestClosedSessionsPublish:
    @pytest.mark.parametrize("close", ["finish", "drop"])
    def test_a_session_closed_between_scrapes_keeps_its_counts(
        self, npb_trace, server, close
    ):
        """A tracker publishes its counters when its session closes, by
        ``close_session`` or with its connection: the observations made
        since it was last read must not vanish with it."""
        reference = Pythia(npb_trace, mode="predict").reference
        steps = [
            (event.name, event.payload)
            for event in map(
                reference.registry.event, reference.threads[0].grammar.unfold()[:300]
            )
        ]
        with PythiaClient(npb_trace, socket=server.socket_path) as client:
            for name, payload in steps:
                client.event(name, payload)
            client.stats()
        client = PythiaClient(npb_trace, socket=server.socket_path)
        for name, payload in steps:
            client.event(name, payload)
        if close == "finish":
            client.finish()
        else:
            client._invalidate_connection()
            deadline = time.monotonic() + 10.0
            while server.counters["sessions_closed"] < 2:
                assert time.monotonic() < deadline, "the dropped session never closed"
                time.sleep(0.01)
        parsed = parse_exposition(scrape(server))
        assert parsed["pythia_server_events_observed"] == 600
        assert parsed["pythia_predict_observe_total"] == 600
