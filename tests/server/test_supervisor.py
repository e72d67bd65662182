"""The multi-worker serving tier: routing, stickiness, aggregation.

Chaos scenarios (kill -9, restart, resync) live in ``test_chaos.py``;
this module covers the supervisor's steady-state contract:

- consistent-hash routing is deterministic and sticky — one session id
  always lands on one worker, and reconnects land there too;
- predictions served through the routed path are byte-identical to a
  local oracle (the worker serves from an mmap'd artifact, so this also
  exercises the zero-copy load path end to end);
- admin ops fan out: one ``metrics`` page with a ``worker`` label on
  every sample, one ``sessions`` table tagged by worker, one ``stats``
  with summed counters and the single shared artifact path;
- a worker's reply that comes after its fan-out gave up is discarded,
  never read as the answer to a later control request, and a tier
  profile window does not hold up the workers' session opens;
- SIGTERM drains the whole tier, a worker whose supervisor is gone
  drains and exits, and a failed start names each worker's exit code.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from types import SimpleNamespace

import pytest

from repro.core.mmap_grammar import ensure_artifact
from repro.core.oracle import Pythia
from repro.obs.metrics import parse_prometheus_text
from repro.server import OracleSupervisor, PythiaClient, admin_request
from repro.server.protocol import read_frame, write_frame
from repro.server.supervisor import HashRing
from tests.server.test_chaos import (
    FAST_RETRY,
    pred_key,
    raw_connect,
    record_loop_trace,
    spawn_serve,
)


def sid_for_worker(sup: OracleSupervisor, wid: int, tag: str = "s") -> str:
    """A session id the ring routes to ``wid`` (deterministic search)."""
    for i in range(10_000):
        sid = f"{tag}-{i}"
        if sup.ring.route(sid) == wid:
            return sid
    raise AssertionError(f"no sid found for worker {wid}")


class TestHashRing:
    def test_deterministic_and_complete(self):
        ring = HashRing(range(4))
        homes = {f"k{i}": ring.route(f"k{i}") for i in range(200)}
        again = HashRing(range(4))
        assert {k: again.route(k) for k in homes} == homes
        # every worker owns a share of a couple hundred keys
        assert set(homes.values()) == {0, 1, 2, 3}

    def test_only_the_dead_workers_keys_move(self):
        ring = HashRing(range(4))
        keys = [f"k{i}" for i in range(300)]
        full = {k: ring.route(k) for k in keys}
        degraded = {k: ring.route(k, alive={0, 1, 2}) for k in keys}
        for k in keys:
            if full[k] != 3:
                assert degraded[k] == full[k]  # untouched sessions stay put
            else:
                assert degraded[k] in {0, 1, 2}  # orphans land on survivors
        # and they come back: same ring, full alive set, original homes
        assert {k: ring.route(k, alive={0, 1, 2, 3}) for k in keys} == full

    def test_empty_and_all_dead(self):
        assert HashRing([]).route("anything") is None
        assert HashRing(range(2)).route("k", alive=set()) is None


class TestValidation:
    def test_needs_exactly_one_address(self):
        with pytest.raises(ValueError):
            OracleSupervisor()
        with pytest.raises(ValueError):
            OracleSupervisor("/tmp/x.sock", tcp_address=("127.0.0.1", 0))

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            OracleSupervisor("/tmp/x.sock", workers=0)


@pytest.fixture(scope="module")
def tier(tmp_path_factory):
    """One running 2-worker supervisor shared by the steady-state tests."""
    tmp = tmp_path_factory.mktemp("sup")
    trace_path = str(tmp / "ref.pythia")
    events = record_loop_trace(trace_path)
    sock = str(tmp / "sup.sock")
    sup = OracleSupervisor(sock, workers=2, drain_deadline=1.0)
    sup.start()
    yield SimpleNamespace(sup=sup, sock=sock, trace=trace_path, events=events)
    sup.stop()


class TestRoutedServing:
    def test_ping_answers_as_supervisor(self, tier):
        response = admin_request(tier.sock, {"op": "ping"})
        assert response["pong"] and response["role"] == "supervisor"
        assert response["workers"] == 2

    def test_predictions_byte_identical_to_local(self, tier):
        local = Pythia(tier.trace, mode="predict")
        client = PythiaClient(
            tier.trace, socket=tier.sock, retry=FAST_RETRY,
            fallback="raise", session_id="routed-exact",
        )
        try:
            for name, payload in tier.events[:80]:
                lm, lp = local.event_and_predict(name, payload, distance=4)
                cm, cp = client.event_and_predict(name, payload, distance=4)
                assert (lm, pred_key(lp)) == (cm, pred_key(cp))
            assert client.worker in (0, 1)  # worker id advertised
        finally:
            client.finish()

    def test_sticky_reconnects_land_on_the_same_worker(self, tier):
        sid = sid_for_worker(tier.sup, 1, tag="sticky")
        seen = []
        for _ in range(3):  # three fresh connections, same session id
            client = PythiaClient(tier.trace, socket=tier.sock, session_id=sid)
            client.event(*tier.events[0])
            seen.append(client.worker)
            client.close()
        assert seen == [1, 1, 1]
        # the supervisor's own routing answer agrees
        response = admin_request(tier.sock, {"op": "workers", "sid": sid})
        assert response["home"] == 1

    def test_distinct_sids_use_both_workers(self, tier):
        for wid in (0, 1):
            sid = sid_for_worker(tier.sup, wid, tag="spread")
            client = PythiaClient(tier.trace, socket=tier.sock, session_id=sid)
            for name, payload in tier.events[:10]:
                client.event(name, payload)
            assert client.worker == wid
            client.close()

    def test_workers_op_reports_live_processes(self, tier):
        table = admin_request(tier.sock, {"op": "workers"})["workers"]
        assert set(table) == {"0", "1"}
        pids = {row["pid"] for row in table.values()}
        assert len(pids) == 2 and all(row["alive"] for row in table.values())

    def test_merged_metrics_label_every_sample_by_worker(self, tier):
        page = admin_request(tier.sock, {"op": "metrics"})["text"]
        parsed = parse_prometheus_text(page)
        # every sample is worker-labeled except the supervisor's own
        # process gauges (they describe the supervisor process itself)
        workers_seen = set()
        for name, labels, _value in parsed.samples:
            if not name.startswith("pythia_"):
                continue
            if name.startswith("pythia_process_") and "worker" not in labels:
                continue
            workers_seen.add(labels["worker"])
        assert workers_seen == {"0", "1"}  # no other unlabeled sample
        up = {
            labels["worker"]: value
            for name, labels, value in parsed.samples
            if name == "pythia_worker_up"
        }
        assert up == {"0": 1.0, "1": 1.0}
        # worker metrics made it through the merge, one sample per worker
        requests = [
            labels["worker"]
            for name, labels, _value in parsed.samples
            if name == "pythia_server_requests_total"
        ]
        assert sorted(requests) == ["0", "1"]

    def test_sessions_table_is_the_tagged_union(self, tier):
        by_worker = {}
        for wid in (0, 1):
            sid = sid_for_worker(tier.sup, wid, tag="table")
            by_worker[sid] = wid
            client = PythiaClient(tier.trace, socket=tier.sock, session_id=sid)
            client.event(*tier.events[0])
            client.close()
        response = admin_request(tier.sock, {"op": "sessions"})
        rows = {row["sid"]: row for row in response["sessions"]}
        for sid, wid in by_worker.items():
            assert rows[sid]["worker"] == wid
            assert rows[sid]["rid_regressions"] == 0
        assert response["tracked"] >= 2

    def test_stats_sum_and_share_one_artifact(self, tier):
        # make sure both workers have loaded the trace
        for wid in (0, 1):
            client = PythiaClient(
                tier.trace, socket=tier.sock,
                session_id=sid_for_worker(tier.sup, wid, tag="warm"),
            )
            client.event(*tier.events[0])
            client.close()
        stats = admin_request(tier.sock, {"op": "stats"})
        assert stats["role"] == "supervisor"
        assert set(stats["workers"]) == {"0", "1"}
        store = stats["store"]
        # the host paid ONE parse+compile; every other load mapped it
        assert store["artifact_compiles"] == 1
        assert store["artifact_compiles"] + store["artifact_reuses"] >= 2
        assert len(store["artifacts"]) == 1  # same .pygx file in all workers
        assert store["artifacts"][0].endswith(".pygx")
        summed = sum(
            w["counters"]["connections_accepted"] for w in stats["workers"].values()
        )
        assert stats["counters"]["connections_accepted"] == summed

    def test_session_ops_rejected_on_admin_connections(self, tier):
        sock = raw_connect(tier.sock)
        try:
            write_frame(sock, {"op": "stats"})
            assert read_frame(sock)["ok"]
            write_frame(sock, {"op": "open_session", "trace": tier.trace})
            response = read_frame(sock)
            assert not response["ok"] and response["code"] == "bad_request"
        finally:
            sock.close()


class TestTcpServing:
    def test_tcp_smoke(self, tmp_path):
        trace_path = str(tmp_path / "ref.pythia")
        events = record_loop_trace(trace_path)
        sup = OracleSupervisor(
            tcp_address=("127.0.0.1", 0), workers=2, drain_deadline=1.0,
        )
        sup.start()
        try:
            host, port = sup.address
            local = Pythia(trace_path, mode="predict")
            client = PythiaClient(
                trace_path, socket=(host, port), fallback="raise"
            )
            for name, payload in events[:40]:
                lm, lp = local.event_and_predict(name, payload, distance=2)
                cm, cp = client.event_and_predict(name, payload, distance=2)
                assert (lm, pred_key(lp)) == (cm, pred_key(cp))
            assert client.worker in (0, 1)
            client.finish()
        finally:
            sup.stop()


class TestLifecycle:
    def test_drain_stops_accepting_and_workers_exit(self, tmp_path):
        trace_path = str(tmp_path / "ref.pythia")
        record_loop_trace(trace_path)
        sock = str(tmp_path / "sup.sock")
        sup = OracleSupervisor(sock, workers=2, drain_deadline=1.0)
        sup.start()
        procs = [w.proc for w in sup._workers.values()]
        sup.drain(2.0)
        assert all(p.poll() is not None for p in procs)  # workers gone
        with pytest.raises(OSError):
            raw_connect(sock, timeout=1.0)
        sup.stop()

    def test_context_manager_cleans_up(self, tmp_path):
        sock = str(tmp_path / "sup.sock")
        with OracleSupervisor(sock, workers=1, drain_deadline=1.0) as sup:
            assert admin_request(sock, {"op": "ping"})["pong"]
            procs = [w.proc for w in sup._workers.values()]
        assert all(p.poll() is not None for p in procs)
        assert not os.path.exists(sock)

    def test_sigterm_drains_the_tier_and_exits(self, tmp_path):
        """``serve --workers 2`` under SIGTERM: the shared serve loop
        drains, the supervisor SIGTERMs its workers, and everything is
        gone within the drain deadline."""
        trace_path = str(tmp_path / "ref.pythia")
        record_loop_trace(trace_path)
        sock = str(tmp_path / "sup.sock")
        proc = spawn_serve(sock, "--workers", "2", "--drain-deadline", "2")
        try:
            table = admin_request(sock, {"op": "workers"})["workers"]
            pids = [row["pid"] for row in table.values()]
            conn = raw_connect(sock)
            write_frame(conn, {"op": "open_session", "trace": trace_path})
            assert read_frame(conn)["ok"]
            t0 = time.monotonic()
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=15) == 0
            assert time.monotonic() - t0 < 2.0
            for pid in pids:
                with pytest.raises(ProcessLookupError):
                    os.kill(pid, 0)
            conn.close()
        finally:
            proc.kill()
            proc.wait(timeout=10)

    def test_start_failure_names_each_workers_exit_code(self, tmp_path):
        """A worker that dies before its first ping is reported with its
        exit code (a zero-capacity store fails the worker's start)."""
        sup = OracleSupervisor(str(tmp_path / "sup.sock"), workers=2, cache_size=0)
        with pytest.raises(RuntimeError) as exc_info:
            sup.start(ready_timeout=20)
        message = str(exc_info.value)
        assert "worker 0 exited with code 1" in message
        assert "worker 1 exited with code 1" in message
        assert all(w.proc.poll() is not None for w in sup._workers.values())

    def test_worker_exits_when_its_channels_close(self, tmp_path):
        """A worker whose supervisor went away drains and exits 0: EOF
        on its connection channel is the signal."""
        sock = str(tmp_path / "sup.sock")
        with OracleSupervisor(sock, workers=1, drain_deadline=1.0) as sup:
            w = sup._workers[0]
            proc = w.proc
            w.close_channels()
            assert proc.wait(timeout=10) == 0


def _stopped(pid: int) -> bool:
    with open(f"/proc/{pid}/status") as fh:
        return any(line.split()[:2] == ["State:", "T"] for line in fh)


class TestControlConnection:
    def test_late_replies_do_not_shift_later_answers(self, tmp_path):
        """Replies a fan-out gave up on are discarded, not read as the
        answers to the next control requests."""
        sup = OracleSupervisor(str(tmp_path / "sup.sock"), workers=1,
                               drain_deadline=1.0)
        sup.start()
        pid = sup._workers[0].proc.pid
        try:
            os.kill(pid, signal.SIGSTOP)
            deadline = time.monotonic() + 10
            while not _stopped(pid):
                assert time.monotonic() < deadline, "worker never stopped"
                time.sleep(0.01)
            assert sup._fan_out({"op": "stats"}, timeout=0.2) == {}
            os.kill(pid, signal.SIGCONT)
            answers = sup._fan_out({"op": "sessions"})
            assert set(answers) == {0}
            assert "sessions" in answers[0] and "counters" not in answers[0]
            # a windowed profile that outlives its fan-out
            window = {"op": "profile_dump", "seconds": 1, "format": "collapsed"}
            assert sup._fan_out(window, timeout=0.2) == {}
            answers = sup._fan_out({"op": "stats"})
            assert set(answers) == {0}
            assert "counters" in answers[0] and "profile" not in answers[0]
        finally:
            os.kill(pid, signal.SIGCONT)
            sup.stop()

    def test_profile_window_does_not_hold_up_opens(self, tmp_path):
        """A tier profile runs on each worker beside its session opens:
        an open routed to a worker mid-window is answered at once."""
        trace_path = str(tmp_path / "ref.pythia")
        record_loop_trace(trace_path)
        ensure_artifact(trace_path)  # the open maps, it does not compile
        sock = str(tmp_path / "sup.sock")
        with OracleSupervisor(sock, workers=1, drain_deadline=1.0) as sup:
            merged: dict = {}
            window = threading.Thread(target=lambda: merged.update(
                sup._merged_profile({"seconds": 2, "format": "collapsed"})
            ))
            window.start()
            time.sleep(0.3)  # the worker's window is open
            conn = raw_connect(sock)
            t0 = time.monotonic()
            write_frame(conn, {"op": "open_session", "trace": trace_path})
            assert read_frame(conn)["ok"]
            assert time.monotonic() - t0 < 1.0
            conn.close()
            window.join(timeout=15)
            assert set(merged["report"]["workers"]) == {"0"}
