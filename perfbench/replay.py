"""Replay interposer call logs against the oracle: one measured phase.

Run as a script, this is the process a phase is measured in, started by
``run.py`` so that its peak RSS holds only the phase (the call logs were
generated elsewhere)::

    python3 perfbench/replay.py {record|predict|serve} --work DIR \\
        --seconds S [--trace]

It reads ``DIR/logs.pkl`` (and the reference traces ``DIR/<family>.pythia``
for predict/serve), runs passes until ``S`` seconds of phase time are
measured (at least :data:`MIN_PASSES`), and writes ``DIR/<phase>.pkl``.
With ``--trace`` it makes one untraced and one traced pass instead, and
adds the traced pass's per-layer ledger.

Every pass replays each family's log through the real runtime shims
(``OMPRuntimeSystem`` / ``MPIRuntimeSystem``), one interposer call at a
time, closed loop, timing each call.  In predict and serve the shims
talk to the oracle through :class:`Recording`, which keeps every answer
for the correctness gate.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import os
import pickle
import re
import resource
import signal
import socket
import subprocess
import sys
import threading
import time
from array import array
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import repro.core.oracle as oracle_module  # noqa: E402
from repro.core.events import EventRegistry  # noqa: E402
from repro.core.frozen import FrozenGrammar  # noqa: E402
from repro.core.grammar import Grammar  # noqa: E402
from repro.core.oracle import Pythia  # noqa: E402
from repro.core.predict import Prediction, PythiaPredict  # noqa: E402
from repro.core.record import PythiaRecord  # noqa: E402
from repro.core.timing import TimingTable  # noqa: E402
from repro.core.trace_file import Trace, load_trace  # noqa: E402
from repro.runtime.mpi_interpose import MPIRuntimeSystem  # noqa: E402
from repro.runtime.omp_interpose import OMPRuntimeSystem  # noqa: E402
from repro.server.client import PythiaClient  # noqa: E402

from calllog import FAMILIES, submitted_events  # noqa: E402
from ledger import GcWatch, Layer, Tracer  # noqa: E402

#: prediction distances the MPI shim asks for at each synchronisation
DISTANCES = (1, 16)
#: passes per untraced run, whatever ``--seconds`` says (setup medians)
MIN_PASSES = 3
#: a phase stops starting passes after this much wall time
MAX_PHASE_S = 100.0
#: how long a freshly spawned daemon may take to accept connections
DAEMON_START_S = 30.0


class _Comm:
    """The one communicator attribute ``MPIRuntimeSystem`` reads: ``now``."""

    __slots__ = ("now",)

    def __init__(self) -> None:
        self.now = 0.0


class Recording:
    """Oracle proxy between the shims and the oracle.

    Forwards every call and keeps ``(thread, answer)`` in call order.
    """

    def __init__(self, oracle, answers: list) -> None:
        self._oracle = oracle
        self._answers = answers
        self.registry = oracle.registry
        self.predicting = oracle.predicting

    def event(self, name, payload=None, *, timestamp=None, thread=0):
        answer = self._oracle.event(name, payload, timestamp=timestamp, thread=thread)
        self._answers.append((thread, answer))
        return answer

    def event_and_predict(self, name, payload=None, *, thread=0, **kwargs):
        answer = self._oracle.event_and_predict(name, payload, thread=thread, **kwargs)
        self._answers.append((thread, answer))
        return answer

    def predict(self, distance=1, *, thread=0, with_time=False):
        answer = self._oracle.predict(distance, thread=thread, with_time=with_time)
        self._answers.append((thread, answer))
        return answer


def _norm_pred(pred: Prediction | None):
    if pred is None:
        return None
    eta = None if pred.eta is None else float(pred.eta).hex()
    return (pred.terminal, float(pred.probability).hex(), eta)


def normalize(answers: list) -> list:
    """Answers as comparable tuples: terminal, probability and eta bits."""
    out = []
    for thread, answer in answers:
        if isinstance(answer, tuple):
            answer = (bool(answer[0]), _norm_pred(answer[1]))
        elif isinstance(answer, Prediction) or answer is None:
            answer = _norm_pred(answer)
        out.append((thread, answer))
    return out


def bind_calls(log: list[tuple], oracle, threads=None) -> list[tuple]:
    """``(shim method, args, comm, now)`` per logged call, one shim per thread."""
    shims: dict = {}
    calls: list[tuple] = []
    for entry in log:
        kind, thread = entry[0], entry[1]
        if threads is not None and thread not in threads:
            continue
        shim = shims.get(thread)
        if kind in ("b", "e"):
            if shim is None:
                shim = shims[thread] = OMPRuntimeSystem(oracle, thread=thread)
            fn = shim.region_begin if kind == "b" else shim.region_end
            calls.append((fn, (entry[2], entry[3]), None, 0.0))
            continue
        if shim is None:
            shim = shims[thread] = MPIRuntimeSystem(oracle, thread, _Comm(), distances=DISTANCES)
        if kind == "c":
            calls.append((shim.mpi_call, (entry[2], entry[3]), shim.comm, entry[4]))
        else:
            calls.append((shim.mpi_sync, (entry[2],), None, 0.0))
    return calls


def replay(calls: list[tuple], lat, errors: list[str], *,
           tracer: Tracer | None = None, check=None) -> int:
    """Make every call in order, closed loop; returns the failed-call count.

    A call fails when it raises or when ``check()`` says it was not
    answered by the oracle as asked (e.g. after a reconnect).
    """
    failed = 0
    root = tracer.call if tracer is not None else None
    for fn, args, comm, now in calls:
        if comm is not None:
            comm.now = now
        try:
            if root is None:
                t0 = perf_counter()
                fn(*args)
                lat.append(perf_counter() - t0)
            else:
                lat.append(root("runtime.shim", fn, args))
        except Exception as exc:  # a failed call is counted, not fatal
            failed += 1
            if len(errors) < 5:
                errors.append(f"{type(exc).__name__}: {exc}")
            continue
        if check is not None and check():
            failed += 1
    return failed


def _reset_peak_rss() -> bool:
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


def _status_kb(pid: int | str, field: str) -> int:
    with open(f"/proc/{pid}/status") as fh:
        return int(re.search(rf"^{field}:\s+(\d+)", fh.read(), re.M).group(1))


def _peak_rss_mb(reset: bool) -> float:
    if reset:
        return _status_kb("self", "VmHWM") / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# record
# ----------------------------------------------------------------------


def record_pass(logs: dict, paths: dict[str, str], tracer: Tracer | None = None) -> dict:
    """Record both families into ``paths`` through record-mode oracles."""
    reset = _reset_peak_rss()
    oracles = {fam: Pythia(paths[fam], mode="record", record_timestamps=True,
                           meta={"family": fam}) for fam in FAMILIES}
    calls = {fam: bind_calls(logs[fam].record, oracles[fam]) for fam in FAMILIES}
    lat = {fam: array("d") for fam in FAMILIES}
    ledgers: dict[str, dict[str, Layer]] = {fam: {} for fam in (*FAMILIES, "finish")}
    errors: list[str] = []
    failed = 0
    with GcWatch() as gcw:
        spans: dict[str, float] = {}
        t0 = perf_counter()
        for fam in FAMILIES:
            if tracer is not None:
                tracer.bind(ledgers[fam])
            start = perf_counter()
            failed += replay(calls[fam], lat[fam], errors, tracer=tracer)
            spans[fam] = perf_counter() - start
        t1 = perf_counter()
        if tracer is not None:
            tracer.bind(ledgers["finish"])
        for fam in FAMILIES:
            oracles[fam].finish()
        t2 = perf_counter()
    grammars = {fam: [rec.grammar for _t, rec in sorted(oracles[fam]._recorders.items())]
                for fam in FAMILIES}
    return {
        "lat": lat, "wall": t2 - t0, "spans": spans, "finish_s": t2 - t1, "failed": failed,
        "errors": errors, "peak_rss_mb": _peak_rss_mb(reset),
        "bytes": sum(os.path.getsize(paths[fam]) for fam in FAMILIES),
        "gc": (gcw.collections, gcw.pause_s), "ledgers": ledgers,
        "grammar": {
            "rules_created": sum(g.rules_created for gs in grammars.values() for g in gs),
            "exponent_merges": sum(g.exponent_merges for gs in grammars.values() for g in gs),
            "rules_live": sum(g.rule_count for gs in grammars.values() for g in gs),
        },
        "_grammars": grammars,
    }


def verify_record(logs: dict, paths: dict[str, str], grammars: dict) -> str | None:
    """Each saved trace reloads and unfolds to exactly the submitted
    per-thread stream, and every live grammar passes check_invariants()."""
    for fam in FAMILIES:
        expected = submitted_events(logs[fam].record)
        trace = load_trace(paths[fam])
        if sorted(trace.threads) != sorted(expected):
            return f"{fam}: trace threads {sorted(trace.threads)} != {sorted(expected)}"
        event = trace.registry.event
        for tid, events in expected.items():
            got = [(e.name, e.payload) for e in map(event, trace.threads[tid].grammar.unfold())]
            if got != events:
                return f"{fam}: thread {tid} does not unfold to the submitted stream"
        for grammar in grammars[fam]:
            grammar.check_invariants()
    return None


def install_record_layers(tracer: Tracer) -> None:
    tracer.wrap(Pythia, "event", "core.oracle")
    tracer.wrap(PythiaRecord, "record_event", "core.record")
    tracer.wrap(EventRegistry, "intern", "core.events.intern")
    tracer.wrap(Grammar, "append", "core.grammar.append")
    tracer.wrap(Pythia, "finish", "core.oracle.finish")
    tracer.wrap(PythiaRecord, "finish", "core.record.finish")
    tracer.wrap(FrozenGrammar, "from_grammar", "core.frozen.freeze", static=True)
    tracer.wrap(TimingTable, "from_replay", "core.timing.replay", static=True)
    tracer.wrap(Trace, "save", "core.trace_file.save")


# ----------------------------------------------------------------------
# predict
# ----------------------------------------------------------------------


def _predict_layer(args, kwargs) -> str:
    distance = args[1] if len(args) > 1 else kwargs.get("distance", 1)
    if kwargs.get("with_time"):
        return f"core.predict.predict_timed_d{distance}"
    return f"core.predict.predict_d{distance}"


def install_predict_layers(tracer: Tracer) -> None:
    tracer.wrap(oracle_module, "load_trace", "core.trace_file.load")
    for name in ("event", "event_and_predict", "predict"):
        tracer.wrap(Pythia, name, "core.oracle")
    tracer.wrap(Pythia, "finish", "core.oracle.finish")
    tracer.wrap(EventRegistry, "lookup", "core.events.lookup")
    tracer.wrap(PythiaPredict, "observe", "core.predict.observe")
    tracer.wrap(PythiaPredict, "observe_unknown", "core.predict.observe")
    tracer.wrap(PythiaPredict, "observe_and_predict", "core.predict.fused")
    tracer.wrap(PythiaPredict, "predict", _predict_layer)


def predict_pass(logs: dict, traces: dict[str, str], tracer: Tracer | None = None) -> dict:
    """Open every reference trace, then replay both families in-process."""
    reset = _reset_peak_rss()
    ledgers: dict[str, dict[str, Layer]] = {fam: {} for fam in (*FAMILIES, "setup")}
    if tracer is not None:
        tracer.bind(ledgers["setup"])
    t0 = perf_counter()
    oracles = {fam: Pythia(traces[fam], mode="predict") for fam in FAMILIES}
    for oracle in oracles.values():
        oracle.enable_drift()
    setup_s = perf_counter() - t0
    answers: dict[str, list] = {fam: [] for fam in FAMILIES}
    calls = {fam: bind_calls(logs[fam].predict, Recording(oracles[fam], answers[fam]))
             for fam in FAMILIES}
    lat = {fam: array("d") for fam in FAMILIES}
    errors: list[str] = []
    failed = 0
    spans: dict[str, float] = {}
    with GcWatch() as gcw:
        t0 = perf_counter()
        for fam in FAMILIES:
            if tracer is not None:
                tracer.bind(ledgers[fam])
            start = perf_counter()
            failed += replay(calls[fam], lat[fam], errors, tracer=tracer)
            spans[fam] = perf_counter() - start
            oracles[fam].finish()
        wall = perf_counter() - t0
    tracker: dict[str, dict] = {}
    for fam, oracle in oracles.items():
        threads = sorted({entry[1] for entry in logs[fam].predict})
        per_thread = [oracle.stats(t) for t in threads]
        stats = oracle.stats()
        machines = [oracle.reference.threads[t].grammar.machine().stats() for t in threads]
        tracker[fam] = {
            "hit_rate": stats["hit_rate"],
            "matched": stats["matched"], "observed": stats["observed"],
            "unexpected": stats["unexpected"], "unknown": stats["unknown"],
            "pruned": stats["pruned"],
            "candidates_mean": sum(s["candidates"] for s in per_thread) / len(per_thread),
            "successor": {key: sum(m[key] for m in machines)
                          for key in ("hits", "misses", "evictions", "det_hits", "entries")},
        }
    return {
        "lat": lat, "wall": wall, "spans": spans, "setup_s": setup_s, "failed": failed,
        "errors": errors, "peak_rss_mb": _peak_rss_mb(reset),
        "answers": {fam: normalize(a) for fam, a in answers.items()},
        "gc": (gcw.collections, gcw.pause_s), "ledgers": ledgers, "tracker": tracker,
    }


class ReferencePythia(Pythia):
    """The facade over ``compiled=False`` (uncached reference) trackers."""

    def _predictor(self, thread: int) -> PythiaPredict:
        pred = self._predictors.get(thread)
        if pred is None:
            tt = self.reference.threads[thread]
            pred = PythiaPredict(tt.grammar, tt.timing, max_candidates=self._max_candidates,
                                 compiled=False)
            self._predictors[thread] = pred
        return pred


def reference_answers(logs: dict, traces: dict[str, str], sample: dict[str, set]) -> dict:
    """The reference path's answers for the sampled threads of each family."""
    out = {}
    for fam in FAMILIES:
        answers: list = []
        oracle = ReferencePythia(traces[fam], mode="predict")
        calls = bind_calls(logs[fam].predict, Recording(oracle, answers), sample[fam])
        errors: list[str] = []
        if replay(calls, [], errors):
            raise RuntimeError(f"reference replay failed: {errors}")
        out[fam] = normalize(answers)
    return out


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------


def _cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _die_with_parent() -> None:
    """Run in the daemon before exec: SIGTERM it if this process dies."""
    pr_set_pdeathsig = 1
    ctypes.CDLL(None).prctl(pr_set_pdeathsig, signal.SIGTERM)


def _wait_for_socket(path: str, daemon: subprocess.Popen) -> None:
    deadline = time.monotonic() + DAEMON_START_S
    while True:
        if daemon.poll() is not None:
            raise RuntimeError(f"daemon exited with {daemon.returncode} before listening")
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            probe.connect(path)
            return
        except OSError:
            if time.monotonic() > deadline:
                raise RuntimeError("daemon did not listen in time") from None
            time.sleep(0.002)
        finally:
            probe.close()


def _failure_check(client: PythiaClient):
    """True after a call the daemon did not answer on the first try."""
    seen = [0]

    def check() -> bool:
        counters = client.counters
        total = counters["retries"] + counters["reconnects"] + counters["fallbacks"]
        if total != seen[0] or client.degraded:
            seen[0] = total
            return True
        return False

    return check


def _charge_reply(tracer: Tracer):
    """``after`` hook of the client's facade calls: split its round trip."""

    def after(args, _result) -> None:
        timing = args[0].last_timing
        total = timing["total_us"] / 1e6
        tracer.charge("server.client.total", total)
        if timing["queue_us"] is not None:
            tracer.charge("server.eventloop.queue", timing["queue_us"] / 1e6)
            tracer.charge("server.daemon.handler", timing["handler_us"] / 1e6)

    return after


def install_serve_layers(tracer: Tracer) -> None:
    after = _charge_reply(tracer)
    for name in ("event", "event_and_predict", "predict"):
        tracer.wrap(PythiaClient, name, "server.client", after=after)
    tracer.wrap(PythiaClient, "_bin_encode_request", "server.protocol.encode")
    tracer.wrap(PythiaClient, "_bin_decode_reply", "server.protocol.decode", static=True)
    tracer.wrap(EventRegistry, "lookup", "core.events.lookup")


def serve_pass(logs: dict, traces: dict[str, str], sock: str, env: dict,
               tracer: Tracer | None = None) -> dict:
    """Spawn a daemon, open every session, replay loop on connection A and
    irregular on connection B concurrently, then stop the daemon."""
    t0 = perf_counter()
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--socket", sock],
        cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, preexec_fn=_die_with_parent,
    )
    clients: dict[str, PythiaClient] = {}
    try:
        _wait_for_socket(sock, daemon)
        open_s = 0.0
        for fam in FAMILIES:
            client = clients[fam] = PythiaClient(traces[fam], socket=sock)
            threads = dict.fromkeys(entry[1] for entry in logs[fam].predict)
            t_open = perf_counter()
            for i, thread in enumerate(threads):
                client._session(thread)
                if i == 0:
                    open_s += perf_counter() - t_open
        setup_s = perf_counter() - t0
        protocols = {fam: c._proto_state for fam, c in clients.items()}
        answers: dict[str, list] = {fam: [] for fam in FAMILIES}
        calls = {fam: bind_calls(logs[fam].predict, Recording(clients[fam], answers[fam]))
                 for fam in FAMILIES}
        lat = {fam: array("d") for fam in FAMILIES}
        ledgers: dict[str, dict[str, Layer]] = {fam: {} for fam in FAMILIES}
        failed = {fam: 0 for fam in FAMILIES}
        errors: list[str] = []
        spans: dict[str, tuple[float, float]] = {}
        barrier = threading.Barrier(len(FAMILIES))

        def connection(fam: str) -> None:
            if tracer is not None:
                tracer.bind(ledgers[fam])
            check = _failure_check(clients[fam])
            barrier.wait()
            start = perf_counter()
            failed[fam] = replay(calls[fam], lat[fam], errors, tracer=tracer, check=check)
            spans[fam] = (start, perf_counter())

        cpu0 = _cpu_s(daemon.pid)
        workers = [threading.Thread(target=connection, args=(fam,)) for fam in FAMILIES]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        cpu1 = _cpu_s(daemon.pid)
        wall = max(end for _s, end in spans.values()) - min(s for s, _e in spans.values())
        stats = clients["loop"].server_stats()
        hit_rates = {fam: c.stats()["hit_rate"] for fam, c in clients.items()}
        peak_rss_mb = _status_kb(daemon.pid, "VmHWM") / 1024.0
    finally:
        for client in clients.values():
            try:
                client.finish()
            except Exception:  # the daemon may already be gone; stop it anyway
                pass
        daemon.send_signal(signal.SIGTERM)
        try:
            daemon.wait(timeout=15)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.wait()
    return {
        "lat": lat, "wall": wall, "setup_s": setup_s, "failed": sum(failed.values()),
        "errors": errors, "peak_rss_mb": peak_rss_mb, "protocols": protocols,
        "answers": {fam: normalize(a) for fam, a in answers.items()},
        "ledgers": ledgers, "hit_rates": hit_rates,
        "spans": {fam: end - start for fam, (start, end) in spans.items()},
        "daemon": {
            "cpu_busy": (cpu1 - cpu0) / wall,
            "requests_failed": stats["counters"]["requests_failed"],
            "connections_dropped": stats["counters"]["connections_dropped"],
            "store_misses": stats["store"]["misses"],
            "open_s": open_s,
        },
    }


# ----------------------------------------------------------------------
# the phase process
# ----------------------------------------------------------------------


def _run_phase(phase: str, work: str, seconds: float, traced: bool) -> dict:
    with open(os.path.join(work, "logs.pkl"), "rb") as fh:
        logs = pickle.load(fh)
    traces = {fam: os.path.join(os.path.relpath(work, ROOT), f"{fam}.pythia")
              for fam in FAMILIES}
    sock = os.path.join(os.path.relpath(work, ROOT), "oracle.sock")
    env = dict(os.environ)
    install = {"record": install_record_layers, "predict": install_predict_layers,
               "serve": install_serve_layers}[phase]
    passes: list[dict] = []
    started = time.monotonic()
    measured = 0.0
    plan = [False, True] if traced else None
    first_answers = None
    while True:
        k = len(passes)
        # the logs and earlier passes stay out of the collector's view:
        # collections in a pass then cost what the program's heap costs
        gc.collect()
        gc.freeze()
        tracer = None
        if plan is not None:
            if k == len(plan):
                break
            if plan[k]:
                tracer = Tracer()
                install(tracer)
        elif (k >= MIN_PASSES and measured >= seconds) or (
                k and time.monotonic() - started > MAX_PHASE_S):
            break
        try:
            if phase == "record":
                paths = {fam: os.path.join(work, f"rec{k}-{fam}.pythia") for fam in FAMILIES}
                result = record_pass(logs, paths, tracer)
            elif phase == "predict":
                result = predict_pass(logs, traces, tracer)
            else:
                result = serve_pass(logs, traces, sock, env, tracer)
        finally:
            if tracer is not None:
                tracer.remove()
        if phase == "record":
            result["verify_error"] = verify_record(logs, paths, result.pop("_grammars"))
            for path in paths.values():
                os.unlink(path)
        if "answers" in result:
            answers = result.pop("answers")
            if first_answers is None:
                first_answers = result["answers"] = answers
            result["same_answers"] = answers == first_answers
        measured += result["wall"]
        passes.append(result)
    return {"passes": passes}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=("record", "predict", "serve"))
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    out = _run_phase(args.phase, args.work, args.seconds, args.trace)
    with open(os.path.join(args.work, f"{args.phase}.pkl"), "wb") as fh:
        pickle.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
